"""Dense float64 tensors with reverse-mode differentiation.

Small tape-free autograd.  An operation whose inputs include a tensor that
requires grad returns a Tensor that remembers those inputs and a closure
accumulating adjoints into them, set by ``Tensor._record``, the one way to
make a graph node; other operations, and every operation inside a
``no_grad()`` block, return a plain value with no graph.  Closures
capture input tensors and arrays, never their own output, so a graph holds
no reference cycle and is freed by reference counting.

backward() visits graph nodes in decreasing creation order, which is a
reverse topological order because every tensor is created after its
inputs.  It releases each node's parents and closure as soon as the node's
adjoint has been pushed to them, so the graph is freed while backward()
runs; a second backward() through the same graph raises RuntimeError.

Besides elementwise, reduction and reshaping primitives, fused ops carry the localizer's
layers and loss with one graph node each, with hand-written backward: ``linear``, ``gin``,
``take_rows``, ``batch_norm``, ``cross_entropy`` and ``gclstm_cell``, whose one node spans
every step of a sequence, with h and c of all steps as column blocks and each side's four
GIN layers run as one call stacked on a leading axis, forward and backward.  ``gin`` and
``gclstm_cell`` take the map's adjacency as a constant array, which gets no adjoint.  Each
computes its forward in the same operation order as the unfused expression of primitives
(the cell: as its steps and GIN layers run one at a time), so their values are bit-identical.
Their backwards sum each parameter adjoint over rows in one ``ones @ g`` or ``einsum``.
No model path records ``sigmoid``, ``tanh``, ``exp``, ``sqrt``, ``mean``,
``-`` or ``/``; they stay because the tests build the fused ops' references
from them.

``batch_norm`` and ``cross_entropy`` also take ``Segments``: the row blocks
of a batch that stacks several graphs.  They then normalize within each
block, so the graphs of a batch never share statistics.
"""

from __future__ import annotations

import ctypes
import gc
import heapq
import itertools
import json
from contextlib import contextmanager

import numpy as np

_creation_index = itertools.count()
_grad_enabled = True


@contextmanager
def no_grad():
    """Within the block, operations record no graph: outputs never require grad."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # malloc.h
_memory_scopes = 0  # how many memory_scope blocks are open


def _mallopt(param, value):
    """The C library's ``mallopt(param, value)``; does nothing where it has none."""
    try:
        return ctypes.CDLL(None).mallopt(param, value)
    except (AttributeError, OSError, TypeError):
        return 0


@contextmanager
def memory_scope():
    """Pause the cyclic collector and keep freed heap; nested scopes do nothing.

    Graphs hold no cycles, and a step frees what the next allocates again, so
    glibc's mmap and trim thresholds are raised.  The outermost exit, also on an
    exception, restores the collector and the 128 KiB trim threshold; the mmap
    threshold stays, since glibc stops adapting it once it is set.
    """
    global _memory_scopes
    _memory_scopes += 1
    if _memory_scopes == 1:
        collecting = gc.isenabled()
        gc.disable()
        _mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        _mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    try:
        yield
    finally:
        _memory_scopes -= 1
        if not _memory_scopes:
            _mallopt(_M_TRIM_THRESHOLD, 128 << 10)
            if collecting:
                gc.enable()


def _recording(*inputs):
    """Whether an op over `inputs` must record its parents and backward closure."""
    if _grad_enabled:
        for t in inputs:
            if t.requires_grad:
                return True
    return False


def _sigmoid(z, out):
    """``1 / (1 + exp(-z))`` into `out` (may be `z`); exp(-z) is inf, harmlessly, below -709."""
    np.exp(np.negative(z, out=out), out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


_FREED = "backward() through a graph that an earlier backward() has freed"


def _released(g):
    raise RuntimeError(_FREED)


class Tensor:
    """A float64 ndarray plus the bookkeeping for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward",
                 "_grad_owned", "_index")

    def __init__(self, data, requires_grad=False, name=None):
        if not (isinstance(data, np.ndarray) and data.dtype == np.float64):
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.grad = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents = ()
        self._backward = None
        self._grad_owned = False
        self._index = next(_creation_index)

    def _record(self, inputs, backward):
        """Make this op output a graph node over the inputs that require grad."""
        self.requires_grad = True
        self._parents = tuple(t for t in inputs if t.requires_grad)
        self._backward = backward

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def param(data, name=None):
        return Tensor(np.array(data, dtype=np.float64), requires_grad=True, name=name)

    @staticmethod
    def const(data):
        return Tensor(data)

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- autodiff core -------------------------------------------------------

    def _accum(self, g):
        # first contribution borrows g; later ones copy-on-write, since g may
        # be shared with (or viewed from) another tensor's gradient
        if self.grad is None:
            self.grad = g
            self._grad_owned = False
        elif self._grad_owned:
            self.grad += g
        else:
            self.grad = self.grad + g
            self._grad_owned = True

    def backward(self):
        if self.data.shape not in ((), (1,)):
            raise ValueError(f"backward() needs a scalar loss, got shape {self.data.shape}")
        if self._backward is _released:
            raise RuntimeError(_FREED)
        self.grad = np.ones_like(self.data)
        self._grad_owned = True
        if self._backward is None:
            return
        # max-heap on creation index: a node is popped only after every node
        # created from it, i.e. after all contributions to its adjoint
        pending = {self._index: self}
        heap = [-self._index]
        while heap:
            node = pending.pop(-heapq.heappop(heap))
            node._backward(node.grad)
            for p in node._parents:
                if p._backward is not None and p._index not in pending:
                    pending[p._index] = p
                    heapq.heappush(heap, -p._index)
            node._parents = ()
            node._backward = _released

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = self._coerce(other)
        out = Tensor(self.data + other.data)
        if _recording(self, other):
            def bwd(g):
                if self.requires_grad:
                    self._accum(_unbroadcast(g, self.data.shape))
                if other.requires_grad:
                    other._accum(_unbroadcast(g, other.data.shape))
            out._record((self, other), bwd)
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data)
        if _recording(self):
            out._record((self,), lambda g: self._accum(-g))
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        out = Tensor(self.data - other.data)
        if _recording(self, other):
            def bwd(g):
                if self.requires_grad:
                    self._accum(_unbroadcast(g, self.data.shape))
                if other.requires_grad:
                    other._accum(_unbroadcast(-g, other.data.shape))
            out._record((self, other), bwd)
        return out

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        out = Tensor(self.data * other.data)
        if _recording(self, other):
            def bwd(g):
                if self.requires_grad:
                    self._accum(_unbroadcast(g * other.data, self.data.shape))
                if other.requires_grad:
                    other._accum(_unbroadcast(g * self.data, other.data.shape))
            out._record((self, other), bwd)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        out = Tensor(self.data / other.data)
        if _recording(self, other):
            def bwd(g):
                if self.requires_grad:
                    self._accum(_unbroadcast(g / other.data, self.data.shape))
                if other.requires_grad:
                    other._accum(_unbroadcast(-g * self.data / other.data ** 2,
                                              other.data.shape))
            out._record((self, other), bwd)
        return out

    def __matmul__(self, other):
        other = self._coerce(other)
        out = Tensor(self.data @ other.data)
        if _recording(self, other):
            def bwd(g):
                if self.requires_grad:
                    self._accum(g @ other.data.T)
                if other.requires_grad:
                    other._accum(self.data.T @ g)
            out._record((self, other), bwd)
        return out

    def sqrt(self):
        out = Tensor(np.sqrt(self.data))
        if _recording(self):
            root = out.data
            out._record((self,), lambda g: self._accum(g * 0.5 / root))
        return out

    def exp(self):
        out = Tensor(np.exp(self.data))
        if _recording(self):
            e = out.data
            out._record((self,), lambda g: self._accum(g * e))
        return out

    # -- activations ---------------------------------------------------------

    def relu(self):
        out = Tensor(np.maximum(self.data, 0.0))
        if _recording(self):
            out._record((self,), lambda g: self._accum(g * (self.data > 0.0)))
        return out

    def sigmoid(self):
        with np.errstate(over="ignore"):  # see _sigmoid
            out = Tensor(_sigmoid(self.data, np.empty_like(self.data)))
        if _recording(self):
            s = out.data
            out._record((self,), lambda g: self._accum(g * s * (1.0 - s)))
        return out

    def tanh(self):
        out = Tensor(np.tanh(self.data))
        if _recording(self):
            t = out.data
            out._record((self,), lambda g: self._accum(g * (1.0 - t ** 2)))
        return out

    # -- reductions / reshaping ---------------------------------------------

    def sum(self, axis=None):
        out = Tensor(self.data.sum(axis=axis))
        if _recording(self):
            def bwd(g):
                g = g if axis is None else np.expand_dims(g, axis)
                self._accum(np.broadcast_to(g, self.data.shape).copy())
            out._record((self,), bwd)
        return out

    def mean(self, axis=None):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis) * (1.0 / n)

    def reshape(self, shape):
        out = Tensor(self.data.reshape(shape))
        if _recording(self):
            out._record((self,), lambda g: self._accum(g.reshape(self.data.shape)))
        return out


def _unbroadcast(grad, shape):
    """Reduce a gradient back to the shape it was broadcast from."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


def concat(tensors, axis=0):
    datas = [t.data for t in tensors]
    out = Tensor(np.concatenate(datas, axis=axis))
    if _recording(*tensors):
        bounds = np.cumsum([d.shape[axis] for d in datas])[:-1]
        def bwd(g):
            for t, part in zip(tensors, np.split(g, bounds, axis=axis)):
                if t.requires_grad:
                    t._accum(part)
        out._record(tensors, bwd)
    return out


# -- fused layers --------------------------------------------------------------


def linear(x, w, b):
    """``x @ w + b`` as one graph node.  A one-column `w` is one dot product per row,
    whose rounding, unlike a BLAS matrix-vector product's, does not depend on the row count."""
    y = np.einsum("ij,j->i", x.data, w.data[:, 0])[:, None] if w.shape[1] == 1 else x.data @ w.data
    out = Tensor(y + b.data)
    if _recording(x, w, b):
        def bwd(g):
            if x.requires_grad:
                x._accum(g @ w.data.T)
            if w.requires_grad:
                w._accum(x.data.T @ g)
            if b.requires_grad:
                b._accum(np.ones(len(g)) @ g)
        out._record((x, w, b), bwd)
    return out


def _gin_forward(u, au, scale, w1, b1, w2, b2, agg=None, hidden=None, out=None):
    """GIN layer on arrays, given ``au = adj @ u`` and ``scale = eps + 1``: (agg, hidden, out).

    Sums and ReLU run in place, in `agg`, `hidden` and `out` if given.  Weights
    stacked on a leading axis run several layers as one call, each as if alone.
    """
    agg = np.multiply(u, scale, out=agg)
    agg += au
    hidden = np.matmul(agg, w1, out=hidden)
    hidden += b1
    np.maximum(hidden, 0.0, out=hidden)
    out = np.matmul(hidden, w2, out=out)
    out += b2
    return agg, hidden, out


def _gin_backprop(g, hidden, w1, w2, g_hidden=None, g_agg=None):
    """Adjoints of GIN layers' hidden pre-activation and `agg`; stacked arrays run several."""
    g_hidden = np.matmul(g, w2.swapaxes(-1, -2), out=g_hidden)
    g_hidden *= hidden > 0.0
    return g_hidden, np.matmul(g_hidden, w1.swapaxes(-1, -2), out=g_agg)


def _gin_param_adjoints(layers, u, g, g_hidden, g_agg, agg, hidden):
    """Accumulate the adjoints of GIN `layers`, stacked on the arrays' leading axis, over `u`."""
    ones = np.ones(g.shape[-2])
    w2, b2 = np.matmul(hidden.swapaxes(-1, -2), g), np.matmul(ones, g)
    w1, b1 = np.matmul(agg.swapaxes(-1, -2), g_hidden), np.matmul(ones, g_hidden)
    for k, params in enumerate(layers):
        # eps layer by layer: a 3-D einsum over all layers rounds differently at many rows
        gts = (np.einsum("ij,ij->", g_agg[k], u), w1[k], b1[k], w2[k], b2[k])
        for t, gt in zip(params, gts):
            if t.requires_grad:
                t._accum(gt)


def gin(x, adj, eps, w1, b1, w2, b2):
    """GIN layer ``relu(((1 + eps) x + adj @ x) @ w1 + b1) @ w2 + b2`` as one graph node."""
    params = (eps, w1, b1, w2, b2)
    scale = eps.data + 1.0
    agg, hidden, out = _gin_forward(x.data, adj @ x.data, scale, *(p.data for p in params[1:]))
    out = Tensor(out)
    if _recording(x, *params):
        def bwd(g):
            g_hidden, g_agg = _gin_backprop(g, hidden, w1.data, w2.data)
            _gin_param_adjoints([params], x.data,
                                *(a[None] for a in (g, g_hidden, g_agg, agg, hidden)))
            if x.requires_grad:
                x._accum(g_agg * scale + adj.T @ g_agg)
        out._record((x,) + params, bwd)
    return out


def take_rows(x, index):
    """Rows ``x[index]`` (row numbers >= 0) as one graph node; a repeated row sums its adjoints."""
    out = Tensor(x.data[index])
    if _recording(x):
        def bwd(g):
            # bincount adds each element's adjoints from 0 in order of appearance, as
            # np.add.at does, but without add.at's loop over rows
            width = int(np.prod(x.data.shape[1:]))
            cells = np.asarray(index, dtype=np.intp)[:, None] * width + np.arange(width)
            grad = np.bincount(cells.reshape(-1), g.reshape(-1), minlength=x.data.size)
            x._accum(grad.reshape(x.data.shape))
        out._record((x,), bwd)
    return out


def _blocks(inputs, backward, data, index):
    """Views ``data[i]`` for each index i, recorded as blocks of one node over `inputs`.

    `backward` receives the node's adjoint, zero where no block received one.
    """
    node = Tensor(data)
    node._record(inputs, backward)

    def accum(i):
        def bwd(g):
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
                node._grad_owned = True
            node.grad[i] += g
        return bwd

    outs = [Tensor(data[i]) for i in index]
    for out, i in zip(outs, index):
        out._record((node,), accum(i))
    return outs


def gclstm_stack(gins, b_i, b_f, b_c, rows):
    """Copies of `gclstm_cell`'s weights for `rows` node rows: (x side, h side, (b_i, b_f, b_c)).

    A side stacks its four GIN layers' ``eps + 1``, w1, b1, w2 and b2 on a leading
    axis.  Biases are repeated over the rows: one contiguous add, not one per row.
    """
    def tiled(biases):
        return np.repeat(np.array([b.data for b in biases])[:, None], rows, axis=1)

    def side(layers):
        eps, w1, b1, w2, b2 = zip(*layers)
        return ((np.array([e.data for e in eps]) + 1.0).reshape(4, 1, 1),
                np.array([w.data for w in w1]), tiled(b1), np.array([w.data for w in w2]),
                tiled(b2))
    return side(gins[0::2]), side(gins[1::2]), tiled((b_i, b_f, b_c))


def gclstm_cell(x, h0, c0, adj, gins, w_ci, w_cf, w_co, b_i, b_f, b_c, b_o, stacked=None):
    """Graph-convolutional LSTM steps as one graph node: (h, c, h_last, c_last).

    `x` stacks one block of ``n = adj.shape[0]`` node rows per step, and the
    cell runs over the steps in order from state (h0, c0).  `gins` holds
    eight GIN parameter tuples ``(eps, w1, b1, w2, b2)``; the layers G0..G7
    read x_t at even and h_{t-1} at odd positions:

        i = sigmoid(G0(x_t) + G1(h_{t-1}) + w_ci * c_{t-1} + b_i)
        f = sigmoid(G2(x_t) + G3(h_{t-1}) + w_cf * c_{t-1} + b_f)
        c_t = f * c_{t-1} + i * tanh(G4(x_t) + G5(h_{t-1}) + b_c)
        o = sigmoid(G6(x_t) + G7(h_{t-1}) + w_co * c_t + b_o)
        h_t = o * tanh(c_t)

    Each side's four GIN layers run as one call stacked on a leading axis,
    forward and backward: the x side once over all steps, the h side once per
    step.  A stacked call multiplies each layer's and step's block on its own,
    so every value is that of the steps and layers run one at a time.
    `stacked` is `gclstm_stack` of the current parameter values for n rows;
    without it the cell stacks them itself.  h and c of all steps are the
    node's column blocks and the last step's h and c its row blocks (h and c
    themselves for one step).  The backward is one reverse-time loop, then
    the parameter adjoints are taken once over all rows.
    """
    inputs = ((x, h0, c0) + tuple(t for p in gins for t in p)
              + (w_ci, w_cf, w_co, b_i, b_f, b_c, b_o))
    recording = _recording(*inputs)
    xd, hd, cd = x.data, h0.data, c0.data
    n, d = hd.shape
    xw, hw, b_ifc = gclstm_stack(gins, b_i, b_f, b_c, n) if stacked is None else stacked
    steps = xd.shape[0] // n
    x_steps = xd.reshape(steps, n, -1)
    zx = np.empty((4, steps, n, d))  # the x-side layers' outputs
    # each side's agg and hidden rows, kept to record; the backward empties the list
    saved = [_gin_forward(x_steps, adj @ x_steps, *(a[:, None] for a in xw), out=zx)[:2]]
    if recording:  # the h side's, filled in step by step
        saved.append((np.empty((4, steps * n, d)), np.empty((4, steps * n, hw[1].shape[2]))))
    gates, saved = [], saved if recording else None
    out = np.empty(((steps + 1) * n, 2 * d)) if recording or steps > 1 else None
    if out is not None:  # node rows: the initial state, then one block per step; h | c columns
        out[:n, :d], out[:n, d:] = hd, cd
    with np.errstate(over="ignore"):  # see _sigmoid; one state for all steps
        for t in range(steps):
            rows = slice(t * n, (t + 1) * n)
            # the pre-activations of i, f, the candidate and o, summed in place in the
            # order of the equations (the GIN terms commute); without a graph to record,
            # the h-side layers' output overwrites their sums, no longer needed by then
            z = np.empty((4, n, d))
            _gin_forward(hd, adj @ hd, *hw, *((*(a[:, rows] for a in saved[1]), z) if recording
                                            else (z, None, z)))
            z += zx[:, t]
            z[0] += w_ci.data * cd
            z[1] += w_cf.data * cd
            z[:3] += b_ifc
            i, f = _sigmoid(z[:2], out=z[:2])
            cand = np.tanh(z[2], out=z[2])
            c = f * cd
            c += i * cand
            z[3] += w_co.data * c
            z[3] += b_o.data
            o = _sigmoid(z[3], out=z[3])
            tc = np.tanh(c)
            h = o * tc
            if recording:
                gates.append((i, f, cand, o, tc))
            if out is not None:
                out[(t + 1) * n:(t + 2) * n, :d] = h
                out[(t + 1) * n:(t + 2) * n, d:] = c
            hd, cd = h, c
    if not recording:  # the blocks, without copying them
        h, c = Tensor(h), Tensor(c)
        return (h, c, h, c) if out is None else (Tensor(out[n:, :d]), Tensor(out[n:, d:]), h, c)
    xw, hw = ((s, w1, w2) for s, w1, _, w2, _ in (xw, hw))  # not the row-tiled biases

    def bwd(g):
        g = g[n:]
        h_prev, c_prev, c_all = out[:-n, :d], out[:-n, d:], out[n:, d:]
        dz = np.empty((4, steps * n, d))  # adjoints of the i, f, candidate and o pre-activations
        agg, hidden = saved.pop()  # the h side's
        g_hidden, g_agg = np.empty_like(hidden), np.empty_like(agg)
        dh = dc = None
        for t in reversed(range(steps)):
            rows = slice(t * n, (t + 1) * n)
            i, f, cand, o, tc = gates.pop()  # released once used, for a lower peak
            gh, gc = g[rows, :d], g[rows, d:]
            if dh is not None:
                gh, gc = gh + dh, gc + dc
            dzo = np.multiply(gh * tc * o, 1.0 - o, out=dz[3, rows])
            dct = gc + gh * o * (1.0 - tc * tc) + dzo * w_co.data
            dzi = np.multiply(dct * cand * i, 1.0 - i, out=dz[0, rows])
            dzf = np.multiply(dct * c_prev[rows] * f, 1.0 - f, out=dz[1, rows])
            np.multiply(dct * i, 1.0 - cand * cand, out=dz[2, rows])
            dc = dct * f + dzi * w_ci.data + dzf * w_cf.data
            ga = _gin_backprop(dz[:, rows], hidden[:, rows], hw[1], hw[2], g_hidden[:, rows],
                               g_agg[:, rows])[1]
            # a sum over the leading axis adds the layers in order, left to right
            dh = (ga * hw[0]).sum(axis=0) + adj.T @ ga.sum(axis=0)
        peepholes = [(t, np.einsum("ij,ij->j", a, c)) for t, a, c in
                     ((w_ci, dz[0], c_prev), (w_cf, dz[1], c_prev), (w_co, dz[3], c_all))]
        biases = zip((b_i, b_f, b_c, b_o), np.ones(steps * n) @ dz)
        for t, gt in [(h0, dh), (c0, dc), *peepholes, *biases]:
            if t.requires_grad:
                t._accum(gt)
        _gin_param_adjoints(gins[1::2], h_prev, dz, g_hidden, g_agg, agg, hidden)
        ga = g_hidden = g_agg = None  # released with the h side's saved rows, for a lower peak
        agg, hidden = (a.reshape(4, len(xd), -1) for a in saved.pop())
        g_hidden, g_agg = _gin_backprop(dz, hidden, xw[1], xw[2])
        _gin_param_adjoints(gins[0::2], xd, dz, g_hidden, g_agg, agg, hidden)
        if x.requires_grad:
            gsum = g_agg.sum(axis=0).reshape(steps, n, -1)
            x._accum((g_agg * xw[0]).sum(axis=0) + (adj.T @ gsum).reshape(xd.shape))

    # h and c of every step, then of the last step unless that is every step
    rows = [slice(n, None)] + ([slice(steps * n, None)] if steps > 1 else [])
    blocks = _blocks(inputs, bwd, out, [(r, c) for r in rows
                                        for c in (slice(None, d), slice(d, None))])
    return tuple(blocks) if steps > 1 else (*blocks, *blocks)


# -- losses and normalization --------------------------------------------------


def softmax_rows(x):
    """Row-wise softmax; rows of the output sum to 1."""
    shift = Tensor.const(x.data.max(axis=-1, keepdims=True))
    e = (x - shift).exp()
    denom = e.sum(axis=-1)
    if x.data.ndim > 1:
        denom = denom.reshape(denom.data.shape + (1,))
    return e / denom


class Segments:
    """Consecutive row blocks of a batch that stacks several graphs.

    Block b holds ``sizes[b]`` rows and starts at row ``starts[b]``.  A single
    block reduces with ``ufunc.reduce``, in the summation order of the
    unsegmented op; several reduce with ``ufunc.reduceat``.
    """

    def __init__(self, sizes):
        sizes = tuple(int(s) for s in sizes)
        if not sizes or min(sizes) < 1:
            raise ValueError("segments need at least one block and one row per block")
        self.sizes = sizes
        self.counts = np.array(sizes, dtype=np.float64)[:, None]
        self.starts = np.cumsum((0,) + sizes[:-1])
        self.ids = np.repeat(np.arange(len(sizes)), sizes)

    def __len__(self):
        return len(self.sizes)

    def reduce(self, ufunc, a):
        """`ufunc` reduced over the rows of each block: one row per block."""
        if len(self.sizes) == 1:
            return ufunc.reduce(a, axis=0, keepdims=True)
        return ufunc.reduceat(a, self.starts, axis=0)

    def spread(self, rows):
        """One row per block, repeated over the rows of its block."""
        return rows if len(self.sizes) == 1 else rows[self.ids]


def cross_entropy(logits, target_index, segments=None):
    """-log softmax(logits)[target] for a 1-D logits vector, as one graph node.

    With `segments` the vector holds one block of logits per segment, the
    softmax runs within each block, `target_index` holds one index into the
    whole vector per segment, and the result is the sum of the segments'
    terms.  Without, the whole vector is one segment.  A 2-D `target_index`
    holds one row of segments per step: each row's terms are summed, then
    the rows in order, as per-step losses added one after another would be.
    """
    ld = logits.data
    if ld.ndim != 1:
        raise ValueError("cross_entropy expects a 1-D logits vector")
    seg = Segments(ld.shape) if segments is None else segments
    targets = np.reshape(target_index, -1)
    if targets.shape != (len(seg),) or sum(seg.sizes) != ld.shape[0]:
        raise ValueError("cross_entropy needs one target per segment and segments "
                         "covering the logits")
    if not np.all((seg.starts <= targets) & (targets < seg.starts + seg.sizes)):
        raise IndexError(f"target index {target_index} out of range")
    z = ld - seg.spread(seg.reduce(np.maximum, ld))
    e = np.exp(z)
    total = seg.reduce(np.add, e)
    terms = -(z[targets] - np.log(total))
    per_row = np.shape(target_index)[-1] if np.ndim(target_index) == 2 else terms.size
    out = Tensor(np.cumsum(terms.reshape(-1, per_row).sum(axis=1))[-1])
    if _recording(logits):
        def bwd(g):
            grad = e * seg.spread(g / total)
            grad[targets] -= g
            logits._accum(grad)
        out._record((logits,), bwd)
    return out


def batch_norm(x, gamma, beta, eps=1e-5, segments=None):
    """Normalize each feature over the rows of each segment, then affine; one graph node.

    Without `segments` all rows form one segment.
    """
    xd = x.data
    seg = Segments(xd.shape[:1]) if segments is None else segments
    n = seg.counts
    # sum * (1/n) rather than mean(): the composed op's order, for bit-identical values;
    # a feature whose rows equal its segment's first row centres to 0 there, not to rounding
    xc = xd - seg.spread(seg.reduce(np.add, xd) * (1.0 / n))
    np.copyto(xc, 0, where=seg.spread(seg.reduce(np.logical_and, xd == seg.spread(xd[seg.starts]))))
    std = seg.spread(np.sqrt(seg.reduce(np.add, xc * xc) * (1.0 / n) + eps))
    xhat = xc / std
    out = Tensor(xhat * gamma.data + beta.data)
    if _recording(x, gamma, beta):
        def bwd(g):
            if gamma.requires_grad:
                gamma._accum(np.einsum("ij,ij->j", g, xhat))
            if beta.requires_grad:
                beta._accum(np.ones(len(g)) @ g)
            if x.requires_grad:
                gx = g * gamma.data
                x._accum((gx - seg.spread(seg.reduce(np.add, gx) / n)
                          - xhat * seg.spread(seg.reduce(np.add, gx * xhat) / n)) / std)
        out._record((x, gamma, beta), bwd)
    return out


# -- optimizer ---------------------------------------------------------------


class Adam:
    """Adam with per-group learning rates (encoder vs everything else).

    One in-place pass over flat moment vectors, in a per-parameter update's
    elementwise order, so values are bit-identical to it.  A parameter whose
    `grad` is None keeps its value and moments.
    """

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, groups):
        # groups: list of (params, lr) with params a list of Tensors
        self.groups = [(list(ps), lr) for ps, lr in groups]
        self.t = 0
        self._params, self._slices, self._group_slices = [], [], []
        offset = 0
        for ps, lr in self.groups:
            start = offset
            for p in ps:
                self._params.append(p)
                self._slices.append(slice(offset, offset + p.data.size))
                offset += p.data.size
            self._group_slices.append((slice(start, offset), lr))
        self.m, self.v = np.zeros(offset), np.zeros(offset)

    def zero_grad(self):
        for p in self._params:
            p.grad = None

    def step(self):
        grads, idle = [np.zeros(0)], []  # an array to join even with no parameters
        for p, s in zip(self._params, self._slices):
            if p.grad is None:  # updated with a zero gradient, then its moments put back
                idle.append((s, self.m[s].copy(), self.v[s].copy()))
            elif np.shape(p.grad) != p.data.shape:
                raise ValueError("gradient/parameter shape mismatch")
            grads.append(np.zeros(p.data.shape) if p.grad is None else p.grad)
        self.t += 1
        g = np.concatenate(grads, axis=None)
        g2 = np.multiply(1 - self.b2, g)
        g2 *= g
        self.v *= self.b2
        self.v += g2
        g *= 1 - self.b1
        self.m *= self.b1
        self.m += g
        for s, m, v in idle:
            self.m[s], self.v[s] = m, v
        step = np.divide(self.m, 1 - self.b1 ** self.t, out=g)  # mhat
        for s, lr in self._group_slices:
            step[s] *= lr
        denom = np.divide(self.v, 1 - self.b2 ** self.t, out=g2)  # vhat
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        for p, s in zip(self._params, self._slices):
            if p.grad is not None:
                p.data -= step[s].reshape(p.data.shape)


# -- gradient verification ---------------------------------------------------


def grad_check(f, params, eps=1e-5):
    """Max relative error between analytic and central-difference gradients.

    f: nullary function rebuilding the loss graph from current param data.
    params: dict name -> Tensor.  Returns dict name -> max relative error.
    """
    for p in params.values():
        p.grad = None
    loss = f()
    loss.backward()
    analytic = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for k, p in params.items()}
    report = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f().item()
            flat[i] = orig - eps
            lo = f().item()
            flat[i] = orig
            num[i] = (hi - lo) / (2 * eps)
        a = analytic[name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(num)), 1e-4)
        report[name] = float(np.max(np.abs(a - num) / denom)) if flat.size else 0.0
    return report


# -- checkpoint persistence --------------------------------------------------


def save_checkpoint(path, params, manifest=None):
    """Named-parameter flat file; float repr round-trips bit exactly."""
    blob = {
        "manifest": manifest or {},
        "params": {k: {"shape": list(p.data.shape), "data": p.data.reshape(-1).tolist()}
                   for k, p in params.items()},
    }
    with open(path, "w") as fh:
        json.dump(blob, fh)


def load_checkpoint(path):
    """(params, manifest); any other section of the file is ignored."""
    with open(path) as fh:
        blob = json.load(fh)
    params = {k: np.array(v["data"], dtype=np.float64).reshape(v["shape"])
              for k, v in blob["params"].items()}
    return params, blob.get("manifest", {})
