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

Besides elementwise, reduction and reshaping primitives, fused ops carry
the localizer's layers and loss with one graph node each, with hand-written
backward: ``linear``, ``gin``, ``take_rows``, ``batch_norm``,
``cross_entropy`` and ``gclstm_cell``, whose one node spans every step of a
sequence, with h and c of all steps as column blocks.  Each computes its
forward in the same operation order as the unfused expression of primitives
(the cell: as its steps run one at a time), so their values are bit-identical.
No model path records ``sigmoid``, ``tanh``, ``exp``, ``sqrt``, ``mean``,
``-`` or ``/``; they stay because the tests build the fused ops' references
from them.

``batch_norm`` and ``cross_entropy`` also take ``Segments``: the row blocks
of a batch that stacks several graphs.  They then normalize within each
block, so the graphs of a batch never share statistics.
"""

from __future__ import annotations

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


def _recording(*inputs):
    """Whether an op over `inputs` must record its parents and backward closure."""
    if _grad_enabled:
        for t in inputs:
            if t.requires_grad:
                return True
    return False


def _sigmoid(z, out):
    """``1 / (1 + exp(-z))`` into the array `out`, which may be `z`."""
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
                if axis is None:
                    self._accum(np.full_like(self.data, 1.0) * g)
                else:
                    self._accum(np.broadcast_to(np.expand_dims(g, axis),
                                                self.data.shape).copy())
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
        sizes = [d.shape[axis] for d in datas]
        def bwd(g):
            offset = 0
            for t, s in zip(tensors, sizes):
                if t.requires_grad:
                    idx = [slice(None)] * g.ndim
                    idx[axis] = slice(offset, offset + s)
                    t._accum(g[tuple(idx)])
                offset += s
        out._record(tensors, bwd)
    return out


# -- fused layers --------------------------------------------------------------


def linear(x, w, b):
    """``x @ w + b`` as one graph node."""
    out = Tensor(x.data @ w.data + b.data)
    if _recording(x, w, b):
        def bwd(g):
            if x.requires_grad:
                x._accum(g @ w.data.T)
            if w.requires_grad:
                w._accum(x.data.T @ g)
            if b.requires_grad:
                b._accum(g.sum(axis=0))
        out._record((x, w, b), bwd)
    return out


def _gin_forward(u, au, eps, w1, b1, w2, b2, agg=None, hidden=None):
    """GIN layer on arrays, given ``au = adj @ u``: (scale, agg, hidden, out).

    Sums and ReLU run in place, `agg` and `hidden` in the given arrays if any.
    """
    scale = eps.data + 1.0
    agg = np.multiply(u, scale, out=agg)
    agg += au
    hidden = np.matmul(agg, w1.data, out=hidden)
    hidden += b1.data
    np.maximum(hidden, 0.0, out=hidden)
    out = hidden @ w2.data
    out += b2.data
    return scale, agg, hidden, out


def _gin_backprop(g, hidden, eps, w1, b1, w2, b2, g_hidden=None, g_agg=None):
    """Adjoints of a GIN layer's hidden pre-activation and `agg` from its output's."""
    g_hidden = np.multiply(g @ w2.data.T, hidden > 0.0, out=g_hidden)
    return g_hidden, np.matmul(g_hidden, w1.data.T, out=g_agg)


def _gin_param_adjoints(g, g_hidden, g_agg, u, agg, hidden, eps, w1, b1, w2, b2):
    """Accumulate a GIN layer's parameter adjoints over all rows of its input `u`."""
    for t, gt in ((w2, hidden.T @ g), (b2, g.sum(axis=0)), (w1, agg.T @ g_hidden),
                  (b1, g_hidden.sum(axis=0)), (eps, (g_agg * u).sum(axis=0).sum())):
        if t.requires_grad:
            t._accum(gt)


def gin(x, adj, eps, w1, b1, w2, b2):
    """GIN layer ``relu(((1 + eps) x + adj @ x) @ w1 + b1) @ w2 + b2`` as one graph node."""
    params = (eps, w1, b1, w2, b2)
    scale, agg, hidden, out = _gin_forward(x.data, adj.data @ x.data, *params)
    out = Tensor(out)
    if _recording(x, adj, *params):
        def bwd(g):
            g_hidden, g_agg = _gin_backprop(g, hidden, *params)
            _gin_param_adjoints(g, g_hidden, g_agg, x.data, agg, hidden, *params)
            if x.requires_grad:
                x._accum(g_agg * scale + adj.data.T @ g_agg)
            if adj.requires_grad:
                adj._accum(g_agg @ x.data.T)
        out._record((x, adj) + params, bwd)
    return out


def take_rows(x, index):
    """Rows ``x[index]`` (row numbers >= 0) as one graph node; a repeated row sums its adjoints."""
    out = Tensor(x.data[index])
    if _recording(x):
        def bwd(g):
            grad = np.zeros_like(x.data)
            np.add.at(grad, index, g)
            x._accum(grad)
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


def gclstm_cell(x, h0, c0, adj, gins, w_ci, w_cf, w_co, b_i, b_f, b_c, b_o):
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

    The x-side layers run once over all steps, multiplying each step's block
    on its own, so every value is that of the steps run one at a time; only
    the h-side layers and the gates loop over steps.  h and c of all steps
    are the node's column blocks and the last step's h and c its row blocks
    (h and c themselves for one step).  The backward is one reverse-time
    loop, then the parameter adjoints are taken once over all rows.
    """
    inputs = ((x, h0, c0, adj) + tuple(t for p in gins for t in p)
              + (w_ci, w_cf, w_co, b_i, b_f, b_c, b_o))
    recording = _recording(*inputs)
    xd, hd, cd, ad = x.data, h0.data, c0.data, adj.data
    n, d = hd.shape
    steps = xd.shape[0] // n
    x_steps = xd if steps == 1 else xd.reshape(steps, n, -1)
    ax = ad @ x_steps
    x_layers, gates = [], []

    def output(k, u, au, *into):
        # without a graph to record, intermediates are dropped once the layer's output
        # exists and outputs once added into their gate, for a low evaluation peak
        layer = _gin_forward(u, au, *gins[k], *into)
        if recording and k % 2 == 0:
            x_layers.append(layer[:3])  # the output is not needed for the backward
        return layer[3]

    # the x-side layers of several steps run once over all of them
    zx = [output(k, x_steps, ax) for k in range(0, 8, 2)] if steps > 1 else None
    out = np.empty(((steps + 1) * n, 2 * d)) if recording or steps > 1 else None
    if out is not None:  # node rows: the initial state, then one block per step; h | c columns
        out[:n, :d], out[:n, d:] = hd, cd
    if recording:  # each step's agg and hidden rows of the h-side layers
        h_saved = [(np.empty((steps * n, d)), np.empty((steps * n, gins[k][1].data.shape[1])))
                   for k in range(1, 8, 2)]
    for t in range(steps):
        rows = slice(t * n, (t + 1) * n)
        ah = ad @ hd
        into = [(agg[rows], hidden[rows]) for agg, hidden in h_saved] if recording else [()] * 4

        def gate(j, activation, *terms):  # summed in place, in the order of the equations
            z = output(2 * j, xd, ax) if zx is None else zx[j][t]
            for term in (output(2 * j + 1, hd, ah, *into[j]),) + terms:
                z += term
            return activation(z, out=z)

        i = gate(0, _sigmoid, w_ci.data * cd, b_i.data)
        f = gate(1, _sigmoid, w_cf.data * cd, b_f.data)
        cand = gate(2, np.tanh, b_c.data)
        c = f * cd
        c += i * cand
        o = gate(3, _sigmoid, w_co.data * c, b_o.data)
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

    def per_step(a):  # one block of n rows per step
        return a.reshape(steps, n, -1)

    def bwd(g):
        g = g[n:]
        h_prev, c_prev, c_all = out[:-n, :d], out[:-n, d:], out[n:, d:]
        dz = np.empty((4, steps * n, d))  # adjoints of the i, f, candidate and o pre-activations
        g_hidden = [np.empty_like(hidden) for _, hidden in h_saved]
        g_agg = [np.empty((steps * n, d)) for _ in range(4)]
        scales = [gins[k][0].data + 1.0 for k in range(1, 8, 2)]
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
            ga = [_gin_backprop(dz[j, rows], h_saved[j][1][rows], *gins[2 * j + 1],
                                g_hidden[j][rows], g_agg[j][rows])[1] for j in range(4)]
            dh = (ga[0] * scales[0] + ga[1] * scales[1] + ga[2] * scales[2]
                  + ga[3] * scales[3] + ad.T @ (ga[0] + ga[1] + ga[2] + ga[3]))
        sums = [(t, a.sum(axis=0)) for t, a in ((w_ci, dz[0] * c_prev), (w_cf, dz[1] * c_prev),
                (w_co, dz[3] * c_all), (b_i, dz[0]), (b_f, dz[1]), (b_c, dz[2]), (b_o, dz[3]))]
        for t, gt in [(h0, dh), (c0, dc)] + sums:
            if t.requires_grad:
                t._accum(gt)
        x_agg = []
        for j in range(4):  # each layer's saved rows are released once used
            scale, agg, hidden = x_layers[j]
            x_layers[j], agg, hidden = (scale,), agg.reshape(xd.shape), hidden.reshape(len(xd), -1)
            gx_hidden, gx_agg = _gin_backprop(dz[j], hidden, *gins[2 * j])
            _gin_param_adjoints(dz[j], gx_hidden, gx_agg, xd, agg, hidden, *gins[2 * j])
            x_agg.append(gx_agg)
            _gin_param_adjoints(dz[j], g_hidden[j], g_agg[j], h_prev, *h_saved[j],
                                *gins[2 * j + 1])
            h_saved[j] = g_hidden[j] = None
        gsum = x_agg[0] + x_agg[1] + x_agg[2] + x_agg[3]
        if x.requires_grad:
            x._accum(x_agg[0] * x_layers[0][0] + x_agg[1] * x_layers[1][0]
                     + x_agg[2] * x_layers[2][0] + x_agg[3] * x_layers[3][0]
                     + (ad.T @ per_step(gsum)).reshape(gsum.shape))
        if adj.requires_grad:
            hsum = g_agg[0] + g_agg[1] + g_agg[2] + g_agg[3]
            adj._accum((per_step(gsum) @ per_step(xd).transpose(0, 2, 1)
                        + per_step(hsum) @ per_step(h_prev).transpose(0, 2, 1)).sum(axis=0))

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
    # sum * (1/n) rather than mean(): the composed op's order, for bit-identical values
    xc = xd - seg.spread(seg.reduce(np.add, xd) * (1.0 / n))
    std = seg.spread(np.sqrt(seg.reduce(np.add, xc * xc) * (1.0 / n) + eps))
    xhat = xc / std
    out = Tensor(xhat * gamma.data + beta.data)
    if _recording(x, gamma, beta):
        def bwd(g):
            if gamma.requires_grad:
                gamma._accum((g * xhat).sum(axis=0))
            if beta.requires_grad:
                beta._accum(g.sum(axis=0))
            if x.requires_grad:
                gx = g * gamma.data
                x._accum((gx - seg.spread(seg.reduce(np.add, gx) / n)
                          - xhat * seg.spread(seg.reduce(np.add, gx * xhat) / n)) / std)
        out._record((x, gamma, beta), bwd)
    return out


# -- optimizer ---------------------------------------------------------------


class Adam:
    """Adam with per-group learning rates (encoder vs everything else)."""

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, groups):
        # groups: list of (params, lr) with params a list of Tensors
        self.groups = [(list(ps), lr) for ps, lr in groups]
        self.t = 0
        self.m = {}
        self.v = {}

    def zero_grad(self):
        for ps, _ in self.groups:
            for p in ps:
                p.grad = None

    def step(self):
        self.t += 1
        for ps, lr in self.groups:
            for p in ps:
                g = p.grad
                if g is None:
                    continue
                if g.shape != p.data.shape:
                    raise ValueError("gradient/parameter shape mismatch")
                key = id(p)
                m = self.m.get(key)
                if m is None:
                    m = np.zeros_like(p.data)
                    self.v[key] = np.zeros_like(p.data)
                v = self.v[key]
                m = self.b1 * m + (1 - self.b1) * g
                v = self.b2 * v + (1 - self.b2) * g * g
                self.m[key] = m
                self.v[key] = v
                mhat = m / (1 - self.b1 ** self.t)
                vhat = v / (1 - self.b2 ** self.t)
                p.data -= lr * mhat / (np.sqrt(vhat) + self.eps)


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
