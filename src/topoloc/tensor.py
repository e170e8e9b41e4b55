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
backward: ``linear``, ``gin``, ``batch_norm``, ``cross_entropy`` and
``gclstm_cell``, whose one node yields both the output h and the cell state
c as column blocks.  Each computes its forward in the same operation order as
the unfused expression of primitives, so their values are bit-identical.
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


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


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
        out = Tensor(_sigmoid(self.data))
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


def _gin_forward(u, au, eps, w1, b1, w2, b2):
    """GIN layer on arrays, given ``au = adj @ u``: (scale, agg, hidden, out)."""
    scale = eps.data + 1.0
    agg = u * scale + au
    hidden = np.maximum(agg @ w1.data + b1.data, 0.0)
    return scale, agg, hidden, hidden @ w2.data + b2.data


def _gin_backward(g, u, agg, hidden, eps, w1, b1, w2, b2):
    """Accumulate a GIN layer's parameter adjoints; return the adjoint of `agg`."""
    if w2.requires_grad:
        w2._accum(hidden.T @ g)
    if b2.requires_grad:
        b2._accum(g.sum(axis=0))
    g = (g @ w2.data.T) * (hidden > 0.0)
    if w1.requires_grad:
        w1._accum(agg.T @ g)
    if b1.requires_grad:
        b1._accum(g.sum(axis=0))
    g = g @ w1.data.T
    if eps.requires_grad:
        eps._accum((g * u).sum(axis=0).sum())
    return g


def gin(x, adj, eps, w1, b1, w2, b2):
    """GIN layer ``relu(((1 + eps) x + adj @ x) @ w1 + b1) @ w2 + b2`` as one graph node."""
    params = (eps, w1, b1, w2, b2)
    scale, agg, hidden, out = _gin_forward(x.data, adj.data @ x.data, *params)
    out = Tensor(out)
    if _recording(x, adj, *params):
        def bwd(g):
            g = _gin_backward(g, x.data, agg, hidden, *params)
            if x.requires_grad:
                x._accum(g * scale + adj.data.T @ g)
            if adj.requires_grad:
                adj._accum(g @ x.data.T)
        out._record((x, adj) + params, bwd)
    return out


def _column_blocks(inputs, backward, blocks):
    """Tensors holding `blocks`, recorded as column blocks of one node over `inputs`.

    `backward` receives the blocks' adjoints side by side in one array, with
    zeros for a block that received none.
    """
    node = Tensor(np.concatenate(blocks, axis=1))
    node._record(inputs, backward)

    def accum_columns(cols):
        def bwd(g):
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
                node._grad_owned = True
            node.grad[:, cols] += g
        return bwd

    outs, start = [], 0
    for data in blocks:
        out = Tensor(data)
        out._record((node,), accum_columns(slice(start, start + data.shape[1])))
        start += data.shape[1]
        outs.append(out)
    return outs


def gclstm_cell(x, h_prev, c_prev, adj, gins, w_ci, w_cf, w_co, b_i, b_f, b_c, b_o):
    """One graph-convolutional LSTM step as one graph node; returns (h, c).

    `gins` holds eight GIN parameter tuples ``(eps, w1, b1, w2, b2)``; the
    layers G0..G7 read x at even and h_prev at odd positions:

        i = sigmoid(G0(x) + G1(h_prev) + w_ci * c_prev + b_i)
        f = sigmoid(G2(x) + G3(h_prev) + w_cf * c_prev + b_f)
        c = f * c_prev + i * tanh(G4(x) + G5(h_prev) + b_c)
        o = sigmoid(G6(x) + G7(h_prev) + w_co * c + b_o)
        h = o * tanh(c)

    ``adj @ x`` and ``adj @ h_prev`` are computed once and shared by the four
    layers reading them.  h and c are column blocks of the one node.
    """
    inputs = ((x, h_prev, c_prev, adj) + tuple(t for p in gins for t in p)
              + (w_ci, w_cf, w_co, b_i, b_f, b_c, b_o))
    recording = _recording(*inputs)
    xd, hd, cd, ad = x.data, h_prev.data, c_prev.data, adj.data
    sides = ((xd, ad @ xd), (hd, ad @ hd))
    layers = []

    def layer_output(k):
        # without a graph to record, a layer's intermediates are dropped as
        # soon as its output exists, and each output as soon as it is added
        # into its gate, which keeps evaluation's peak memory low
        layer = _gin_forward(*sides[k % 2], *gins[k])
        if recording:
            layers.append(layer)
        return layer[-1]

    def gate_input(k):
        return layer_output(2 * k) + layer_output(2 * k + 1)

    i = _sigmoid(gate_input(0) + w_ci.data * cd + b_i.data)
    f = _sigmoid(gate_input(1) + w_cf.data * cd + b_f.data)
    cand = np.tanh(gate_input(2) + b_c.data)
    c = f * cd + i * cand
    o = _sigmoid(gate_input(3) + w_co.data * c + b_o.data)
    tc = np.tanh(c)
    h = o * tc
    if not recording:
        return Tensor(h), Tensor(c)

    def bwd(g):
        gh, gc = g[:, :h.shape[1]], g[:, h.shape[1]:]
        dzo = gh * tc * o * (1.0 - o)
        dc = gc + gh * o * (1.0 - tc * tc) + dzo * w_co.data
        dzi = dc * cand * i * (1.0 - i)
        dzf = dc * cd * f * (1.0 - f)
        dzc = dc * i * (1.0 - cand * cand)
        for t, gt in ((w_ci, dzi * cd), (w_cf, dzf * cd), (w_co, dzo * c),
                      (b_i, dzi), (b_f, dzf), (b_c, dzc), (b_o, dzo)):
            if t.requires_grad:
                t._accum(gt.sum(axis=0))
        if c_prev.requires_grad:
            c_prev._accum(dc * f + dzi * w_ci.data + dzf * w_cf.data)
        gates = (dzi, dzi, dzf, dzf, dzc, dzc, dzo, dzo)
        dagg = [_gin_backward(gates[k], sides[k % 2][0], layer[1], layer[2], *p)
                for k, (layer, p) in enumerate(zip(layers, gins))]
        for side, t in enumerate((x, h_prev)):
            ks = range(side, 8, 2)
            gsum = dagg[ks[0]] + dagg[ks[1]] + dagg[ks[2]] + dagg[ks[3]]
            if t.requires_grad:
                t._accum(dagg[ks[0]] * layers[ks[0]][0] + dagg[ks[1]] * layers[ks[1]][0]
                         + dagg[ks[2]] * layers[ks[2]][0] + dagg[ks[3]] * layers[ks[3]][0]
                         + ad.T @ gsum)
            if adj.requires_grad:
                adj._accum(gsum @ sides[side][0].T)

    return _column_blocks(inputs, bwd, (h, c))


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
    terms.  Without, the whole vector is one segment.
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
    out = Tensor((-(z[targets] - np.log(total))).sum())
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
