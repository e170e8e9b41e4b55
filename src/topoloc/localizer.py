"""Three-module localization network.

Pipeline per observation: a shared MLP encoder embeds the observation and
every node descriptor; a pair network turns (observation, node) embedding
pairs into per-node features; a graph-convolutional LSTM (gates built from
GIN aggregations of the current features and the previous cell output,
with peephole terms) carries per-node recurrent state; a skip FC forwards
self-node features around the recurrent layer; an identification head maps
each node's concatenated features to a likelihood, softmaxed over nodes.

Variants: "no_gclstm" replaces the recurrent layer with a stateless
per-node FC stack, "no_skip" drops the skip path.

The param dataclasses alone declare the parameters.  Every layer stack (the
encoder, the pair net, the ``no_gclstm`` frame stack, the skip path and the
head) is one ``MLPParams`` run by ``_mlp``; batch norm is a ``(gamma, beta)``
tuple.  Every parameter list is derived by walking them in field order, and
the parameter names are the checkpoint format.

One forward, ``step_logits``, serves inference and training.  It runs over
any number of steps on a ``MapContext`` holding one map or the disjoint
union of several (node rows concatenated, a block-diagonal adjacency), with
one observation per map and step; each map's nodes gather their own
observation's row.  Everything but the recurrence runs once over the rows of
all steps.  ``localize_step`` is its one-map, one-step case; training runs
the equal-length windows of a mini-batch as one call over their submaps.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from . import tensor as T
from .tensor import (Tensor, Segments, batch_norm, concat, gclstm_cell, gin, linear,
                     take_rows)
from .topo_graph import TopoMap

VARIANTS = ("full", "no_gclstm", "no_skip")


@dataclass
class LocalizerConfig:
    d_obs: int = 16
    d_emb: int = 16
    d_x: int = 16
    d_h: int = 32
    d_skip: int = 16
    enc_hidden: int = 16
    gin_hidden: int = 32
    head_hidden: int = 32
    variant: str = "full"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")

    def to_dict(self):
        return dict(self.__dict__)

    @staticmethod
    def from_dict(d):
        return LocalizerConfig(**d)


def _linear_init(rng, fan_in, fan_out, name):
    w = rng.normal(size=(fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
    # small random bias keeps pre-activations off the exact ReLU kink even
    # when an input block is identically zero (e.g. the initial cell output)
    b = 0.01 * rng.normal(size=fan_out)
    return Tensor.param(w, name=f"{name}.W"), Tensor.param(b, name=f"{name}.b")


def _norm_init(dim, name):
    """Batch-norm affine ``(gamma, beta)``, starting as the identity."""
    return (Tensor.param(np.ones(dim), name=f"{name}.gamma"),
            Tensor.param(np.zeros(dim), name=f"{name}.beta"))


@dataclass
class MLPParams:
    layers: list  # [(W, b), ...], ReLU between layers
    norms: tuple = ()  # batch-norm (gamma, beta) after each of the first layers

    @staticmethod
    def init(dims, rng, name, norms=()):
        return MLPParams([_linear_init(rng, dims[i], dims[i + 1], f"{name}.{i}")
                          for i in range(len(dims) - 1)], tuple(norms))


@dataclass
class GINParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    eps: Tensor  # learnable scalar

    @staticmethod
    def init(d_in, hidden, d_out, rng, name):
        w1, b1 = _linear_init(rng, d_in, hidden, f"{name}.mlp0")
        w2, b2 = _linear_init(rng, hidden, d_out, f"{name}.mlp1")
        return GINParams(w1, b1, w2, b2, Tensor.param(0.0, name=f"{name}.eps"))


@dataclass
class GCLSTMParams:
    gins: list  # G_1..G_8; odd slots consume x_t, even slots consume h_{t-1}
    w_ci: Tensor
    w_cf: Tensor
    w_co: Tensor
    b_i: Tensor
    b_f: Tensor
    b_c: Tensor
    b_o: Tensor

    @staticmethod
    def init(cfg, rng):
        d = cfg.d_h
        gins = [GINParams.init(cfg.d_x if k % 2 == 1 else d, cfg.gin_hidden, d, rng,
                               f"gclstm.gin{k}") for k in range(1, 9)]
        peepholes = [Tensor.param(0.1 * rng.normal(size=d), name=f"gclstm.w_c{g}")
                     for g in "ifo"]
        # forget bias 1: retain memory early
        biases = [Tensor.param(np.full(d, 1.0 if g == "f" else 0.0), name=f"gclstm.b_{g}")
                  for g in "ifco"]
        return GCLSTMParams(gins, *peepholes, *biases)


@dataclass
class GCLSTMState:
    h: Tensor
    c: Tensor


# -- forward operations ------------------------------------------------------


def _mlp(params: MLPParams, x: Tensor, segments: Segments | None = None) -> Tensor:
    """Each layer: `linear`, its batch norm if it has one, then ReLU unless it is last."""
    out = x
    for i, (w, b) in enumerate(params.layers):
        out = linear(out, w, b)
        if i < len(params.norms):
            out = batch_norm(out, *params.norms[i], segments=segments)
        if i < len(params.layers) - 1:
            out = out.relu()
    return out


def encode(params: MLPParams, x: Tensor) -> Tensor:
    return _mlp(params, x)


def pair_features(params: MLPParams, current_emb: Tensor, node_embs: Tensor,
                  query=None) -> Tensor:
    """Per-node features from (query, node) embedding pairs.

    Output row r pairs node row ``r % len(node_embs)`` with query row
    ``query[r]`` of `current_emb`, so the output holds one block of node rows
    per step; without `query` the nodes are paired once, with query row 0.
    """
    n = node_embs.shape[0]
    query = np.zeros(n, dtype=np.intp) if query is None else query
    if len(query) != n:
        node_embs = concat([node_embs] * (len(query) // n))
    return _mlp(params, concat([take_rows(current_emb, query), node_embs], axis=1))


def _as_adjacency(x_rows, edges):
    if isinstance(edges, Tensor):
        return edges
    a = np.zeros((x_rows, x_rows))
    for s, t in edges:
        if not (0 <= s < x_rows and 0 <= t < x_rows) or s == t:
            raise ValueError(f"invalid edge ({s}, {t}) for {x_rows} nodes")
        a[s, t] = 1.0
        a[t, s] = 1.0
    return Tensor.const(a)


def gin_aggregate(params: GINParams, x: Tensor, edges) -> Tensor:
    adj = _as_adjacency(x.shape[0], edges)
    return gin(x, adj, params.eps, params.w1, params.b1, params.w2, params.b2)


def gclstm_step(params: GCLSTMParams, x: Tensor, edges, state: GCLSTMState):
    """The GCLSTM over the steps stacked in `x`: (h of every step, state after the last)."""
    n = state.h.shape[0]
    if x.shape[0] < n or x.shape[0] % n:
        raise ValueError(f"{x.shape[0]} input rows are not whole steps of the {n}-row state")
    adj = _as_adjacency(n, edges)
    gins = [(g.eps, g.w1, g.b1, g.w2, g.b2) for g in params.gins]
    h, _, h_last, c_last = gclstm_cell(x, state.h, state.c, adj, gins, params.w_ci,
                                       params.w_cf, params.w_co, params.b_i, params.b_f,
                                       params.b_c, params.b_o)
    return h, GCLSTMState(h_last, c_last)


def skip_path(params: MLPParams, x: Tensor) -> Tensor:
    return _mlp(params, x)


def identify_logits(params: MLPParams, h: Tensor, skip: Tensor | None,
                    segments: Segments | None = None) -> Tensor:
    """Per-node logits; batch norm uses the statistics of each map's rows."""
    z = concat([h, skip], axis=1) if skip is not None else h
    return _mlp(params, z, segments).reshape((h.shape[0],))


def reset_state(n: int, d_h: int) -> GCLSTMState:
    if n <= 0 or d_h <= 0:
        raise ValueError("state dimensions must be positive")
    return GCLSTMState(Tensor(np.zeros((n, d_h))), Tensor(np.zeros((n, d_h))))


# -- model container ---------------------------------------------------------


def _tensors(params):
    """The tensors in param dataclasses, lists and tuples, in declaration order."""
    if isinstance(params, Tensor):
        return [params]
    if params is None:
        return []
    if is_dataclass(params):
        params = [getattr(params, f.name) for f in fields(params)]
    elif not isinstance(params, (list, tuple)):
        raise TypeError(f"not a parameter container: {type(params).__name__}")
    return [t for p in params for t in _tensors(p)]


@dataclass
class MapContext:
    """One map, or the disjoint union of several, ready for `step_logits`.

    The maps' node rows are concatenated and `adj` is block-diagonal.
    `segments` holds each map's block of rows; its ``ids`` give each row's
    map, which is the row of that map's observation in a step.
    """
    node_embs: Tensor
    adj: Tensor
    segments: Segments


class Localizer:
    def __init__(self, cfg: LocalizerConfig, seed=0):
        self.cfg = cfg
        self.training = True
        rng = np.random.default_rng(seed)
        self.encoder = MLPParams.init([cfg.d_obs, cfg.enc_hidden, cfg.enc_hidden, cfg.d_emb],
                                      rng, "encoder")
        self.pair = MLPParams.init([2 * cfg.d_emb, cfg.d_x, cfg.d_x], rng, "pair")
        recurrent = cfg.variant != "no_gclstm"
        self.gclstm = GCLSTMParams.init(cfg, rng) if recurrent else None
        self.frame = None if recurrent else MLPParams.init(
            [cfg.d_x, cfg.d_h, cfg.d_h], rng, "frame",
            [_norm_init(cfg.d_h, "frame.bn0"), _norm_init(cfg.d_h, "frame.bn1")])
        self.skip = (None if cfg.variant == "no_skip"
                     else MLPParams([_linear_init(rng, cfg.d_x, cfg.d_skip, "skip")]))
        d_head = cfg.d_h + (0 if self.skip is None else cfg.d_skip)
        self.head = MLPParams.init([d_head, cfg.head_hidden, 1], rng, "head",
                                   [_norm_init(cfg.head_hidden, "head.bn")])

    def train(self):
        self.training = True
        return self

    def eval(self):
        self.training = False
        return self

    # -- parameter bookkeeping ----------------------------------------------

    def encoder_params(self):
        return _tensors(self.encoder)

    def other_params(self):
        return _tensors([self.pair, self.gclstm, self.frame, self.skip, self.head])

    def parameters(self):
        return self.encoder_params() + self.other_params()

    def named_params(self):
        return {p.name: p for p in self.parameters()}

    def num_params(self):
        return sum(p.data.size for p in self.parameters())

    # -- persistence ---------------------------------------------------------

    def save(self, path):
        T.save_checkpoint(path, self.named_params(), manifest=self.cfg.to_dict())

    def load_state(self, params):
        own = self.named_params()
        missing = sorted(own.keys() - params.keys())
        if missing:
            raise KeyError(f"checkpoint lacks parameters {missing}")
        for name, data in params.items():
            if name not in own:
                raise KeyError(f"unknown parameter {name!r} in checkpoint")
            if tuple(own[name].data.shape) != tuple(data.shape):
                raise ValueError(f"shape mismatch for {name!r}")
            if not np.all(np.isfinite(data)):
                raise ValueError(f"non-finite values in parameter {name!r}")
            own[name].data = data.copy()

    @staticmethod
    def from_checkpoint(path):
        params, manifest = T.load_checkpoint(path)
        model = Localizer(LocalizerConfig.from_dict(manifest))
        model.load_state(params)
        return model

    def state_snapshot(self):
        return {k: p.data.copy() for k, p in self.named_params().items()}


def _inference(model: Localizer):
    """Evaluation mode records no graph; training mode leaves recording as it is."""
    return nullcontext() if model.training else T.no_grad()


def make_context(model: Localizer, *topos: TopoMap) -> MapContext:
    """The context of one map, or of the disjoint union of `topos` in order."""
    segments = Segments(t.n for t in topos)
    rows = sum(segments.sizes)
    adj = np.zeros((rows, rows))
    for t, lo in zip(topos, segments.starts):
        adj[lo:lo + t.n, lo:lo + t.n] = t.undirected_adjacency_matrix()
    descriptors = np.concatenate([t.descriptors for t in topos])
    with _inference(model):
        node_embs = encode(model.encoder, Tensor.const(descriptors))
    return MapContext(node_embs, Tensor.const(adj), segments)


def check_observations(model: Localizer, observations, topo: TopoMap):
    """Raise ValueError unless the observation rows are finite and match the model and map."""
    if observations.shape[-1] != model.cfg.d_obs:
        raise ValueError(f"observation shape {observations.shape} does not match "
                         f"d_obs={model.cfg.d_obs}")
    if not np.all(np.isfinite(observations)):
        raise ValueError("observation contains non-finite values")
    if topo.descriptors.shape[1] != model.cfg.d_obs:
        raise ValueError("map descriptor dimension does not match model")


def step_logits(model: Localizer, state: GCLSTMState, observations, ctx: MapContext):
    """The model's forward over steps of every map in `ctx`: (logits, state after the last).

    `observations` has shape (steps, maps, d_obs), maps in context order.
    Every part but the recurrence runs once over the node rows of all steps;
    the logits hold one block of node rows per step, and batch norm uses the
    statistics of one map at one step.  Evaluation mode records no graph.
    """
    if (observations.ndim != 3 or observations.shape[0] < 1
            or observations.shape[1] != len(ctx.segments)):
        raise ValueError(f"observations of shape {observations.shape} are not "
                         f"(steps, {len(ctx.segments)}, d_obs)")
    steps, maps = observations.shape[:2]
    segments, query = ctx.segments, ctx.segments.ids
    if steps > 1:
        segments = Segments(segments.sizes * steps)
        query = (np.arange(steps)[:, None] * maps + query).reshape(-1)
    with _inference(model):
        cur_emb = encode(model.encoder, Tensor.const(observations.reshape(steps * maps, -1)))
        x = pair_features(model.pair, cur_emb, ctx.node_embs, query)
        if model.cfg.variant == "no_gclstm":
            h = _mlp(model.frame, x, segments).relu()
            new_state = state
        else:
            h, new_state = gclstm_step(model.gclstm, x, ctx.adj, state)
        skip = skip_path(model.skip, x) if model.skip is not None else None
        logits = identify_logits(model.head, h, skip, segments)
    return logits, new_state


def localize_step(model: Localizer, state: GCLSTMState, observation, topo: TopoMap,
                  ctx: MapContext | None = None, return_logits=False):
    """One observation in: per-node probabilities, argmax node, next state out.

    In evaluation mode the step records no graph, so the returned state
    carries no history of earlier steps.  The probabilities never carry a
    graph; with `return_logits` the step also returns the logits, which do
    in training mode.
    """
    obs = np.asarray(observation, dtype=np.float64)
    if obs.ndim != 1:
        raise ValueError(f"observation shape {obs.shape} does not match d_obs={model.cfg.d_obs}")
    check_observations(model, obs, topo)
    if ctx is None:
        ctx = make_context(model, topo)
    logits, new_state = step_logits(model, state, obs.reshape(1, 1, -1), ctx)
    e = np.exp(logits.data - logits.data.max())
    probs = Tensor(e / e.sum())
    pred = int(np.argmax(probs.data))
    if return_logits:
        return probs, pred, new_state, logits
    return probs, pred, new_state
