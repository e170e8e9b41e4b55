"""Sequence training with submap sampling and sim/real-like domain mixing.

A training sample is a window of observations, the map, and the ground
truth node per step.  Each draw moves the window onto a freshly sampled
bounded submap containing all its targets, with optional observation jitter
(augmentation).  The loss of a mini-batch is the mean over its windows of
each window's mean per-step cross-entropy.  Windows of equal length run as
one forward over all their steps on the disjoint union of their submaps,
with block-diagonal adjacency, per-submap and per-step batch norm and
softmax, and one cross-entropy node for the group, so one backward pass
serves the whole group; windows of other lengths form groups of their own
and are never padded.  Mini-batches mix simulator samples (targets from
poses) and real-like samples (targets from the stride rule) at a
configurable ratio; early stopping follows the validation loss.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import localizer as L
from .map_sampler import sample_submap
from .tensor import Adam, Segments, Tensor, cross_entropy, no_grad
from .topo_graph import MapConfig, TopoMap, build_map_real, nearest_node

SIM = "sim"
REAL_LIKE = "real_like"


@dataclass
class Sample:
    observations: np.ndarray  # (steps, d_obs)
    poses: list | None        # Pose2D per step, None for real-like samples
    topo: TopoMap
    targets: list             # ground-truth NodeId per step
    domain: str = SIM

    def __post_init__(self):
        if len(self.targets) != self.observations.shape[0]:
            raise ValueError("targets must match observations in length")
        for y in self.targets:
            if not 0 <= y < self.topo.n:
                raise ValueError(f"target {y} not in map")


@dataclass
class TrainConfig:
    tau: int = 30
    n_prime: int = 40
    lr_main: float = 1e-3
    lr_encoder: float = 1e-5
    patience_iters: int = 300
    mix_ratio: float = 0.0
    jitter: float = 0.0
    batch_size: int = 4
    max_iters: int = 1000
    val_every: int = 5
    seed: int = 0

    def __post_init__(self):
        for name in ("tau", "n_prime", "patience_iters", "batch_size", "max_iters",
                     "val_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.mix_ratio <= 1.0:
            raise ValueError("mix_ratio must lie in [0, 1]")
        if self.jitter < 0.0:
            raise ValueError("jitter must be >= 0")

    def to_dict(self):
        return dict(self.__dict__)

    @staticmethod
    def from_dict(d):
        return TrainConfig(**d)


def make_sim_sample(trajectory, topo: TopoMap, cfg: MapConfig) -> Sample:
    """Targets via the pose metric; trajectory is a list of (descriptor, Pose2D)."""
    if not topo.has_poses:
        raise ValueError("simulator samples need a map with poses")
    observations = np.stack([np.asarray(d, dtype=np.float64) for d, _ in trajectory])
    poses = [p for _, p in trajectory]
    targets = [nearest_node(topo, p, cfg.omega_m) for p in poses]
    return Sample(observations, poses, topo, targets, SIM)


def stride_target(t: int, m_stride: int, n_nodes: int) -> int:
    """Node whose stride index is nearest to step t; ties go to the lower node."""
    # round t / m_stride half down: the least k with t - k * m_stride <= m_stride / 2
    return min((2 * t + m_stride - 1) // (2 * m_stride), n_nodes - 1)


def make_real_like_sample(sequence, m_stride: int) -> Sample:
    """Map and observations from one sequence; targets from the stride rule."""
    observations = np.asarray(sequence, dtype=np.float64)
    if observations.ndim != 2 or observations.shape[0] == 0:
        raise ValueError("sequence must be a non-empty (steps, d_obs) array")
    topo = build_map_real(observations, m_stride)
    targets = [stride_target(t, m_stride, topo.n) for t in range(observations.shape[0])]
    return Sample(observations, None, topo, targets, REAL_LIKE)


def window(sample: Sample, start: int, tau: int) -> Sample:
    """Slice a tau+1 step window out of a longer sample."""
    stop = start + tau + 1
    if stop > sample.observations.shape[0]:
        raise ValueError("window exceeds sample length")
    return Sample(
        sample.observations[start:stop],
        sample.poses[start:stop] if sample.poses is not None else None,
        sample.topo,
        sample.targets[start:stop],
        sample.domain,
    )


def augment(sample: Sample, cfg: TrainConfig, rng) -> Sample:
    """The sample moved onto a freshly sampled submap holding its targets, with jitter.

    Draws the submap seed, then the jitter, from `rng`.
    """
    sub = sample_submap(sample.topo, sample.targets, cfg.n_prime,
                        int(rng.integers(2 ** 63)))
    obs = sample.observations
    if cfg.jitter > 0:
        obs = obs + cfg.jitter * rng.normal(size=obs.shape)
    return Sample(obs, sample.poses, sub.submap,
                  [sub.node_mapping[y] for y in sample.targets], sample.domain)


def sequence_loss(model: L.Localizer, windows) -> Tensor:
    """Mean over `windows` of each window's mean cross-entropy on its own map.

    Windows of equal length run as one forward over all their steps on the
    disjoint union of their maps, with one cross-entropy over all their
    steps; each length forms its own group.
    """
    if not windows:
        raise ValueError("sequence_loss needs at least one window")
    groups = {}
    for w in windows:
        L.check_observations(model, w.observations, w.topo)
        groups.setdefault(w.observations.shape[0], []).append(w)
    total = None
    for steps, group in groups.items():
        ctx = L.make_context(model, *(w.topo for w in group))
        rows = ctx.node_embs.shape[0]
        obs = np.stack([w.observations for w in group], axis=1)  # (steps, maps, d_obs)
        logits, _ = L.step_logits(model, L.reset_state(rows, model.cfg.d_h), obs, ctx)
        # the logits hold one block of the union's rows per step; one target row per step
        targets = (np.array([w.targets for w in group]).T + ctx.segments.starts
                   + rows * np.arange(steps)[:, None])
        term = cross_entropy(logits, targets, Segments(ctx.segments.sizes * steps)) * (1.0 / steps)
        total = term if total is None else total + term
    return total * (1.0 / len(windows))


@dataclass
class TrainHistory:
    rows: list = field(default_factory=list)  # (iteration, train_loss, val_loss)
    best_val: float = float("inf")
    best_iter: int = -1

    def to_csv(self, path, meta=""):
        with open(path, "w") as fh:
            if meta:
                fh.write(f"# {meta}\n")
            fh.write("iteration,train_loss,val_loss\n")
            for it, tr, vl in self.rows:
                fh.write(f"{it},{tr!r},{vl!r}\n")


def _draw_window(sample: Sample, tau: int, rng) -> Sample:
    length = sample.observations.shape[0]
    span = min(tau + 1, length)
    start = int(rng.integers(length - span + 1))
    return window(sample, start, span - 1)


def validation_loss(model, val_samples, cfg, seed=12345):
    rng = np.random.default_rng(seed)
    windows = [augment(s, cfg, rng) for s in val_samples]
    with no_grad():
        return sequence_loss(model, windows).item()


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector; restore its previous state on exit.

    Autograd graphs hold no reference cycles and are freed by reference
    counting, so collections during training find nothing and only pause.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def train(model: L.Localizer, sim_set, real_set, val_set, cfg: TrainConfig):
    """Optimize until the validation loss stops improving; keep the best."""
    if len(sim_set) == 0 and cfg.mix_ratio < 1.0:
        raise ValueError("empty simulator training set")
    if len(real_set) == 0 and cfg.mix_ratio > 0.0:
        raise ValueError("empty real-like training set with mix_ratio > 0")
    if len(val_set) == 0:
        raise ValueError("empty validation set")
    rng = np.random.default_rng(cfg.seed)
    opt = Adam([(model.encoder_params(), cfg.lr_encoder),
                (model.other_params(), cfg.lr_main)])
    history = TrainHistory()
    best_snapshot = model.state_snapshot()
    model.train()
    with _collector_paused():
        val = validation_loss(model, val_set, cfg)
        since_best = 0
        for it in range(1, cfg.max_iters + 1):
            batch = []
            for _ in range(cfg.batch_size):
                use_real = rng.random() < cfg.mix_ratio
                pool = real_set if use_real else sim_set
                batch.append(pool[int(rng.integers(len(pool)))])
            opt.zero_grad()
            # per sample: window start, then submap seed and jitter
            windows = [augment(_draw_window(sample, cfg.tau, rng), cfg, rng)
                       for sample in batch]
            loss = sequence_loss(model, windows)
            loss.backward()
            opt.step()
            if it % cfg.val_every == 0 or it == cfg.max_iters:
                val = validation_loss(model, val_set, cfg)
            history.rows.append((it, loss.item(), val))
            if val < history.best_val - 1e-12:
                history.best_val = val
                history.best_iter = it
                best_snapshot = model.state_snapshot()
                since_best = 0
            else:
                since_best += 1
            if since_best >= cfg.patience_iters:
                break
    model.load_state(best_snapshot)
    return history
