"""The three benchmark workloads: inputs from a seed, timed rounds, checks.

A round is a fixed amount of work that depends only on the workload seed, so
every round of a run repeats the same work and must give the same
fingerprint.  Each round reports the wall time of every op it ran, how many
ops it attempted and how many failed their output check.

Op boundaries are marked from outside the program: `trainer.train` builds its
optimizer through the module name `trainer.Adam`, whose `zero_grad` opens
every iteration, and `eval_run` / `run_trial` call the localizer object the
benchmark hands them once per op.  Time a call spends outside its ops (the
initial validation of `train`, the scoring loop of `eval_run`, the set-up and
coverage of `run_trial`) is shared evenly among the call's ops.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import topoloc.evaluation as E
import topoloc.localizer as L
import topoloc.navigation as N
import topoloc.simworld as W
import topoloc.trainer as TR
from topoloc.tensor import Adam, Tensor
from topoloc.topo_graph import MapConfig, Pose2D, build_map_sim

NAV_STATUSES = (N.SUCCESS, N.COLLISION, N.TIMEOUT)


@dataclass(frozen=True)
class Size:
    """How much work one round of each workload does."""
    setup_reps: int = 25
    train_iters: int = 40
    tau: int = 15
    batch: int = 3
    loc_trajectories: int = 6
    corridors: int = 9
    nav_trials: int = 6
    nav_time_limit: int = 400


FULL = Size()


@dataclass
class Round:
    op_s: list = field(default_factory=list)  # wall seconds per timed op
    seconds: float = 0.0                       # wall seconds of the timed calls
    attempted: int = 0
    failed: int = 0
    fingerprint: dict = field(default_factory=dict)


def split_ops(t0, marks, t1):
    """Seconds per op from n+1 op boundary marks inside a call [t0, t1]."""
    n = len(marks) - 1
    if n < 1:
        return []
    share = ((marks[0] - t0) + (t1 - marks[-1])) / n
    return [b - a + share for a, b in zip(marks, marks[1:])]


@contextmanager
def patched(owner, attr, value):
    orig = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, orig)


def _seeds(rng, k):
    return [int(s) for s in rng.integers(2 ** 31, size=k)]


# -- inputs ------------------------------------------------------------------


@dataclass
class CorridorInputs:
    """The three-corridor world and its 33-node map, as the acceptance tests build it."""
    world: W.World
    obs_model: W.ObservationModel
    mc: MapConfig
    topo: object

    STEP = 1.0

    def trajectory(self, deviation, seed, domain="sim", reverse=False):
        a, b = (self.world.total_length, 0.0) if reverse else (0.0, self.world.total_length)
        poses = W.generate_trajectory(self.world, a, b, deviation, seed, step=self.STEP)
        return poses, W.render_trajectory(self.world, poses, self.obs_model, domain,
                                          seed + 100000)

    def sim_sample(self, deviation, seed, reverse):
        poses, obs = self.trajectory(deviation, seed, reverse=reverse)
        return TR.make_sim_sample(list(zip(obs, poses)), self.topo, self.mc)


def corridor_inputs(map_seed):
    world = W.World(W.benchmark_spec(seed=0))
    om = W.ObservationModel.create(16, noise_sigma=0.05, shift_seed=7, extra_sigma=0.05)
    inputs = CorridorInputs(world, om, MapConfig(), None)
    poses, obs = inputs.trajectory(0.0, map_seed)
    inputs.topo = build_map_sim(list(zip(obs, poses)), inputs.mc)
    return inputs


# -- localizer clock and output checks ----------------------------------------


class StepClock:
    """Wraps a localizer: marks op boundaries and keeps the node of every step."""

    def __init__(self, inner):
        self.inner = inner
        self.name = getattr(inner, "name", "clocked")
        self.marks = []
        self.preds = []

    def start(self, topo):
        self.marks, self.preds = [], []
        self.inner.start(topo)

    def step(self, observation, gt_pose=None):
        if not self.marks:
            self.marks.append(perf_counter())
        pred = self.inner.step(observation, gt_pose)
        self.marks.append(perf_counter())
        self.preds.append(pred)
        return pred


@contextmanager
def captured_probabilities(sink):
    """Keep the probabilities of every `localize_step` call made meanwhile."""
    orig = L.localize_step

    def probe(*args, **kwargs):
        out = orig(*args, **kwargs)
        sink.append(out[0].data if isinstance(out[0], Tensor) else np.asarray(out[0]))
        return out

    with patched(L, "localize_step", probe):
        yield


def step_ok(probs, pred, n):
    """Probabilities finite, summing to 1, and `pred` their in-range argmax."""
    if probs is None or probs.shape != (n,) or not np.all(np.isfinite(probs)):
        return False
    if abs(float(np.sum(probs)) - 1.0) > 1e-9:
        return False
    return isinstance(pred, (int, np.integer)) and 0 <= pred < n \
        and int(pred) == int(np.argmax(probs))


def failed_steps(probs, preds, n):
    return sum(1 for k, pred in enumerate(preds)
               if not step_ok(probs[k] if k < len(probs) else None, pred, n))


# -- train ---------------------------------------------------------------------


@dataclass
class TrainInputs:
    sim_set: list
    real_set: list
    val_set: list
    model_seed: int
    cfg: TR.TrainConfig


def setup_train(seed, size, make_localizer=None):
    rng = np.random.default_rng(seed)
    map_seed, model_seed, train_seed = _seeds(rng, 3)
    ci = corridor_inputs(map_seed)
    sim_seeds, real_seeds, val_seeds = _seeds(rng, 6), _seeds(rng, 4), _seeds(rng, 2)
    sim_set = [ci.sim_sample(0.3, s, i % 2 == 1) for i, s in enumerate(sim_seeds)]
    real_set = [TR.make_real_like_sample(
        ci.trajectory(0.3, s, "real_like", reverse=i % 2 == 1)[1], ci.mc.m_stride)
        for i, s in enumerate(real_seeds)]
    val_set = [TR.window(ci.sim_sample(0.3, s, i % 2 == 1), 5, 15)
               for i, s in enumerate(val_seeds)]
    # patience above the iteration count: every round runs all iterations
    cfg = TR.TrainConfig(tau=size.tau, n_prime=40, lr_main=1e-3, lr_encoder=3e-4,
                         patience_iters=size.train_iters + 1, batch_size=size.batch,
                         max_iters=size.train_iters, val_every=10, seed=train_seed,
                         mix_ratio=0.4)
    return TrainInputs(sim_set, real_set, val_set, model_seed, cfg)


def _grads_finite(params):
    return all(p.grad is None or np.all(np.isfinite(p.grad)) for p in params)


def round_train(inputs):
    model = L.Localizer(L.LocalizerConfig(), seed=inputs.model_seed)
    params = model.parameters()
    marks, grads_ok, submap_nodes = [], [], [0]

    class ClockedAdam(Adam):
        def zero_grad(self):
            if marks:  # gradients of the previous iteration are still in place
                grads_ok.append(_grads_finite(params))
            marks.append(perf_counter())
            super().zero_grad()

    sample_submap = TR.sample_submap

    def counted_sample_submap(*args, **kwargs):
        result = sample_submap(*args, **kwargs)
        submap_nodes[0] += result.submap.n
        return result

    r = Round(attempted=inputs.cfg.max_iters)
    with patched(TR, "Adam", ClockedAdam), \
            patched(TR, "sample_submap", counted_sample_submap):
        t0 = perf_counter()
        try:
            history = TR.train(model, inputs.sim_set, inputs.real_set, inputs.val_set,
                               inputs.cfg)
        except Exception:  # a raising op is a failed op, not a crashed benchmark
            r.seconds = perf_counter() - t0
            r.failed = r.attempted
            return r
        t1 = perf_counter()
    grads_ok.append(_grads_finite(params))
    r.seconds = t1 - t0
    r.op_s = split_ops(t0, marks + [t1], t1)
    losses = [row[1] for row in history.rows]
    r.failed = sum(1 for k in range(r.attempted)
                   if k >= len(losses) or k >= len(grads_ok)
                   or not (math.isfinite(losses[k]) and grads_ok[k]))
    r.fingerprint = {"ops": len(marks), "submap_nodes": submap_nodes[0],
                     "last_loss": repr(losses[-1]) if losses else None}
    return r


# -- localize ------------------------------------------------------------------


@dataclass
class LocalizeInputs:
    ci: CorridorInputs
    samples: list
    localizer: StepClock


def setup_localize(seed, size, make_localizer=None):
    rng = np.random.default_rng(seed)
    map_seed, model_seed = _seeds(rng, 2)
    ci = corridor_inputs(map_seed)
    deviations = (0.3, 0.8, 1.3)
    samples = [ci.sim_sample(deviations[i % 3], s, i % 2 == 1)
               for i, s in enumerate(_seeds(rng, size.loc_trajectories))]
    model = L.Localizer(L.LocalizerConfig(), seed=model_seed)
    return LocalizeInputs(ci, samples, StepClock((make_localizer or E.ModelLocalizer)(model)))


def round_localize(inputs):
    r = Round()
    loc, topo = inputs.localizer, inputs.ci.topo
    hits = 0
    for s in inputs.samples:
        probs = []
        n_ops = s.observations.shape[0]
        r.attempted += n_ops
        with captured_probabilities(probs):
            t0 = perf_counter()
            try:
                row = E.eval_run(loc, s.observations, topo, s.targets, s.poses,
                                 inputs.ci.mc.omega_m)
            except Exception:  # a raising op is a failed op, not a crashed benchmark
                r.seconds += perf_counter() - t0
                r.failed += n_ops
                continue
            t1 = perf_counter()
        r.seconds += t1 - t0
        r.op_s += split_ops(t0, loc.marks, t1)
        r.failed += failed_steps(probs, loc.preds, topo.n) + (n_ops - len(loc.preds))
        hits += round(row.ac * n_ops)
    r.fingerprint = {"ops": r.attempted, "hits": hits}
    return r


# -- navigate ------------------------------------------------------------------


def corridor_world_spec(corridors):
    """benchmark_spec(0) extended to `corridors` identical corridors."""
    base = W.benchmark_spec(seed=0)
    corridor, junction = base.segments[1], base.segments[0]
    segs = [W.SegmentSpec("junction_0", junction.length)]
    for k in range(1, corridors + 1):
        segs += [W.SegmentSpec(corridor.kind, corridor.length),
                 W.SegmentSpec(f"junction_{k}", junction.length)]
    return W.WorldSpec(segs, half_width=base.half_width, d_obs=base.d_obs,
                       bumps_per_segment=base.bumps_per_segment, seed=base.seed)


def sample_goal(topo, start_node, rng, max_hops=12):
    """The goal rule of `topoloc eval-nav`: undirected hop distance, at most 12."""
    reachable = [i for i in range(topo.n)
                 if i != start_node and 0 < topo.edge_distance(start_node, i) <= max_hops]
    if not reachable:
        return start_node
    return int(reachable[rng.integers(len(reachable))])


@dataclass
class NavigateInputs:
    world: W.World
    topo: object
    obs_model: W.ObservationModel
    trials: list  # (start pose, NavConfig, trial seed)
    localizer: StepClock


def setup_navigate(seed, size, make_localizer=None):
    rng = np.random.default_rng(seed)
    map_seed, model_seed, trial_seed = _seeds(rng, 3)
    world = W.World(corridor_world_spec(size.corridors))
    # the observation model and the 0.5 m mapping pass of the CLI pipeline
    om = W.ObservationModel.create(world.spec.d_obs, noise_sigma=0.05,
                                   shift_seed=world.spec.seed + 7, extra_sigma=0.05)
    mc = MapConfig()
    poses = W.generate_trajectory(world, 0.0, world.total_length, 0.0, map_seed)
    obs = W.render_trajectory(world, poses, om, "sim", map_seed + 1)
    topo = build_map_sim(list(zip(obs, poses)), mc)
    # start poses and goals drawn the way `topoloc eval-nav` draws them
    trial_rng = np.random.default_rng(trial_seed)
    trials = []
    hw = world.spec.half_width
    for _ in range(size.nav_trials):
        tseed = int(trial_rng.integers(2 ** 31))
        trng = np.random.default_rng(tseed)
        start_node = int(trng.integers(topo.n))
        sp = topo.poses[start_node]
        start = Pose2D(sp.x, min(max(sp.y + trng.uniform(-0.3, 0.3), -hw + 0.2), hw - 0.2),
                       sp.theta)
        goal = sample_goal(topo, start_node, trng)
        cfg = N.NavConfig(goal_node=goal, omega_m=mc.omega_m,
                          time_limit_steps=size.nav_time_limit)
        trials.append((start, cfg, tseed))
    model = L.Localizer(L.LocalizerConfig(d_obs=world.spec.d_obs), seed=model_seed)
    return NavigateInputs(world, topo, om, trials,
                          StepClock((make_localizer or E.ModelLocalizer)(model)))


def round_navigate(inputs):
    r = Round()
    loc, topo = inputs.localizer, inputs.topo
    outcomes = []
    for start, cfg, tseed in inputs.trials:
        probs = []
        with captured_probabilities(probs):
            t0 = perf_counter()
            try:
                out = N.run_trial(inputs.world, topo, loc, inputs.obs_model, start, cfg, tseed)
            except Exception:  # a raising op is a failed op, not a crashed benchmark
                r.seconds += perf_counter() - t0
                r.attempted += max(len(loc.preds), 1)
                r.failed += max(len(loc.preds), 1)
                continue
            t1 = perf_counter()
        r.seconds += t1 - t0
        r.op_s += split_ops(t0, loc.marks, t1)
        n_ops = len(loc.preds)
        r.attempted += n_ops
        if out.status not in NAV_STATUSES or out.steps != n_ops:
            r.failed += n_ops
        else:
            r.failed += failed_steps(probs, loc.preds, topo.n)
        outcomes.append(out)
    if outcomes:
        sr, cr, tr, _ = N.nav_metrics(outcomes)
        if abs(sr + cr + tr - 1.0) > 1e-12:
            r.failed = r.attempted
    r.fingerprint = {"ops": r.attempted, "control_steps": sum(o.steps for o in outcomes)}
    for status in NAV_STATUSES:
        r.fingerprint[status] = sum(1 for o in outcomes if o.status == status)
    return r


WORKLOADS = {
    "train": (setup_train, round_train),
    "localize": (setup_localize, round_localize),
    "navigate": (setup_navigate, round_navigate),
}
