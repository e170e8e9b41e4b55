"""Trainer tests: target rules, loss oracles, memorization, mixing
accounting, early stopping, and deterministic histories."""

import gc
import platform
import sys

import numpy as np
import pytest

import topoloc.localizer as L
import topoloc.simworld as W
import topoloc.trainer as TR
from topoloc import tensor as T
from topoloc.topo_graph import (MapConfig, Pose2D, TopoMap, build_map_real, build_map_sim,
                                pose_distance)


def small_cfg(**kw):
    base = dict(d_obs=4, d_emb=4, d_x=4, d_h=8, d_skip=4,
                enc_hidden=4, gin_hidden=8, head_hidden=8)
    base.update(kw)
    return L.LocalizerConfig(**base)


def posed_map(n, d_obs, seed, spacing=1.2):
    rng = np.random.default_rng(seed)
    desc = rng.normal(size=(n, d_obs))
    poses = [Pose2D(spacing * i, 0.0, 0.0) for i in range(n)]
    return TopoMap(desc, poses, [(i, i + 1) for i in range(n - 1)], MapConfig())


def sim_sample(topo, steps, seed):
    rng = np.random.default_rng(seed)
    span = topo.poses[-1].x
    xs = np.linspace(0.0, span, steps)
    poses = [Pose2D(float(x), 0.0, 0.0) for x in xs]
    obs = rng.normal(size=(steps, topo.descriptors.shape[1]))
    return TR.make_sim_sample(list(zip(obs, poses)), topo, MapConfig())


# -- target rules ------------------------------------------------------------


def test_sim_targets_match_bruteforce_metric():
    topo = posed_map(6, 4, seed=0)
    rng = np.random.default_rng(1)
    poses = [Pose2D(float(rng.uniform(0, 6)), float(rng.uniform(-0.5, 0.5)),
                    float(rng.uniform(-30, 30))) for _ in range(10)]
    obs = rng.normal(size=(10, 4))
    sample = TR.make_sim_sample(list(zip(obs, poses)), topo, MapConfig())
    for t, pose in enumerate(poses):
        dists = [pose_distance(pose, p, 0.025) for p in topo.poses]
        assert sample.targets[t] == int(np.argmin(dists))


def test_sim_sample_observation_at_node_pose_targets_that_node():
    topo = posed_map(4, 4, seed=2)
    obs = np.zeros((1, 4))
    sample = TR.make_sim_sample([(obs[0], topo.poses[2])], topo, MapConfig())
    assert sample.targets == [2]


def test_sim_sample_requires_poses():
    topo = TopoMap(np.zeros((2, 4)), None, [(0, 1)], MapConfig())
    with pytest.raises(ValueError):
        TR.make_sim_sample([(np.zeros(4), Pose2D(0, 0, 0))], topo, MapConfig())


def test_sim_sample_requires_a_non_empty_trajectory():
    with pytest.raises(ValueError, match="non-empty"):
        TR.make_sim_sample([], posed_map(2, 4, seed=3), MapConfig())


def test_stride_targets_examples():
    # 15-step sequence, stride 7 -> nodes at samples 0, 7, 14
    assert TR.stride_target(7, 7, 3) == 1
    assert TR.stride_target(3, 7, 3) == 0   # |3-0| < |3-7|
    assert TR.stride_target(10, 7, 3) == 1  # |10-7| < |10-14|


def test_stride_target_matches_nearest_node_search():
    def nearest(t, m, n):  # the rule, by search over the nodes
        return min(range(n), key=lambda k: (abs(t - k * m), k))

    assert TR.stride_target(2, 4, 3) == 0  # tie between nodes 0 and 1
    for m in range(1, 12):
        for n in range(1, 15):
            for t in range(200):
                assert TR.stride_target(t, m, n) == nearest(t, m, n), (t, m, n)


def test_real_like_sample_construction():
    rng = np.random.default_rng(3)
    seq = rng.normal(size=(15, 4))
    sample = TR.make_real_like_sample(seq, 7)
    assert sample.topo.n == 3
    assert sample.poses is None
    assert sample.targets == [TR.stride_target(t, 7, 3) for t in range(15)]
    with pytest.raises(ValueError):
        TR.make_real_like_sample(np.zeros((0, 4)), 7)


def test_window_slices_and_bounds():
    topo = posed_map(5, 4, seed=4)
    sample = sim_sample(topo, 12, seed=5)
    win = TR.window(sample, 3, 4)
    assert win.observations.shape[0] == 5
    assert win.targets == sample.targets[3:8]
    with pytest.raises(ValueError):
        TR.window(sample, 10, 4)


# -- loss --------------------------------------------------------------------


def test_sequence_loss_near_log_n_for_symmetric_model():
    cfg = small_cfg()
    model = L.Localizer(cfg, seed=6).train()
    # identical descriptors on a ring: every node is interchangeable, so
    # the untrained model predicts uniformly
    n = 8
    desc = np.tile(np.random.default_rng(7).normal(size=4), (n, 1))
    poses = [Pose2D(1.2 * i, 0.0, 0.0) for i in range(n)]
    edges = [(i, (i + 1) % n) for i in range(n)]
    topo = TopoMap(desc, poses, edges, MapConfig())
    sample = sim_sample(topo, 6, seed=8)
    tc = TR.TrainConfig(tau=5, n_prime=n)
    loss = TR.sequence_loss(model, [TR.augment(sample, tc, np.random.default_rng(9))])
    assert abs(loss.item() - np.log(n)) < 1e-6


def test_sequence_loss_finite_nonnegative():
    topo = posed_map(7, 4, seed=10)
    model = L.Localizer(small_cfg(), seed=11).train()
    sample = sim_sample(topo, 8, seed=12)
    tc = TR.TrainConfig(tau=7, n_prime=7, jitter=0.1)
    loss = TR.sequence_loss(model, [TR.augment(sample, tc, np.random.default_rng(13))])
    assert np.isfinite(loss.item()) and loss.item() >= 0.0


def test_remapped_targets_always_in_submap():
    topo = posed_map(20, 4, seed=14)
    sample = sim_sample(topo, 25, seed=15)
    tc = TR.TrainConfig(tau=6, n_prime=10)
    model = L.Localizer(small_cfg(), seed=16)
    rng = np.random.default_rng(0)
    for seed in range(20):
        win = TR._draw_window(sample, tc.tau, rng)
        # raises KeyError inside if a target is missing from the submap
        TR.sequence_loss(model, [TR.augment(win, tc, np.random.default_rng(seed))])


def test_memorization_drops_loss_by_ninety_percent():
    topo = posed_map(8, 4, seed=17)
    model = L.Localizer(small_cfg(), seed=18).train()
    sample = sim_sample(topo, 9, seed=19)
    tc = TR.TrainConfig(tau=8, n_prime=8, lr_main=1e-2, lr_encoder=1e-2,
                        batch_size=1, max_iters=500, patience_iters=500,
                        val_every=50, seed=20)
    hist = TR.train(model, [sample], [], [sample], tc)
    initial = hist.rows[0][1]
    final = min(r[1] for r in hist.rows)
    assert final <= 0.1 * initial


def mixed_windows(d_obs, seed):
    """Windows of 5 or 3 steps on chains of 5, 1, 8, 3 and 5 nodes.

    Chains, not rings: on a ring whose nodes all get equal features, every
    row of a batch norm's input is equal, relu(batch_norm) sits on its kink
    and rounding picks the gradient, which no summation order reproduces.
    """
    rng = np.random.default_rng(seed)
    windows = []
    for n, steps in ((5, 5), (1, 3), (8, 5), (3, 3), (5, 5)):
        edges = [(i, i + 1) for i in range(n - 1)]
        topo = TopoMap(rng.normal(size=(n, d_obs)), None, edges, MapConfig())
        windows.append(TR.Sample(rng.normal(size=(steps, d_obs)), None, topo,
                                 [int(rng.integers(n)) for _ in range(steps)]))
    return windows


@pytest.mark.parametrize("variant", L.VARIANTS)
def test_batched_loss_and_gradients_match_mean_of_window_losses(variant):
    model = L.Localizer(small_cfg(variant=variant), seed=44).train()
    windows = mixed_windows(4, seed=45)
    params = model.parameters()

    def run(loss_fn):
        for p in params:
            p.grad = None
        loss = loss_fn()
        loss.backward()
        return loss.item(), [p.grad.copy() for p in params]

    batched, batched_grads = run(lambda: TR.sequence_loss(model, windows))
    single = [run(lambda w=w: TR.sequence_loss(model, [w])) for w in windows]
    mean_loss = sum(loss for loss, _ in single) / len(windows)
    mean_grads = [sum(grads[k] for _, grads in single) / len(windows)
                  for k in range(len(params))]
    scale = max(float(np.max(np.abs(g))) for g in mean_grads)
    assert batched == pytest.approx(mean_loss, rel=1e-12)
    for got, want in zip(batched_grads, mean_grads):
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_sequence_loss_rejects_non_finite_observations():
    model = L.Localizer(small_cfg(), seed=46).train()
    windows = mixed_windows(4, seed=47)
    windows[2].observations[1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        TR.sequence_loss(model, windows)


# -- train loop --------------------------------------------------------------


class CountingList(list):
    def __init__(self, items):
        super().__init__(items)
        self.hits = 0

    def __getitem__(self, idx):
        self.hits += 1
        return super().__getitem__(idx)


def test_mix_ratio_dataset_access_accounting():
    topo = posed_map(6, 4, seed=21)
    sim = CountingList([sim_sample(topo, 7, seed=22)])
    seq = np.random.default_rng(23).normal(size=(8, 4))
    real = CountingList([TR.make_real_like_sample(seq, 3)])
    val = [sim_sample(topo, 7, seed=24)]
    base = dict(tau=4, n_prime=6, batch_size=2, max_iters=3,
                patience_iters=10, val_every=1)
    TR.train(L.Localizer(small_cfg(), seed=25), sim, real, val,
             TR.TrainConfig(mix_ratio=0.0, **base))
    assert real.hits == 0 and sim.hits > 0
    sim2 = CountingList(list(sim))
    real2 = CountingList(list(real))
    TR.train(L.Localizer(small_cfg(), seed=25), sim2, real2, val,
             TR.TrainConfig(mix_ratio=1.0, **base))
    assert sim2.hits == 0 and real2.hits > 0


def test_patience_one_stops_one_iteration_after_best(monkeypatch):
    topo = posed_map(6, 4, seed=26)
    sample = sim_sample(topo, 7, seed=27)
    # freeze validation to a constant: the first iteration records the
    # best value and no later one improves on it, so patience 1 allows
    # exactly one extra iteration after the best
    monkeypatch.setattr(TR, "validation_loss", lambda *a, **k: 1.0)
    tc = TR.TrainConfig(tau=4, n_prime=6, batch_size=1, max_iters=50,
                        patience_iters=1, val_every=1)
    hist = TR.train(L.Localizer(small_cfg(), seed=28), [sample], [], [sample], tc)
    assert hist.best_iter == 1
    assert len(hist.rows) == 2


def test_train_restores_best_snapshot():
    topo = posed_map(6, 4, seed=29)
    sample = sim_sample(topo, 7, seed=30)
    model = L.Localizer(small_cfg(), seed=31)
    tc = TR.TrainConfig(tau=4, n_prime=6, batch_size=1, max_iters=20,
                        patience_iters=20, val_every=1, seed=32)
    hist = TR.train(model, [sample], [], [sample], tc)
    restored = TR.validation_loss(model.train(), [sample], tc)
    assert abs(restored - hist.best_val) < 1e-9


def test_fixed_seed_reproduces_history_exactly(tmp_path):
    topo = posed_map(6, 4, seed=33)
    sample = sim_sample(topo, 7, seed=34)
    tc = TR.TrainConfig(tau=4, n_prime=6, batch_size=2, max_iters=8,
                        patience_iters=10, val_every=2, seed=35)
    hists = []
    for _ in range(2):
        model = L.Localizer(small_cfg(), seed=36)
        hists.append(TR.train(model, [sample], [], [sample], tc))
    assert hists[0].rows == hists[1].rows
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    hists[0].to_csv(a, meta="x")
    hists[1].to_csv(b, meta="x")
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("fail", [False, True])
def test_train_pauses_collector_and_restores_its_state(monkeypatch, enabled, fail):
    topo = posed_map(5, 4, seed=40)
    sample = sim_sample(topo, 6, seed=41)
    tc = TR.TrainConfig(tau=3, n_prime=5, batch_size=1, max_iters=3,
                        patience_iters=5, val_every=1, seed=42)
    seen = []
    real_loss = TR.sequence_loss

    def watched_loss(*args):
        seen.append(gc.isenabled())
        if fail and len(seen) == 3:
            raise RuntimeError("injected mid-loop failure")
        return real_loss(*args)

    monkeypatch.setattr(TR, "sequence_loss", watched_loss)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if fail:
            with pytest.raises(RuntimeError, match="injected"):
                TR.train(L.Localizer(small_cfg(), seed=43), [sample], [], [sample], tc)
        else:
            TR.train(L.Localizer(small_cfg(), seed=43), [sample], [], [sample], tc)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert len(seen) >= 3 and not any(seen)


@pytest.mark.parametrize("fail", [False, True])
def test_train_keeps_freed_heap_and_restores_trim_threshold(monkeypatch, fail):
    topo = posed_map(5, 4, seed=44)
    sample = sim_sample(topo, 6, seed=45)
    tc = TR.TrainConfig(tau=3, n_prime=5, batch_size=1, max_iters=3,
                        patience_iters=5, val_every=1, seed=46)
    calls, seen = [], []
    real_loss = TR.sequence_loss

    def watched_loss(*args):
        seen.append(list(calls))
        if fail and len(seen) == 3:
            raise RuntimeError("injected mid-loop failure")
        return real_loss(*args)

    monkeypatch.setattr(T, "_mallopt", lambda param, value: calls.append((param, value)))
    monkeypatch.setattr(TR, "sequence_loss", watched_loss)
    model = L.Localizer(small_cfg(), seed=47)
    if fail:
        with pytest.raises(RuntimeError, match="injected"):
            TR.train(model, [sample], [], [sample], tc)
    else:
        TR.train(model, [sample], [], [sample], tc)
    raised = [(T._M_MMAP_THRESHOLD, 32 << 20), (T._M_TRIM_THRESHOLD, 256 << 20)]
    assert len(seen) >= 3 and all(c == raised for c in seen)
    assert calls == raised + [(T._M_TRIM_THRESHOLD, 128 << 10)]


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="page faults of glibc's malloc")
def test_steady_state_train_iteration_faults_in_fewer_than_50_pages(monkeypatch):
    # the benchmark's train size: 3 windows of 16 steps on the 33-node
    # corridor map; an iteration allocates megabytes of activations
    resource = pytest.importorskip("resource")
    world = W.generate_world(W.benchmark_spec(seed=0))
    om = W.ObservationModel.create(16, noise_sigma=0.05, shift_seed=7, extra_sigma=0.05)
    mc = MapConfig()

    def trajectory(deviation, seed, reverse=False):
        a, b = (world.total_length, 0.0) if reverse else (0.0, world.total_length)
        poses = W.generate_trajectory(world, a, b, deviation, seed, step=1.0)
        return list(zip(W.render_trajectory(world, poses, om, "sim", seed + 100000), poses))

    topo = build_map_sim(trajectory(0.0, 1), mc)
    assert topo.n == 33
    samples = [TR.make_sim_sample(trajectory(0.3, s, s % 2 == 1), topo, mc) for s in (11, 12, 13)]
    val = [TR.window(samples[0], 5, 15)]
    tc = TR.TrainConfig(tau=15, n_prime=40, lr_main=1e-3, lr_encoder=3e-4, batch_size=3,
                        max_iters=12, patience_iters=13, val_every=10, seed=52)
    faults = []

    class MarkedAdam(TR.Adam):
        def zero_grad(self):
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
            super().zero_grad()

    monkeypatch.setattr(TR, "Adam", MarkedAdam)
    for _ in range(2):  # a warm-up call, then the measured one
        faults.clear()
        TR.train(L.Localizer(L.LocalizerConfig(), seed=53), samples, [], val, tc)
    # the first iterations of a call regrow the heap trimmed after the last call,
    # so a steady-state iteration is the median one
    per_iteration = np.diff(faults)
    assert np.median(per_iteration) < 50, per_iteration


def test_train_input_validation():
    topo = posed_map(4, 4, seed=37)
    sample = sim_sample(topo, 5, seed=38)
    model = L.Localizer(small_cfg(), seed=39)
    with pytest.raises(ValueError):
        TR.train(model, [], [], [sample], TR.TrainConfig())
    with pytest.raises(ValueError):
        TR.train(model, [sample], [], [], TR.TrainConfig())
    with pytest.raises(ValueError):
        TR.train(model, [sample], [], [sample], TR.TrainConfig(mix_ratio=0.5))


def test_config_validation():
    with pytest.raises(ValueError):
        TR.TrainConfig(tau=0)
    with pytest.raises(ValueError):
        TR.TrainConfig(mix_ratio=1.5)
    with pytest.raises(ValueError):
        TR.TrainConfig(patience_iters=0)


@pytest.mark.parametrize("field, value", [("batch_size", 0), ("val_every", 0),
                                          ("max_iters", 0), ("n_prime", 0),
                                          ("jitter", -0.1)])
def test_config_rejects_degenerate_value(field, value):
    with pytest.raises(ValueError, match=field):
        TR.TrainConfig(**{field: value})
