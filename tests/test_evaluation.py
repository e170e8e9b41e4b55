"""Metric tests: AC/AC*/PE/ME oracles, baseline localizers, ablations,
relabeling invariance, and report formatting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import topoloc.evaluation as E
import topoloc.localizer as L
from topoloc import tensor as T
from topoloc.tensor import cross_entropy, grad_check
from topoloc.topo_graph import MapConfig, Pose2D, TopoMap


def chain_map(n, d_obs=4, seed=0):
    rng = np.random.default_rng(seed)
    desc = rng.normal(size=(n, d_obs))
    poses = [Pose2D(float(i), 0.0, 0.0) for i in range(n)]
    return TopoMap(desc, poses, [(i, i + 1) for i in range(n - 1)], MapConfig())


class FixedLocalizer:
    name = "fixed"

    def __init__(self, preds):
        self.preds = list(preds)

    def start(self, topo):
        self.k = 0

    def step(self, observation, gt_pose=None):
        out = self.preds[self.k]
        self.k += 1
        return out


# -- metric computation ------------------------------------------------------


def test_perfect_predictions():
    topo = chain_map(4)
    targets = [0, 1, 2, 3]
    row = E.eval_run(FixedLocalizer(targets), np.zeros((4, 4)), topo,
                     targets, topo.poses, 0.025)
    assert row.ac == 1.0 and row.ac_star == 1.0
    assert row.pe == 0.0 and row.me == 0.0


def test_one_hop_off_predictions():
    topo = chain_map(4)
    targets = [0, 1, 2, 3]
    preds = [1, 2, 3, 2]
    row = E.eval_run(FixedLocalizer(preds), np.zeros((4, 4)), topo,
                     targets, topo.poses, 0.025)
    assert row.ac == 0.0 and row.ac_star == 1.0 and row.me == 1.0
    assert abs(row.pe - 1.0) < 1e-12  # unit-spaced chain: one hop = 1 m


def test_poseless_map_reports_pe_absent():
    topo = TopoMap(np.zeros((3, 4)), None, [(0, 1), (1, 2)], MapConfig())
    row = E.eval_run(FixedLocalizer([0, 1, 2]), np.zeros((3, 4)), topo,
                     [0, 1, 2], None, 0.025)
    assert row.pe is None
    assert row.ac == 1.0


def test_ac_le_ac_star_random():
    rng = np.random.default_rng(1)
    topo = chain_map(6)
    for _ in range(25):
        preds = rng.integers(0, 6, size=8).tolist()
        targets = rng.integers(0, 6, size=8).tolist()
        poses = [Pose2D(float(rng.uniform(0, 6)), 0.0, 0.0) for _ in range(8)]
        row = E.eval_run(FixedLocalizer(preds), np.zeros((8, 4)), topo,
                         targets, poses, 0.025)
        assert row.ac <= row.ac_star <= 1.0
        assert row.me >= 0.0 and row.pe >= 0.0
        assert (row.me == 0.0) == (row.ac == 1.0)


def test_length_mismatch_errors():
    topo = chain_map(3)
    with pytest.raises(ValueError):
        E.eval_run(FixedLocalizer([0]), np.zeros((1, 4)), topo, [0, 1])
    with pytest.raises(ValueError):
        E.eval_run(FixedLocalizer([0]), np.zeros((1, 4)), topo, [0],
                   poses=topo.poses)


def test_empty_trajectory_errors():
    with pytest.raises(ValueError, match="non-empty"):
        E.eval_run(FixedLocalizer([]), np.zeros((0, 4)), chain_map(3), [])


def test_metrics_invariant_under_relabeling():
    topo = chain_map(5, seed=2)
    rng = np.random.default_rng(3)
    perm = rng.permutation(5)
    inv = np.argsort(perm)
    ptopo = TopoMap(topo.descriptors[perm], [topo.poses[i] for i in perm],
                    [(int(inv[s]), int(inv[t])) for s, t in topo.edges],
                    topo.config)
    preds = rng.integers(0, 5, size=7).tolist()
    targets = rng.integers(0, 5, size=7).tolist()
    poses = [Pose2D(float(rng.uniform(0, 5)), 0.0, 0.0) for _ in range(7)]
    a = E.eval_run(FixedLocalizer(preds), np.zeros((7, 4)), topo,
                   targets, poses, 0.025)
    b = E.eval_run(FixedLocalizer([int(inv[p]) for p in preds]),
                   np.zeros((7, 4)), ptopo,
                   [int(inv[t]) for t in targets], poses, 0.025)
    assert (a.ac, a.ac_star, a.me) == (b.ac, b.ac_star, b.me)
    assert abs(a.pe - b.pe) < 1e-12


# -- baselines ---------------------------------------------------------------


def test_nearest_descriptor_exact_and_oracle():
    topo = chain_map(6, seed=4)
    assert E.baseline_nearest_descriptor(topo.descriptors[3], topo) == 3
    rng = np.random.default_rng(5)
    for _ in range(30):
        obs = rng.normal(size=4)
        d = np.sum((topo.descriptors - obs) ** 2, axis=1)
        assert E.baseline_nearest_descriptor(obs, topo) == int(np.argmin(d))
    with pytest.raises(ValueError):
        E.baseline_nearest_descriptor(np.zeros(5), topo)


def test_nearest_descriptor_tie_breaks_low_index():
    desc = np.zeros((3, 4))
    topo = TopoMap(desc, None, [], MapConfig())
    assert E.baseline_nearest_descriptor(np.ones(4), topo) == 0


def test_oracle_localizer_uses_gt_pose():
    topo = chain_map(5, seed=6)
    loc = E.OracleLocalizer(0.025)
    loc.start(topo)
    assert loc.step(np.zeros(4), Pose2D(2.2, 0.0, 0.0)) == 2
    with pytest.raises(ValueError):
        loc.step(np.zeros(4), None)


def test_model_localizer_protocol():
    cfg = L.LocalizerConfig(d_obs=4, d_emb=4, d_x=4, d_h=8, d_skip=4,
                            enc_hidden=4, gin_hidden=8, head_hidden=8)
    model = L.Localizer(cfg, seed=7)
    topo = chain_map(5, seed=8)
    loc = E.ModelLocalizer(model)
    loc.start(topo)
    preds = [loc.step(np.random.default_rng(k).normal(size=4)) for k in range(3)]
    assert all(0 <= p < 5 for p in preds)
    assert not model.training  # wrapper forces evaluation mode
    assert loc.name == "full"


@pytest.mark.parametrize("fail", [False, True])
def test_eval_run_keeps_freed_heap_and_restores_trim_threshold(monkeypatch, fail):
    calls, seen = [], []

    class Watched(FixedLocalizer):
        def step(self, observation, gt_pose=None):
            seen.append(list(calls))
            if fail and len(seen) == 2:
                raise RuntimeError("injected mid-run failure")
            return super().step(observation, gt_pose)

    monkeypatch.setattr(T, "_mallopt", lambda param, value: calls.append((param, value)))
    topo = chain_map(4)
    run = lambda: E.eval_run(Watched([0, 1, 2, 3]), topo.descriptors, topo, [0, 1, 2, 3])
    if fail:
        with pytest.raises(RuntimeError, match="injected"):
            run()
    else:
        run()
    raised = [(T._M_MMAP_THRESHOLD, 32 << 20), (T._M_TRIM_THRESHOLD, 256 << 20)]
    assert len(seen) == (2 if fail else 4) and all(c == raised for c in seen)
    assert calls == raised + [(T._M_TRIM_THRESHOLD, 128 << 10)]


# -- ablations ---------------------------------------------------------------


def test_no_skip_ablation_shape_params_and_gradients():
    cfg = L.LocalizerConfig(d_obs=4, d_emb=4, d_x=4, d_h=4, d_skip=4,
                            enc_hidden=4, gin_hidden=4, head_hidden=4)
    noskip = L.Localizer(L.LocalizerConfig(**{**cfg.to_dict(), "variant": "no_skip"}), seed=9)
    full = L.Localizer(cfg, seed=9)
    assert noskip.cfg.variant == "no_skip"
    assert noskip.num_params() < full.num_params()
    topo = chain_map(4, seed=10)
    obs = np.random.default_rng(11).normal(size=4)
    probs, _, _ = L.localize_step(noskip.eval(), L.reset_state(4, 4), obs, topo)
    assert probs.data.shape == (4,)
    noskip.train()

    def f():
        _, _, _, logits = L.localize_step(noskip, L.reset_state(4, 4), obs,
                                          topo, return_logits=True)
        return cross_entropy(logits, 1)

    assert max(grad_check(f, noskip.named_params()).values()) < 1e-4


# -- reports -----------------------------------------------------------------


def test_write_report_schema(tmp_path):
    rows = [E.EvalRow("ours", "not_deviated", 0.9, 0.95, 0.2, 0.1),
            E.EvalRow("nearest", "real_like", 0.5, 0.6, None, 0.8)]
    path = tmp_path / "report.csv"
    E.write_report(path, rows, meta="test")
    lines = path.read_text().splitlines()
    assert lines[0] == "# test"
    assert lines[1] == "method,category,AC,ACstar,PE,ME"
    assert lines[2].startswith("ours,not_deviated,0.9,0.95,0.2,0.1")
    assert ",," in lines[3]  # PE blank when absent
    table = E.format_table(rows)
    assert "ours" in table and "-" in table
