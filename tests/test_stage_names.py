"""Callers reach the timed stages through their module-level names.

`perfbench/bench_trace.py` times a stage by replacing the name its caller
looks it up under.  A caller that bypasses the name (say, runs the skip path
as `_mlp` instead of `skip_path`) still gives correct outputs, so only these
tests notice that the stage's time went missing.
"""

import numpy as np
import pytest

import topoloc.localizer as L
import topoloc.navigation as N
import topoloc.simworld as W
import topoloc.trainer as TR
from topoloc.evaluation import OracleLocalizer
from topoloc.topo_graph import MapConfig, TopoMap, build_map_sim


def count_calls(monkeypatch, module, names):
    """Wrap each named function of `module`; returns the live call counts."""
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


STAGES = [
    ("full", ("encode", "pair_features", "gclstm_step", "skip_path", "identify_logits")),
    ("no_gclstm", ("encode", "pair_features", "skip_path", "identify_logits")),
]


def stage_calls(monkeypatch, variant, stages, steps):
    """Call counts of `stages` in one training-mode `step_logits` over `steps` steps."""
    cfg = L.LocalizerConfig(d_obs=4, d_emb=4, d_x=4, d_h=8, d_skip=4, enc_hidden=4,
                            gin_hidden=8, head_hidden=8, variant=variant)
    model = L.Localizer(cfg, seed=0).train()
    rng = np.random.default_rng(1)
    topo = TopoMap(rng.normal(size=(5, 4)), None, [(i, i + 1) for i in range(4)], MapConfig())
    ctx = L.make_context(model, topo)
    calls = count_calls(monkeypatch, L, stages)
    L.step_logits(model, L.reset_state(topo.n, cfg.d_h), rng.normal(size=(steps, 1, 4)), ctx)
    return calls


@pytest.mark.parametrize("variant, stages", STAGES)
def test_training_step_calls_each_stage_by_name(monkeypatch, variant, stages):
    calls = stage_calls(monkeypatch, variant, stages, steps=1)
    assert all(calls.values()), calls


@pytest.mark.parametrize("variant, stages", STAGES)
def test_multi_step_forward_calls_each_stage_once(monkeypatch, variant, stages):
    calls = stage_calls(monkeypatch, variant, stages, steps=3)
    assert calls == dict.fromkeys(stages, 1), calls


def test_trial_calls_each_stage_by_name(monkeypatch):
    world = W.generate_world(W.benchmark_spec(seed=0))
    obs_model = W.ObservationModel(d_obs=16, noise_sigma=0.02)
    poses = W.generate_trajectory(world, 0.0, world.total_length, 0.0, seed=1, step=1.0)
    obs = W.render_trajectory(world, poses, obs_model, "sim", seed=2)
    topo = build_map_sim(list(zip(obs, poses)), MapConfig())
    calls = count_calls(monkeypatch, N, ("plan_dijkstra", "next_subgoal", "control_step",
                                         "render_observation"))
    cfg = N.NavConfig(goal_node=4, time_limit_steps=3)
    N.run_trial(world, topo, OracleLocalizer(0.025), obs_model, topo.poses[0], cfg, seed=0)
    assert all(calls.values()), calls


def test_augment_calls_sample_submap_by_name(monkeypatch):
    rng = np.random.default_rng(2)
    topo = TopoMap(rng.normal(size=(6, 4)), None, [(i, i + 1) for i in range(5)], MapConfig())
    sample = TR.Sample(rng.normal(size=(3, 4)), None, topo, [0, 1, 2])
    calls = count_calls(monkeypatch, TR, ("sample_submap",))
    TR.augment(sample, TR.TrainConfig(n_prime=4), rng)
    assert all(calls.values()), calls
