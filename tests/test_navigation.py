"""Navigation harness tests: planner optimality against brute force,
subgoal selection, servo behavior, trial outcomes, and metric accounting."""

import gc
import itertools
import math
import platform
import sys
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import topoloc.localizer as L
import topoloc.navigation as N
import topoloc.simworld as W
from topoloc import tensor as T
from topoloc.evaluation import ModelLocalizer, OracleLocalizer
from topoloc.topo_graph import MapConfig, Pose2D, TopoMap, build_map_sim


def make_graph(n, edges, spacing=1.0):
    desc = np.arange(n, dtype=np.float64).reshape(n, 1)
    poses = [Pose2D(spacing * i, 0.0, 0.0) for i in range(n)]
    return TopoMap(desc, poses, edges, MapConfig())


# -- planner -----------------------------------------------------------------


def test_plan_trivial_cases():
    topo = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert N.plan_dijkstra(topo, 2, 2) == [2]
    assert N.plan_dijkstra(topo, 0, 3) == [0, 1, 2, 3]


def test_plan_unreachable_raises():
    topo = make_graph(3, [(1, 0)])  # no directed path 0 -> 2
    with pytest.raises(ValueError):
        N.plan_dijkstra(topo, 0, 2)


def bruteforce_shortest(n, edges, start, goal):
    if start == goal:
        return 0
    edge_set = set(edges)
    best = None
    # exhaustive path enumeration over simple paths
    frontier = [[start]]
    while frontier:
        path = frontier.pop()
        if best is not None and len(path) - 1 >= best:
            continue
        for v in range(n):
            if v in path or (path[-1], v) not in edge_set:
                continue
            if v == goal:
                hops = len(path)
                best = hops if best is None else min(best, hops)
            else:
                frontier.append(path + [v])
    return best


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(0, 10 ** 9))
def test_plan_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    edges = [(i, j) for i in range(n) for j in range(n)
             if i != j and rng.random() < 0.3]
    topo = make_graph(n, edges)
    start, goal = int(rng.integers(n)), int(rng.integers(n))
    expected = bruteforce_shortest(n, edges, start, goal)
    if expected is None:
        with pytest.raises(ValueError):
            N.plan_dijkstra(topo, start, goal)
        return
    plan = N.plan_dijkstra(topo, start, goal)
    assert len(plan) - 1 == expected
    assert plan[0] == start and plan[-1] == goal
    for a, b in zip(plan, plan[1:]):
        assert (a, b) in set(edges)


def reference_plan(topo, start, goal):
    """The planner's own early-exit BFS from before it shared the map's search."""
    if start == goal:
        return [start]
    succ = [[] for _ in range(topo.n)]
    for s, t in topo.edges:
        succ[s].append(t)
    for lst in succ:
        lst.sort()
    parent = {start: None}
    q = deque([start])
    while q:
        u = q.popleft()
        for v in succ[u]:
            if v not in parent:
                parent[v] = u
                if v == goal:
                    path = [v]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return path[::-1]
                q.append(v)
    raise ValueError(f"goal {goal} unreachable from {start}")


def has_tied_shortest_paths(topo, edges):
    """Some node is one hop past two different nodes of the previous BFS layer."""
    for start in range(topo.n):
        hops = {}
        for v in range(topo.n):
            try:
                hops[v] = len(reference_plan(topo, start, v)) - 1
            except ValueError:
                pass
        for v in hops:
            if sum(1 for u, t in edges if t == v and hops.get(u) == hops[v] - 1) >= 2:
                return True
    return False


def test_plan_matches_early_exit_reference_with_ties():
    rng = np.random.default_rng(2024)
    graphs = 0
    while graphs < 300:
        n = int(rng.integers(4, 13))
        edges = [(i, j) for i in range(n) for j in range(n)
                 if i != j and rng.random() < 0.3]
        edges = [edges[k] for k in rng.permutation(len(edges))]  # unsorted edge list
        topo = make_graph(n, edges)
        if not has_tied_shortest_paths(topo, edges):
            continue
        graphs += 1
        for start in range(n):
            for goal in range(n):
                try:
                    expected = reference_plan(topo, start, goal)
                except ValueError:
                    with pytest.raises(ValueError):
                        N.plan_dijkstra(topo, start, goal)
                    continue
                assert N.plan_dijkstra(topo, start, goal) == expected


# -- subgoal selection -------------------------------------------------------


def test_next_subgoal_on_plan():
    # plans start at the localized node, so the subgoal is the second entry
    topo = make_graph(5, [(i, i + 1) for i in range(4)])
    assert N.next_subgoal(N.plan_dijkstra(topo, 1, 3)) == 2
    assert N.next_subgoal(N.plan_dijkstra(topo, 3, 3)) == 3  # at the goal, stay there
    assert N.next_subgoal([3]) == 3  # goal-only fallback
    with pytest.raises(ValueError):
        N.next_subgoal([])


def test_next_subgoal_off_plan_uses_hop_nearest():
    # node 4 hangs off node 2 of the route 0-1-2-3; localized at 4, the robot
    # replans from 4, and its subgoal is 2, the route node hop-nearest to 4
    topo = make_graph(5, [(0, 1), (1, 2), (2, 3), (4, 2)])
    route = N.plan_dijkstra(topo, 0, 3)
    assert 4 not in route
    assert min(route, key=lambda n: topo.edge_distance(4, n)) == 2
    assert N.next_subgoal(N._plan_or_goal(topo, 4, 3)) == 2


# -- controller --------------------------------------------------------------


def corridor_world():
    return W.generate_world(W.benchmark_spec(seed=0))


def test_control_zero_motion_at_subgoal():
    w = corridor_world()
    pose = Pose2D(5.0, 0.0, 0.0)
    new, collided = N.control_step(w, pose, pose, N.ControlGains())
    assert not collided
    assert (new.x, new.y) == (pose.x, pose.y)


def test_control_monotone_approach():
    w = corridor_world()
    gains = N.ControlGains()
    pose = Pose2D(2.0, 0.5, 0.0)
    goal = Pose2D(8.0, -0.5, 0.0)
    dist = math.hypot(goal.x - pose.x, goal.y - pose.y)
    for _ in range(100):
        pose, collided = N.control_step(w, pose, goal, gains)
        assert not collided
        d = math.hypot(goal.x - pose.x, goal.y - pose.y)
        if d < 0.1:
            break
        assert d < dist
        dist = d
    assert dist < 0.5


def test_control_collision_freezes_at_contact():
    w = corridor_world()
    # aim straight at the wall from just inside it
    pose = Pose2D(5.0, 1.45, 90.0)
    goal = Pose2D(5.0, 5.0, 0.0)
    gains = N.ControlGains(v_max=1.0, k_lin=10.0)
    new, collided = N.control_step(w, pose, goal, gains)
    assert collided
    assert abs(new.y - w.spec.half_width) < 1e-9


# -- trials ------------------------------------------------------------------


def oracle_setup():
    w = corridor_world()
    m = W.ObservationModel(d_obs=16, noise_sigma=0.02)
    nominal = W.generate_trajectory(w, 0.0, w.total_length, 0.0, seed=1, step=1.0)
    obs = W.render_trajectory(w, nominal, m, "sim", seed=2)
    topo = build_map_sim(list(zip(obs, nominal)), MapConfig())
    return w, m, topo


def test_immediate_success_when_starting_at_goal():
    w, m, topo = oracle_setup()
    cfg = N.NavConfig(goal_node=3, time_limit_steps=10)
    start = topo.poses[3]
    out = N.run_trial(w, topo, OracleLocalizer(0.025), m, start, cfg, seed=0)
    assert out.status == N.SUCCESS
    assert out.steps == 0


def test_tiny_time_limit_times_out():
    w, m, topo = oracle_setup()
    cfg = N.NavConfig(goal_node=topo.n - 1, time_limit_steps=1)
    out = N.run_trial(w, topo, OracleLocalizer(0.025), m, topo.poses[0], cfg, seed=0)
    assert out.status == N.TIMEOUT


def test_oracle_trials_succeed():
    w, m, topo = oracle_setup()
    for k in range(5):
        rng = np.random.default_rng(k)
        start_node = int(rng.integers(0, topo.n - 8))
        goal = start_node + int(rng.integers(3, 8))
        start = topo.poses[start_node]
        cfg = N.NavConfig(goal_node=goal, time_limit_steps=300)
        out = N.run_trial(w, topo, OracleLocalizer(0.025), m, start, cfg, seed=k)
        assert out.status == N.SUCCESS
        assert out.coverage > 0.5


def test_trials_deterministic():
    w, m, topo = oracle_setup()
    cfg = N.NavConfig(goal_node=8, time_limit_steps=200)
    outs = [N.run_trial(w, topo, OracleLocalizer(0.025), m, topo.poses[2], cfg, seed=5)
            for _ in range(2)]
    assert outs[0].status == outs[1].status
    assert outs[0].log == outs[1].log
    assert all(p == q for p, q in zip(outs[0].visited, outs[1].visited))


def test_trial_on_map_without_poses_fails_loudly():
    w, m, topo = oracle_setup()
    poseless = TopoMap(topo.descriptors, None, topo.edges, topo.config)
    with pytest.raises(ValueError, match="poses"):
        N.run_trial(w, poseless, OracleLocalizer(0.025), m, topo.poses[0],
                    N.NavConfig(goal_node=3), seed=0)


@pytest.mark.parametrize("fail", [False, True])
def test_trial_keeps_freed_heap_and_restores_trim_threshold(monkeypatch, fail):
    calls, seen = [], []

    class Watched(OracleLocalizer):
        def step(self, observation, gt_pose=None):
            seen.append(list(calls))
            if fail and len(seen) == 3:
                raise RuntimeError("injected mid-run failure")
            return super().step(observation, gt_pose)

    monkeypatch.setattr(T, "_mallopt", lambda param, value: calls.append((param, value)))
    w, m, topo = oracle_setup()
    cfg = N.NavConfig(goal_node=8, time_limit_steps=10)
    run = lambda: N.run_trial(w, topo, Watched(0.025), m, topo.poses[2], cfg, seed=5)
    if fail:
        with pytest.raises(RuntimeError, match="injected"):
            run()
    else:
        assert run().steps == 10
    raised = [(T._M_MMAP_THRESHOLD, 32 << 20), (T._M_TRIM_THRESHOLD, 256 << 20)]
    assert len(seen) == (3 if fail else 10) and all(c == raised for c in seen)
    assert calls == raised + [(T._M_TRIM_THRESHOLD, 128 << 10)]


def test_trials_in_one_outer_scope_keep_the_heap_between_them(monkeypatch):
    calls, seen = [], []

    class Watched(OracleLocalizer):
        def step(self, observation, gt_pose=None):
            seen.append((list(calls), gc.isenabled()))
            return super().step(observation, gt_pose)

    monkeypatch.setattr(T, "_mallopt", lambda param, value: calls.append((param, value)))
    w, m, topo = oracle_setup()
    cfg = N.NavConfig(goal_node=8, time_limit_steps=10)
    raised = [(T._M_MMAP_THRESHOLD, 32 << 20), (T._M_TRIM_THRESHOLD, 256 << 20)]
    collecting = gc.isenabled()
    gc.enable()
    try:
        with T.memory_scope():
            for seed in (5, 6):
                N.run_trial(w, topo, Watched(0.025), m, topo.poses[2], cfg, seed=seed)
            assert calls == raised  # the trials' own scopes neither raise nor restore
        assert gc.isenabled()
    finally:
        (gc.enable if collecting else gc.disable)()
    assert len(seen) == 20 and all(c == (raised, False) for c in seen)
    assert calls == raised + [(T._M_TRIM_THRESHOLD, 128 << 10)]


def corridors_world(corridors):
    """The benchmark layout extended to `corridors` identical corridors."""
    base = W.benchmark_spec(seed=0)
    corridor, junction = base.segments[1], base.segments[0]
    segments = [W.SegmentSpec("junction_0", junction.length)]
    for k in range(1, corridors + 1):
        segments += [W.SegmentSpec(corridor.kind, corridor.length),
                     W.SegmentSpec(f"junction_{k}", junction.length)]
    return W.World(W.WorldSpec(segments, half_width=base.half_width, d_obs=base.d_obs,
                               bumps_per_segment=base.bumps_per_segment, seed=base.seed))


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="page faults of glibc's malloc")
def test_steady_state_model_trial_step_faults_in_fewer_than_5_pages():
    # nine corridors and a 124-node map: a step's temporaries are about 127 KB each
    resource = pytest.importorskip("resource")
    world = corridors_world(9)
    om = W.ObservationModel.create(world.spec.d_obs, noise_sigma=0.05,
                                   shift_seed=world.spec.seed + 7, extra_sigma=0.05)
    poses = W.generate_trajectory(world, 0.0, world.total_length, 0.0, 1)
    obs = W.render_trajectory(world, poses, om, "sim", 2)
    topo = build_map_sim(list(zip(obs, poses)), MapConfig())
    assert topo.n == 124
    faults = []

    class Counted(ModelLocalizer):
        def step(self, observation, gt_pose=None):
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
            return super().step(observation, gt_pose)

    loc = Counted(L.Localizer(L.LocalizerConfig(d_obs=world.spec.d_obs), seed=0))
    cfg = N.NavConfig(goal_node=60, time_limit_steps=60)
    # glibc's thresholds as any earlier training or evaluation leaves them: fixed,
    # with the default trim threshold, whatever ran before in this process
    with T.memory_scope():
        pass
    for _ in range(2):  # a warm-up trial, then the measured one
        faults.clear()
        out = N.run_trial(world, topo, loc, om, topo.poses[40], cfg, seed=3)
    assert out.steps == 60
    per_step = np.diff(faults)
    assert np.median(per_step) < 5, per_step


# -- metrics -----------------------------------------------------------------


def outcome(status, cov=1.0):
    return N.TrialOutcome(status, [], cov, 0)


def test_nav_metrics_counting():
    sr, cr, tr, cov = N.nav_metrics([outcome(N.SUCCESS, 1.0)])
    assert (sr, cr, tr, cov) == (1.0, 0.0, 0.0, 1.0)
    sr, cr, tr, cov = N.nav_metrics([
        outcome(N.SUCCESS, 1.0), outcome(N.COLLISION, 0.5),
        outcome(N.TIMEOUT, 0.25), outcome(N.SUCCESS, 0.75)])
    assert (sr, cr, tr) == (0.5, 0.25, 0.25)
    assert abs(cov - 0.625) < 1e-12
    with pytest.raises(ValueError):
        N.nav_metrics([])


@settings(deadline=None, max_examples=50)
@given(st.lists(st.sampled_from([N.SUCCESS, N.COLLISION, N.TIMEOUT]),
                min_size=1, max_size=20))
def test_rates_sum_to_one(statuses):
    sr, cr, tr, _ = N.nav_metrics([outcome(s) for s in statuses])
    assert sr + cr + tr == pytest.approx(1.0, abs=1e-12)
