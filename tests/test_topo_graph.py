import json
import math
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import topoloc.topo_graph as G
from topoloc.map_sampler import sample_submap
from topoloc.topo_graph import (MapConfig, Pose2D, TopoMap, UNREACHABLE,
                                build_map_real, build_map_sim, nearest_node,
                                nearest_nodes, pose_distance, wrap_angle_deg)

OMEGA = 0.025


def pose(x, y=0.0, theta=0.0):
    return Pose2D(x, y, theta)


poses = st.builds(Pose2D,
                  st.floats(-50, 50), st.floats(-50, 50),
                  st.floats(-720, 720))


# -- pose metric -------------------------------------------------------------


def test_pose_distance_identity():
    assert pose_distance(pose(0), pose(0), OMEGA) == 0.0


def test_pose_distance_direct_evaluation():
    assert pose_distance(pose(0), Pose2D(1, 0, 40), OMEGA) == pytest.approx(2.0)


def test_pose_distance_angle_wrap():
    assert pose_distance(Pose2D(0, 0, 170), Pose2D(0, 0, -170), OMEGA) == pytest.approx(0.5)


def test_pose_distance_rejects_nonpositive_omega():
    with pytest.raises(ValueError):
        pose_distance(pose(0), pose(1), 0.0)


@given(poses, poses)
@settings(max_examples=200, deadline=None)
def test_pose_distance_symmetric_nonnegative(a, b):
    d_ab = pose_distance(a, b, OMEGA)
    assert d_ab == pytest.approx(pose_distance(b, a, OMEGA), abs=1e-9)
    assert d_ab >= 0.0


@given(poses)
@settings(max_examples=100, deadline=None)
def test_pose_distance_zero_iff_identical(p):
    assert pose_distance(p, p, OMEGA) == 0.0
    shifted = Pose2D(p.x + 0.5, p.y, p.theta)
    assert pose_distance(p, shifted, OMEGA) > 0.0


@given(st.lists(poses, min_size=1, max_size=6), st.lists(poses, min_size=1, max_size=6),
       st.lists(st.floats(-1080, 1080), max_size=6), st.sampled_from([OMEGA, 1 / 180, 0.3]))
@settings(max_examples=200, deadline=None)
def test_array_metric_equals_pose_distance_bit_for_bit(a, b, thetas, omega):
    # poses 180 degrees either side of each of a's: the yaw difference wraps at +-180
    b += [Pose2D(p.x + 0.5, p.y, p.theta + d) for p in a for d in (180.0, -180.0, 179.5)]
    for p, theta in zip(a, thetas):
        p.theta = theta  # mutated, not normalized
    got = G._metric(G._as_xyt(a)[:, :, None], G._as_xyt(b), omega)
    want = np.array([[pose_distance(p, q, omega) for q in b] for p in a])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_theta_normalized_to_half_open_interval():
    assert Pose2D(0, 0, -180).theta == 180.0
    assert Pose2D(0, 0, 540).theta == 180.0
    assert Pose2D(0, 0, 360).theta == 0.0
    assert wrap_angle_deg(190) == -170.0


# -- sim-style map construction ----------------------------------------------


def rand_desc(rng, d=4):
    return rng.normal(size=d)


def test_build_map_sim_singleton():
    rng = np.random.default_rng(0)
    m = build_map_sim([(rand_desc(rng), pose(0))], MapConfig())
    assert m.n == 1 and m.edges == []


def test_build_map_sim_empty_rejected():
    with pytest.raises(ValueError):
        build_map_sim([], MapConfig())


def test_build_map_sim_straight_line():
    rng = np.random.default_rng(1)
    traj = [(rand_desc(rng), pose(x)) for x in (0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)]
    m = build_map_sim(traj, MapConfig(alpha_th=1.0))
    assert [p.x for p in m.poses] == [0.0, 1.5, 3.0]
    assert m.edges == [(0, 1), (1, 2)]


def test_build_map_sim_square_loop_closure():
    rng = np.random.default_rng(2)
    side = [0, 0.6, 1.2, 1.8]
    pts = ([(x, 0.0) for x in side] + [(1.8, y) for y in side[1:]]
           + [(x, 1.8) for x in reversed(side[:-1])]
           + [(0.0, y) for y in reversed(side[1:-1])] + [(0.0, 0.3)])
    traj = [(rand_desc(rng), Pose2D(x, y, 0)) for x, y in pts]
    m = build_map_sim(traj, MapConfig(alpha_th=1.0))
    last = m.n - 1
    assert any(e == (last, 0) for e in m.edges), "final node must close the loop to node 0"


def oracle_build(traj, cfg):
    """Independent stepwise re-application of the node-creation rule."""
    nodes = [0]
    closures = []
    for t in range(1, len(traj)):
        prev = traj[nodes[-1]][1]
        cur = traj[t][1]
        gap = (math.hypot(cur.x - prev.x, cur.y - prev.y)
               + cfg.omega_m * abs(wrap_angle_deg(cur.theta - prev.theta)))
        if gap > cfg.alpha_th:
            i = len(nodes)
            for j in range(i - 1):
                old = traj[nodes[j]][1]
                d = (math.hypot(cur.x - old.x, cur.y - old.y)
                     + cfg.omega_m * abs(wrap_angle_deg(cur.theta - old.theta)))
                if d <= cfg.alpha_th:
                    closures.append((i, j))
            nodes.append(t)
    return nodes, closures


@pytest.mark.parametrize("seed", range(25))
def test_build_map_sim_matches_stepwise_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    traj = []
    x, y, th = 0.0, 0.0, 0.0
    for _ in range(n):
        x += rng.uniform(-0.8, 1.2)
        y += rng.uniform(-0.5, 0.5)
        th += rng.uniform(-40, 40)
        traj.append((rand_desc(rng), Pose2D(x, y, th)))
    cfg = MapConfig(alpha_th=float(rng.uniform(0.5, 2.0)))
    m = build_map_sim(traj, cfg)
    nodes, closures = oracle_build(traj, cfg)
    assert m.n == len(nodes)
    assert [p.x for p in m.poses] == [traj[i][1].x for i in nodes]
    chain = [(i - 1, i) for i in range(1, len(nodes))]
    assert sorted(m.edges) == sorted(chain + closures)


def build_map_sim_loop(trajectory, cfg):
    """build_map_sim as a scalar loop over pose_distance: the array pass's reference."""
    descriptors = [np.asarray(trajectory[0][0], dtype=np.float64)]
    poses = [trajectory[0][1]]
    edges = []
    for desc, p in trajectory[1:]:
        if pose_distance(p, poses[-1], cfg.omega_m) > cfg.alpha_th:
            i = len(poses)
            descriptors.append(np.asarray(desc, dtype=np.float64))
            poses.append(p)
            edges.append((i - 1, i))
            for j in range(i - 1):
                if pose_distance(p, poses[j], cfg.omega_m) <= cfg.alpha_th:
                    edges.append((i, j))
    return np.stack(descriptors), poses, edges


def assert_same_map(m, trajectory, cfg):
    descriptors, poses, edges = build_map_sim_loop(trajectory, cfg)
    assert np.array_equal(m.descriptors, descriptors)
    assert m.poses == poses
    assert m.edges == edges  # the order of the list too


def revisiting_trajectory(rng, n):
    """A random walk on a 0.5 m grid with 90-degree headings, so it comes back to
    earlier poses and many metric values are exact (ties, closures at alpha_th)."""
    x, y, out = 0.0, 0.0, []
    for _ in range(n):
        x += 0.5 * int(rng.integers(-2, 4))
        y += 0.5 * int(rng.integers(-2, 3))
        out.append((rand_desc(rng), Pose2D(x, y, 90.0 * int(rng.integers(-2, 3)))))
    return out


@pytest.mark.parametrize("seed", range(25))
def test_build_map_sim_matches_scalar_loop_in_order(seed):
    rng = np.random.default_rng(seed)
    traj = revisiting_trajectory(rng, int(rng.integers(2, 80)))
    for cfg in (MapConfig(alpha_th=1.0), MapConfig(omega_m=1 / 180, alpha_th=1.5)):
        assert_same_map(build_map_sim(traj, cfg), traj, cfg)


def test_build_map_sim_closes_loops_at_exactly_alpha_th():
    rng = np.random.default_rng(6)
    # out along y = 0 and back along y = 1, shifted by 0.75: hypot(0.75, 1.0) is 1.25
    pts = [(2.0 * k, 0.0) for k in range(5)] + [(2.0 * k + 0.75, 1.0) for k in range(4, -1, -1)]
    traj = [(rand_desc(rng), Pose2D(x, y, 0.0)) for x, y in pts]
    cfg = MapConfig(alpha_th=1.25)
    m = build_map_sim(traj, cfg)
    assert pose_distance(m.poses[5], m.poses[3], cfg.omega_m) == cfg.alpha_th
    assert [e for e in m.edges if e[0] > e[1] + 1] == [(5, 3), (6, 2), (7, 1), (8, 0)]
    assert_same_map(m, traj, cfg)


# (dx, dy) whose pose_distance from the origin, sqrt(dx*dx + dy*dy), is
# 1.0376109047169515 and 1.5284242658048781, and whose math.hypot is one ulp
# more and one ulp less (np.hypot, glibc, numpy 2.4: one ulp more and equal), so
# these tests fail if either path computes the distance with a hypot
ULP_OFFSETS = [((0.9554425309821815, 0.40468007064580547), 1.0376109047169515, 1.0376109047169517),
               ((1.2947683835248298, 0.8121918303736375), 1.5284242658048781, 1.528424265804878)]


@pytest.mark.parametrize("offset,exact,other", ULP_OFFSETS)
def test_build_map_sim_decides_closures_with_pose_distance(offset, exact, other):
    rng = np.random.default_rng(7)
    traj = [(rand_desc(rng), Pose2D(x, y, 0.0)) for x, y in [(0.0, 0.0), (10.0, 10.0), offset]]
    assert pose_distance(traj[2][1], traj[0][1], OMEGA) == exact
    for alpha, closes in ((exact, True), (other, other > exact)):
        m = build_map_sim(traj, MapConfig(alpha_th=alpha))
        assert ((2, 0) in m.edges) == closes
        assert_same_map(m, traj, MapConfig(alpha_th=alpha))


def test_build_map_sim_single_node_when_within_threshold():
    rng = np.random.default_rng(3)
    traj = [(rand_desc(rng), pose(x)) for x in np.linspace(0, 0.9, 10)]
    m = build_map_sim(traj, MapConfig(alpha_th=1.0))
    assert m.n == 1


def test_build_map_sim_chain_edge_per_node():
    rng = np.random.default_rng(4)
    traj = [(rand_desc(rng), pose(1.1 * i)) for i in range(12)]
    m = build_map_sim(traj, MapConfig(alpha_th=1.0))
    for i in range(1, m.n):
        incoming = [e for e in m.edges if e == (i - 1, i)]
        assert len(incoming) == 1


# -- real-style map construction ---------------------------------------------


def test_build_map_real_stride_seven():
    rng = np.random.default_rng(5)
    m = build_map_real(rng.normal(size=(15, 4)), 7)
    assert m.n == 3
    assert m.edges == [(0, 1), (1, 2)]
    assert m.poses is None


def test_build_map_real_singleton():
    m = build_map_real(np.ones((1, 4)), 3)
    assert m.n == 1 and m.edges == []


def test_build_map_real_stride_one():
    m = build_map_real(np.arange(16).reshape(8, 2), 1)
    assert m.n == 8 and len(m.edges) == 7


@pytest.mark.parametrize("length,m_stride", [(1, 1), (6, 2), (7, 7), (22, 5), (50, 7)])
def test_build_map_real_node_count_formula(length, m_stride):
    m = build_map_real(np.zeros((length, 3)), m_stride)
    assert m.n == math.ceil(length / m_stride)
    assert len(m.edges) == m.n - 1


def test_build_map_real_rejects_empty():
    with pytest.raises(ValueError):
        build_map_real(np.zeros((0, 3)), 7)


# -- nearest node ------------------------------------------------------------


def two_node_map():
    return TopoMap(np.zeros((2, 3)), [pose(0), pose(1)], [(0, 1)])


def test_nearest_node_basic():
    assert nearest_node(two_node_map(), pose(0.4), OMEGA) == 0


def test_nearest_node_exact_hit():
    assert nearest_node(two_node_map(), pose(1.0), OMEGA) == 1


def test_nearest_node_tie_breaks_low():
    assert nearest_node(two_node_map(), pose(0.5), OMEGA) == 0


def nearest_node_loop(topo, query, omega_m):
    """nearest_node as a scalar loop over pose_distance: the array pass's reference."""
    best, best_d = 0, math.inf
    for i, p in enumerate(topo.poses):
        d = pose_distance(query, p, omega_m)
        if d < best_d:
            best, best_d = i, d
    return best


def posed_map(node_poses):
    n = len(node_poses)
    return TopoMap(np.zeros((n, 2)), node_poses, [(i, i + 1) for i in range(n - 1)])


def assert_nearest_matches_loop(topo, queries, omega_m=OMEGA):
    want = [nearest_node_loop(topo, q, omega_m) for q in queries]
    assert nearest_nodes(topo, queries, omega_m) == want
    assert [nearest_node(topo, q, omega_m) for q in queries] == want


@pytest.mark.parametrize("seed", range(20))
def test_nearest_nodes_match_scalar_loop_with_exact_ties(seed):
    rng = np.random.default_rng(seed)
    grid = lambda k: [Pose2D(0.5 * int(a), 0.5 * int(b), 45.0 * int(t))
                      for a, b, t in rng.integers(-6, 7, size=(k, 3))]
    nodes = grid(int(rng.integers(1, 30)))
    nodes += [Pose2D(p.x, p.y, p.theta) for p in nodes[::3]]  # duplicate poses
    topo = posed_map(nodes)
    mids = [Pose2D((a.x + b.x) / 2, (a.y + b.y) / 2, a.theta)
            for a, b in zip(nodes, nodes[1:]) if a.theta == b.theta]
    real = [Pose2D(*rng.uniform(-4, 4, size=2), rng.uniform(-180, 180)) for _ in range(10)]
    assert_nearest_matches_loop(topo, nodes + mids + grid(40) + real)
    assert_nearest_matches_loop(topo, nodes + mids, omega_m=1 / 90)


@pytest.mark.parametrize("offset,exact,other", ULP_OFFSETS)
def test_nearest_node_breaks_ulp_ties_with_pose_distance(offset, exact, other):
    # node 0 lies straight ahead at exactly the other node's pose_distance
    for nodes in ([Pose2D(exact, 0.0, 0.0), Pose2D(*offset, 0.0)],
                  [Pose2D(*offset, 0.0), Pose2D(exact, 0.0, 0.0)]):
        assert nearest_node(posed_map(nodes), pose(0), OMEGA) == 0
        assert_nearest_matches_loop(posed_map(nodes), [pose(0)])


def test_nearest_nodes_match_scalar_loop_across_plus_minus_180_degrees():
    thetas = [180.0, -179.0, 179.0, 179.999, -179.999, 0.5, -0.5, 90.0, -90.0]
    nodes = [Pose2D(0.0, 0.0, t) for t in thetas] + [Pose2D(0.1, 0.0, t) for t in thetas]
    topo = posed_map(nodes)
    queries = [Pose2D(x, 0.0, t) for x in (0.0, 0.05, 0.1)
               for t in (-180.0, 180.0, -179.5, 179.5, 1e-9, -1e-9, 359.0, -540.0)]
    assert_nearest_matches_loop(topo, queries)
    queries[0].theta = 540.0  # not normalized: the metric still wraps the difference
    topo.poses[1].theta = -900.0
    assert_nearest_matches_loop(posed_map(topo.poses), queries)


@settings(max_examples=60, deadline=None)
@given(st.lists(poses, min_size=1, max_size=12), st.lists(poses, max_size=8))
def test_nearest_nodes_match_scalar_loop_on_random_poses(node_poses, queries):
    assert_nearest_matches_loop(posed_map(node_poses), queries)


def test_nearest_node_rejects_non_finite_poses():
    with pytest.raises(ValueError, match="not finite"):
        nearest_node(two_node_map(), Pose2D(math.nan, 0.0, 0.0), OMEGA)
    with pytest.raises(ValueError, match="non-finite"):
        nearest_node(posed_map([pose(0), pose(math.nan)]), pose(0), OMEGA)


@pytest.mark.parametrize("query", [Pose2D(math.inf, 0.0, 0.0), Pose2D(0.0, -math.inf, 0.0)])
def test_nearest_nodes_reject_an_infinite_query(query):
    with pytest.raises(ValueError, match="not finite"):
        nearest_nodes(two_node_map(), [pose(0.5), query], OMEGA)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_map_rejects_a_non_finite_pose_at_construction(bad):
    with pytest.raises(ValueError, match="non-finite map pose"):
        TopoMap(np.zeros((2, 3)), [pose(0), pose(bad)], [(0, 1)])


@pytest.mark.parametrize("k,bad", [(0, math.inf), (2, math.inf), (2, math.nan)])
def test_build_map_sim_rejects_a_non_finite_pose_before_any_metric_pass(k, bad):
    rng = np.random.default_rng(8)
    traj = [(rand_desc(rng), pose(2.0 * i)) for i in range(5)]
    traj[k] = (traj[k][0], pose(bad))  # a NaN pose is never far enough to become a node
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"non-finite trajectory pose Pose2D.x={bad}"):
            build_map_sim(traj, MapConfig())


def test_nearest_nodes_reject_a_non_finite_query_beside_a_tie():
    # no node near the first query and two near the second: as many as queries
    with pytest.raises(ValueError, match="not finite"):
        nearest_nodes(two_node_map(), [Pose2D(math.nan, 0.0, 0.0), pose(0.5)], OMEGA)


def test_map_without_nodes_rejected():
    with pytest.raises(ValueError, match="at least one node"):
        TopoMap(np.zeros((0, 16)), [], [])
    with pytest.raises(ValueError, match="no nodes"):
        TopoMap.from_dict({"nodes": [], "edges": [], "config": None})


def test_nearest_node_requires_poses():
    m = TopoMap(np.zeros((2, 3)), None, [(0, 1)])
    with pytest.raises(ValueError):
        nearest_node(m, pose(0), OMEGA)


# -- graph queries -----------------------------------------------------------


def chain_map(n=3):
    return TopoMap(np.zeros((n, 2)), None, [(i, i + 1) for i in range(n - 1)])


def test_edge_distance_chain():
    assert chain_map(3).edge_distance(0, 2) == 2


def test_edge_distance_identity():
    m = chain_map(5)
    for k in range(5):
        assert m.edge_distance(k, k) == 0


def test_edge_distance_unreachable():
    m = TopoMap(np.zeros((3, 2)), None, [(0, 1)])
    assert m.edge_distance(0, 2) == UNREACHABLE


def test_edge_distance_invalid_node():
    with pytest.raises(IndexError):
        chain_map(3).edge_distance(0, 9)


def bfs_oracle(n, edges, a, b):
    adj = [set() for _ in range(n)]
    for s, t in edges:
        adj[s].add(t)
        adj[t].add(s)
    dist = {a: 0}
    q = deque([a])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist.get(b, UNREACHABLE)


@pytest.mark.parametrize("seed", range(30))
def test_edge_distance_matches_bfs_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    all_pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    k = int(rng.integers(0, len(all_pairs) + 1))
    idx = rng.choice(len(all_pairs), size=k, replace=False)
    edges = [all_pairs[i] for i in idx]
    m = TopoMap(np.zeros((n, 2)), None, edges)
    for a in range(n):
        for b in range(n):
            assert m.edge_distance(a, b) == bfs_oracle(n, edges, a, b)


def test_edge_distance_triangle_inequality():
    rng = np.random.default_rng(77)
    n = 8
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, 4), (2, 6)]
    m = TopoMap(np.zeros((n, 2)), None, edges)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert m.edge_distance(a, c) <= m.edge_distance(a, b) + m.edge_distance(b, c)


def test_bfs_directed_and_undirected_on_one_way_chain():
    m = chain_map(4)  # edges 0->1->2->3
    assert m.bfs(2, directed=True) == ((UNREACHABLE, UNREACHABLE, 0, 1), (None, None, None, 2))
    assert m.bfs(2) == ((2, 1, 0, 1), (1, 2, None, 2))


def test_bfs_parent_is_first_discovery_in_ascending_order():
    # 0 reaches 3 through both 1 and 2; 3 is first reached from 1
    m = TopoMap(np.zeros((4, 2)), None, [(0, 2), (2, 3), (0, 1), (1, 3)])
    assert m.bfs(0, directed=True) == ((0, 1, 1, 2), (None, 0, 0, 1))


def test_bfs_searches_once_per_source_and_direction(monkeypatch):
    searches = []

    def counting_deque(*args):
        searches.append(args)
        return deque(*args)

    monkeypatch.setattr(G, "deque", counting_deque)
    m = chain_map(5)
    assert searches == []  # constructing a map runs no search
    first = m.bfs(1)
    assert m.bfs(1) is first
    assert m.edge_distance(1, 4) == 3
    assert len(searches) == 1
    assert m.bfs(1, directed=True) is m.bfs(1, directed=True)
    assert len(searches) == 2
    with pytest.raises(IndexError):
        m.bfs(-1)


def test_neighbors_chain():
    assert chain_map(3).neighbors(1) == [0, 2]


def test_neighbors_isolated():
    m = TopoMap(np.zeros((3, 2)), None, [(0, 1)])
    assert m.neighbors(2) == []


@pytest.mark.parametrize("seed", range(10))
def test_neighbors_matches_edge_list_scan(seed):
    rng = np.random.default_rng(seed + 100)
    n = int(rng.integers(2, 12))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    idx = rng.choice(len(pairs), size=min(len(pairs), 2 * n), replace=False)
    edges = [pairs[i] for i in idx]
    m = TopoMap(np.zeros((n, 2)), None, edges)
    for i in range(n):
        expected = sorted({t for s, t in edges if s == i} | {s for s, t in edges if t == i})
        assert m.neighbors(i) == expected


# -- validation and persistence ----------------------------------------------


def test_map_rejects_self_loops_and_duplicates():
    with pytest.raises(ValueError):
        TopoMap(np.zeros((2, 2)), None, [(0, 0)])
    with pytest.raises(ValueError):
        TopoMap(np.zeros((2, 2)), None, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        TopoMap(np.zeros((2, 2)), None, [(0, 5)])


@pytest.mark.parametrize("edges", [
    [(0, 1.5), (1, 2)],  # a fractional id, which int() would truncate to node 1
    [(0, 1.0)],          # a float id, even a whole one
    [(True, False)],
    [(0, None)],
    [(0, 1, 2)],         # not a pair
    [0, 1],              # a pair, not a list of pairs
])
def test_map_rejects_edges_that_are_not_integer_pairs(edges):
    with pytest.raises(ValueError, match="pairs of integer node ids"):
        TopoMap(np.zeros((3, 2)), None, edges)


def test_map_json_with_fractional_node_id_rejected():
    blob = TopoMap(np.ones((3, 2)), None, [(0, 1), (1, 2)]).to_dict()
    blob["edges"][0] = [0, 1.9]
    with pytest.raises(ValueError, match="integer node ids"):
        TopoMap.from_dict(blob)


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (2, 3)], r"edge \(2, 3\) references an invalid node"),
    ([(0, 1), (-1, 0)], r"edge \(-1, 0\) references an invalid node"),
    ([(0, 1), (2, 2)], "self-loop on node 2"),
    ([(0, 1), (1, 2), (2, 1), (1, 2)], r"duplicate edge \(1, 2\)"),
])
def test_map_edge_errors_name_the_edge(edges, message):
    with pytest.raises(ValueError, match=message):
        TopoMap(np.zeros((3, 2)), None, edges)


@pytest.mark.parametrize("edges", [[], (), np.empty((0, 2), dtype=int), np.zeros((0, 2))])
def test_map_accepts_an_empty_edge_list(edges):
    m = TopoMap(np.zeros((3, 2)), None, edges)
    assert m.edges == [] and not m.adjacency.any() and m.adjacency.shape == (3, 3)


def edge_loop_matrix(n, edges):
    a = np.zeros((n, n))
    for s, t in edges:
        a[s, t] = a[t, s] = 1.0
    return a


def test_adjacency_is_built_once_on_first_use_and_read_only(monkeypatch):
    built = []
    build = G._adjacency
    monkeypatch.setattr(G, "_adjacency", lambda *args: built.append(args) or build(*args))
    m = TopoMap(np.zeros((4, 2)), None, [(0, 1), (1, 2), (3, 1)])
    assert not built  # not with the map
    a = m.adjacency
    assert m.adjacency is a and len(built) == 1
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 2] = 1.0


def test_map_edges_are_validated_once(monkeypatch):
    checked = []
    check = G._edge_array
    monkeypatch.setattr(G, "_edge_array", lambda *args: checked.append(args) or check(*args))
    m = TopoMap(np.zeros((4, 2)), None, [(0, 1), (1, 2), (3, 1)])
    m.adjacency
    assert len(checked) == 1  # by the map, not again by its adjacency


def test_adjacency_equals_edge_loop_matrix_on_random_maps():
    rng = np.random.default_rng(23)
    edgeless = 0
    for _ in range(200):
        n = int(rng.integers(1, 12))
        density = rng.choice([0.0, 0.1, 0.5, 1.0])
        edges = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < density]
        rng.shuffle(edges)
        edgeless += not edges
        m = TopoMap(np.zeros((n, 2)), None, edges)
        assert m.adjacency.dtype == np.float64
        assert np.array_equal(m.adjacency, edge_loop_matrix(n, edges))
        assert np.array_equal(m.adjacency, G.adjacency_matrix(edges, n))
    assert edgeless >= 20


def test_submap_adjacency_is_the_parents_block():
    rng = np.random.default_rng(24)
    for _ in range(50):
        n = int(rng.integers(2, 16))
        edges = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.25]
        parent = TopoMap(np.zeros((n, 2)), None, edges)
        targets = rng.integers(n, size=int(rng.integers(1, 4)))
        res = sample_submap(parent, targets, int(rng.integers(len(set(targets)), n + 1)),
                            int(rng.integers(2 ** 31)))
        sel = sorted(res.node_mapping, key=res.node_mapping.get)  # parent node of each row
        assert np.array_equal(res.submap.adjacency, parent.adjacency[np.ix_(sel, sel)])


def json_roundtrip(m):
    return TopoMap.from_dict(json.loads(json.dumps(m.to_dict())))


def test_map_json_roundtrip_lossless():
    rng = np.random.default_rng(11)
    desc = rng.normal(size=(4, 6)) * 1e-8
    p = [Pose2D(rng.normal(), rng.normal(), rng.uniform(-180, 180)) for _ in range(4)]
    m = TopoMap(desc, p, [(0, 1), (1, 2), (2, 3), (3, 0)], MapConfig())
    loaded = json_roundtrip(m)
    assert np.array_equal(loaded.descriptors, m.descriptors)
    assert loaded.edges == m.edges
    for a, b in zip(loaded.poses, m.poses):
        assert (a.x, a.y, a.theta) == (b.x, b.y, b.theta)
    assert loaded.config.to_dict() == m.config.to_dict()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_map_json_with_non_finite_descriptor_rejected(bad):
    blob = TopoMap(np.ones((3, 2)), None, [(0, 1), (1, 2)]).to_dict()
    blob["nodes"][1]["descriptor"][0] = bad
    text = json.dumps(blob)  # Python's json writes and reads NaN and Infinity
    with pytest.raises(ValueError, match="non-finite"):
        TopoMap.from_dict(json.loads(text))


def test_map_json_roundtrip_poseless():
    m = build_map_real(np.random.default_rng(1).normal(size=(9, 3)), 4)
    loaded = json_roundtrip(m)
    assert loaded.poses is None
    assert np.array_equal(loaded.descriptors, m.descriptors)


@pytest.mark.parametrize("posed", [(True, False, True), (False, True, True)])
def test_map_json_mixed_poses_rejected(posed):
    nodes = [{"descriptor": [float(i)], "pose": pose(i).to_dict() if p else None}
             for i, p in enumerate(posed)]
    with pytest.raises(ValueError, match="pose"):
        TopoMap.from_dict({"nodes": nodes, "edges": [[0, 1], [1, 2]], "config": None})
