"""Synthetic world tests: determinism, aliasing by construction, domain
shift, trajectory safety, and deviation bands."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import topoloc.simworld as W
from topoloc.topo_graph import (MapConfig, Pose2D, build_map_sim, nearest_nodes,
                                pose_distance)


def world(seed=0):
    return W.generate_world(W.benchmark_spec(seed=seed))


# -- world generation --------------------------------------------------------


def test_same_seed_identical_worlds():
    a, b = world(3), world(3)
    pose = Pose2D(12.0, 0.3, 5.0)
    assert np.array_equal(a.base_descriptor(pose), b.base_descriptor(pose))


def test_benchmark_repetition_count():
    assert world().repetition_count == 3


def test_unique_kinds_have_distinct_descriptors():
    spec = W.WorldSpec([W.SegmentSpec("a", 5.0), W.SegmentSpec("b", 5.0)], seed=1)
    w = W.generate_world(spec)
    assert w.repetition_count == 1
    da = w.base_descriptor(Pose2D(2.5, 0.0, 0.0))
    db = w.base_descriptor(Pose2D(7.5, 0.0, 0.0))
    assert not np.allclose(da, db)


def test_world_validation():
    with pytest.raises(ValueError):
        W.generate_world(W.WorldSpec([]))
    with pytest.raises(ValueError):
        W.generate_world(W.WorldSpec([W.SegmentSpec("a", 5.0),
                                      W.SegmentSpec("a", 6.0)]))
    with pytest.raises(ValueError):
        W.generate_world(W.WorldSpec([W.SegmentSpec("a", -1.0)]))


def test_spec_roundtrip():
    spec = W.benchmark_spec(seed=9)
    assert W.WorldSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


# -- observations ------------------------------------------------------------


def test_render_deterministic_noise_free():
    w = world()
    m = W.ObservationModel(d_obs=16)
    pose = Pose2D(7.0, 0.2, 3.0)
    a = W.render_observation(w, pose, m, "sim")
    b = W.render_observation(w, pose, m, "sim")
    assert np.array_equal(a, b)


def test_corresponding_poses_in_repeated_segments_alias():
    w = world()
    m = W.ObservationModel(d_obs=16)
    # corridors start at x=5, 25, 45; same local offset and pose
    base = [W.render_observation(w, Pose2D(x0 + 4.2, 0.1, 2.0), m, "sim")
            for x0 in (5.0, 25.0, 45.0)]
    # identical up to rounding of the segment-local coordinate x - x0
    np.testing.assert_allclose(base[1], base[0], atol=1e-12)
    np.testing.assert_allclose(base[2], base[0], atol=1e-12)


def test_real_like_domain_is_exact_affine_shift():
    w = world()
    m = W.ObservationModel.create(16, noise_sigma=0.0, shift_seed=4)
    pose = Pose2D(10.0, -0.4, -5.0)
    sim = W.render_observation(w, pose, m, "sim")
    real = W.render_observation(w, pose, m, "real_like")
    np.testing.assert_allclose(real, m.shift_scale * sim + m.shift_bias, atol=1e-15)


def test_render_rejects_out_of_bounds_and_bad_domain():
    w = world()
    m = W.ObservationModel(d_obs=16)
    with pytest.raises(ValueError):
        W.render_observation(w, Pose2D(-1.0, 0.0, 0.0), m, "sim")
    with pytest.raises(ValueError):
        W.render_observation(w, Pose2D(1.0, 5.0, 0.0), m, "sim")
    with pytest.raises(ValueError):
        W.render_observation(w, Pose2D(1.0, 0.0, 0.0), m, "dreamworld")


def render_pose(world, pose, model, domain="sim", rng=None):
    """One pose rendered with scalar segment lookup and its own linspace: the reference."""
    if not world.contains(pose):
        raise ValueError("outside world bounds")
    _, seg, x0 = world.segment_at(pose.x)
    centers = np.linspace(0.0, seg.length, world.spec.bumps_per_segment)
    bumps = np.exp(-((pose.x - x0 - centers) / (seg.length / world.spec.bumps_per_segment)) ** 2)
    th = math.radians(pose.theta)
    desc = (world.features[seg.kind] @ bumps + world.f_y * pose.y
            + world.f_cos * math.cos(th) + world.f_sin * math.sin(th))
    if model.noise_sigma > 0 and rng is not None:
        desc = desc + model.noise_sigma * rng.normal(size=model.d_obs)
    if domain == "real_like":
        scale = model.shift_scale if model.shift_scale is not None else np.ones(model.d_obs)
        bias = model.shift_bias if model.shift_bias is not None else np.zeros(model.d_obs)
        desc = scale * desc + bias
        if model.shift_extra_sigma > 0 and rng is not None:
            desc = desc + model.shift_extra_sigma * rng.normal(size=model.d_obs)
    return desc


def render_loop(world, poses, model, domain, seed):
    """render_trajectory as a loop over poses: the array pass's reference."""
    rng = np.random.default_rng(seed)
    return np.stack([render_pose(world, p, model, domain, rng) for p in poses]), rng


def render_cases():
    w = world()
    poses = W.generate_trajectory(w, 0.0, w.total_length, 1.2, seed=4, step=0.37)
    poses += [Pose2D(x, y, t) for x in (0.0, 5.0, 20.0, 25.0, w.total_length)
              for y, t in ((0.0, 180.0), (-1.5, -179.9), (1.5, 90.0))]  # segment ends, walls
    for domain in ("sim", "real_like"):
        for noise in (0.0, 0.05):
            for extra in (0.0, 0.05):
                yield w, poses, W.ObservationModel.create(16, noise, shift_seed=3, extra_sigma=extra), domain
    yield w, poses, W.ObservationModel(16, 0.05), "real_like"  # no affine shift set


@pytest.mark.parametrize("w,poses,model,domain", list(render_cases()))
def test_render_matches_per_pose_loop(w, poses, model, domain):
    want, want_rng = render_loop(w, poses, model, domain, seed=9)
    assert np.array_equal(W.render_trajectory(w, poses, model, domain, seed=9), want)
    rng = np.random.default_rng(9)
    got = np.stack([W.render_observation(w, p, model, domain, rng) for p in poses])
    assert np.array_equal(got, want)
    assert rng.random() == want_rng.random()  # the generator is consumed alike
    for p in poses[::7]:
        assert np.array_equal(W.render_observation(w, p, model, domain),
                              render_pose(w, p, model, domain))
        assert np.array_equal(w.base_descriptor(p), render_pose(w, p, W.ObservationModel(16)))


def test_descriptor_smooth_in_pose():
    w = world()
    a = w.base_descriptor(Pose2D(10.0, 0.0, 0.0))
    b = w.base_descriptor(Pose2D(10.01, 0.0, 0.0))
    assert np.linalg.norm(a - b) < 0.1


# -- trajectories ------------------------------------------------------------


def test_zero_amplitude_follows_nominal_path():
    w = world()
    poses = W.generate_trajectory(w, 0.0, 30.0, 0.0, seed=5)
    for p in poses:
        assert abs(p.y) < 1e-9
        assert abs(p.theta) < 1e-9


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10 ** 6),
       amp=st.floats(0.0, 1.2))
def test_trajectories_collision_free(seed, amp):
    w = world()
    poses = W.generate_trajectory(w, 0.0, w.total_length, amp, seed)
    for p in poses:
        assert w.contains(p)
        assert abs(p.y) < w.spec.half_width
    for a, b in zip(poses, poses[1:]):
        for q0, q1 in w.obstacles:
            assert not W.segment_intersects((a.x, a.y), (b.x, b.y), q0, q1)


def test_trajectory_direction_and_span():
    w = world()
    fwd = W.generate_trajectory(w, 0.0, 20.0, 0.0, seed=6, step=0.5)
    assert fwd[0].x == 0.0 and abs(fwd[-1].x - 20.0) < 1e-9
    rev = W.generate_trajectory(w, 20.0, 0.0, 0.0, seed=6, step=0.5)
    assert rev[0].x == 20.0 and abs(rev[-1].x) < 1e-9
    assert rev[0].theta == 180.0


def trajectory_loop(world, start_x, goal_x, deviation_amplitude, seed, step=0.5):
    """generate_trajectory as a loop over steps: the array pass's reference."""
    margin = 0.05
    goal_x = min(max(goal_x, 0.0), world.total_length)
    rng = np.random.default_rng(seed)
    direction = 1.0 if goal_x >= start_x else -1.0
    heading = 0.0 if direction > 0 else 180.0
    span = abs(goal_x - start_x)
    count = max(int(round(span / step)), 1)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    period = rng.uniform(8.0, 16.0)
    phase = rng.uniform(0, 2 * math.pi)
    phase2 = rng.uniform(0, 2 * math.pi)
    poses = []
    for k in range(count + 1):
        x = start_x + direction * min(k * step, span)
        profile = 0.85 + 0.15 * math.sin(2 * math.pi * x / period + phase)
        y = sign * deviation_amplitude * profile
        y = min(max(y, -(world.spec.half_width - margin)), world.spec.half_width - margin)
        dth = 2.0 * deviation_amplitude * math.sin(2 * math.pi * x / period + phase2)
        poses.append(Pose2D(x, y, heading + dth))
    return poses


def same_floats(a, b):
    """Equal as floats, with zeros of the same sign."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@pytest.mark.parametrize("step", [0.37, 0.5, 1.0])
@pytest.mark.parametrize("start_x,goal_x", [
    (0.0, 65.0), (65.0, 0.0),    # the whole world, both directions
    (3.3, 41.7), (41.7, 3.3),    # spans of no whole number of steps
    (12.0, 80.0), (50.0, -10.0),  # goals clamped to the world
    (20.0, 20.0),                # no span: one step that stays put
])
def test_trajectory_matches_per_step_loop_bit_for_bit(start_x, goal_x, step):
    w = world()
    clamped = 0
    for seed in range(4):  # both lateral signs occur
        for amp in (0.0, 0.3, 1.2, 1.6, 3.0):  # the last two reach the wall clamp
            got = W.generate_trajectory(w, start_x, goal_x, amp, seed, step=step)
            want = trajectory_loop(w, start_x, goal_x, amp, seed, step=step)
            assert len(got) == len(want)
            for p, q in zip(got, want):
                assert all(same_floats(a, b) for a, b in
                           ((p.x, q.x), (p.y, q.y), (p.theta, q.theta))), (p, q)
            clamped += sum(abs(p.y) == w.spec.half_width - 0.05 for p in got)
    assert clamped > 0


def nearest_node_loop(topo, query, omega_m):
    """The first node of least pose_distance, by a scalar loop."""
    d = [pose_distance(query, p, omega_m) for p in topo.poses]
    return d.index(min(d))


@pytest.mark.parametrize("map_seed", [1, 7])
def test_nearest_nodes_of_benchmark_samples_match_scalar_loop(map_seed):
    # built as the benchmark builds its sim samples: a map from a nominal pass at
    # 1 m steps holds a node every 2 m, and deviated passes at 1 m steps put every
    # other query exactly midway between two nodes
    w = world()
    m = W.ObservationModel.create(16, noise_sigma=0.05, shift_seed=7, extra_sigma=0.05)
    nominal = W.generate_trajectory(w, 0.0, w.total_length, 0.0, map_seed, step=1.0)
    mc = MapConfig()
    topo = build_map_sim(list(zip(W.render_trajectory(w, nominal, m, "sim", 3), nominal)), mc)
    ties = 0
    for k, deviation in enumerate((0.0, 0.3, 0.8, 1.3)):
        for reverse in (False, True):
            a, b = (w.total_length, 0.0) if reverse else (0.0, w.total_length)
            queries = W.generate_trajectory(w, a, b, deviation, 100 * map_seed + k, step=1.0)
            assert nearest_nodes(topo, queries, mc.omega_m) == \
                [nearest_node_loop(topo, q, mc.omega_m) for q in queries]
            for q in queries:
                d = [pose_distance(q, p, mc.omega_m) for p in topo.poses]
                ties += d.count(min(d)) > 1
    assert ties > 100  # about a third of the queries are exact ties


def test_trajectory_rejects_bad_start():
    with pytest.raises(ValueError):
        W.generate_trajectory(world(), -5.0, 10.0, 0.0, seed=0)


def test_amplitude_bands_map_to_deviation_categories():
    w = world()
    m = W.ObservationModel(d_obs=16)
    nominal = W.generate_trajectory(w, 0.0, w.total_length, 0.0, seed=7, step=1.0)
    obs = W.render_trajectory(w, nominal, m, "sim", seed=8)
    topo = build_map_sim(list(zip(obs, nominal)), MapConfig())

    def node_distances(poses):
        """The pose metric from each pose to its nearest node."""
        return [pose_distance(p, topo.poses[k], 0.025)
                for p, k in zip(poses, nearest_nodes(topo, poses, 0.025))]

    for amp in (0.3, 1.4):  # lateral offsets stay within [0.7, 1.0] * amplitude
        poses = W.generate_trajectory(w, 0.0, w.total_length, amp, seed=11)
        assert all(0.7 * amp - 1e-12 <= abs(p.y) <= amp + 1e-12 for p in poses)
    mild = node_distances(W.generate_trajectory(w, 0.0, w.total_length, 0.3, seed=9))
    assert W.deviation_band(0.3) == "deviated_le_1"
    assert sum(d <= 1.0 for d in mild) >= 0.7 * len(mild)
    strong = node_distances(W.generate_trajectory(w, 0.0, w.total_length, 1.4, seed=10))
    assert W.deviation_band(1.4) == "deviated_1_to_2"
    assert any(d > 1.0 for d in strong)
    assert sum(d > 1.0 for d in strong) > sum(d > 1.0 for d in mild)


# -- deviation bands ---------------------------------------------------------


def test_classify_deviation_bands():
    assert W.deviation_band(0.0) == "not_deviated"
    assert W.deviation_band(1e-6) == "not_deviated"
    assert W.deviation_band(0.3) == "deviated_le_1"
    assert W.deviation_band(1.0) == "deviated_le_1"
    assert W.deviation_band(1.3) == "deviated_1_to_2"
    assert W.deviation_band(2.0) == "deviated_1_to_2"
    for bad in (math.nan, -0.1, 2.01, math.inf):  # the paper's bands end at 2 m
        with pytest.raises(ValueError, match="between 0 and 2 m"):
            W.deviation_band(bad)
    # in a corridor of half-width 1.0 generate_trajectory clamps offsets at 0.95 m
    assert W.deviation_band(0.95, half_width=1.0) == "deviated_le_1"
    with pytest.raises(ValueError, match="between 0 and 0.95 m, got 1.3"):
        W.deviation_band(1.3, half_width=1.0)
    w = W.generate_world(W.WorldSpec.from_dict({**world().spec.to_dict(), "half_width": 1.0}))
    assert max(abs(p.y) for p in W.generate_trajectory(w, 0.0, 30.0, 1.3, seed=3)) == 0.95


# -- aliasing property -------------------------------------------------------


def test_nearest_descriptor_confuses_repeated_segments():
    """Noise-free nearest-descriptor retrieval lands in the wrong corridor
    copy for deviated corridor poses: the aliasing the model must beat."""
    from topoloc.evaluation import baseline_nearest_descriptor

    w = world()
    m = W.ObservationModel(d_obs=16)
    nominal = W.generate_trajectory(w, 0.0, w.total_length, 0.0, seed=11, step=1.0)
    obs = W.render_trajectory(w, nominal, m, "sim", seed=12)
    topo = build_map_sim(list(zip(obs, nominal)), MapConfig())
    segments = []
    for x0 in (5.0, 25.0, 45.0):  # corresponding poses in the three corridors
        pose = Pose2D(x0 + 7.3, 0.6, 4.0)
        pred = baseline_nearest_descriptor(w.base_descriptor(pose), topo)
        segments.append(w.segment_at(topo.poses[pred].x)[0])
    # identical descriptors force identical predictions: at most one of the
    # three corridor queries can resolve to its own segment
    assert len(set(segments)) == 1
