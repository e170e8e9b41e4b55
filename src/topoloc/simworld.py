"""Synthetic corridor world with controllable perceptual aliasing.

The layout is a straight run of segments (junction rooms and corridors)
along the x axis, bounded by two walls.  Observation descriptors depend
only on the segment *kind* and the pose in segment-local coordinates, so
repeated corridor segments render identical descriptors at corresponding
poses: aliasing by construction.  A "real_like" domain applies a fixed
affine shift plus extra noise to emulate a sim-to-real gap.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .topo_graph import Pose2D, pose_distance, wrap_angle_deg

NOT_DEVIATED = "not_deviated"
DEVIATED_LE_1 = "deviated_le_1"
DEVIATED_1_TO_2 = "deviated_1_to_2"


@dataclass
class SegmentSpec:
    kind: str
    length: float


@dataclass
class WorldSpec:
    segments: list
    half_width: float = 1.5
    d_obs: int = 16
    bumps_per_segment: int = 6
    seed: int = 0

    def to_dict(self):
        return {
            "segments": [{"kind": s.kind, "length": s.length} for s in self.segments],
            "half_width": self.half_width,
            "d_obs": self.d_obs,
            "bumps_per_segment": self.bumps_per_segment,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(d):
        return WorldSpec(
            [SegmentSpec(s["kind"], s["length"]) for s in d["segments"]],
            d["half_width"], d["d_obs"], d["bumps_per_segment"], d["seed"],
        )

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @staticmethod
    def load(path):
        with open(path) as fh:
            return WorldSpec.from_dict(json.load(fh))


def benchmark_spec(seed=0, d_obs=16):
    """Three identical corridors joined by distinct junction rooms, ~65 m."""
    segs = [
        SegmentSpec("junction_0", 5.0),
        SegmentSpec("corridor", 15.0),
        SegmentSpec("junction_1", 5.0),
        SegmentSpec("corridor", 15.0),
        SegmentSpec("junction_2", 5.0),
        SegmentSpec("corridor", 15.0),
        SegmentSpec("junction_3", 5.0),
    ]
    return WorldSpec(segs, seed=seed, d_obs=d_obs)


class World:
    def __init__(self, spec: WorldSpec):
        if not spec.segments:
            raise ValueError("world layout must contain at least one segment")
        lengths = {}
        for s in spec.segments:
            if s.length <= 0:
                raise ValueError("segment length must be positive")
            if s.kind in lengths and lengths[s.kind] != s.length:
                raise ValueError(f"segments of kind {s.kind!r} must share one length")
            lengths[s.kind] = s.length
        self.spec = spec
        self.starts = np.concatenate([[0.0], np.cumsum([s.length for s in spec.segments])])
        self.total_length = float(self.starts[-1])
        rng = np.random.default_rng(spec.seed)
        self.features = {}  # kind -> (d_obs, bumps) feature matrix
        for kind in sorted(lengths):
            self.features[kind] = rng.normal(size=(spec.d_obs, spec.bumps_per_segment))
        # pose-coupling directions, shared across kinds (segment-local, so aliasing-safe)
        self.f_y = 0.4 * rng.normal(size=spec.d_obs)
        self.f_cos = 0.4 * rng.normal(size=spec.d_obs)
        self.f_sin = 0.4 * rng.normal(size=spec.d_obs)
        # obstacles: the two bounding walls, as segments ((x0,y0),(x1,y1))
        w = spec.half_width
        self.obstacles = [
            ((0.0, -w), (self.total_length, -w)),
            ((0.0, w), (self.total_length, w)),
        ]

    @property
    def repetition_count(self):
        counts = {}
        for s in self.spec.segments:
            counts[s.kind] = counts.get(s.kind, 0) + 1
        return max(counts.values())

    def contains(self, pose: Pose2D):
        return 0.0 <= pose.x <= self.total_length and abs(pose.y) <= self.spec.half_width

    def segment_at(self, x):
        idx = int(np.searchsorted(self.starts, x, side="right")) - 1
        idx = min(max(idx, 0), len(self.spec.segments) - 1)
        return idx, self.spec.segments[idx], float(self.starts[idx])

    def base_descriptor(self, pose: Pose2D):
        """Noise-free descriptor; a smooth function of the segment-local pose."""
        if not self.contains(pose):
            raise ValueError(f"pose ({pose.x:.2f}, {pose.y:.2f}) outside world bounds")
        _, seg, x0 = self.segment_at(pose.x)
        u = pose.x - x0
        centers = np.linspace(0.0, seg.length, self.spec.bumps_per_segment)
        sigma = seg.length / self.spec.bumps_per_segment
        bumps = np.exp(-((u - centers) / sigma) ** 2)
        th = math.radians(pose.theta)
        return (self.features[seg.kind] @ bumps
                + self.f_y * pose.y
                + self.f_cos * math.cos(th)
                + self.f_sin * math.sin(th))


def generate_world(spec: WorldSpec) -> World:
    return World(spec)


@dataclass
class ObservationModel:
    d_obs: int
    noise_sigma: float = 0.0
    shift_scale: np.ndarray | None = None
    shift_bias: np.ndarray | None = None
    shift_extra_sigma: float = 0.0

    @staticmethod
    def create(d_obs, noise_sigma=0.0, shift_seed=0, extra_sigma=0.0):
        rng = np.random.default_rng(shift_seed)
        scale = 1.0 + rng.uniform(-0.35, 0.35, size=d_obs)
        bias = rng.uniform(-0.4, 0.4, size=d_obs)
        return ObservationModel(d_obs, noise_sigma, scale, bias, extra_sigma)


def render_observation(world: World, pose: Pose2D, model: ObservationModel,
                       domain="sim", rng=None):
    """Descriptor for a pose; real_like applies the fixed affine domain shift."""
    if model.d_obs != world.spec.d_obs:
        raise ValueError("observation model dimension does not match world")
    desc = world.base_descriptor(pose)
    if model.noise_sigma > 0 and rng is not None:
        desc = desc + model.noise_sigma * rng.normal(size=model.d_obs)
    if domain == "real_like":
        scale = model.shift_scale if model.shift_scale is not None else np.ones(model.d_obs)
        bias = model.shift_bias if model.shift_bias is not None else np.zeros(model.d_obs)
        desc = scale * desc + bias
        if model.shift_extra_sigma > 0 and rng is not None:
            desc = desc + model.shift_extra_sigma * rng.normal(size=model.d_obs)
    elif domain != "sim":
        raise ValueError(f"unknown domain {domain!r}")
    return desc


def generate_trajectory(world: World, start_x, goal_x, deviation_amplitude,
                        seed, step=0.5):
    """Waypoint-following path along the corridor with seeded perturbation.

    Lateral offset stays within [0.7, 1.0] * amplitude in magnitude (fixed
    random sign), heading wiggle scales with the amplitude; the result is
    clamped inside the walls and therefore collision-free by construction.
    """
    margin = 0.05
    if abs(start_x) > world.total_length or not 0 <= start_x <= world.total_length:
        raise ValueError("start outside free space")
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


def render_trajectory(world, poses, model, domain="sim", seed=0):
    rng = np.random.default_rng(seed)
    return np.stack([render_observation(world, p, model, domain, rng) for p in poses])


def classify_deviation(pose: Pose2D, topo, omega_m: float) -> str:
    """Band of the pose metric to the nearest map node."""
    if not topo.has_poses:
        raise ValueError("classify_deviation requires a map with poses")
    d = min(pose_distance(pose, node_pose, omega_m) for node_pose in topo.poses)
    if d <= 1e-6:
        return NOT_DEVIATED
    if d <= 1.0:
        return DEVIATED_LE_1
    return DEVIATED_1_TO_2


def segment_intersects(p0, p1, q0, q1):
    """True when segment p0-p1 crosses segment q0-q1 (2-D, inclusive)."""
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    d1 = orient(q0, q1, p0)
    d2 = orient(q0, q1, p1)
    d3 = orient(p0, p1, q0)
    d4 = orient(p0, p1, q1)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True
    def on_seg(a, b, c):
        return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))
    for d, a, b, c in ((d1, q0, q1, p0), (d2, q0, q1, p1),
                       (d3, p0, p1, q0), (d4, p0, p1, q1)):
        if d == 0 and on_seg(a, b, c):
            return True
    return False
