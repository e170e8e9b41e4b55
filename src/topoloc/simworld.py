"""Synthetic corridor world with controllable perceptual aliasing.

The layout is a straight run of segments (junction rooms and corridors)
along the x axis, bounded by two walls.  Observation descriptors depend
only on the segment *kind* and the pose in segment-local coordinates, so
repeated corridor segments render identical descriptors at corresponding
poses: aliasing by construction.  A "real_like" domain applies a fixed
affine shift plus extra noise to emulate a sim-to-real gap.

Rendering is one array pass over all poses of a call (one `exp` over
poses x bumps, one batched product of each pose's segment features with its
bumps, one noise draw consumed in per-pose order), with each segment's
features and bump centers stacked once per world; `render_observation` is
its one-pose case, and every value equals that of rendering pose by pose.
Trajectories are array passes over their steps in a per-step loop's order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .topo_graph import Pose2D

WALL_MARGIN = 0.05  # how far `generate_trajectory` keeps a route off the walls


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
        self.features = {kind: rng.normal(size=(spec.d_obs, spec.bumps_per_segment))
                         for kind in sorted(lengths)}  # kind -> (d_obs, bumps) features
        # pose-coupling directions, shared across kinds (segment-local, so aliasing-safe)
        self.f_y = 0.4 * rng.normal(size=spec.d_obs)
        self.f_cos = 0.4 * rng.normal(size=spec.d_obs)
        self.f_sin = 0.4 * rng.normal(size=spec.d_obs)
        # per segment: its kind's features, bump centers (segment-local) and bump width
        self._inner_starts = self.starts[1:-1]
        self._seg_features = np.stack([self.features[s.kind] for s in spec.segments])
        centers = {n: np.linspace(0.0, n, spec.bumps_per_segment) for n in set(lengths.values())}
        self._bump_centers = np.stack([centers[s.length] for s in spec.segments])
        self._bump_width = np.array([s.length / spec.bumps_per_segment for s in spec.segments])
        self._f_pose = np.stack([self.f_y, self.f_cos, self.f_sin])[:, None]
        # obstacles: the two bounding walls, as segments ((x0,y0),(x1,y1))
        w = spec.half_width
        self._bounds = np.array([[0.0, -w], [self.total_length, w]])[:, :, None]  # x, y
        self.obstacles = [
            ((0.0, -w), (self.total_length, -w)),
            ((0.0, w), (self.total_length, w)),
        ]

    @property
    def repetition_count(self):
        return max(Counter(s.kind for s in self.spec.segments).values())

    def contains(self, pose: Pose2D):
        return 0.0 <= pose.x <= self.total_length and abs(pose.y) <= self.spec.half_width

    def segment_at(self, x):
        idx = int(np.searchsorted(self.starts, x, side="right")) - 1
        idx = min(max(idx, 0), len(self.spec.segments) - 1)
        return idx, self.spec.segments[idx], float(self.starts[idx])

    def base_descriptor(self, pose: Pose2D):
        """Noise-free descriptor; a smooth function of the segment-local pose."""
        return self.base_descriptors([pose])[0]

    def base_descriptors(self, poses):
        """Noise-free descriptors of a list of poses, one (d_obs,) row each."""
        rad = [math.radians(p.theta) for p in poses]
        cols = np.array([[p.x for p in poses], [p.y for p in poses],
                         list(map(math.cos, rad)), list(map(math.sin, rad))])
        inside = (self._bounds[0] <= cols[:2]) & (cols[:2] <= self._bounds[1])  # `contains`
        if not inside.all():
            pose = poses[int(inside.all(axis=0).argmin())]
            raise ValueError(f"pose ({pose.x:.2f}, {pose.y:.2f}) outside world bounds")
        x = cols[0]
        seg = self._inner_starts.searchsorted(x, "right")  # segment_at's index
        u = x - self.starts.take(seg)
        bumps = np.exp(-((u[:, None] - self._bump_centers.take(seg, axis=0))
                         / self._bump_width.take(seg)[:, None]) ** 2)
        # one (d_obs, bumps) @ (bumps, 1) product per pose, as a pose alone computes it
        out = np.matmul(self._seg_features.take(seg, axis=0), bumps[:, :, None])[:, :, 0]
        for term in cols[1:, :, None] * self._f_pose:  # the y, cos and sin coupling terms
            out += term
        return out


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
    return _render(world, [pose], model, domain, rng)[0]


def _render(world, poses, model, domain, rng):
    """Descriptors of poses, (len(poses), d_obs); noise is drawn from `rng` pose by pose.

    A pose takes its sensor noise draw, then (real_like) its extra-noise draw, so
    the rows equal `render_observation` called on each pose in turn with `rng`.
    """
    if model.d_obs != world.spec.d_obs:
        raise ValueError("observation model dimension does not match world")
    if domain not in ("sim", "real_like"):
        raise ValueError(f"unknown domain {domain!r}")
    desc = world.base_descriptors(poses)
    noisy = rng is not None and model.noise_sigma > 0
    extra = rng is not None and domain == "real_like" and model.shift_extra_sigma > 0
    if noisy or extra:
        draws = rng.normal(size=(len(poses), noisy + extra, model.d_obs))
    if noisy:
        desc += model.noise_sigma * draws[:, 0]
    if domain == "real_like":
        scale = model.shift_scale if model.shift_scale is not None else np.ones(model.d_obs)
        bias = model.shift_bias if model.shift_bias is not None else np.zeros(model.d_obs)
        desc = scale * desc + bias
        if extra:
            desc += model.shift_extra_sigma * draws[:, -1]
    return desc


def generate_trajectory(world: World, start_x, goal_x, deviation_amplitude,
                        seed, step=0.5):
    """Waypoint-following path along the corridor with seeded perturbation.

    Lateral offset stays within [0.7, 1.0] * amplitude in magnitude (fixed
    random sign), heading wiggle scales with the amplitude; the result is
    clamped inside the walls and therefore collision-free by construction.
    """
    if not 0 <= start_x <= world.total_length:
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
    # every step at once, each expression in the order of the per-step formula
    x = start_x + direction * np.minimum(np.arange(count + 1) * step, span)
    arg = 2 * math.pi * x / period
    profile = 0.85 + 0.15 * np.array(list(map(math.sin, (arg + phase).tolist())))
    wall = world.spec.half_width - WALL_MARGIN
    y = np.minimum(np.maximum(sign * deviation_amplitude * profile, -wall), wall)
    dth = 2.0 * deviation_amplitude * np.array(list(map(math.sin, (arg + phase2).tolist())))
    return list(map(Pose2D, x.tolist(), y.tolist(), (heading + dth).tolist()))


def render_trajectory(world, poses, model, domain="sim", seed=0):
    """Descriptors of all poses, (len(poses), d_obs), with noise drawn from `seed`."""
    return _render(world, poses, model, domain, np.random.default_rng(seed))


def deviation_band(amplitude, half_width=math.inf) -> str:
    """Category of `generate_trajectory` routes of `amplitude` (m) that its walls do not clamp."""
    most = min(2.0, half_width - WALL_MARGIN)  # the paper's bands end at 2 m
    if not 0 <= amplitude <= most:
        raise ValueError(f"deviation amplitude must be between 0 and {most:g} m, got {amplitude!r}")
    return ("not_deviated" if amplitude <= 1e-6 else
            "deviated_le_1" if amplitude <= 1.0 else "deviated_1_to_2")


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
