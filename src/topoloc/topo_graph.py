"""Topological maps: construction from trajectories, pose metric, graph queries.

A map is a directed graph whose nodes carry an observation descriptor and,
for simulator-style maps, a planar pose.  Distance between poses combines
Euclidean position with yaw difference weighted by omega_m.

`TopoMap.bfs` is the one graph search: hop counts and the first-discovery
parents from a source, over directed edges or over edges in either
direction.  Each search runs on first request and is cached on the map, so
hop distances (`edge_distance`), navigation plans and goal sampling share it.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

UNREACHABLE = -1


def wrap_angle_deg(a):
    """Normalize an angle to (-180, 180]."""
    a = math.fmod(a, 360.0)
    if a <= -180.0:
        a += 360.0
    elif a > 180.0:
        a -= 360.0
    return a


@dataclass
class Pose2D:
    x: float
    y: float
    theta: float  # yaw, degrees, normalized to (-180, 180]

    def __post_init__(self):
        self.x = float(self.x)
        self.y = float(self.y)
        self.theta = wrap_angle_deg(float(self.theta))

    def to_dict(self):
        return {"x": self.x, "y": self.y, "theta": self.theta}

    @staticmethod
    def from_dict(d):
        return Pose2D(d["x"], d["y"], d["theta"])


def pose_distance(a: Pose2D, b: Pose2D, omega_m: float) -> float:
    """Position distance plus omega_m times yaw difference wrapped to [0, 180]."""
    if omega_m <= 0:
        raise ValueError("omega_m must be positive")
    dtheta = abs(wrap_angle_deg(a.theta - b.theta))
    return math.hypot(a.x - b.x, a.y - b.y) + omega_m * dtheta


@dataclass
class MapConfig:
    omega_m: float = 0.025
    alpha_th: float = 1.0
    m_stride: int = 7

    def __post_init__(self):
        if self.omega_m <= 0:
            raise ValueError("omega_m must be positive")
        if self.alpha_th <= 0:
            raise ValueError("alpha_th must be positive")
        if self.m_stride < 1:
            raise ValueError("m_stride must be >= 1")

    def to_dict(self):
        return {"omega_m": self.omega_m, "alpha_th": self.alpha_th, "m_stride": self.m_stride}

    @staticmethod
    def from_dict(d):
        return MapConfig(d["omega_m"], d["alpha_th"], d["m_stride"])


class TopoMap:
    """Immutable directed graph of descriptor(+pose) nodes."""

    def __init__(self, descriptors, poses, edges, config=None):
        self.descriptors = np.asarray(descriptors, dtype=np.float64)
        if self.descriptors.ndim != 2:
            raise ValueError("descriptors must be an (n, d) array")
        if not np.all(np.isfinite(self.descriptors)):
            raise ValueError("descriptors contain non-finite values")
        n = self.descriptors.shape[0]
        if poses is not None:
            poses = list(poses)
            if len(poses) != n:
                raise ValueError("pose count must match node count")
        self.poses = poses
        seen = set()
        for (s, t) in edges:
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError(f"edge ({s}, {t}) references an invalid node")
            if s == t:
                raise ValueError(f"self-loop on node {s}")
            if (s, t) in seen:
                raise ValueError(f"duplicate edge ({s}, {t})")
            seen.add((s, t))
        self.edges = [(int(s), int(t)) for s, t in edges]
        self.config = config
        self._adj = [set() for _ in range(n)]
        self._succ = [set() for _ in range(n)]
        for s, t in self.edges:
            self._succ[s].add(t)
            self._adj[s].add(t)
            self._adj[t].add(s)
        self._searches = {}

    @property
    def n(self):
        return self.descriptors.shape[0]

    @property
    def has_poses(self):
        return self.poses is not None

    def _check_id(self, i):
        if not 0 <= i < self.n:
            raise IndexError(f"node id {i} out of range for map with {self.n} nodes")

    def neighbors(self, i):
        """Nodes adjacent via any edge touching i, undirected, ascending."""
        self._check_id(i)
        return sorted(self._adj[i])

    def bfs(self, source, directed=False):
        """Breadth-first search from `source`: a (hops, parent) pair of tuples.

        Successors are expanded in ascending node order, along directed edges
        when `directed` and along edges in either direction otherwise.
        `parent[v]` is the node v was first reached from (None for the source
        and for unreached nodes); `hops[v]` is UNREACHABLE when v cannot be
        reached.  The result is computed on first request and cached.
        """
        self._check_id(source)
        key = (source, directed)
        if key not in self._searches:
            succ = self._succ if directed else self._adj
            hops = [UNREACHABLE] * self.n
            parent = [None] * self.n
            hops[source] = 0
            q = deque([source])
            while q:
                u = q.popleft()
                for v in sorted(succ[u]):
                    if hops[v] == UNREACHABLE:
                        hops[v] = hops[u] + 1
                        parent[v] = u
                        q.append(v)
            self._searches[key] = (tuple(hops), tuple(parent))
        return self._searches[key]

    def edge_distance(self, a, b):
        """Minimum undirected hop count; UNREACHABLE when no path exists."""
        self._check_id(a)
        self._check_id(b)
        return self.bfs(a)[0][b]

    def undirected_adjacency_matrix(self):
        a = np.zeros((self.n, self.n))
        for s, t in self.edges:
            a[s, t] = 1.0
            a[t, s] = 1.0
        return a

    # -- persistence ---------------------------------------------------------

    def to_dict(self):
        return {
            "nodes": [
                {
                    "descriptor": self.descriptors[i].tolist(),
                    "pose": self.poses[i].to_dict() if self.poses is not None else None,
                }
                for i in range(self.n)
            ],
            "edges": [[s, t] for s, t in self.edges],
            "config": self.config.to_dict() if self.config else None,
        }

    @staticmethod
    def from_dict(d):
        nodes = d["nodes"]
        descriptors = np.array([nd["descriptor"] for nd in nodes], dtype=np.float64)
        with_pose = sum(1 for nd in nodes if nd["pose"] is not None)
        if 0 < with_pose < len(nodes):
            raise ValueError(f"{with_pose} of {len(nodes)} nodes carry a pose; "
                             "a map needs a pose on every node or on none")
        poses = [Pose2D.from_dict(nd["pose"]) for nd in nodes] if with_pose else None
        config = MapConfig.from_dict(d["config"]) if d.get("config") else None
        return TopoMap(descriptors, poses, [tuple(e) for e in d["edges"]], config)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @staticmethod
    def load(path):
        with open(path) as fh:
            return TopoMap.from_dict(json.load(fh))


def build_map_sim(trajectory, cfg: MapConfig) -> TopoMap:
    """Node-creation rule over a pose-tagged trajectory, plus loop closure.

    A new node is created when the pose metric from the previously created
    node exceeds alpha_th; loop-closure edges connect the new node to every
    earlier non-adjacent node within alpha_th of it.
    """
    if not trajectory:
        raise ValueError("trajectory must be non-empty")
    descriptors = [np.asarray(trajectory[0][0], dtype=np.float64)]
    poses = [trajectory[0][1]]
    edges = []
    for desc, pose in trajectory[1:]:
        if pose_distance(pose, poses[-1], cfg.omega_m) > cfg.alpha_th:
            i = len(poses)
            descriptors.append(np.asarray(desc, dtype=np.float64))
            poses.append(pose)
            edges.append((i - 1, i))
            for j in range(i - 1):  # loop closure against nodes v_0 .. v_{i-2}
                if pose_distance(pose, poses[j], cfg.omega_m) <= cfg.alpha_th:
                    edges.append((i, j))
    return TopoMap(np.stack(descriptors), poses, edges, cfg)


def build_map_real(sequence, m_stride: int) -> TopoMap:
    """One node per m_stride descriptors, chain edges, no poses."""
    if len(sequence) == 0:
        raise ValueError("sequence must be non-empty")
    if m_stride < 1:
        raise ValueError("m_stride must be >= 1")
    descriptors = np.asarray(sequence, dtype=np.float64)[::m_stride]
    edges = [(i, i + 1) for i in range(descriptors.shape[0] - 1)]
    return TopoMap(descriptors, None, edges)


def nearest_node(topo: TopoMap, query: Pose2D, omega_m: float) -> int:
    """NodeId minimizing the pose metric; ties break to the smallest index."""
    if not topo.has_poses:
        raise ValueError("nearest_node requires a map with poses")
    best, best_d = 0, math.inf
    for i, pose in enumerate(topo.poses):
        d = pose_distance(query, pose, omega_m)
        if d < best_d:
            best, best_d = i, d
    return best
