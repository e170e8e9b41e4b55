"""Topological maps: construction from trajectories, pose metric, graph queries.

A map is a directed graph whose nodes carry an observation descriptor and,
for simulator-style maps, a planar pose.  The distance between poses is one
formula, ``sqrt(dx*dx + dy*dy) + omega_m * min(|r|, 360 - |r|)`` with
``r = fmod(dtheta, 360)``: `pose_distance` evaluates it on two poses, and the
pose-metric queries (`nearest_nodes`, and the loop closures of
`build_map_sim`) in one array pass over the node poses' (x, y, theta) rows,
which the map builds at construction.  Both perform the same IEEE operations
in the same order, so every answer equals that of a loop over
`pose_distance`.  Non-finite poses are rejected where they enter: as map
nodes, as a trajectory to build a map from, or as queries.

`TopoMap.bfs` is the one graph search: hop counts and the first-discovery
parents from a source, over directed edges or over edges in either
direction, over ascending successor and neighbor tuples built once per map.
Each search runs on first request and is cached on the map, so hop distances
(`edge_distance`), navigation plans and goal sampling share it.

`adjacency_matrix` builds the read-only undirected adjacency that `TopoMap.adjacency` caches.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

UNREACHABLE = -1

# Metric entries per array pass, which bounds its temporaries on a large map.
_BLOCK = 1 << 16


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

    def __init__(self, x, y, theta):
        self.x, self.y, self.theta = float(x), float(y), wrap_angle_deg(float(theta))

    def to_dict(self):
        return {"x": self.x, "y": self.y, "theta": self.theta}

    @staticmethod
    def from_dict(d):
        return Pose2D(d["x"], d["y"], d["theta"])


def pose_distance(a: Pose2D, b: Pose2D, omega_m: float) -> float:
    """Position distance plus omega_m times yaw difference wrapped to [0, 180]."""
    if omega_m <= 0:
        raise ValueError("omega_m must be positive")
    dx, dy = a.x - b.x, a.y - b.y
    return math.sqrt(dx * dx + dy * dy) + omega_m * abs(wrap_angle_deg(a.theta - b.theta))


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
        if self.descriptors.shape[0] == 0:
            raise ValueError("a map needs at least one node")
        if not np.all(np.isfinite(self.descriptors)):
            raise ValueError("descriptors contain non-finite values")
        self.n = n = self.descriptors.shape[0]
        self.poses = None if poses is None else list(poses)
        if poses is not None and len(self.poses) != n:
            raise ValueError("pose count must match node count")
        # the node poses as a (3, n) array of x, y and theta rows; None without poses
        self.pose_rows = (None if poses is None
                          else _finite_xyt(self.poses, "non-finite map pose {}"))
        self._pairs = _edge_array(edges, n)  # validated once, as one (m, 2) array
        self.edges = list(map(tuple, self._pairs.tolist()))
        self.config = config
        self._searches = {}

    @property
    def has_poses(self):
        return self.poses is not None

    def _check_id(self, i):
        if not 0 <= i < self.n:
            raise IndexError(f"node id {i} out of range for map with {self.n} nodes")

    @cached_property
    def _adjacent(self):
        """Per node, its neighbors, then per node its successors, as ascending tuples."""
        index = []
        for pairs in ({*self.edges, *((t, s) for s, t in self.edges)}, self.edges):
            nodes = [[] for _ in range(self.n)]
            for s, t in sorted(pairs):
                nodes[s].append(t)
            index.append(tuple(map(tuple, nodes)))
        return index

    def neighbors(self, i):
        """Nodes adjacent via any edge touching i, undirected, ascending."""
        self._check_id(i)
        return list(self._adjacent[0][i])

    def bfs(self, source, directed=False):
        """Breadth-first search from `source`: a (hops, parent) pair of tuples.

        Successors are expanded in ascending node order, along directed edges
        when `directed` and along edges in either direction otherwise.
        `parent[v]` is the node v was first reached from (None for the source
        and for unreached nodes); `hops[v]` is UNREACHABLE when v cannot be
        reached.  The result is computed on first request and cached.
        """
        key = (source, directed)
        if key not in self._searches:
            self._check_id(source)
            succ = self._adjacent[directed]
            hops = [UNREACHABLE] * self.n
            parent = [None] * self.n
            hops[source] = 0
            q = deque([source])
            while q:
                u = q.popleft()
                for v in succ[u]:
                    if hops[v] == UNREACHABLE:
                        hops[v] = hops[u] + 1
                        parent[v] = u
                        q.append(v)
            self._searches[key] = (tuple(hops), tuple(parent))
        return self._searches[key]

    def edge_distance(self, a, b):
        """Minimum undirected hop count; UNREACHABLE when no path exists."""
        self._check_id(b)
        return self.bfs(a)[0][b]

    @cached_property
    def adjacency(self):
        """The map's read-only `adjacency_matrix`, built on first use from its validated edges."""
        return _adjacency(self._pairs, self.n)

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
        if not nodes:
            raise ValueError("map has no nodes")
        descriptors = np.array([nd["descriptor"] for nd in nodes], dtype=np.float64)
        with_pose = sum(1 for nd in nodes if nd["pose"] is not None)
        if 0 < with_pose < len(nodes):
            raise ValueError(f"{with_pose} of {len(nodes)} nodes carry a pose; "
                             "a map needs a pose on every node or on none")
        poses = [Pose2D.from_dict(nd["pose"]) for nd in nodes] if with_pose else None
        config = MapConfig.from_dict(d["config"]) if d.get("config") else None
        return TopoMap(descriptors, poses, d["edges"], config)


def _edge_array(edges, n):
    """`edges` as an (m, 2) integer array of distinct node-id pairs on n nodes, no self-loops."""
    e = np.asarray(edges) if len(edges) else np.empty((0, 2), dtype=np.intp)
    if e.ndim != 2 or e.shape[1] != 2 or e.dtype.kind not in "iu":  # a float id would truncate
        raise ValueError(f"edges must be pairs of integer node ids, not {e.dtype} {e.shape}")
    e = e.astype(np.intp, copy=False)
    repeated = np.ones(len(e), dtype=bool)
    repeated[np.unique(e[:, 0] * n + e[:, 1], return_index=True)[1]] = False
    for bad, message in (
            (((e < 0) | (e >= n)).any(axis=1), "edge ({}, {}) references an invalid node"),
            (e[:, 0] == e[:, 1], "self-loop on node {}"), (repeated, "duplicate edge ({}, {})")):
        if bad.any():
            raise ValueError(message.format(*e[bad.argmax()]))
    return e


def adjacency_matrix(edges, n):
    """The read-only (n, n) undirected adjacency of `_edge_array` edges: 1 at (s, t) and (t, s)."""
    return _adjacency(_edge_array(edges, n), n)


def _adjacency(e, n):
    """`adjacency_matrix` of an already validated (m, 2) edge array."""
    a = np.zeros((n, n))
    a[e[:, 0], e[:, 1]] = a[e[:, 1], e[:, 0]] = 1.0
    a.flags.writeable = False
    return a


def build_map_sim(trajectory, cfg: MapConfig) -> TopoMap:
    """Node-creation rule over a pose-tagged trajectory, plus loop closure.

    A new node is created when the pose metric from the previously created
    node exceeds alpha_th; loop-closure edges connect the new node to every
    earlier non-adjacent node within alpha_th of it.  Edges are listed per
    node in creation order: its chain edge, then its closures by ascending id.
    """
    if not trajectory:
        raise ValueError("trajectory must be non-empty")
    xyt = _finite_xyt([p for _, p in trajectory], "non-finite trajectory pose {}")
    taken = [0]
    for k in range(1, len(trajectory)):
        if pose_distance(trajectory[k][1], trajectory[taken[-1]][1], cfg.omega_m) > cfg.alpha_th:
            taken.append(k)
    descriptors = np.array([trajectory[k][0] for k in taken], dtype=np.float64)
    poses = [trajectory[k][1] for k in taken]
    xyt = xyt[:, taken]
    closures = [[] for _ in poses]
    for first, d in _metric_blocks(xyt, xyt, cfg.omega_m):
        rows = np.arange(first, first + d.shape[0])[:, None]
        i, j = np.nonzero((d <= cfg.alpha_th) & (np.arange(len(poses)) < rows - 1))
        for node, earlier in zip((i + first).tolist(), j.tolist()):
            closures[node].append(earlier)
    edges = []
    for i in range(1, len(poses)):
        edges.append((i - 1, i))
        edges += [(i, j) for j in closures[i]]
    return TopoMap(descriptors, poses, edges, cfg)


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
    return nearest_nodes(topo, [query], omega_m)[0]


def nearest_nodes(topo: TopoMap, queries, omega_m: float) -> list:
    """`nearest_node` of every query pose, from one array pass over the map's poses."""
    if not topo.has_poses:
        raise ValueError("nearest_node requires a map with poses")
    if omega_m <= 0:
        raise ValueError("omega_m must be positive")
    queries = list(queries)
    xyt = _finite_xyt(queries, "query pose {} is not finite")
    # argmin takes each query's first minimum: the lowest node among its ties
    return [node for _, d in _metric_blocks(xyt, topo.pose_rows, omega_m)
            for node in d.argmin(axis=1).tolist()]


def _as_xyt(poses):
    """(3, n) array of the poses' x, y and theta rows."""
    return np.array([[p.x for p in poses], [p.y for p in poses], [p.theta for p in poses]],
                    dtype=np.float64)


def _finite_xyt(poses, message):
    """`_as_xyt` of the poses; ValueError with `message` formatted with the first non-finite one."""
    xyt = _as_xyt(poses)
    finite = np.isfinite(xyt).all(axis=0)
    if not finite.all():
        raise ValueError(message.format(poses[int(finite.argmin())]))
    return xyt


def _metric(a, b, omega_m):
    """`pose_distance` of the columns of `_as_xyt` arrays a and b, elementwise, bit for bit."""
    dx, dy = a[0] - b[0], a[1] - b[1]
    # |wrap_angle_deg(d)| of d = fmod(.., 360) is |d| or 360 - |d|, whichever is smaller
    dth = np.abs(np.fmod(a[2] - b[2], 360.0))
    return np.sqrt(dx * dx + dy * dy) + omega_m * np.minimum(dth, 360.0 - dth)


def _metric_blocks(a, b, omega_m):
    """Yield (first column, block) of `_metric` from each pose of `a` to all of `b`.

    a and b are `_as_xyt` arrays; a block is (poses of a, poses of b).
    """
    step = max(1, _BLOCK // b.shape[1])
    for first in range(0, a.shape[1], step):
        yield first, _metric(a[:, first:first + step, None], b, omega_m)
