"""Closed-loop navigation: localize, plan on the map, servo to subgoals.

Each trial loops {render observation -> localize -> plan/subgoal -> control
step} until arrival, collision, or timeout.  Planning follows the parents
of the map's cached minimum-hop search over directed edges
(`TopoMap.bfs`), so replanning from a node already searched from costs no
new search.  A trial replans at every step and has arrived within
``ARRIVAL_RADIUS`` of the goal pose; control is a proportional
heading/distance servo with the default ``ControlGains``, capped velocities
and segment-vs-wall collision checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .simworld import World, render_observation, segment_intersects
from .tensor import memory_scope
from .topo_graph import UNREACHABLE, Pose2D, TopoMap, nearest_node, wrap_angle_deg

SUCCESS = "success"
COLLISION = "collision"
TIMEOUT = "timeout"
ARRIVAL_RADIUS = 0.5  # metres from the goal pose that count as arrival


@dataclass
class ControlGains:
    k_lin: float = 0.8
    k_ang: float = 0.6
    v_max: float = 0.4
    turn_max_deg: float = 25.0


@dataclass
class NavConfig:
    goal_node: int = 0
    time_limit_steps: int = 400
    omega_m: float = 0.025


@dataclass
class TrialOutcome:
    status: str
    visited: list          # Pose2D per step
    coverage: float
    steps: int
    log: list = field(default_factory=list)  # (step, node, subgoal) for replay


def plan_dijkstra(topo: TopoMap, start: int, goal: int):
    """Minimum-hop directed path; neighbors expanded in ascending order."""
    hops, parent = topo.bfs(start, directed=True)
    topo._check_id(goal)
    if hops[goal] == UNREACHABLE:
        raise ValueError(f"goal {goal} unreachable from {start}")
    path = [goal]
    while path[-1] != start:
        path.append(parent[path[-1]])
    return path[::-1]


def _plan_or_goal(topo: TopoMap, start: int, goal: int):
    """`plan_dijkstra`'s path, or the goal alone when it is unreachable from start."""
    try:
        return plan_dijkstra(topo, start, goal)
    except ValueError:
        return [goal]


def next_subgoal(plan) -> int:
    """The entry after the plan's first, which is where the robot stands; a
    one-entry plan (the goal, or a goal-only fallback) is its own subgoal."""
    if not plan:
        raise ValueError("empty plan")
    return plan[min(1, len(plan) - 1)]


def control_step(world: World, pose: Pose2D, subgoal: Pose2D, gains: ControlGains):
    """Proportional servo toward the subgoal; returns (new pose, collided)."""
    dx, dy = subgoal.x - pose.x, subgoal.y - pose.y
    dist = math.hypot(dx, dy)
    if dist < 1e-9:
        return Pose2D(pose.x, pose.y, pose.theta), False
    desired = math.degrees(math.atan2(dy, dx))
    err = wrap_angle_deg(desired - pose.theta)
    turn = max(-gains.turn_max_deg, min(gains.turn_max_deg, gains.k_ang * err))
    theta = wrap_angle_deg(pose.theta + turn)
    remaining = wrap_angle_deg(desired - theta)
    if abs(remaining) > 60.0:
        v = 0.0  # rotate in place until roughly facing the subgoal
    else:
        v = min(gains.v_max, gains.k_lin * dist) * math.cos(math.radians(remaining))
        v = max(v, 0.0)
    nx, ny = pose.x + v * math.cos(math.radians(theta)), pose.y + v * math.sin(math.radians(theta))
    p0, p1 = (pose.x, pose.y), (nx, ny)
    for q0, q1 in world.obstacles:
        if segment_intersects(p0, p1, q0, q1):
            contact = _contact_point(p0, p1, q0, q1)
            return Pose2D(contact[0], contact[1], theta), True
    return Pose2D(nx, ny, theta), False


def _contact_point(p0, p1, q0, q1):
    d = ((p1[0] - p0[0]) * (q1[1] - q0[1]) - (p1[1] - p0[1]) * (q1[0] - q0[0]))
    if abs(d) < 1e-12:
        return p0
    t = ((q0[0] - p0[0]) * (q1[1] - q0[1]) - (q0[1] - p0[1]) * (q1[0] - q0[0])) / d
    t = max(0.0, min(1.0, t))
    return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))


def run_trial(world: World, topo: TopoMap, localizer, obs_model, start: Pose2D,
              cfg: NavConfig, seed=0) -> TrialOutcome:
    """Drive from `start` toward the pose of `cfg.goal_node`; the map needs poses."""
    if not topo.has_poses:
        raise ValueError("navigation needs a map with poses")
    rng = np.random.default_rng(seed)
    goal_pose = topo.poses[cfg.goal_node]
    localizer.start(topo)
    pose = start
    visited = [pose]
    log = []
    start_node = nearest_node(topo, start, cfg.omega_m)
    nominal = _plan_or_goal(topo, start_node, cfg.goal_node)
    gains = ControlGains()
    status = TIMEOUT
    with memory_scope():  # a step frees what the next allocates again
        for step in range(cfg.time_limit_steps):
            if math.hypot(pose.x - goal_pose.x, pose.y - goal_pose.y) <= ARRIVAL_RADIUS:
                status = SUCCESS
                break
            obs = render_observation(world, pose, obs_model, "sim", rng)
            node = localizer.step(obs, pose)
            subgoal = next_subgoal(_plan_or_goal(topo, node, cfg.goal_node))
            log.append((step, node, subgoal))
            pose, collided = control_step(world, pose, topo.poses[subgoal], gains)
            visited.append(pose)
            if collided:
                status = COLLISION
                break
        else:
            if math.hypot(pose.x - goal_pose.x, pose.y - goal_pose.y) <= ARRIVAL_RADIUS:
                status = SUCCESS
    coverage = _coverage(visited, [topo.poses[i] for i in nominal], ARRIVAL_RADIUS)
    return TrialOutcome(status, visited, coverage, len(visited) - 1, log)


def _coverage(visited, waypoints, radius):
    """Fraction of nominal waypoints the robot came within `radius` of."""
    if not waypoints:
        return 1.0
    hit = 0
    for w in waypoints:
        if any(math.hypot(p.x - w.x, p.y - w.y) <= radius for p in visited):
            hit += 1
    return hit / len(waypoints)


def nav_metrics(outcomes):
    """(SR, CR, TR, CovR); the three rates always sum to 1."""
    if not outcomes:
        raise ValueError("no outcomes")
    n = len(outcomes)
    sr = sum(1 for o in outcomes if o.status == SUCCESS) / n
    cr = sum(1 for o in outcomes if o.status == COLLISION) / n
    tr = sum(1 for o in outcomes if o.status == TIMEOUT) / n
    cov = float(np.mean([o.coverage for o in outcomes]))
    return sr, cr, tr, cov


def write_trial_log(path, outcome: TrialOutcome, meta=""):
    with open(path, "w") as fh:
        if meta:
            fh.write(f"# {meta}\n")
        fh.write("step,x,y,theta,node,subgoal\n")
        nodes = {s: (n, g) for s, n, g in outcome.log}
        for i, p in enumerate(outcome.visited):
            n, g = nodes.get(i, ("", ""))
            fh.write(f"{i},{p.x!r},{p.y!r},{p.theta!r},{n},{g}\n")
