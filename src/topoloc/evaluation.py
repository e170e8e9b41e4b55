"""Localization metrics (AC, AC*, PE, ME) and baseline localizers.

A localizer here is anything with start(map) / step(observation, gt_pose)
returning a node id; gt_pose is only consumed by the pose oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import localizer as L
from .tensor import memory_scope
from .topo_graph import TopoMap, UNREACHABLE, nearest_node, pose_distance


@dataclass
class EvalRow:
    method: str
    category: str
    ac: float
    ac_star: float
    pe: float | None  # absent for pose-less maps
    me: float


def baseline_nearest_descriptor(observation, topo: TopoMap) -> int:
    """Node with the smallest squared descriptor distance; ties to lowest index."""
    obs = np.asarray(observation, dtype=np.float64)
    if obs.shape != (topo.descriptors.shape[1],):
        raise ValueError("observation dimension does not match map descriptors")
    d = np.sum((topo.descriptors - obs) ** 2, axis=1)
    return int(np.argmin(d))


class NearestDescriptorLocalizer:
    name = "nearest"

    def start(self, topo):
        self.topo = topo

    def step(self, observation, gt_pose=None):
        return baseline_nearest_descriptor(observation, self.topo)


class OracleLocalizer:
    """Ground-truth pose metric; validates harnesses independently of learning."""
    name = "oracle"

    def __init__(self, omega_m):
        self.omega_m = omega_m

    def start(self, topo):
        self.topo = topo

    def step(self, observation, gt_pose=None):
        if gt_pose is None:
            raise ValueError("oracle localizer needs the ground-truth pose")
        return nearest_node(self.topo, gt_pose, self.omega_m)


class ModelLocalizer:
    """Recurrent wrapper around a trained Localizer (evaluation mode)."""

    def __init__(self, model: L.Localizer, name=None):
        self.model = model.eval()
        self.name = name or model.cfg.variant

    def start(self, topo):
        self.topo, self.ctx = topo, None  # the old context is freed before the new is made
        self.ctx = L.make_context(self.model, topo)
        self.state = L.reset_state(topo.n, self.model.cfg.d_h)

    def step(self, observation, gt_pose=None):
        _, pred, self.state = L.localize_step(
            self.model, self.state, observation, self.topo, self.ctx)
        return pred


def eval_run(localizer, observations, topo: TopoMap, targets, poses=None,
             omega_m=0.025, method=None, category="") -> EvalRow:
    """Run one trajectory and score AC / AC* / PE / ME against targets."""
    observations = np.asarray(observations, dtype=np.float64)
    if observations.shape[0] != len(targets):
        raise ValueError("observations and targets differ in length")
    if poses is not None and len(poses) != len(targets):
        raise ValueError("poses and targets differ in length")
    if len(targets) == 0:
        raise ValueError("eval_run needs a non-empty trajectory")
    localizer.start(topo)
    preds = []
    with memory_scope():  # a step frees what the next allocates again
        for t in range(observations.shape[0]):
            gt_pose = poses[t] if poses is not None else None
            preds.append(localizer.step(observations[t], gt_pose))
    hits, near, hops, pes = 0, 0, [], []
    for t, (pred, y) in enumerate(zip(preds, targets)):
        if pred == y:
            hits += 1
        d = topo.edge_distance(pred, y)
        if d != UNREACHABLE:
            hops.append(d)
            if d <= 1:
                near += 1
        if poses is not None and topo.has_poses:
            pes.append(pose_distance(poses[t], topo.poses[pred], omega_m))
    n = len(preds)
    return EvalRow(
        method=method or getattr(localizer, "name", "unknown"),
        category=category,
        ac=hits / n,
        ac_star=near / n,
        pe=float(np.mean(pes)) if pes else None,
        me=float(np.mean(hops)) if hops else 0.0,
    )


def write_report(path, rows, meta=""):
    """CSV: method, category, AC, ACstar, PE, ME (PE blank when absent)."""
    with open(path, "w") as fh:
        if meta:
            fh.write(f"# {meta}\n")
        fh.write("method,category,AC,ACstar,PE,ME\n")
        for r in rows:
            pe = "" if r.pe is None else repr(r.pe)
            fh.write(f"{r.method},{r.category},{r.ac!r},{r.ac_star!r},{pe},{r.me!r}\n")


def format_table(rows):
    lines = [f"{'method':<14} {'category':<18} {'AC':>6} {'AC*':>6} {'PE':>8} {'ME':>7}"]
    for r in rows:
        pe = "   -" if r.pe is None else f"{r.pe:8.3f}"
        lines.append(f"{r.method:<14} {r.category:<18} {r.ac:6.3f} {r.ac_star:6.3f} "
                     f"{pe:>8} {r.me:7.3f}")
    return "\n".join(lines)
