"""Per-layer timing measured from outside the program.

`Tracer` replaces public functions of the topoloc modules at the names their
callers look them up with timing wrappers, counts `Tensor` constructions and
collects garbage-collector pauses through `gc.callbacks`.  Nothing in
`src/topoloc` is edited; everything is restored by `uninstall()`.

Spans nest: a span's self time is its duration minus the time of the traced
spans that ran inside it.  Collector pauses are also inside whichever span was
active when they happened; they are reported on their own as well.
"""

from __future__ import annotations

import gc
from time import perf_counter

import topoloc.evaluation as E
import topoloc.localizer as L
import topoloc.navigation as N
import topoloc.trainer as TR
from topoloc.tensor import Adam, Tensor
from topoloc.topo_graph import TopoMap

# (owner looked up by the caller, attribute, span name).  Module functions are
# wrapped in the module whose globals the caller reads them from: trainer
# imports sample_submap by name, navigation imports render_observation by
# name, the localizer calls its own stages through its module globals, and
# methods are class attributes.
TARGETS = (
    (Tensor, "backward", "tensor.backward"),
    (Adam, "step", "tensor.adam_step"),
    (L, "localize_step", "localizer.localize_step"),
    (L, "make_context", "localizer.make_context"),
    (L, "encode", "localizer.encode"),
    (L, "pair_features", "localizer.pair_features"),
    (L, "gclstm_step", "localizer.gclstm_step"),
    (L, "skip_path", "localizer.skip_path"),
    (L, "identify_logits", "localizer.identify_logits"),
    (TR, "sample_submap", "map_sampler.sample_submap"),
    (TR, "train", "trainer.train"),
    (TR, "sequence_loss", "trainer.sequence_loss"),
    (TR, "validation_loss", "trainer.validation_loss"),
    (E, "eval_run", "evaluation.eval_run"),
    (TopoMap, "edge_distance", "topo_graph.edge_distance"),
    (N, "run_trial", "navigation.run_trial"),
    (N, "plan_dijkstra", "navigation.plan_dijkstra"),
    (N, "next_subgoal", "navigation.next_subgoal"),
    (N, "control_step", "navigation.control_step"),
    (N, "render_observation", "simworld.render_observation"),
)

# The spans a workload enters the program through; their self time is the
# part of an op no named layer accounts for.
ENTRY_SPANS = ("trainer.train", "evaluation.eval_run", "navigation.run_trial")


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "raised")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.raised = 0


class Tracer:
    """Accumulates span statistics over any number of install/uninstall cycles."""

    def __init__(self):
        self.stats = {name: SpanStats() for _, _, name in TARGETS}
        self.tensors = 0
        self.gc_pause = 0.0
        self.gc_gen2 = 0
        self._stack = []
        self._restore = []
        self._gc_start = None

    # -- install / uninstall -------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in TARGETS:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name))
        self._patch(Tensor, "__init__", self._count_tensors(Tensor.__init__))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name):
        stack = self._stack
        st = self.stats[name]

        def traced(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                st.raised += 1
                raise
            finally:
                dur = perf_counter() - frame[0]
                stack.pop()
                st.calls += 1
                st.total += dur
                st.self_time += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return traced

    def _count_tensors(self, init):
        tracer = self

        def counted_init(obj, *args, **kwargs):
            tracer.tensors += 1
            init(obj, *args, **kwargs)

        return counted_init

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.gc_pause += perf_counter() - self._gc_start
            self._gc_start = None
            if info["generation"] == 2:
                self.gc_gen2 += 1

    # -- report --------------------------------------------------------------

    def layer_metrics(self, ops, op_seconds, untraced_s_per_op, submap_nodes):
        """Per-layer metrics for `ops` traced ops that took `op_seconds` in all.

        `submap_nodes` is the node count of all submaps sampled meanwhile.
        """
        s = self.stats

        def per_op(seconds):
            return 1e3 * seconds / ops

        def per_call(st, seconds):
            return 1e3 * seconds / st.calls if st.calls else 0.0

        named_self = sum(st.self_time for name, st in s.items() if name not in ENTRY_SPANS)
        plans = s["navigation.plan_dijkstra"]
        samples = s["map_sampler.sample_submap"]
        out = {
            "tensor.backward.ms_per_op": (per_op(s["tensor.backward"].total), "ms"),
            "tensor.adam_step.ms_per_op": (per_op(s["tensor.adam_step"].total), "ms"),
            "tensor.tensors_per_op": (self.tensors / ops, "count"),
            "tensor.gc_pause.ms_per_op": (per_op(self.gc_pause), "ms"),
            "tensor.gc_gen2.count": (self.gc_gen2, "count"),
        }
        st = s["localizer.localize_step"]
        out["localizer.localize_step.ms"] = (per_call(st, st.total), "ms")
        out["localizer.localize_step.self_ms"] = (per_call(st, st.self_time), "ms")
        for stage in ("encode", "pair_features", "gclstm_step", "skip_path",
                      "identify_logits", "make_context"):
            st = s[f"localizer.{stage}"]
            out[f"localizer.{stage}.ms"] = (per_call(st, st.total), "ms")
        out.update({
            "map_sampler.sample_submap.ms_per_op": (per_op(samples.total), "ms"),
            "map_sampler.submap_nodes.mean": (
                submap_nodes / samples.calls if samples.calls else 0.0, "count"),
            "trainer.sequence_loss.self_ms_per_op": (
                per_op(s["trainer.sequence_loss"].self_time), "ms"),
            "trainer.validation_loss.ms_per_op": (
                per_op(s["trainer.validation_loss"].total), "ms"),
            "evaluation.eval_run.self_ms_per_op": (
                per_op(s["evaluation.eval_run"].self_time), "ms"),
            "topo_graph.edge_distance.calls_per_op": (
                s["topo_graph.edge_distance"].calls / ops, "count"),
            "topo_graph.edge_distance.ms_per_op": (
                per_op(s["topo_graph.edge_distance"].total), "ms"),
            "navigation.plan_dijkstra.ms_per_op": (per_op(plans.total), "ms"),
            "navigation.next_subgoal.ms_per_op": (
                per_op(s["navigation.next_subgoal"].total), "ms"),
            "navigation.control_step.ms_per_op": (
                per_op(s["navigation.control_step"].total), "ms"),
            "navigation.plan_fallback_ratio": (
                plans.raised / plans.calls if plans.calls else 0.0, "ratio"),
            "simworld.render_observation.ms_per_op": (
                per_op(s["simworld.render_observation"].total), "ms"),
            "trace.unattributed_ms_per_op": (per_op(op_seconds - named_self), "ms"),
            "trace.ops": (ops, "count"),
            "trace.overhead_ratio": (op_seconds / ops / untraced_s_per_op, "ratio"),
        })
        return out
