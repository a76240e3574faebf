"""Per-layer tracing, installed from the benchmark's own files.

The tracer rebinds the names each caller in the program looks up to timing
and counting wrappers, and puts them back when it is removed.  Nothing in
the program changes.  The hottest names (guards, actions, level-floor and
specification checks) are only counted, since timing them would cost more
than they do.  Spans of the coarser calls are kept in memory with their
parent and written out when the run ends; the hot timed calls (the
diameter, adversary advice, the reference step) only add to totals.  A
span's self time is its duration minus the time of the spans inside it.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

# Every per-layer metric with its unit, in the order they are reported.
METRICS = {
    "graph.from_edges_s": "s",
    "graph.diameter_calls": "count",
    "graph.diameter_s": "s",
    "protocol.guard_evals": "count",
    "protocol.guard_hit_ratio": "ratio",
    "protocol.actions": "count",
    "protocol.step_s": "s",
    "adversary.advise_calls": "count",
    "adversary.advise_s": "s",
    "adversary.byz_writes": "count",
    "scheduler.run_s": "s",
    "scheduler.self_s": "s",
    "scheduler.steps": "count",
    "scheduler.activations": "count",
    "scheduler.trace_text_s": "s",
    "scheduler.parse_trace_s": "s",
    "scheduler.verify_replay_s": "s",
    "scheduler.trace_bytes": "bytes",
    "analysis.measure_s": "s",
    "analysis.floor_closure_s": "s",
    "analysis.segment_disruptions_s": "s",
    "analysis.containment_violations_s": "s",
    "analysis.counts_s": "s",
    "analysis.level_floor_evals": "count",
    "analysis.spec_evals": "count",
    "analysis.area_stable_calls": "count",
    "scenarios.replay_s": "s",
    "exhaustive.cases": "count",
    "exhaustive.runs": "count",
    "exhaustive.self_s": "s",
    "bench.trace_overhead": "ratio",
}

# Span name -> per-layer metric that sums its time ("self" for self time).
_TIMES = {
    "graph.from_edges": ("graph.from_edges_s",),
    "graph.diameter": ("graph.diameter_s",),
    "protocol.step": ("protocol.step_s",),
    "adversary.advise": ("adversary.advise_s",),
    "scheduler.run": ("scheduler.run_s", "self:scheduler.self_s"),
    "scheduler.trace_text": ("scheduler.trace_text_s",),
    "scheduler.parse_trace": ("scheduler.parse_trace_s",),
    "scheduler.verify_replay": ("scheduler.verify_replay_s",),
    "analysis.measure": ("analysis.measure_s",),
    "analysis.floor_closure_violations": ("analysis.floor_closure_s",),
    "analysis.segment_disruptions": ("analysis.segment_disruptions_s",),
    "analysis.containment_violations": ("analysis.containment_violations_s",),
    "analysis.activation_counts": ("analysis.counts_s",),
    "analysis.change_counts": ("analysis.counts_s",),
    "scenarios.replay": ("scenarios.replay_s",),
    "exhaustive.run_exhaustive": ("self:exhaustive.self_s",),
}


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str, keep: bool) -> None:
        span_id = None
        if keep:
            span_id = self._next_id
            self._next_id += 1
        self._stack.append([name, time.perf_counter(), 0.0, span_id])

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, inner, span_id = self._stack.pop()
        took = end - start
        self.total[name] += took
        self.self_time[name] += took - inner
        self.counts[name + ".calls"] += 1
        if self._stack:
            self._stack[-1][2] += took
        if span_id is not None:
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            self.spans.append((span_id, parent, name, start, end))

    def timed(self, name: str, fn, keep: bool = True, after=None):
        """``fn`` wrapped in a span; ``after(result, args)`` adds counts."""
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._enter(name, keep)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(out, args)
            return out

        return wrapper

    def counted(self, name: str, fn, hits: bool = False):
        counts = self.counts
        hit_name = name + ".hits"

        def wrapper(*args):
            counts[name] += 1
            out = fn(*args)
            if hits and out:
                counts[hit_name] += 1
            return out

        return wrapper

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, mp) -> None:
        g, p, a, s, an, sc, ex = (
            mp.graph,
            mp.protocol,
            mp.adversary,
            mp.scheduler,
            mp.analysis,
            mp.scenarios,
            mp.exhaustive,
        )
        counts = self.counts
        topo_cls = g.Topology
        from_edges = topo_cls.__dict__["from_edges"].__func__
        diameter = topo_cls.__dict__["diameter"].fget
        self._patch(topo_cls, "from_edges", classmethod(self.timed("graph.from_edges", from_edges)))
        self._patch(
            topo_cls,
            "diameter",
            property(self.timed("graph.diameter", diameter, keep=False)),
        )

        guard, action = p.is_enabled, p._action
        for mod in (p, s, an, a):
            self._patch(mod, "is_enabled", self.counted("protocol.guard", guard, hits=True))
            self._patch(mod, "_action", self.counted("protocol.action", action))
        self._patch(s, "step", self.timed("protocol.step", p.step, keep=False))

        def count_writes(out, args):
            counts["adversary.byz_writes"] += len(out)

        self._patch(s, "advise", self.timed("adversary.advise", s.advise, keep=False, after=count_writes))

        drive = s._drive
        tracer = self

        def traced_drive(run_ex, *args):
            before = len(run_ex.steps)
            tracer._enter("scheduler.run", True)
            try:
                drive(run_ex, *args)
            finally:
                tracer._exit()
            new = run_ex.steps[before:]
            counts["scheduler.steps"] += len(new)
            counts["scheduler.activations"] += sum(len(r.activated) for r in new)

        self._patch(s, "_drive", traced_drive)

        def count_bytes(out, args):
            counts["scheduler.trace_bytes"] += len(out.encode("utf-8"))

        self._patch(s, "trace_text", self.timed("scheduler.trace_text", s.trace_text, after=count_bytes))
        self._patch(s, "parse_trace", self.timed("scheduler.parse_trace", s.parse_trace))
        self._patch(s, "verify_replay", self.timed("scheduler.verify_replay", s.verify_replay))

        for name in (
            "measure",
            "floor_closure_violations",
            "segment_disruptions",
            "containment_violations",
            "activation_counts",
            "change_counts",
        ):
            fn = an.__dict__[name]
            for mod in (an, ex):
                if name in mod.__dict__:
                    self._patch(mod, name, self.timed(f"analysis.{name}", fn))
        self._patch(an, "level_floor_holds", self.counted("analysis.level_floor", an.level_floor_holds))
        self._patch(an, "spec_holds", self.counted("analysis.spec", an.spec_holds))
        self._patch(an, "is_area_stable", self.counted("analysis.area_stable", an.is_area_stable))

        for name in ("replay_strong_impossibility", "replay_ta_strong_impossibility"):
            self._patch(sc, name, self.timed("scenarios.replay", sc.__dict__[name]))

        def count_report(report, args):
            counts["exhaustive.cases"] += report.cases
            counts["exhaustive.runs"] += report.runs

        self._patch(
            ex,
            "run_exhaustive",
            self.timed("exhaustive.run_exhaustive", ex.run_exhaustive, after=count_report),
        )

    def remove(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results -----------------------------------------------------------

    def metrics(self, scale: float, overhead: float) -> dict[str, float]:
        """Per-layer metrics; seconds are multiplied by ``scale``, the
        traced pass's ratio of reference-speed to measured time."""
        out = {name: 0 for name in METRICS}
        for span, targets in _TIMES.items():
            for target in targets:
                if target.startswith("self:"):
                    out[target[5:]] += self.self_time[span] * scale
                else:
                    out[target] += self.total[span] * scale
        c = self.counts
        out["graph.diameter_calls"] = c["graph.diameter.calls"]
        out["protocol.guard_evals"] = c["protocol.guard"]
        out["protocol.guard_hit_ratio"] = (
            c["protocol.guard.hits"] / c["protocol.guard"] if c["protocol.guard"] else 0
        )
        out["protocol.actions"] = c["protocol.action"]
        out["adversary.advise_calls"] = c["adversary.advise.calls"]
        for name in (
            "adversary.byz_writes",
            "scheduler.steps",
            "scheduler.activations",
            "scheduler.trace_bytes",
            "exhaustive.cases",
            "exhaustive.runs",
        ):
            out[name] = c[name]
        out["analysis.level_floor_evals"] = c["analysis.level_floor"]
        out["analysis.spec_evals"] = c["analysis.spec"]
        out["analysis.area_stable_calls"] = c["analysis.area_stable"]
        out["bench.trace_overhead"] = overhead
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )
