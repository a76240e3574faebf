"""Executable checkers for the protocol's containment guarantees.

Everything here is read-only analysis over immutable configurations and
traces, each read through ``scheduler._Index`` as ``trace_text`` reads it:
the per-process spec predicate, the inductive level floor, area legitimacy
and stability, containment membership, disruption segmentation, activation
accounting, trace metrics, and :func:`violations`, the one verdict function.

The central objects are *areas*: sets of correct processes that a Byzantine
placement may disturb.  Checks are parameterized by an explicit area, so
radius-based notions fall out by instantiating them with
:func:`minplus.graph.radius_area` and the topology-aware notions with the
computed containment areas.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, compress, count, islice
from operator import attrgetter, ge, ne
from pathlib import Path

from .errors import AnalysisError
from .graph import (
    ContainmentAreas,
    FaultModel,
    Topology,
    _nearest,
    compute_containment_areas,
)
from .adversary import Silent
from .protocol import Config, ProcState, is_enabled
from .protocol import _action  # unused here, bound for perfbench/tracing.py
from .scheduler import (
    ROUND_ROBIN,
    SYNCHRONOUS,
    DaemonPolicy,
    Execution,
    StopCriterion,
    _Index,
    continue_run,
    enabled_set,
    step_budget,
)


def spec_holds(topo: Topology, fm: FaultModel, cfg: Config, v: int) -> bool:
    """Per-process correctness: the root holds (bottom, 0); anyone else sits
    at the end of a tree path rooted at the real root or a Byzantine process,
    with levels increasing by one and every parent holding its child's
    neighborhood minimum.

    The parent chain is the only candidate path (the path condition pins
    each path member to be the previous member's parent), so the check walks
    the chain instead of enumerating paths.  The walk needs no cycle guard:
    it moves to a parent only when the parent's level is one lower, so the
    levels it visits fall strictly and no process comes round twice.
    """
    if v == topo.root:
        return cfg[v] == ProcState(None, 0)
    anchors = fm.byzantine | {topo.root}
    cur = v
    while True:
        prnt, level = cfg[cur]
        if prnt is None:
            return level == 0 and cur in anchors and cur != v
        nbrs = topo.neighbors[cur]
        if prnt not in nbrs:
            return False
        plevel = cfg[prnt].level
        if level != plevel + 1:
            return False
        if plevel != min(cfg[q].level for q in nbrs):
            return False
        cur = prnt


def _floor_heights(topo: Topology, fm: FaultModel, configs) -> list[int]:
    # Process v fails the floor at exactly the depths above level_v when
    # level_v < anchor_v, and at none otherwise; a configuration's height is
    # the lowest such level, capped at the diameter.  Scanning one process
    # across all configurations skips, in one min(), every process that
    # never drops below its anchor distance.
    heights = [topo.diameter] * len(configs)
    for v, anchor in enumerate(_nearest(topo, fm.byzantine | {topo.root})):
        levels = [cfg[v].level for cfg in configs]
        if min(levels, default=anchor) < anchor:
            heights = [
                level if level < anchor and level < h else h
                for level, h in zip(levels, heights)
            ]
    return heights


def level_floor_holds(topo: Topology, fm: FaultModel, cfg: Config, d: int) -> bool:
    """Every level is at least min(d, distance to the nearest of root and
    Byzantine set).  Closed under protocol steps for every d up to the
    diameter, whatever the Byzantine processes write.

    The floor only gets harder as d grows, so it holds exactly for d up to
    the configuration's height: the diameter, or the lowest level that lies
    below its own process's anchor distance if that is smaller."""
    if not 0 <= d <= topo.diameter:
        raise ValueError(f"d={d} outside 0..{topo.diameter}")
    return d <= _floor_heights(topo, fm, [cfg])[0]


def _watch(topo: Topology, fm: FaultModel, area) -> list[int]:
    # The area-correct processes, correct and outside the area, once the
    # area's ids are checked.
    area = frozenset(area)
    for v in area:
        topo._check(v)
        if not fm.is_correct(v):
            raise ValueError(f"area contains Byzantine process {v}")
    return [v for v in topo.processes() if fm.is_correct(v) and v not in area]


def is_area_legitimate(topo: Topology, fm: FaultModel, cfg: Config, area) -> bool:
    """Every correct process outside the area satisfies the spec predicate."""
    return _legitimate(topo, fm, cfg, _watch(topo, fm, area))


def _legitimate(topo: Topology, fm: FaultModel, cfg: Config, watch: list[int]) -> bool:
    return all(spec_holds(topo, fm, cfg, v) for v in watch)


def is_area_stable(topo: Topology, fm: FaultModel, cfg: Config, area) -> bool | None:
    """Whether no correct process outside the area can ever change its
    output variables while the Byzantine processes stay silent.

    Operational check: no such process may be enabled in cfg, and a
    synchronous run from cfg with the Byzantine processes silent must
    quiesce within ``step_budget(topo)`` steps without any of them changing
    state.  Returns None (undecided, distinct from False) if the budget runs
    out first, as it can while the area's processes count their levels up.
    """
    return _stable(topo, fm, cfg, _watch(topo, fm, area))


def _stable(topo: Topology, fm: FaultModel, cfg: Config, watch: list[int]) -> bool | None:
    if any(is_enabled(topo, cfg, v) for v in watch):
        return False

    def moved(now: Config) -> bool:
        return any(now[v] != cfg[v] for v in watch)

    stop = StopCriterion(step_budget(topo), moved)
    daemon = DaemonPolicy(SYNCHRONOUS, ROUND_ROBIN)
    # From cfg as it is: ``run`` would first reset corrupt parents to bottom.
    ex = Execution(topo, fm, daemon, 0, Silent.name, configs=[cfg])
    final = continue_run(ex, Silent(), stop).final()
    if moved(final):
        return False
    return None if enabled_set(topo, fm, final) else True


def _basin(topo: Topology, fm: FaultModel, area, anchors: list[int]):
    """The predicate of containment in ``area``: the level floor holds at
    the diameter and every correct process outside the area satisfies the
    spec predicate.  ``anchors`` is each process's distance to the nearest
    of the root and the Byzantine set; the floor at the diameter is every
    level at least its anchor, since no anchor exceeds the diameter."""
    watch = _watch(topo, fm, area)
    level = attrgetter("level")

    def holds(cfg: Config) -> bool:
        return all(map(ge, map(level, cfg), anchors)) and _legitimate(topo, fm, cfg, watch)

    return holds


def _contained(topo: Topology, fm: FaultModel, cfg: Config, area) -> bool:
    return _basin(topo, fm, area, _nearest(topo, fm.byzantine | {topo.root}))(cfg)


def is_contained(
    topo: Topology,
    fm: FaultModel,
    cfg: Config,
    areas: ContainmentAreas | None = None,
) -> bool:
    """Membership in the strict-containment basin: legitimate outside the
    near area and the level floor holds at the diameter.  From such a
    configuration no correct process outside the near area ever acts again.
    """
    return _contained(
        topo, fm, cfg, (areas or compute_containment_areas(topo, fm)).near
    )


def is_strongly_contained(
    topo: Topology,
    fm: FaultModel,
    cfg: Config,
    areas: ContainmentAreas | None = None,
) -> bool:
    """Membership in the strong-containment basin: legitimate outside the
    strictly-near area (so the frontier is correct too) and the level floor
    holds at the diameter.  From here the disruption and per-process change
    bounds apply."""
    return _contained(
        topo, fm, cfg, (areas or compute_containment_areas(topo, fm)).strictly_near
    )


def _index(ex) -> _Index:
    # A pass handed an index where it takes an execution reads that index,
    # so that one ``measure`` or ``violations`` call reads the run once.
    return ex if isinstance(ex, _Index) else _Index(ex)


@dataclass(frozen=True)
class DisruptionSegment:
    """A maximal trace portion between two area-legitimate, area-stable
    configurations whose interior changes some process outside the area."""

    start_index: int
    end_index: int
    changed_processes: frozenset[int]


def segment_disruptions(ex: Execution, area, from_index: int = 0) -> list[DisruptionSegment]:
    """Split a trace, from configuration ``from_index`` on, into its
    disruptions for a given area.

    A disruption starts at an area-legitimate, area-stable configuration,
    ends at the first later configuration with both properties again, and
    contains at least one output-variable change by a correct process
    outside the area.  Changes before the first such boundary, or after the
    last one, belong to no (completed) disruption.  ``from_index`` must lie
    in 0..the last configuration; segment indices, like the ``step_index``
    of the error raised when :func:`is_area_stable` is undecided at a
    candidate boundary, count from the start of the whole execution.
    """
    idx = _index(ex)
    topo, fm = idx.topo, idx.fm
    watch = _watch(topo, fm, area)
    _check_index("from_index", from_index, idx.tail.end)
    changes = idx.changing_steps(watch, from_index)
    configs, watched = idx.configs, idx.watched(watch)
    # Whether a configuration is a boundary, by identity.
    memo: dict[int, bool] = {}

    def anchor(i: int) -> bool:
        cfg = configs[i]
        ok = memo.get(id(cfg))
        if ok is None:
            # Legitimacy implies that no watched process is enabled: at a
            # correct process other than the root, spec_holds's first step is
            # the negation of each clause of its guard, and at the root both
            # mean (bottom, 0).  So only the stability run is left to ask.
            ok = False
            if _legitimate(topo, fm, cfg, watch):
                stable = _stable(topo, fm, cfg, watch)
                if stable is None:
                    raise AnalysisError(
                        "area stability undecided at candidate boundary",
                        step_index=i,
                    )
                ok = stable
            memo[id(cfg)] = ok
        return ok

    segments: list[DisruptionSegment] = []
    # No boundary lies in from_index..bottom - 1.
    bottom = from_index
    k = 0
    while k < len(changes):
        c = changes[k]
        start = next((j for j in range(c - 1, bottom - 1, -1) if anchor(j)), None)
        if start is None:
            bottom = c
            k += 1
            continue
        # A boundary past the head would repeat one a period before it.
        end = next((j for j in range(c, idx.tail.head(c) + 1) if anchor(j)), None)
        if end is None:
            break
        touched = frozenset(v for pair in set(idx.pairs(start, end)) for v in watched[pair])
        segments.append(DisruptionSegment(start, end, touched))
        k = bisect_right(changes, end, k)
    return segments


def _check_index(name: str, value: int, high: int) -> None:
    if not 0 <= value <= high:
        raise ValueError(f"{name}={value} outside 0..{high}")


def activation_counts(ex: Execution, from_index: int = 0) -> dict[int, int]:
    """Per-process activation counts over the steps after configuration
    ``from_index``, which must lie in 0..the last configuration."""
    idx = _index(ex)
    steps = idx.steps
    _check_index("from_index", from_index, idx.tail.end)

    def activated(lo: int, hi: int):
        # Activation sets are small, so one C-level count over their members
        # beats counting distinct records, whose ids cost more to hash.
        return chain.from_iterable(map(attrgetter("activated"), islice(steps, lo, hi)))

    counts = dict.fromkeys(idx.correct, 0)
    for v, times in idx.tally(activated, from_index).items():
        counts[v] += times
    return counts


def change_counts(ex: Execution, from_index: int = 0) -> dict[int, int]:
    """Per-process output-variable change counts over the steps after
    configuration ``from_index``, which must lie in 0..the last
    configuration.

    An activation that rewrites identical values does not count as a change.
    """
    idx = _index(ex)
    _check_index("from_index", from_index, idx.tail.end)
    counts = dict.fromkeys(idx.correct, 0)
    moved = idx.watched(idx.correct)
    for pair, times in idx.tally(idx.pairs, from_index).items():
        for v in moved[pair]:
            counts[v] += times
    return counts


@dataclass(frozen=True)
class StabilizationMetrics:
    """Trace measurements against the containment guarantees.

    Disruptions and per-process changes are counted from the first
    strongly-contained configuration, which is where the bounds start to
    apply.
    """

    first_contained: int | None
    first_strongly_contained: int | None
    disruption_count: int | None
    changes_by_process: dict[int, int]
    max_settled_changes: int | None


def measure(ex: Execution, areas: ContainmentAreas | None = None) -> StabilizationMetrics:
    """Compute stabilization metrics for one execution; ``areas`` are those
    of ``ex``, computed when not given."""
    idx = _index(ex)
    topo, fm = idx.topo, idx.fm
    areas = areas or compute_containment_areas(topo, fm)
    anchors = _nearest(topo, fm.byzantine | {topo.root})
    first_contained = idx.first(_basin(topo, fm, areas.near, anchors))
    first_strong = None
    if first_contained is not None:
        # Legitimacy outside strictly_near implies it outside near, so no
        # configuration the first search turned down is strongly contained.
        strict = _basin(topo, fm, areas.strictly_near, anchors)
        first_strong = idx.first(strict, idx.configs[first_contained])
    if first_strong is None:
        return StabilizationMetrics(
            first_contained=first_contained,
            first_strongly_contained=None,
            disruption_count=None,
            changes_by_process={},
            max_settled_changes=None,
        )
    segments = segment_disruptions(idx, areas.strictly_near, from_index=first_strong)
    changes = change_counts(idx, first_strong)
    settlers = _watch(topo, fm, areas.strictly_near)
    return StabilizationMetrics(
        first_contained=first_contained,
        first_strongly_contained=first_strong,
        disruption_count=len(segments),
        changes_by_process=changes,
        max_settled_changes=max((changes[v] for v in settlers), default=0),
    )


def containment_violations(
    ex: Execution, from_index: int, area
) -> list[tuple[int, int]]:
    """(step, process) pairs where a correct process outside the area changed
    state after configuration ``from_index``, which must lie in 0..the last
    configuration."""
    idx = _index(ex)
    topo, fm = idx.topo, idx.fm
    watch = _watch(topo, fm, area)
    _check_index("from_index", from_index, idx.tail.end)
    watched, configs = idx.watched(watch), idx.configs
    return [
        (i, v)
        for i in idx.changing_steps(watch, from_index)
        for v in watched[id(configs[i - 1]), id(configs[i])]
    ]


def floor_closure_violations(ex: Execution) -> list[tuple[int, int]]:
    """(d, config index) pairs where the level floor at d held earlier in the
    trace but fails at that configuration, the first such index for each d,
    ordered by d.

    Since the floor holds at d exactly when d is at most the configuration's
    height (see :func:`level_floor_holds`), it regresses at d the first time
    a height falls below d after some earlier height reached d; one pass
    over the heights finds every such pair.  Each distinct configuration's
    height is computed once, and the pass visits only the configurations
    whose height differs from the one before, since nothing else can
    change it.  On a repeating tail the pass stops two periods in: after
    one period no height is new, so nothing more is pushed, and the second
    pops every pending depth above the period's lowest height."""
    idx = _index(ex)
    distinct = idx.config
    height = dict(zip(distinct, _floor_heights(idx.topo, idx.fm, list(distinct.values()))))
    reach = islice(idx.configs, idx.tail.head(idx.tail.head()) + 1)
    heights = list(map(height.__getitem__, map(id, reach)))
    out = []
    # Depths at which the floor held at some earlier configuration and has
    # not regressed yet, ascending: 0..best except those already reported.
    pending: list[int] = []
    best = -1
    for i in compress(count(), map(ne, heights, chain([None], heights))):
        h = heights[i]
        while pending and pending[-1] > h:
            out.append((pending.pop(), i))
        if h > best:
            pending.extend(range(best + 1, h + 1))
            best = h
    out.sort()
    return out


_WORDING = {
    "floor": "floor regressed at d={bound}, config {step}",
    "never_contained": "containment never reached",
    "shielded": "shielded process {process} changed at step {step}",
    "never_strongly_contained": "strong containment never reached",
    "frontier": "frontier process {process} activated {observed} times (degree {bound})",
    "disruptions": "{observed} disruptions exceed bound {bound}",
    "changes": "process {process} changed {observed} times (bound {bound})",
}


@dataclass(frozen=True)
class Violation:
    """One failed containment check: ``step`` is a configuration index,
    ``observed`` a measured count, and ``bound`` the limit it broke (for
    ``floor``, the depth whose floor regressed)."""

    kind: str
    step: int | None = None
    process: int | None = None
    observed: int | None = None
    bound: int | None = None

    def __str__(self) -> str:
        return _WORDING[self.kind].format_map(vars(self))


def violations(
    ex: Execution,
    metrics: StabilizationMetrics | None = None,
    areas: ContainmentAreas | None = None,
) -> list[Violation]:
    """Every containment guarantee the execution breaks, in the order of
    ``_WORDING``.  Nothing is reported past ``never_contained`` or
    ``never_strongly_contained``; the last three kinds count from the first
    strongly contained configuration.  ``metrics`` and ``areas`` are those
    of ``ex``, computed when not given.

    Every pass reads one shared index of ``ex``, handed to it in place of
    the execution."""
    idx = _Index(ex)
    topo = idx.topo
    areas = areas or compute_containment_areas(topo, idx.fm)
    metrics = metrics or measure(idx, areas)
    out = [Violation("floor", step=i, bound=d) for d, i in floor_closure_violations(idx)]
    if metrics.first_contained is None:
        return out + [Violation("never_contained")]
    out.extend(
        Violation("shielded", step=i, process=v)
        for i, v in containment_violations(idx, metrics.first_contained, areas.near)
    )
    if metrics.first_strongly_contained is None:
        return out + [Violation("never_strongly_contained")]
    acts = activation_counts(idx, metrics.first_strongly_contained)
    out.extend(
        Violation("frontier", process=v, observed=acts[v], bound=topo.degree(v))
        for v in sorted(areas.frontier)
        if acts[v] > topo.degree(v)
    )
    bound, found = 2 * topo.edge_count, metrics.disruption_count
    if found > bound:
        out.append(Violation("disruptions", observed=found, bound=bound))
    changes = metrics.changes_by_process
    out.extend(
        Violation("changes", process=v, observed=changes[v], bound=topo.max_degree)
        for v in sorted(changes)
        if v not in areas.strictly_near and changes[v] > topo.max_degree
    )
    return out


# ---------------------------------------------------------------------------
# Exports: metrics CSV and Graphviz DOT.
# ---------------------------------------------------------------------------

METRICS_FIELDS = [
    "scenario",
    "seed",
    "n",
    "m",
    "byz",
    "first_contained",
    "first_strongly_contained",
    "disruptions",
    "max_changes",
    "error",
]


def metrics_row(
    scenario_id: str,
    seed: int,
    topo: Topology | None = None,
    fm: FaultModel | None = None,
    metrics: StabilizationMetrics | None = None,
    error: str = "",
) -> dict:
    def opt(value):
        return "" if value is None else value

    return {
        "scenario": scenario_id,
        "seed": seed,
        "n": topo.process_count if topo else "",
        "m": topo.edge_count if topo else "",
        "byz": fm.count if fm else "",
        "first_contained": opt(metrics.first_contained) if metrics else "",
        "first_strongly_contained": opt(metrics.first_strongly_contained)
        if metrics
        else "",
        "disruptions": opt(metrics.disruption_count) if metrics else "",
        "max_changes": opt(metrics.max_settled_changes) if metrics else "",
        "error": error,
    }


def metrics_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=METRICS_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def write_metrics_csv(rows, path) -> None:
    Path(path).write_text(metrics_csv(rows), encoding="utf-8", newline="\n")


def to_dot(
    topo: Topology,
    fm: FaultModel,
    cfg: Config,
    areas: ContainmentAreas | None = None,
) -> str:
    """Render the configuration's parent edges with role annotations."""
    if areas is None:
        areas = compute_containment_areas(topo, fm)
    lines = ["digraph parents {"]
    for v in topo.processes():
        attrs = [f'label="{v} (lvl {cfg[v].level})"']
        if v == topo.root:
            attrs.append("shape=doublecircle")
            attrs.append('role="root"')
        elif v in fm.byzantine:
            attrs.append("shape=box")
            attrs.append('role="byzantine"')
        elif v in areas.strictly_near:
            attrs.append('role="strictly_near"')
        elif v in areas.frontier:
            attrs.append('role="frontier"')
        else:
            attrs.append('role="outside"')
        lines.append(f"  n{v} [{', '.join(attrs)}];")
    for v in topo.processes():
        prnt = cfg[v].prnt
        if prnt is not None and prnt in topo.neighbors[v]:
            lines.append(f"  n{v} -> n{prnt};")
    lines.append("}")
    return "\n".join(lines) + "\n"
