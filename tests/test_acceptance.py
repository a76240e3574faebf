"""Acceptance suite.

Seven end-to-end criteria, one test each, every one printing a single
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them
as they complete).  All tolerances are exact; the heavy criteria finish in
a couple of minutes on desk hardware.
"""

import random

import pytest

from minplus import (
    DaemonPolicy,
    Oscillator,
    Silent,
    StopCriterion,
    Topology,
    activation_counts,
    compute_containment_areas,
    containment_violations,
    enabled_set,
    is_contained,
    level_floor_holds,
    make_fault_model,
    measure,
    radius_area,
    replay_strong_impossibility,
    replay_ta_strong_impossibility,
    run,
    segment_disruptions,
    step,
    step_budget,
)
from minplus.cli import RunConfig, execute_run
from minplus.exhaustive import connected_graph_catalog, labeled_connected_graphs
from minplus.protocol import ProcState
from minplus.scenarios import (
    all_zero_config,
    corrupted_config,
    random_config,
    random_topology,
)
from minplus.graph import anchor_distance

from _oracles import floyd_warshall, is_parent_spanning_tree

SYNC = DaemonPolicy("synchronous", "round_robin")
FAIR_RANDOM = DaemonPolicy("distributed", "random")


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1 -- fault-free self-stabilization on every small topology.
# Labeled edge-set enumeration covers every graph through n=6 (root 0 loses
# nothing: labels are arbitrary); n=7 runs every isomorphism class from the
# graph catalog under every root placement, which covers the same ground as
# the 1.87 million labeled seven-node graphs up to relabeling.
# ---------------------------------------------------------------------------


def _fault_free_case(topo, rng, failures):
    n = topo.process_count
    fm = make_fault_model(topo, [])
    dist = floyd_warshall(n, topo.edges)
    inits = (
        ("zero", all_zero_config(topo)),
        ("corrupted", corrupted_config(topo, fm)),
        ("random", random_config(topo, rng)),
    )
    for name, init in inits:
        ex = run(
            topo,
            fm,
            init,
            SYNC,
            Silent(),
            StopCriterion(max_steps=step_budget(topo)),
        )
        label = f"edges={list(topo.edges)} root={topo.root} init={name}"
        if enabled_set(topo, fm, ex.final()):
            failures.append(f"{label}: no quiescence within budget")
            continue
        if [s.level for s in ex.final()] != dist[topo.root]:
            failures.append(f"{label}: levels differ from BFS distances")
        if not is_parent_spanning_tree(
            n, topo.edges, topo.root, [s.prnt for s in ex.final()]
        ):
            failures.append(f"{label}: parents are not a spanning tree")
    return len(inits)


def test_criterion_1_fault_free_self_stabilization():
    failures: list[str] = []
    graphs = runs = 0
    rng = random.Random(1)
    for n in range(1, 7):
        for edges in labeled_connected_graphs(n):
            graphs += 1
            runs += _fault_free_case(Topology.from_edges(n, 0, edges), rng, failures)
    for n, edges in connected_graph_catalog(7):
        if n != 7:
            continue
        for root in range(7):
            graphs += 1
            runs += _fault_free_case(
                Topology.from_edges(7, root, edges), rng, failures
            )
    report(
        "criterion-1 fault-free self-stabilization",
        not failures,
        f"{graphs} graphs, {runs} runs, {len(failures)} failures"
        + (f"; first: {failures[0]}" if failures else ""),
    )


# ---------------------------------------------------------------------------
# Criterion 2 -- the level floor is closed under every legal step.
# ---------------------------------------------------------------------------


def _floor_pool(count=120, n_max=20, seed=2):
    rng = random.Random(seed)
    pool = []
    for i in range(count):
        n = rng.randint(2, n_max)
        topo = random_topology(n, rng.choice([0.2, 0.35, 0.5]), seed=5000 + i)
        others = list(range(1, n))
        fm = make_fault_model(
            topo, rng.sample(others, rng.randint(0, min(3, len(others))))
        )
        floors = tuple(anchor_distance(topo, fm, v) for v in topo.processes())
        pool.append((topo, fm, floors))
    return pool


def test_criterion_2_level_floor_closure():
    rng = random.Random(3)
    pool = _floor_pool()
    instances = 100_000
    bad = 0
    for _ in range(instances):
        topo, fm, floors = pool[rng.randrange(len(pool))]
        d = rng.randint(0, topo.diameter)
        cfg = tuple(
            ProcState(
                rng.choice(topo.neighbors[v]) if rng.random() < 0.8 else None,
                min(d, floors[v]) + rng.randint(0, 3),
            )
            for v in topo.processes()
        )
        activated = [
            v for v in enabled_set(topo, fm, cfg) if rng.random() < 0.5
        ]
        writes = {
            b: ProcState(
                rng.choice([None] + list(topo.neighbors[b])),
                rng.randint(0, 2 * topo.diameter + 2),
            )
            for b in fm.byzantine
            if rng.random() < 0.7
        }
        after = step(topo, fm, cfg, activated, writes)
        if not level_floor_holds(topo, fm, after, d):
            bad += 1
    report(
        "criterion-2 level-floor closure",
        bad == 0,
        f"{instances} random (graph, floor-respecting config, legal step) "
        f"instances, {bad} violations",
    )


# ---------------------------------------------------------------------------
# Criteria 3-5 share one batch of adversarial runs: 200 random graphs with
# n <= 12 and 1 <= f <= 3 under a period-1 oscillating adversary, each run
# continuing 10^4 steps beyond its first contained configuration.
# ---------------------------------------------------------------------------

TAIL = 10_000


@pytest.fixture(scope="module")
def adversarial_runs():
    rng = random.Random(4)
    batch = []
    for i in range(200):
        n = 4 + i % 9
        topo = random_topology(n, rng.choice([0.25, 0.35, 0.5]), seed=1000 + i)
        f = 1 + i % 3
        fm = make_fault_model(topo, rng.sample(range(1, n), f))
        areas = compute_containment_areas(topo, fm)

        def contained(cfg, t=topo, f_=fm, a=areas):
            return is_contained(t, f_, cfg, a)

        ex = run(
            topo,
            fm,
            corrupted_config(topo, fm),
            FAIR_RANDOM,
            Oscillator(1),
            StopCriterion(
                max_steps=step_budget(topo) + TAIL,
                predicate=contained,
                extra_after=TAIL,
            ),
            seed=i,
        )
        first = next(
            (j for j, cfg in enumerate(ex.configs) if is_contained(topo, fm, cfg, areas)),
            None,
        )
        batch.append((topo, fm, areas, ex, first))
    return batch


def test_criterion_3_ta_strict_containment(adversarial_runs):
    failures = []
    for topo, fm, areas, ex, first in adversarial_runs:
        if first is None or ex.step_count - first < TAIL:
            failures.append("containment not reached within budget")
            continue
        if containment_violations(ex, first, areas.near):
            failures.append("shielded process changed after containment")
    report(
        "criterion-3 TA strict containment",
        not failures,
        f"{len(adversarial_runs)} runs x {TAIL} adversarial steps after "
        f"containment, {len(failures)} failures",
    )


def test_criterion_4_frontier_activation_bound(adversarial_runs):
    # Every frontier process is activated at most degree-many times after
    # the first strongly contained configuration.  From there each frontier
    # process already holds its distance to the root: its root-side neighbor
    # stays one level lower forever and the level floor keeps every other
    # neighbor at or above that level, so only its parent pointer moves, round
    # robin among minimum-level neighbors, and it never passes the root-side
    # one.  The bound cannot start at the first *contained* configuration: a
    # frontier process with no shielded neighbor (a "chained" frontier) may
    # still be converging there and be forced past its degree, as the claw in
    # tests/test_containment_gaps.py shows.  That earlier count is reported
    # for information only.
    checked = activations = 0
    failures = []
    early = early_anchored = 0
    for topo, fm, areas, ex, first in adversarial_runs:
        start = measure(ex).first_strongly_contained
        if start is None:
            failures.append("strong containment not reached")
            continue
        acts = activation_counts(ex, from_index=start)
        early_acts = activation_counts(ex, from_index=first)
        shielded = set(topo.processes()) - areas.near - fm.byzantine
        for v in sorted(areas.frontier):
            checked += 1
            activations += acts[v]
            if acts[v] > topo.degree(v):
                failures.append(
                    f"frontier process {v} activated {acts[v]} > {topo.degree(v)}"
                )
            if early_acts[v] > topo.degree(v):
                early += 1
                early_anchored += any(u in shielded for u in topo.neighbors[v])
    report(
        "criterion-4 frontier activation bound",
        not failures,
        f"{checked} frontier processes across 200 runs, {activations} "
        f"activations and {len(failures)} over bound from strong containment; "
        f"counted from containment {early} "
        f"over ({early_anchored} with a shielded neighbor, "
        f"{early - early_anchored} chained)",
    )


def test_criterion_5_disruption_and_change_bounds(adversarial_runs):
    failures = []
    for topo, fm, areas, ex, first in adversarial_runs:
        m = measure(ex)
        if m.first_strongly_contained is None:
            failures.append("strong containment never reached")
            continue
        if m.disruption_count > 2 * topo.edge_count:
            failures.append(
                f"{m.disruption_count} disruptions > {2 * topo.edge_count}"
            )
        for v, k in m.changes_by_process.items():
            if v not in areas.strictly_near and k > topo.max_degree:
                failures.append(f"process {v} changed {k} > {topo.max_degree}")
    report(
        "criterion-5 disruption and change bounds",
        not failures,
        f"200 runs against the 2m / max-degree bounds, {len(failures)} failures",
    )


# ---------------------------------------------------------------------------
# Criterion 6 -- the impossibility replays disrupt forever for too-small
# areas, yet the same traces respect every bound for the computed areas.
# ---------------------------------------------------------------------------


def _respects_bounds(ex, failures, tag):
    topo, fm = ex.topo, ex.fm
    areas = compute_containment_areas(topo, fm)
    m = measure(ex)
    if m.first_contained is None or m.first_strongly_contained is None:
        failures.append(f"{tag}: containment never reached")
        return
    if containment_violations(ex, m.first_contained, areas.near):
        failures.append(f"{tag}: shielded process changed after containment")
    acts = activation_counts(ex, from_index=m.first_strongly_contained)
    for v in areas.frontier:
        if acts[v] > topo.degree(v):
            failures.append(f"{tag}: frontier activation bound broken at {v}")
    if m.disruption_count > 2 * topo.edge_count:
        failures.append(f"{tag}: {m.disruption_count} disruptions > 2m")
    for v, k in m.changes_by_process.items():
        if v not in areas.strictly_near and k > topo.max_degree:
            failures.append(f"{tag}: change bound broken at {v}")


def test_criterion_6_impossibility_replays():
    failures: list[str] = []

    line = replay_strong_impossibility(c=2, cycles=6)
    radius = radius_area(line.topo, line.fm, 2)
    line_disruptions = len(segment_disruptions(line, radius))
    if line_disruptions < 6:
        failures.append(f"line: only {line_disruptions} radius-2 disruptions")
    _respects_bounds(line, failures, "line")

    hexagon = replay_ta_strong_impossibility({3}, cycles=6)
    hex_disruptions = len(segment_disruptions(hexagon, {3}))
    if hex_disruptions < 6:
        failures.append(f"hexagon: only {hex_disruptions} area disruptions")
    _respects_bounds(hexagon, failures, "hexagon")

    report(
        "criterion-6 impossibility replays",
        not failures,
        f"line: {line_disruptions} radius-2 disruptions, hexagon: "
        f"{hex_disruptions} area disruptions (both need >= 6); bounds "
        f"re-checked against the computed areas; failures: {failures or 'none'}",
    )


# ---------------------------------------------------------------------------
# Criterion 7 -- byte-identical artifacts for identical run configurations.
# ---------------------------------------------------------------------------


def test_criterion_7_deterministic_artifacts(tmp_path):
    rc = RunConfig(
        scenario="random n=9 p=0.35 seed=11 byz_count=2",
        adversary="random:5",
        daemon="distributed",
        fairness="random",
        seed=13,
        max_steps=600,
        trace=str(tmp_path / "run.trace"),
        metrics=str(tmp_path / "run.csv"),
        dot=str(tmp_path / "run.dot"),
    )
    snapshots = []
    for _ in range(2):
        execute_run(rc)
        snapshots.append(
            tuple((tmp_path / name).read_bytes() for name in ("run.trace", "run.csv", "run.dot"))
        )
    ok = snapshots[0] == snapshots[1]
    report(
        "criterion-7 deterministic artifacts",
        ok,
        "trace, metrics and DOT bytes identical across two executions"
        if ok
        else "artifact bytes differ between identical runs",
    )
