"""audit: long adversarial runs, then measured, checked and round-tripped.

One pass makes nine runs, on random connected graphs with n = 4..12
processes and f = 1 + n mod 3 Byzantine ones, under ``Oscillator(1)`` and
the distributed-random daemon, each continuing 10,000 steps past its first
contained configuration.  Each run is then measured and checked
(``measure``, ``containment_violations``, ``floor_closure_violations``,
activation and change counts) and sent through the trace format
(``trace_text``, ``parse_trace``, ``verify_replay``).  The two
impossibility replays close the pass.  Long stored executions are written
by the engine and read by analysis, serialisation and parsing, so a change
that speeds one use by slowing the other shows here.  Each call is one
timed unit; engine runs are cut into laps of about 0.1 s at step
boundaries.
"""

from __future__ import annotations

import random

import oracle
from clock import SMALL
from harness import PassResult

# Graphs of at most twelve processes; the probe that tracks this pass best.
PROBE = SMALL

SIZES = range(4, 13)
TAIL = 10_000
EDGE_PROBS = (0.25, 0.35, 0.5)
REPLAY_CYCLES = 200
REPLAY_RADIUS = 2
HEXAGON_AREA = frozenset({3})


def _connected_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A random spanning tree plus each other pair with a probability fixed
    by n, so that seeds change which edges a graph has, not how dense it
    is, and the work of a pass changes little from seed to seed."""
    p = EDGE_PROBS[n % len(EDGE_PROBS)]
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    present = set(edges)
    edges += [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in present and rng.random() < p
    ]
    return edges


def build(mp, seed: int):
    rng = random.Random(seed)
    cases = []
    for n in SIZES:
        edges = _connected_edges(rng, n)
        byz = rng.sample(range(1, n), 1 + n % 3)
        topo = mp.graph.Topology.from_edges(n, 0, edges)
        fm = mp.graph.make_fault_model(topo, byz)
        cases.append(
            dict(
                label=f"n={n} byz={sorted(byz)} edges={edges}",
                topo=topo,
                fm=fm,
                areas=mp.graph.compute_containment_areas(topo, fm),
                oracle=oracle.Graph(n, 0, edges, byz),
                init=mp.scenarios.corrupted_config(topo, fm),
                seed=rng.randrange(1 << 30),
            )
        )
    return cases


def simulate(mp, case, clock):
    scheduler, analysis = mp.scheduler, mp.analysis
    topo, fm, areas = case["topo"], case["fm"], case["areas"]

    def contained(cfg):
        return analysis.is_contained(topo, fm, cfg, areas)

    return clock.time(
        scheduler.run,
        topo,
        fm,
        case["init"],
        scheduler.DaemonPolicy("distributed", "random"),
        clock.pace(mp.adversary.Oscillator(1)),
        scheduler.StopCriterion(
            max_steps=scheduler.step_budget(topo) + TAIL,
            predicate=contained,
            extra_after=TAIL,
        ),
        seed=case["seed"],
    )


def audit_run(mp, case, ex, clock) -> list[str]:
    """Measure, check and round-trip one execution; return what is wrong."""
    scheduler, analysis = mp.scheduler, mp.analysis
    g, areas = case["oracle"], case["areas"]
    m = clock.time(analysis.measure, ex)
    first, strong = m.first_contained, m.first_strongly_contained
    shielded_moves = (
        clock.time(analysis.containment_violations, ex, first, areas.near)
        if first is not None
        else None
    )
    regressions = clock.time(analysis.floor_closure_violations, ex)
    if strong is not None:
        clock.start()
        acts = analysis.activation_counts(ex, strong)
        changes = analysis.change_counts(ex, strong)
        clock.stop()
    text = clock.time(scheduler.trace_text, ex)
    parsed = clock.time(scheduler.parse_trace, text)
    diverges = clock.time(scheduler.verify_replay, parsed)

    problems = []
    if (areas.near, areas.strictly_near, areas.frontier) != (
        g.near,
        g.strictly_near,
        g.frontier,
    ):
        problems.append("containment areas differ from the oracle's")
    if parsed.configs != ex.configs or [
        (s.activated, s.byz_writes) for s in parsed.steps
    ] != [(s.activated, s.byz_writes) for s in ex.steps]:
        problems.append("parse_trace(trace_text(ex)) does not reproduce ex")
    if diverges is not None:
        problems.append(f"verify_replay diverges at step {diverges}")
    if regressions:
        problems.append(f"level floor regressed: {regressions[:3]}")
    if first is None:
        return problems + ["containment never reached"]
    configs = ex.configs
    if not oracle.contained(g, configs[first], g.near):
        problems.append(f"configuration {first} is not contained")
    if first > 0 and oracle.contained(g, configs[first - 1], g.near):
        problems.append(f"configuration {first - 1} is already contained")
    if ex.step_count != first + TAIL:
        problems.append(f"{ex.step_count - first} steps after containment, not {TAIL}")
    shielded = [v for v in range(g.n) if g.correct(v) and v not in g.near]
    moved = sorted(
        {
            (i, v)
            for i in range(first + 1, len(configs))
            for v in shielded
            if configs[i][v] != configs[first][v]
        }
    )
    if moved or shielded_moves:
        problems.append(f"shielded processes changed after containment: {moved[:3]}")
    if strong is None:
        return problems + ["strong containment never reached"]
    if not oracle.contained(g, configs[strong], g.strictly_near):
        problems.append(f"configuration {strong} is not strongly contained")
    if m.disruption_count > 2 * len(g.edges):
        problems.append(f"{m.disruption_count} disruptions > 2m = {2 * len(g.edges)}")
    correct = [v for v in range(g.n) if g.correct(v)]
    my_acts = {v: 0 for v in correct}
    my_changes = {v: 0 for v in correct}
    for i in range(strong, ex.step_count):
        for v in ex.steps[i].activated:
            my_acts[v] += 1
        for v in correct:
            if configs[i + 1][v] != configs[i][v]:
                my_changes[v] += 1
    if acts != my_acts or changes != my_changes:
        problems.append("activation or change counts differ from the oracle's")
    max_degree = max(g.degree(v) for v in range(g.n))
    for v in correct:
        if v not in g.strictly_near and my_changes[v] > max_degree:
            problems.append(f"process {v} changed {my_changes[v]} > {max_degree} times")
    for v in sorted(g.frontier):
        if my_acts[v] > g.degree(v):
            problems.append(f"frontier process {v} activated {my_acts[v]} > {g.degree(v)} times")
    return problems


def _outside_changes(ex, area) -> int:
    """Steps in which a correct process outside ``area`` changes."""
    g = oracle.Graph(ex.topo.process_count, ex.topo.root, ex.topo.edges, ex.fm.byzantine)
    watch = [v for v in range(g.n) if g.correct(v) and v not in area]
    bad = [
        i
        for i in range(ex.step_count)
        if oracle.check_step(
            g, ex.configs[i], ex.configs[i + 1], ex.steps[i].activated, ex.steps[i].byz_writes
        )
    ]
    if bad:
        raise ValueError(f"replay step {bad[0] + 1} breaks the min+1 rule")
    return sum(
        any(ex.configs[i][v] != ex.configs[i + 1][v] for v in watch)
        for i in range(ex.step_count)
    )


def replays(mp, clock):
    scenarios, analysis, graph = mp.scenarios, mp.analysis, mp.graph
    line = clock.time(scenarios.replay_strong_impossibility, REPLAY_RADIUS, REPLAY_CYCLES)
    radius = graph.radius_area(line.topo, line.fm, REPLAY_RADIUS)
    hexagon = clock.time(scenarios.replay_ta_strong_impossibility, HEXAGON_AREA, REPLAY_CYCLES)
    out = []
    for label, ex, area in (("line", line, radius), ("hexagon", hexagon, HEXAGON_AREA)):
        found = len(clock.time(analysis.segment_disruptions, ex, area))
        problems = []
        if found < REPLAY_CYCLES:
            problems.append(f"{found} disruptions in {REPLAY_CYCLES} cycles")
        try:
            moves = _outside_changes(ex, area)
        except ValueError as err:
            problems.append(str(err))
        else:
            if moves < REPLAY_CYCLES:
                problems.append(f"outside the area changes in {moves} steps only")
        out.append((f"{label} replay", ex, problems))
    return out


def run_pass(mp, cases, clock) -> PassResult:
    steps = failed = 0
    failures = []
    fingerprint = []
    for case in cases:
        ex = simulate(mp, case, clock)
        steps += ex.step_count
        fingerprint.append(hash(ex.final()))
        problems = audit_run(mp, case, ex, clock)
        if problems:
            failed += 1
            failures.append(f"{case['label']}: {problems[0]}")
    for label, ex, problems in replays(mp, clock):
        steps += ex.step_count
        if problems:
            failed += 1
            failures.append(f"{label}: {problems[0]}")
    return PassResult(
        steps=steps,
        attempted=len(cases) + 2,
        failed=failed,
        failures=failures,
        fingerprint=(steps, tuple(fingerprint)),
    )
