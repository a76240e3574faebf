"""certify: the small-scope certification sweep, n <= 4 and f <= 2.

One pass is ``exhaustive.run_exhaustive(4, 2, seed)``: every connected
graph on up to four nodes, every root, every placement of at most two
Byzantine processes, three initial configurations, and the silent and
period-1 oscillating adversaries.  Runs are short (at most 1,200 steps), so
the weight falls on per-run fixed costs and the analysis passes.  Each case
of the sweep is one timed unit: the benchmark wraps the sweep's own case
enumerator, so the unit ends when the sweep asks for the next case.
"""

from __future__ import annotations

from math import comb

from clock import SMALL
from harness import PassResult

# Runs on at most four processes walk a few cache-resident tuples.
PROBE = SMALL

N_MAX = 4
F_MAX = 2
# Connected graphs on n unlabelled nodes (OEIS A001349).
CONNECTED_GRAPHS = {1: 1, 2: 1, 3: 2, 4: 6}
INITS = 3
# The documented gap: a silent Byzantine process that starts away from
# (bottom, 0) can stay there, so the random start may never be strongly
# contained.  It is the only finding the sweep may report.
GAP = "strong containment never reached"


def expected_counts() -> tuple[int, int]:
    """(cases, runs) of one sweep: n roots times sum_k C(n-1, k) placements
    per graph, three initial states each, one adversary without Byzantine
    processes and two with."""
    cases = runs = 0
    for n, graphs in CONNECTED_GRAPHS.items():
        for k in range(min(F_MAX, n - 1) + 1):
            placements = graphs * n * comb(n - 1, k)
            cases += placements
            runs += placements * INITS * (1 if k == 0 else 2)
    return cases, runs


def build(mp, seed: int) -> int:
    mp.exhaustive.connected_graph_catalog(N_MAX)  # loads the graph atlas
    return seed


def is_gap(finding: str) -> bool:
    where, _, what = finding.rpartition(": ")
    return what == GAP and " init=random " in where and " adversary=silent " in where


def run_pass(mp, seed: int, clock) -> PassResult:
    exhaustive = mp.exhaustive
    real_cases, real_run = exhaustive.enumerate_cases, exhaustive.run
    steps = 0

    def cases(*args, **kwargs):
        clock.start()
        for case in real_cases(*args, **kwargs):
            yield case
            clock.stop()
            clock.start()
        clock.stop()

    def counted_run(*args, **kwargs):
        nonlocal steps
        ex = real_run(*args, **kwargs)
        steps += ex.step_count
        return ex

    exhaustive.enumerate_cases, exhaustive.run = cases, counted_run
    try:
        report = exhaustive.run_exhaustive(N_MAX, F_MAX, seed=seed)
    finally:
        exhaustive.enumerate_cases, exhaustive.run = real_cases, real_run

    cases_want, runs_want = expected_counts()
    broken = []
    if (report.cases, report.runs) != (cases_want, runs_want):
        broken.append(
            f"sweep made {report.cases} cases and {report.runs} runs, "
            f"expected {cases_want} and {runs_want}"
        )
    bad = sorted({f.rpartition(": ")[0] for f in report.failures if not is_gap(f)})
    return PassResult(
        steps=steps,
        attempted=runs_want,
        failed=len(bad),
        failures=[f for f in report.failures if not is_gap(f)],
        broken=broken,
        fingerprint=(report.cases, report.runs, steps, tuple(report.failures)),
    )
