import functools
import hashlib

from minplus.exhaustive import (
    connected_graph_catalog,
    enumerate_cases,
    labeled_connected_graphs,
    run_exhaustive,
)


def test_labeled_enumeration_counts():
    # Known counts of labeled connected graphs.
    assert sum(1 for _ in labeled_connected_graphs(1)) == 1
    assert sum(1 for _ in labeled_connected_graphs(2)) == 1
    assert sum(1 for _ in labeled_connected_graphs(3)) == 4
    assert sum(1 for _ in labeled_connected_graphs(4)) == 38
    assert sum(1 for _ in labeled_connected_graphs(5)) == 728  # OEIS A001187


def test_catalog_counts_by_isomorphism_class():
    counts = {}
    for n, _ in connected_graph_catalog(6):
        counts[n] = counts.get(n, 0) + 1
    assert counts == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


def test_enumerate_cases_sweeps_roots_and_placements():
    cases = list(enumerate_cases(3, 1))
    # n=1: 1; n=2: 2 roots x (0 or 1 byz) = 4; n=3: 2 classes x 3 roots x 3 = 18
    assert len(cases) == 23
    labeled = list(enumerate_cases(3, 1, labeled=True))
    # Labeled graphs keep root 0: 1 + 1x2 + 4x3 = 15
    assert len(labeled) == 15
    for topo, fm in cases:
        assert topo.root not in fm.byzantine


def test_hexagon_case_reports_the_two_process_area():
    from minplus import compute_containment_areas

    found = 0
    for topo, fm in enumerate_cases(6, 1):
        if topo.process_count != 6 or topo.edge_count != 6:
            continue
        if any(topo.degree(v) != 2 for v in topo.processes()):
            continue  # only the six-cycle has all degrees two
        if len(fm.byzantine) != 1:
            continue
        (b,) = fm.byzantine
        if topo.hop_distance(topo.root, b) != 3:
            continue
        found += 1
        areas = compute_containment_areas(topo, fm)
        assert areas.strictly_near == frozenset(topo.neighbors[b])
        assert areas.frontier == frozenset()
    assert found == 6  # one placement per root choice


def test_small_scope_certification_passes_without_frontier_chains():
    report = run_exhaustive(n_max=3, f_max=1, seed=0)
    assert report.ok, report.failures[:5]
    assert report.cases == 23
    assert report.runs > report.cases


def test_labeled_mode_matches_catalog_mode_results():
    assert run_exhaustive(n_max=2, f_max=1, labeled=True, seed=1).ok


KNOWN_GAPS = ("strong containment never reached",)


@functools.lru_cache(maxsize=None)
def four_node_report():
    return run_exhaustive(n_max=4, f_max=1, seed=0)


def test_four_node_certification_surfaces_only_the_known_gaps():
    # Four nodes is where deceptive frozen Byzantine states first appear and
    # make strong containment unreachable (see test_containment_gaps);
    # everything else holds, the frontier activation bound included.
    report = four_node_report()
    assert report.failures, "expected the known corner cases to be reported"
    for failure in report.failures:
        assert any(tag in failure for tag in KNOWN_GAPS), failure


# SHA-256 of the newline-joined failure list of run_exhaustive(4, 1, seed=0):
# one run, the complete graph K4 rooted at 0 with process 2 Byzantine, random
# start, silent adversary, "strong containment never reached".
FOUR_NODE_FAILURES_SHA256 = "e5dfb0ab28f4306c2ca76e9d29e9665288ba61b2959f9a0d9a51506b1faf7a38"


def test_four_node_certification_verdicts_are_pinned():
    # The exact verdict list, not just its kinds: a rewrite of the engine or
    # of the analysis passes that moves, adds or drops a verdict fails here.
    report = four_node_report()
    assert (report.cases, report.runs, len(report.failures)) == (119, 615, 1)
    digest = hashlib.sha256("\n".join(report.failures).encode("utf-8")).hexdigest()
    assert digest == FOUR_NODE_FAILURES_SHA256, report.failures
