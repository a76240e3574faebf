import functools
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import minplus
from minplus import (
    DISTRIBUTED,
    RANDOM,
    DaemonPolicy,
    Silent,
    StopCriterion,
    build,
    enabled_set,
    parse_scenario,
    run,
    step_budget,
    violations,
)
from minplus.exhaustive import (
    connected_graph_catalog,
    enumerate_cases,
    labeled_connected_graphs,
    run_exhaustive,
)
from minplus.scenarios import all_zero_config, corrupted_config, random_config

from _oracles import floyd_warshall, is_parent_spanning_tree

SWEEP_DAEMON = DaemonPolicy(kind=DISTRIBUTED, fairness=RANDOM)


def test_labeled_enumeration_counts():
    # Known counts of labeled connected graphs.
    assert sum(1 for _ in labeled_connected_graphs(1)) == 1
    assert sum(1 for _ in labeled_connected_graphs(2)) == 1
    assert sum(1 for _ in labeled_connected_graphs(3)) == 4
    assert sum(1 for _ in labeled_connected_graphs(4)) == 38
    assert sum(1 for _ in labeled_connected_graphs(5)) == 728  # OEIS A001187


def test_catalog_counts_by_isomorphism_class():
    counts = {}
    for n, _ in connected_graph_catalog(7):
        counts[n] = counts.get(n, 0) + 1
    assert counts == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}  # OEIS A001349


@functools.lru_cache(maxsize=None)
def networkx_catalog():
    """The n <= 7 catalog as networkx builds it: every atlas graph with at
    least one node that nx.is_connected accepts, edges as sorted (min, max)
    pairs."""
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    return [
        (g.number_of_nodes(), sorted((min(u, v), max(u, v)) for u, v in g.edges()))
        for g in graph_atlas_g()
        if g.number_of_nodes() >= 1 and nx.is_connected(g)
    ]


@pytest.mark.parametrize("n_max", range(1, 8))
def test_catalog_equals_the_networkx_atlas(n_max):
    # The case number seeds each random start and the labels are printed,
    # so the sweep's output pins this exact list, order and edge lists.
    catalog = connected_graph_catalog(n_max)
    assert catalog == [g for g in networkx_catalog() if g[0] <= n_max]
    assert catalog == connected_graph_catalog(7)[: len(catalog)]


def test_the_catalog_does_not_import_networkx():
    # Importing networkx costs more than reading the catalog, so only its
    # data file is read.  This checks a fresh interpreter, since this one
    # may have imported networkx already.
    src = str(Path(minplus.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from minplus.exhaustive import connected_graph_catalog\n"
        "assert len(connected_graph_catalog(5)) == 31\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))\n"
    )
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


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


def test_an_empty_fault_free_verdict_is_quiescence_on_the_distance_tree():
    # The sweep judges fault-free runs by violations alone; on each of them
    # an empty verdict must mean what a direct check of the final
    # configuration says.  Same daemon, initial configurations, random
    # stream and seed as run_exhaustive(4, 0, seed=0).
    for case, (topo, fm) in enumerate(enumerate_cases(4, 0), start=1):
        n, root = topo.process_count, topo.root
        dist = floyd_warshall(n, topo.edges)[root]
        rng = random.Random(case)
        inits = [all_zero_config(topo), corrupted_config(topo, fm), random_config(topo, rng)]
        for init in inits:
            stop = StopCriterion(max_steps=step_budget(topo))
            ex = run(topo, fm, init, SWEEP_DAEMON, Silent(), stop, seed=0)
            assert violations(ex) == [], (topo.edges, root, init)
            final = ex.final()
            assert [s.level for s in final] == dist
            parents = [s.prnt for s in final]
            assert is_parent_spanning_tree(n, topo.edges, root, parents)
            assert all(dist[p] == dist[v] - 1 for v, p in enumerate(parents) if v != root)
            assert enabled_set(topo, fm, final) == frozenset()


def test_a_cut_fault_free_run_is_never_contained():
    topo, fm = build(parse_scenario("path n=4"))
    ex = run(
        topo, fm, corrupted_config(topo, fm), SWEEP_DAEMON, Silent(), StopCriterion(max_steps=1)
    )
    assert ex.step_count == 1
    assert [v.kind for v in violations(ex)] == ["never_contained"]


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
