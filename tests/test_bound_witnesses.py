"""Two six-process runs that come nearest the bounds `violations` checks.

After strong containment, `violations` checks three bounds: the disruption
count against 2m, each change count outside `strictly_near` against the
maximum degree, and each frontier process's activations against its degree.
At five processes or fewer no run the checks see exceeds 2, 1 and 1, so
constants in place of the bounds would pass them all.  These two runs
exceed those constants and stay within the bounds:

- witness A makes 3 disruptions, against 2m = 14;
- in witness B, frontier process 4, of degree 3 (the maximum degree),
  changes twice and acts twice.

Each starts from the quiescent configuration that a silent synchronous run
from all-zero reaches, which is strongly contained, and runs 400 steps.
"""

from minplus import (
    CENTRAL,
    DISTRIBUTED,
    RANDOM,
    ROUND_ROBIN,
    SYNCHRONOUS,
    DaemonPolicy,
    Oscillator,
    Silent,
    StopCriterion,
    Topology,
    activation_counts,
    all_zero_config,
    change_counts,
    compute_containment_areas,
    enabled_set,
    make_fault_model,
    measure,
    run,
    step_budget,
    violations,
)


def witness(edges, root, byz, daemon, adversary, seed):
    topo = Topology.from_edges(6, root, edges)
    fm = make_fault_model(topo, byz)
    quiet = run(
        topo,
        fm,
        all_zero_config(topo),
        DaemonPolicy(SYNCHRONOUS, ROUND_ROBIN),
        Silent(),
        StopCriterion(max_steps=step_budget(topo)),
    )
    assert enabled_set(topo, fm, quiet.final()) == frozenset()
    ex = run(topo, fm, quiet.final(), daemon, adversary, StopCriterion(max_steps=400), seed=seed)
    assert ex.step_count == 400
    areas = compute_containment_areas(topo, fm)
    return ex, areas, measure(ex, areas)


def test_witness_a_disrupts_three_times():
    edges = [(0, 2), (1, 2), (1, 4), (2, 3), (2, 5), (3, 4), (4, 5)]
    ex, areas, m = witness(edges, 4, [2], DaemonPolicy(CENTRAL, ROUND_ROBIN), Oscillator(3), 5)
    assert m.first_strongly_contained == 0
    assert (m.disruption_count, 2 * ex.topo.edge_count) == (3, 14)
    assert areas.frontier == frozenset({1, 3, 5})
    changes, acts = change_counts(ex, 0), activation_counts(ex, 0)
    assert [(changes[v], acts[v]) for v in (1, 3, 5)] == [(1, 1)] * 3
    assert violations(ex, m, areas) == []


def test_witness_b_moves_a_frontier_process_twice():
    edges = [(0, 4), (0, 5), (1, 3), (1, 4), (2, 3), (2, 4)]
    ex, areas, m = witness(edges, 5, [3], DaemonPolicy(DISTRIBUTED, RANDOM), Oscillator(2), 1)
    topo = ex.topo
    assert m.first_strongly_contained == 0
    assert 4 in areas.frontier and 4 not in areas.strictly_near
    assert topo.degree(4) == topo.max_degree == 3
    assert change_counts(ex, 0)[4] == activation_counts(ex, 0)[4] == 2
    assert violations(ex, m, areas) == []
