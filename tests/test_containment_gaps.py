"""Pinned corner cases where the per-process guarantees thin out.

Both cases are deterministic, minimal, and kept here so the behavior is
documented and stable: the simulator reproduces them exactly.

1. A frontier process whose every neighbor is itself frontier (a "chained"
   frontier) can be forced to change state twice from a contained
   configuration even though its degree is one: once on its neighbor's
   stale level, once more when that neighbor settles.  The per-process
   activation bound therefore starts at the first *strongly* contained
   configuration, where the chained frontier is already correct.  The claw
   execution is built from three ``step`` calls, one activation each, so
   every one is checked against the guard.  It stays within the bound
   counted from strong containment, and the bound checkers
   (`minplus.violations`, which `minplus run --check-bounds` and
   `minplus exhaustive` report from) count from there too.

2. A Byzantine process frozen at level 0 with a non-bottom parent is a
   trap: neighbors that adopt it become locally consistent (disabled
   forever) while the specification predicate stays false, because the
   parent chain never reaches a valid tree root.  Strong containment is
   then unreachable, although strict containment still holds; `minplus
   exhaustive` reports this case from n=4 on.
"""

from minplus import (
    DISTRIBUTED,
    RANDOM,
    DaemonPolicy,
    Execution,
    ProcState,
    Silent,
    StepRecord,
    StopCriterion,
    Topology,
    activation_counts,
    compute_containment_areas,
    containment_violations,
    enabled_set,
    is_contained,
    is_strongly_contained,
    make_fault_model,
    measure,
    run,
    spec_holds,
    step,
    verify_replay,
    violations,
)

BOT = None


def claw_with_byzantine_leaf():
    # Root and Byzantine process are both leaves of a degree-3 hub.
    topo = Topology.from_edges(4, 0, [(0, 1), (1, 2), (1, 3)])
    return topo, make_fault_model(topo, [3])


class TestChainedFrontierActivations:
    def test_the_claw_has_a_chained_frontier(self):
        topo, fm = claw_with_byzantine_leaf()
        areas = compute_containment_areas(topo, fm)
        assert areas.frontier == {1, 2}
        assert areas.strictly_near == frozenset()
        shielded = set(topo.processes()) - areas.near - fm.byzantine
        assert shielded == {0}
        assert not any(u in shielded for u in topo.neighbors[2])  # chained

    def claw_run(self):
        # Processes 2, 1, 2 act in turn and the Byzantine leaf stays silent;
        # ``step`` rejects each activation of a disabled process.
        topo, fm = claw_with_byzantine_leaf()
        cfg = (ProcState(BOT, 0), ProcState(0, 4), ProcState(1, 4), ProcState(BOT, 0))
        daemon = DaemonPolicy(DISTRIBUTED, RANDOM)
        ex = Execution(topo, fm, daemon, 0, Silent().name, configs=[cfg])
        for v in (2, 1, 2):
            ex.configs.append(step(topo, fm, ex.configs[-1], {v}))
            ex.steps.append(StepRecord(activated=frozenset({v}), byz_writes=()))
        assert verify_replay(ex) is None
        return ex

    def test_two_forced_activations_from_a_contained_configuration(self):
        ex = self.claw_run()
        topo, fm = ex.topo, ex.fm
        areas = compute_containment_areas(topo, fm)
        assert is_contained(topo, fm, ex.configs[0], areas)
        # First action tracks the hub's stale level, second its settled one.
        assert ex.configs[1][2] == ProcState(1, 5)
        assert ex.configs[3][2] == ProcState(1, 2)
        acts = activation_counts(ex, from_index=0)
        assert acts[2] == 2 > topo.degree(2)
        # Strict containment is untouched throughout.
        assert containment_violations(ex, 0, areas.near) == []

    def test_within_the_bound_from_strong_containment(self):
        ex = self.claw_run()
        topo, fm = ex.topo, ex.fm
        areas = compute_containment_areas(topo, fm)
        # The start is contained but not strongly contained: the chained
        # frontier process 2 is still converging there.
        assert is_contained(topo, fm, ex.configs[0], areas)
        assert not is_strongly_contained(topo, fm, ex.configs[0], areas)
        m = measure(ex)
        assert m.first_strongly_contained == 3
        assert activation_counts(ex, from_index=3)[2] == 0
        assert violations(ex, m, areas) == []

    def test_settles_for_good_afterwards(self):
        topo, fm = claw_with_byzantine_leaf()
        cfg = (ProcState(BOT, 0), ProcState(3, 1), ProcState(1, 2), ProcState(BOT, 0))
        assert enabled_set(topo, fm, cfg) == frozenset()


class TestDeceptiveFrozenByzantine:
    def triangle(self):
        topo = Topology.from_edges(3, 0, [(0, 1), (1, 2), (0, 2)])
        return topo, make_fault_model(topo, [2])

    def test_level_zero_with_a_parent_is_a_trap(self):
        topo, fm = self.triangle()
        # Process 1 hangs off the frozen Byzantine process: locally the
        # min+1 conditions hold, so it is disabled, but no tree path exists.
        cfg = (ProcState(BOT, 0), ProcState(2, 1), ProcState(1, 0))
        assert enabled_set(topo, fm, cfg) == frozenset()
        assert not spec_holds(topo, fm, cfg, 1)

    def test_strong_containment_unreachable_while_strict_holds(self):
        topo, fm = self.triangle()
        cfg = (ProcState(BOT, 0), ProcState(2, 1), ProcState(1, 0))
        ex = run(
            topo,
            fm,
            cfg,
            DaemonPolicy(),
            Silent(),
            StopCriterion(max_steps=200),
        )
        assert ex.step_count == 0  # nothing is enabled, nothing ever moves
        m = measure(ex)
        assert m.first_contained == 0
        assert m.first_strongly_contained is None

    def test_an_honest_root_state_releases_the_trap(self):
        topo, fm = self.triangle()
        cfg = (ProcState(BOT, 0), ProcState(2, 1), ProcState(BOT, 0))
        # With the Byzantine process actually looking like a root, the same
        # neighbor state is a legitimate tree path.
        assert spec_holds(topo, fm, cfg, 1)
        m = measure(
            run(topo, fm, cfg, DaemonPolicy(), Silent(), StopCriterion(max_steps=10))
        )
        assert m.first_strongly_contained == 0
