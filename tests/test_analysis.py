import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minplus import (
    AnalysisError,
    DaemonPolicy,
    Execution,
    Oscillator,
    ProcState,
    RandomWrites,
    Silent,
    StabilizationMetrics,
    StepRecord,
    StopCriterion,
    Topology,
    Violation,
    activation_counts,
    anchor_distance,
    change_counts,
    compute_containment_areas,
    containment_violations,
    enabled_set,
    floor_closure_violations,
    hexagon_topology,
    is_area_legitimate,
    is_area_stable,
    is_contained,
    is_enabled,
    is_strongly_contained,
    level_floor_holds,
    line_topology,
    make_fault_model,
    measure,
    metrics_csv,
    metrics_row,
    radius_area,
    replay_strong_impossibility,
    replay_ta_strong_impossibility,
    run,
    segment_disruptions,
    spec_holds,
    step,
    step_budget,
    to_dot,
    trace_text,
    violations,
)
import minplus.analysis
import minplus.scheduler
from minplus.scenarios import corrupted_config, random_config

from _oracles import (
    activation_tally,
    area_stable,
    change_tally,
    disruptions,
    first_index,
    floor_regressions,
    floyd_warshall,
    random_connected_edges,
    step_changes,
    step_lines,
)

BOT = None


def path_case(n, byz=()):
    topo = Topology.from_edges(n, 0, [(i, i + 1) for i in range(n - 1)])
    return topo, make_fault_model(topo, byz)


def budget(steps):
    """Within the block, every stability check tries ``steps`` steps."""
    return mock.patch.object(minplus.analysis, "step_budget", lambda topo: steps)


def hexagon_two_sided():
    return (
        ProcState(BOT, 0),
        ProcState(0, 1),
        ProcState(0, 1),
        ProcState(5, 1),
        ProcState(5, 1),
        ProcState(BOT, 0),
    )


def hexagon_tree():
    return (
        ProcState(BOT, 0),
        ProcState(0, 1),
        ProcState(0, 1),
        ProcState(1, 2),
        ProcState(2, 2),
        ProcState(3, 3),
    )


def exact_bfs_forest(topo, fm):
    """Levels equal the distance to the nearest of root and Byzantine set,
    parents point one level down; roots of the forest hold (bottom, 0)."""
    states = []
    for v in topo.processes():
        d = anchor_distance(topo, fm, v)
        if d == 0:
            states.append(ProcState(BOT, 0))
        else:
            prnt = next(
                q for q in topo.neighbors[v] if anchor_distance(topo, fm, q) == d - 1
            )
            states.append(ProcState(prnt, d))
    return tuple(states)


class TestSpecHolds:
    def test_root_at_rest(self):
        topo, fm = path_case(3)
        assert spec_holds(topo, fm, (ProcState(BOT, 0), ProcState(0, 1), ProcState(1, 2)), 0)

    def test_root_rejects_anything_else(self):
        topo, fm = path_case(2)
        assert not spec_holds(topo, fm, (ProcState(BOT, 1), ProcState(0, 1)), 0)
        assert not spec_holds(topo, fm, (ProcState(1, 0), ProcState(0, 1)), 0)

    def test_path_through_the_byzantine_root_counts(self):
        topo, fm = hexagon_topology()
        assert spec_holds(topo, fm, hexagon_two_sided(), 3)

    def test_level_mismatch_breaks_the_path(self):
        topo, fm = path_case(3)
        cfg = (ProcState(BOT, 0), ProcState(0, 1), ProcState(1, 5))
        assert not spec_holds(topo, fm, cfg, 2)

    def test_parent_must_hold_the_neighborhood_minimum(self):
        topo, fm = hexagon_topology()
        # v' hangs off u' at level 2, but its other neighbor b sits at 0.
        cfg = (
            ProcState(BOT, 0),
            ProcState(0, 1),
            ProcState(0, 1),
            ProcState(5, 1),
            ProcState(2, 2),
            ProcState(BOT, 0),
        )
        assert not spec_holds(topo, fm, cfg, 4)

    def test_non_root_bottom_is_illegitimate(self):
        topo, fm = path_case(3)
        assert not spec_holds(topo, fm, (ProcState(BOT, 0), ProcState(BOT, 0), ProcState(1, 1)), 1)

    def test_parent_cycle_is_illegitimate(self):
        topo, fm = path_case(4)
        cfg = (ProcState(BOT, 0), ProcState(2, 1), ProcState(1, 2), ProcState(2, 3))
        assert not spec_holds(topo, fm, cfg, 3)

    def test_chain_must_start_at_root_or_byzantine(self):
        topo, fm = path_case(4)
        cfg = (ProcState(BOT, 0), ProcState(BOT, 0), ProcState(1, 1), ProcState(2, 2))
        assert not spec_holds(topo, fm, cfg, 3)


class TestLevelFloor:
    def test_zero_floor_is_vacuous(self):
        topo, fm = path_case(4, byz=[3])
        rng = random.Random(0)
        for _ in range(20):
            assert level_floor_holds(topo, fm, random_config(topo, rng), 0)

    def test_two_sided_line_meets_the_diameter_floor(self):
        topo, fm = path_case(6, byz=[5])
        cfg = tuple(
            ProcState(p, l)
            for p, l in [(BOT, 0), (0, 1), (1, 2), (4, 2), (5, 1), (BOT, 0)]
        )
        # Levels equal the distance to the nearest chain end everywhere.
        assert level_floor_holds(topo, fm, cfg, topo.diameter)

    def test_low_level_far_from_anchors_fails(self):
        topo, fm = path_case(5, byz=[4])
        cfg = (ProcState(BOT, 0), ProcState(0, 1), ProcState(1, 0), ProcState(4, 1), ProcState(BOT, 0))
        assert anchor_distance(topo, fm, 2) == 2
        assert not level_floor_holds(topo, fm, cfg, 1)

    def test_anchor_distance_matches_distance_oracle(self):
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randint(2, 10)
            topo = Topology.from_edges(n, rng.randrange(n), random_connected_edges(rng, n))
            pool = [v for v in topo.processes() if v != topo.root]
            fm = make_fault_model(topo, rng.sample(pool, rng.randint(0, min(3, len(pool)))))
            dist = floyd_warshall(n, topo.edges)
            for v in topo.processes():
                want = min(dist[a][v] for a in fm.byzantine | {topo.root})
                assert anchor_distance(topo, fm, v) == want

    def test_anchor_distance_rejects_invalid_process_ids(self):
        # -1 would otherwise index process 5 from the end, and 6 overruns.
        topo, fm = line_topology(1)
        for v in (-1, 6):
            with pytest.raises(ValueError, match=f"invalid process id {v}"):
                anchor_distance(topo, fm, v)

    def test_rejects_out_of_range_depth(self):
        topo, fm = path_case(3)
        with pytest.raises(ValueError):
            level_floor_holds(topo, fm, exact_bfs_forest(topo, fm), 99)


class TestAreaLegitimate:
    def test_exact_tree_with_empty_area(self):
        topo, fm = path_case(5)
        assert is_area_legitimate(topo, fm, exact_bfs_forest(topo, fm), frozenset())

    def test_hexagon_two_sided_outside_strictly_near(self):
        topo, fm = hexagon_topology()
        areas = compute_containment_areas(topo, fm)
        assert is_area_legitimate(topo, fm, hexagon_two_sided(), areas.strictly_near)

    def test_corrupted_start_is_not_legitimate(self):
        topo, fm = hexagon_topology()
        areas = compute_containment_areas(topo, fm)
        assert not is_area_legitimate(
            topo, fm, corrupted_config(topo, fm), areas.strictly_near
        )

    def test_rejects_byzantine_area_members(self):
        topo, fm = hexagon_topology()
        with pytest.raises(ValueError):
            is_area_legitimate(topo, fm, hexagon_two_sided(), {5})


class TestAreaStable:
    def test_settled_forest_is_stable(self):
        topo, fm = path_case(5, byz=[4])
        areas = compute_containment_areas(topo, fm)
        cfg = exact_bfs_forest(topo, fm)
        assert is_area_stable(topo, fm, cfg, areas.near) is True

    def test_enabled_watch_process_means_unstable(self):
        topo, fm = path_case(5, byz=[4])
        cfg = (ProcState(BOT, 0), ProcState(BOT, 9), ProcState(1, 2), ProcState(4, 1), ProcState(BOT, 0))
        assert is_area_stable(topo, fm, cfg, {3}) is False

    def test_hexagon_tree_is_stable_for_strictly_near(self):
        topo, fm = hexagon_topology()
        areas = compute_containment_areas(topo, fm)
        assert is_area_stable(topo, fm, hexagon_tree(), areas.strictly_near) is True

    def test_pending_inside_churn_with_no_budget_is_indeterminate(self):
        topo, fm = path_case(6, byz=[5])
        reset = tuple(
            ProcState(p, l)
            for p, l in [(BOT, 0), (0, 1), (1, 2), (2, 3), (3, 4), (BOT, 0)]
        )
        with budget(0):
            assert is_area_stable(topo, fm, reset, {4}) is None
        # With a real budget the frozen continuation reaches process 3.
        assert is_area_stable(topo, fm, reset, {4}) is False

    def test_counting_up_past_the_default_budget_is_undecided(self):
        # Processes 2 and 3 chase each other's levels up towards the
        # Byzantine level 10**6, far beyond step_budget's 600 steps, while
        # the root outside the area never moves.
        topo, fm = path_case(4, byz=[1])
        cfg = (ProcState(BOT, 0), ProcState(BOT, 10**6), ProcState(3, 0), ProcState(2, 1))
        assert is_area_stable(topo, fm, cfg, {2, 3}) is None

    def test_negative_budget_is_rejected(self):
        # It used to return None, as if a budget of 0 had run out.
        topo, fm = path_case(6, byz=[5])
        reset = tuple(
            ProcState(p, l)
            for p, l in [(BOT, 0), (0, 1), (1, 2), (2, 3), (3, 4), (BOT, 0)]
        )
        with budget(-1), pytest.raises(ValueError, match="max_steps"):
            is_area_stable(topo, fm, reset, {4})


def stability_case(rng):
    """A small connected graph with random Byzantine processes, levels in
    0..D+2, parents bottom or any process, an area and a budget."""
    n = rng.randint(2, 7)
    topo = Topology.from_edges(n, 0, random_connected_edges(rng, n))
    fm = make_fault_model(topo, {v for v in range(1, n) if rng.random() < 0.3})
    cfg = tuple(
        ProcState(rng.choice([BOT, *range(n)]), rng.randint(0, topo.diameter + 2))
        for _ in range(n)
    )
    keep = rng.random()
    area = {v for v in topo.processes() if fm.is_correct(v) and rng.random() < keep}
    return topo, fm, cfg, area, rng.choice([0, 1, 2, None])


def check_area_stability(case):
    topo, fm, cfg, area, rounds = case
    if rounds is None:
        got = is_area_stable(topo, fm, cfg, area)
        rounds = step_budget(topo)
    else:
        with budget(rounds):
            got = is_area_stable(topo, fm, cfg, area)
    assert got is area_stable(topo, fm.byzantine, cfg, area, rounds)
    return got


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_area_stability_agrees_with_the_reference(rng):
    check_area_stability(stability_case(rng))


def test_area_stability_cases_reach_every_outcome():
    outcomes = {check_area_stability(stability_case(random.Random(seed))) for seed in range(200)}
    assert outcomes == {True, False, None}


class TestContainmentBasins:
    def test_exact_forest_is_contained(self):
        for byz in ([4], [2, 4]):
            topo, fm = path_case(5, byz=byz)
            cfg = exact_bfs_forest(topo, fm)
            assert is_contained(topo, fm, cfg)
            assert is_strongly_contained(topo, fm, cfg)

    def test_strongly_contained_implies_contained(self):
        rng = random.Random(17)
        hits = 0
        for _ in range(400):
            n = rng.randint(3, 8)
            topo = Topology.from_edges(n, 0, random_connected_edges(rng, n))
            pool = [v for v in range(1, n)]
            fm = make_fault_model(topo, rng.sample(pool, rng.randint(1, min(2, len(pool)))))
            cfg = rng.choice(
                [random_config(topo, rng), exact_bfs_forest(topo, fm)]
            )
            if is_strongly_contained(topo, fm, cfg):
                hits += 1
                assert is_contained(topo, fm, cfg)
        assert hits > 50  # the implication was actually exercised

    def test_floor_violation_blocks_membership(self):
        topo, fm = path_case(5, byz=[4])
        cfg = exact_bfs_forest(topo, fm)
        low = cfg[:2] + (ProcState(cfg[2].prnt, 0),) + cfg[3:]
        assert not is_contained(topo, fm, low)


def counted(monkeypatch, name):
    # The argument tuples of every call to ``minplus.analysis.<name>``.
    calls = []
    fn = getattr(minplus.analysis, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(minplus.analysis, name, wrapper)
    return calls


class TestSegments:
    def test_no_watch_changes_no_segments(self):
        topo, fm = path_case(5)
        ex = run(
            topo,
            fm,
            exact_bfs_forest(topo, fm),
            DaemonPolicy(),
            Silent(),
            StopCriterion(max_steps=10),
        )
        assert segment_disruptions(ex, frozenset()) == []

    def test_hexagon_replay_disrupts_the_left_out_process(self):
        ex = replay_ta_strong_impossibility({3}, cycles=2)
        segments = segment_disruptions(ex, {3})
        assert len(segments) >= 2
        for seg in segments:
            assert seg.changed_processes == {4}
            assert seg.start_index < seg.end_index

    def test_line_replay_disrupts_beyond_the_radius(self):
        c = 1
        ex = replay_strong_impossibility(c=c, cycles=2)
        from minplus import radius_area

        area = radius_area(ex.topo, ex.fm, c)
        segments = segment_disruptions(ex, area)
        assert len(segments) >= 2
        assert all(c + 2 in seg.changed_processes for seg in segments)

    def test_segments_are_disjoint_and_ordered(self):
        ex = replay_ta_strong_impossibility({4}, cycles=3)
        segments = segment_disruptions(ex, {4})
        for a, b in zip(segments, segments[1:]):
            assert a.end_index <= b.start_index

    def test_indeterminate_boundary_raises(self):
        ex = replay_strong_impossibility(c=1, cycles=1)
        with budget(0), pytest.raises(AnalysisError) as info:
            segment_disruptions(ex, {4})
        assert info.value.step_index == 3
        # From a later configuration the index still counts from the start
        # of the whole execution.
        with budget(0), pytest.raises(AnalysisError) as info:
            segment_disruptions(ex, {4}, from_index=4)
        assert info.value.step_index == 9

    def test_the_area_is_checked_once_per_call(self, monkeypatch):
        # Every candidate boundary reads the one validated area and watch
        # set that segmentation builds at its start.
        watched = counted(monkeypatch, "_watch")
        ex = replay_ta_strong_impossibility({3}, cycles=5)
        assert len(segment_disruptions(ex, {3})) >= 5
        assert len(watched) == 1


class TestCounts:
    def test_quiescent_suffix_counts_zero(self):
        topo, fm = path_case(5)
        ex = run(
            topo,
            fm,
            corrupted_config(topo, fm),
            DaemonPolicy(),
            Silent(),
            StopCriterion(max_steps=step_budget(topo)),
            seed=2,
        )
        acts = activation_counts(ex, from_index=ex.step_count)
        assert set(acts.values()) == {0}

    def test_frontier_activations_bounded_by_degree(self):
        # Process 2 sits exactly between root and the Byzantine end.
        topo, fm = path_case(5, byz=[4])
        areas = compute_containment_areas(topo, fm)
        assert areas.frontier == {2}
        ex = run(
            topo,
            fm,
            corrupted_config(topo, fm),
            DaemonPolicy(),
            Oscillator(1),
            StopCriterion(max_steps=600),
            seed=9,
        )
        first = next(
            i for i, cfg in enumerate(ex.configs) if is_contained(topo, fm, cfg)
        )
        acts = activation_counts(ex, from_index=first)
        assert acts[2] <= topo.degree(2) == 2

    def test_change_counts_window(self):
        topo, fm = path_case(4)
        ex = run(
            topo,
            fm,
            corrupted_config(topo, fm),
            DaemonPolicy("synchronous", "round_robin"),
            Silent(),
            StopCriterion(max_steps=50),
        )
        total = change_counts(ex)
        first = {v: int(ex.configs[0][v] != ex.configs[1][v]) for v in total}
        suffix = change_counts(ex, 1)
        assert any(first.values())
        assert all(total[v] == first[v] + suffix[v] for v in total)


def fifty_steps():
    topo, fm = path_case(5, byz=[4])
    ex = run(
        topo,
        fm,
        corrupted_config(topo, fm),
        DaemonPolicy(),
        Oscillator(1),
        StopCriterion(max_steps=50),
    )
    assert ex.step_count == 50
    return ex


class TestIndexBounds:
    """A configuration index outside the run is an error, never a window
    cut to fit."""

    def test_change_counts_from_past_the_end(self):
        with pytest.raises(ValueError, match=r"from_index=80 outside 0\.\.50"):
            change_counts(fifty_steps(), 80)

    def test_activation_counts_from_past_the_end(self):
        with pytest.raises(ValueError, match=r"from_index=80 outside 0\.\.50"):
            activation_counts(fifty_steps(), 80)

    def test_negative_from_index(self):
        ex = fifty_steps()
        areas = compute_containment_areas(ex.topo, ex.fm)
        for call in (
            lambda: activation_counts(ex, -1),
            lambda: change_counts(ex, -1),
            lambda: containment_violations(ex, -1, areas.near),
        ):
            with pytest.raises(ValueError, match=r"from_index=-1 outside 0\.\.50"):
                call()

    def test_containment_violations_from_past_the_end(self):
        ex = fifty_steps()
        with pytest.raises(ValueError, match=r"from_index=51 outside 0\.\.50"):
            containment_violations(ex, 51, frozenset())

    def test_the_bounds_themselves_are_accepted(self):
        ex = fifty_steps()
        assert set(change_counts(ex, 50).values()) == {0}
        assert set(activation_counts(ex, 50).values()) == {0}
        assert containment_violations(ex, 50, frozenset()) == []

    def test_a_step_past_the_last_configuration_is_an_error(self):
        # Thirty steps but only thirty configurations: the last step has no
        # configuration after it.  Every pass refuses the execution, and so
        # does the codec, whose trace would not load.
        topo, fm = path_case(4, byz=[3])
        ex = run(
            topo,
            fm,
            corrupted_config(topo, fm),
            DaemonPolicy(),
            Oscillator(1),
            StopCriterion(max_steps=30),
        )
        ex.configs.pop()
        areas = compute_containment_areas(topo, fm)
        for call in (
            measure,
            violations,
            floor_closure_violations,
            activation_counts,
            change_counts,
            lambda ex: segment_disruptions(ex, areas.near),
            lambda ex: containment_violations(ex, 0, areas.near),
            trace_text,
        ):
            with pytest.raises(ValueError, match="step 30 has no configuration after it"):
                call(ex)
        # The replay check builds no index: it names the first unpaired step.
        assert minplus.scheduler.verify_replay(ex) == 30


class TestMeasure:
    def test_started_contained_means_index_zero(self):
        topo, fm = path_case(5, byz=[4])
        ex = run(
            topo,
            fm,
            exact_bfs_forest(topo, fm),
            DaemonPolicy(),
            Oscillator(1),
            StopCriterion(max_steps=200),
            seed=4,
        )
        m = measure(ex)
        assert m.first_contained == 0
        assert m.first_strongly_contained == 0

    def test_ordering_and_bounds(self):
        topo, fm = hexagon_topology()
        ex = run(
            topo,
            fm,
            corrupted_config(topo, fm),
            DaemonPolicy(),
            Oscillator(1),
            StopCriterion(max_steps=1000),
            seed=1,
        )
        m = measure(ex)
        assert m.first_contained is not None
        assert m.first_strongly_contained >= m.first_contained
        assert m.disruption_count <= 2 * topo.edge_count
        areas = compute_containment_areas(topo, fm)
        for v, k in m.changes_by_process.items():
            if v not in areas.strictly_near:
                assert k <= topo.max_degree

    def test_the_anchor_row_is_built_once(self, monkeypatch):
        # Both basins of every distinct configuration read one row of
        # distances to the nearest of the root and the Byzantine set.
        topo, fm = hexagon_topology()
        areas = compute_containment_areas(topo, fm)
        ex = run(
            topo,
            fm,
            corrupted_config(topo, fm),
            DaemonPolicy(),
            Oscillator(1),
            StopCriterion(max_steps=1000),
            seed=1,
        )
        rows = counted(monkeypatch, "_nearest")
        m = measure(ex, areas)
        assert m.first_strongly_contained >= m.first_contained > 0
        assert rows == [(topo, fm.byzantine | {topo.root})]

    def test_never_contained_reports_none(self):
        topo, fm = path_case(5, byz=[4])
        ex = run(
            topo,
            fm,
            corrupted_config(topo, fm),
            DaemonPolicy(),
            Oscillator(1),
            StopCriterion(max_steps=0),
        )
        m = measure(ex)
        assert m.first_contained is None
        assert m.first_strongly_contained is None
        assert m.disruption_count is None
        assert m.changes_by_process == {}


class TestContainmentLongRun:
    def test_shielded_processes_never_move_again(self):
        topo, fm = path_case(7, byz=[6])
        areas = compute_containment_areas(topo, fm)
        ex = run(
            topo,
            fm,
            corrupted_config(topo, fm),
            DaemonPolicy(),
            Oscillator(1),
            StopCriterion(max_steps=1500),
            seed=3,
        )
        first = next(
            i for i, cfg in enumerate(ex.configs) if is_contained(topo, fm, cfg)
        )
        assert containment_violations(ex, first, areas.near) == []
        # Legitimacy outside the near area survives every later write.
        for cfg in ex.configs[first:]:
            assert is_area_legitimate(topo, fm, cfg, areas.near)

    def test_frontier_processes_settle_or_get_activated(self):
        topo, fm = path_case(5, byz=[4])
        areas = compute_containment_areas(topo, fm)
        ex = run(
            topo,
            fm,
            corrupted_config(topo, fm),
            DaemonPolicy(),
            Oscillator(1),
            StopCriterion(max_steps=800),
            seed=6,
        )
        first = next(
            i for i, cfg in enumerate(ex.configs) if is_contained(topo, fm, cfg)
        )
        acts = activation_counts(ex, from_index=first)
        for v in areas.frontier:
            settles = any(
                all(spec_holds(topo, fm, cfg, v) for cfg in ex.configs[i:])
                for i in range(first, len(ex.configs))
            )
            assert settles or acts[v] > 0


def _floor_respecting_config(topo, fm, d, rng):
    states = []
    for v in topo.processes():
        floor = min(d, anchor_distance(topo, fm, v))
        prnt = rng.choice([None] + list(topo.neighbors[v]))
        states.append(ProcState(prnt, floor + rng.randint(0, 3)))
    return tuple(states)


@st.composite
def closure_instances(draw):
    n = draw(st.integers(2, 9))
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    topo = Topology.from_edges(n, 0, random_connected_edges(rng, n))
    byz = draw(
        st.sets(st.integers(1, n - 1), max_size=min(3, n - 1))
    )
    fm = make_fault_model(topo, byz)
    d = draw(st.integers(0, topo.diameter))
    cfg = _floor_respecting_config(topo, fm, d, rng)
    enabled = sorted(enabled_set(topo, fm, cfg))
    activated = draw(st.sets(st.sampled_from(enabled)) if enabled else st.just(set()))
    writes = {}
    for b in byz:
        if draw(st.booleans()):
            writes[b] = ProcState(
                draw(st.sampled_from([None] + list(topo.neighbors[b]))),
                draw(st.integers(0, 2 * topo.diameter + 2)),
            )
    return topo, fm, cfg, d, activated, writes


class TestFloorClosure:
    @settings(max_examples=300, deadline=None)
    @given(closure_instances())
    def test_any_legal_step_preserves_the_floor(self, instance):
        topo, fm, cfg, d, activated, writes = instance
        assert level_floor_holds(topo, fm, cfg, d)
        after = step(topo, fm, cfg, activated, writes)
        assert level_floor_holds(topo, fm, after, d)


def _levels_execution(topo, fm, level_seqs):
    configs = [tuple(ProcState(BOT, l) for l in levels) for levels in level_seqs]
    return Execution(topo, fm, DaemonPolicy(), 0, "none", configs=configs)


def _check_against_reference(topo, fm, edges, level_seqs):
    got = floor_closure_violations(_levels_execution(topo, fm, level_seqs))
    want = floor_regressions(
        topo.process_count, edges, topo.root, fm.byzantine, level_seqs
    )
    assert got == want
    return got


@st.composite
def level_sequences(draw):
    n = draw(st.integers(1, 8))
    rng = random.Random(draw(st.integers(0, 10**6)))
    edges = random_connected_edges(rng, n)
    topo = Topology.from_edges(n, 0, edges)
    byz = set()
    if n > 1:
        byz = draw(st.sets(st.integers(1, n - 1), max_size=min(3, n - 1)))
    fm = make_fault_model(topo, byz)
    top = topo.diameter + 1
    seqs = draw(
        st.lists(
            st.lists(st.integers(0, top), min_size=n, max_size=n),
            min_size=1,
            max_size=12,
        )
    )
    return topo, fm, edges, seqs


class TestFloorClosureViolations:
    @settings(max_examples=400, deadline=None)
    @given(level_sequences())
    def test_matches_the_per_depth_reference(self, case):
        _check_against_reference(*case)

    def test_single_process_never_regresses(self):
        topo = Topology.from_edges(1, 0, [])
        fm = make_fault_model(topo, [])
        assert topo.diameter == 0
        assert _check_against_reference(topo, fm, [], [[0], [3], [0]]) == []

    def test_levels_above_their_anchor_never_lower_the_floor(self):
        edges = [(i, i + 1) for i in range(3)]
        topo, fm = path_case(4)
        seqs = [[0, 1, 2, 3], [0, 5, 7, 9], [0, 9, 9, 9], [0, 1, 2, 3]]
        assert _check_against_reference(topo, fm, edges, seqs) == []

    def test_several_depths_regress_at_one_configuration(self):
        edges = [(i, i + 1) for i in range(4)]
        topo, fm = path_case(5, byz=[4])
        # Anchors 0, 1, 2, 1, 0; diameter 4.  Heights: 4, 1, 4, 0, 4.
        seqs = [
            [0, 1, 2, 1, 0],
            [0, 1, 1, 1, 0],
            [0, 6, 6, 6, 0],
            [0, 0, 2, 1, 0],
            [0, 1, 2, 1, 0],
        ]
        got = _check_against_reference(topo, fm, edges, seqs)
        assert got == [(1, 3), (2, 1), (3, 1), (4, 1)]


def hand_made(topo, fm, configs, activated=None):
    """An execution through ``configs``.  Step i activates ``activated[i]``
    when given, else the correct processes it changes; the Byzantine
    processes it changes are its writes."""
    steps = []
    for i, (before, after) in enumerate(zip(configs, configs[1:])):
        changed = [v for v in topo.processes() if before[v] != after[v]]
        acts = (
            activated[i]
            if activated is not None
            else [v for v in changed if fm.is_correct(v)]
        )
        writes = tuple((b, after[b]) for b in changed if b in fm.byzantine)
        steps.append(StepRecord(frozenset(acts), writes))
    return Execution(
        topo, fm, DaemonPolicy(), 0, "hand-made", configs=list(configs), steps=steps
    )


class TestViolations:
    """One hand-made execution per violation kind, checked record for
    record and word for word."""

    def check(self, ex, expected, texts):
        found = violations(ex)
        assert found == expected
        assert [str(v) for v in found] == texts

    def test_floor_regression(self):
        topo, fm = path_case(3)
        tree = (ProcState(BOT, 0), ProcState(0, 1), ProcState(1, 2))
        low = tree[:2] + (ProcState(1, 0),)  # below its anchor distance 2
        self.check(
            hand_made(topo, fm, [tree, low]),
            [
                Violation("floor", step=1, bound=1),
                Violation("floor", step=1, bound=2),
                Violation("shielded", step=1, process=2),
            ],
            [
                "floor regressed at d=1, config 1",
                "floor regressed at d=2, config 1",
                "shielded process 2 changed at step 1",
            ],
        )

    def test_never_contained(self):
        topo, fm = path_case(3)
        zero = (ProcState(BOT, 0),) * 3
        self.check(
            hand_made(topo, fm, [zero]),
            [Violation("never_contained")],
            ["containment never reached"],
        )

    def test_shielded_change(self):
        topo, fm = path_case(3)
        tree = (ProcState(BOT, 0), ProcState(0, 1), ProcState(1, 2))
        off = tree[:2] + (ProcState(1, 3),)
        self.check(
            hand_made(topo, fm, [tree, off]),
            [Violation("shielded", step=1, process=2)],
            ["shielded process 2 changed at step 1"],
        )

    def test_never_strongly_contained(self):
        # The frozen trap: process 1 hangs off a Byzantine process at level
        # 0 with a parent, so the spec fails for it forever.
        topo = Topology.from_edges(3, 0, [(0, 1), (1, 2), (0, 2)])
        fm = make_fault_model(topo, [2])
        trap = (ProcState(BOT, 0), ProcState(2, 1), ProcState(1, 0))
        self.check(
            hand_made(topo, fm, [trap]),
            [Violation("never_strongly_contained")],
            ["strong containment never reached"],
        )

    def test_frontier_activations(self):
        # The claw: 1 and 2 are frontier, 2 has degree 1.  Two activations
        # that rewrite identical values count against the degree bound but
        # are no changes.
        topo = Topology.from_edges(4, 0, [(0, 1), (1, 2), (1, 3)])
        fm = make_fault_model(topo, [3])
        settled = (ProcState(BOT, 0), ProcState(0, 1), ProcState(1, 2))
        settled += (ProcState(BOT, 0),)
        self.check(
            hand_made(topo, fm, [settled] * 3, activated=[{2}, {2}]),
            [Violation("frontier", process=2, observed=2, bound=1)],
            ["frontier process 2 activated 2 times (degree 1)"],
        )

    def test_disruptions_and_changes(self):
        # One edge, so at most 2 disruptions and 1 change a process; process
        # 1 leaves the tree and returns three times.
        topo, fm = path_case(2)
        tree = (ProcState(BOT, 0), ProcState(0, 1))
        off = (ProcState(BOT, 0), ProcState(0, 2))
        ex = hand_made(topo, fm, [tree, off] * 3 + [tree])
        assert measure(ex).disruption_count == 3
        self.check(
            ex,
            [Violation("shielded", step=i, process=1) for i in range(1, 7)]
            + [
                Violation("disruptions", observed=3, bound=2),
                Violation("changes", process=1, observed=6, bound=1),
            ],
            [f"shielded process 1 changed at step {i}" for i in range(1, 7)]
            + [
                "3 disruptions exceed bound 2",
                "process 1 changed 6 times (bound 1)",
            ],
        )

    def test_reads_the_given_metrics(self):
        topo, fm = path_case(2)
        tree = (ProcState(BOT, 0), ProcState(0, 1))
        ex = hand_made(topo, fm, [tree])
        m = measure(ex)
        assert violations(ex, m) == []
        inflated = StabilizationMetrics(
            first_contained=0,
            first_strongly_contained=0,
            disruption_count=5,
            changes_by_process={0: 0, 1: 4},
            max_settled_changes=4,
        )
        assert violations(ex, inflated) == [
            Violation("disruptions", observed=5, bound=2),
            Violation("changes", process=1, observed=4, bound=1),
        ]


def test_one_violations_call_builds_one_index(monkeypatch):
    # measure, the floor pass, the shielded pass and the activation counts
    # all read the index that violations hands them, and measure hands it
    # on to the segmentation and the change counts.
    topo, fm = hexagon_topology()
    ex = run(
        topo,
        fm,
        corrupted_config(topo, fm),
        DaemonPolicy(),
        Oscillator(1),
        StopCriterion(max_steps=1000),
        seed=1,
    )
    assert measure(ex).first_strongly_contained is not None
    built = []
    init = minplus.analysis._Index.__init__

    def counting(self, ex):
        built.append(ex)
        init(self, ex)

    monkeypatch.setattr(minplus.analysis._Index, "__init__", counting)
    calls = {
        name: counted(monkeypatch, name)
        for name in (
            "measure",
            "floor_closure_violations",
            "containment_violations",
            "activation_counts",
            "segment_disruptions",
            "change_counts",
        )
    }
    violations(ex)
    assert built == [ex]
    assert all(len(args) == 1 for args in calls.values())
    handed = {id(args[0][0]) for args in calls.values()}
    assert len(handed) == 1
    assert isinstance(calls["measure"][0][0], minplus.analysis._Index)


# ---------------------------------------------------------------------------
# The passes read each distinct configuration and transition once.  Results
# must not depend on which equal configurations and records share an
# object, and must match the per-step references in _oracles.
# ---------------------------------------------------------------------------

DAEMONS = [
    DaemonPolicy(kind, fairness)
    for kind in ("central", "distributed", "synchronous")
    for fairness in ("round_robin", "random")
]


@st.composite
def small_runs(draw, periodic=False):
    """Short runs on small random graphs; ``periodic`` ones oscillate under
    a daemon whose every step is forced, so most end in a written-out
    cycle."""
    n = draw(st.integers(2, 7))
    rng = random.Random(draw(st.integers(0, 10**6)))
    topo = Topology.from_edges(n, 0, random_connected_edges(rng, n))
    byz = draw(st.sets(st.integers(1, n - 1), min_size=1 if periodic else 0, max_size=2))
    fm = make_fault_model(topo, byz)
    init = draw(st.sampled_from([corrupted_config(topo, fm), random_config(topo, rng)]))
    oscillator = Oscillator(draw(st.integers(1, 4)))
    if periodic:
        adversary = oscillator
        daemon = DaemonPolicy("synchronous", draw(st.sampled_from(["round_robin", "random"])))
    else:
        adversary = draw(
            st.sampled_from([Silent(), oscillator, RandomWrites(draw(st.integers(0, 99)))])
        )
        daemon = draw(st.sampled_from(DAEMONS))
    stop = StopCriterion(max_steps=draw(st.integers(0, 400)))
    return run(topo, fm, init, daemon, adversary, stop, seed=draw(st.integers(0, 999)))


def deinterned(ex):
    """A copy of ``ex`` in which every configuration and every record is a
    fresh object, equal to the original."""
    return Execution(
        ex.topo,
        ex.fm,
        ex.daemon,
        ex.seed,
        ex.adversary_desc,
        configs=[tuple(list(cfg)) for cfg in ex.configs],
        steps=[
            StepRecord(frozenset(set(rec.activated)), tuple(list(rec.byz_writes)))
            for rec in ex.steps
        ],
        meta_extra=ex.meta_extra,
    )


def named_areas(areas):
    return {"near": areas.near, "strictly_near": areas.strictly_near, "none": frozenset()}


def _disruptions_or_error(ex, area, lo):
    try:
        return segment_disruptions(ex, area, from_index=lo)
    except AnalysisError as err:
        return str(err)


def every_pass(ex, areas):
    """The result of every public pass over ``ex``, from the configuration
    indices where they can differ."""
    m = measure(ex, areas)
    out = {
        "measure": m,
        "floor": floor_closure_violations(ex),
        "violations": violations(ex, m, areas),
        "trace": trace_text(ex),
    }
    end = len(ex.steps)
    for lo in {0, end // 2, end, m.first_contained or 0, m.first_strongly_contained or 0}:
        for name, area in named_areas(areas).items():
            out["moves", lo, name] = containment_violations(ex, lo, area)
            out["disruptions", lo, name] = _disruptions_or_error(ex, area, lo)
        out["acts", lo] = activation_counts(ex, lo)
        out["changes", lo] = change_counts(ex, lo)
    return out


def check_against_the_references(ex, areas, results):
    topo, fm, configs = ex.topo, ex.fm, ex.configs
    correct = [v for v in topo.processes() if fm.is_correct(v)]

    def watch(area):
        return [v for v in correct if v not in area]

    def boundary(area):
        def holds(cfg):
            return (
                not any(is_enabled(topo, cfg, v) for v in watch(area))
                and is_area_legitimate(topo, fm, cfg, area)
                and area_stable(topo, fm.byzantine, cfg, area, step_budget(topo)) is True
            )

        return holds

    m = results["measure"]
    first = first_index(configs, lambda cfg: is_contained(topo, fm, cfg, areas))
    assert m.first_contained == first
    if first is not None:
        strong = first_index(
            configs, lambda cfg: is_strongly_contained(topo, fm, cfg, areas), first
        )
        assert m.first_strongly_contained == strong
        if strong is not None:
            assert m.changes_by_process == change_tally(configs, correct, strong)
            settled = areas.strictly_near
            found = disruptions(configs[strong:], watch(settled), boundary(settled))
            assert m.disruption_count == len(found)
    levels = [[state.level for state in cfg] for cfg in configs]
    assert results["floor"] == floor_regressions(
        topo.process_count, topo.edges, topo.root, fm.byzantine, levels
    )
    activated = [rec.activated for rec in ex.steps]
    for key, got in results.items():
        if key[0] == "moves":
            _, lo, name = key
            assert got == step_changes(configs, watch(named_areas(areas)[name]), lo)
        elif key[0] == "acts":
            assert got == activation_tally(activated, correct, key[1])
        elif key[0] == "changes":
            assert got == change_tally(configs, correct, key[1])
        elif key[0] == "disruptions" and not isinstance(got, str):
            _, lo, name = key
            area = named_areas(areas)[name]
            want = disruptions(configs[lo:], watch(area), boundary(area))
            assert [(d.start_index - lo, d.end_index - lo, d.changed_processes) for d in got] == want
    lines = results["trace"].splitlines()
    records = [(rec.activated, rec.byz_writes) for rec in ex.steps]
    assert lines[lines.index("init-end") + 1 : -1] == step_lines(configs, records)


def check_distinct_transitions(ex, areas=None):
    areas = areas or compute_containment_areas(ex.topo, ex.fm)
    copy = deinterned(ex)
    assert len(set(map(id, copy.configs))) == len(copy.configs)
    results = every_pass(ex, areas)
    assert every_pass(copy, areas) == results
    check_against_the_references(ex, areas, results)
    # A repeating tail is proved by identity: break it in the middle of the
    # tail, and the passes must still match the references.
    for tampered in tampered_tails(ex):
        found = every_pass(tampered, areas)
        assert every_pass(deinterned(tampered), areas) == found
        check_against_the_references(tampered, areas, found)
        if tampered.configs == ex.configs and tampered.steps == ex.steps:
            assert found == results


def tampered_tails(ex):
    """Copies of ``ex`` with the middle of its repeating tail (of the whole
    run if it has none) broken three ways: one configuration swapped for an
    equal copy, one for a different configuration, and one record swapped
    for another."""
    start, period, _ = minplus.scheduler._tail((ex.configs, ex.steps))
    end = len(ex.steps)
    mid = min(start, end) + (end - min(start, end)) // 2
    if not 0 < mid < end:
        return []

    def swapped(configs=None, steps=None):
        return Execution(
            ex.topo,
            ex.fm,
            ex.daemon,
            ex.seed,
            ex.adversary_desc,
            configs=configs or list(ex.configs),
            steps=steps or list(ex.steps),
        )

    cfg, rec = ex.configs[mid], ex.steps[mid]
    last = cfg[-1]
    other = cfg[:-1] + (ProcState(last.prnt, last.level + 1),)
    toggled = StepRecord(rec.activated ^ {ex.topo.root}, rec.byz_writes)
    return [
        swapped(configs=ex.configs[:mid] + [tuple(list(cfg))] + ex.configs[mid + 1 :]),
        swapped(configs=ex.configs[:mid] + [other] + ex.configs[mid + 1 :]),
        swapped(steps=ex.steps[:mid] + [toggled] + ex.steps[mid + 1 :]),
    ]


@settings(max_examples=200, deadline=None)
@given(small_runs())
def test_passes_agree_on_interned_and_deinterned_runs(ex):
    check_distinct_transitions(ex)


@settings(max_examples=50, deadline=None)
@given(small_runs(periodic=True))
def test_passes_agree_on_repeating_tails(ex):
    check_distinct_transitions(ex)


@pytest.mark.parametrize("cycles", [1, 3])
def test_passes_agree_on_interned_and_deinterned_replays(cycles):
    line = replay_strong_impossibility(1, cycles)
    check_distinct_transitions(line)
    hexagon = replay_ta_strong_impossibility(frozenset({3}), cycles)
    check_distinct_transitions(hexagon)
    for ex, area in ((line, radius_area(line.topo, line.fm, 1)), (hexagon, {3})):
        found = segment_disruptions(ex, area)
        assert len(found) >= cycles
        assert segment_disruptions(deinterned(ex), area) == found


@settings(max_examples=100, deadline=None)
@given(small_runs())
def test_strong_containment_comes_no_earlier_than_containment(ex):
    # Legitimacy outside strictly_near implies it outside near, so measure
    # may look for the first strongly contained configuration from 0.
    topo, fm = ex.topo, ex.fm
    areas = compute_containment_areas(topo, fm)
    m = measure(ex, areas)
    if m.first_strongly_contained is not None:
        assert m.first_strongly_contained >= m.first_contained
    strong = first_index(ex.configs, lambda cfg: is_strongly_contained(topo, fm, cfg, areas))
    assert strong is None or is_contained(topo, fm, ex.configs[strong], areas)


class TestRepeatingTails:
    def test_a_written_out_cycle_is_found(self):
        ex = fifty_steps()
        start, period, _ = minplus.scheduler._tail((ex.configs, ex.steps))
        assert 0 < period and start + 2 * period < len(ex.configs)
        for i in range(start, len(ex.steps) - period):
            assert ex.configs[i + period] is ex.configs[i]
            assert ex.steps[i + period] is ex.steps[i]
        check_distinct_transitions(ex)

    def test_a_floor_regression_first_shown_in_the_second_period(self):
        # Anchors 0, 1, 2, 3 and diameter 3: heights 1, 3, 1, 3, ...  The
        # floor at depths 2 and 3 holds first at configuration 1 and fails
        # first at configuration 2, one period into the tail.
        edges = [(i, i + 1) for i in range(3)]
        topo, fm = path_case(4)
        low = tuple(ProcState(BOT, level) for level in (0, 1, 1, 3))
        high = tuple(ProcState(BOT, level) for level in (0, 1, 2, 3))
        rec = StepRecord(frozenset(), ())
        configs = [low, high] * 4
        ex = Execution(
            topo, fm, DaemonPolicy(), 0, "hand-made", configs=configs, steps=[rec] * 7
        )
        assert minplus.scheduler._tail((ex.configs, ex.steps))[:2] == (0, 2)
        levels = [[state.level for state in cfg] for cfg in configs]
        want = floor_regressions(4, edges, 0, set(), levels)
        assert floor_closure_violations(ex) == want == [(2, 2), (3, 2)]
        assert floor_closure_violations(deinterned(ex)) == want

    def test_no_steps(self):
        topo, fm = path_case(5, byz=[4])
        ex = run(
            topo,
            fm,
            corrupted_config(topo, fm),
            DaemonPolicy(),
            Oscillator(1),
            StopCriterion(max_steps=0),
        )
        assert ex.step_count == 0
        check_distinct_transitions(ex)

    def test_one_step(self):
        topo, fm = path_case(5, byz=[4])
        ex = run(
            topo,
            fm,
            corrupted_config(topo, fm),
            DaemonPolicy(),
            Oscillator(1),
            StopCriterion(max_steps=1),
        )
        assert ex.step_count == 1
        check_distinct_transitions(ex)

    def test_configurations_without_steps(self):
        # The passes over configurations read every one of them, though no
        # record says how each was reached; a repeat by identity is no
        # proof of a tail without the records.
        ex = fifty_steps()
        bare = Execution(
            ex.topo, ex.fm, ex.daemon, ex.seed, ex.adversary_desc, configs=list(ex.configs)
        )
        assert minplus.scheduler._tail((bare.configs, bare.steps))[:2] == (len(bare.configs), 0)
        check_distinct_transitions(bare)
        assert change_counts(bare) == change_counts(ex)
        assert containment_violations(bare, 0, frozenset()) == containment_violations(
            ex, 0, frozenset()
        )
        assert floor_closure_violations(bare) == floor_closure_violations(ex)
        assert measure(bare) == measure(ex)


def test_replays_hold_each_distinct_configuration_once():
    # The engine interns configurations and records across all the
    # continue_run calls of a replay, which changes no pass.
    line = replay_strong_impossibility(2, 200)
    hexagon = replay_ta_strong_impossibility(frozenset({3}), 200)
    for ex, distinct, area in (
        (line, 20, radius_area(line.topo, line.fm, 2)),
        (hexagon, 12, {3}),
    ):
        assert len(set(map(id, ex.configs))) == len(set(ex.configs)) == distinct
        assert len(set(map(id, ex.steps))) == len(set(ex.steps))
        found = segment_disruptions(ex, area)
        assert len(found) >= 200
        assert segment_disruptions(deinterned(ex), area) == found


class TestExports:
    def test_metrics_csv_is_deterministic(self):
        topo, fm = path_case(4, byz=[3])
        row = metrics_row("path n=4", 1, topo, fm, None, error="boom")
        assert metrics_csv([row]) == metrics_csv([row])
        text = metrics_csv([row])
        assert text.splitlines()[0].startswith("scenario,seed,n,m,byz")
        assert "boom" in text

    def test_dot_shows_parent_edges_and_roles(self):
        topo, fm = hexagon_topology()
        dot = to_dot(topo, fm, hexagon_tree())
        assert "n3 -> n1;" in dot and "n5 -> n3;" in dot
        assert 'role="root"' in dot and 'role="byzantine"' in dot
        assert 'role="strictly_near"' in dot

    def test_dot_marks_the_frontier_and_the_shielded(self):
        # On a 5-path with a Byzantine end, process 2 is as far from it as
        # from the root, and process 1 is nearer the root.
        topo, fm = path_case(5, byz=[4])
        chain = tuple(ProcState(None if v == 0 else v - 1, v) for v in range(5))
        dot = to_dot(topo, fm, chain)
        assert 'n2 [label="2 (lvl 2)", role="frontier"];' in dot
        assert 'n1 [label="1 (lvl 1)", role="outside"];' in dot
