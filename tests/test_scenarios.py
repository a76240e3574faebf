import pytest

from minplus import (
    GenerationError,
    ProcState,
    ScenarioError,
    build,
    compute_containment_areas,
    is_contained,
    measure,
    parse_scenario,
    radius_area,
    replay_strong_impossibility,
    replay_ta_strong_impossibility,
    segment_disruptions,
    verify_replay,
)
from minplus.cli import main
from minplus.scenarios import (
    all_zero_config,
    corrupted_config,
    grid_topology,
    hexagon_topology,
    line_topology,
    random_topology,
)

from _oracles import area_oracle


class TestBuilders:
    def test_line_is_a_chain_with_byzantine_end(self):
        topo, fm = line_topology(1)
        assert topo.process_count == 6
        assert topo.edges == tuple((i, i + 1) for i in range(5))
        assert topo.root == 0
        assert fm.byzantine == {5}

    def test_hexagon_shape(self):
        topo, fm = hexagon_topology()
        assert topo.process_count == 6 and topo.edge_count == 6
        assert fm.byzantine == {5}
        areas = compute_containment_areas(topo, fm)
        assert areas.strictly_near == {3, 4}

    @pytest.mark.parametrize("c", [0, 1, 2, 3])
    def test_line_areas_match_the_distance_oracle(self, c):
        topo, fm = line_topology(c)
        areas = compute_containment_areas(topo, fm)
        near, strict, frontier = area_oracle(
            topo.process_count, topo.edges, 0, fm.byzantine
        )
        assert areas.near == near == set(range(c + 2, 2 * c + 3))
        assert areas.strictly_near == strict == near
        assert areas.frontier == frontier == set()

    def test_path_scenario_with_byzantine_end(self):
        topo, fm = build(parse_scenario("path n=5 byz=4"))
        areas = compute_containment_areas(topo, fm)
        assert areas.frontier == {2}

    def test_grid_scenario(self):
        topo = grid_topology(3, 2)
        assert topo.process_count == 6
        assert topo.edge_count == 7
        assert topo.hop_distance(0, 5) == 3

    def test_random_scenario_is_connected_and_deterministic(self):
        a = random_topology(10, 0.3, seed=7)
        b = random_topology(10, 0.3, seed=7)
        assert a.edges == b.edges
        assert a.diameter >= 1

    def test_random_scenario_gives_up_eventually(self):
        with pytest.raises(GenerationError):
            random_topology(5, 0.0, seed=1)

    def test_byz_count_sampling_is_seeded(self):
        p = parse_scenario("random n=8 p=0.4 seed=3 byz_count=2")
        _, fm1 = build(p)
        _, fm2 = build(p)
        assert fm1.byzantine == fm2.byzantine
        assert len(fm1.byzantine) == 2

    def test_parse_rejects_unknown_bits(self):
        with pytest.raises(ValueError):
            parse_scenario("torus n=4")
        with pytest.raises(ValueError):
            parse_scenario("path n=4 q=1")
        with pytest.raises(ValueError):
            build(parse_scenario("line c=1 byz=2"))
        with pytest.raises(ValueError):
            build(parse_scenario("path byz=2"))

    @pytest.mark.parametrize(
        "text, key",
        [
            ("hexagon c=2", "c"),
            ("line c=1 n=9", "n"),
            ("path n=4 w=3", "w"),
            ("path n=4 p=0.5", "p"),
            ("random n=5 p=0.3 seed=1 c=2", "c"),
            ("grid w=2 h=2 seed=3", "seed"),
            ("path n=5 byz=1 byz_count=1", "byz_count"),
        ],
    )
    def test_build_rejects_a_key_the_kind_does_not_read(self, text, key, capsys):
        # Each used to build as if the key were absent.
        with pytest.raises(ValueError, match=f"does not read key '{key}'"):
            build(parse_scenario(text))
        assert main(["run", "--scenario", text]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["path n=5 byz_count=2 seed=3", "grid w=2 h=2 byz_count=2 seed=3"])
    def test_a_sampled_placement_reads_the_seed(self, text):
        _, fm = build(parse_scenario(text))
        assert len(fm.byzantine) == 2

    @pytest.mark.parametrize(
        "text, error",
        [
            pytest.param("path n=4 n=5", "'n' given twice", id="path n=4 n=5"),
            pytest.param("path n=4 byz=1 byz=2", "'byz' given twice", id="path n=4 byz=1 byz=2"),
            # "edge_prob=" used to be a second spelling of "p=", so this line
            # gave the edge probability twice; it is now an unknown key.
            pytest.param(
                "random n=5 p=0.3 edge_prob=0.4 seed=1",
                "unknown scenario key 'edge_prob'",
                id="random n=5 p=0.3 edge_prob=0.4 seed=1",
            ),
        ],
    )
    def test_parse_rejects_a_repeated_key(self, text, error):
        # "path n=4 n=5 byz=1 byz=2" used to give n=5, byz=(2,).
        with pytest.raises(ValueError, match=error):
            parse_scenario(text)

    @pytest.mark.parametrize("text", ["path n=04 byz=3", "path n=4 byz=03", "line c=+1", "grid w=2 h=2 seed=07"])
    def test_parse_wants_canonical_integers(self, text):
        # "path n=04 byz=03" used to load as n=4, byz=(3,).
        with pytest.raises(ValueError, match="not in canonical form"):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "p, edge_prob",
        [
            ("0.3", 0.3),
            ("0.0", 0.0),
            ("1.0", 1.0),
            ("0.30", None),
            ("+.3", None),
            ("3e-1", None),
            ("0_3", None),
            ("1", None),
        ],
    )
    def test_parse_wants_the_edge_probability_as_repr_writes_it(self, p, edge_prob):
        # Each rejected spelling used to load: "0_3" as 3.0, the rest as 0.3 or 1.0.
        text = f"random n=5 p={p} seed=1"
        if edge_prob is None:
            with pytest.raises(ValueError, match="not in canonical form"):
                parse_scenario(text)
        else:
            assert parse_scenario(text).p == edge_prob

    def test_initial_configs(self):
        topo, fm = line_topology(1)
        assert all(s == ProcState(None, 0) for s in all_zero_config(topo))
        corrupted = corrupted_config(topo, fm)
        assert corrupted[0] == ProcState(None, 0)
        assert corrupted[5] == ProcState(None, 0)
        assert corrupted[2] == ProcState(1, 6)


class TestStrongImpossibilityReplay:
    def test_smallest_instance_disrupts(self):
        ex = replay_strong_impossibility(c=0, cycles=1)
        area = radius_area(ex.topo, ex.fm, 0)
        assert len(segment_disruptions(ex, area)) >= 1

    def test_three_cycles_three_disruptions(self):
        c = 1
        ex = replay_strong_impossibility(c=c, cycles=3)
        area = radius_area(ex.topo, ex.fm, c)
        assert len(segment_disruptions(ex, area)) >= 3

    def test_two_sided_levels_for_c1(self):
        ex = replay_strong_impossibility(c=1, cycles=1)
        levels = [tuple(s.level for s in cfg) for cfg in ex.configs]
        assert (0, 1, 2, 2, 1, 0) in levels

    def test_trace_replays_exactly(self):
        ex = replay_strong_impossibility(c=1, cycles=2)
        assert verify_replay(ex) is None

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            replay_strong_impossibility(c=-1, cycles=1)
        with pytest.raises(ValueError):
            replay_strong_impossibility(c=1, cycles=0)


class TestTaStrongImpossibilityReplay:
    def test_five_cycles_five_disruptions_for_v(self):
        ex = replay_ta_strong_impossibility({3}, cycles=5)
        assert len(segment_disruptions(ex, {3})) >= 5

    def test_symmetric_choice(self):
        ex = replay_ta_strong_impossibility({4}, cycles=1)
        assert len(segment_disruptions(ex, {4})) >= 1

    def test_empty_area_counts_everything(self):
        ex = replay_ta_strong_impossibility(frozenset(), cycles=1)
        assert len(segment_disruptions(ex, frozenset())) >= 1

    def test_tree_levels(self):
        ex = replay_ta_strong_impossibility({3}, cycles=1)
        levels = [tuple(s.level for s in cfg) for cfg in ex.configs]
        assert (0, 1, 1, 2, 2, 3) in levels

    def test_rejects_full_or_foreign_areas(self):
        with pytest.raises(ValueError):
            replay_ta_strong_impossibility({3, 4}, cycles=1)
        with pytest.raises(ValueError):
            replay_ta_strong_impossibility({1}, cycles=1)


class TestReplaysRespectTheRealBounds:
    """The same traces, measured against the computed areas, stay bounded."""

    @pytest.mark.parametrize("cycles", [1, 3])
    def test_line_trace_against_its_own_areas(self, cycles):
        ex = replay_strong_impossibility(c=1, cycles=cycles)
        topo, fm = ex.topo, ex.fm
        areas = compute_containment_areas(topo, fm)
        m = measure(ex)
        assert m.first_strongly_contained is not None
        assert m.disruption_count <= 2 * topo.edge_count
        for v, k in m.changes_by_process.items():
            if v not in areas.strictly_near:
                assert k <= topo.max_degree

    @pytest.mark.parametrize("cycles", [1, 3])
    def test_hexagon_trace_against_its_own_areas(self, cycles):
        ex = replay_ta_strong_impossibility({3}, cycles=cycles)
        topo, fm = ex.topo, ex.fm
        first = next(
            i for i, cfg in enumerate(ex.configs) if is_contained(topo, fm, cfg)
        )
        m = measure(ex)
        assert m.first_contained == first
        assert m.disruption_count <= 2 * topo.edge_count
        areas = compute_containment_areas(topo, fm)
        for v, k in m.changes_by_process.items():
            if v not in areas.strictly_near:
                assert k <= topo.max_degree


def test_per_cycle_growth_beats_any_fixed_bound():
    # More cycles always buy strictly more disruptions for the wrong area.
    counts = [
        len(
            segment_disruptions(
                replay_ta_strong_impossibility({3}, cycles=k), {3}
            )
        )
        for k in (1, 2, 4)
    ]
    assert counts[0] >= 1 and counts[1] > counts[0] and counts[2] > counts[1]


def test_phase_failures_carry_the_phase_name():
    # Exercised through the private expectation helper.
    from minplus.scenarios import _expect

    ex = replay_ta_strong_impossibility({3}, cycles=1)
    with pytest.raises(ScenarioError, match="demo-phase"):
        _expect(ex, "demo-phase", tuple(ex.configs[0][:5]) + (ProcState(None, 99),))
