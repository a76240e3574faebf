import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minplus import (
    ContractViolation,
    ProcState,
    Topology,
    is_enabled,
    make_fault_model,
    normalize_config,
    parse_config,
    step,
)
from minplus.protocol import _action, config_text

from _oracles import choose, reference_guard, reference_rule

BOT = None


def path_topo(n):
    return Topology.from_edges(n, 0, [(i, i + 1) for i in range(n - 1)])


def star_topo():
    # Process 0 has ordered neighbors 1 < 2 < 3.
    return Topology.from_edges(4, 1, [(0, 1), (0, 2), (0, 3)])


def cfg_from(pairs):
    return tuple(ProcState(p, l) for p, l in pairs)


def line_one_sided(c):
    # Levels 0..2c+3 along the chain, parents pointing down-chain.
    n = 2 * c + 4
    return tuple(
        ProcState(None, 0) if i == 0 else ProcState(i - 1, i) for i in range(n)
    )


class TestIsEnabled:
    def test_root_at_rest(self):
        topo = path_topo(2)
        assert not is_enabled(topo, cfg_from([(BOT, 0), (0, 1)]), 0)

    def test_root_with_wrong_level(self):
        topo = path_topo(2)
        assert is_enabled(topo, cfg_from([(BOT, 3), (0, 1)]), 0)

    def test_root_with_parent(self):
        topo = path_topo(2)
        assert is_enabled(topo, cfg_from([(1, 0), (0, 1)]), 0)

    def test_one_sided_line_has_no_enabled_correct_process(self):
        c = 1
        topo = path_topo(2 * c + 4)
        cfg = line_one_sided(c)
        for v in range(1, 2 * c + 3):
            assert not is_enabled(topo, cfg, v)

    def test_bottom_parent_fires(self):
        topo = path_topo(3)
        assert is_enabled(topo, cfg_from([(BOT, 0), (BOT, 1), (1, 2)]), 1)

    def test_non_neighbor_parent_treated_as_bottom(self):
        topo = path_topo(4)
        cfg = cfg_from([(BOT, 0), (0, 1), (1, 2), (2, 3)])
        corrupt = cfg[:3] + (ProcState(0, 3),)  # 0 is not a neighbor of 3
        assert is_enabled(topo, corrupt, 3)

    def test_level_mismatch_fires(self):
        topo = path_topo(3)
        assert is_enabled(topo, cfg_from([(BOT, 0), (0, 5), (1, 2)]), 1)

    def test_parent_not_minimum_fires(self):
        topo = path_topo(3)
        # 1's parent is 2 at level 3, but neighbor 0 sits at level 0.
        assert is_enabled(topo, cfg_from([(BOT, 0), (2, 4), (1, 3)]), 1)


class TestChoose:
    def test_first_candidate_after_current(self):
        topo = star_topo()
        assert choose(topo, 0, 2, {1, 3}) == 3

    def test_wrap_around(self):
        topo = star_topo()
        assert choose(topo, 0, 3, {1}) == 1

    def test_bottom_picks_order_smallest(self):
        topo = star_topo()
        assert choose(topo, 0, None, {2, 3}) == 2

    def test_reselects_sole_minimal_parent(self):
        topo = star_topo()
        assert choose(topo, 0, 2, {2}) == 2

    def test_empty_candidates(self):
        topo = star_topo()
        with pytest.raises(ContractViolation):
            choose(topo, 0, None, set())

    def test_non_neighbor_candidate(self):
        topo = star_topo()
        with pytest.raises(ContractViolation):
            choose(topo, 0, None, {0})

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_round_robin_order(self, data):
        degree = data.draw(st.integers(1, 6))
        topo = Topology.from_edges(
            degree + 1, 1 if degree > 1 else 0, [(0, i + 1) for i in range(degree)]
        )
        order = topo.neighbors[0]
        cand = data.draw(
            st.sets(st.sampled_from(order), min_size=1, max_size=degree)
        )
        current = data.draw(st.sampled_from([None, *order]))
        picked = choose(topo, 0, current, cand)
        assert picked in cand
        if current is None:
            assert picked == min(cand, key=order.index)
        else:
            after = [q for q in order if order.index(q) > order.index(current) and q in cand]
            if after:
                assert picked == after[0]
            else:
                assert picked == min(cand, key=order.index)


def act(topo, cfg, v):
    """The state v takes in a step that activates v alone."""
    return step(topo, make_fault_model(topo, []), cfg, {v})[v]


class TestApplyRule:
    def test_adopts_minimum_level_neighbor(self):
        topo = path_topo(3)
        cfg = cfg_from([(BOT, 0), (2, 4), (1, 2)])
        assert act(topo, cfg, 1) == ProcState(0, 1)

    def test_root_resets(self):
        topo = path_topo(2)
        assert act(topo, cfg_from([(1, 7), (0, 1)]), 0) == ProcState(BOT, 0)

    def test_line_start_first_move(self):
        # Both chain ends at level 0; p1's minimum-level neighbor is the root.
        c = 1
        topo = path_topo(2 * c + 4)
        n = topo.process_count
        cfg = tuple(
            ProcState(None, 0)
            if v in (0, n - 1)
            else ProcState(topo.neighbors[v][0], n)
            for v in range(n)
        )
        assert act(topo, cfg, 1) == ProcState(0, 1)

    def test_disabled_process_rejected(self):
        topo = path_topo(2)
        with pytest.raises(ContractViolation):
            act(topo, cfg_from([(BOT, 0), (0, 1)]), 0)

    def test_pure_function(self):
        topo = path_topo(4)
        cfg = cfg_from([(BOT, 0), (2, 9), (3, 1), (2, 0)])
        assert act(topo, cfg, 1) == act(topo, cfg, 1)

    def test_locality_ignores_non_neighbors(self):
        topo = path_topo(4)
        cfg = cfg_from([(BOT, 0), (2, 9), (3, 1), (2, 0)])
        mutated = cfg[:3] + (ProcState(BOT, 77),)  # 3 is no neighbor of 1
        assert act(topo, cfg, 1) == act(topo, mutated, 1)


class TestFastAction:
    """``_action`` picks its parent in one pass and ``is_enabled`` stops at
    the first lower neighbor; the rule and guard of ``_oracles`` are the
    references."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_reference_rule(self, data):
        # Process 0 has `degree` neighbors in a drawn order, plus processes
        # that are no neighbors of it, so a stale parent can name one.
        degree = data.draw(st.integers(1, 6))
        extra = data.draw(st.integers(0, 2))
        n = degree + extra + 1
        spokes = data.draw(st.permutations([(0, q) for q in range(1, degree + 1)]))
        tail = [(degree, q) for q in range(degree + 1, n)]
        topo = Topology.from_edges(n, n - 1, spokes + tail)
        levels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        prnt = data.draw(st.sampled_from([BOT, *range(n), n + 4]))
        cfg = tuple(ProcState(BOT, level) for level in levels)
        cfg = (ProcState(prnt, levels[0]),) + cfg[1:]
        assert _action(topo, cfg, 0) == reference_rule(topo, cfg, 0)
        assert is_enabled(topo, cfg, 0) == reference_guard(topo, cfg, 0)

    def test_root_resets(self):
        topo = star_topo()
        cfg = cfg_from([(BOT, 4), (0, 3), (0, 1), (0, 1)])
        assert _action(topo, cfg, 1) == ProcState(BOT, 0)


class TestStep:
    def setup_method(self):
        self.topo = path_topo(5)
        self.fm = make_fault_model(self.topo, [4])

    def test_empty_step_is_identity(self):
        cfg = cfg_from([(BOT, 0), (0, 1), (1, 2), (2, 3), (3, 4)])
        assert step(self.topo, self.fm, cfg, set()) == cfg

    def test_simultaneous_neighbors_read_pre_step_states(self):
        # 1 and 2 both enabled; each computes against the old configuration.
        cfg = cfg_from([(BOT, 0), (2, 9), (1, 9), (2, 9), (3, 9)])
        out = step(self.topo, self.fm, cfg, {1, 2})
        assert out[1] == ProcState(0, 1)  # min(level_0=0, level_2=9) + 1
        # 2 still reads level 9 from both neighbors and round-robins 1 -> 3.
        assert out[2] == ProcState(3, 10)

    def test_byzantine_write_applied_verbatim(self):
        cfg = cfg_from([(BOT, 0), (0, 1), (1, 2), (2, 3), (3, 4)])
        garbage = ProcState(0, 99)  # 0 is not even a neighbor of 4
        out = step(self.topo, self.fm, cfg, set(), {4: garbage})
        assert out[4] == garbage
        assert out[:4] == cfg[:4]

    def test_a_plain_pair_is_written_as_a_state(self):
        cfg = cfg_from([(BOT, 0), (0, 1), (1, 2), (2, 3), (3, 4)])
        out = step(self.topo, self.fm, cfg, set(), {4: (None, 0)})
        assert type(out[4]) is ProcState
        assert out == cfg[:4] + (ProcState(BOT, 0),)
        with pytest.raises(ContractViolation, match="negative level written to 4"):
            step(self.topo, self.fm, cfg, set(), {4: (3, -1)})

    def test_cannot_activate_byzantine(self):
        cfg = cfg_from([(BOT, 0), (0, 1), (1, 2), (2, 3), (3, 9)])
        with pytest.raises(ContractViolation):
            step(self.topo, self.fm, cfg, {4})

    def test_cannot_write_to_correct(self):
        cfg = cfg_from([(BOT, 0), (0, 1), (1, 2), (2, 3), (3, 4)])
        with pytest.raises(ContractViolation):
            step(self.topo, self.fm, cfg, set(), {2: ProcState(BOT, 0)})

    def test_negative_level_write_rejected(self):
        cfg = cfg_from([(BOT, 0), (0, 1), (1, 2), (2, 3), (3, 4)])
        with pytest.raises(ContractViolation, match="negative level written to 4"):
            step(self.topo, self.fm, cfg, set(), {4: ProcState(BOT, -1)})

    def test_disabled_activation_rejected(self):
        cfg = cfg_from([(BOT, 0), (0, 1), (1, 2), (2, 3), (3, 4)])
        with pytest.raises(ContractViolation):
            step(self.topo, self.fm, cfg, {1})

    def test_root_fixpoint_under_any_writes(self):
        rng = random.Random(5)
        cfg = cfg_from([(BOT, 0), (0, 1), (1, 2), (2, 3), (3, 4)])
        for _ in range(100):
            writes = {4: ProcState(rng.choice([None, 3, 0]), rng.randint(0, 9))}
            cfg = step(self.topo, self.fm, cfg, set(), writes)
            assert not is_enabled(self.topo, cfg, 0)
            assert cfg[0] == ProcState(BOT, 0)


class TestNormalizeAndSerialize:
    def test_normalize_resets_corrupt_parent_of_correct(self):
        topo = path_topo(3)
        fm = make_fault_model(topo, [2])
        cfg = cfg_from([(2, 0), (0, 1), (0, 5)])  # 2 not a neighbor of 0
        out = normalize_config(topo, fm, cfg)
        assert out[0] == ProcState(BOT, 0)
        assert out[2] == ProcState(0, 5)  # Byzantine garbage kept

    def test_negative_level_rejected(self):
        topo = path_topo(2)
        fm = make_fault_model(topo, [])
        with pytest.raises(ValueError):
            normalize_config(topo, fm, cfg_from([(BOT, 0), (0, -1)]))
        with pytest.raises(ValueError, match="negative level"):
            parse_config("0 -1 0\n1 0 -1\n", 2)

    def test_config_file_round_trip(self):
        cfg = cfg_from([(BOT, 0), (0, 1), (7, 3)])
        text = config_text(cfg)
        assert "1 -1 0" not in text and text.splitlines()[0] == "0 -1 0"
        assert parse_config(text, 3) == cfg

    @pytest.mark.parametrize(
        "text",
        [
            "0 -1 0\n01 0 1\n",
            "0 -1 0\n1 +0 1\n",
            "0 -1 0\n1 0 1_0\n",
            "0 -01 0\n1 0 1\n",
            "0 -1 0\n1 0 +1\n",
        ],
    )
    def test_parse_config_wants_canonical_integers(self, text):
        with pytest.raises(ValueError, match="not in canonical form"):
            parse_config(text, 2)

    def test_parse_config_rejects_a_parent_below_bottom(self):
        # "0 -5 0" used to load as bottom.
        with pytest.raises(ValueError, match="parent below -1"):
            parse_config("0 -5 0\n", 1)

    def test_parse_config_wants_every_process(self):
        with pytest.raises(ValueError):
            parse_config("0 -1 0\n", 2)
        with pytest.raises(ValueError):
            parse_config("0 -1 0\n0 -1 1\n", 2)
