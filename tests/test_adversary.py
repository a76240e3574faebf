import pytest

from minplus import (
    FakeRoot,
    MirrorRoot,
    Oscillator,
    ProcState,
    RandomWrites,
    Scripted,
    Silent,
    WellBehaved,
    advise,
    hexagon_topology,
    is_enabled,
    make_adversary,
    step,
)
from minplus.adversary import parse_script

from _oracles import reference_rule

BOT = None


def hexagon():
    return hexagon_topology()


def two_sided_hexagon():
    # Root and Byzantine both look like roots; everyone hangs off the nearer one.
    return (
        ProcState(BOT, 0),
        ProcState(0, 1),
        ProcState(0, 1),
        ProcState(5, 1),
        ProcState(5, 1),
        ProcState(BOT, 0),
    )


class TestStrategies:
    def test_silent_writes_nothing(self):
        topo, fm = hexagon()
        assert advise(Silent(), topo, fm, [two_sided_hexagon()]) == {}

    def test_fake_root_pins_bottom_zero(self):
        topo, fm = hexagon()
        cfg = two_sided_hexagon()[:5] + (ProcState(3, 9),)
        assert advise(FakeRoot(), topo, fm, [cfg]) == {5: ProcState(BOT, 0)}

    def test_fake_root_is_idempotent(self):
        topo, fm = hexagon()
        assert advise(FakeRoot(), topo, fm, [two_sided_hexagon()]) == {}

    def test_mirror_copies_the_root_one_step_later(self):
        topo, fm = hexagon()
        broken_root = (ProcState(1, 4),) + two_sided_hexagon()[1:]
        mirror = MirrorRoot()
        assert advise(mirror, topo, fm, [broken_root]) == {}
        fixed = step(topo, fm, broken_root, {0})
        assert fixed[0] == ProcState(BOT, 0)
        writes = advise(mirror, topo, fm, [broken_root, fixed])
        byz_state = fixed[5]
        if byz_state != ProcState(BOT, 0):
            assert writes == {5: ProcState(BOT, 0)}

    def test_oscillator_alternates_with_period(self):
        topo, fm = hexagon()
        osc = Oscillator(2)
        osc.reset(topo, fm)
        cfg = two_sided_hexagon()[:5] + (ProcState(3, 9),)
        high = ProcState(topo.neighbors[5][0], 2 * topo.diameter + 2)
        low = ProcState(BOT, 0)
        assert advise(osc, topo, fm, [cfg]) == {5: low}
        assert advise(osc, topo, fm, [cfg] * 2) == {5: low}
        assert advise(osc, topo, fm, [cfg] * 3) == {5: high}
        assert advise(osc, topo, fm, [cfg] * 4) == {5: high}
        assert advise(osc, topo, fm, [cfg] * 5) == {5: low}

    def test_random_writes_stay_in_bounds_and_replay(self):
        topo, fm = hexagon()
        adv = RandomWrites(seed=4)
        adv.reset(topo, fm)
        first = [advise(adv, topo, fm, [two_sided_hexagon()] * i) for i in range(1, 30)]
        for writes in first:
            state = writes[5]
            assert 0 <= state.level <= 2 * topo.diameter
            assert state.prnt in (BOT, 3, 4)
        adv.reset(topo, fm)
        again = [advise(adv, topo, fm, [two_sided_hexagon()] * i) for i in range(1, 30)]
        assert first == again

    def test_scripted_fires_at_its_steps(self):
        topo, fm = hexagon()
        script = Scripted([(3, 5, ProcState(BOT, 0)), (1, 5, ProcState(3, 7))])
        assert advise(script, topo, fm, [two_sided_hexagon()]) == {5: ProcState(3, 7)}
        assert advise(script, topo, fm, [two_sided_hexagon()] * 2) == {}
        assert advise(script, topo, fm, [two_sided_hexagon()] * 3) == {5: ProcState(BOT, 0)}
        assert not script.done(topo, fm, [two_sided_hexagon()] * 2)
        assert script.done(topo, fm, [two_sided_hexagon()] * 3)

    def test_well_behaved_follows_the_rules(self):
        topo, fm = hexagon()
        tree = (
            ProcState(BOT, 0),
            ProcState(0, 1),
            ProcState(0, 1),
            ProcState(1, 2),
            ProcState(2, 2),
            ProcState(BOT, 0),
        )
        writes = advise(WellBehaved(), topo, fm, [tree])
        assert writes == {5: reference_rule(topo, tree, 5)}
        settled = tree[:5] + (ProcState(3, 3),)
        assert advise(WellBehaved(), topo, fm, [settled]) == {}

    def test_writes_must_target_byzantine_processes(self):
        from minplus import ContractViolation

        topo, fm = hexagon()
        rogue = Scripted([(1, 2, ProcState(BOT, 0))])
        with pytest.raises(ContractViolation, match="correct process"):
            advise(rogue, topo, fm, [two_sided_hexagon()])


class TestFakeRootIndistinguishability:
    def test_guards_cannot_tell_the_fake_root_from_the_real_one(self):
        # The hexagon maps onto itself when the two ends swap; with the fake
        # root holding the real root's state, enabledness must be symmetric.
        topo, fm = hexagon()
        swap = {0: 5, 5: 0, 1: 3, 3: 1, 2: 4, 4: 2}
        cfg = (
            ProcState(BOT, 0),
            ProcState(0, 1),
            ProcState(4, 2),
            ProcState(5, 1),
            ProcState(0, 3),
            ProcState(BOT, 0),
        )
        mirrored = tuple(
            ProcState(
                None if cfg[swap[v]].prnt is None else swap[cfg[swap[v]].prnt],
                cfg[swap[v]].level,
            )
            for v in range(6)
        )
        for v in (1, 2, 3, 4):
            assert is_enabled(topo, cfg, v) == is_enabled(topo, mirrored, swap[v])


class TestParsing:
    def test_parse_script(self):
        items = parse_script("# comment\n2 5 -1 0\n1 5 3 9\n")
        assert items == [(2, 5, ProcState(BOT, 0)), (1, 5, ProcState(3, 9))]
        with pytest.raises(ValueError):
            parse_script("1 2 3\n")
        with pytest.raises(ValueError, match="negative level"):
            parse_script("1 5 3 -2\n")

    @pytest.mark.parametrize(
        "text", ["02 5 -1 0\n", "2 +5 -1 0\n", "2 5 -01 0\n", "2 5 -1 1_0\n", "2 5 -1 +1\n"]
    )
    def test_parse_script_wants_canonical_integers(self, text):
        with pytest.raises(ValueError, match="not in canonical form"):
            parse_script(text)

    def test_parse_script_rejects_a_parent_below_bottom(self):
        # "1 0 -5 2" used to write bottom.
        with pytest.raises(ValueError, match="parent below -1"):
            parse_script("1 0 -5 2\n")

    @pytest.mark.parametrize("descriptor", ["oscillator:02", "random:07", "oscillator:+2"])
    def test_make_adversary_wants_canonical_integers(self, descriptor):
        with pytest.raises(ValueError, match="not in canonical form"):
            make_adversary(descriptor)

    @pytest.mark.parametrize(
        "descriptor, message",
        [
            ("silent:5", "silent takes no argument, got '5'"),
            ("fake_root:x", "fake_root takes no argument, got 'x'"),
            ("mirror_root:abc", "mirror_root takes no argument, got 'abc'"),
            ("well_behaved:1", "well_behaved takes no argument, got '1'"),
            ("oscillator:", "oscillator has an empty argument"),
            ("random:", "random has an empty argument"),
        ],
    )
    def test_make_adversary_rejects_a_dropped_argument(self, descriptor, message):
        # Each used to run as the bare kind or with the default argument.
        with pytest.raises(ValueError, match=message):
            make_adversary(descriptor)

    def test_make_adversary(self):
        assert make_adversary("oscillator:3").period == 3
        assert make_adversary("random:7").seed == 7
        assert make_adversary("fake_root").name == "fake_root"
        assert make_adversary("well_behaved").name == "well_behaved"
        assert make_adversary("mirror_root").name == "mirror_root"
        assert make_adversary("silent").name == "silent"
        with pytest.raises(ValueError):
            make_adversary("chaos")
        with pytest.raises(ValueError):
            make_adversary("scripted")


def test_mirrored_states_give_mirrored_enabled_sets():
    # Enabled sets on the hexagon commute with the end-for-end swap while the
    # Byzantine process holds exactly the root's state.
    topo, fm = hexagon()
    swap = {0: 5, 5: 0, 1: 3, 3: 1, 2: 4, 4: 2}
    cfg = (
        ProcState(BOT, 0),
        ProcState(0, 6),
        ProcState(4, 2),
        ProcState(5, 6),
        ProcState(2, 2),
        ProcState(BOT, 0),
    )
    enabled = {v for v in (1, 2, 3, 4) if is_enabled(topo, cfg, v)}
    mirrored = tuple(
        ProcState(
            None if cfg[swap[v]].prnt is None else swap[cfg[swap[v]].prnt],
            cfg[swap[v]].level,
        )
        for v in range(6)
    )
    mirrored_enabled = {v for v in (1, 2, 3, 4) if is_enabled(topo, mirrored, v)}
    assert mirrored_enabled == {swap[v] for v in enabled}
