import gc
import hashlib
import json
import random
import re
from collections import Counter
from operator import eq, is_
from sys import intern

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minplus import (
    CENTRAL,
    DISTRIBUTED,
    ROUND_ROBIN,
    SYNCHRONOUS,
    Adversary,
    ContractViolation,
    DaemonPolicy,
    FakeRoot,
    MirrorRoot,
    Oscillator,
    ProcState,
    RandomWrites,
    Scripted,
    Silent,
    StepRecord,
    StopCriterion,
    Topology,
    WellBehaved,
    build,
    change_counts,
    compute_containment_areas,
    continue_run,
    enabled_set,
    grid_topology,
    is_contained,
    make_fault_model,
    parse_scenario,
    path_topology,
    random_config,
    read_trace,
    run,
    step_budget,
    trace_text,
    verify_replay,
    violations,
    write_trace,
)
import minplus.scheduler
from minplus.scheduler import RANDOM, parse_trace

from _oracles import (
    floyd_warshall,
    is_parent_spanning_tree,
    lag_tails,
    longest_tail,
    random_connected_edges,
    reference_guard,
    reference_rule,
)

ALL_FAIR = [
    DaemonPolicy(CENTRAL, ROUND_ROBIN),
    DaemonPolicy(CENTRAL, RANDOM),
    DaemonPolicy(DISTRIBUTED, ROUND_ROBIN),
    DaemonPolicy(DISTRIBUTED, RANDOM),
    DaemonPolicy(SYNCHRONOUS, ROUND_ROBIN),
]
ALL_DAEMONS = [
    DaemonPolicy(kind, fairness)
    for kind in (CENTRAL, DISTRIBUTED, SYNCHRONOUS)
    for fairness in (ROUND_ROBIN, RANDOM)
]


def path_case(n, byz=()):
    topo = Topology.from_edges(n, 0, [(i, i + 1) for i in range(n - 1)])
    return topo, make_fault_model(topo, byz)


def corrupted(topo, fm):
    n = topo.process_count
    return tuple(
        ProcState(None, 0)
        if v == topo.root or v in fm.byzantine
        else ProcState(topo.neighbors[v][0], n)
        for v in topo.processes()
    )


def quiesce_stop(topo):
    return StopCriterion(max_steps=step_budget(topo))


class FixedWrites(Adversary):
    """Writes the same Byzantine states at every step."""

    name = "fixed"

    def __init__(self, writes):
        self.fixed = writes

    def writes(self, topo, fm, configs):
        return dict(self.fixed)


class TestEnabledSet:
    def test_settled_tree_has_nothing_enabled(self):
        topo, fm = path_case(5)
        cfg = tuple(
            ProcState(None, 0) if v == 0 else ProcState(v - 1, v)
            for v in range(5)
        )
        assert enabled_set(topo, fm, cfg) == frozenset()

    def test_two_sided_line_quiet_with_byzantine_frozen(self):
        topo, fm = path_case(6, byz=[5])
        cfg = tuple(
            ProcState(p, l)
            for p, l in [(None, 0), (0, 1), (1, 2), (4, 2), (5, 1), (None, 0)]
        )
        assert enabled_set(topo, fm, cfg) == frozenset()

    def test_corrupted_start_has_work(self):
        topo, fm = path_case(6, byz=[5])
        assert enabled_set(topo, fm, corrupted(topo, fm))

    def test_byzantine_never_in_enabled_set(self):
        topo, fm = path_case(4, byz=[3])
        cfg = (ProcState(None, 0), ProcState(0, 1), ProcState(1, 2), ProcState(None, 9))
        assert 3 not in enabled_set(topo, fm, cfg)


class TestRun:
    @pytest.mark.parametrize("daemon", ALL_FAIR, ids=lambda d: f"{d.kind}-{d.fairness}")
    def test_fault_free_path_reaches_the_bfs_fixpoint(self, daemon):
        topo, fm = path_case(5)
        ex = run(topo, fm, corrupted(topo, fm), daemon, Silent(), quiesce_stop(topo), seed=3)
        assert not enabled_set(topo, fm, ex.final())
        dist = floyd_warshall(5, topo.edges)
        assert [s.level for s in ex.final()] == dist[0]
        assert is_parent_spanning_tree(
            5, topo.edges, 0, [s.prnt for s in ex.final()]
        )

    def test_quiescent_start_is_a_zero_step_execution(self):
        topo, fm = path_case(4)
        settled = tuple(
            ProcState(None, 0) if v == 0 else ProcState(v - 1, v) for v in range(4)
        )
        ex = run(topo, fm, settled, DaemonPolicy(), Silent(), quiesce_stop(topo))
        assert ex.step_count == 0

    def test_same_seed_same_bytes(self):
        topo, fm = path_case(7, byz=[6])
        stop = StopCriterion(max_steps=300)
        args = (topo, fm, corrupted(topo, fm), DaemonPolicy(DISTRIBUTED, RANDOM))
        a = run(*args, RandomWrites(9), stop, seed=42)
        b = run(*args, RandomWrites(9), stop, seed=42)
        assert trace_text(a) == trace_text(b)

    def test_different_seeds_usually_differ(self):
        topo, fm = path_case(7, byz=[6])
        stop = StopCriterion(max_steps=100)
        args = (topo, fm, corrupted(topo, fm), DaemonPolicy(DISTRIBUTED, RANDOM))
        a = run(*args, Silent(), stop, seed=1)
        b = run(*args, Silent(), stop, seed=2)
        assert trace_text(a) != trace_text(b)

    def test_oscillator_never_quiesces_and_hits_budget(self):
        topo, fm = path_case(4, byz=[3])
        ex = run(
            topo,
            fm,
            corrupted(topo, fm),
            DaemonPolicy(DISTRIBUTED, RANDOM),
            Oscillator(1),
            StopCriterion(max_steps=60),
            seed=0,
        )
        assert ex.step_count == 60

    def test_predicate_stop_with_tail(self):
        topo, fm = path_case(5)
        hits = []

        def settled(cfg):
            ok = all(s.prnt is not None or v == 0 for v, s in enumerate(cfg))
            if ok:
                hits.append(True)
            return ok

        ex = run(
            topo,
            fm,
            corrupted(topo, fm),
            DaemonPolicy(SYNCHRONOUS, ROUND_ROBIN),
            Silent(),
            StopCriterion(max_steps=100, predicate=settled, extra_after=0),
        )
        assert ex.step_count < 100 and hits

    def test_a_start_of_plain_pairs_runs_as_states(self):
        topo, fm = path_case(4, byz=[3])
        ex = run(topo, fm, ((None, 0),) * 4, DaemonPolicy(), Oscillator(1), StopCriterion(30))
        assert all(type(s) is ProcState for s in ex.configs[0])
        assert verify_replay(ex) is None and violations(ex) == []

    @pytest.mark.parametrize("states", [3, 6])
    def test_a_start_of_the_wrong_length_is_rejected(self, states):
        topo = path_topology(4)
        init = (ProcState(None, 0),) * states
        with pytest.raises(ValueError, match=f"{states} states for 4 processes"):
            run(topo, make_fault_model(topo, []), init, DaemonPolicy(), Silent(), StopCriterion(20))


class TestIdleSteps:
    """A quiet step is recorded, not taken as the end, while the adversary
    still has something to do."""

    @pytest.mark.parametrize("period", [1, 2, 5, 50])
    def test_oscillator_runs_its_whole_budget(self, period):
        topo, fm = path_case(4, byz=[3])
        ex = run(
            topo,
            fm,
            corrupted(topo, fm),
            DaemonPolicy(SYNCHRONOUS, ROUND_ROBIN),
            Oscillator(period),
            StopCriterion(max_steps=1000),
        )
        assert ex.step_count == 1000
        assert verify_replay(ex) is None

    @pytest.mark.parametrize("daemon", ALL_DAEMONS, ids=lambda d: f"{d.kind}-{d.fairness}")
    def test_every_daemon_takes_idle_steps(self, daemon):
        topo, fm = path_case(4, byz=[3])
        ex = run(
            topo,
            fm,
            corrupted(topo, fm),
            daemon,
            Oscillator(50),
            StopCriterion(max_steps=200),
            seed=2,
        )
        assert ex.step_count == 200
        idle = [r for r in ex.steps if not r.activated and not r.byz_writes]
        assert idle
        assert verify_replay(ex) is None

    def test_script_write_after_a_quiet_stretch_is_made(self):
        topo, fm = path_case(4, byz=[3])
        late = ProcState(None, 0)
        script = Scripted([(1, 3, ProcState(2, 9)), (20, 3, late)])
        ex = run(
            topo,
            fm,
            corrupted(topo, fm),
            DaemonPolicy(SYNCHRONOUS, ROUND_ROBIN),
            script,
            StopCriterion(max_steps=100),
        )
        assert ex.steps[19].byz_writes == ((3, late),)
        # Once the script is spent and nothing is enabled, the run ends.
        assert 20 <= ex.step_count < 100
        assert not enabled_set(topo, fm, ex.final())

    def test_adversary_without_byzantine_processes_is_done(self):
        topo, fm = path_case(4)
        settled = tuple(
            ProcState(None, 0) if v == 0 else ProcState(v - 1, v) for v in range(4)
        )
        for adversary in (Oscillator(2), RandomWrites(1)):
            ex = run(
                topo, fm, settled, DaemonPolicy(), adversary, StopCriterion(max_steps=50)
            )
            assert ex.step_count == 0


class TestDaemonShapes:
    def test_central_moves_one_process_per_step(self):
        topo, fm = path_case(6, byz=[5])
        ex = run(
            topo,
            fm,
            corrupted(topo, fm),
            DaemonPolicy(CENTRAL, ROUND_ROBIN),
            Oscillator(1),
            StopCriterion(max_steps=120),
            seed=1,
        )
        for rec in ex.steps:
            assert len(rec.activated) + len(rec.byz_writes) == 1

    def test_synchronous_activates_exactly_the_enabled_set(self):
        topo, fm = path_case(6, byz=[5])
        ex = run(
            topo,
            fm,
            corrupted(topo, fm),
            DaemonPolicy(SYNCHRONOUS, ROUND_ROBIN),
            Oscillator(2),
            StopCriterion(max_steps=40),
            seed=1,
        )
        for i, rec in enumerate(ex.steps):
            assert rec.activated == enabled_set(topo, fm, ex.configs[i])

    def test_distributed_activates_enabled_subset(self):
        topo, fm = path_case(8, byz=[7])
        ex = run(
            topo,
            fm,
            corrupted(topo, fm),
            DaemonPolicy(DISTRIBUTED, RANDOM),
            Oscillator(1),
            StopCriterion(max_steps=200),
            seed=5,
        )
        for i, rec in enumerate(ex.steps):
            assert rec.activated <= enabled_set(topo, fm, ex.configs[i])

    def test_three_settings_are_the_synchronous_daemon(self):
        # Distributed round-robin and synchronous under either fairness all
        # activate every enabled process each step, so they run alike; each
        # trace still records the daemon it was given.
        alike = [(DISTRIBUTED, ROUND_ROBIN), (SYNCHRONOUS, ROUND_ROBIN), (SYNCHRONOUS, RANDOM)]
        rng = random.Random(9)
        for _ in range(30):
            topo = Topology.from_edges(9, 0, random_connected_edges(rng, 9))
            fm = make_fault_model(topo, rng.sample(range(1, 9), 2))
            for adversary in (Oscillator(1), RandomWrites(rng.randrange(100))):
                runs = [
                    run(
                        topo,
                        fm,
                        corrupted(topo, fm),
                        DaemonPolicy(kind, fairness),
                        adversary,
                        StopCriterion(max_steps=60),
                        seed=3,
                    )
                    for kind, fairness in alike
                ]
                for ex in runs[1:]:
                    assert ex.configs == runs[0].configs
                    assert ex.steps == runs[0].steps
                headers = [json.loads(trace_text(ex).splitlines()[1])["daemon"] for ex in runs]
                assert headers == [{"kind": k, "fairness": f} for k, f in alike]


def max_starvation(ex, count_byz_only_steps: bool) -> int:
    """Longest run of configs where some process stays enabled, unactivated."""
    topo, fm = ex.topo, ex.fm
    worst = 0
    streak = {v: 0 for v in topo.processes() if fm.is_correct(v)}
    for i, rec in enumerate(ex.steps):
        pre_enabled = enabled_set(topo, fm, ex.configs[i])
        counted = count_byz_only_steps or rec.activated
        for v in streak:
            if v in rec.activated or v not in pre_enabled:
                streak[v] = 0
            elif counted:
                streak[v] += 1
                worst = max(worst, streak[v])
    return worst


class TestFairness:
    @pytest.mark.parametrize("daemon", ALL_FAIR, ids=lambda d: f"{d.kind}-{d.fairness}")
    def test_bounded_starvation_under_adversary(self, daemon):
        topo, fm = path_case(7, byz=[6])
        ex = run(
            topo,
            fm,
            corrupted(topo, fm),
            daemon,
            Oscillator(1),
            StopCriterion(max_steps=400),
            seed=11,
        )
        # Byzantine-only steps are not activation opportunities under the
        # central daemon; elsewhere the window is counted in raw steps.
        raw = daemon.kind != CENTRAL
        assert max_starvation(ex, count_byz_only_steps=raw) < topo.process_count


class TestReplayAndTraces:
    def make_run(self):
        topo, fm = path_case(6, byz=[5])
        return run(
            topo,
            fm,
            corrupted(topo, fm),
            DaemonPolicy(DISTRIBUTED, RANDOM),
            Oscillator(1),
            StopCriterion(max_steps=80),
            seed=7,
        )

    def test_fresh_execution_replays(self):
        ex = self.make_run()
        assert verify_replay(ex) is None

    def test_tampered_config_reports_first_divergence(self):
        ex = self.make_run()
        k = 20
        states = list(ex.configs[k])
        states[1] = ProcState(states[1].prnt, states[1].level + 1)
        ex.configs[k] = tuple(states)
        assert verify_replay(ex) in (k, k + 1)
        assert verify_replay(ex) is not None

    def test_tampered_repeat_of_a_verified_transition_is_reported(self):
        ex = self.make_run()
        seen = set()
        for j, rec in enumerate(ex.steps):
            key = (id(ex.configs[j]), id(rec), id(ex.configs[j + 1]))
            if key in seen:
                break
            seen.add(key)
        else:
            pytest.fail("the run repeats no transition")
        assert verify_replay(ex) is None
        original = ex.configs[j + 1]
        ex.configs[j + 1] = tuple(original)  # an equal copy is checked and holds
        assert verify_replay(ex) is None
        states = list(original)
        states[1] = ProcState(states[1].prnt, states[1].level + 1)
        ex.configs[j + 1] = tuple(states)
        assert verify_replay(ex) == j + 1
        ex.configs[j + 1] = original
        ex.steps[j] = StepRecord(rec.activated, rec.byz_writes + ((4, ProcState(None, 0)),))
        assert verify_replay(ex) == j + 1

    def oscillating_path_run(self):
        topo = path_topology(5)
        fm = make_fault_model(topo, [4])
        init = corrupted(topo, fm)
        daemon = DaemonPolicy(DISTRIBUTED, RANDOM)
        return run(topo, fm, init, daemon, Oscillator(1), StopCriterion(max_steps=30), seed=3)

    def test_an_extra_configuration_is_where_the_lists_stop_pairing(self):
        ex = self.oscillating_path_run()
        assert ex.step_count == 30 and verify_replay(ex) is None
        ex.configs.append(ex.configs[-1])
        assert verify_replay(ex) == 31

    def test_missing_configurations_are_where_the_lists_stop_pairing(self):
        ex = self.oscillating_path_run()
        del ex.configs[-3:]
        assert verify_replay(ex) == 28

    def test_trace_file_round_trip(self, tmp_path):
        ex = self.make_run()
        path = tmp_path / "run.trace"
        write_trace(ex, path)
        back = read_trace(path)
        assert trace_text(back) == trace_text(ex)
        assert verify_replay(back) is None
        assert back.configs == ex.configs

    def test_trace_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_trace("not a trace\n")

    @pytest.mark.parametrize("keep", [1, 2, 5, -1])
    def test_truncated_trace_is_a_value_error(self, keep):
        lines = trace_text(self.make_run()).splitlines()
        with pytest.raises(ValueError):
            parse_trace("\n".join(lines[:keep]) + "\n")

    @pytest.mark.parametrize("header", ["[]", "{}", '{"daemon": 3}'])
    def test_malformed_header_is_a_value_error(self, header):
        lines = trace_text(self.make_run()).splitlines()
        lines[1] = header
        with pytest.raises(ValueError, match="malformed trace"):
            parse_trace("\n".join(lines) + "\n")

    def test_header_step_count_must_match_the_body(self):
        lines = trace_text(self.make_run()).splitlines()
        header = json.loads(lines[1])
        header["steps"] = 99
        lines[1] = json.dumps(header, sort_keys=True)
        with pytest.raises(ValueError, match="99 steps"):
            parse_trace("\n".join(lines) + "\n")

    @pytest.mark.parametrize("field", ["act=", "byz=", "chg="])
    def test_a_process_twice_in_one_field_is_malformed(self, field):
        lines = trace_text(self.make_run()).splitlines()
        idx = next(i for i, l in enumerate(lines) if f" {field}" in l and f" {field} " not in l)
        head, tail = lines[idx].split(f" {field}", 1)
        first = tail.split(",")[0].split(" ")[0]
        lines[idx] = f"{head} {field}{first},{tail}"
        with pytest.raises(ValueError, match="twice"):
            parse_trace("\n".join(lines) + "\n")

    def test_the_end_line_is_the_last(self):
        text = trace_text(self.make_run())
        with pytest.raises(ValueError):
            parse_trace(text + text.splitlines()[-1] + "\n")

    def test_embedded_topology_must_match_the_header_hash(self):
        text = trace_text(self.make_run())
        assert "\n2 3\n" in text
        with pytest.raises(ValueError, match="topology_sha256"):
            parse_trace(text.replace("\n2 3\n", "\n1 3\n", 1))


def test_engine_refuses_a_negative_level_write():
    topo, fm = path_case(3, byz=[2])
    with pytest.raises(ContractViolation, match="negative level written to 2"):
        run(
            topo,
            fm,
            (ProcState(None, 0), ProcState(0, 1), ProcState(None, 0)),
            DaemonPolicy(DISTRIBUTED, RANDOM),
            FixedWrites({2: ProcState(None, -1)}),
            StopCriterion(max_steps=10),
        )


@pytest.mark.parametrize("daemon", ALL_DAEMONS, ids=lambda d: f"{d.kind}-{d.fairness}")
def test_a_plain_pair_written_by_an_adversary_is_a_state(daemon):
    # normalize_config accepts any pair as a state, and so does a write.
    topo, fm = path_case(4, byz=[3])
    init = corrupted(topo, fm)[:3] + (ProcState(2, 9),)
    ex = run(topo, fm, init, daemon, FixedWrites({3: (None, 0)}), StopCriterion(max_steps=30))
    assert ex.step_count == 30
    assert type(ex.final()[3]) is ProcState
    assert ex.final()[3] == ProcState(None, 0)
    assert verify_replay(ex) is None
    check_round_trip(ex)


def test_negative_step_budget_is_rejected():
    with pytest.raises(ValueError, match="max_steps"):
        StopCriterion(max_steps=-5)


def test_a_schedule_is_not_a_fairness_policy():
    # A hand-chosen schedule is an Execution built with ``step``.
    with pytest.raises(ValueError, match="unknown fairness policy 'script'"):
        DaemonPolicy(DISTRIBUTED, "script")


def test_step_budget_scales_with_size():
    topo, _ = path_case(5)
    assert step_budget(topo) == 50 * 5 * 4
    single = Topology.from_edges(1, 0, [])
    assert step_budget(single) == 50


def test_continue_run_keeps_one_intern_table_per_execution():
    # A later call reuses the interned configurations and transitions of
    # earlier ones.  With ``copies`` the caller swaps every configuration
    # for an equal copy and frees the old ones before each call, so the
    # engine must swap its start for the interned twin: an id in its cache
    # could otherwise come to name another configuration.
    topo, fm = path_case(6, byz=[5])
    daemon, stop = DaemonPolicy(DISTRIBUTED, RANDOM), StopCriterion(max_steps=40)
    adversaries = [Oscillator(1), FakeRoot(), Oscillator(2), MirrorRoot(), WellBehaved()]

    def extend(copies):
        ex = run(topo, fm, corrupted(topo, fm), daemon, RandomWrites(3), stop, seed=1)
        for seed, adversary in enumerate(adversaries):
            if copies:
                ex.configs[:] = [tuple(list(c)) for c in ex.configs]
                gc.collect()
            start = len(ex.configs) - 1
            continue_run(ex, adversary, stop, seed)
            made = ex.configs[start:]
            assert len(set(map(id, made))) == len(set(made))
        return ex

    plain, copied = extend(False), extend(True)
    assert copied.configs == plain.configs
    assert verify_replay(plain) is None and verify_replay(copied) is None
    assert len(set(map(id, plain.configs))) == len(set(plain.configs))


@pytest.mark.parametrize("daemon", ALL_DAEMONS, ids=lambda d: f"{d.kind}-{d.fairness}")
def test_a_continued_run_keeps_its_daemon(daemon):
    # The rest of the run is what the execution's own daemon makes from its
    # final configuration, so the trace names the daemon of every step.
    topo, fm = path_case(8, byz=[7])
    head, rest = StopCriterion(max_steps=5), StopCriterion(max_steps=50)
    ex = run(topo, fm, corrupted(topo, fm), daemon, WellBehaved(), head, seed=1)
    continue_run(ex, WellBehaved(), rest, 2)
    fresh = run(topo, fm, ex.configs[5], daemon, WellBehaved(), rest, seed=2)
    assert len(ex.steps) > 5
    assert ex.steps[5:] == fresh.steps and ex.configs[5:] == fresh.configs
    assert parse_trace(trace_text(ex)).daemon == daemon


# ---------------------------------------------------------------------------
# Differential check of the engine against the reference rule and guard of
# _oracles, and of its incremental bookkeeping (enabled set and fairness
# stamps) against a from-scratch enabled set.
# ---------------------------------------------------------------------------


@st.composite
def engine_cases(draw, max_n=12, max_steps=60, adversaries=None):
    n = draw(st.integers(1, max_n))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    chords = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] < e[1]
            ),
            max_size=n,
        )
    )
    edges += sorted(chords - {(min(e), max(e)) for e in edges})
    edges = draw(st.permutations(edges))
    root = draw(st.integers(0, n - 1))
    topo = Topology.from_edges(n, root, edges)
    others = [v for v in range(n) if v != root]
    byz = draw(st.lists(st.sampled_from(others), unique=True, max_size=3)) if others else []
    fm = make_fault_model(topo, byz)
    init = tuple(
        ProcState(
            draw(st.one_of(st.none(), st.integers(0, n - 1))),
            draw(st.integers(0, 2 * n)),
        )
        for _ in range(n)
    )
    max_steps = draw(st.integers(0, max_steps))
    script = [
        (draw(st.integers(1, max(max_steps, 1))), b, ProcState(None, draw(st.integers(0, 9))))
        for b in byz
        for _ in range(draw(st.integers(0, 3)))
    ]
    adversary = draw(
        st.sampled_from(
            [
                a
                for a in (
                    Silent(),
                    FakeRoot(),
                    MirrorRoot(),
                    Oscillator(draw(st.integers(1, 6))),
                    RandomWrites(draw(st.integers(0, 99))),
                    WellBehaved(),
                    Scripted(script),
                )
                if adversaries is None or type(a) in adversaries
            ]
        )
    )
    daemon = draw(st.sampled_from(ALL_DAEMONS))
    return topo, fm, init, daemon, adversary, max_steps, draw(st.integers(0, 999))


def fairness_ages(ex):
    """For each step, the fairness age of every correct process before it,
    recomputed from the trace: the slots it has spent enabled without
    acting.  Every step is a slot, except a central step that only writes."""
    topo, fm = ex.topo, ex.fm
    age = {v: 0 for v in topo.processes() if fm.is_correct(v)}
    central = ex.daemon.kind == CENTRAL
    enabled = enabled_set(topo, fm, ex.configs[0])
    for i, rec in enumerate(ex.steps):
        yield dict(age), enabled
        after = enabled_set(topo, fm, ex.configs[i + 1])
        slot = not central or rec.activated or not rec.byz_writes
        for v in age:
            if v in rec.activated or v not in after:
                age[v] = 0
            elif v in enabled and slot:
                age[v] += 1
        enabled = after


def check_against_the_reference_step(case):
    """Run a case and check it step by step; return the execution."""
    topo, fm, init, daemon, adversary, max_steps, seed = case
    ex = run(topo, fm, init, daemon, adversary, StopCriterion(max_steps=max_steps), seed=seed)
    assert verify_replay(ex) is None
    # Equal configurations are one object, and so are equal records.
    assert len(set(map(id, ex.configs))) == len(set(ex.configs))
    assert len(set(map(id, ex.steps))) == len(set(ex.steps))
    # Each distinct transition applies the rule to exactly the activated
    # processes, each of them enabled, and the writes to the written ones.
    transitions = zip(ex.configs, ex.steps, ex.configs[1:])
    for before, rec, after in {tuple(map(id, t)): t for t in transitions}.values():
        writes = dict(rec.byz_writes)
        assert not rec.activated & fm.byzantine and writes.keys() <= fm.byzantine
        for v in topo.processes():
            if v in rec.activated:
                assert reference_guard(topo, before, v)
                assert after[v] == reference_rule(topo, before, v)
            else:
                assert after[v] == writes.get(v, before[v])
    # The daemon's choice, redone from the recomputed ages with the same
    # random stream: coins and forced processes for the distributed daemon,
    # the oldest or a random process for the central one.
    rng = random.Random(seed)
    window = topo.process_count
    last_slot_byz = True
    for rec, (age, enabled) in zip(ex.steps, fairness_ages(ex)):
        assert rec.activated <= enabled
        pool = sorted(enabled)
        starved = [v for v in pool if age[v] >= window - 1]
        if daemon.kind == SYNCHRONOUS or (
            daemon.kind == DISTRIBUTED and daemon.fairness == ROUND_ROBIN
        ):
            assert rec.activated == enabled
        elif daemon.kind == DISTRIBUTED and pool:
            picked = {v for v in pool if rng.random() < 0.5} | set(starved)
            assert rec.activated == (picked or {rng.choice(pool)})
        elif daemon.kind == CENTRAL and rec.activated:
            assert not rec.byz_writes
            if daemon.fairness == ROUND_ROBIN:
                oldest = max(age[v] for v in pool)
                assert rec.activated == {min(v for v in pool if age[v] == oldest)}
            else:
                assert rec.activated == {starved[0] if starved else rng.choice(pool)}
            last_slot_byz = False
        elif daemon.kind == CENTRAL and rec.byz_writes:
            assert len(rec.byz_writes) == 1 and not starved
            assert not last_slot_byz or not pool
            last_slot_byz = True
        else:
            assert not rec.activated
    if ex.step_count < max_steps:
        assert not enabled_set(topo, fm, ex.final())
        assert adversary.done(topo, fm, ex.configs)
    return ex


@settings(max_examples=300, deadline=None)
@given(engine_cases())
def test_engine_agrees_with_the_reference_step(case):
    check_against_the_reference_step(case)


@settings(max_examples=150, deadline=None)
@given(
    engine_cases(
        max_n=6, max_steps=1500, adversaries=(Oscillator, RandomWrites, Scripted)
    )
)
def test_engine_agrees_with_the_reference_step_on_long_runs(case):
    # Long runs on small graphs revisit configurations, so most of their
    # steps are transitions the engine has made before in the same run.
    ex = check_against_the_reference_step(case)
    topo, fm, _, _, adversary, max_steps, _ = case
    if isinstance(adversary, Oscillator) and fm.byzantine and max_steps >= 500:
        assert len(set(map(id, ex.configs))) < len(ex.configs)


# ---------------------------------------------------------------------------
# The forced-cycle fast-forward against the step-by-step path.
# ---------------------------------------------------------------------------


class StepwiseOscillator(Oscillator):
    """An Oscillator that does not say it is periodic, so the engine asks it
    at every step."""

    def phase(self, step_index):
        return None


@st.composite
def quiet_cases(draw):
    n = draw(st.integers(2, 8))
    shape = draw(st.sampled_from(["any", "shielded", "lone"] if n > 3 else ["any", "shielded"]))
    # In the "lone" shape process m is a Byzantine leaf whose one neighbour,
    # far = m - 1, is not a neighbour of the root.  So far follows it, and
    # can stay the one enabled process for good.
    m = n - 1 if shape == "lone" else n
    far = m - 1 if shape == "lone" else None
    edges = [(draw(st.integers(1 if v == far else 0, v - 1)), v) for v in range(1, m)]
    edges += [
        (u, v)
        for u in range(m)
        for v in range(u + 1, m)
        if (u, v) not in edges and (u, v) != (0, far) and draw(st.booleans())
    ]
    if shape == "lone":
        edges.append((far, m))
        byz = [m]
    else:
        byz = draw(st.lists(st.integers(1, n - 1), unique=True, min_size=1, max_size=2))
    if shape == "shielded":
        # Every neighbour of a Byzantine process is also one of the root's,
        # so its level stays 1 whatever the Byzantine one writes, and a run
        # soon goes quiet.
        near = {u for e in edges if set(e) & set(byz) for u in e} - set(byz) - {0}
        edges += [(0, u) for u in sorted(near) if (0, u) not in edges]
    topo = Topology.from_edges(n, 0, edges)
    fm = make_fault_model(topo, byz)
    init = tuple(
        ProcState(
            draw(st.one_of(st.none(), st.sampled_from(topo.neighbors[v]))),
            draw(st.integers(0, n + 2)),
        )
        for v in range(n)
    )
    # A pure predicate of the configuration: none, "nothing correct is
    # enabled" (it holds where the quiet stretches begin), or one level.
    which = draw(st.sampled_from(["none", "quiet", "level"]))
    v, level = draw(st.integers(0, n - 1)), draw(st.integers(0, 3))
    predicate = {
        "none": None,
        "quiet": lambda cfg: not enabled_set(topo, fm, cfg),
        "level": lambda cfg: cfg[v].level == level,
    }[which]
    stop = StopCriterion(
        max_steps=draw(st.one_of(st.integers(0, 300), st.sampled_from([150, 300]))),
        predicate=predicate,
        extra_after=draw(st.integers(0, 80)),
    )
    # Steps made before the run under test, by the same daemon and
    # adversary kind, so that it extends a non-empty execution.
    before = draw(st.sampled_from([None, 0, 1, 7, 40]))
    return (
        topo,
        fm,
        init,
        draw(st.sampled_from(ALL_DAEMONS)),
        draw(st.integers(1, 3)),
        stop,
        before,
        draw(st.integers(0, 99)),
    )


def quiet_run(case, kind):
    topo, fm, init, daemon, period, stop, before, seed = case
    if before is None:
        return run(topo, fm, init, daemon, kind(period), stop, seed=seed)
    ex = run(topo, fm, init, daemon, kind(period), StopCriterion(max_steps=before), seed)
    return continue_run(ex, kind(period), stop, seed + 1)


@settings(max_examples=400, deadline=None)
@given(quiet_cases())
def test_quiet_cycles_repeat_exactly_what_the_step_by_step_path_makes(case):
    fast = quiet_run(case, Oscillator)
    slow = quiet_run(case, StepwiseOscillator)
    assert fast.steps == slow.steps
    assert fast.configs == slow.configs


@pytest.mark.parametrize("daemon", ALL_DAEMONS)
@pytest.mark.parametrize("period", [1, 2, 3])
def test_a_cycle_through_daemon_choices_is_not_repeated(daemon, period):
    # Processes 2 and 5 follow the Byzantine process 3 down to level 1 and
    # back up to level 2 every period, and in between nothing correct is
    # enabled.  A random daemon draws new choices in each round, so equal
    # quiet configurations one round apart do not close a cycle.
    topo = Topology.from_edges(6, 0, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 3)])
    fm = make_fault_model(topo, [3])
    init = tuple(ProcState(None, 0) for _ in range(6))
    stop = StopCriterion(max_steps=200)
    for seed in range(4):
        fast = run(topo, fm, init, daemon, Oscillator(period), stop, seed)
        slow = run(topo, fm, init, daemon, StepwiseOscillator(period), stop, seed)
        assert fast.steps == slow.steps and fast.configs == slow.configs


class CountedOscillator(Oscillator):
    """An Oscillator that records each step at which it is asked."""

    def __init__(self, period):
        super().__init__(period)
        self.asked = []

    def writes(self, topo, fm, configs):
        self.asked.append(len(configs))
        return super().writes(topo, fm, configs)


def counted_run(topo, fm, init, daemon, period, seed):
    # The fast run, how often it asked the adversary, and the stepwise run.
    stop = StopCriterion(max_steps=1000)
    adversary = CountedOscillator(period)
    ex = run(topo, fm, init, daemon, adversary, stop, seed)
    slow = run(topo, fm, init, daemon, StepwiseOscillator(period), stop, seed)
    assert ex.steps == slow.steps and ex.configs == slow.configs
    assert ex.step_count == 1000 and verify_replay(ex) is None
    return ex, len(adversary.asked)


def test_a_quiet_oscillating_tail_is_repeated_without_asking_the_adversary():
    # Process 1 keeps level 1 under the root whatever its Byzantine
    # neighbour 2 holds, so once the tree is built nothing correct moves.
    topo, fm = path_case(3, byz=[2])
    tree = tuple(ProcState(None, 0) if v == 0 else ProcState(v - 1, v) for v in range(3))
    _, asked = counted_run(topo, fm, tree, DaemonPolicy(DISTRIBUTED, RANDOM), 2, seed=3)
    assert asked < 50


@pytest.mark.parametrize("kind", [DISTRIBUTED, SYNCHRONOUS])
def test_a_tail_with_one_enabled_process_is_repeated_without_asking_the_adversary(kind):
    # Process 2 follows its Byzantine neighbour 3 to level 1 and back to
    # level 2 under process 1, so from the first step it is the one enabled
    # process at every step, and it acts whatever the daemon's coins say.
    topo, fm = path_case(4, byz=[3])
    init = tuple(ProcState(None, 0) for _ in range(4))
    ex, asked = counted_run(topo, fm, init, DaemonPolicy(kind, RANDOM), 1, seed=3)
    assert {len(enabled_set(topo, fm, cfg)) for cfg in ex.configs[1:]} == {1}
    assert asked < 50


def two_leaf_case():
    # Processes 2 and 5 each follow their own Byzantine leaf, 3 and 6.
    topo = Topology.from_edges(7, 0, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
    fm = make_fault_model(topo, [3, 6])
    return topo, fm, tuple(ProcState(None, 0) for _ in range(7))


def test_a_choice_between_two_enabled_processes_is_asked_once_per_configuration_and_phase():
    # Processes 2 and 5 stay enabled while the daemon activates them; one
    # left out goes quiet for a step and is enabled again at the next.  So
    # the daemon's coins pick between two processes all along, and no
    # stretch of forced steps is long enough to close a cycle.  The engine
    # steps all 1,000 steps, yet asks the adversary once per distinct
    # configuration and phase.
    topo, fm, init = two_leaf_case()
    ex, asked = counted_run(topo, fm, init, DaemonPolicy(DISTRIBUTED, RANDOM), 1, seed=3)
    sizes = [len(enabled_set(topo, fm, cfg)) for cfg in ex.configs]
    assert sizes.count(2) > 300 and min(sizes[1:]) >= 1
    # Oscillator(1)'s phase at step i + 1, which configs[i] begins, is i % 2.
    assert asked == len({(cfg, i % 2) for i, cfg in enumerate(ex.configs[:-1])})


@pytest.mark.parametrize("daemon", ALL_DAEMONS)
@settings(max_examples=40, deadline=None)
@given(case=engine_cases(max_n=8, max_steps=400, adversaries=(Oscillator,)), period=st.integers(1, 4))
def test_a_periodic_run_equals_its_stepwise_twin(daemon, case, period):
    # The engine asks a periodic strategy once per configuration and phase
    # and repeats forced cycles; asked at every step, it makes the same run.
    topo, fm, init, _, _, max_steps, seed = case
    stop = StopCriterion(max_steps=max_steps)
    fast = run(topo, fm, init, daemon, Oscillator(period), stop, seed)
    slow = run(topo, fm, init, daemon, StepwiseOscillator(period), stop, seed)
    assert fast.steps == slow.steps and fast.configs == slow.configs


class RogueOscillator(Oscillator):
    """A periodic strategy that also writes to correct process 1."""

    def writes(self, topo, fm, configs):
        return {**super().writes(topo, fm, configs), 1: ProcState(None, 0)}


@pytest.mark.parametrize("daemon", ALL_DAEMONS)
def test_a_periodic_strategy_is_checked_before_its_writes_are_kept(daemon):
    # The run before already asked Oscillator(1) at these configurations and
    # phases; the rogue one is still asked, and refused, at its first step.
    topo, fm, init = two_leaf_case()
    ex = run(topo, fm, init, daemon, Oscillator(1), StopCriterion(max_steps=50), seed=3)
    with pytest.raises(ContractViolation, match="correct process 1"):
        continue_run(ex, RogueOscillator(1), StopCriterion(max_steps=50), seed=4)
    assert ex.step_count == 50


@pytest.mark.parametrize("daemon", ALL_DAEMONS)
@pytest.mark.parametrize("first", [100, 101])
def test_a_continued_run_asks_its_own_adversary(daemon, first):
    # Oscillator(1) and Oscillator(2) share phases 0 and 1 but write
    # differently at phase 1, so writes kept from the first call would
    # change the second.
    topo, fm, init = two_leaf_case()
    runs = []
    for one, two in ((Oscillator(1), Oscillator(2)), (StepwiseOscillator(1), StepwiseOscillator(2))):
        ex = run(topo, fm, init, daemon, one, StopCriterion(max_steps=first), seed=3)
        runs.append(continue_run(ex, two, StopCriterion(max_steps=300), seed=4))
    fast, slow = runs
    assert fast.steps == slow.steps and fast.configs == slow.configs


# ---------------------------------------------------------------------------
# The trace codec under generated runs and one-token edits.
# ---------------------------------------------------------------------------


def run_case(case):
    topo, fm, init, daemon, adversary, max_steps, seed = case
    return run(topo, fm, init, daemon, adversary, StopCriterion(max_steps=max_steps), seed=seed)


def check_round_trip(ex):
    """Load the trace of ``ex`` and check it against ``ex``; return it."""
    text = trace_text(ex)
    back = parse_trace(text)
    assert back.configs == ex.configs
    assert [(s.activated, s.byz_writes) for s in back.steps] == [
        (s.activated, s.byz_writes) for s in ex.steps
    ]
    assert trace_text(back) == text
    assert verify_replay(back) is None
    # Equal configurations load as one object, and so do equal records.
    assert len(set(map(id, back.configs))) == len(set(back.configs))
    for made in (ex, back):
        assert len(set(map(id, made.steps))) == len(set(made.steps))
    # The codec and the analysis passes share one transition diff and one
    # tail fold: each correct process's chg= entries are its changes.
    chg = Counter(
        int(token.split(":")[0])
        for line in step_lines(text)
        for token in line.partition(" chg=")[2].split(",")
        if token
    )
    counts = change_counts(ex)
    assert counts == {v: chg[v] for v in counts}
    return back


@settings(max_examples=200, deadline=None)
@given(engine_cases(max_n=10))
def test_trace_round_trip_reproduces_the_execution(case):
    check_round_trip(run_case(case))


# A token is a run of characters between the trace's separators.
_TRACE_TOKENS = re.compile(r"([\s,:=])")


@settings(max_examples=300, deadline=None)
@given(engine_cases(max_n=10), st.data())
def test_edited_trace_loads_or_is_a_value_error(case, data):
    text = trace_text(run_case(case))
    parts = _TRACE_TOKENS.split(text)
    # Half the edits fall in the step lines, which most traces are made of.
    body = len(_TRACE_TOKENS.split(text[: text.index("\ninit-end\n")]))
    where = data.draw(
        st.integers(0, len(parts) - 1) | st.integers(body, len(parts) - 1), label="where"
    )
    parts[where] = data.draw(
        st.one_of(
            st.sampled_from(["", "-1", "0", "x", ",", ":", "=", " ", "\n", "step", "end", "act="]),
            st.integers(-20, 40).map(str),
            st.text(max_size=2),
        ),
        label="replacement",
    )
    edited = "".join(parts)
    try:
        back = parse_trace(edited)
    except ValueError:
        return
    verify_replay(back)  # a loaded trace can always be checked
    # A trace holds only what trace_text writes, so it re-encodes to itself.
    assert trace_text(back) == edited


# ---------------------------------------------------------------------------
# Long runs that end in a repeating tail, which the codec and the replay
# check read once per period: the round trip, edits inside the tail, and
# the replay check of a tampered tail.
# ---------------------------------------------------------------------------


def step_lines(text):
    lines = text.splitlines()
    return lines[lines.index("init-end") + 1 : -1]


@settings(max_examples=150, deadline=None)
@given(engine_cases(max_n=8, max_steps=400))
def test_long_runs_round_trip(case):
    check_round_trip(run_case(case))


def test_a_text_tail_that_starts_a_period_before_the_configurations_repeat():
    # From step 13 on, each step line repeats the text of the line six
    # before it, but configuration 12 is not configuration 18, only 13 is
    # 19: a parser that reads the tail once per period must load a second
    # period before the configurations repeat.
    topo, fm = build(parse_scenario("grid w=8 h=8 byz=2"))
    init = random_config(topo, random.Random(3 ^ 0x5EED))
    daemon = DaemonPolicy(SYNCHRONOUS, RANDOM)
    ex = run(topo, fm, init, daemon, Oscillator(3), StopCriterion(max_steps=200), seed=3)
    texts = [line.split(" ", 2)[2] for line in step_lines(trace_text(ex))]
    assert texts[12:-6] == texts[18:] and texts[11] != texts[17]
    assert minplus.scheduler._tail((ex.configs, ex.steps))[:2] == (13, 6)
    back = check_round_trip(ex)
    assert minplus.scheduler._tail((back.configs, back.steps))[:2] == (13, 6)


def tail_run():
    """200 steps on a five-process path whose end is Byzantine; from
    configuration 4 on, the run repeats a period of six steps."""
    topo, fm = path_case(5, byz=[4])
    daemon = DaemonPolicy(CENTRAL, RANDOM)
    stop = StopCriterion(max_steps=200)
    return run(topo, fm, corrupted(topo, fm), daemon, Oscillator(1), stop, seed=3)


def test_the_tail_run_ends_in_a_period():
    ex = tail_run()
    assert minplus.scheduler._tail((ex.configs, ex.steps))[:2] == (4, 6)
    assert step_lines(trace_text(ex))[-2:] == [
        "step 199 act= byz= chg=",
        "step 200 act= byz=4:3:10 chg=4:3:10",
    ]
    check_round_trip(ex)


def _tail_edit(lines, at, name, mid=150, held="4:-1:0"):
    # ``at(i)`` is the index of the line of step i; ``mid`` is the step of
    # the edits in the middle of the tail, and ``held`` the token of
    # process 4 as it stands before step 200.
    if name == "last line renumbered":
        lines[at(200)] = lines[at(200)].replace("step 200 ", "step 201 ")
    elif name == "prefix dropped":
        lines[at(mid)] = lines[at(mid)].removeprefix(f"step {mid} ")
    elif name == "deleted":
        del lines[at(mid)]
    elif name == "deleted, end renumbered":
        del lines[at(mid)]
        lines[-1] = "end 199"
    elif name == "duplicated":
        lines.insert(at(mid), lines[at(mid)])
    elif name == "duplicated, end renumbered":
        lines.insert(at(mid), lines[at(mid)])
        lines[-1] = "end 201"
    elif name == "swapped":
        lines[at(mid)], lines[at(mid + 1)] = lines[at(mid + 1)], lines[at(mid)]
    elif name == "last chg= unchanged":
        lines[at(200)] = lines[at(200)].partition(" chg=")[0] + f" chg={held}"
    elif name == "last chg= out of range":
        lines[at(200)] = lines[at(200)].partition(" chg=")[0] + " chg=5:3:10"


# Each message as the parser gave it when it read every step line in turn.
TAIL_EDITS = {
    "last line renumbered": "expected step 200, got 'step 201 act= byz=4:3:10 chg=4:3:10'",
    "prefix dropped": "expected step 150, got 'act=3 byz= chg=3:4:1'",
    "deleted": "trace step count mismatch",
    "deleted, end renumbered": "expected step 150, got 'step 151 act= byz= chg='",
    "duplicated": "trace step count mismatch",
    "duplicated, end renumbered": "expected step 151, got 'step 150 act=3 byz= chg=3:4:1'",
    "swapped": "expected step 150, got 'step 151 act= byz= chg='",
    "last chg= unchanged": "step 200: chg= names process 4, which does not change",
    "last chg= out of range": "step 200: process 5 out of range 0..4",
}


@pytest.mark.parametrize("name", TAIL_EDITS)
def test_an_edit_inside_the_tail_is_the_error_it_was(name):
    lines = trace_text(tail_run()).splitlines()
    first = lines.index("init-end")
    _tail_edit(lines, lambda i: first + i, name)
    with pytest.raises(ValueError) as caught:
        parse_trace("\n".join(lines) + "\n")
    assert str(caught.value) == TAIL_EDITS[name]


def idle_run():
    """200 steps of the central round-robin daemon on the same path against
    ``Oscillator(4)``: from configuration 3 on, a period of eight steps,
    two of them idle steps at one configuration, and the run ends on those
    two."""
    topo, fm = path_case(5, byz=[4])
    daemon = DaemonPolicy(CENTRAL, ROUND_ROBIN)
    stop = StopCriterion(max_steps=200)
    return run(topo, fm, corrupted(topo, fm), daemon, Oscillator(4), stop, seed=0)


def test_the_tail_is_the_longest_of_the_nearest_lags():
    # The last step recurs one step back, an idle step after an idle step,
    # but at that lag the tail is two steps long; the period is eight.
    ex = idle_run()
    text = trace_text(ex)
    assert step_lines(text)[-3:] == [
        "step 198 act=3 byz= chg=3:2:3",
        "step 199 act= byz= chg=",
        "step 200 act= byz= chg=",
    ]
    assert minplus.scheduler._tail((ex.configs, ex.steps))[:2] == (3, 8)
    back = check_round_trip(ex)
    assert minplus.scheduler._tail((back.configs, back.steps))[:2] == (3, 8)
    texts = [line.split(" ", 2)[2] for line in step_lines(text)]
    assert minplus.scheduler._tail((list(map(intern, texts)),))[:2] == (3, 8)


# The same edits in the idle run, at step 151: an idle step, so the line
# without its "step 151 " prefix reads "act= byz= chg=", the text of the
# lines one and eight steps before it.  Each message as the parser gave it
# when it read every step line in turn.
IDLE_TAIL_EDITS = {
    "last line renumbered": "expected step 200, got 'step 201 act= byz= chg='",
    "prefix dropped": "expected step 151, got 'act= byz= chg='",
    "deleted": "trace step count mismatch",
    "deleted, end renumbered": "expected step 151, got 'step 152 act= byz= chg='",
    "duplicated": "trace step count mismatch",
    "duplicated, end renumbered": "expected step 152, got 'step 151 act= byz= chg='",
    "swapped": "expected step 151, got 'step 152 act= byz= chg='",
    "last chg= unchanged": "step 200: chg= names process 4, which does not change",
    "last chg= out of range": "step 200: process 5 out of range 0..4",
}


@pytest.mark.parametrize("name", IDLE_TAIL_EDITS)
def test_an_edit_inside_an_idle_tail_is_the_error_it_was(name):
    lines = trace_text(idle_run()).splitlines()
    first = lines.index("init-end")
    _tail_edit(lines, lambda i: first + i, name, mid=151, held="4:3:10")
    with pytest.raises(ValueError) as caught:
        parse_trace("\n".join(lines) + "\n")
    assert str(caught.value) == IDLE_TAIL_EDITS[name]


STAR = Topology.from_edges(5, 0, [(0, 1), (0, 2), (0, 3), (0, 4)])


@settings(max_examples=150, deadline=None)
@given(engine_cases(max_n=8, max_steps=400, adversaries=(Oscillator, Silent)))
@example(
    # The step texts repeat at lag 12 from index 3 on; at lag 71 the one
    # pair is indices 1 and 72, a tail that starts earlier but whose head
    # is the last index.
    (
        STAR,
        make_fault_model(STAR, [1, 2, 3]),
        (ProcState(None, 0), ProcState(None, 1)) + (ProcState(None, 0),) * 3,
        DaemonPolicy(CENTRAL, ROUND_ROBIN),
        Oscillator(6),
        73,
        0,
    )
)
def test_the_tail_proof_against_every_lag(case):
    # The proof over a run's objects and over its trace's interned step
    # texts, against lags found by identity and by equality: the tail holds
    # item by item, its head is no later than the nearest lag's, and it is
    # the longest tail of any lag whenever that lag is among the eight
    # nearest.
    ex = run_case(case)
    texts = [intern(line.split(" ", 2)[2]) for line in step_lines(trace_text(ex))]
    for seqs, same in (((ex.configs, ex.steps), is_), ((texts,), eq)):
        tail = minplus.scheduler._tail(seqs)
        start, period, end = tail
        for seq in seqs:
            assert all(same(seq[i], seq[i + period]) for i in range(start, len(seq) - period))
        lags = lag_tails(seqs, same)
        if not lags:
            assert tail == (len(seqs[0]), 0, len(seqs[0]) - 1)
            continue
        nearest, nearest_start = lags[0]
        assert tail.head() <= min(end, nearest_start + nearest)
        best = longest_tail(seqs, same)
        if best[1] in [lag for lag, _ in lags[:8]]:
            assert (start, period) == best


@pytest.mark.parametrize("loaded", [False, True])
def test_replay_checks_edits_in_the_last_period(loaded):
    ex = tail_run()
    if loaded:
        ex = parse_trace(trace_text(ex))
    start, period, _ = minplus.scheduler._tail((ex.configs, ex.steps))
    k = len(ex.steps) - 2
    assert k - period > start
    original, rec = ex.configs[k], ex.steps[k]
    ex.configs[k] = tuple(original)  # an equal copy is checked and holds
    assert verify_replay(ex) is None
    states = list(original)
    states[2] = ProcState(states[2].prnt, states[2].level + 1)
    ex.configs[k] = tuple(states)
    assert verify_replay(ex) == k
    ex.configs[k] = original
    assert verify_replay(ex) is None
    ex.steps[k] = StepRecord(rec.activated, rec.byz_writes + ((3, ProcState(None, 0)),))
    assert verify_replay(ex) == k + 1
    ex.steps[k] = rec
    # Lists that do not pair stop pairing after the last full step.
    ex.configs.append(ex.configs[-1 - period])
    assert verify_replay(ex) == 201
    del ex.configs[-4:]
    assert verify_replay(ex) == 198
    del ex.steps[-5:]
    assert verify_replay(ex) == 196


# ---------------------------------------------------------------------------
# Golden trace bytes: any rewrite of the engine or the trace codec that
# changes the order of random draws, a daemon choice, an adversary write or
# the trace format changes this digest.
# ---------------------------------------------------------------------------

GOLDEN_GRAPHS = [
    # A hexagon with one chord, one Byzantine process.
    (6, 0, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)], (3,)),
    # A tree with two chords, rooted inside, two Byzantine processes.
    (8, 2, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (5, 6), (6, 7), (0, 3), (3, 7)], (0, 6)),
]
GOLDEN_SHA256 = "76ef9b73474ee2b60395db9c54b29a87888ad35de92332d4764710d3c2b8a1d4"


def golden_cases():
    """(topology, fault model, start, script) of each golden graph."""
    for n, root, edges, byz in GOLDEN_GRAPHS:
        topo = Topology.from_edges(n, root, edges)
        fm = make_fault_model(topo, byz)
        init = tuple(
            ProcState(topo.neighbors[v][-1] if v % 3 else None, (7 * v + 3) % (2 * n))
            for v in topo.processes()
        )
        script = [(3, b, ProcState(None, 7)) for b in byz] + [
            (9, byz[0], ProcState(topo.neighbors[byz[0]][0], 1))
        ]
        yield topo, fm, init, script


def golden_panel():
    """(daemon, adversary, trace text) for every daemon, fairness policy and
    built-in adversary on the two golden graphs."""
    for topo, fm, init, script in golden_cases():
        for daemon in ALL_DAEMONS:
            for adversary in (
                Silent(),
                FakeRoot(),
                MirrorRoot(),
                Oscillator(2),
                RandomWrites(5),
                WellBehaved(),
                Scripted(script),
            ):
                ex = run(topo, fm, init, daemon, adversary, StopCriterion(max_steps=80), seed=11)
                yield daemon, adversary, trace_text(ex)


def test_trace_bytes_match_the_golden_digest():
    digest = hashlib.sha256()
    runs = 0
    for _, _, text in golden_panel():
        digest.update(text.encode("utf-8"))
        runs += 1
    assert runs == 2 * 6 * 7
    assert digest.hexdigest() == GOLDEN_SHA256


# The same, for runs that a predicate stops: ``extra_after`` steps past the
# first contained configuration, then continued once under the same rule.
# An extra of 40 lets an oscillating tail close its cycle before the end.
PREDICATE_SHA256 = "1a37f3c023c89f92598709344940bf2d1a0db7c46dab1c300272df19c9c2c3f6"


def predicate_panel():
    """Trace text of each predicate-stopped run, continued once."""
    for topo, fm, init, script in golden_cases():
        areas = compute_containment_areas(topo, fm)

        def contained(cfg):
            return is_contained(topo, fm, cfg, areas)

        for daemon in ALL_DAEMONS:
            for extra in (0, 3, 40):
                stop = StopCriterion(max_steps=120, predicate=contained, extra_after=extra)
                for make in (lambda: Oscillator(2), lambda: Scripted(script)):
                    ex = run(topo, fm, init, daemon, make(), stop, seed=11)
                    yield trace_text(continue_run(ex, make(), stop, seed=12))


def test_predicate_stopped_trace_bytes_match_their_golden_digest():
    digest = hashlib.sha256()
    runs = 0
    for text in predicate_panel():
        digest.update(text.encode("utf-8"))
        runs += 1
    assert runs == 2 * 6 * 3 * 2
    assert digest.hexdigest() == PREDICATE_SHA256


# The same at large n, where the engine's touched, enabled and fairness
# sets are hundreds of processes wide: a 20 x 20 grid and a seeded sparse
# graph of 300 processes (a random spanning tree plus about as many chords),
# every daemon against ``Oscillator(1)`` and ``RandomWrites`` from a seeded
# random start.
LARGE_SHA256 = "73fad01dfed23c6db372481945f901c0e4b3da6f18317ec0e9e8c4f671178df9"


def large_panel():
    """Trace text of each large-graph run."""
    rng = random.Random(2024)
    sparse = Topology.from_edges(300, 0, random_connected_edges(rng, 300, 2 / 300))
    for topo, byz in ((grid_topology(20, 20), (37, 210, 389)), (sparse, (11, 150, 299))):
        fm = make_fault_model(topo, byz)
        init = random_config(topo, rng)
        for daemon in ALL_DAEMONS:
            for adversary in (Oscillator(1), RandomWrites(rng.randrange(1 << 30))):
                ex = run(topo, fm, init, daemon, adversary, StopCriterion(max_steps=30), seed=7)
                yield trace_text(ex)


def test_large_graph_trace_bytes_match_their_golden_digest():
    digest = hashlib.sha256()
    runs = 0
    for text in large_panel():
        digest.update(text.encode("utf-8"))
        runs += 1
    assert runs == 2 * 6 * 2
    assert digest.hexdigest() == LARGE_SHA256
