"""Daemon models, fairness, the execution engine, and stored runs.

A run advances one configuration at a time.  Each step the adversary is
asked what the Byzantine processes write, the daemon picks which enabled
correct processes act, and both are applied simultaneously against the
pre-step configuration.  Three daemons are supported:

* ``central``    -- one process per step: either a single correct
  activation or a single Byzantine write, alternating between the two when
  both have work so neither side starves the other.
* ``distributed`` -- a nonempty subset of the enabled correct processes,
  with Byzantine writes riding along in the same step: a random one under
  ``random`` fairness, all of them under ``round_robin``.
* ``synchronous`` -- every enabled correct process, every step, under
  either fairness.

So distributed round-robin, synchronous round-robin and synchronous random
are one daemon and make the same executions; a trace still records the
daemon as it was given.  A hand-chosen schedule is an ``Execution`` built
with ``protocol.step``, which rejects activating a disabled process.

Fairness is bounded: a correct process continuously enabled across a full
window of activation opportunities is forcibly activated (window = process
count; for the central daemon the window counts the steps in which some
correct process acted, since Byzantine-write steps are not opportunities).
Runs are a deterministic function of their inputs and seed, and every
stored transition can be replayed bit-exactly.  A step is forced when the
daemon's choice cannot change it: no correct process is enabled, the daemon
activates every enabled process, or a distributed daemon has exactly one to
pick.  In an unbroken stretch of forced steps, a periodic adversary
(``Adversary.phase``) that brings back an earlier configuration and phase
closes a cycle, and the rest of the run repeats it without asking the
adversary again.  Outside such a cycle, a periodic adversary is asked once
per distinct configuration and phase in each ``run`` or ``continue_run``
call, and its checked writes are reused; any other is asked at every step.

A stored run is read in one place: ``_tail`` proves its repeating tail, once
while the run's lists are unchanged, and ``_Index`` reads it once per distinct
transition and period, for ``trace_text`` and the analysis passes alike.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import partial, reduce
from itertools import compress, count, cycle, dropwhile, filterfalse, islice, pairwise
from itertools import repeat, takewhile
from operator import eq, is_not, not_, or_
from pathlib import Path
from sys import intern
from typing import Callable, NamedTuple

from .adversary import Adversary, advise
from .errors import ContractViolation
from .graph import (
    FaultModel,
    Topology,
    canonical_int,
    parse_topology,
    topology_sha256,
    topology_text,
)
from .protocol import (
    Config,
    ProcState,
    _action,  # unused here, bound for perfbench/tracing.py
    _successor,
    config_text,
    is_enabled,
    normalize_config,
    parse_config,
    parse_state,
    step,
)

CENTRAL = "central"
DISTRIBUTED = "distributed"
SYNCHRONOUS = "synchronous"

ROUND_ROBIN = "round_robin"
RANDOM = "random"


@dataclass(frozen=True)
class DaemonPolicy:
    """Which enabled correct processes act in each step: a daemon kind and
    a fairness policy, ``round_robin`` or ``random`` (see the module
    docstring).  ``(distributed, round_robin)``, ``(synchronous,
    round_robin)`` and ``(synchronous, random)`` all activate every enabled
    process, so they run alike; they stay distinct values, and a trace
    header records the one given."""

    kind: str = DISTRIBUTED
    fairness: str = RANDOM

    def __post_init__(self):
        if self.kind not in (CENTRAL, DISTRIBUTED, SYNCHRONOUS):
            raise ValueError(f"unknown daemon kind {self.kind!r}")
        if self.fairness not in (ROUND_ROBIN, RANDOM):
            raise ValueError(f"unknown fairness policy {self.fairness!r}")


@dataclass(frozen=True)
class StopCriterion:
    """When a run ends.

    A run takes at most ``max_steps`` steps.  With a ``predicate``, the
    first configuration satisfying it lowers that limit to ``extra_after``
    steps past it.  The predicate must be a pure function of the
    configuration: the engine asks it once per step until it first holds,
    and never after.  A run also ends, early, when no correct process is
    enabled, the adversary writes nothing and its ``done`` says it never
    will again, since nothing can happen after that.  Otherwise a step
    with nothing enabled and nothing written is recorded as an idle step.
    """

    max_steps: int
    predicate: Callable[[Config], bool] | None = None
    extra_after: int = 0

    def __post_init__(self):
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be nonnegative, got {self.max_steps}")
        if self.extra_after < 0:
            raise ValueError(f"extra_after must be nonnegative, got {self.extra_after}")


def step_budget(topo: Topology) -> int:
    """Default step allowance: generous versus observed desk-scale convergence."""
    return 50 * topo.process_count * max(topo.edge_count, 1)


class StepRecord(NamedTuple):
    activated: frozenset[int]
    byz_writes: tuple[tuple[int, ProcState], ...]


@dataclass
class Execution:
    """A trace: initial configuration plus every (activation, writes) step.

    ``configs[0]`` is the initial configuration and ``steps[i]`` produced
    ``configs[i+1]``.  Re-applying each stored step must reproduce the
    stored configurations exactly.
    """

    topo: Topology
    fm: FaultModel
    daemon: DaemonPolicy
    seed: int
    adversary_desc: str
    configs: list[Config] = field(default_factory=list)
    steps: list[StepRecord] = field(default_factory=list)
    meta_extra: dict = field(default_factory=dict)
    # Each configuration and record the engine or ``parse_trace`` made for
    # this execution, interned by value as its one shared object, and the
    # engine's transitions from those objects (see ``_drive``); both last
    # across ``continue_run`` calls.  ``_proof`` is the proof ``_Index`` shares.
    _interned: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _transitions: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _proof: tuple = field(default=(), init=False, repr=False, compare=False)

    def __getstate__(self):
        # A copy or a pickle holds new objects: it drops the tables keyed by ids.
        return {**vars(self), "_transitions": {}, "_proof": ()}

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def final(self) -> Config:
        return self.configs[-1]


def enabled_set(topo: Topology, fm: FaultModel, cfg: Config) -> frozenset[int]:
    """Exactly the correct processes whose guard holds in cfg."""
    correct = list(filterfalse(fm.byzantine.__contains__, topo.processes()))
    return frozenset(compress(correct, map(is_enabled, repeat(topo), repeat(cfg), correct)))


def run(
    topo: Topology,
    fm: FaultModel,
    init: Config,
    daemon: DaemonPolicy,
    adversary: Adversary,
    stop: StopCriterion,
    seed: int = 0,
) -> Execution:
    """Produce an execution: a deterministic function of its inputs and seed."""
    if topo.root in fm.byzantine:
        raise ValueError("root cannot be Byzantine")
    init = normalize_config(topo, fm, init)
    ex = Execution(
        topo=topo,
        fm=fm,
        daemon=daemon,
        seed=seed,
        adversary_desc=adversary.name,
        configs=[init],
    )
    return continue_run(ex, adversary, stop, seed)


def continue_run(
    ex: Execution,
    adversary: Adversary,
    stop: StopCriterion,
    seed: int = 0,
) -> Execution:
    """Extend an execution in place from its final configuration under ``ex.daemon``."""
    adversary.reset(ex.topo, ex.fm)
    _drive(ex, adversary, stop, seed)
    return ex


def _drive(ex: Execution, adversary: Adversary, stop: StopCriterion, seed: int) -> None:
    topo, fm, daemon = ex.topo, ex.fm, ex.daemon
    byzantine = fm.byzantine
    neighbors = topo.neighbors
    rng = None  # seeded at the first draw, which many runs never make
    window = topo.process_count
    # A run soon cycles through a few configurations, so each distinct
    # transition is computed once per execution.  Equal configurations are
    # one interned object, which the table keeps alive, so a configuration's
    # id names it in the transition key; the start is swapped for its twin
    # for the same reason.  A transition maps to the new configuration, its
    # record, and the affected correct processes that are enabled (``on``)
    # and not enabled (``off``) after it; records are interned alike.
    interned, transitions = ex._interned, ex._transitions
    cfg = ex.configs[-1]
    cfg = ex.configs[-1] = interned.setdefault(cfg, cfg)
    # Fairness slots are the steps in which a correct process could act.
    # ``since`` holds exactly the enabled correct processes, each with the
    # slot count at which it last became enabled or acted, so its age (slots
    # enabled without acting) is ``slots - since[v]`` and a step updates only
    # the processes it touches.
    slots = 0
    since = dict.fromkeys(sorted(enabled_set(topo, fm, cfg)), 0)
    last_slot_byz = True  # first central slot goes to a correct process
    # Whether every enabled process acts.  Actions read the pre-step
    # configuration, so the order of ``activated`` never matters.
    every = daemon.kind == SYNCHRONOUS or (
        daemon.kind == DISTRIBUTED and daemon.fairness == ROUND_ROBIN
    )
    # The predicate is ``pending`` until it first holds; then the step
    # limit, the step count at which the run ends, drops to ``extra_after``
    # steps past that point.  No cycle is closed while it is pending, since
    # it must see every configuration.
    now = len(ex.steps)
    limit, pending = now + stop.max_steps, stop.predicate
    # Whether a step is forced (see the module docstring) depends only on
    # the configuration: a distributed daemon's one enabled process acts
    # whatever its coins say, and with nothing enabled the central daemon
    # gives every slot to the Byzantine write.  So under a periodic
    # adversary a forced step depends only on the configuration and the
    # adversary's phase.  ``forced`` maps those of each step of the current
    # forced stretch to its step number; the first repeat closes a cycle,
    # which the rest of the run repeats.  The central daemon's alternation
    # and starvation stamps lie outside that key, so its steps are forced
    # only while nothing correct is enabled.
    forced: dict[tuple, int] = {}
    lone_forced = daemon.kind == DISTRIBUTED
    # A periodic adversary's writes depend only on the configuration and the
    # phase, so ``asked`` keeps each pair's checked writes as a step record
    # holds them, and the adversary is asked once per pair in this call.
    # ``pools`` keeps the sorted enabled processes that the random daemons
    # draw from, for each configuration entered by a transition made before
    # (``hit``): a run that revisits no configuration keeps none.
    asked: dict[tuple, tuple] = {}
    pools: dict[int, list[int]] = {}
    hit = False

    while now < limit:
        cfg = ex.configs[-1]
        if pending is not None and pending(cfg):
            limit, pending = min(limit, now + stop.extra_after), None
            continue
        phase = adversary.phase(len(ex.configs))
        at = None if phase is None else (id(cfg), phase)
        if since and not every and (len(since) > 1 or not lone_forced):
            forced.clear()
        elif pending is None and at is not None:
            first = forced.setdefault(at, now)
            if first != now:
                _Lasso(first, now - first, now).extend(limit - now, ex.steps, ex.configs)
                return
        written = asked.get(at)
        if written is None:
            # Looked up by name at each call: perfbench/tracing.py rebinds it.
            written = tuple(sorted(advise(adversary, topo, fm, ex.configs).items()))
            if at is not None:
                asked[at] = written
        idle = not since and not written
        if idle and adversary.done(topo, fm, ex.configs):
            break  # nothing can ever happen again

        activated: list[int] = []
        byz_writes = written
        slot_counts = True  # whether this step is a fairness slot
        # A process of age window - 1 or more is starved: it must act now.
        starved_since = slots - window + 1

        if idle:
            pass  # the adversary is not done but writes nothing this step
        elif every:
            activated = list(since)
        elif daemon.kind == CENTRAL:
            starved = _stamped_by(since, starved_since)
            if written and not starved and (not last_slot_byz or not since):
                byz_writes = written[:1]  # the smallest written process
                slot_counts = False
                last_slot_byz = True
            else:
                byz_writes = ()
                if daemon.fairness == ROUND_ROBIN:
                    # The oldest enabled process, the smallest id among ties.
                    activated = [min(_stamped_by(since, next(iter(since.values()))))]
                elif starved:
                    activated = [min(starved)]
                last_slot_byz = False
        if since and slot_counts and not activated:
            # Left to chance: a distributed random step, or a central random
            # correct slot with none starved.  The distributed daemon tosses
            # one coin per enabled process in id order and adds the starved
            # ones; a random one is picked when that picks none, and always
            # by the central daemon.
            pool = pools.get(id(cfg))
            if pool is None:
                pool = sorted(since)
                if hit:
                    pools[id(cfg)] = pool
            if rng is None:
                rng = random.Random(seed)
            if daemon.kind == DISTRIBUTED:
                activated = [
                    v for v in pool if rng.random() < 0.5 or since[v] <= starved_since
                ]
            activated = activated or [rng.choice(pool)]

        key = (id(cfg), tuple(activated), byz_writes)
        transition = transitions.get(key)
        hit = transition is not None
        if not hit:
            new_cfg = _successor(topo, cfg, activated, byz_writes)
            new_cfg = interned.setdefault(new_cfg, new_cfg)
            # Only the processes that moved and their neighbors can change
            # guards; the correct ones among them are re-evaluated in a
            # Python loop, since ``map`` and ``compress`` measured slower
            # here, at n <= 4 and at n = 1,000.  ``update`` receives every
            # neighbor tuple before it runs.
            touched = set(activated)
            touched.update([b for b, _ in byz_writes])
            touched.update(*map(neighbors.__getitem__, touched))
            touched -= byzantine
            on: list[int] = []
            off: list[int] = []
            for v in touched:
                (on if is_enabled(topo, new_cfg, v) else off).append(v)
            rec = StepRecord(frozenset(activated), byz_writes)
            rec = interned.setdefault(rec, rec)
            transition = transitions[key] = (new_cfg, rec, tuple(on), tuple(off))
        new_cfg, rec, on, off = transition
        ex.steps.append(rec)
        ex.configs.append(new_cfg)
        now += 1

        if slot_counts:
            slots += 1
        if every:
            # Every enabled process acted, so the enabled ones now are
            # exactly those the step touched that are enabled after it.
            since = dict.fromkeys(on, slots)
        else:
            for v in activated:
                del since[v]  # re-stamped below if still enabled
            for v in off:
                since.pop(v, None)
            for v in on:
                if v not in since:
                    since[v] = slots


def _stamped_by(since: dict, t: int) -> list[int]:
    # The processes of ``since`` stamped at slot t or earlier.  New stamps
    # are the current slot count, so stamps never fall along the dict's
    # insertion order and these are a prefix of it.
    return [v for v, _ in takewhile(lambda entry: entry[1] <= t, since.items())]


# The proof tries only the nearest lags.  Trying every lag can find a longer
# tail, at O(steps) per lag.  On the 20,000-step cache-hit run that CI pins,
# every lag took 14 ms over the objects and 50 ms over the step texts, against
# 0.07 and 0.02 ms with the cap, for tails of periods 4,742 and 6,262 whose
# heads lay only 4 and 5 steps before the capped proof's.
_LAGS = 8


class _Lasso(NamedTuple):
    """A repeating tail: from ``start`` on, each item is the one ``period``
    later, up to ``end``, the first list's last index (no tail: ``end + 1, 0``)."""

    start: int
    period: int
    end: int

    def head(self, lo: int = 0) -> int:
        """The last index a pass from ``lo`` reads: one period into the tail."""
        return min(self.end, max(lo, self.start) + self.period)

    def extend(self, k: int, *seqs: list) -> None:
        """Append ``k`` items to each of ``seqs`` that repeat its last period."""
        for seq in seqs:
            seq.extend(islice(cycle(seq[len(seq) - self.period :]), k))


def _tail(seqs) -> _Lasso:
    """The repeating tail of ``seqs``, lists indexed alike, each one item
    shorter than the one before (a stored run's configurations and the
    records between them, or a trace's interned step texts), by identity;
    the one proof of a tail, never trusted from the engine.  Of the
    ``_LAGS`` nearest lags at which the item at the last index of all lists
    recurs, the one whose tail has the earliest head is taken, the nearest
    among ties: the nearest alone falls short when, say, idle steps recur
    inside a longer period.  A lag is not scanned once it reaches the best
    head, or once the best tail is as long as both lags (by Fine and Wilf it
    could not start earlier)."""
    end, last = len(seqs[0]) - 1, len(seqs[-1]) - 1
    start, period = end + 1, 0
    if last < 1 or end - last != len(seqs) - 1:
        return _Lasso(start, period, end)
    # Whether each list's item at ``last`` is another object than each earlier one.
    moved = [map(is_not, islice(reversed(seq), len(seq) - last, None), repeat(seq[last])) for seq in seqs]
    for p in islice(compress(count(1), map(not_, reduce(partial(map, or_), moved))), _LAGS):
        if p >= start + period:
            break
        if period and start + p + period <= last + 1:
            continue
        lo = 0
        for seq in seqs:
            # seq[i] against seq[i - p], from the last item back.
            pairs = map(is_not, reversed(seq), islice(reversed(seq), p, None))
            lo = max(lo, len(seq) - p - next(compress(count(), pairs), len(seq) - p))
        if lo + p < start + period:
            start, period = lo, p
    return _Lasso(start, period, end)


class _Memo(dict):
    """A dict that fills each missing key with ``fn(key)``, once."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _Index:
    """One stored run, read once per distinct configuration and transition,
    and once per period of its repeating tail.

    Configurations are named by identity: the engine and ``parse_trace``
    intern them, so a run's repeated configurations are one object.  An
    execution that is not interned is read just as correctly, with fewer
    repeats.  Per-step sequences are streamed through C-level passes, so no
    Python loop runs once per step and nothing per step is kept.

    A pass from configuration ``lo`` reads up to ``tail.head(lo)``, one
    period into the tail that ``_tail`` proves, and folds in the rest from
    that period, so it costs the prefix plus one or two periods.  An index
    is built for one call of ``trace_text`` or of a public pass, or one
    ``measure`` or ``violations`` call, which hands it to the passes it
    makes.  It reads copies of ``ex.configs`` and ``ex.steps`` and their
    proof, kept on ``ex`` and reused while the copies equal the live lists
    (identity first, in C): equal items give equal results, so no result
    comes from a stale proof.  A step past the last configuration is a
    ``ValueError``.
    """

    def __init__(self, ex: Execution):
        if len(ex.steps) >= len(ex.configs):
            raise ValueError(f"step {len(ex.configs)} has no configuration after it")
        if ex._proof[:2] != (ex.configs, ex.steps):
            configs, steps = list(ex.configs), list(ex.steps)
            tail = _tail((configs, steps))
            # Each distinct configuration under its id, in order of first
            # appearance; none first appears after the head of the tail.
            distinct = configs[: tail.head() + 1]
            ex._proof = configs, steps, tail, dict(zip(map(id, distinct), distinct))
        self.configs, self.steps, self.tail, self.config = ex._proof
        self.topo, self.fm = ex.topo, ex.fm
        self.correct = list(filterfalse(ex.fm.byzantine.__contains__, ex.topo.processes()))
        self._watched: dict[tuple[int, ...], _Memo] = {}

    def pairs(self, lo: int = 0, hi: int | None = None):
        """The (before, after) id pair of each step after configuration
        ``lo``, up to configuration ``hi``."""
        return pairwise(map(id, islice(self.configs, lo, None if hi is None else hi + 1)))

    def tally(self, items, lo: int) -> Counter:
        """``Counter(items(lo, tail.end))``, where ``items(a, b)`` yields
        something for each step after configuration ``a`` up to ``b``; steps
        past ``tail.head(lo)`` count as whole periods plus a remainder."""
        end, p = self.tail.end, self.tail.period
        h = self.tail.head(lo)
        out = Counter(items(lo, h))
        if end > h:
            laps, rest = divmod(end - h, p)
            for key, times in Counter(items(h - p, h)).items():
                out[key] += laps * times
            out.update(items(h - p, h - p + rest))
        return out

    def watched(self, watch: list[int]) -> _Memo:
        """Distinct (before, after) id pair -> the processes of ``watch`` it
        changes, in the order of ``watch``; one memo per watch set."""
        key = tuple(watch)
        memo = self._watched.get(key)
        if memo is None:
            config = self.config

            def changed(pair: tuple[int, int]) -> list[int]:
                before, after = config[pair[0]], config[pair[1]]
                return [v for v in watch if before[v] != after[v]]

            memo = self._watched[key] = _Memo(changed)
        return memo

    def changing_steps(self, watch: list[int], lo: int = 0) -> list[int]:
        """The steps after configuration ``lo`` that change a process of
        ``watch``.  Past ``tail.head(lo)`` they are looked for only if the
        period before it holds one."""
        moves = self.watched(watch).__getitem__
        h = self.tail.head(lo)
        found = list(compress(count(lo + 1), map(moves, self.pairs(lo, h))))
        if found and found[-1] > h - self.tail.period:
            found += compress(count(h + 1), map(moves, self.pairs(h)))
        return found

    def first(self, holds, since: Config | None = None) -> int | None:
        """The first configuration index whose configuration satisfies
        ``holds``, asked once per distinct configuration, in order of first
        appearance from ``since`` (from the start when not given)."""
        distinct = iter(self.config.values())
        if since is not None:
            distinct = dropwhile(partial(is_not, since), distinct)
        for cfg in distinct:
            if holds(cfg):
                # Equal configurations satisfy ``holds`` alike, and each was
                # asked in order of first appearance.
                return self.configs.index(cfg)
        return None


def verify_replay(ex: Execution) -> int | None:
    """Re-apply every stored step; return the first divergent step index.

    A step that cannot be applied (it activates a disabled or Byzantine
    process, or writes to a correct one) diverges too, and so does the
    first step at which the stored steps and configurations stop pairing
    (``configs`` must hold one more than ``steps``): when no earlier step
    diverges, lists of any other lengths return
    ``min(len(steps), len(configs) - 1) + 1``.  Returns None when the whole
    trace is reproduced exactly.  Each distinct transition, by the identity
    of its configurations and record, is re-applied once, so a tampered
    repeat (a new object) is still checked.  No step past the head of the
    repeating tail that ``_tail`` proves is read: each is, by identity, the
    transition a period before it, and a tampered one ends the tail.
    """
    configs, steps = ex.configs, ex.steps
    head = _tail((configs, steps)).head()
    verified: set[tuple[int, int, int]] = set()
    for i, rec, (before, after) in zip(range(1, head + 1), steps, pairwise(configs)):
        key = (id(before), id(rec), id(after))
        if key in verified:
            continue
        try:
            expected = step(ex.topo, ex.fm, before, rec.activated, dict(rec.byz_writes))
        except ContractViolation:
            return i
        if expected != after:
            return i
        verified.add(key)
    if len(configs) != len(steps) + 1:
        return min(len(steps), len(configs) - 1) + 1
    return None


# ---------------------------------------------------------------------------
# Trace files: header with seed, topology hash and daemon policy, the
# embedded topology and initial configuration, then one line per step with
# the activation set, the Byzantine writes, and the changed states.
# ---------------------------------------------------------------------------

_TRACE_MAGIC = "minplus-trace 1"


def _trace_head(ex: Execution) -> list[str]:
    # The lines before the first step line.
    meta = {
        "adversary": ex.adversary_desc,
        "daemon": asdict(ex.daemon),
        "seed": ex.seed,
        "steps": len(ex.steps),
        "topology_sha256": topology_sha256(ex.topo, ex.fm),
    }
    if ex.meta_extra:
        meta["config"] = ex.meta_extra
    return [
        _TRACE_MAGIC,
        json.dumps(meta, sort_keys=True),
        "topology-begin",
        topology_text(ex.topo, ex.fm).rstrip("\n"),
        "topology-end",
        "init-begin",
        config_text(ex.configs[0]).rstrip("\n"),
        "init-end",
    ]


def _state_token(entry: tuple[int, ProcState]) -> str:
    # "v:p:level", p = -1 for bottom.
    v, (p, level) = entry
    return f"{v}:{-1 if p is None else p}:{level}"


def trace_text(ex: Execution) -> str:
    """The trace of ``ex``.  Each distinct transition is encoded once, and
    past the head of the repeating tail that ``_tail`` proves, each step
    line is its number plus the text of the line a period before it.  A
    configuration no step reaches is a ``ValueError``: it would be lost."""
    idx = _Index(ex)
    if len(ex.steps) < len(ex.configs) - 1:
        raise ValueError(f"configuration {len(ex.steps) + 1} has no step before it")
    changed = idx.watched(range(len(ex.configs[0])))
    token = _Memo(_state_token).__getitem__
    act_text = _Memo(lambda acts: ",".join(map(str, sorted(acts))))

    def step_text(key) -> str:
        pair, rec = key
        after = idx.config[pair[1]]
        return (
            f"act={act_text[rec.activated]} byz={','.join(map(token, rec.byz_writes))}"
            f" chg={','.join(map(token, [(v, after[v]) for v in changed[pair]]))}"
        )

    # Keyed by each step's (before, after) id pair and its record.
    texts = _Memo(step_text)
    written = list(map(texts.__getitem__, zip(idx.pairs(0, idx.tail.head()), idx.steps)))
    idx.tail.extend(len(ex.steps) - len(written), written)
    lines = _trace_head(ex)
    lines += [f"step {i} {text}" for i, text in zip(count(1), written)]
    lines.append(f"end {len(ex.steps)}")
    return "\n".join(lines) + "\n"


def write_trace(ex: Execution, path) -> None:
    Path(path).write_text(trace_text(ex), encoding="utf-8", newline="\n")


def parse_trace(text: str) -> Execution:
    """Load a trace; any malformed or truncated input raises ValueError.

    Only what ``trace_text`` could have written loads, byte for byte.  Lines
    end in ``\\n`` alone (``read_trace`` reads other line endings as
    ``\\n``).  The step texts' repeating tail (see ``_tail``) is decoded
    two periods in, where the configurations repeat too, and the last
    period loaded is repeated for the rest.
    """
    lines = text.split("\n")
    if lines[0] != _TRACE_MAGIC:
        raise ValueError("not a minplus trace file")
    if lines.pop():
        raise ValueError("truncated trace: no newline at the end")
    if len(lines) < 2:
        raise ValueError("truncated trace: no header line")
    try:
        return _parse_trace_lines(lines)
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed trace: {exc!r}") from exc


def _process_ids(tokens: list[str], n: int, text: str) -> list[int]:
    # Process ids in 0..n-1 and in increasing order.
    ids = list(map(canonical_int, tokens))
    for v in ids:
        if not 0 <= v < n:
            raise ValueError(f"process {v} out of range 0..{n - 1}")
    for u, v in pairwise(ids):
        if u >= v:
            how = "twice" if u == v else "out of order"
            raise ValueError(f"process {v} {how} in {text!r}")
    return ids


def _states(text: str, n: int) -> tuple[tuple[int, ProcState], ...]:
    # The ``v:p:level`` entries of a ``byz=`` or ``chg=`` field.
    entries = [token.split(":") for token in text.split(",")] if text else []
    ids = _process_ids([v for v, _, _ in entries], n, text)
    return tuple(zip(ids, (parse_state(p, level) for _, p, level in entries)))


def _parse_trace_lines(lines: list[str]) -> Execution:
    meta = json.loads(lines[1])
    # The check of the head's bytes below rejects any other layout.
    topology_end, init_end = lines.index("topology-end"), lines.index("init-end")
    topo, fm = parse_topology("\n".join(lines[3:topology_end]))
    if meta["topology_sha256"] != topology_sha256(topo, fm):
        raise ValueError("trace topology does not match the header's topology_sha256")
    n = topo.process_count
    init = parse_config("\n".join(lines[topology_end + 2 : init_end]), n)
    if normalize_config(topo, fm, init) != init:
        raise ValueError(
            "trace initial configuration has a correct process whose parent is not a neighbor"
        )
    # JSON writes these back as it read them, so the check of the head's
    # bytes below cannot catch a value of the wrong type.
    seed, adversary_desc, extra = meta["seed"], meta["adversary"], meta.get("config", {})
    if type(seed) is not int:
        raise ValueError(f"trace header seed {seed!r} is not an integer")
    if type(adversary_desc) is not str:
        raise ValueError(f"trace header adversary {adversary_desc!r} is not a string")
    if type(extra) is not dict:
        raise ValueError(f"trace header config {extra!r} is not an object")
    daemon = DaemonPolicy(meta["daemon"]["kind"], meta["daemon"]["fairness"])
    ex = Execution(
        topo=topo,
        fm=fm,
        daemon=daemon,
        seed=seed,
        adversary_desc=adversary_desc,
        configs=[init],
        meta_extra=extra,
    )
    body = lines[init_end + 1 :]
    if not body or not body[-1].startswith("end "):
        raise ValueError("truncated trace: no end line")
    if body[-1] != f"end {len(body) - 1}":
        raise ValueError("trace step count mismatch")
    body.pop()
    interned = ex._interned
    cfg = interned[init] = init

    def decode(text: str) -> tuple[StepRecord, tuple[tuple[int, ProcState], ...]]:
        # The record and changed states of the text after "step i ", each
        # integer written as ``trace_text`` writes it.  Equal records are
        # one object.
        fields = text.split(" ")
        if len(fields) != 3 or [f[:4] for f in fields] != ["act=", "byz=", "chg="]:
            raise ValueError(f"malformed trace line: {text!r}")
        act, byz, chg = (f[4:] for f in fields)
        acts = _process_ids(act.split(",") if act else [], n, act)
        rec = StepRecord(activated=frozenset(acts), byz_writes=_states(byz, n))
        return interned.setdefault(rec, rec), _states(chg, n)

    def successor(key: tuple[int, str]) -> tuple[StepRecord, Config]:
        # Step text key[1]'s record and what it makes of ``cfg`` (id key[0]).
        rec, changed = texts[key[1]]
        new = list(cfg)
        for v, state in changed:
            if new[v] == state:
                raise ValueError(f"chg= names process {v}, which does not change")
            new[v] = state
        new = tuple(new)
        return rec, interned.setdefault(new, new)

    # A run repeats few distinct transitions, so each distinct step text is
    # kept (interned) and decoded once, and each distinct (configuration,
    # step text) pair applied and checked once.
    texts, decoded = _Memo(decode), _Memo(successor)
    configs, steps = ex.configs, ex.steps
    # Line i must start "step i ": the texts end before the first that does not.
    prefixes = [f"step {i} " for i in range(1, len(body) + 1)]
    stripped = list(map(intern, map(str.removeprefix, body, prefixes)))
    wrong = next(compress(count(), map(eq, stripped, body)), len(body))
    del stripped[wrong:]
    # The texts repeat from ``tail.start`` on, and the same texts applied
    # twice from any configuration end at the same one, so two periods into
    # the tail the configurations repeat too.
    tail = _tail((stripped,))
    for i, text in zip(count(1), islice(stripped, tail.head(tail.head()) + 1)):
        try:
            rec, cfg = decoded[id(cfg), text]
        except ValueError as exc:
            raise ValueError(f"step {i}: {exc}") from None
        steps.append(rec)
        configs.append(cfg)
    if wrong < len(body):
        raise ValueError(f"expected step {wrong + 1}, got {body[wrong][:40]!r}")
    tail.extend(len(body) - len(steps), configs, steps)
    if meta["steps"] != len(steps):
        raise ValueError(
            f"trace header says {meta['steps']} steps, the trace has {len(steps)}"
        )
    if lines[: init_end + 1] != "\n".join(_trace_head(ex)).split("\n"):
        raise ValueError(
            "trace header, topology or initial configuration not as trace_text writes it"
        )
    return ex


def read_trace(path) -> Execution:
    return parse_trace(Path(path).read_text(encoding="utf-8"))
