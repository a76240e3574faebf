"""Byzantine write strategies.

A strategy is asked once per step what the Byzantine processes write, given
the configurations so far; the step it writes for is ``len(configs)``.
Writes are arbitrary states (any level, any parent value including
non-neighbors); nothing downstream may assume Byzantine state sanity.
Strategies are replayable: after ``reset`` they are a pure function of the
trace prefix, so the same run always produces the same writes.

A strategy may also say it is periodic.  ``phase(step_index)`` returns
``None`` (the default: not periodic) or a hashable key such that ``writes``
and ``done`` at that step depend only on the last configuration and the
key, and two steps with equal keys have equal keys at the steps after them.
The engine then asks it once per distinct configuration and key in each
``run`` or ``continue_run`` call and reuses the checked writes, so its
``writes`` must keep no state across calls; and it repeats a cycle of
forced steps, those whose outcome the daemon cannot change (see
:mod:`minplus.scheduler`), without asking the strategy again.  A strategy
whose key is ``None`` is asked at every step.
"""

from __future__ import annotations

import random
from pathlib import Path

from .errors import ContractViolation
from .graph import FaultModel, Topology, _data_lines, canonical_int
from .protocol import Config, ProcState, _action, is_enabled, parse_state


class Adversary:
    """Base strategy: silent (never writes)."""

    name = "silent"

    def reset(self, topo: Topology, fm: FaultModel) -> None:
        """Prepare for a run on this topology and fault model; the engine
        calls it before every run, ``continue_run`` included."""

    def writes(
        self, topo: Topology, fm: FaultModel, configs: list[Config]
    ) -> dict[int, ProcState]:
        return {}

    def done(self, topo: Topology, fm: FaultModel, configs: list[Config]) -> bool:
        """Whether the strategy will never write again.  The engine asks
        only after ``writes`` returned nothing for the same ``configs``,
        with no correct process enabled in the last of them.  A strategy
        whose writes depend on the configurations alone is then done, so
        only one that counts steps (``len(configs)``) overrides this."""
        return True

    def phase(self, step_index: int):
        """This step's key under the periodic contract of the module
        docstring, or ``None``.  A strategy with a key is asked once per
        distinct configuration and key in a run, so its ``writes`` must
        keep no state across calls."""
        return None


Silent = Adversary


class FakeRoot(Adversary):
    """Every Byzantine process impersonates a root, holding (bottom, 0)."""

    name = "fake_root"

    def writes(self, topo, fm, configs):
        cfg = configs[-1]
        target = ProcState(None, 0)
        return {b: target for b in sorted(fm.byzantine) if cfg[b] != target}


class MirrorRoot(Adversary):
    """Every Byzantine process copies the root's action one step after it."""

    name = "mirror_root"

    def writes(self, topo, fm, configs):
        if len(configs) < 2:
            return {}
        r = topo.root
        if configs[-2][r] == configs[-1][r]:
            return {}
        target = configs[-1][r]
        return {b: target for b in sorted(fm.byzantine) if configs[-1][b] != target}


class Oscillator(Adversary):
    """Alternate between a fake root state and a far-off level every period steps.

    The far-off level is pinned to 2*diameter+2 so it exceeds any level a
    correct process can hold once converged.
    """

    def __init__(self, period: int = 1):
        if period < 1:
            raise ValueError("period must be positive")
        self.period = period

    @property
    def name(self):
        return f"oscillator(period={self.period})"

    def reset(self, topo, fm):
        byz = sorted(fm.byzantine)
        high = 2 * topo.diameter + 2
        self._low = [(b, ProcState(None, 0)) for b in byz]
        self._high = [(b, ProcState(topo.neighbors[b][0], high)) for b in byz]

    def writes(self, topo, fm, configs):
        cfg = configs[-1]
        low = ((len(configs) - 1) // self.period) % 2 == 0
        out = {}
        for b, target in self._low if low else self._high:
            if cfg[b] != target:
                out[b] = target
        return out

    def done(self, topo, fm, configs):
        return not fm.byzantine

    def phase(self, step_index):
        return (step_index - 1) % (2 * self.period)


class RandomWrites(Adversary):
    """Uniform level in [0, 2*diameter] and uniform parent in N_b + bottom."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)

    @property
    def name(self):
        return f"random(seed={self.seed})"

    def reset(self, topo, fm):
        self._rng = random.Random(self.seed)

    def writes(self, topo, fm, configs):
        out = {}
        for b in sorted(fm.byzantine):
            prnt = self._rng.choice([None] + list(topo.neighbors[b]))
            level = self._rng.randint(0, 2 * topo.diameter)
            out[b] = ProcState(prnt, level)
        return out


class Scripted(Adversary):
    """Replay a fixed list of (step, process, state) writes."""

    def __init__(self, items):
        self.items = sorted(items, key=lambda it: (it[0], it[1]))
        self._by_step: dict[int, dict[int, ProcState]] = {}
        for step_idx, proc, state in self.items:
            self._by_step.setdefault(step_idx, {})[proc] = state
        self._last = max(self._by_step) if self._by_step else 0

    name = "scripted"

    def reset(self, topo, fm):
        """Reject a script that writes to a correct or unknown process."""
        rogue = sorted({proc for _, proc, _ in self.items} - fm.byzantine)
        if rogue:
            raise ValueError(f"script writes to non-Byzantine processes {rogue}")

    def writes(self, topo, fm, configs):
        return dict(self._by_step.get(len(configs), {}))

    def done(self, topo, fm, configs):
        return len(configs) >= self._last


class WellBehaved(Adversary):
    """Byzantine processes follow the protocol as if they were correct non-roots."""

    name = "well_behaved"

    def writes(self, topo, fm, configs):
        cfg = configs[-1]
        return {
            b: _action(topo, cfg, b)
            for b in sorted(fm.byzantine)
            if is_enabled(topo, cfg, b)
        }


def advise(
    strategy: Adversary,
    topo: Topology,
    fm: FaultModel,
    configs: list[Config],
) -> dict[int, ProcState]:
    """The Byzantine writes a strategy proposes for step ``len(configs)``."""
    out = strategy.writes(topo, fm, configs)
    if out and not out.keys() <= fm.byzantine:
        b = next(b for b in out if b not in fm.byzantine)
        raise ContractViolation(f"strategy targets correct process {b}")
    return out


def parse_script(text: str) -> list[tuple[int, int, ProcState]]:
    """Parse "step id prnt level" lines (prnt = -1 encodes bottom, step >= 1)."""
    items = []
    seen: set[tuple[int, int]] = set()
    for raw, parts in _data_lines(text):
        if len(parts) != 4:
            raise ValueError(f"malformed script line: {raw!r}")
        step_idx, proc = map(canonical_int, parts[:2])
        if step_idx < 1:
            raise ValueError(f"script step below 1, which no run reaches: {raw!r}")
        if (step_idx, proc) in seen:
            raise ValueError(f"script writes process {proc} twice at step {step_idx}: {raw!r}")
        seen.add((step_idx, proc))
        items.append((step_idx, proc, parse_state(*parts[2:])))
    return items


def load_script(path) -> Scripted:
    return Scripted(parse_script(Path(path).read_text(encoding="utf-8")))


# The kinds that take no argument, by name.
_BARE = {cls.name: cls for cls in (Silent, FakeRoot, MirrorRoot, WellBehaved)}


def make_adversary(descriptor: str) -> Adversary:
    """Build a strategy from a CLI-style descriptor like "oscillator:2"."""
    kind, colon, arg = descriptor.partition(":")
    kind = kind.strip().lower()
    if kind in _BARE:
        if colon:
            raise ValueError(f"adversary {kind} takes no argument, got {arg!r}")
        return _BARE[kind]()
    if kind not in ("oscillator", "random", "scripted"):
        raise ValueError(f"unknown adversary kind {kind!r}")
    if colon and not arg:
        raise ValueError(f"adversary {kind} has an empty argument after ':'")
    if kind == "oscillator":
        return Oscillator(canonical_int(arg) if arg else 1)
    if kind == "random":
        return RandomWrites(canonical_int(arg) if arg else 0)
    if not arg:
        raise ValueError("scripted adversary needs a file path")
    return load_script(arg)
