"""The min+1 spanning-tree protocol: guards, parent choice, and one step.

Every process owns two output variables: a parent pointer into its neighbor
list (or bottom, encoded as ``None``) and a nonnegative level.  The root
pins itself to ``(None, 0)``; every other process adopts a minimum-level
neighbor as parent, walking its neighbor list round-robin among the ties,
and sets its level to that minimum plus one.

All functions here are pure: a step reads every state from the pre-step
configuration and returns a fresh configuration, so simultaneous
activations of neighbors are well defined.  Levels are kept as unbounded
nonnegative integers because arbitrary initial states and Byzantine writes
may exceed any graph-derived bound.
"""

from __future__ import annotations

from itertools import count
from pathlib import Path
from typing import NamedTuple

from .errors import ContractViolation
from .graph import FaultModel, Topology, _data_lines, canonical_int


class ProcState(NamedTuple):
    prnt: int | None
    level: int


Config = tuple[ProcState, ...]


def is_enabled(topo: Topology, cfg: Config, v: int) -> bool:
    """Evaluate the guard of process v's rule in cfg.

    A parent pointer that does not name an actual neighbor (possible only
    from an arbitrary initial state or a Byzantine write) is treated like
    bottom, which makes the guard true.  The function evaluates the guard
    mechanically for any process; whether v is correct is the caller's
    concern.
    """
    prnt, level = cfg[v]
    if v == topo.root:
        return prnt is not None or level != 0
    nbrs = topo.neighbors[v]
    if prnt is None or prnt not in nbrs:
        return True
    # Enabled unless level is the parent's plus one and no neighbor is lower
    # than the parent.
    parent_level = cfg[prnt][1]
    if level != parent_level + 1:
        return True
    for q in nbrs:
        if cfg[q][1] < parent_level:
            return True
    return False


def _action(topo: Topology, cfg: Config, v: int) -> ProcState:
    # The rule, for a process whose guard is known to hold.  The new parent
    # is the first minimum-level neighbor strictly after the current parent
    # in v's neighbor order, wrapping round to the order-smallest one (bottom
    # or a non-neighbor sorts first).  One pass over the order finds both:
    # ``first`` is the order-smallest, ``after`` the first one after the
    # current parent.  States are read by index, and the result is built
    # with ``tuple.__new__``, which skips the named tuple's Python-level
    # ``__new__``: this runs once per activation.
    if v == topo.root:
        return tuple.__new__(ProcState, (None, 0))
    cur = cfg[v][0]
    lo = first = after = None
    past = False
    for q in topo.neighbors[v]:
        level = cfg[q][1]
        if lo is None or level < lo:
            lo, first, after = level, q, (q if past else None)
        elif level == lo and past and after is None:
            after = q
        if q == cur:
            past = True
    return tuple.__new__(ProcState, (first if after is None else after, lo + 1))


def step(
    topo: Topology,
    fm: FaultModel,
    cfg: Config,
    activated,
    byz_writes: dict[int, ProcState] | None = None,
) -> Config:
    """Apply one simultaneous step.

    Every process in ``activated`` must be correct and enabled; it takes the
    result of its rule evaluated against cfg.  Every Byzantine process in
    ``byz_writes`` takes its written state verbatim (Byzantine behavior
    flows only through byz_writes).  All other processes are unchanged.
    """
    byz_writes = byz_writes or {}
    acts = frozenset(activated)
    bad = acts & fm.byzantine
    if bad:
        raise ContractViolation(f"cannot activate Byzantine processes {sorted(bad)}")
    for b in byz_writes:
        if b not in fm.byzantine:
            raise ContractViolation(f"Byzantine write targets correct process {b}")
    for v in acts:
        if not is_enabled(topo, cfg, v):
            raise ContractViolation(f"step: process {v} is not enabled")
    return _successor(topo, cfg, acts, byz_writes)


def _successor(topo: Topology, cfg: Config, activated, byz_writes) -> Config:
    # The one place a step is applied: each activated process takes its rule
    # and each Byzantine write its state, all against cfg.  Only a written
    # level is checked; ``step`` checks the rest of the contract, and the
    # engine calls this directly on its own choices.
    new = list(cfg)
    for v in activated:
        new[v] = _action(topo, cfg, v)
    for b, state in byz_writes.items():
        if state.level < 0:
            raise ContractViolation(f"negative level written to {b}")
        new[b] = ProcState(state.prnt, state.level)
    return tuple(new)


def normalize_config(topo: Topology, fm: FaultModel, cfg: Config) -> Config:
    """Reset corrupt parent pointers of correct processes to bottom.

    A correct process can only ever hold a neighbor or bottom once it acts;
    arbitrary initial memory naming anything else is unrepresentable in the
    protocol's state space, so it is normalized away at load time.
    Byzantine states are kept verbatim.  Every state comes back as a
    ``ProcState``, whatever pair it was given as.  A configuration must hold
    exactly one state per process: one of any other length raises
    ``ValueError`` naming both lengths, as does a negative level.
    """
    n = topo.process_count
    if len(cfg) != n:
        raise ValueError(f"configuration has {len(cfg)} states for {n} processes")
    byzantine = fm.byzantine
    # One pass flags the states to rebuild: those given as some other pair,
    # and those with a negative level or a parent to reset.
    flagged = [
        v
        for v, state, nbrs in zip(count(), cfg, topo.neighbors)
        if type(state) is not ProcState
        or state[1] < 0
        or (state[0] is not None and state[0] not in nbrs and v not in byzantine)
    ]
    new = list(cfg)
    for v in flagged:
        prnt, level = cfg[v]
        if level < 0:
            raise ValueError(f"negative level for process {v}")
        if v not in byzantine and prnt not in topo.neighbors[v]:
            prnt = None
        new[v] = ProcState(prnt, level)
    return tuple(new)


# ---------------------------------------------------------------------------
# Configuration file format: one "id prnt level" line per process, with
# prnt = -1 encoding bottom.
# ---------------------------------------------------------------------------


def config_text(cfg: Config) -> str:
    lines = []
    for v, (prnt, level) in enumerate(cfg):
        p = -1 if prnt is None else prnt
        lines.append(f"{v} {p} {level}")
    return "\n".join(lines) + "\n"


def parse_state(parent: str, level: str) -> ProcState:
    # One process state as configuration, script and trace files write it:
    # canonical integers, parent -1 for bottom, a nonnegative level.
    p, lvl = canonical_int(parent), canonical_int(level)
    if p < -1:
        raise ValueError(f"parent below -1: {parent}")
    if lvl < 0:
        raise ValueError(f"negative level: {level}")
    return ProcState(None if p < 0 else p, lvl)


def parse_config(text: str, n: int) -> Config:
    states: dict[int, ProcState] = {}
    for raw, parts in _data_lines(text):
        if len(parts) != 3:
            raise ValueError(f"malformed configuration line: {raw!r}")
        v = canonical_int(parts[0])
        if v in states:
            raise ValueError(f"duplicate state for process {v}")
        states[v] = parse_state(*parts[1:])
    if sorted(states) != list(range(n)):
        raise ValueError(f"expected exactly one state for each of {n} processes")
    return tuple(states[v] for v in range(n))


def read_config(path, topo: Topology, fm: FaultModel) -> Config:
    cfg = parse_config(Path(path).read_text(encoding="utf-8"), topo.process_count)
    return normalize_config(topo, fm, cfg)

