"""Scenario builders and scripted replays.

The two replay constructions drive a Byzantine process through repeated
phases -- impersonate a second root, then behave correctly, then snap back
-- which forces processes just outside a too-small containment area to
rewrite their state once per cycle, forever.  Measured against the computed
containment areas the same traces stay within the theory's bounds, which is
exactly the gap the replays demonstrate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

from .adversary import FakeRoot, MirrorRoot, WellBehaved
from .errors import GenerationError, ScenarioError
from .graph import FaultModel, Topology, canonical_int, make_fault_model
from .protocol import Config, ProcState
from .scheduler import (
    CENTRAL,
    ROUND_ROBIN,
    DaemonPolicy,
    Execution,
    StopCriterion,
    continue_run,
    run,
    step_budget,
)

# Process roles in the six-node hexagon: two length-3 paths from the root
# to the Byzantine process.
HEXAGON = {"r": 0, "u": 1, "u2": 2, "v": 3, "v2": 4, "b": 5}


@dataclass(frozen=True)
class ScenarioParams:
    kind: str
    c: int | None = None
    n: int | None = None
    w: int | None = None
    h: int | None = None
    p: float | None = None
    seed: int | None = None
    byz: tuple[int, ...] | None = None
    byz_count: int | None = None


# The keys each scenario kind needs; each ScenarioParams field is spelled
# in a scenario line as its name.
_NEEDS = {
    "line": ("c",),
    "hexagon": (),
    "path": ("n",),
    "grid": ("w", "h"),
    "random": ("n", "p", "seed"),
}


def parse_scenario(text: str) -> ScenarioParams:
    """Parse a declarative scenario line like "random n=10 p=0.3 seed=7 byz_count=2"."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty scenario")
    kind = tokens[0].lower()
    if kind not in _NEEDS:
        raise ValueError(f"unknown scenario kind {kind!r}")
    kwargs: dict = {"kind": kind}
    for tok in tokens[1:]:
        key, _, value = tok.partition("=")
        if not value:
            raise ValueError(f"malformed scenario token {tok!r}")
        if key == "byz":
            value = tuple(map(canonical_int, value.split(",")))
        elif key == "p":
            # Only the form repr writes, so what loads re-encodes as given.
            if repr(float(value)) != value:
                raise ValueError(f"edge probability {value!r} not in canonical form")
            value = float(value)
        elif key in ("c", "n", "w", "h", "seed", "byz_count"):
            value = canonical_int(value)
        else:
            raise ValueError(f"unknown scenario key {key!r}")
        if key in kwargs:
            raise ValueError(f"scenario key {key!r} given twice")
        kwargs[key] = value
    return ScenarioParams(**kwargs)


def line_topology(c: int) -> tuple[Topology, FaultModel]:
    """A chain of 2c+4 processes: root at one end, Byzantine at the other."""
    if c < 0:
        raise ValueError("c must be nonnegative")
    topo = path_topology(2 * c + 4)
    return topo, make_fault_model(topo, [2 * c + 3])


def hexagon_topology() -> tuple[Topology, FaultModel]:
    """Two disjoint length-3 paths joining the root to the Byzantine process."""
    topo = Topology.from_edges(
        6, 0, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)]
    )
    return topo, make_fault_model(topo, [5])


def path_topology(n: int) -> Topology:
    if n < 1:
        raise ValueError("n must be positive")
    return Topology.from_edges(n, 0, [(i, i + 1) for i in range(n - 1)])


def grid_topology(w: int, h: int) -> Topology:
    if w < 1 or h < 1:
        raise ValueError("grid dimensions must be positive")
    edges = []
    for i in range(h):
        for j in range(w):
            v = i * w + j
            if j + 1 < w:
                edges.append((v, v + 1))
            if i + 1 < h:
                edges.append((v, v + w))
    return Topology.from_edges(w * h, 0, edges)


_RANDOM_TRIES = 200


def random_topology(n: int, edge_prob: float, seed: int) -> Topology:
    """Uniform random edges, regenerated until connected."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge_prob must be in [0, 1]")
    rng = random.Random(seed)
    for _ in range(_RANDOM_TRIES):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < edge_prob
        ]
        try:
            return Topology.from_edges(n, 0, edges)
        except ValueError:
            continue
    raise GenerationError(
        f"no connected graph with n={n}, p={edge_prob} in {_RANDOM_TRIES} tries"
    )


def _check_keys(params: ScenarioParams) -> None:
    # A key the kind would not read is malformed, never silently dropped.
    needs = _NEEDS.get(params.kind)
    if needs is None:
        raise ValueError(f"unknown scenario kind {params.kind!r}")
    missing = [k for k in needs if getattr(params, k) is None]
    if missing:
        raise ValueError(f"{params.kind} scenario needs {', '.join(missing)}")
    reads = set(needs)
    if params.kind not in ("line", "hexagon"):
        # One Byzantine placement; a sampled one reads the seed.
        reads.add("byz" if params.byz is not None else "byz_count")
        if params.byz_count is not None:
            reads.add("seed")
    for f in fields(params)[1:]:
        if f.name not in reads and getattr(params, f.name) is not None:
            raise ValueError(f"{params.kind} scenario does not read key {f.name!r}")


def build(params: ScenarioParams) -> tuple[Topology, FaultModel]:
    """Build the topology and fault model a scenario describes."""
    _check_keys(params)
    if params.kind == "line":
        return line_topology(params.c)
    if params.kind == "hexagon":
        return hexagon_topology()
    if params.kind == "path":
        topo = path_topology(params.n)
    elif params.kind == "grid":
        topo = grid_topology(params.w, params.h)
    else:
        topo = random_topology(params.n, params.p, params.seed)
    if params.byz is not None:
        return topo, make_fault_model(topo, params.byz)
    if params.byz_count is not None:
        rng = random.Random(params.seed if params.seed is not None else 0)
        pool = [v for v in topo.processes() if v != topo.root]
        if params.byz_count > len(pool):
            raise ValueError("more Byzantine processes than non-root processes")
        return topo, make_fault_model(topo, rng.sample(pool, params.byz_count))
    return topo, make_fault_model(topo, [])


# ---------------------------------------------------------------------------
# Initial configurations.
# ---------------------------------------------------------------------------


def all_zero_config(topo: Topology) -> Config:
    return tuple(ProcState(None, 0) for _ in topo.processes())


def corrupted_config(topo: Topology, fm: FaultModel) -> Config:
    """Root and Byzantine processes at (bottom, 0), everyone else pointing at
    its first neighbor with an out-of-range level.

    Any instantiation of the unconstrained states works for the replays;
    this one is pinned for reproducibility.
    """
    n = topo.process_count
    states = []
    for v in topo.processes():
        if v == topo.root or v in fm.byzantine:
            states.append(ProcState(None, 0))
        else:
            states.append(ProcState(topo.neighbors[v][0], n))
    return tuple(states)


def random_config(topo: Topology, rng: random.Random) -> Config:
    lo_hi = 2 * topo.diameter + 2
    states = []
    for v in topo.processes():
        prnt = rng.choice([None] + list(topo.neighbors[v]))
        states.append(ProcState(prnt, rng.randint(0, lo_hi)))
    return tuple(states)


# ---------------------------------------------------------------------------
# Replay constructions.
# ---------------------------------------------------------------------------

_CENTRAL_RR = DaemonPolicy(kind=CENTRAL, fairness=ROUND_ROBIN)


def _expect(ex: Execution, phase: str, expected: Config) -> None:
    if ex.final() != expected:
        raise ScenarioError(
            phase, f"did not reach target configuration; got {ex.final()}"
        )


def _line_two_sided(c: int) -> Config:
    # Levels fall away from both ends; parents point toward the closer end.
    n = 2 * c + 4
    states = [ProcState(None, 0)]
    for i in range(1, n - 1):
        if i <= c + 1:
            states.append(ProcState(i - 1, i))
        else:
            states.append(ProcState(i + 1, n - 1 - i))
    states.append(ProcState(None, 0))
    return tuple(states)


def _line_chain(c: int) -> Config:
    n = 2 * c + 4
    return tuple(
        ProcState(None, 0) if i == 0 else ProcState(i - 1, i) for i in range(n)
    )


def _replay_cycles(
    topo: Topology,
    fm: FaultModel,
    two_sided: Config,
    tree: Config,
    b: int,
    cycles: int,
) -> Execution:
    # Converge to the two-sided configuration under MirrorRoot; then, each
    # cycle, converge to the tree under WellBehaved, take one FakeRoot step
    # that resets b to (bottom, 0), and return to two-sided under MirrorRoot.
    quiesce = StopCriterion(max_steps=step_budget(topo))
    reset = tree[:b] + (ProcState(None, 0),) + tree[b + 1 :]
    ex = run(topo, fm, corrupted_config(topo, fm), _CENTRAL_RR, MirrorRoot(), quiesce)
    _expect(ex, "converge-two-sided", two_sided)
    for k in range(cycles):
        continue_run(ex, WellBehaved(), quiesce)
        _expect(ex, f"cycle{k}-converge-tree", tree)
        continue_run(ex, FakeRoot(), StopCriterion(max_steps=1))
        _expect(ex, f"cycle{k}-reset", reset)
        continue_run(ex, MirrorRoot(), quiesce)
        _expect(ex, f"cycle{k}-return-two-sided", two_sided)
    # The engine interns across the continue_run calls, so each distinct
    # configuration and record of the whole replay is one object, and the
    # passes that read the execution work once per distinct transition.
    return ex


def replay_strong_impossibility(c: int, cycles: int) -> Execution:
    """Drive the 2c+4 chain through its endless two-sided/one-sided cycle.

    Every cycle the Byzantine endpoint first behaves correctly (the chain
    re-levels into the one-sided tree), then snaps back to a root state (the
    two-sided tree returns).  Each re-leveling changes processes more than c
    hops away from the Byzantine end, so the trace accumulates at least one
    radius-c disruption per cycle.
    """
    if c < 0 or cycles < 1:
        raise ValueError("need c >= 0 and cycles >= 1")
    topo, fm = line_topology(c)
    b = topo.process_count - 1
    return _replay_cycles(topo, fm, _line_two_sided(c), _line_chain(c), b, cycles)


# The hexagon cycle's two targets, as (parent, level) per process.
_HEXAGON_TWO_SIDED = tuple(
    ProcState(*s) for s in [(None, 0), (0, 1), (0, 1), (5, 1), (5, 1), (None, 0)]
)
_HEXAGON_TREE = tuple(
    ProcState(*s) for s in [(None, 0), (0, 1), (0, 1), (1, 2), (2, 2), (3, 3)]
)


def replay_ta_strong_impossibility(area_choice, cycles: int) -> Execution:
    """Drive the hexagon through its endless cycle.

    ``area_choice`` must be a proper subset of the two processes adjacent to
    the Byzantine one (ids 3 and 4); whichever is left out changes its state
    every cycle, so no bounded disruption count can hold for that area.
    """
    if cycles < 1:
        raise ValueError("cycles must be positive")
    area = frozenset(area_choice)
    pair = frozenset((HEXAGON["v"], HEXAGON["v2"]))
    if not (area < pair):
        raise ValueError(f"area_choice must be a proper subset of {sorted(pair)}")
    topo, fm = hexagon_topology()
    return _replay_cycles(topo, fm, _HEXAGON_TWO_SIDED, _HEXAGON_TREE, HEXAGON["b"], cycles)
