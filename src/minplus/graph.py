"""Topology, Byzantine fault model, and containment areas.

Graphs are small, undirected and connected, with one distinguished root
process.  Each process keeps its neighbors in a fixed order (the order in
which its edges appear in the input).  That order drives the protocol's
round-robin parent selection, so it is part of the topology rather than a
presentation detail.  The diameter and the maximum degree are computed
once at construction, in memory linear in the graph; the hop distances
from a process are one BFS row, computed the first time something asks
for it and then cached on the topology.  Instances are immutable apart
from that cache and safe to share across parallel runs: two racing fills
of a row write equal tuples.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Topology:
    """Connected undirected graph with a root and fixed neighbor order.

    Build instances with :meth:`from_edges`; the constructor itself assumes
    pre-validated, mutually consistent fields.
    """

    root: int
    neighbors: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    # Derived from the fields above by from_edges.
    _diameter: int = field(default=0, repr=False, compare=False)
    _max_degree: int = field(default=0, repr=False, compare=False)
    # BFS rows by source, filled by distances_from.
    _rows: dict[int, tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def from_edges(cls, n: int, root: int, edges) -> "Topology":
        """Validate and build a topology from an ordered edge list.

        The neighbor order of each process is the order in which its edges
        appear in ``edges``.
        """
        if n < 1:
            raise ValueError(f"need at least one process, got n={n}")
        if not 0 <= root < n:
            raise ValueError(f"root {root} out of range for n={n}")
        nbrs: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        edge_list: list[tuple[int, int]] = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add(key)
            edge_list.append((u, v))
            nbrs[u].append(v)
            nbrs[v].append(u)
        return cls(
            root=root,
            neighbors=tuple(tuple(ns) for ns in nbrs),
            edges=tuple(edge_list),
            _diameter=_diameter(nbrs),
            _max_degree=max(len(ns) for ns in nbrs),
        )

    @property
    def process_count(self) -> int:
        return len(self.neighbors)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def max_degree(self) -> int:
        return self._max_degree

    @property
    def diameter(self) -> int:
        return self._diameter

    def degree(self, v: int) -> int:
        return len(self.neighbors[self._check(v)])

    def distances_from(self, v: int) -> tuple[int, ...]:
        """Hop distance from v to every process, indexed by process."""
        row = self._rows.get(v)
        if row is None:
            row = self._rows[self._check(v)] = tuple(_bfs(self.neighbors, v)[0])
        return row

    def hop_distance(self, u: int, v: int) -> int:
        return self.distances_from(u)[self._check(v)]

    def processes(self) -> range:
        return range(len(self.neighbors))

    def _check(self, v: int) -> int:
        if not 0 <= v < len(self.neighbors):
            raise ValueError(f"invalid process id {v}")
        return v


# Up to this many processes, one BFS per process finds the diameter faster
# than iFUB, which makes at least six: on catalog graphs, paths, cycles,
# stars and random graphs of 1 to 12 processes it took 0.2 to 0.9 of iFUB's
# time, and on paths of 16 to 32 processes 1.1 to 2 times as long.
_PLAIN_MAX = 12


def _bfs(nbrs, src: int) -> tuple[list[int], list[list[int]]]:
    """Hop distances from src (-1 where unreached) and the BFS layers, layer
    d holding the processes at distance d.  The search stops once every
    process is reached, so the edges of the last layer are never scanned:
    on a complete graph a BFS costs one degree, not every edge."""
    dist = [-1] * len(nbrs)
    dist[src] = 0
    layer = [src]
    layers = [layer]
    left = len(nbrs) - 1
    while left and layer:
        d = len(layers)
        layer = []
        for u in layers[-1]:
            for w in nbrs[u]:
                if dist[w] < 0:
                    dist[w] = d
                    layer.append(w)
        left -= len(layer)
        if layer:
            layers.append(layer)
    return dist, layers


def _diameter(nbrs) -> int:
    """The exact diameter of a graph, which must be connected.

    iFUB (Crescenzi, Grossi, Habib, Lanzi and Marino, "On computing the
    diameter of real-world undirected graphs", TCS 2013): every pair of
    processes within i hops of a process u lies at most 2i apart, so once
    the processes beyond layer i of u have had their eccentricities taken,
    a lower bound of at least 2i is the diameter.  The fewer layers u has,
    the sooner that happens, so u is the least eccentric of the processes
    a guess at the centre searches from: four sweeps, each from the process
    farthest from all earlier sources, and then the process whose farthest
    sweep source is nearest.  The sweeps' eccentricities start the lower
    bound.  Memory stays linear: a few rows during the sweeps, then u's
    layers; every later BFS yields only its eccentricity.
    """
    n = len(nbrs)
    dist, layers = _bfs(nbrs, max(range(n), key=lambda v: len(nbrs[v])))
    if min(dist) < 0:
        raise ValueError("graph is not connected")
    if n <= _PLAIN_MAX:
        return max(len(_bfs(nbrs, v)[1]) for v in range(n)) - 1
    nearest, reach, centre, lower = dist, [0] * n, layers, 0
    for _ in range(4):
        dist, layers = _bfs(nbrs, max(range(n), key=nearest.__getitem__))
        nearest = list(map(min, nearest, dist))
        reach = list(map(max, reach, dist))
        centre = min(centre, layers, key=len)
        lower = max(lower, len(layers) - 1)
    layers = min(centre, _bfs(nbrs, min(range(n), key=reach.__getitem__))[1], key=len)
    i = len(layers) - 1
    while lower < 2 * i:
        for x in layers[i]:
            lower = max(lower, len(_bfs(nbrs, x)[1]) - 1)
            if lower == 2 * i:
                return lower
        i -= 1
    return lower


@dataclass(frozen=True)
class FaultModel:
    """The set of permanently Byzantine processes."""

    byzantine: frozenset[int]

    @property
    def count(self) -> int:
        return len(self.byzantine)

    def is_correct(self, v: int) -> bool:
        return v not in self.byzantine


NO_FAULTS = FaultModel(frozenset())


def make_fault_model(topo: Topology, byzantine) -> FaultModel:
    """Validate Byzantine ids against a topology: each given once, never the root."""
    byz: set[int] = set()
    for b in byzantine:
        topo._check(b)
        if b in byz:
            raise ValueError(f"Byzantine process {b} given twice")
        byz.add(b)
    if topo.root in byz:
        raise ValueError(f"root {topo.root} cannot be Byzantine")
    return FaultModel(frozenset(byz))


@dataclass(frozen=True)
class ContainmentAreas:
    """Correct non-root processes sorted by proximity to the Byzantine set.

    ``near`` holds the processes at least as close to some Byzantine process
    as to the root; ``strictly_near`` those strictly closer; ``frontier`` the
    equidistant boundary between the two.  Processes outside ``near`` are the
    ones the protocol shields completely, processes on the ``frontier`` can
    be disturbed only a bounded number of times, and ``strictly_near``
    processes may be disturbed forever.
    """

    near: frozenset[int]
    strictly_near: frozenset[int]
    frontier: frozenset[int]


def anchor_distance(topo: Topology, fm: FaultModel, v: int) -> int:
    """Hop distance from v to the nearest of the root and the Byzantine set."""
    return _nearest(topo, fm.byzantine | {topo.root})[topo._check(v)]


def compute_containment_areas(topo: Topology, fm: FaultModel) -> ContainmentAreas:
    """Compute the containment areas for a Byzantine placement.

    Byzantine processes and the root are excluded from all three sets: the
    areas describe which *correct* processes the faults can reach, and the
    root is correct by assumption.  With no Byzantine processes every set is
    empty.
    """
    if topo.root in fm.byzantine:
        raise ValueError("root cannot be Byzantine")
    # Each process's distance to the Byzantine set raced against its distance
    # to the root.  The root wins its own race, so only the Byzantine
    # processes need leaving out; with none, to_byz is empty.
    to_byz = _nearest(topo, fm.byzantine)
    to_root = topo.distances_from(topo.root)
    near = frozenset(v for v, d in enumerate(to_byz) if d <= to_root[v] and fm.is_correct(v))
    strictly = frozenset(v for v in near if to_byz[v] < to_root[v])
    return ContainmentAreas(near=near, strictly_near=strictly, frontier=near - strictly)


def radius_area(topo: Topology, fm: FaultModel, c: int) -> frozenset[int]:
    """Correct processes within hop distance c of some Byzantine process.

    Instantiating the area-based checks with this set yields the
    radius-based containment notions.
    """
    if c < 0:
        raise ValueError("radius must be nonnegative")
    return frozenset(
        v
        for v, d in enumerate(_nearest(topo, fm.byzantine))
        if d <= c and fm.is_correct(v)
    )


def _nearest(topo: Topology, sources) -> list[int]:
    """Hop distance from each process to the nearest process of ``sources``,
    indexed by process; empty when ``sources`` is.  Distances are symmetric,
    so the sources' own rows serve every process."""
    return [min(ds) for ds in zip(*(topo.distances_from(s) for s in sources))]


# ---------------------------------------------------------------------------
# Topology file format: first line "n root", then one "u v" line per edge in
# neighbor order, then an optional "byz id id ..." line.
# ---------------------------------------------------------------------------


def topology_text(topo: Topology, fm: FaultModel = NO_FAULTS) -> str:
    lines = [f"{topo.process_count} {topo.root}"]
    lines.extend(f"{u} {v}" for u, v in topo.edges)
    if fm.byzantine:
        lines.append("byz " + " ".join(str(b) for b in sorted(fm.byzantine)))
    return "\n".join(lines) + "\n"


def canonical_int(text: str) -> int:
    """An integer in the form ``str`` writes it: a minus sign only before a
    negative value, and no plus sign, leading zero, underscore or
    whitespace.  Every file ``minplus`` reads holds integers only in this
    form, so what loads re-encodes to the same integers."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"integer {text!r} not in canonical form")
    return value


def _data_lines(text: str):
    """Each line of a topology, configuration or script file that is neither
    blank nor a ``#`` comment, as ``(raw, fields)``."""
    for raw in text.splitlines():
        fields = raw.split()
        if fields and not fields[0].startswith("#"):
            yield raw, fields


def parse_topology(text: str) -> tuple[Topology, FaultModel]:
    header = None
    edges: list[tuple[int, int]] = []
    byz: list[int] | None = None
    for raw, parts in _data_lines(text):
        if parts[0] == "byz":
            if byz is not None:
                raise ValueError(f"second byz line: {raw!r}")
            byz = [canonical_int(tok) for tok in parts[1:]]
            continue
        if len(parts) != 2:
            raise ValueError(f"malformed topology line: {raw!r}")
        if header is None:
            header = (canonical_int(parts[0]), canonical_int(parts[1]))
        else:
            edges.append((canonical_int(parts[0]), canonical_int(parts[1])))
    if header is None:
        raise ValueError("empty topology file")
    topo = Topology.from_edges(header[0], header[1], edges)
    return topo, make_fault_model(topo, byz or ())


def read_topology(path) -> tuple[Topology, FaultModel]:
    return parse_topology(Path(path).read_text(encoding="utf-8"))


def write_topology(topo: Topology, fm: FaultModel, path) -> None:
    Path(path).write_text(topology_text(topo, fm), encoding="utf-8", newline="\n")


def topology_sha256(topo: Topology, fm: FaultModel = NO_FAULTS) -> str:
    return hashlib.sha256(topology_text(topo, fm).encode("utf-8")).hexdigest()
