"""Topology, Byzantine fault model, and containment areas.

Graphs are small, undirected and connected, with one distinguished root
process.  Each process keeps its neighbors in a fixed order (the order in
which its edges appear in the input).  That order drives the protocol's
round-robin parent selection, so it is part of the topology rather than a
presentation detail.  All pairwise hop distances, the diameter and the
maximum degree are computed once at construction; instances are immutable
and safe to share across parallel runs.
"""

from __future__ import annotations

import hashlib
from collections import deque
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
    distances: tuple[tuple[int, ...], ...]
    # Derived from the fields above by from_edges.
    _diameter: int = field(default=0, repr=False, compare=False)
    _max_degree: int = field(default=0, repr=False, compare=False)

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
        dist, diam = _all_pairs_bfs(n, nbrs)
        return cls(
            root=root,
            neighbors=tuple(tuple(ns) for ns in nbrs),
            edges=tuple(edge_list),
            distances=tuple(tuple(row) for row in dist),
            _diameter=diam,
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

    def hop_distance(self, u: int, v: int) -> int:
        return self.distances[self._check(u)][self._check(v)]

    def processes(self) -> range:
        return range(len(self.neighbors))

    def _check(self, v: int) -> int:
        if not 0 <= v < len(self.neighbors):
            raise ValueError(f"invalid process id {v}")
        return v


def _all_pairs_bfs(n: int, nbrs: list[list[int]]) -> tuple[list[list[int]], int]:
    """Hop distances from every source, and the diameter.

    The last vertex a BFS dequeues is a farthest one, so its distance is the
    source's eccentricity.  A graph is connected iff the first BFS reaches
    every vertex.
    """
    dist = [[-1] * n for _ in range(n)]
    diam = 0
    for src in range(n):
        row = dist[src]
        row[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in nbrs[u]:
                if row[w] < 0:
                    row[w] = row[u] + 1
                    queue.append(w)
        if src == 0 and -1 in row:
            raise ValueError("graph is not connected")
        if row[u] > diam:
            diam = row[u]
    return dist, diam


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
    """Validate Byzantine ids against a topology. The root is never Byzantine."""
    byz = frozenset(byzantine)
    for b in byz:
        topo._check(b)
    if topo.root in byz:
        raise ValueError(f"root {topo.root} cannot be Byzantine")
    if len(byz) > topo.process_count - 1:
        raise ValueError("at most n-1 Byzantine processes")
    return FaultModel(byz)


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
    d = topo.distances[v][topo.root]
    for b in fm.byzantine:
        db = topo.distances[v][b]
        if db < d:
            d = db
    return d


def compute_containment_areas(topo: Topology, fm: FaultModel) -> ContainmentAreas:
    """Compute the containment areas for a Byzantine placement.

    Byzantine processes and the root are excluded from all three sets: the
    areas describe which *correct* processes the faults can reach, and the
    root is correct by assumption.  With no Byzantine processes every set is
    empty.
    """
    if topo.root in fm.byzantine:
        raise ValueError("root cannot be Byzantine")
    near = set()
    strictly = set()
    if fm.byzantine:
        for v in topo.processes():
            if v == topo.root or v in fm.byzantine:
                continue
            d_byz = min(topo.distances[v][b] for b in fm.byzantine)
            d_root = topo.distances[v][topo.root]
            if d_byz <= d_root:
                near.add(v)
            if d_byz < d_root:
                strictly.add(v)
    return ContainmentAreas(
        near=frozenset(near),
        strictly_near=frozenset(strictly),
        frontier=frozenset(near - strictly),
    )


def radius_area(topo: Topology, fm: FaultModel, c: int) -> frozenset[int]:
    """Correct processes within hop distance c of some Byzantine process.

    Instantiating the area-based checks with this set yields the
    radius-based containment notions.
    """
    if c < 0:
        raise ValueError("radius must be nonnegative")
    if not fm.byzantine:
        return frozenset()
    return frozenset(
        v
        for v in topo.processes()
        if fm.is_correct(v)
        and min(topo.distances[v][b] for b in fm.byzantine) <= c
    )


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


def parse_topology(text: str) -> tuple[Topology, FaultModel]:
    header = None
    edges: list[tuple[int, int]] = []
    byz: list[int] | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
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
    Path(path).write_text(topology_text(topo, fm), encoding="utf-8")


def topology_sha256(topo: Topology, fm: FaultModel = NO_FAULTS) -> str:
    return hashlib.sha256(topology_text(topo, fm).encode("utf-8")).hexdigest()
