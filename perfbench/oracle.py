"""An oracle for min+1 written apart from the program.

It works on plain data (process count, root, ordered edge list, Byzantine
ids, and configurations as sequences of ``(parent, level)`` pairs) and
imports nothing from ``minplus``, so a fault in the program's protocol,
analysis or graph code cannot hide behind the same fault here.  The
formulas are the paper's: BFS hop distances, containment areas from the
race between the nearest Byzantine process and the root, the level floor,
and the min+1 rule with its round-robin parent choice.
"""

from __future__ import annotations

from collections import deque


class Graph:
    """A rooted graph with each process's neighbors in edge-list order.

    Only the distances the checks need are kept: from the root, and from
    the nearest Byzantine process.
    """

    def __init__(self, n: int, root: int, edges, byzantine=()):
        self.n = n
        self.root = root
        self.edges = [tuple(e) for e in edges]
        self.byz = frozenset(byzantine)
        self.nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            self.nbrs[u].append(v)
            self.nbrs[v].append(u)
        self.to_root = bfs(self.nbrs, [root])
        self.to_byz = bfs(self.nbrs, sorted(self.byz)) if self.byz else None
        self.anchor = [
            min(self.to_root[v], self.to_byz[v]) if self.byz else self.to_root[v]
            for v in range(n)
        ]
        self.near, self.strictly_near = areas(self)

    @property
    def frontier(self) -> frozenset[int]:
        return self.near - self.strictly_near

    def correct(self, v: int) -> bool:
        return v not in self.byz

    def degree(self, v: int) -> int:
        return len(self.nbrs[v])


def bfs(nbrs, sources) -> list[int]:
    """Hop distance to the nearest of ``sources``; -1 marks no path."""
    dist = [-1] * len(nbrs)
    queue = deque(sources)
    for s in sources:
        dist[s] = 0
    while queue:
        u = queue.popleft()
        for w in nbrs[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def areas(g: Graph) -> tuple[frozenset[int], frozenset[int]]:
    """(near, strictly_near): correct non-root processes at least as close,
    and strictly closer, to some Byzantine process than to the root."""
    if not g.byz:
        return frozenset(), frozenset()
    others = [v for v in range(g.n) if v != g.root and v not in g.byz]
    near = frozenset(v for v in others if g.to_byz[v] <= g.to_root[v])
    strict = frozenset(v for v in others if g.to_byz[v] < g.to_root[v])
    return near, strict


def floor_holds(g: Graph, cfg, d: int | None = None) -> bool:
    """Every level is at least min(d, hop distance to the nearest of the
    root and the Byzantine processes).  ``None`` stands for the diameter,
    where the floor is that distance itself, since no process is farther
    than the diameter from the root."""
    if d is None:
        return all(cfg[v][1] >= g.anchor[v] for v in range(g.n))
    return all(cfg[v][1] >= min(d, g.anchor[v]) for v in range(g.n))


def enabled(g: Graph, cfg, v: int) -> bool:
    """The guard of v's rule.  The root is enabled unless it holds
    (bottom, 0); anyone else unless its parent is a neighbor holding the
    minimum neighbor level and its own level is one above that."""
    prnt, level = cfg[v]
    if v == g.root:
        return (prnt, level) != (None, 0)
    if prnt not in g.nbrs[v]:
        return True
    lo = min(cfg[q][1] for q in g.nbrs[v])
    return not (cfg[prnt][1] == lo and level == lo + 1)


def rule(g: Graph, cfg, v: int):
    """The state v writes when activated in cfg.

    The root writes (bottom, 0).  Anyone else takes the minimum neighbor
    level plus one and, as parent, the first minimum-level neighbor met by
    walking its neighbor order cyclically from just after its current
    parent; a parent that is bottom or no neighbor starts the walk at the
    first neighbor.
    """
    if v == g.root:
        return (None, 0)
    order = g.nbrs[v]
    lo = min(cfg[q][1] for q in order)
    prnt = cfg[v][0]
    pos = order.index(prnt) if prnt in order else -1
    for k in range(1, len(order) + 1):
        q = order[(pos + k) % len(order)]
        if cfg[q][1] == lo:
            return (q, lo + 1)
    raise AssertionError("a minimum always exists")


def spec_holds(g: Graph, cfg, v: int) -> bool:
    """v ends a parent chain to the root or a Byzantine process holding
    (bottom, 0), levels rising by one along it, each parent holding the
    minimum level around the process that points to it."""
    if v == g.root:
        return tuple(cfg[v]) == (None, 0)
    seen = set()
    cur = v
    while cur not in seen:
        seen.add(cur)
        prnt, level = cfg[cur]
        if prnt is None:
            return level == 0 and cur != v and (cur == g.root or cur in g.byz)
        if prnt not in g.nbrs[cur] or level != cfg[prnt][1] + 1:
            return False
        if cfg[prnt][1] != min(cfg[w][1] for w in g.nbrs[cur]):
            return False
        cur = prnt
    return False


def contained(g: Graph, cfg, area) -> bool:
    """The floor holds at the diameter and every correct process outside
    ``area`` meets the specification."""
    return floor_holds(g, cfg) and all(
        spec_holds(g, cfg, v)
        for v in range(g.n)
        if g.correct(v) and v not in area
    )


def check_step(g: Graph, before, after, activated, writes) -> list[str]:
    """Why ``after`` is not the min+1 step from ``before`` with these
    activations and Byzantine writes (empty when it is)."""
    problems = []
    writes = dict(writes)
    for v in activated:
        if not g.correct(v):
            problems.append(f"Byzantine process {v} activated")
        elif not enabled(g, before, v):
            problems.append(f"disabled process {v} activated")
    for v in range(g.n):
        if v in writes:
            want = tuple(writes[v])
        elif v in activated and g.correct(v):
            want = rule(g, before, v)
        else:
            want = tuple(before[v])
        if tuple(after[v]) != want:
            problems.append(f"process {v} holds {tuple(after[v])}, expected {want}")
    return problems
