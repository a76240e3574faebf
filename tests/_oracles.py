"""Independent oracles used to freeze expected values.

Deliberately implemented with different algorithms than the package:
distances by Floyd-Warshall instead of BFS, tree checking by union-find,
the min+1 rule from its guard's definition and an explicit parent choice.
"""

from __future__ import annotations

import random

from minplus import ContractViolation

INF = 10**9


def floyd_warshall(n: int, edges) -> list[list[int]]:
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            row_k = dist[k]
            row_i = dist[i]
            for j in range(n):
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    return dist


def area_oracle(n: int, edges, root: int, byz) -> tuple[set, set, set]:
    """near / strictly_near / frontier straight from the distance formulas."""
    dist = floyd_warshall(n, edges)
    near, strict = set(), set()
    for v in range(n):
        if v == root or v in byz:
            continue
        if not byz:
            continue
        d_b = min(dist[v][b] for b in byz)
        if d_b <= dist[v][root]:
            near.add(v)
        if d_b < dist[v][root]:
            strict.add(v)
    return near, strict, near - strict


def is_parent_spanning_tree(n: int, edges, root: int, parents) -> bool:
    """Union-find check that the parent pointers form a spanning tree."""
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    uf = list(range(n))

    def find(x):
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    count = 0
    for v in range(n):
        if v == root:
            if parents[v] is not None:
                return False
            continue
        p = parents[v]
        if p is None or (min(v, p), max(v, p)) not in edge_set:
            return False
        ru, rv = find(v), find(p)
        if ru == rv:
            return False
        uf[ru] = rv
        count += 1
    return count == n - 1


def component_of(n: int, edges, start: int, removed) -> set:
    """Vertices reachable from start after deleting ``removed``."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in removed and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def random_connected_edges(rng: random.Random, n: int, extra_prob: float = 0.3):
    """Random spanning tree plus extra edges; always connected."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    present = {(min(u, v), max(u, v)) for u, v in edges}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in present and rng.random() < extra_prob:
                edges.append((u, v))
                present.add((u, v))
    return edges


def floor_regressions(n: int, edges, root: int, byz, level_seqs) -> list[tuple[int, int]]:
    """(d, index) pairs where the level floor at d held at an earlier entry
    of ``level_seqs`` (one level per process each) and fails at this one,
    the first such index for each d: one scan of the sequence per depth,
    with the floor checked straight from its definition."""
    dist = floyd_warshall(n, edges)
    anchor = [min(dist[v][a] for a in {root, *byz}) for v in range(n)]
    diameter = max(max(row) for row in dist)
    out = []
    for d in range(diameter + 1):
        seen = False
        for i, levels in enumerate(level_seqs):
            ok = all(levels[v] >= min(d, anchor[v]) for v in range(n))
            if seen and not ok:
                out.append((d, i))
                break
            seen = seen or ok
    return out


# ---------------------------------------------------------------------------
# The min+1 rule, written from its definition.  Configurations are sequences
# of (parent, level) pairs; ``topo`` supplies the root and each process's
# neighbor order.
# ---------------------------------------------------------------------------


def choose(topo, v: int, current_prnt, candidates) -> int:
    """Round-robin parent selection among minimum-level neighbors.

    Returns the first candidate strictly after ``current_prnt`` in v's fixed
    neighbor order, wrapping around to the order-smallest candidate when no
    candidate comes after.  Bottom (and any value that is not a neighbor)
    sorts below every neighbor, so it yields the order-smallest candidate.
    """
    order = topo.neighbors[v]
    cand = set(candidates)
    if not cand:
        raise ContractViolation(f"choose: empty candidate set for process {v}")
    if not cand <= set(order):
        raise ContractViolation(f"choose: candidates {cand} not all neighbors of {v}")
    ordered = [q for q in order if q in cand]
    if current_prnt in order:
        pos = order.index(current_prnt)
        for q in ordered:
            if order.index(q) > pos:
                return q
    return ordered[0]


def reference_guard(topo, cfg, v: int) -> bool:
    """Whether v's rule is enabled: the root unless it holds (bottom, 0);
    anyone else unless its parent is a neighbor of minimum level and its own
    level is the parent's plus one."""
    prnt, level = cfg[v]
    if v == topo.root:
        return prnt is not None or level != 0
    order = topo.neighbors[v]
    lo = min(cfg[q][1] for q in order)
    return prnt not in order or level != cfg[prnt][1] + 1 or cfg[prnt][1] != lo


def reference_rule(topo, cfg, v: int) -> tuple:
    """The state v takes when activated: (bottom, 0) for the root; for anyone
    else the minimum-level neighbor ``choose`` picks, at its level plus one."""
    if v == topo.root:
        return (None, 0)
    order = topo.neighbors[v]
    lo = min(cfg[q][1] for q in order)
    return (choose(topo, v, cfg[v][0], {q for q in order if cfg[q][1] == lo}), lo + 1)


def area_stable(topo, byzantine, cfg, area, budget: int):
    """Area stability step by step: False if a correct process outside
    ``area`` is enabled in cfg; else synchronous rounds of the reference rule
    over the enabled correct processes, the Byzantine states frozen, until a
    process outside the area changes (False), nothing is enabled (True), or
    ``budget`` rounds have passed with something still enabled (None)."""
    correct = [v for v in range(len(cfg)) if v not in byzantine]
    watch = {v for v in correct if v not in area}
    if any(reference_guard(topo, cfg, v) for v in watch):
        return False
    states = list(cfg)
    rounds = 0
    while True:
        acting = [v for v in correct if reference_guard(topo, states, v)]
        if not acting:
            return True
        if rounds >= budget:
            return None
        new = list(states)
        for v in acting:
            new[v] = reference_rule(topo, states, v)
            if v in watch and new[v] != states[v]:
                return False
        states = new
        rounds += 1


# ---------------------------------------------------------------------------
# Per-step references for the passes over a stored execution: each reads
# every step on its own, with no memo and no notion of repeated
# configurations.  Configurations are sequences of (parent, level) pairs.
# ---------------------------------------------------------------------------


def first_index(configs, holds, lo: int = 0):
    """The first index from ``lo`` whose configuration satisfies ``holds``."""
    for i in range(lo, len(configs)):
        if holds(configs[i]):
            return i
    return None


def step_changes(configs, watch, lo: int = 0) -> list[tuple[int, int]]:
    """(i, v) for each step i after configuration ``lo`` and each v of
    ``watch``, in order, whose state differs between configurations i - 1
    and i."""
    return [
        (i, v)
        for i in range(lo + 1, len(configs))
        for v in watch
        if configs[i - 1][v] != configs[i][v]
    ]


def change_tally(configs, processes, lo: int = 0, hi=None) -> dict:
    """How many of the steps lo+1..hi change each process."""
    hi = len(configs) - 1 if hi is None else hi
    return {
        v: sum(configs[i - 1][v] != configs[i][v] for i in range(lo + 1, hi + 1))
        for v in processes
    }


def activation_tally(activated_sets, processes, lo: int = 0) -> dict:
    """How many of the activation sets from index ``lo`` hold each process."""
    return {v: sum(v in acts for acts in activated_sets[lo:]) for v in processes}


def disruptions(configs, watch, boundary) -> list[tuple[int, int, frozenset]]:
    """(start, end, changed) for each pair of consecutive boundary
    configurations with a change of ``watch`` between them: ``boundary`` is
    asked of every configuration, and ``changed`` holds the processes of
    ``watch`` that change in steps start+1..end."""
    marks = [i for i, cfg in enumerate(configs) if boundary(cfg)]
    out = []
    for start, end in zip(marks, marks[1:]):
        changed = frozenset(v for i, v in step_changes(configs[: end + 1], watch, start))
        if changed:
            out.append((start, end, changed))
    return out


def step_lines(configs, records) -> list[str]:
    """The step lines of a trace, written from the format one step at a
    time: ``records`` are (activated, byz_writes) pairs."""

    def token(v, state):
        p, level = state
        return f"{v}:{-1 if p is None else p}:{level}"

    lines = []
    for i, (activated, writes) in enumerate(records, 1):
        before, after = configs[i - 1], configs[i]
        act = ",".join(str(v) for v in sorted(activated))
        byz = ",".join(token(v, s) for v, s in writes)
        chg = ",".join(token(v, after[v]) for v in range(len(after)) if after[v] != before[v])
        lines.append(f"step {i} act={act} byz={byz} chg={chg}")
    return lines


def lag_tails(seqs, same) -> list[tuple[int, int]]:
    """(lag, start) for every lag at which the item at the last index all
    of ``seqs`` have recurs, nearest first, by ``same``: from ``start`` on,
    each item of each list is the one ``lag`` later.  Every pair is
    compared, one at a time, walking down each list from its last item."""
    last = min(len(seq) for seq in seqs) - 1
    out = []
    for lag in range(1, last + 1):
        if not all(same(seq[last - lag], seq[last]) for seq in seqs):
            continue
        start = 0
        for seq in seqs:
            i = len(seq) - 1
            while i - lag >= 0 and same(seq[i], seq[i - lag]):
                i -= 1
            start = max(start, i - lag + 1)
        out.append((lag, start))
    return out


def longest_tail(seqs, same) -> tuple[int, int]:
    """(start, period) of the tail over every lag of ``lag_tails`` with
    the most items past its head, ``start + period``, the nearest lag among
    ties; ``(len(seqs[0]), 0)`` without one."""
    heads = [(start + lag, lag) for lag, start in lag_tails(seqs, same)]
    if not heads:
        return len(seqs[0]), 0
    head, lag = min(heads)
    return head - lag, lag
