"""Small-scope certification: every topology, placement, and start state.

Enumerates either every connected graph up to isomorphism with every root
placement (read from the Graph Atlas data file that networkx ships, which
covers up to seven nodes), or every labeled connected graph with root 0
(edge-set enumeration, only sensible up to six nodes), then sweeps
Byzantine placements, a panel of initial configurations and adversaries,
and reports every containment violation
(:func:`minplus.analysis.violations`) of every run, and nothing else: a
fault-free run has empty areas, so its verdict is empty only if it ends
quiescent on the distance-exact spanning tree.
"""

from __future__ import annotations

import gzip
import importlib.util
import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

from .adversary import Adversary, Oscillator, Silent
from .analysis import violations
from .graph import Topology, _bfs, compute_containment_areas, make_fault_model
from .scenarios import all_zero_config, corrupted_config, random_config
from .scheduler import (
    DISTRIBUTED,
    RANDOM,
    DaemonPolicy,
    StopCriterion,
    run,
    step_budget,
)

_ATLAS_MAX = 7


def connected_graph_catalog(n_max: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """All connected graphs with 1..n_max nodes, one per isomorphism class,
    in Graph Atlas order, read from networkx's atlas data file (gzipped
    ``GRAPH i`` / ``NODES n`` / ``u v`` lines).  The atlas is ordered by
    node count, so reading stops at the first graph with more nodes."""
    if n_max > _ATLAS_MAX:
        raise ValueError(f"catalog covers up to {_ATLAS_MAX} nodes")
    graphs: list[tuple[int, list[tuple[int, int]]]] = []
    with gzip.open(_atlas_file(), "rb") as f:
        for line in f:
            key, value = line.split()
            if key == b"NODES":
                if int(value) > n_max:
                    break
                graphs.append((int(value), []))
            elif key != b"GRAPH":
                u, v = int(key), int(value)
                graphs[-1][1].append((min(u, v), max(u, v)))
    return [(n, sorted(edges)) for n, edges in graphs if n and _connected(n, edges)]


def _atlas_file() -> Path:
    # networkx's ``generators/atlas.dat.gz``, located without importing the
    # package (about 0.15 s): ``find_spec`` of a top-level name imports
    # nothing.
    spec = importlib.util.find_spec("networkx")
    if spec is None:
        raise ModuleNotFoundError("the graph catalog reads networkx's atlas data file")
    return Path(spec.submodule_search_locations[0], "generators", "atlas.dat.gz")


def _connected(n: int, edges) -> bool:
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return min(_bfs(nbrs, 0)[0]) >= 0


def labeled_connected_graphs(n: int):
    """Every labeled connected graph on n nodes, by edge-set enumeration."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if _connected(n, edges):
            yield edges


def enumerate_cases(n_max: int, f_max: int, labeled: bool = False):
    """Yield every (topology, fault model) the certification covers."""
    if labeled:
        graphs = [
            (n, edges, (0,))
            for n in range(1, n_max + 1)
            for edges in labeled_connected_graphs(n)
        ]
    else:
        graphs = [
            (n, edges, tuple(range(n)))
            for n, edges in connected_graph_catalog(n_max)
        ]
    for n, edges, roots in graphs:
        for root in roots:
            topo = Topology.from_edges(n, root, edges)
            others = [v for v in range(n) if v != root]
            for size in range(0, min(f_max, len(others)) + 1):
                for byz in combinations(others, size):
                    yield topo, make_fault_model(topo, byz)


@dataclass
class ExhaustiveReport:
    cases: int = 0
    runs: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_exhaustive(
    n_max: int, f_max: int, labeled: bool = False, seed: int = 0
) -> ExhaustiveReport:
    """Run the full certification sweep and collect assertion failures.

    A sweep with no process or with a negative fault budget would report
    no case and pass, so both are refused; ``f_max=0`` is the fault-free
    sweep."""
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if f_max < 0:
        raise ValueError(f"f_max must be nonnegative, got {f_max}")
    report = ExhaustiveReport()
    daemon = DaemonPolicy(kind=DISTRIBUTED, fairness=RANDOM)
    for topo, fm in enumerate_cases(n_max, f_max, labeled):
        report.cases += 1
        label = (
            f"graph(n={topo.process_count}, edges={list(topo.edges)}, "
            f"root={topo.root}, byz={sorted(fm.byzantine)})"
        )
        rng = random.Random(seed * 1_000_003 + report.cases)
        inits = [
            ("zero", all_zero_config(topo)),
            ("corrupted", corrupted_config(topo, fm)),
            ("random", random_config(topo, rng)),
        ]
        areas = compute_containment_areas(topo, fm)
        adversaries: list[Adversary] = [Silent()]
        if fm.byzantine:
            adversaries.append(Oscillator(1))
        for init_name, init in inits:
            for adversary in adversaries:
                report.runs += 1
                where = f"{label} init={init_name} adversary={adversary.name} seed={seed}"
                ex = run(
                    topo,
                    fm,
                    init,
                    daemon,
                    adversary,
                    StopCriterion(max_steps=step_budget(topo)),
                    seed=seed,
                )
                report.failures.extend(f"{where}: {v}" for v in violations(ex, areas=areas))
    return report
