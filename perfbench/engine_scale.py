"""engine_scale: the engine alone on graphs of about a thousand processes.

Three graphs: a path of 1,000 processes, a 32 x 32 grid and a random sparse
graph of 300 processes (a random spanning tree plus as many random chords).
Each runs under the synchronous, distributed-random and central-random
daemons against ``Oscillator(1)`` and ``RandomWrites``, for a fixed number
of steps.  Analysis and trace I/O do no work here; the engine, the
adversary and the graph invariants they read do all of it.  Each run is one
timed unit, cut into laps of about 0.1 s at step boundaries.

One more run fails every time today: on ``path n=4 byz=3`` under the
synchronous daemon, ``Oscillator(2)`` has nothing to write in its quiet low
phase, and the engine stops after one step although the adversary is never
done.  It is counted as a failed operation against the check that a run
under a never-done adversary reaches its ``max_steps``.
"""

from __future__ import annotations

import random

import oracle
from clock import TABLE
from harness import PassResult

# Distance tables and configurations of a thousand processes.
PROBE = TABLE

BIG_STEPS = 20  # path and grid
SPARSE_STEPS = 150  # random graph
BYZANTINE = 2
DAEMONS = ("synchronous", "distributed", "central")
SAMPLED_STEPS = 3
STOPPED_EARLY_STEPS = 200


def _sparse_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    present = set(edges)
    while len(edges) < 2 * n:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in present:
            present.add((u, v))
            edges.append((u, v))
    return edges


def graph_specs(seed: int):
    """(name, n, edges, steps) of the three graphs; only the random graph
    depends on the seed."""
    rng = random.Random(seed)
    grid = []
    for i in range(32):
        for j in range(32):
            v = 32 * i + j
            if j + 1 < 32:
                grid.append((v, v + 1))
            if i + 1 < 32:
                grid.append((v, v + 32))
    return [
        ("path", 1000, [(i, i + 1) for i in range(999)], BIG_STEPS),
        ("grid", 1024, grid, BIG_STEPS),
        ("sparse", 300, _sparse_edges(rng, 300), SPARSE_STEPS),
    ]


def _start(rng: random.Random, g: oracle.Graph):
    """A random configuration in which the level floor already holds at
    every depth, so it must hold in every later configuration."""
    states = []
    for v in range(g.n):
        if v == g.root or v in g.byz:
            states.append((None, 0))
        else:
            states.append((rng.choice(g.nbrs[v]), g.anchor[v] + rng.randint(0, 3)))
    return states


def build(mp, seed: int):
    rng = random.Random(seed + 1)
    ProcState = mp.protocol.ProcState
    runs = []
    for name, n, edges, steps in graph_specs(seed):
        topo = mp.graph.Topology.from_edges(n, 0, edges)
        byz = rng.sample(range(1, n), BYZANTINE)
        fm = mp.graph.make_fault_model(topo, byz)
        g = oracle.Graph(n, 0, edges, byz)
        init = tuple(ProcState(p, level) for p, level in _start(rng, g))
        for kind in DAEMONS:
            for adversary in ("oscillator", "random"):
                runs.append(
                    dict(
                        label=f"{name} {kind} {adversary}",
                        topo=topo,
                        fm=fm,
                        oracle=g,
                        init=init,
                        daemon=mp.scheduler.DaemonPolicy(kind, "random"),
                        adversary=adversary,
                        steps=steps,
                        seed=rng.randrange(1 << 30),
                    )
                )
    topo = mp.scenarios.path_topology(4)
    fm = mp.graph.make_fault_model(topo, [3])
    runs.append(
        dict(
            label="path n=4 byz=3 synchronous oscillator(period=2)",
            topo=topo,
            fm=fm,
            oracle=oracle.Graph(4, 0, topo.edges, [3]),
            init=mp.scenarios.corrupted_config(topo, fm),
            daemon=mp.scheduler.DaemonPolicy("synchronous", "round_robin"),
            adversary="oscillator2",
            steps=STOPPED_EARLY_STEPS,
            seed=0,
        )
    )
    return runs


def _adversary(mp, name: str, seed: int):
    if name == "oscillator":
        return mp.adversary.Oscillator(1)
    if name == "oscillator2":
        return mp.adversary.Oscillator(2)
    return mp.adversary.RandomWrites(seed)


def check_run(spec, ex) -> list[str]:
    """Why a stored execution is wrong (empty when it is right): it must
    reach its step budget, and sampled steps must follow the oracle's rule
    from a configuration where the level floor holds at the diameter."""
    g = spec["oracle"]
    problems = []
    if ex.step_count != spec["steps"]:
        problems.append(
            f"stopped after {ex.step_count} of {spec['steps']} steps under "
            "an adversary that is never done"
        )
    if not ex.steps:
        return problems
    rng = random.Random(f"{spec['label']} {spec['seed']}")
    last = ex.step_count - 1
    sample = sorted({last, *(rng.randrange(ex.step_count) for _ in range(SAMPLED_STEPS))})
    for i in sample:
        before, after, rec = ex.configs[i], ex.configs[i + 1], ex.steps[i]
        for cfg in (before, after):
            if not oracle.floor_holds(g, cfg):
                problems.append(f"level floor at the diameter fails near step {i + 1}")
        problems.extend(
            f"step {i + 1}: {p}"
            for p in oracle.check_step(g, before, after, rec.activated, rec.byz_writes)
        )
    return problems


def run_pass(mp, runs, clock) -> PassResult:
    scheduler = mp.scheduler
    steps = failed = 0
    failures = []
    finals = []
    for spec in runs:
        ex = clock.time(
            scheduler.run,
            spec["topo"],
            spec["fm"],
            spec["init"],
            spec["daemon"],
            clock.pace(_adversary(mp, spec["adversary"], spec["seed"])),
            scheduler.StopCriterion(max_steps=spec["steps"]),
            seed=spec["seed"],
        )
        steps += ex.step_count
        finals.append(hash(ex.final()))
        problems = check_run(spec, ex)
        if problems:
            failed += 1
            failures.append(f"{spec['label']}: {problems[0]}")
    return PassResult(
        steps=steps,
        attempted=len(runs),
        failed=failed,
        failures=failures,
        fingerprint=(steps, tuple(finals)),
    )
