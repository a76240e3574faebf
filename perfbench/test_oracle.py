"""Tests of the benchmark's oracle and of its workload checks.

Run with ``python3 -m unittest discover -s perfbench`` (or
``python3 -m pytest perfbench``) from the root of the repository.
"""

from __future__ import annotations

import json
import random
import unittest
from pathlib import Path

import audit
import certify
import engine_scale
import oracle
import run
import tracing
from clock import SMALL, UnitClock
from harness import import_minplus

HEXAGON_EDGES = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)]
PATH5_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4)]


class HandWorked(unittest.TestCase):
    def test_hexagon(self):
        g = oracle.Graph(6, 0, HEXAGON_EDGES, [5])
        self.assertEqual(g.to_root, [0, 1, 1, 2, 2, 3])
        self.assertEqual(g.anchor, [0, 1, 1, 1, 1, 0])
        self.assertEqual(g.nbrs[3], [1, 5])
        # 3 and 4 are one hop from the Byzantine process and two from the root.
        self.assertEqual(g.near, {3, 4})
        self.assertEqual(g.strictly_near, {3, 4})
        self.assertEqual(g.frontier, set())

    def test_path_with_byzantine_end(self):
        g = oracle.Graph(5, 0, PATH5_EDGES, [4])
        self.assertEqual(g.to_byz, [4, 3, 2, 1, 0])
        self.assertEqual(g.near, {2, 3})
        self.assertEqual(g.strictly_near, {3})
        self.assertEqual(g.frontier, {2})
        self.assertEqual(g.anchor, [0, 1, 2, 1, 0])

    def test_level_floor(self):
        g = oracle.Graph(5, 0, PATH5_EDGES, [4])
        zeros = [(None, 0)] * 5
        self.assertTrue(oracle.floor_holds(g, zeros, 0))
        self.assertFalse(oracle.floor_holds(g, zeros, 1))
        levels = [(None, 0), (0, 1), (1, 1), (4, 1), (None, 0)]
        self.assertTrue(oracle.floor_holds(g, levels, 1))
        self.assertFalse(oracle.floor_holds(g, levels, 2))
        self.assertFalse(oracle.floor_holds(g, levels))

    def test_round_robin_parent(self):
        # Process 0 is the root; 1 has neighbors 2, 3, 4 in that order.
        g = oracle.Graph(5, 0, [(1, 2), (1, 3), (1, 4), (0, 2), (0, 3), (0, 4)])
        def cfg(prnt):
            return [(None, 0), (prnt, 7), (0, 1), (0, 1), (0, 1)]
        self.assertEqual(oracle.rule(g, cfg(None), 1), (2, 2))
        self.assertEqual(oracle.rule(g, cfg(2), 1), (3, 2))
        self.assertEqual(oracle.rule(g, cfg(4), 1), (2, 2))
        self.assertEqual(oracle.rule(g, cfg(0), 1), (2, 2))  # not a neighbor
        self.assertTrue(oracle.enabled(g, cfg(3), 1))
        settled = cfg(3)
        settled[1] = (3, 2)
        self.assertFalse(oracle.enabled(g, settled, 1))
        self.assertTrue(oracle.enabled(g, [(2, 0)] + settled[1:], 0))

    def test_spec_on_the_bfs_tree_and_a_fake_root(self):
        g = oracle.Graph(5, 0, PATH5_EDGES, [4])
        cfg = [(None, 0), (0, 1), (1, 2), (4, 1), (None, 0)]
        self.assertTrue(all(oracle.spec_holds(g, cfg, v) for v in range(4)))
        self.assertTrue(oracle.contained(g, cfg, g.near))
        cfg[1] = (2, 3)  # points away from the root's minimum
        self.assertFalse(oracle.spec_holds(g, cfg, 1))
        self.assertFalse(oracle.contained(g, cfg, g.near))


class AgreesWithTheProgram(unittest.TestCase):
    """The oracle and the program must agree on legal inputs, or every
    workload check would fail for the wrong reason."""

    def test_guard_and_rule_on_random_configurations(self):
        mp = import_minplus(fresh=False)
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(2, 9)
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            edges += [(u, v) for u in range(n) for v in range(u + 1, n)
                      if (u, v) not in edges and rng.random() < 0.3]
            topo = mp.graph.Topology.from_edges(n, 0, edges)
            g = oracle.Graph(n, 0, edges)
            cfg = tuple(
                mp.protocol.ProcState(rng.choice([None] + g.nbrs[v]), rng.randint(0, 4))
                for v in range(n)
            )
            for v in range(n):
                self.assertEqual(oracle.enabled(g, cfg, v), mp.protocol.is_enabled(topo, cfg, v))
                if oracle.enabled(g, cfg, v):
                    self.assertEqual(oracle.rule(g, cfg, v), tuple(mp.protocol._action(topo, cfg, v)))


def _tamper(ex, index: int, v: int):
    """Raise one stored level at configuration ``index``."""
    cfg = list(ex.configs[index])
    cfg[v] = cfg[v]._replace(level=cfg[v].level + 1)
    ex.configs[index] = tuple(cfg)


class WorkloadChecks(unittest.TestCase):
    def setUp(self):
        self.mp = import_minplus(fresh=False)

    def test_a_tampered_audit_run_counts_as_failed(self):
        cases = audit.build(self.mp, 3)[:1]
        clean = audit.run_pass(self.mp, cases, UnitClock(SMALL))
        self.assertEqual((clean.attempted, clean.failed), (3, 0), clean.failures)

        real = audit.simulate

        def tampered(mp, case, clock):
            ex = real(mp, case, clock)
            _tamper(ex, ex.step_count // 2, 1)
            return ex

        audit.simulate = tampered
        try:
            result = audit.run_pass(self.mp, cases, UnitClock(SMALL))
        finally:
            audit.simulate = real
        self.assertEqual((result.attempted, result.failed), (3, 1))

    def test_a_tampered_engine_run_fails_its_check(self):
        spec = engine_scale.build(self.mp, 3)[-2]  # sparse graph, central daemon
        ex = self.mp.scheduler.run(
            spec["topo"], spec["fm"], spec["init"], spec["daemon"],
            self.mp.adversary.RandomWrites(spec["seed"]),
            self.mp.scheduler.StopCriterion(max_steps=spec["steps"]), seed=spec["seed"],
        )
        self.assertEqual(engine_scale.check_run(spec, ex), [])
        victim = next(v for v in range(spec["topo"].process_count) if spec["fm"].is_correct(v))
        _tamper(ex, ex.step_count, victim)
        self.assertNotEqual(engine_scale.check_run(spec, ex), [])

    def test_counts_match_the_catalog(self):
        self.assertEqual(certify.expected_counts(), (197, 1083))


class Contract(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, tracing.METRICS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
