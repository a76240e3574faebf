"""Fault-free self-stabilization.

From any starting state -- all-zero, deliberately corrupted, or random --
the min+1 rule drives every process to its true hop distance from the root
and the parent pointers into a breadth-first spanning tree.
"""

import random

import minplus as mp


def show(topo, fm, init, label):
    ex = mp.run(
        topo,
        fm,
        init,
        mp.DaemonPolicy("distributed", "random"),
        mp.Silent(),
        mp.StopCriterion(max_steps=mp.step_budget(topo)),
        seed=1,
    )
    final = ex.final()
    print(f"  {label:10s} quiesced after {ex.step_count:3d} steps;", end=" ")
    print("levels", [s.level for s in final], end="; ")
    ok = all(
        s.level == topo.hop_distance(v, topo.root) for v, s in enumerate(final)
    )
    print("levels == BFS distances:", ok)


def main():
    for scenario in ("path n=7", "grid w=4 h=3"):
        topo, fm = mp.build(mp.parse_scenario(scenario))
        print(f"{scenario} (n={topo.process_count}, m={topo.edge_count})")
        rng = random.Random(7)
        show(topo, fm, mp.all_zero_config(topo), "zero")
        show(topo, fm, mp.corrupted_config(topo, fm), "corrupted")
        show(topo, fm, mp.random_config(topo, rng), "random")
        print()


if __name__ == "__main__":
    main()
