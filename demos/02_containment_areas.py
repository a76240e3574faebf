"""Containment areas.

A Byzantine placement splits the correct processes into three zones by the
distance race between the nearest Byzantine process and the root:

* strictly nearer to a Byzantine process -> may be disturbed forever,
* exactly equidistant (the frontier)     -> disturbed a bounded number of times,
* nearer to the root                     -> shielded completely once contained.
"""

import minplus as mp


def describe(topo, fm, name):
    areas = mp.compute_containment_areas(topo, fm)
    print(f"{name}: n={topo.process_count}, byzantine={sorted(fm.byzantine)}")
    print(f"  strictly near : {sorted(areas.strictly_near)}")
    print(f"  frontier      : {sorted(areas.frontier)}")
    shielded = sorted(set(topo.processes()) - areas.near - fm.byzantine)
    print(f"  shielded      : {shielded}")
    print()


def main():
    describe(*mp.hexagon_topology(), "hexagon (two 3-hop routes root->byz)")

    topo, fm = mp.build(mp.parse_scenario("path n=5 byz=4"))
    describe(topo, fm, "5-path with a Byzantine endpoint")

    topo = mp.random_topology(12, 0.3, seed=42)
    fm = mp.make_fault_model(topo, [5, 11])
    describe(topo, fm, "random graph, two Byzantine processes")

    # The final configuration of a run renders as a DOT tree with roles.
    topo, fm = mp.hexagon_topology()
    ex = mp.run(
        topo,
        fm,
        mp.corrupted_config(topo, fm),
        mp.DaemonPolicy(),
        mp.FakeRoot(),
        mp.StopCriterion(max_steps=mp.step_budget(topo)),
        seed=0,
    )
    print("hexagon final configuration as DOT:")
    print(mp.to_dot(topo, fm, ex.final()))


if __name__ == "__main__":
    main()
