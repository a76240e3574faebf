"""Each constructor and pass refuses an argument outside its domain with a
``ValueError`` that names it, before it builds or runs anything."""

import re

import pytest

from minplus import (
    DaemonPolicy,
    FaultModel,
    Oscillator,
    ScenarioParams,
    Silent,
    StopCriterion,
    all_zero_config,
    build,
    compute_containment_areas,
    grid_topology,
    line_topology,
    path_topology,
    radius_area,
    random_topology,
    replay_ta_strong_impossibility,
    run,
)
from minplus.exhaustive import connected_graph_catalog

PATH = path_topology(3)
ROOT_BYZANTINE = FaultModel(frozenset({PATH.root}))
NO_FAULT = FaultModel(frozenset())

CHECKS = {
    "oscillator period": (lambda: Oscillator(0), "period must be positive"),
    "line length": (lambda: line_topology(-1), "c must be nonnegative"),
    "grid size": (lambda: grid_topology(0, 2), "grid dimensions must be positive"),
    "random size": (lambda: random_topology(0, 0.5, 1), "n must be positive"),
    "random edge probability": (
        lambda: random_topology(3, 1.5, 1),
        "edge_prob must be in [0, 1]",
    ),
    "scenario kind": (lambda: build(ScenarioParams("torus")), "unknown scenario kind 'torus'"),
    "hexagon replay cycles": (
        lambda: replay_ta_strong_impossibility({3}, 0),
        "cycles must be positive",
    ),
    "daemon kind": (lambda: DaemonPolicy("x"), "unknown daemon kind 'x'"),
    "steps after the predicate": (
        lambda: StopCriterion(1, extra_after=-1),
        "extra_after must be nonnegative, got -1",
    ),
    "run with a Byzantine root": (
        lambda: run(
            PATH,
            ROOT_BYZANTINE,
            all_zero_config(PATH),
            DaemonPolicy(),
            Silent(),
            StopCriterion(1),
        ),
        "root cannot be Byzantine",
    ),
    "areas with a Byzantine root": (
        lambda: compute_containment_areas(PATH, ROOT_BYZANTINE),
        "root cannot be Byzantine",
    ),
    "area radius": (lambda: radius_area(PATH, NO_FAULT, -1), "radius must be nonnegative"),
    "catalog size": (lambda: connected_graph_catalog(8), "catalog covers up to 7 nodes"),
}


@pytest.mark.parametrize("call, message", CHECKS.values(), ids=CHECKS)
def test_an_argument_outside_its_domain_is_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
