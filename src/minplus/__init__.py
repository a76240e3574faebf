"""Simulator and analysis toolkit for the min+1 self-stabilizing BFS
spanning-tree protocol under Byzantine faults.

The package is organized around immutable values: a :class:`Topology` with
fixed neighbor order, a :class:`FaultModel` naming the Byzantine processes,
configurations as tuples of per-process states, and executions as replayable
traces.  ``protocol`` holds the guarded rules, ``scheduler`` the daemons and
the engine, ``adversary`` the Byzantine strategies, ``analysis`` the
containment checkers and metrics, ``scenarios`` the builders and replay
constructions, and ``cli`` the command-line front end.
"""

from .adversary import (
    Adversary,
    FakeRoot,
    MirrorRoot,
    Oscillator,
    RandomWrites,
    Scripted,
    Silent,
    WellBehaved,
    advise,
    make_adversary,
)
from .analysis import (
    DisruptionSegment,
    StabilizationMetrics,
    Violation,
    activation_counts,
    change_counts,
    containment_violations,
    floor_closure_violations,
    is_area_legitimate,
    is_area_stable,
    is_contained,
    is_strongly_contained,
    level_floor_holds,
    measure,
    metrics_csv,
    metrics_row,
    segment_disruptions,
    spec_holds,
    to_dot,
    violations,
    write_metrics_csv,
)
from .errors import (
    AnalysisError,
    ContractViolation,
    GenerationError,
    ScenarioError,
)
from .graph import (
    ContainmentAreas,
    FaultModel,
    Topology,
    anchor_distance,
    compute_containment_areas,
    make_fault_model,
    radius_area,
    read_topology,
    topology_sha256,
    topology_text,
    write_topology,
)
from .protocol import (
    Config,
    ProcState,
    config_text,
    is_enabled,
    normalize_config,
    parse_config,
    read_config,
    step,
)
from .scenarios import (
    HEXAGON,
    ScenarioParams,
    all_zero_config,
    build,
    corrupted_config,
    grid_topology,
    hexagon_topology,
    line_topology,
    parse_scenario,
    path_topology,
    random_config,
    random_topology,
    replay_strong_impossibility,
    replay_ta_strong_impossibility,
)
from .scheduler import (
    CENTRAL,
    DISTRIBUTED,
    RANDOM,
    ROUND_ROBIN,
    SYNCHRONOUS,
    DaemonPolicy,
    Execution,
    StepRecord,
    StopCriterion,
    continue_run,
    enabled_set,
    read_trace,
    run,
    step_budget,
    trace_text,
    verify_replay,
    write_trace,
)

__version__ = "0.1.0"
