"""Command-line front end.

Subcommands: ``run`` (one execution with optional artifact export and
verification flags), ``sweep`` (a grid of runs merged into one metrics
CSV), ``exhaustive`` (small-scope certification), ``replay`` (trace
integrity), and ``areas`` (print the containment areas of a placement).

Every run is a pure function of its resolved configuration: rerunning the
same configuration produces byte-identical artifacts.  Flags override
values from a ``--config`` file, and the resolved configuration is stamped
into the trace header.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .adversary import make_adversary
from .analysis import (
    compute_containment_areas,
    measure,
    metrics_row,
    to_dot,
    violations,
    write_metrics_csv,
)
from .errors import GenerationError
from .exhaustive import run_exhaustive
from .graph import canonical_int, make_fault_model, read_topology, write_topology
from .scenarios import (
    all_zero_config,
    build,
    corrupted_config,
    parse_scenario,
    random_config,
)
from .scheduler import (
    CENTRAL,
    DISTRIBUTED,
    RANDOM,
    ROUND_ROBIN,
    SYNCHRONOUS,
    DaemonPolicy,
    StopCriterion,
    read_trace,
    run,
    step_budget,
    verify_replay,
    write_trace,
)
from .protocol import read_config


# What each run-config field annotation admits of a JSON value.
_JSON_TYPES = {
    "str": lambda value: isinstance(value, str),
    "int": lambda value: type(value) is int,
    "bool": lambda value: type(value) is bool,
    "tuple[int, ...]": lambda value: isinstance(value, (list, tuple))
    and all(type(b) is int for b in value),
}

# How the run flags that hold integers read them: as every file does.
_INT_FLAGS = {
    "byz": lambda text: tuple(map(canonical_int, text.split(","))),
    "seed": canonical_int,
    "max_steps": canonical_int,
}

# The violation kinds each check flag reports.
_CHECKS = {
    "check_closure": {"floor"},
    "check_containment": {"never_contained", "shielded"},
    "check_bounds": {"never_contained", "never_strongly_contained"}
    | {"frontier", "disruptions", "changes"},
}


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines one run and its artifacts."""

    scenario: str | None = None
    topology: str | None = None
    byz: tuple[int, ...] | None = None
    adversary: str = "silent"
    daemon: str = DISTRIBUTED
    fairness: str = RANDOM
    seed: int = 0
    max_steps: int | None = None
    init: str = "corrupted"
    trace: str | None = None
    metrics: str | None = None
    dot: str | None = None
    export_topology: str | None = None
    check_closure: bool = False
    check_bounds: bool = False
    check_containment: bool = False

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ValueError(f"a run config must be a JSON object, not {d!r}")
        # Runs always stop once nothing can happen, so the old "quiescent"
        # switch is dropped and config files that still carry it load.
        d = {k: v for k, v in d.items() if k != "quiescent"}
        fields = cls.__dataclass_fields__
        unknown = set(d) - set(fields)
        if unknown:
            raise ValueError(f"unknown run-config keys: {sorted(unknown)}")
        for key, value in d.items():
            kind, _, optional = fields[key].type.partition(" | ")
            if not ((optional and value is None) or _JSON_TYPES[kind](value)):
                raise ValueError(
                    f"run-config {key} must be {fields[key].type}, not {value!r}"
                )
        if d.get("byz") is not None:
            d["byz"] = tuple(d["byz"])
        return cls(**d)

    def scenario_id(self) -> str:
        return self.scenario or self.topology or "adhoc"


def _build_topology(rc: RunConfig):
    if (rc.scenario is None) == (rc.topology is None):
        raise ValueError("exactly one of scenario/topology is required")
    if rc.scenario is not None:
        topo, fm = build(parse_scenario(rc.scenario))
    else:
        topo, fm = read_topology(rc.topology)
    if rc.byz is not None:
        fm = make_fault_model(topo, rc.byz)
    return topo, fm


def _initial_config(rc: RunConfig, topo, fm):
    if rc.init == "zero":
        return all_zero_config(topo)
    if rc.init == "corrupted":
        return corrupted_config(topo, fm)
    if rc.init == "random":
        return random_config(topo, random.Random(rc.seed ^ 0x5EED))
    return read_config(rc.init, topo, fm)


def execute_run(rc: RunConfig):
    """Run one configuration; returns (metrics row, violations, execution)."""
    topo, fm = _build_topology(rc)
    areas = compute_containment_areas(topo, fm)
    init = _initial_config(rc, topo, fm)
    adversary = make_adversary(rc.adversary)
    daemon = DaemonPolicy(kind=rc.daemon, fairness=rc.fairness)
    stop = StopCriterion(
        max_steps=rc.max_steps if rc.max_steps is not None else step_budget(topo)
    )
    ex = run(topo, fm, init, daemon, adversary, stop, seed=rc.seed)
    # Output locations do not determine the run, so they stay out of the header.
    artifact_keys = {"trace", "metrics", "dot", "export_topology"}
    ex.meta_extra = {
        k: v
        for k, v in asdict(rc).items()
        if v is not None and k not in artifact_keys
    }
    metrics = measure(ex, areas)

    kinds = {k for flag, ks in _CHECKS.items() if getattr(rc, flag) for k in ks}
    failures = (
        [v for v in violations(ex, metrics, areas) if v.kind in kinds] if kinds else []
    )

    if rc.export_topology:
        write_topology(topo, fm, rc.export_topology)
    if rc.trace:
        write_trace(ex, rc.trace)
    if rc.dot:
        Path(rc.dot).write_text(
            to_dot(topo, fm, ex.final(), areas), encoding="utf-8", newline="\n"
        )
    row = metrics_row(rc.scenario_id(), rc.seed, topo, fm, metrics)
    if rc.metrics:
        write_metrics_csv([row], rc.metrics)
    return row, failures, ex


def _add_topology_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with run-config values")
    p.add_argument("--scenario", help='e.g. "line c=2", "random n=10 p=0.3 seed=7"')
    p.add_argument("--topology", help="topology file path")
    p.add_argument("--byz", help="comma-separated Byzantine ids (overrides file)")
    p.add_argument("--export-topology", dest="export_topology")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    _add_topology_flags(p)
    p.add_argument("--adversary", help="silent|fake_root|mirror_root|oscillator:N|random:SEED|scripted:FILE|well_behaved")
    p.add_argument(
        "--daemon", choices=[CENTRAL, DISTRIBUTED, SYNCHRONOUS], help="daemon kind"
    )
    p.add_argument(
        "--fairness", choices=[ROUND_ROBIN, RANDOM], help="fairness policy"
    )
    p.add_argument("--seed")
    p.add_argument("--max-steps", dest="max_steps")
    p.add_argument("--init", help="zero|corrupted|random|FILE")
    p.add_argument("--trace", help="write the trace here")
    p.add_argument("--metrics", help="write a one-row metrics CSV here")
    p.add_argument("--dot", help="write the final configuration as DOT here")
    p.add_argument("--check-closure", action="store_true", default=None, dest="check_closure")
    p.add_argument("--check-bounds", action="store_true", default=None, dest="check_bounds")
    p.add_argument(
        "--check-containment", action="store_true", default=None, dest="check_containment"
    )


def _run_config_from_args(args) -> RunConfig:
    base: dict = {}
    if args.config:
        base = json.loads(Path(args.config).read_text(encoding="utf-8"))
    rc = RunConfig.from_dict(base)
    # A command reads the config keys it has flags for: areas has no run flags.
    fields = RunConfig.__dataclass_fields__
    unread = sorted(k for k in base if k in fields and k not in vars(args))
    if unread:
        raise ValueError(f"{args.command} does not read run-config keys: {unread}")
    overrides = {}
    for name in fields:
        value = getattr(args, name, None)
        if value is not None:
            parse = _INT_FLAGS.get(name)
            overrides[name] = parse(value) if parse else value
    return replace(rc, **overrides)


def cmd_run(args) -> int:
    rc = _run_config_from_args(args)
    row, failures, ex = execute_run(rc)
    print(
        f"steps={ex.step_count}"
        f" first_contained={row['first_contained']!r}"
        f" first_strongly_contained={row['first_strongly_contained']!r}"
        f" disruptions={row['disruptions']!r}"
        f" max_changes={row['max_changes']!r}"
    )
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


def cmd_sweep(args) -> int:
    grid = json.loads(Path(args.grid).read_text(encoding="utf-8"))
    if not isinstance(grid, list) or not grid:
        print("error: sweep grid must be a nonempty JSON list", file=sys.stderr)
        return 2
    rows = []
    malformed = failed = 0
    for entry in grid:
        rc = RunConfig()
        try:
            rc = RunConfig.from_dict(entry)
            row, failures, _ = execute_run(rc)
        except (ValueError, GenerationError, OSError) as exc:
            malformed += 1
            row = metrics_row(
                rc.scenario_id(), rc.seed, error=f"{type(exc).__name__}: {exc}"
            )
        else:
            if failures:
                failed += 1
                row["error"] = "; ".join(map(str, failures))
        rows.append(row)
    rows.sort(key=lambda r: (str(r["scenario"]), r["seed"]))
    write_metrics_csv(rows, args.out)
    print(f"{len(rows)} rows ({malformed + failed} with errors) -> {args.out}")
    if malformed:
        return 2
    return 1 if failed else 0


def cmd_exhaustive(args) -> int:
    n_max, f_max, seed = map(canonical_int, (args.n_max, args.f_max, args.seed))
    report = run_exhaustive(n_max, f_max, labeled=args.labeled, seed=seed)
    print(f"cases={report.cases} runs={report.runs} failures={len(report.failures)}")
    for failure in report.failures:
        print(f"FAIL {failure}")
    return 0 if report.ok else 1


def cmd_replay(args) -> int:
    ex = read_trace(args.trace)
    divergent = verify_replay(ex)
    if divergent is None:
        print(f"ok: {ex.step_count} steps reproduced")
        return 0
    print(f"mismatch at step {divergent}")
    return 1


def cmd_areas(args) -> int:
    rc = _run_config_from_args(args)
    topo, fm = _build_topology(rc)
    areas = compute_containment_areas(topo, fm)
    print(f"n={topo.process_count} m={topo.edge_count} root={topo.root}")
    print(f"byzantine      {sorted(fm.byzantine)}")
    print(f"near           {sorted(areas.near)}")
    print(f"strictly_near  {sorted(areas.strictly_near)}")
    print(f"frontier       {sorted(areas.frontier)}")
    if rc.export_topology:
        write_topology(topo, fm, rc.export_topology)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="minplus",
        description="Simulate and analyze the min+1 spanning-tree protocol under Byzantine faults.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and verify it")
    _add_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a grid of configurations")
    p_sweep.add_argument("--grid", required=True, help="JSON list of run configs")
    p_sweep.add_argument("--out", required=True, help="merged metrics CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_ex = sub.add_parser("exhaustive", help="small-scope certification sweep")
    p_ex.add_argument("--n-max", default="4", dest="n_max")
    p_ex.add_argument("--f-max", default="1", dest="f_max")
    p_ex.add_argument(
        "--labeled",
        action="store_true",
        help="enumerate labeled graphs by edge sets instead of the catalog",
    )
    p_ex.add_argument("--seed", default="0")
    p_ex.set_defaults(func=cmd_exhaustive)

    p_replay = sub.add_parser("replay", help="verify a stored trace")
    p_replay.add_argument("--trace", required=True)
    p_replay.set_defaults(func=cmd_replay)

    p_areas = sub.add_parser("areas", help="print containment areas")
    _add_topology_flags(p_areas)
    p_areas.set_defaults(func=cmd_areas)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, GenerationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
