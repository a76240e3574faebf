"""Daemon models, fairness, and the execution engine.

A run advances one configuration at a time.  Each step the adversary is
asked what the Byzantine processes write, the daemon picks which enabled
correct processes act, and both are applied simultaneously against the
pre-step configuration.  Three daemons are supported:

* ``central``    -- one process per step: either a single correct
  activation or a single Byzantine write, alternating between the two when
  both have work so neither side starves the other.
* ``distributed`` -- any nonempty subset of the enabled correct processes,
  with Byzantine writes riding along in the same step.
* ``synchronous`` -- every enabled correct process, every step.

Fairness is bounded: a correct process continuously enabled across a full
window of activation opportunities is forcibly activated (window = process
count; for the central daemon the window counts the steps in which some
correct process acted, since Byzantine-write steps are not opportunities).
Runs are a deterministic function of their inputs and seed, and every
stored transition can be replayed bit-exactly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .adversary import Adversary, advise
from .errors import ContractViolation, FairnessViolation
from .graph import FaultModel, Topology, parse_topology, topology_sha256, topology_text
from .protocol import (
    Config,
    ProcState,
    _action,
    config_text,
    is_enabled,
    normalize_config,
    parse_config,
    step,
)

CENTRAL = "central"
DISTRIBUTED = "distributed"
SYNCHRONOUS = "synchronous"

ROUND_ROBIN = "round_robin"
RANDOM = "random"
SCRIPT = "script"


@dataclass(frozen=True)
class DaemonPolicy:
    kind: str = DISTRIBUTED
    fairness: str = RANDOM
    script: tuple[frozenset[int], ...] | None = None

    def __post_init__(self):
        if self.kind not in (CENTRAL, DISTRIBUTED, SYNCHRONOUS):
            raise ValueError(f"unknown daemon kind {self.kind!r}")
        if self.fairness not in (ROUND_ROBIN, RANDOM, SCRIPT):
            raise ValueError(f"unknown fairness policy {self.fairness!r}")
        if (self.fairness == SCRIPT) != (self.script is not None):
            raise ValueError("a script is required iff fairness is 'script'")

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "fairness": self.fairness}
        if self.script is not None:
            d["script"] = [sorted(s) for s in self.script]
        return d


@dataclass(frozen=True)
class StopCriterion:
    """When a run ends.

    ``max_steps`` always caps the run.  A run also ends once no correct
    process is enabled, the adversary writes nothing and reports it is done,
    since nothing can happen after that.  While the adversary is not done, a
    step with nothing enabled and nothing written is recorded as an idle
    step.  With a ``predicate`` the run ends ``extra_after`` steps after the
    first configuration satisfying it.
    """

    max_steps: int
    predicate: Callable[[Config], bool] | None = None
    extra_after: int = 0

    def __post_init__(self):
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be nonnegative, got {self.max_steps}")
        if self.extra_after < 0:
            raise ValueError(f"extra_after must be nonnegative, got {self.extra_after}")


def step_budget(topo: Topology) -> int:
    """Default step allowance: generous versus observed desk-scale convergence."""
    return 50 * topo.process_count * max(topo.edge_count, 1)


@dataclass(frozen=True)
class StepRecord:
    activated: frozenset[int]
    byz_writes: tuple[tuple[int, ProcState], ...]


@dataclass
class Execution:
    """A trace: initial configuration plus every (activation, writes) step.

    ``configs[0]`` is the initial configuration and ``steps[i]`` produced
    ``configs[i+1]``.  Re-applying each stored step must reproduce the
    stored configurations exactly.
    """

    topo: Topology
    fm: FaultModel
    daemon: DaemonPolicy
    seed: int
    adversary_desc: str
    configs: list[Config] = field(default_factory=list)
    steps: list[StepRecord] = field(default_factory=list)
    meta_extra: dict = field(default_factory=dict)

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def final(self) -> Config:
        return self.configs[-1]


def enabled_set(topo: Topology, fm: FaultModel, cfg: Config) -> frozenset[int]:
    """Exactly the correct processes whose guard holds in cfg."""
    return frozenset(
        v for v in topo.processes() if fm.is_correct(v) and is_enabled(topo, cfg, v)
    )


def run(
    topo: Topology,
    fm: FaultModel,
    init: Config,
    daemon: DaemonPolicy,
    adversary: Adversary,
    stop: StopCriterion,
    seed: int = 0,
) -> Execution:
    """Produce an execution: a deterministic function of its inputs and seed."""
    if topo.root in fm.byzantine:
        raise ValueError("root cannot be Byzantine")
    init = normalize_config(topo, fm, init)
    ex = Execution(
        topo=topo,
        fm=fm,
        daemon=daemon,
        seed=seed,
        adversary_desc=adversary.describe(),
        configs=[init],
    )
    return continue_run(ex, daemon, adversary, stop, seed)


def continue_run(
    ex: Execution,
    daemon: DaemonPolicy,
    adversary: Adversary,
    stop: StopCriterion,
    seed: int = 0,
) -> Execution:
    """Extend an execution in place from its final configuration."""
    adversary.reset(ex.topo, ex.fm)
    _drive(ex, daemon, adversary, stop, seed)
    return ex


def _drive(
    ex: Execution,
    daemon: DaemonPolicy,
    adversary: Adversary,
    stop: StopCriterion,
    seed: int,
) -> None:
    topo, fm = ex.topo, ex.fm
    byzantine = fm.byzantine
    neighbors = topo.neighbors
    rng = random.Random(seed)
    window = topo.process_count
    # Fairness slots are the steps in which a correct process could act.
    # ``since`` holds exactly the enabled correct processes, each with the
    # slot count at which it last became enabled or acted, so its age (slots
    # enabled without acting) is ``slots - since[v]`` and a step updates only
    # the processes it touches.
    slots = 0
    cfg = ex.configs[-1]
    since = {
        v: 0
        for v in topo.processes()
        if v not in byzantine and is_enabled(topo, cfg, v)
    }
    last_slot_byz = True  # first central slot goes to a correct process
    steps_done = 0
    pred_hit: int | None = None
    script_pos = 0

    while steps_done < stop.max_steps:
        cfg = ex.configs[-1]
        if stop.predicate is not None:
            if pred_hit is None and stop.predicate(cfg):
                pred_hit = steps_done
            if pred_hit is not None and steps_done - pred_hit >= stop.extra_after:
                break
        writes = advise(adversary, topo, fm, ex.configs, len(ex.configs))
        idle = not since and not writes
        if idle and adversary.done(topo, fm, cfg):
            break  # nothing can ever happen again

        activated: list[int] = []
        applied: dict[int, ProcState] = writes
        slot_counts = True  # whether this step is a fairness slot
        # A process of age window - 1 or more is starved: it must act now.
        starved_since = slots - window + 1

        if daemon.fairness == SCRIPT:
            if script_pos >= len(daemon.script):
                break
            wanted = daemon.script[script_pos]
            script_pos += 1
            bad = wanted - since.keys()
            if bad:
                raise ContractViolation(
                    f"script activates disabled or Byzantine processes {sorted(bad)}"
                )
            if daemon.kind == CENTRAL and len(wanted) + (1 if writes else 0) > 1:
                raise ContractViolation("central daemon: one process per step")
            activated = sorted(wanted)
        elif idle:
            pass  # the adversary is not done but writes nothing this step
        elif daemon.kind == SYNCHRONOUS:
            activated = sorted(since)
        elif daemon.kind == DISTRIBUTED:
            if since:
                pool = sorted(since)
                if daemon.fairness == ROUND_ROBIN:
                    activated = pool
                else:
                    picked = {v for v in pool if rng.random() < 0.5}
                    picked.update(v for v in pool if since[v] <= starved_since)
                    if not picked:
                        picked = {rng.choice(pool)}
                    activated = sorted(picked)
        else:  # CENTRAL
            starved = [v for v, t in since.items() if t <= starved_since]
            if writes and not starved and (not last_slot_byz or not since):
                b = min(writes)
                applied = {b: writes[b]}
                slot_counts = False
                last_slot_byz = True
            else:
                applied = {}
                if daemon.fairness == ROUND_ROBIN:
                    # The oldest enabled process, the smallest id among ties.
                    activated = [min(since, key=lambda v: (since[v], v))]
                elif starved:
                    activated = [min(starved)]
                else:
                    activated = [rng.choice(sorted(since))]
                last_slot_byz = False

        new_states = list(cfg)
        for v in activated:
            new_states[v] = _action(topo, cfg, v)
        for b, state in applied.items():
            if state.level < 0:
                raise ContractViolation(f"negative level written to {b}")
            new_states[b] = state
        new_cfg: Config = tuple(new_states)

        ex.steps.append(
            StepRecord(
                activated=frozenset(activated),
                byz_writes=tuple(sorted(applied.items())),
            )
        )
        ex.configs.append(new_cfg)
        steps_done += 1

        if slot_counts:
            slots += 1
        for v in activated:
            del since[v]  # re-stamped below if still enabled
        affected = set(activated)
        affected.update(applied)
        for v in list(affected):
            affected.update(neighbors[v])
        for v in affected:
            if v in byzantine:
                continue
            if is_enabled(topo, new_cfg, v):
                if v not in since:
                    since[v] = slots
            else:
                since.pop(v, None)
        if daemon.fairness == SCRIPT:
            late = [v for v, t in since.items() if slots - t >= window]
            if late:
                raise FairnessViolation(
                    min(late), (steps_done - window + 1, steps_done)
                )


def slice_execution(ex: Execution, from_index: int) -> Execution:
    """View of an execution starting at configuration ``from_index``."""
    if not 0 <= from_index < len(ex.configs):
        raise ValueError(f"from_index {from_index} out of range")
    return Execution(
        topo=ex.topo,
        fm=ex.fm,
        daemon=ex.daemon,
        seed=ex.seed,
        adversary_desc=ex.adversary_desc,
        configs=ex.configs[from_index:],
        steps=ex.steps[from_index:],
        meta_extra=ex.meta_extra,
    )


def verify_replay(ex: Execution) -> int | None:
    """Re-apply every stored step; return the first divergent step index.

    A step that cannot be applied (it activates a disabled or Byzantine
    process, or writes to a correct one) diverges too.  Returns None when
    the whole trace is reproduced exactly.
    """
    for i, rec in enumerate(ex.steps):
        try:
            expected = step(
                ex.topo, ex.fm, ex.configs[i], rec.activated, dict(rec.byz_writes)
            )
        except ContractViolation:
            return i + 1
        if expected != ex.configs[i + 1]:
            return i + 1
    return None


# ---------------------------------------------------------------------------
# Trace files: header with seed, topology hash and daemon policy, the
# embedded topology and initial configuration, then one line per step with
# the activation set, the Byzantine writes, and the changed states.
# ---------------------------------------------------------------------------

_TRACE_MAGIC = "minplus-trace 1"


def _encode_states(entries) -> str:
    parts = []
    for v, state in entries:
        p = -1 if state.prnt is None else state.prnt
        parts.append(f"{v}:{p}:{state.level}")
    return ",".join(parts)


def _decode_states(text: str) -> list[tuple[int, ProcState]]:
    out = []
    if text:
        for part in text.split(","):
            v, p, level = (int(tok) for tok in part.split(":"))
            out.append((v, ProcState(None if p < 0 else p, int(level))))
    return out


def trace_text(ex: Execution) -> str:
    meta = {
        "adversary": ex.adversary_desc,
        "daemon": ex.daemon.to_dict(),
        "seed": ex.seed,
        "steps": len(ex.steps),
        "topology_sha256": topology_sha256(ex.topo, ex.fm),
    }
    if ex.meta_extra:
        meta["config"] = ex.meta_extra
    lines = [_TRACE_MAGIC, json.dumps(meta, sort_keys=True)]
    lines.append("topology-begin")
    lines.append(topology_text(ex.topo, ex.fm).rstrip("\n"))
    lines.append("topology-end")
    lines.append("init-begin")
    lines.append(config_text(ex.configs[0]).rstrip("\n"))
    lines.append("init-end")
    for i, rec in enumerate(ex.steps):
        before, after = ex.configs[i], ex.configs[i + 1]
        changed = [
            (v, after[v]) for v in range(len(after)) if before[v] != after[v]
        ]
        lines.append(
            f"step {i + 1}"
            f" act={','.join(str(v) for v in sorted(rec.activated))}"
            f" byz={_encode_states(rec.byz_writes)}"
            f" chg={_encode_states(changed)}"
        )
    lines.append(f"end {len(ex.steps)}")
    return "\n".join(lines) + "\n"


def write_trace(ex: Execution, path) -> None:
    Path(path).write_text(trace_text(ex), encoding="utf-8", newline="\n")


def parse_trace(text: str) -> Execution:
    """Load a trace; any malformed or truncated input raises ValueError."""
    lines = text.splitlines()
    if not lines or lines[0] != _TRACE_MAGIC:
        raise ValueError("not a minplus trace file")
    if len(lines) < 2:
        raise ValueError("truncated trace: no header line")
    try:
        return _parse_trace_lines(lines)
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed trace: {exc!r}") from exc


def _parse_trace_lines(lines: list[str]) -> Execution:
    meta = json.loads(lines[1])
    sections: dict[str, list[str]] = {"topology": [], "init": []}
    idx = 2
    current = None
    while idx < len(lines):
        line = lines[idx]
        if line.endswith("-begin"):
            current = line[: -len("-begin")]
            idx += 1
            continue
        if line.endswith("-end"):
            current = None
            idx += 1
            continue
        if current is not None:
            sections[current].append(line)
            idx += 1
            continue
        break
    topo, fm = parse_topology("\n".join(sections["topology"]))
    if meta["topology_sha256"] != topology_sha256(topo, fm):
        raise ValueError("trace topology does not match the header's topology_sha256")
    init = parse_config("\n".join(sections["init"]), topo.process_count)
    daemon_d = meta["daemon"]
    daemon = DaemonPolicy(
        kind=daemon_d["kind"],
        fairness=daemon_d["fairness"],
        script=tuple(frozenset(s) for s in daemon_d["script"])
        if "script" in daemon_d
        else None,
    )
    ex = Execution(
        topo=topo,
        fm=fm,
        daemon=daemon,
        seed=meta["seed"],
        adversary_desc=meta["adversary"],
        configs=[init],
        meta_extra=meta.get("config", {}),
    )
    ended = False
    for line in lines[idx:]:
        if line.startswith("end "):
            if int(line.split()[1]) != len(ex.steps):
                raise ValueError("trace step count mismatch")
            ended = True
            continue
        if not line.startswith("step "):
            raise ValueError(f"malformed trace line: {line!r}")
        fields = dict(
            part.split("=", 1) for part in line.split()[2:]
        )
        activated = frozenset(
            int(tok) for tok in fields["act"].split(",") if tok
        )
        byz = tuple(sorted(_decode_states(fields["byz"])))
        new_states = list(ex.configs[-1])
        for v, state in _decode_states(fields["chg"]):
            new_states[v] = state
        ex.steps.append(StepRecord(activated=activated, byz_writes=byz))
        ex.configs.append(tuple(new_states))
    if not ended:
        raise ValueError("truncated trace: no end line")
    if meta["steps"] != len(ex.steps):
        raise ValueError(
            f"trace header says {meta['steps']} steps, the trace has {len(ex.steps)}"
        )
    return ex


def read_trace(path) -> Execution:
    return parse_trace(Path(path).read_text(encoding="utf-8"))
