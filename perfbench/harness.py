"""What every workload shares: importing the program, set-up, and passes.

A workload module provides ``build(mp, seed)``, which makes its inputs with
the program's modules ``mp``; ``run_pass(mp, inputs, clock)``, which makes
one pass over those inputs, timing each unit of work on ``clock``, checks
the outputs and returns a :class:`PassResult`; and ``PROBE``, the probe
whose speed tracks its own (see ``clock``).  Every pass of a run
does the same operations, so ``failed`` is the same share of ``attempted``
however many passes fit in a run.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from clock import UnitClock

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = (
    "graph",
    "protocol",
    "adversary",
    "scheduler",
    "analysis",
    "scenarios",
    "exhaustive",
)
SETUP_REPEATS = 5


@dataclass
class PassResult:
    steps: int
    attempted: int
    failed: int = 0
    # Why each failed operation failed.
    failures: list[str] = field(default_factory=list)
    # Checks that speak of the pass as a whole; any of them makes the run
    # incorrect.
    broken: list[str] = field(default_factory=list)
    # Equal on every pass of a run unless the program is not deterministic.
    fingerprint: object = None


def import_minplus(fresh: bool) -> SimpleNamespace:
    """The program's modules, imported from the checkout's ``src``.

    With ``fresh`` every ``minplus`` module is dropped first, so the import
    runs the modules' code again.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [m for m in sys.modules if m == "minplus" or m.startswith("minplus.")]:
            del sys.modules[name]
    mods = {name: importlib.import_module(f"minplus.{name}") for name in MODULES}
    origin = Path(mods["graph"].__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"minplus was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def timed_setup(workload, seed: int):
    """Set up ``SETUP_REPEATS`` times; return the median seconds at
    reference speed and the modules and inputs of the last set-up."""
    probe = workload.PROBE
    times = []
    for _ in range(SETUP_REPEATS):
        before = [probe() for _ in range(3)]
        start = time.perf_counter()
        mp = import_minplus(fresh=True)
        inputs = workload.build(mp, seed)
        raw = time.perf_counter() - start
        speed = statistics.median(before + [probe() for _ in range(3)])
        times.append(raw * probe.reference_s / speed)
    return statistics.median(times), mp, inputs


@dataclass
class RunResult:
    passes: list[PassResult]
    # Per pass: seconds at reference speed, and as measured.
    pass_seconds: list[float]
    pass_raw: list[float]

    @property
    def wall_s(self) -> float:
        return statistics.median(self.pass_seconds)


def run_passes(workload, mp, inputs, seconds: float, tracer=None, max_passes=None):
    """Make whole passes until ``seconds`` have gone by (at least one)."""
    clock = UnitClock(workload.PROBE, tracer)
    passes, bounds = [], [0]
    deadline = time.perf_counter() + seconds
    while True:
        passes.append(workload.run_pass(mp, inputs, clock))
        bounds.append(clock.count)
        if time.perf_counter() >= deadline or len(passes) == max_passes:
            break
    units = clock.scaled()
    spans = list(zip(bounds, bounds[1:]))
    return RunResult(
        passes,
        [sum(scaled for _, scaled in units[a:b]) for a, b in spans],
        [sum(raw for raw, _ in units[a:b]) for a, b in spans],
    )
