"""Timing that holds steady on a host whose speed drifts.

On a small shared virtual machine the same Python work can take up to twice
as long in one stretch of seconds as in the next, and whole processes can
run 40% slow for longer than a run lasts.  Process CPU time drifts with wall
time, so it does not help, and neither does pinning to one CPU.  What does
drift with the program is a fixed piece of pure-Python work of the same
kind, so every timed unit is preceded by a short probe of such work, and the
unit's time is rescaled by how slow the probes around it ran against the
probe's reference time.  The rescaled figure is the unit's time at the
reference host speed.

Which probe tracks a workload depends on how much memory the workload
walks: a loop over a few cache-resident tuples tracks small graphs, a scan
over a table of a quarter million boxed ints tracks graphs of a thousand
processes.  Each workload names its probe.

The probes are part of the benchmark, never of the program, so a faster
program shows as a smaller ratio to them.  Do not change a probe or its
reference time in a change that claims a gain: both sides of a comparison
must use the same probes.
"""

from __future__ import annotations

import statistics
import time

# Probes on each side of a unit that set its local speed.
_WINDOW = 2
# A unit that calls lap() is cut into pieces of about this length, so that
# its speed is read from probes taken while it runs.
LAP_S = 0.1


def _small_work() -> int:
    states = [(i % 7, i) for i in range(96)]
    nbrs = [((i - 1) % 96, (i + 1) % 96, (i + 5) % 96) for i in range(96)]
    acc = 0
    for _ in range(15):
        new = list(states)
        for v in range(96):
            lo = min(states[q][1] for q in nbrs[v])
            ties = [q for q in nbrs[v] if states[q][1] == lo]
            new[v] = (ties[0], lo + 1 if v % 3 else lo)
        seen = {v for v in range(96) if new[v] != states[v]}
        index = {v: new[v] for v in sorted(seen)}
        acc += len(frozenset(seen)) + len(index)
        states = [(p, level % 50) for p, level in new]
    return acc


_TABLE: list[tuple[int, ...]] = []


def _table_work() -> int:
    if not _TABLE:
        _TABLE.extend(tuple(range(i, i + 1000)) for i in range(250))
    return max(max(row) for row in _TABLE)


class Probe:
    """A fixed piece of work and the seconds it takes at the reference
    speed (2 vCPU Xeon at 2.1 GHz, Python 3.11.7, typical load)."""

    def __init__(self, work, reference_s: float):
        self._work = work
        self.reference_s = reference_s

    def __call__(self) -> float:
        """Seconds the work takes now."""
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start


SMALL = Probe(_small_work, 0.0024)
TABLE = Probe(_table_work, 0.0040)


class UnitClock:
    """Times units of work, each after a probe, and rescales them.

    With a ``tracer`` the probes are booked as spans of their own, apart
    from the program's time, and units are not cut into laps, so that no
    probe lands inside a traced call.
    """

    def __init__(self, probe: Probe, tracer=None):
        self._reference_s = probe.reference_s
        self._probe = tracer.timed("bench.probe", probe, keep=False) if tracer else probe
        self._laps = tracer is None
        self._raw: list[float] = []
        self._probes: list[float] = []

    @property
    def count(self) -> int:
        return len(self._raw)

    def time(self, fn, *args, **kwargs):
        """Run ``fn`` as one unit and return its result."""
        self.start()
        out = fn(*args, **kwargs)
        self.stop()
        return out

    def start(self) -> None:
        """Open a unit whose end is marked by :meth:`stop`."""
        self._probes.append(self._probe())
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        self._raw.append(time.perf_counter() - self._t0)

    def lap(self) -> None:
        """Called from inside an open unit: once it has run for ``LAP_S``,
        close it and open the next, with a probe in between."""
        if self._laps and time.perf_counter() - self._t0 >= LAP_S:
            self.stop()
            self.start()

    def pace(self, adversary):
        """``adversary`` with a lap before each step's writes, so that an
        engine run is timed in pieces of about ``LAP_S``."""
        writes = adversary.writes

        def lapped(*args):
            self.lap()
            return writes(*args)

        adversary.writes = lapped
        return adversary

    def scaled(self) -> list[tuple[float, float]]:
        """(raw seconds, seconds at reference speed) for every unit.

        A unit's speed is the median of the probes taken before the
        ``_WINDOW`` units on either side of it, its own included.
        """
        probes = self._probes[: len(self._raw)] + [self._probe()]
        out = []
        for i, raw in enumerate(self._raw):
            near = probes[max(0, i - _WINDOW + 1) : i + _WINDOW + 1]
            out.append((raw, raw * self._reference_s / statistics.median(near)))
        return out
