"""Sweeps, traces, and replay.

Every run is a pure function of its configuration: traces serialize to a
self-contained text file, replay bit-exactly, and a grid of runs merges
into one deterministic metrics CSV.
"""

import tempfile
from pathlib import Path

import minplus as mp
from minplus.cli import RunConfig, execute_run


def main():
    out = Path(tempfile.mkdtemp(prefix="minplus-demo-"))

    rows = []
    for seed in (1, 2, 3):
        for scenario in ("hexagon", "path n=6 byz=5", "random n=10 p=0.3 seed=5 byz_count=2"):
            rc = RunConfig(
                scenario=scenario,
                adversary="oscillator:1",
                fairness="random",
                seed=seed,
                max_steps=1500,
            )
            row, failures, _ = execute_run(rc)
            assert not failures
            rows.append(row)
    rows.sort(key=lambda r: (str(r["scenario"]), r["seed"]))
    csv_path = out / "metrics.csv"
    mp.write_metrics_csv(rows, csv_path)
    print(f"{len(rows)} sweep rows -> {csv_path}")
    print(csv_path.read_text())

    trace_path = out / "hexagon.trace"
    rc = RunConfig(
        scenario="hexagon",
        adversary="oscillator:1",
        fairness="random",
        seed=1,
        max_steps=300,
        trace=str(trace_path),
    )
    execute_run(rc)
    back = mp.read_trace(trace_path)
    ok = mp.verify_replay(back) is None
    print(f"trace round trip: {back.step_count} steps, replay ok = {ok}")


if __name__ == "__main__":
    main()
