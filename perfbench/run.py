"""The minplus benchmark: one command, three workloads.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload audit --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --steady 10 --seconds 20

Run it from the root of a checkout; it imports the program from ``src``.
An untraced run sets up several times, then makes whole passes over its
workload for at least ``--seconds`` and prints the end-to-end metrics.  A
traced run makes one untraced pass and one traced pass and prints the
per-layer metrics.  Either prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--steady N``
runs two interleaved sets of N untraced runs of every workload, reports
each metric's median and quartiles per set and whether the sets agree
within the bounds in ``BENCHMARK.json``, then checks that two traced runs
count the same.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import audit
import certify
import engine_scale
from harness import import_minplus, run_passes, timed_setup
from tracing import METRICS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = {"certify": certify, "engine_scale": engine_scale, "audit": audit}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "steps_per_s": "steps/s", "peak_rss_mb": "MiB"}


def _verdict(passes) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over passes of one workload and seed;
    reports failures on standard error."""
    broken = [b for p in passes for b in p.broken]
    if len({repr(p.fingerprint) for p in passes}) > 1:
        broken.append("passes over the same inputs gave different results")
    for line in broken:
        print(f"BROKEN: {line}", file=sys.stderr)
    for line in dict.fromkeys(f for p in passes for f in p.failures):
        print(f"FAILED: {line}", file=sys.stderr)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return not broken, attempted, failed


def untraced(name: str, seed: int, seconds: float) -> dict:
    workload = WORKLOADS[name]
    setup_s, mp, inputs = timed_setup(workload, seed)
    run = run_passes(workload, mp, inputs, seconds)
    correct, attempted, failed = _verdict(run.passes)
    wall_s = run.wall_s
    values = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "steps_per_s": run.passes[0].steps / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(
        f"{name} seed={seed}: {len(run.passes)} passes, "
        f"{run.passes[0].steps} steps each, pass seconds at reference speed "
        f"{[round(s, 3) for s in run.pass_seconds]}, as measured "
        f"{[round(s, 3) for s in run.pass_raw]}"
    )
    return _result(correct, attempted, failed, values, END_TO_END_UNITS)


def traced(name: str, seed: int) -> dict:
    workload = WORKLOADS[name]
    mp = import_minplus(fresh=False)
    base = run_passes(workload, mp, workload.build(mp, seed), 0, max_passes=1)
    tracer = Tracer()
    tracer.install(mp)
    try:
        inputs = workload.build(mp, seed)
        run = run_passes(workload, mp, inputs, 0, tracer=tracer, max_passes=1)
    finally:
        tracer.remove()
    correct, attempted, failed = _verdict(base.passes + run.passes)
    scale = run.pass_seconds[0] / run.pass_raw[0]
    values = tracer.metrics(scale, run.wall_s / base.wall_s)
    spans = OUT / f"spans-{name}-seed{seed}.jsonl"
    tracer.write_spans(spans)
    print(f"{name} seed={seed}: traced pass {run.wall_s:.3f} s, untraced {base.wall_s:.3f} s; spans in {spans}")
    return _result(correct, attempted, failed, values, METRICS)


def _result(correct, attempted, failed, values, units) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


# ---------------------------------------------------------------------------
# Steadiness mode.
# ---------------------------------------------------------------------------


def _child(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _stats(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def steady(runs: int, seconds: float, names: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    agree = True
    for name in names:
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for i in range(runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for label in order:
                seed = 1 + i + (0 if label == "A" else 1000)
                sets[label].append(_child(name, seed, seconds, 0))
        print(f"== {name}: {runs} runs per set")
        shares = {k: {(r["failed"], r["attempted"]) for r in v} for k, v in sets.items()}
        share = {k: {f / a for f, a in v} for k, v in shares.items()}
        ok = all(r["correct"] for v in sets.values() for r in v)
        ok = ok and len(share["A"] | share["B"]) == 1
        print(f"   correct in every run and one failed share {sorted(share['A'] | share['B'])}: {ok}")
        for metric, m in metrics.items():
            line = []
            stats = {}
            for label, results in sets.items():
                values = [r["metrics"][metric]["value"] for r in results]
                stats[label] = _stats(values)
                med, q1, q3 = stats[label]
                spread = (q3 - q1) / med
                line.append(f"{label}: median {med:.4g} q1 {q1:.4g} q3 {q3:.4g} spread {spread:.3f}")
                if metric != "setup_s" and spread > m["bound"]:
                    ok = False
            a, b = stats["A"][0], stats["B"][0]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            ok = ok and worse <= m["bound"]
            print(f"   {metric} [{m['unit']}, bound {m['bound']}] " + " | ".join(line)
                  + f" | B worse than A by {worse:+.3f}")
            for label, results in sets.items():
                values = [r["metrics"][metric]["value"] for r in results]
                print(f"      {label}: {' '.join(f'{v:.4g}' for v in values)}")
        counts = [_child(name, 1, seconds, 1) for _ in range(2)]
        same = [
            {k: v["value"] for k, v in c["metrics"].items() if v["unit"] in ("count", "bytes")}
            for c in counts
        ]
        print(f"   two traced runs count the same: {same[0] == same[1]}")
        ok = ok and same[0] == same[1]
        print(f"   {name} steady: {ok}")
        agree = agree and ok
    return 0 if agree else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="N", help="runs per set")
    args = parser.parse_args(argv)
    try:
        import_minplus(fresh=False)
    except ImportError as err:
        print(f"cannot import the program: {err}", file=sys.stderr)
        return 2
    if args.steady:
        names = [args.workload] if args.workload else list(WORKLOADS)
        return steady(args.steady, args.seconds, names)
    if not args.workload:
        parser.error("--workload is required")
    if args.trace:
        result = traced(args.workload, args.seed)
    else:
        result = untraced(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
