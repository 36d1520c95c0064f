"""Run every workload, each in its own process, and print a summary.

    python3 bench/all.py                       # seeds 0-9, timed runs only
    python3 bench/all.py --seeds 0 1 2 --trace # plus one traced run per workload

Each run measures for ``run_seconds`` from ``BENCHMARK.json``.  For each
workload and end-to-end metric it prints the median over seeds
and the spread, the distance between the first and third quartile as a
share of the median.  With ``--trace`` it adds the per-layer metrics of a
traced run on the first seed, each time also as a share of that run's
traced wall time.  The last line is the whole summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import BENCH, WORKLOADS

ROOT = BENCH.parent
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["process_s"] = time.perf_counter() - start
    return result


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    summary = {}
    for workload in WORKLOADS:
        runs = [run(workload, seed, 0) for seed in args.seeds]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        entry["process_s"] = sum(r["process_s"] for r in runs)
        print(f"{workload}: {entry['attempted']} operations, {entry['failed']} failed, "
              f"correct={entry['correct']}, {entry['process_s']:.0f} s in {len(runs)} runs")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, sp = statistics.median(values), spread(values)
            entry["end_to_end"][name] = {"median": med, "spread": sp, "unit": first["unit"],
                                         "values": values}
            print(f"  {name:14s} {med:12.6g} {first['unit']:14s} spread {sp:.4f} "
                  f"over {len(values)} seeds")
        if args.trace:
            traced = run(workload, args.seeds[0], 1)["metrics"]
            doc = json.loads((BENCH / "traces" / f"{workload}-seed{args.seeds[0]}.json")
                             .read_text())
            wall = doc["wall_s"]["traced"]
            entry["per_layer"] = traced
            print(f"  traced run, seed {args.seeds[0]}: wall {wall:.3f} s")
            for name, metric in traced.items():
                share = (f"{100 * metric['value'] / wall:6.1f}% of wall"
                         if metric["unit"] == "s" else "")
                print(f"    {name:38s} {metric['value']:12.6g} {metric['unit']:8s} {share}")
        summary[workload] = entry
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
