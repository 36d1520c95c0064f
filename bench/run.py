"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 bench/run.py --workload swiss300 --seed 0 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``.

With ``--trace 0`` the run times set-up, then repeats the workload's
operation until ``--seconds`` have passed (at least once), checking every
output, and reports the end-to-end metrics: ``setup_s``, ``wall_s`` (median
over operations), ``peak_rss_mb`` and ``objective``.

With ``--trace 1`` it runs the operation once untraced and once with every
public function of the package wrapped (see ``tracing.py``), reports the
per-layer metrics of the traced operation, and writes all spans to
``bench/traces/<workload>-seed<seed>.json``.

An operation that raises is counted in ``failed``; one whose outputs fail a
check is counted in ``failed`` too and makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RUNS = BENCH / "_runs"
TRACES = BENCH / "traces"
WORKLOADS = ("swiss300", "graph100", "swiss1k_cli")
# set-up is repeated and its median reported, so one slow start does not
# decide the figure
SETUP_REPEATS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Interpreter start plus package import, in a fresh process."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import jointscale.cli"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.rss_mb = None

    def operate(self, workload, workdir: Path, during=contextlib.nullcontext()):
        """Run one operation inside ``during``, then check it outside.

        Returns (wall seconds, check findings), or None if it failed.
        """
        from checks import CheckFailed

        self.attempted += 1
        try:
            with during:
                start = time.perf_counter()
                written = workload.run(workdir)
                wall = time.perf_counter() - start
        except Exception:  # a failing operation is counted, and the run goes on
            self.failed += 1
            traceback.print_exc()
            return None
        if self.rss_mb is None:
            # read before the first check, so the checks' own memory stays out
            self.rss_mb = peak_rss_mb()
        try:
            found = workload.check(written)
        except CheckFailed as exc:
            self.failed += 1
            self.correct = False
            print(f"check failed: {exc}", file=sys.stderr)
            return None
        return wall, found


def timed_run(workload, workdir: Path, seconds: float) -> tuple[Tally, dict]:
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    generation = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(workdir)
        generation.append(time.perf_counter() - start)

    tally = Tally()
    walls, objectives = [], []
    start = time.perf_counter()
    while True:
        outcome = tally.operate(workload, workdir)
        if outcome is not None:
            walls.append(outcome[0])
            objectives.append(outcome[1]["objective"])
        if time.perf_counter() - start >= seconds:
            break
    if not walls:
        raise SystemExit("bench: every operation failed")
    return tally, {
        "setup_s": (statistics.median(imports) + statistics.median(generation), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (tally.rss_mb, "MB"),
        "objective": (statistics.median(objectives), "dimensionless"),
    }


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if ".bytes_" in name:
        return "B"
    if name == "trace.coverage":
        return "fraction"
    return "count"


def traced_run(workload, workdir: Path, seed: int) -> tuple[Tally, dict]:
    import tracing

    tracer = tracing.Tracer()
    with tracer:
        workload.setup(workdir)

    tally = Tally()
    untraced = tally.operate(workload, workdir)
    tracer.phase = "op"
    traced = tally.operate(workload, workdir, during=tracer)
    if untraced is None or traced is None:
        raise SystemExit("bench: the traced run needs two operations that pass their checks")
    values = tracer.metrics(traced[0], untraced[0])

    TRACES.mkdir(exist_ok=True)
    doc = {
        "workload": workload.name,
        "seed": seed,
        "wall_s": {"untraced": untraced[0], "traced": traced[0]},
        "checks": traced[1],
        "metrics": values,
        "spans": [s.as_dict() for s in tracer.spans],
    }
    (TRACES / f"{workload.name}-seed{seed}.json").write_text(json.dumps(doc) + "\n")
    return tally, {name: (value, layer_unit(name)) for name, value in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "jointscale" / "__init__.py").is_file():
        print(f"bench: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        if args.trace:
            tally, metrics = traced_run(workload, workdir, args.seed)
        else:
            tally, metrics = timed_run(workload, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            RUNS.rmdir()
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
