"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.  A run
builds the workload's operation list from the seed (rounds = seconds // 30,
at least one; a round is fixed work, not a time box, and takes 15 to 40 s
on a 2-core machine), times three fresh-interpreter set-ups, runs a warm-up pass,
then times every operation of the list and checks each output outside
the timed interval.  With --trace 0 it reports the end-to-end metrics.
With --trace 1 it runs the list untraced and then traced, reports the
per-layer metrics of the traced pass, the tracing overhead, and writes
the spans to bench/out/.  A layer the workload never calls reads 0.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ROUND_SECONDS = 30
SETUP_PROBES = 3
COLD_START_PROBES = 3
COLD_START_ARGS = ["dist", "--n", "9", "--k", "2", "--a", "1,8|2,3", "--b", "2,0|3,4", "--format", "json"]
# one process, and no BLAS helper threads in the checks
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "greedy", "search", "queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=ROUND_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args()


def import_program():
    if not (SRC / "ekcodes" / "__init__.py").is_file():
        sys.exit(f"error: no ekcodes sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import ekcodes

    if Path(ekcodes.__file__).resolve().parent != SRC / "ekcodes":
        sys.exit(f"error: imported ekcodes from {ekcodes.__file__}, not from {SRC}")


def timed_child(argv, env=None, until_line=None) -> float:
    """Wall seconds from spawning `argv` to its exit, or to its first stdout line."""
    start = perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as child:
        if until_line is not None:
            line = child.stdout.readline().strip()
            elapsed = perf_counter() - start
            child.stdout.read()
        else:
            child.stdout.read()
            elapsed = None
        status = child.wait()
    if status != 0 or (until_line is not None and line != until_line):
        sys.exit(f"error: {' '.join(argv)} exited with {status}")
    return elapsed if elapsed is not None else perf_counter() - start


def setup_seconds(args) -> float:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--setup-probe"]
    return statistics.median(timed_child(argv, until_line="ready") for _ in range(SETUP_PROBES))


def cold_start_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "ekcodes.cli", *COLD_START_ARGS]
    return statistics.median(timed_child(argv, env=env) for _ in range(COLD_START_PROBES))


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True


def run_pass(workload, ops, tally: Tally) -> None:
    """Time each operation, then check its output untimed.

    Only a check that returns False on an operation tagged with a named
    fault is excused; an exception, in the program or in a check, never is.
    """
    for op in ops:
        start = perf_counter()
        try:
            out = workload.run(op)
            elapsed = perf_counter() - start
            ok, excused = workload.check(op, out), op.fault is not None
        except Exception:  # a program error fails the operation; the run goes on
            elapsed = perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            ok, excused = False, False
        tally.latencies.append(elapsed)
        tally.attempted += 1
        if not ok:
            tally.failed += 1
            if not excused:
                tally.correct = False
                print(f"check failed: {op.kind} {str(op.args)[:200]}", file=sys.stderr)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    if name.endswith("ns_per_stream_index"):
        return "ns"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_nodes"):
        return "count"
    return "s"


def main() -> int:
    args = parse_args()
    import_program()
    from workloads import WORKLOADS

    rounds = max(1, args.seconds // ROUND_SECONDS)
    workload = WORKLOADS[args.workload](args.seed, rounds)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    warm, tally = Tally(), Tally()  # warm-up outputs are checked but not counted
    if args.trace == 0:
        setup = setup_seconds(args)
        run_pass(workload, workload.warmup, warm)
        run_pass(workload, workload.ops, tally)
        lat = sorted(tally.latencies)
        cuts = statistics.quantiles(lat, n=10)
        metrics = {
            "setup_s": metric(setup, "s"),
            "throughput_ops_s": metric(len(lat) / sum(lat), "1/s"),
            "latency_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
            "latency_p90_ms": metric(cuts[8] * 1e3, "ms"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        from tracing import Tracer, layer_metrics

        run_pass(workload, workload.warmup, warm)
        run_pass(workload, workload.ops, tally)
        untraced = sum(tally.latencies)
        traced_tally = Tally()
        tracer = Tracer()
        tracer.install()
        try:
            run_pass(workload, workload.ops, traced_tally)
        finally:
            tracer.uninstall()
        # attempted and failed count the untraced pass alone
        tally.correct = tally.correct and traced_tally.correct
        values = layer_metrics(tracer.totals())
        values["cli.cold_start_s"] = cold_start_seconds()
        values["trace.overhead_pct"] = (sum(traced_tally.latencies) / untraced - 1) * 100
        metrics = {
            name: metric(value, "%" if name == "trace.overhead_pct" else layer_unit(name))
            for name, value in values.items()
        }
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"trace-{args.workload}-{args.seed}.npz")

    result = {"correct": tally.correct and warm.correct, "attempted": tally.attempted, "failed": tally.failed}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
