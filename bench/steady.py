"""Run one workload several times, one seed each, and print each metric's spread.

    python3 bench/steady.py --workload search --runs 10 [--first-seed 1]

For every metric it prints the median, the quartiles (statistics.quantiles,
n=4), min and max, and the quartile distance as a share of the median
next to the metric's bound in BENCHMARK.json.  It also prints each run's
failed/attempted share, which must be identical across runs, and its wall
time.  Raw results go to bench/out/steady-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10, help="at least 2")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    results, walls = [], []
    with open(out_dir / f"steady-{args.workload}.jsonl", "a", encoding="utf-8") as log:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", "0"]
            start = perf_counter()
            proc = subprocess.run(argv, cwd=BENCH.parent, capture_output=True, text=True, check=True)
            walls.append(perf_counter() - start)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
            log.write(json.dumps({"seed": seed, "wall_s": walls[-1], **result}) + "\n")
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
                  f"wall={walls[-1]:.1f}s", flush=True)

    print(f"\n{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'min':>12s} {'max':>12s} {'iqr/med':>8s} bound")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(values):12.6g} {max(values):12.6g} "
              f"{spread:8.4f} {BOUNDS.get(name, '')}")
    shares = {(r["failed"], r["attempted"]) for r in results}
    print(f"\nwall time of one run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    print(f"failed/attempted: {sorted(shares)}; all correct: {all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
