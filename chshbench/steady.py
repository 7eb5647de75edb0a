"""Steadiness check: run workloads repeatedly and report each metric's spread.

Usage, from the repository root:

    python3 chshbench/steady.py --runs 10 --first-seed 1
    python3 chshbench/steady.py --workloads fac-campaign --runs 5

Each run is ``run.py`` with its own seed (first-seed, first-seed + 1, ...).
For every workload and metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, i.e. the distance
between the quartiles as a share of the median, next to the metric's bound
in BENCHMARK.json.  The share of failed operations is printed too; it must
be the same in every run.  The last line is the whole summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            results.append(json.loads(lines[-1]))
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        metrics = {name: summarize([r["metrics"][name]["value"] for r in results])
                   for name in results[0]["metrics"]}
        summary[workload] = {"correct": all(r["correct"] for r in results),
                             "failed_shares": shares, "metrics": metrics}
        print(f"{workload}: correct={summary[workload]['correct']} "
              f"failed shares={shares}")
        for name, m in metrics.items():
            bound = bounds.get(name)
            print(f"  {name:42s} median {m['median']:12.6g}  q1 {m['q1']:12.6g}  "
                  f"q3 {m['q3']:12.6g}  spread {m['spread']:7.2%}"
                  + (f"  bound {bound:.0%}" if bound is not None else ""))
        sys.stdout.flush()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
