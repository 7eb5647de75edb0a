"""chshcert benchmark: run one workload and print its metrics as JSON.

Usage, from the repository root:

    python3 chshbench/run.py --workload fac-campaign --seed 1 --seconds 20 --trace 0

The run itself happens in a fresh interpreter (``bench.py``), so that set-up
time is measured from that interpreter's launch.  The last line of standard
output is the result: ``{"correct", "attempted", "failed", "metrics"}``.
Exits non-zero without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 175


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or one of the extra "
                             "workloads defined in workloads.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "chshcert" / "__init__.py").is_file():
        print(f"error: no chshcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cmd = [sys.executable, str(HERE / "bench.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd + ["--launched-at", repr(time.time())],
                              cwd=ROOT, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
