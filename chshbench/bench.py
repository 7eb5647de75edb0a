"""One benchmark run in a fresh interpreter; started by ``run.py``.

Set-up imports the program, builds the workload's inputs through it and is
timed from the interpreter's launch.  The run then repeats whole rounds of
the workload's CLI calls until ``--seconds`` have passed, checks every
output, and prints the result as the last line of standard output.

Round figures are averaged with the mean, not the median: with the CLI's
two worker threads a round either overlaps its points or runs them one after
the other, so round times are bimodal and their median jumps between modes
from run to run, while the mean follows the share of time spent in each.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` untraced and traced rounds alternate, the isolated layer calls
of :mod:`layers` run once, and the result holds the per-layer metrics; the
spans of the first traced round are written to the run's directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SELF_TIME_METRICS = {
    "simplex.solve_lp.self_s": "simplex.solve_lp",
    "core.validate.self_s": "core.validate",
    "scipy.minimize.self_s": "scipy.minimize",
    "oracle.maximize_S_ns.self_s": "oracle.maximize_S_ns",
    "oracle.maximize_S_fac.self_s": "oracle.maximize_S_fac",
    "quantum.optimize_strategy_numeric.self_s": "quantum.optimize_strategy_numeric",
    "simulate.run_trials.self_s": "simulate.run_trials",
    "simulate.eve_guess_accuracy.self_s": "simulate.eve_guess_accuracy",
    "simulate.estimate_S.self_s": "simulate.estimate_S",
    "simulate.certify.self_s": "simulate.certify",
    "cli.self_s": "cli",
}


class Tally:
    """Operations attempted, failed (the program raised or exited with an
    error) and the problems found in the outputs of the others."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, ops: int, problems: list[str]) -> None:
        self.attempted += ops
        self.problems += problems

    def check_call(self, call, rc: int) -> None:
        self.attempted += call.ops
        if rc not in (0, 2) or not call.out.exists():
            # verify exits 2 when it sees a soundness violation but still
            # writes its output; the check below reports the violation.
            self.failed += call.ops
            return
        self.problems += call.check(json.loads(call.out.read_text()))
        call.out.unlink()


def run_round(cli, plan, tally: Tally, tracer=None) -> float:
    """Run one round's calls, return their wall time, then check the outputs."""
    rcs = []
    start = time.perf_counter()
    for call in plan.calls:
        if tracer is None:
            rcs.append(cli.main(call.argv))
        else:
            with tracer.root("cli"):
                rcs.append(cli.main(call.argv))
    wall = time.perf_counter() - start
    for call, rc in zip(plan.calls, rcs):
        tally.check_call(call, rc)
    return wall


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


def peak_rss_mib() -> float:
    """Peak resident set of this process plus that of its largest waited-for
    child (ru_maxrss is in KiB on Linux)."""
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kib + child_kib) / 1024.0


def traced_rounds(cli, plan, tally, seconds, workdir):
    """Alternate untraced and traced rounds until the time is up."""
    import spans

    walls, cpus, traced_walls, selfs, counts = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        cpu0 = cpu_seconds()
        walls.append(run_round(cli, plan, tally))
        cpus.append(cpu_seconds() - cpu0)
        tracer = spans.Tracer()
        with tracer.installed():
            traced_walls.append(run_round(cli, plan, tally, tracer))
        selfs.append(spans.self_times(tracer.spans))
        counts.append(spans.layer_counts(tracer.spans))
        if len(counts) == 1:
            tracer.write(workdir / "trace.jsonl")
        if time.perf_counter() >= deadline:
            break
    if any(c != counts[0] for c in counts):
        tally.problems.append(f"traced counts differ between rounds: {counts}")
    metrics = dict(counts[0])
    for metric, span in SELF_TIME_METRICS.items():
        metrics[metric] = statistics.fmean(s.get(span, 0.0) for s in selfs)
    metrics["run.cpu_s"] = statistics.fmean(cpus)
    metrics["trace.overhead_s"] = statistics.fmean(traced_walls) - statistics.fmean(walls)
    (workdir / "rounds.json").write_text(
        json.dumps({"wall_s": walls, "traced_wall_s": traced_walls}) + "\n")
    return metrics


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--launched-at", type=float, required=True,
                        help="time.time() just before this interpreter started")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import scipy.optimize  # noqa: F401  (oracle and quantum import it lazily)

    from chshcert import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: chshcert imported from {cli.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".chshbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    plan = workloads.WORKLOADS[args.workload](args.seed, workdir, cli)
    setup_s = time.time() - args.launched_at

    tally = Tally()
    for check in plan.setup_checks:
        tally.add(1, check())
    if args.trace:
        import layers

        metrics, ops, problems = layers.measure(args.seed)
        tally.add(ops, problems)
        metrics |= traced_rounds(cli, plan, tally, args.seconds, workdir)
        kind = "per_layer"
    else:
        walls = []
        deadline = time.perf_counter() + args.seconds
        while True:
            walls.append(run_round(cli, plan, tally))
            if time.perf_counter() >= deadline:
                break
        metrics = {"wall_s": statistics.fmean(walls), "setup_s": setup_s,
                   "peak_rss_mib": peak_rss_mib()}
        (workdir / "rounds.json").write_text(json.dumps({"wall_s": walls}) + "\n")
        kind = "end_to_end"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"measured {sorted(metrics)}, declared {sorted(units)}")
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (workdir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
