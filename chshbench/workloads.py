"""The benchmark's workloads: chshcert CLI calls built from a seed, and the
checks their outputs must pass.

A workload's set-up builds its inputs through the program (``chshcert
model`` for the simulation workload) and returns a :class:`Plan`: the CLI
calls of one round, in order.  Every round repeats the same calls, so every
round attempts the same operations.  An operation is one campaign point or
one (model, seed) simulation report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

# fac-campaign: 2 x 1 grid near P = 1/3, where a single Powell restart
# reaches the optimum least often (about half the corner starts, a tenth of
# the uniform ones at G = 0.9), so 28 restarts keep the chance of an
# incomplete point near 3e-6 per point and seed.
FAC_G = (0.7, 0.9, 2)
FAC_P = (0.30, 0.30, 1)
FAC_RESTARTS = 28

# ns-campaign: the CLI's default 6 x 5 grid for ns, 5 values of P for the
# deterministic LP.  Structured ns restarts reach the optimum at least 73 %
# of the time on this grid, so 24 restarts (12 structured) suffice.
NS_G = (0.5, 1.0, 6)
NS_P = (0.25, 1.0 / 3.0, 5)
NS_RESTARTS = 24

# quantum-campaign: random settings distributions drawn by the CLI from the
# seed; every L-BFGS-B restart reached the biased Tsirelson value in 1200
# trial restarts, so 16 restarts leave a wide margin.
QUANTUM_SAMPLES = 24
QUANTUM_RESTARTS = 16

# simulate-certify: the saturating models, simulated at n trials on
# SIM_SEEDS seeds derived from the benchmark seed.
SIM_MODELS = (
    # (kind, G, P, certification mode)
    ("general", 0.8, 0.3, "ns"),
    ("fac-low", 0.8, 0.4, "fac"),
)
SIM_TRIALS = 1_000_000
SIM_SEEDS = 3


@dataclass(frozen=True)
class Call:
    """One ``chshcert`` invocation, the operations its output holds and the
    check that returns the output's problems."""

    argv: list[str]
    out: Path
    ops: int
    check: Callable[[dict], list[str]]


@dataclass
class Plan:
    calls: list[Call]
    # Checks of the inputs built during set-up (model files), run once after
    # set-up is timed; each is one operation and returns its problems.
    setup_checks: list[Callable[[], list[str]]] = field(default_factory=list)


def _fmt(x: float) -> str:
    return repr(float(x))


def _verify_argv(target: str, out: Path, seed: int, **opts) -> list[str]:
    argv = ["verify", "--target", target, "--seed", str(seed), "--out", str(out)]
    for key, val in opts.items():
        argv += ["--" + key.replace("_", "-"), str(val)]
    return argv


def _grid_opts(prefix: str, spec: tuple[float, float, int]) -> dict:
    lo, hi, steps = spec
    return {f"{prefix}_min": _fmt(lo), f"{prefix}_max": _fmt(hi),
            f"{prefix}_steps": steps}


def _grid_call(target, out, seed, restarts, gspec, pspec) -> Call:
    opts = _grid_opts("p", pspec)
    gs = checks.grid(*gspec) if gspec else []
    if target != "lp":
        opts |= _grid_opts("g", gspec)
        opts["restarts"] = restarts
    ps = checks.grid(*pspec)
    return Call(
        argv=_verify_argv(target, out, seed, **opts),
        out=out,
        ops=len(ps) * (len(gs) if target != "lp" else 1),
        check=lambda doc: checks.check_grid_campaign(doc, target, gs, ps),
    )


def fac_campaign(seed: int, workdir: Path, cli) -> Plan:
    return Plan([_grid_call("fac", workdir / "fac.json", seed, FAC_RESTARTS,
                            FAC_G, FAC_P)])


def ns_campaign(seed: int, workdir: Path, cli) -> Plan:
    return Plan([
        _grid_call("lp", workdir / "lp.json", seed, None, None, NS_P),
        _grid_call("ns", workdir / "ns.json", seed, NS_RESTARTS, NS_G, NS_P),
    ])


def quantum_campaign(seed: int, workdir: Path, cli) -> Plan:
    out = workdir / "quantum.json"
    return Plan([Call(
        argv=_verify_argv("quantum", out, seed, samples=QUANTUM_SAMPLES,
                          restarts=QUANTUM_RESTARTS),
        out=out,
        ops=QUANTUM_SAMPLES,
        check=lambda doc: checks.check_quantum_campaign(doc, QUANTUM_SAMPLES),
    )])


def simulate_certify(seed: int, workdir: Path, cli) -> Plan:
    plan = Plan([])
    for kind, G, P, mode in SIM_MODELS:
        model_path = workdir / f"model-{kind}.json"
        rc = cli.main(["model", "--kind", kind, "--g", _fmt(G), "--p", _fmt(P),
                       "--out", str(model_path)])
        if rc != 0:
            plan.setup_checks.append(
                lambda kind=kind, rc=rc: [f"chshcert model --kind {kind} exited {rc}"])
            continue
        model_doc = json.loads(model_path.read_text())
        plan.setup_checks.append(
            lambda m=model_doc, kind=kind, G=G, P=P: checks.check_model(m, kind, G, P))
        for i in range(SIM_SEEDS):
            # The program draws Eve's trials from sim_seed + 1; even seeds
            # keep those streams apart from the next report's trials.
            sim_seed = 2 * (SIM_SEEDS * seed + i)
            out = workdir / f"sim-{kind}-{i}.json"
            plan.calls.append(Call(
                argv=["simulate", "--model", str(model_path),
                      "--trials", str(SIM_TRIALS), "--seed", str(sim_seed),
                      "--p-assumed", _fmt(P), "--mode", mode, "--out", str(out)],
                out=out,
                ops=1,
                check=lambda doc, m=model_doc, P=P, mode=mode:
                    checks.check_simulation(doc, m, SIM_TRIALS, P, mode),
            ))
    return plan


WORKLOADS: dict[str, Callable[[int, Path, object], Plan]] = {
    "fac-campaign": fac_campaign,
    "ns-campaign": ns_campaign,
    "quantum-campaign": quantum_campaign,
    "simulate-certify": simulate_certify,
}
