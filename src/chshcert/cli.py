"""Command-line interface: bound curves, model construction, simulation and
oracle verification campaigns.

Exit codes: 0 on success, 1 on domain or validation errors, 2 when a
verification run finds a value above its closed-form bound (soundness
violation), 3 when an exact oracle (``--target lp`` or ``ns``) finds a value
below it (completeness violation).  The fac and quantum oracles are
lower-bound searches, so only their soundness is checked.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bounds, core, optimal_models, oracle, quantum, simulate

SOUNDNESS_TOL = 1e-6
EXACT_TARGETS = ("lp", "ns")  # oracles exact in both directions


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dump_json(doc: dict, out: str | None) -> None:
    _write_output(json.dumps(doc, indent=2) + "\n", out)


# ---------------------------------------------------------------------------
# bounds

def _curve_point(curve: str, P: float, args) -> tuple[float, str]:
    if curve == "ns":
        return bounds.s_max_ns(args.g, P)
    if curve == "fac":
        return bounds.s_max_fac(args.g, P)
    if curve == "quantum":
        return bounds.s_max_quantum(P)
    if curve == "quantum-fac":
        return bounds.s_max_quantum_fac(P), bounds.BRANCH_QUANTUM
    if curve == "g-of-p":
        if args.s is None:
            raise bounds.DomainError("curve g-of-p requires --s")
        fn = bounds.g_bound_ns if args.mode == "ns" else bounds.g_bound_fac
        val = fn(args.s, P)
        return val, "clipped" if val >= 1.0 else bounds.BRANCH_CLOSED_FORM
    raise bounds.DomainError(f"unknown curve {curve!r}")


def cmd_bounds(args) -> int:
    ps = np.linspace(args.p_min, args.p_max, args.steps)
    header = "P,G,branch" if args.curve == "g-of-p" else "P,value,branch"
    rows = [header]
    for P in ps:
        try:
            val, branch = _curve_point(args.curve, float(P), args)
        except bounds.DomainError as exc:
            if args.skip_invalid:
                rows.append(f"{_fmt(P)},nan,domain-error")
                continue
            print(f"error: P={P!r}: {exc}", file=sys.stderr)
            return 1
        rows.append(f"{_fmt(P)},{_fmt(val)},{branch}")
    _write_output("\n".join(rows) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# model

def cmd_model(args) -> int:
    if args.kind == "general":
        model = optimal_models.build_general_model(args.g, args.p)
    elif args.kind == "high-p":
        if args.q is None or args.q_prime is None:
            print("error: kind high-p requires --q and --q-prime", file=sys.stderr)
            return 1
        model = optimal_models.build_high_P_model(args.g, args.p, args.q, args.q_prime)
    elif args.kind == "fac-low":
        model = optimal_models.build_fac_model_low_P(args.g, args.p)
    elif args.kind == "fac-high":
        model = optimal_models.build_fac_model_high_P(args.g, args.p)
    else:
        print(f"error: unknown model kind {args.kind!r}", file=sys.stderr)
        return 1
    _write_output(core.model_to_json(model) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    with open(args.model, encoding="utf-8") as fh:
        model = core.model_from_json(fh.read())
    report = simulate.simulation_report(
        model, args.trials, args.seed, args.p_assumed, args.mode
    )
    _dump_json(report.to_dict(), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify

def _grid(lo: float, hi: float, steps: int) -> list[float]:
    return [float(x) for x in np.linspace(lo, hi, steps)]


def cmd_verify(args) -> int:
    if args.target == "lp":
        def work(P):
            closed, _ = bounds.s_max_ns(1.0, P)
            val = oracle.lp_deterministic_max_S(P)
            return {"P": P, "bound_closed_form": closed, "bound_oracle": val,
                    "gap": val - closed}
        tasks = _grid(args.p_min, args.p_max, args.p_steps)
    elif args.target in ("ns", "fac"):
        fn = oracle.maximize_S_ns if args.target == "ns" else oracle.maximize_S_fac
        bound_fn = bounds.s_max_ns if args.target == "ns" else bounds.s_max_fac

        def work(point):
            G, P = point
            closed, _ = bound_fn(G, P)
            val = fn(G, P, restarts=args.restarts, seed=args.seed)
            return {"G": G, "P": P, "bound_closed_form": closed,
                    "bound_oracle": val, "gap": val - closed}
        tasks = [
            (G, P)
            for G in _grid(args.g_min, args.g_max, args.g_steps)
            for P in _grid(args.p_min, args.p_max, args.p_steps)
        ]
    elif args.target == "quantum":
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))
        dists = [bounds.BiasedDistribution(rng.dirichlet(np.ones(4)))
                 for _ in range(args.samples)]

        def work(dist):
            closed, _ = bounds.s_q_max_dist(dist)
            val, _strategy = quantum.optimize_strategy_numeric(
                dist, restarts=args.restarts, seed=args.seed
            )
            return {"p_bar": [float(x) for x in dist.probs],
                    "bound_closed_form": closed, "bound_oracle": val,
                    "gap": val - closed}
        tasks = dists
    else:
        print(f"error: unknown verification target {args.target!r}", file=sys.stderr)
        return 1

    points = [work(t) for t in tasks]

    max_gap = max(pt["gap"] for pt in points)
    violated = max_gap > SOUNDNESS_TOL
    incomplete = args.target in EXACT_TARGETS and min(
        pt["gap"] for pt in points) < -SOUNDNESS_TOL
    doc = {
        "target": args.target,
        "restarts": args.restarts,
        "seed": args.seed,
        "points": points,
        "max_gap": max_gap,
        "soundness_violation": violated,
        "completeness_violation": incomplete,
    }
    _dump_json(doc, args.out)
    return 2 if violated else 3 if incomplete else 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chshcert",
        description="CHSH randomness certification under reduced measurement "
                    "independence: bound curves, optimal adversary models, "
                    "Monte Carlo simulation and oracle verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="emit a bound curve as CSV")
    p.add_argument("--curve", required=True,
                   choices=["ns", "fac", "quantum", "quantum-fac", "g-of-p"])
    p.add_argument("--g", type=float, default=1.0,
                   help="guessing probability for ns/fac curves (default 1)")
    p.add_argument("--s", type=float, default=None,
                   help="observed CHSH value for the g-of-p curve")
    p.add_argument("--mode", choices=["ns", "fac"], default="ns",
                   help="adversary class for the g-of-p curve (default ns)")
    p.add_argument("--p-min", type=float, default=0.25)
    p.add_argument("--p-max", type=float, default=1.0 / 3.0)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--skip-invalid", action="store_true",
                   help="emit domain-error rows instead of rejecting up front")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("model", help="build an optimal adversary model as JSON")
    p.add_argument("--kind", required=True,
                   choices=["general", "high-p", "fac-low", "fac-high"])
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--q-prime", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("simulate", help="run Monte Carlo trials on a model file")
    p.add_argument("--model", required=True, help="path to a model JSON file")
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p-assumed", type=float, required=True)
    p.add_argument("--mode", choices=["ns", "fac"], default="ns")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run an oracle campaign against the bounds")
    p.add_argument("--target", required=True, choices=["lp", "ns", "fac", "quantum"])
    p.add_argument("--g-min", type=float, default=0.5)
    p.add_argument("--g-max", type=float, default=1.0)
    p.add_argument("--g-steps", type=int, default=6)
    p.add_argument("--p-min", type=float, default=0.25)
    p.add_argument("--p-max", type=float, default=1.0 / 3.0)
    p.add_argument("--p-steps", type=int, default=5)
    p.add_argument("--samples", type=int, default=200,
                   help="number of random settings distributions (quantum target)")
    p.add_argument("--restarts", type=int, default=100,
                   help="restarts of the fac and quantum searches; the exact "
                        "lp and ns oracles check it (at least 1) and ignore it")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, choices=[1], default=1,
                   help="campaign points run one after another on one thread; "
                        "only 1 is accepted")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (bounds.DomainError, core.ValidationError, oracle.OracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
