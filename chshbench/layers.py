"""Isolated calls into each layer's public functions, timed one by one.

Each metric is the median time of one call (or of one restart, or of 10^6
trials) over inputs drawn from the benchmark seed.  Every result is checked
against :mod:`checks`; the three LP shapes are built here from the
formulations in ``chshcert.oracle``'s docstrings and solved by
``chshcert.simplex.solve_lp``; the det and fac shapes are also solved by
scipy's HiGHS as the reference optimum.
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

import checks

L = 4  # components of the oracles' models


def _median_time(calls) -> tuple[float, list]:
    """Median wall time of the calls (zero-argument functions) and their results."""
    times, results = [], []
    for fn in calls:
        t0 = time.perf_counter()
        results.append(fn())
        times.append(time.perf_counter() - t0)
    return statistics.median(times), results


def _ub_free_will(n_blocks: int, P: float) -> np.ndarray:
    """Rows w(b, jk) - P * sum_j'k' w(b, j'k') <= 0 over blocks of 4."""
    block = np.eye(4) - P
    return np.kron(np.eye(n_blocks), block)


def det_lp(P: float) -> dict:
    """LP over w(s, jk) for the 16 local deterministic strategies s."""
    strategies = list(itertools.product((0, 1), repeat=4))
    c = np.array([
        4.0 * checks.SETTING_SIGN[2 * j + k] * (-1.0) ** ((a0, a1)[j] + (b0, b1)[k])
        for (a0, a1, b0, b1) in strategies for j in (0, 1) for k in (0, 1)
    ])
    n = len(strategies)
    return {"c": c, "A_ub": _ub_free_will(n, P), "b_ub": np.zeros(4 * n),
            "A_eq": np.tile(np.eye(4), n), "b_eq": np.full(4, 0.25)}


def ns_lp(E: np.ndarray, g: np.ndarray, G: float, P: float) -> dict:
    """The ns oracle's w-step: w(lam, jk) for fixed correlators E[lam, jk]
    and guessing values g[lam]."""
    A_eq = np.vstack([np.tile(np.eye(4), L), np.repeat(g, 4)[None, :]])
    return {"c": (4.0 * checks.SETTING_SIGN * E).ravel(),
            "A_ub": _ub_free_will(L, P), "b_ub": np.zeros(4 * L),
            "A_eq": A_eq, "b_eq": np.concatenate([np.full(4, 0.25), [G]])}


def fac_lp(q: np.ndarray, G: float, penalty: float = 1000.0) -> dict:
    """The fac oracle's inner step over (rho, t, slack+, slack-) for fixed
    factorizable settings q[lam, jk]: S = 4 - 8 sum(q_min t), penalized
    elastic uniformity, sum(rho) = 1, sum(t) = 2G - 1, t <= rho."""
    nvar = 2 * L + 8
    c = np.concatenate([np.zeros(L), -8.0 * q.min(axis=1), np.full(8, -penalty)])
    A_eq = np.zeros((6, nvar))
    A_eq[:4, :L] = q.T
    A_eq[:4, 2 * L:2 * L + 4] = np.eye(4)
    A_eq[:4, 2 * L + 4:] = -np.eye(4)
    A_eq[4, :L] = 1.0
    A_eq[5, L:2 * L] = 1.0
    A_ub = np.hstack([-np.eye(L), np.eye(L), np.zeros((L, 8))])
    return {"c": c, "A_ub": A_ub, "b_ub": np.zeros(L), "A_eq": A_eq,
            "b_eq": np.concatenate([np.full(4, 0.25), [1.0, 2.0 * G - 1.0]])}


def measure(seed: int) -> tuple[dict[str, float], int, list[str]]:
    """Return (metrics, operations checked, problems)."""
    from chshcert import bounds, core, optimal_models, oracle, quantum, simulate
    from chshcert.simplex import solve_lp

    rng = np.random.default_rng([seed, 7])
    metrics: dict[str, float] = {}
    problems: list[str] = []
    ops = 0

    def check(new: list[str]):
        nonlocal ops
        ops += 1
        problems.extend(new)

    # Closed forms: six bounds per batch, 200 batches, median batch / call.
    Gs = rng.uniform(0.5, 1.0, 200)
    Ps = rng.uniform(0.25, 0.33, 200)
    dists = [bounds.BiasedDistribution(d) for d in rng.dirichlet(np.ones(4), 200)]

    def batch(G, P, dist):
        return (bounds.s_max_ns(G, P)[0], bounds.s_max_fac(G, P)[0],
                bounds.s_max_quantum(P)[0], bounds.s_q_max_dist(dist)[0],
                bounds.g_bound_ns(3.0, P), bounds.g_bound_fac(3.0, P))
    t, res = _median_time([lambda a=a: batch(*a) for a in zip(Gs, Ps, dists)])
    metrics["bounds.closed_forms_us"] = t / 6 * 1e6
    for (G, P, dist), (ns, fac, _, q, gns, gfac) in zip(zip(Gs, Ps, dists), res):
        want = (checks.s_ns(G, P), checks.s_fac(G, P),
                checks.s_tsirelson_biased(dist.probs),
                checks.g_bound(3.0, P, "ns"), checks.g_bound(3.0, P, "fac"))
        got = (ns, fac, q, gns, gfac)
        check([f"closed forms at G={G} P={P}: {got} != {want}"]
              if max(abs(x - y) for x, y in zip(got, want)) > 1e-12 else [])

    # Model construction and validation.
    pts = list(zip(rng.uniform(0.5, 1.0, 50), rng.uniform(0.25, 1 / 3, 50)))
    t, models = _median_time(
        [lambda G=G, P=P: optimal_models.build_general_model(G, P) for G, P in pts])
    metrics["optimal_models.build_general_model_ms"] = t * 1e3
    t, reports = _median_time([lambda m=m: core.validate(m) for m in models])
    metrics["core.validate_ms"] = t * 1e3
    for (G, P), model, rep in zip(pts, models, reports):
        fig = checks.model_figures(core.model_to_dict(model), tol=1e-9)
        ok = rep.valid and not fig["failures"] and all(
            abs(a - b) <= 1e-9 for a, b in
            ((rep.S, fig["S"]), (rep.G, fig["G"]), (rep.P, fig["P"]),
             (fig["S"], checks.s_ns(G, P))))
        check([] if ok else [f"validate at G={G} P={P}: {rep} vs {fig}"])

    # The three LP shapes, against HiGHS.
    det = [det_lp(P) for P in rng.uniform(0.25, 1 / 3, 20)]
    ns = []
    for _ in range(40):
        G, P = rng.uniform(0.5, 1.0), rng.uniform(0.25, 1 / 3)
        g = rng.uniform(0.5, 1.0, L)
        g[0] = G  # all weight on component 0 is feasible
        ns.append(ns_lp(rng.uniform(-1.0, 1.0, (L, 4)), g, G, P))
    fac = []
    for _ in range(40):
        u, v = rng.uniform(0.0, 1.0, (2, L))
        q = np.stack([u * v, u * (1 - v), (1 - u) * v, (1 - u) * (1 - v)], axis=1)
        fac.append(fac_lp(q, rng.uniform(0.5, 1.0)))
    for shape, lps in (("det", det), ("ns", ns), ("fac", fac)):
        t, sols = _median_time([
            lambda lp=lp: solve_lp(lp["c"], A_ub=lp["A_ub"], b_ub=lp["b_ub"],
                                   A_eq=lp["A_eq"], b_eq=lp["b_eq"], maximize=True)
            for lp in lps])
        metrics[f"simplex.solve_lp.{shape}_ms"] = t * 1e3
        if shape == "ns":
            # Timed only: solve_lp returns a vertex that misses an equality
            # by ~1e-6 on about one ns LP in 600, so this check would fail
            # on some seeds only.
            continue
        for i, (lp, sol) in enumerate(zip(lps, sols)):
            check(checks.check_lp_solution(lp, sol.x, sol.fun,
                                           checks.linprog_max(lp), f"{shape} LP {i}"))

    # The deterministic-LP oracle.
    Ps = rng.uniform(0.25, 1 / 3, 10)
    t, vals = _median_time([lambda P=P: oracle.lp_deterministic_max_S(P) for P in Ps])
    metrics["oracle.lp_deterministic_max_S_ms"] = t * 1e3
    for P, val in zip(Ps, vals):
        check([] if abs(val - checks.s_det_lp(P)) <= checks.EXACT_TOL
              else [f"deterministic LP at P={P}: {val!r}"])

    # One restart of each multi-start oracle: median over seeds of a short
    # multi-start call, divided by its restarts.  A few restarts need not be
    # complete, so only soundness is checked.  About one fac restart in eight
    # finds no feasible model here; eight restarts per call keep the chance
    # that a call finds none (an OracleError) near 1e-7.
    for name, fn, closed, restarts, n_seeds in (
        ("oracle.ns_restart_ms", oracle.maximize_S_ns, checks.s_ns, 8, 12),
        ("oracle.fac_restart_ms", oracle.maximize_S_fac, checks.s_fac, 8, 3),
    ):
        G, P = 0.8, 0.3
        seeds = rng.integers(0, 2**31, n_seeds)
        t, vals = _median_time([lambda s=s: fn(G, P, restarts=restarts, seed=int(s))
                                for s in seeds])
        metrics[name] = t / restarts * 1e3
        for val in vals:
            check([] if val <= closed(G, P) + checks.SOUND_TOL
                  else [f"{name}: {val!r} exceeds {closed(G, P)!r}"])
    qdists = [bounds.BiasedDistribution(d) for d in rng.dirichlet(np.ones(4), 10)]
    t, vals = _median_time([
        lambda d=d: quantum.optimize_strategy_numeric(d, restarts=4, seed=seed)[0]
        for d in qdists])
    metrics["quantum.restart_ms"] = t / 4 * 1e3
    for d, val in zip(qdists, vals):
        closed = checks.s_tsirelson_biased(d.probs)
        check([] if val <= closed + checks.SOUND_TOL
              else [f"quantum restart: {val!r} exceeds {closed!r}"])

    # Monte Carlo sampling at 10^6 trials on the saturating general model.
    G, P, n = 0.8, 0.3, 10**6
    model = optimal_models.build_general_model(G, P)
    doc = core.model_to_dict(model)
    exp = checks.simulation_expectations(doc, n)
    seeds = [int(s) for s in rng.integers(0, 2**31, 3)]
    t, counts = _median_time([lambda s=s: simulate.run_trials(model, n, s)
                              for s in seeds])
    metrics["simulate.run_trials_ms_per_1e6"] = t * 1e3
    for c in counts:
        s_hat, _ = simulate.estimate_S(c)
        check([] if c.n == n and abs(s_hat - exp["S"]) <= checks.SIGMAS * exp["sigma_S"]
              else [f"run_trials: S_hat {s_hat!r} vs {exp['S']!r}"])
    t, accs = _median_time([lambda s=s: simulate.eve_guess_accuracy(model, n, s)
                            for s in seeds])
    metrics["simulate.eve_guess_accuracy_ms_per_1e6"] = t * 1e3
    sigma = (exp["accuracy"] * (1 - exp["accuracy"]) / n) ** 0.5
    for acc in accs:
        check([] if abs(acc - exp["accuracy"]) <= checks.SIGMAS * sigma
              else [f"eve_guess_accuracy: {acc!r} vs {exp['accuracy']!r}"])
    return metrics, ops, problems
