"""Reference computations the benchmark checks the program's outputs against.

Nothing here calls into ``chshcert``: the closed forms are re-implemented
from the paper, model figures are recomputed from the raw components of a
model document, LP optima come from ``scipy.optimize.linprog`` (HiGHS), and
Monte Carlo outputs are held to binomial 5-sigma bounds derived from the
model itself.  Every ``check_*`` function returns a list of problems, empty
when the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

SOUND_TOL = 1e-6       # an oracle may exceed its closed form by this much
COMPLETE_TOL = 1e-3    # and fall short of it by at most this much
EXACT_TOL = 1e-9       # exact LP values and closed-form fields
SIGMAS = 5.0

# Flat setting order (j,k) = 00, 01, 10, 11 and its (-1)**(j*k) signs.
SETTING_SIGN = np.array([1.0, 1.0, 1.0, -1.0])


# ---------------------------------------------------------------------------
# Closed forms of the paper

def s_ns(G: float, P: float) -> float:
    """No-signalling bound 4 - 8(2G-1)(1-3P), for P <= 1/3."""
    return 4.0 - 8.0 * (2.0 * G - 1.0) * (1.0 - 3.0 * P)


def s_fac(G: float, P: float) -> float:
    """Factorizable bound 4 - 4(2G-1)(1-2P), for P <= 1/2."""
    return 4.0 - 4.0 * (2.0 * G - 1.0) * (1.0 - 2.0 * P)


def s_det_lp(P: float) -> float:
    """Optimum of the deterministic-strategy LP: 4 - 8 max(0, 1-3P)."""
    return 4.0 - 8.0 * max(0.0, 1.0 - 3.0 * P)


def s_tsirelson_biased(p) -> float:
    """Largest two-qubit CHSH value for settings probabilities
    (p00, p01, p10, p11): the entangled optimum when the optimal
    anticommutator lies strictly inside (-2, 2), else 4 - 8 p_min."""
    p00, p01, p10, p11 = (float(x) for x in p)
    p_min = min(p00, p01, p10, p11)
    if p_min > 0.0:
        alpha = (
            p00**2 * p01**2 * (p10**2 + p11**2)
            - p10**2 * p11**2 * (p00**2 + p01**2)
        ) / (p00 * p01 * p10 * p11 * (p00 * p01 + p10 * p11))
        if abs(alpha) < 2.0:
            return 4.0 * math.sqrt(p00 * p01 + p10 * p11) * math.sqrt(
                (p00**2 + p01**2) / (p00 * p01) + (p10**2 + p11**2) / (p10 * p11)
            )
    return 4.0 - 8.0 * max(p_min, 0.0)


def g_bound(S: float, P: float, mode: str) -> float:
    """Guessing-probability bound obtained by inverting the ns or fac line
    through (G=1/2, S=4) and (G=1, S=s(1, P))."""
    s1 = s_ns(1.0, P) if mode == "ns" else s_fac(1.0, P)
    return min(0.5 * (1.0 + (4.0 - S) / (4.0 - s1)), 1.0)


def certified_bits(S_hat: float, P: float, mode: str, n: int) -> float:
    g = g_bound(min(S_hat, 4.0), P, mode)
    return 0.0 if g >= 1.0 else -n * math.log2(g)


# ---------------------------------------------------------------------------
# Oracle campaigns

def grid(lo: float, hi: float, steps: int) -> list[float]:
    return [float(x) for x in np.linspace(lo, hi, steps)]


def _check_bound(label: str, oracle: float, closed: float, exact: bool) -> list[str]:
    if not math.isfinite(oracle):
        return [f"{label}: oracle value {oracle!r} is not finite"]
    if exact:
        if abs(oracle - closed) > EXACT_TOL:
            return [f"{label}: LP value {oracle!r} differs from {closed!r}"]
        return []
    if oracle > closed + SOUND_TOL:
        return [f"{label}: unsound, {oracle!r} > closed form {closed!r}"]
    if oracle < closed - COMPLETE_TOL:
        return [f"{label}: incomplete, {oracle!r} < closed form {closed!r}"]
    return []


def closed_form(target: str, G: float | None, P: float) -> float:
    if target == "lp":
        return s_det_lp(P)
    return s_ns(G, P) if target == "ns" else s_fac(G, P)


def check_grid_campaign(doc: dict, target: str, gs: list[float],
                        ps: list[float]) -> list[str]:
    """Check a ``verify --target lp|ns|fac`` document: it holds exactly the
    requested grid points, and each oracle value is sound and complete
    against the closed form (exact for the LP)."""
    gs = [None] if target == "lp" else gs

    def key(G, P):
        return (None if G is None else round(G, 12), round(P, 12))

    wanted = {key(G, P): (G, P) for G in gs for P in ps}
    points = doc.get("points", [])
    got = [key(pt.get("G") if target != "lp" else None, pt["P"]) for pt in points]
    if sorted(got, key=repr) != sorted(wanted, key=repr):
        return [f"{target}: output points {got} are not the requested grid"]
    problems = []
    for k, pt in zip(got, points):
        G, P = wanted[k]
        label = f"{target} point G={G} P={P}"
        closed = closed_form(target, G, P)
        if abs(pt["bound_closed_form"] - closed) > EXACT_TOL:
            problems.append(f"{label}: closed form {pt['bound_closed_form']!r}, "
                            f"expected {closed!r}")
        problems += _check_bound(label, pt["bound_oracle"], closed, target == "lp")
    return problems


def check_quantum_campaign(doc: dict, samples: int) -> list[str]:
    """Check a ``verify --target quantum`` document: each point carries a
    probability vector and an oracle value sound and complete against the
    biased Tsirelson value of that vector."""
    points = doc.get("points", [])
    if len(points) != samples:
        return [f"quantum: {len(points)} points, expected {samples}"]
    problems = []
    for i, pt in enumerate(points):
        p = np.asarray(pt["p_bar"], dtype=float)
        label = f"quantum point {i}"
        if p.shape != (4,) or not np.isfinite(p).all() or p.min() < 0.0 \
                or abs(p.sum() - 1.0) > 1e-12:
            problems.append(f"{label}: p_bar {p.tolist()} is not a distribution")
            continue
        closed = s_tsirelson_biased(p)
        if abs(pt["bound_closed_form"] - closed) > EXACT_TOL:
            problems.append(f"{label}: closed form {pt['bound_closed_form']!r}, "
                            f"expected {closed!r}")
        problems += _check_bound(label, pt["bound_oracle"], closed, exact=False)
    return problems


# ---------------------------------------------------------------------------
# Model documents

def model_arrays(doc: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights (L,), settings q[lam, jk] (L, 4) and boxes r[lam, jk, ab]
    (L, 4, 4) of a model document, in the document's flat orders."""
    comps = doc["components"]
    w = np.array([c["weight"] for c in comps], dtype=float)
    q = np.array([c["settings"] for c in comps], dtype=float).reshape(-1, 4)
    r = np.array([c["box"] for c in comps], dtype=float).reshape(-1, 4, 4)
    return w, q, r


def _marginals(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p(a=0 | j) and p(b=0 | k) per component, shape (L, 2), each averaged
    over the other party's setting."""
    a0 = (r[:, :, 0] + r[:, :, 1]).reshape(-1, 2, 2)   # [lam, j, k]
    b0 = (r[:, :, 0] + r[:, :, 2]).reshape(-1, 2, 2)
    return a0.mean(axis=2), b0.mean(axis=1)


def model_figures(doc: dict, tol: float = 1e-12) -> dict:
    """Recompute validity, S, G, P and factorizability of a model document."""
    w, q, r = model_arrays(doc)
    failures = []
    if not (np.isfinite(w).all() and np.isfinite(q).all() and np.isfinite(r).all()):
        failures.append("non-finite entry")
    if w.min() < -tol or abs(w.sum() - 1.0) > tol:
        failures.append("weights are not a distribution")
    if q.min() < -tol or np.abs(q.sum(axis=1) - 1.0).max() > tol:
        failures.append("settings are not distributions")
    if r.min() < -tol or np.abs(r.sum(axis=2) - 1.0).max() > tol:
        failures.append("boxes are not normalized")
    a0 = (r[:, :, 0] + r[:, :, 1]).reshape(-1, 2, 2)
    b0 = (r[:, :, 0] + r[:, :, 2]).reshape(-1, 2, 2)
    if np.abs(a0[:, :, 0] - a0[:, :, 1]).max() > tol \
            or np.abs(b0[:, 0, :] - b0[:, 1, :]).max() > tol:
        failures.append("a box signals")
    if np.abs(w @ q - 0.25).max() > tol:
        failures.append("observed inputs are not uniform")
    corr = r[:, :, 0] - r[:, :, 1] - r[:, :, 2] + r[:, :, 3]      # E[lam, jk]
    S = 4.0 * abs(float((w[:, None] * q * corr * SETTING_SIGN).sum()))
    ma, mb = _marginals(r)
    guess = np.maximum(np.maximum(ma, 1.0 - ma).max(axis=1),
                       np.maximum(mb, 1.0 - mb).max(axis=1))
    G = float(w @ guess)
    P = float(q[w > 0.0].max())
    fac = bool(np.all(np.abs(q[:, 0] * q[:, 3] - q[:, 1] * q[:, 2]) <= tol))
    return {"S": S, "G": G, "P": P, "factorizable": fac, "failures": failures}


def check_model(doc: dict, kind: str, G: float, P: float) -> list[str]:
    """A saturating model of ``kind`` ("general" or "fac-low") must be valid,
    have exactly the requested G and P, and sit on its closed-form bound."""
    fig = model_figures(doc)
    problems = [f"model {kind}: {f}" for f in fig["failures"]]
    target = s_ns(G, P) if kind == "general" else s_fac(G, P)
    for name, got, want in (("S", fig["S"], target), ("G", fig["G"], G),
                            ("P", fig["P"], P)):
        if abs(got - want) > 1e-12:
            problems.append(f"model {kind}: {name} = {got!r}, expected {want!r}")
    if kind == "fac-low" and not fig["factorizable"]:
        problems.append("model fac-low: settings do not factorize")
    return problems


# ---------------------------------------------------------------------------
# Monte Carlo reports

def simulation_expectations(doc: dict, n: int) -> dict:
    """Expected Ŝ, its standard deviation and Eve's expected accuracy for n
    trials of a model document.  Eve guesses, per component, the party whose
    marginal is most biased (Alice on ties), and that party's likelier
    outcome at the realized setting."""
    w, q, r = model_arrays(doc)
    p_jk = w @ q                                           # observed inputs
    joint = np.einsum("l,lj,lja->ja", w, q, r) / p_jk[:, None]
    corr = joint[:, 0] - joint[:, 1] - joint[:, 2] + joint[:, 3]
    S = abs(float((SETTING_SIGN * corr).sum()))
    sigma_S = math.sqrt(float(((1.0 - corr**2) / (n * p_jk)).sum()))
    ma, mb = _marginals(r)
    acc = 0.0
    for lam in range(len(w)):
        alice = np.maximum(ma[lam], 1.0 - ma[lam]).max() >= \
            np.maximum(mb[lam], 1.0 - mb[lam]).max()
        for jk in range(4):
            m = ma[lam, jk // 2] if alice else mb[lam, jk % 2]
            acc += w[lam] * q[lam, jk] * max(m, 1.0 - m)
    return {"S": S, "sigma_S": sigma_S, "p_jk": p_jk, "accuracy": float(acc)}


def _binomial_sigma(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def check_simulation(report: dict, model_doc: dict, n: int, P_assumed: float,
                     mode: str) -> list[str]:
    """Hold a ``simulate`` report to 5-sigma binomial bounds and recompute
    its certified bits from its own Ŝ."""
    exp = simulation_expectations(model_doc, n)
    problems = []
    if abs(report["S_hat"] - exp["S"]) > SIGMAS * exp["sigma_S"]:
        problems.append(f"S_hat {report['S_hat']!r} is more than 5 sigma from "
                        f"{exp['S']!r}")
    if abs(report["S_stderr"] - exp["sigma_S"]) > 0.05 * exp["sigma_S"]:
        problems.append(f"S_stderr {report['S_stderr']!r}, expected about "
                        f"{exp['sigma_S']!r}")
    freqs = np.asarray(report["input_freqs"], dtype=float)
    for jk, (f, p) in enumerate(zip(freqs, exp["p_jk"])):
        if abs(f - p) > SIGMAS * _binomial_sigma(p, n):
            problems.append(f"input frequency {jk} = {f!r} is more than 5 sigma "
                            f"from {p!r}")
    acc = exp["accuracy"]
    if abs(report["eve_accuracy"] - acc) > SIGMAS * _binomial_sigma(acc, n) + 1e-12:
        problems.append(f"eve_accuracy {report['eve_accuracy']!r} is more than "
                        f"5 sigma from {acc!r}")
    bits = certified_bits(report["S_hat"], P_assumed, mode, n)
    if abs(report["certified_bits"] - bits) > 1e-9 * max(1.0, bits):
        problems.append(f"certified_bits {report['certified_bits']!r}, expected "
                        f"{bits!r} from S_hat")
    return problems


# ---------------------------------------------------------------------------
# Linear programs: scipy's HiGHS as the reference optimum

def linprog_max(lp: dict) -> float:
    """Optimum of ``max c.x`` s.t. A_ub x <= b_ub, A_eq x = b_eq, x >= 0."""
    from scipy.optimize import linprog

    res = linprog(-lp["c"], A_ub=lp["A_ub"], b_ub=lp["b_ub"], A_eq=lp["A_eq"],
                  b_eq=lp["b_eq"], bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return -float(res.fun)


def check_lp_solution(lp: dict, x: np.ndarray, fun: float, ref: float,
                      label: str) -> list[str]:
    """A solution must be feasible, worth its reported value, and optimal
    against the reference optimum."""
    x = np.asarray(x, dtype=float)
    problems = []
    if x.min() < -1e-9 or (lp["A_ub"] @ x - lp["b_ub"]).max() > 1e-8 \
            or np.abs(lp["A_eq"] @ x - lp["b_eq"]).max() > 1e-8:
        problems.append(f"{label}: solution is infeasible")
    scale = max(1.0, abs(ref))
    if abs(float(lp["c"] @ x) - fun) > 1e-9 * scale:
        problems.append(f"{label}: reported value {fun!r} is not c.x")
    if abs(fun - ref) > 1e-7 * scale:
        problems.append(f"{label}: value {fun!r}, reference optimum {ref!r}")
    return problems
