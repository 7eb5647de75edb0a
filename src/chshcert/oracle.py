"""Independent verification of the trade-off bounds by optimization.

Three oracles, none of which trusts the closed forms:

* :func:`lp_deterministic_max_S` -- exact linear program over mixtures of the
  16 local deterministic strategies (the G = 1 case).
* :func:`maximize_S_ns` -- randomized multi-start ascent over general
  no-signalling hidden-variable models at fixed (G, P).
* :func:`maximize_S_fac` -- the same search with every settings distribution
  constrained to product form.

Every reported value is the exact ``observed_S`` of a feasible model that
passed the core validity checks, so soundness (never exceeding a correct
bound) holds by construction up to the feasibility tolerance.

The deterministic LP restricts the hidden variable to the 16 local
deterministic strategies.  This is valid at G = 1 because a guessing value of
1 forces deterministic marginals, and extremal no-signalling boxes with
deterministic marginals are products of deterministic local strategies.  The
substitution w(lambda, j, k) = rho(lambda) p(j, k | lambda) makes every
constraint linear.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import core
from .bounds import DomainError
from .core import Box, HiddenVariableModel, SettingsDistribution, box_from_marginals
from .simplex import InfeasibleError, UnboundedError, solve_lp

_SIGN = np.array([[1.0, 1.0], [1.0, -1.0]])  # (-1)**(j*k)

FEASIBILITY_TOL = 1e-9


class OracleError(RuntimeError):
    """No feasible model was found by any restart."""


def deterministic_strategies() -> list[tuple[int, int, int, int]]:
    """All 16 local deterministic strategies (a0, a1, b0, b1)."""
    return list(itertools.product((0, 1), repeat=4))


def lp_deterministic_max_S(P: float) -> float:
    """Exact maximum of the observed CHSH value over mixtures of local
    deterministic strategies with free-will parameter at most P, subject to
    uniform observed inputs."""
    if not 0.25 <= P <= 1.0:
        raise DomainError(f"free-will parameter must lie in [1/4, 1], got {P}")
    strategies = deterministic_strategies()
    n_s = len(strategies)
    # Objective: S = 4 * sum_{s,jk} (-1)**jk E_s(jk) w(s, jk).
    obj = np.zeros((n_s, 4))
    for si, (a0, a1, b0, b1) in enumerate(strategies):
        outs_a, outs_b = (a0, a1), (b0, b1)
        for idx, (j, k) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            e = (-1.0) ** (outs_a[j] + outs_b[k])
            obj[si, idx] = 4.0 * _SIGN[j, k] * e
    nvar = n_s * 4
    # Uniform observed inputs: sum_s w(s, jk) = 1/4 for each pair.
    A_eq = np.zeros((4, nvar))
    for idx in range(4):
        A_eq[idx, idx::4] = 1.0
    b_eq = np.full(4, 0.25)
    # Free-will cap: w(s, jk) <= P * sum_{j'k'} w(s, j'k').
    A_ub = np.zeros((nvar, nvar))
    for si in range(n_s):
        for idx in range(4):
            row = si * 4 + idx
            A_ub[row, si * 4: si * 4 + 4] -= P
            A_ub[row, row] += 1.0
    b_ub = np.zeros(nvar)
    res = solve_lp(obj.ravel(), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, maximize=True)
    return res.fun


# ---------------------------------------------------------------------------
# Shared machinery for the nonlinear oracles.
#
# For fixed weights the best box at a given per-component guessing value g
# concentrates the unavoidable marginal mismatch 2g - 1 on a single setting
# pair; these patterns give the extremal marginals for each position.

def _pattern_marginals(pos: int, g: float) -> tuple[np.ndarray, np.ndarray]:
    """Alice/Bob zero-outcome marginals placing mismatch 2g-1 on setting pair
    ``pos`` (flat index over (j,k) = 00, 01, 10, 11) and none elsewhere."""
    if pos == 0:
        m, n = (g, 1.0 - g), (1.0 - g, g)
    elif pos == 1:
        m, n = (g, g), (g, 1.0 - g)
    elif pos == 2:
        m, n = (g, 1.0 - g), (g, g)
    else:
        m, n = (g, g), (g, g)
    return np.array(m), np.array(n)


def _optimal_c(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Joint p(0,0|j,k) maximizing the signed CHSH sum for fixed marginals."""
    c = np.minimum(m[:, None], n[None, :])
    c[1, 1] = max(0.0, m[1] + n[1] - 1.0)
    return c


def _correlators(m: np.ndarray, n: np.ndarray, c: np.ndarray) -> np.ndarray:
    return 1.0 - 2.0 * m[:, None] - 2.0 * n[None, :] + 4.0 * c


def _allocate_guessing(G: float, rho: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Choose per-component guessing values g in [1/2, 1] minimizing
    sum(cost * g) subject to sum(rho * g) = G.  Continuous knapsack: raise g
    to 1 for the cheapest components (by cost per unit of weight) first."""
    L = len(rho)
    g = np.full(L, 0.5)
    active = rho > 0.0
    budget = G - 0.5 * rho[active].sum()
    if budget <= 0.0:
        return g
    ratio = np.where(active, cost / np.maximum(rho, 1e-300), np.inf)
    for idx in np.argsort(ratio, kind="stable"):
        if not active[idx]:
            continue
        step = min(0.5, budget / rho[idx])
        g[idx] = 0.5 + step
        budget -= step * rho[idx]
        if budget <= 1e-16:
            break
    return g


def _assemble_model(
    rho: np.ndarray, q: np.ndarray, ms: np.ndarray, ns: np.ndarray
) -> HiddenVariableModel:
    comps = []
    for lam in range(len(rho)):
        box = box_from_marginals(ms[lam], ns[lam], _optimal_c(ms[lam], ns[lam]))
        comps.append((float(rho[lam]), SettingsDistribution(q[lam]), box))
    return HiddenVariableModel(tuple(comps))


def _finalize(
    G: float, P: float, rho: np.ndarray, q: np.ndarray,
    ms: np.ndarray, ns: np.ndarray, tol: float,
) -> float | None:
    """Validate a candidate and return its exact observed CHSH value, or None
    when it misses the (G, P, uniformity) constraints."""
    model = _assemble_model(rho, q, ms, ns)
    report = core.validate(model, tol)
    if not report.valid:
        return None
    if abs(report.G - G) > tol or report.P > P + tol:
        return None
    return report.S


# ---------------------------------------------------------------------------
# General no-signalling oracle: block-coordinate ascent.
#
# Decision variables are w(lambda, j, k) = rho(lambda) q_lambda(j, k) plus the
# per-component box marginals.  Three exact block steps alternate:
#   1. w-step: a linear program (uniformity, guessing and free-will caps are
#      all linear in w for fixed boxes),
#   2. box step: concentrate each component's marginal mismatch on its
#      cheapest setting pair,
#   3. guessing reallocation across components (continuous knapsack).
# Each step never decreases the objective, so the ascent converges.

def _ns_w_lp(E: np.ndarray, g: np.ndarray, G: float, P: float) -> np.ndarray:
    L = E.shape[0]
    nvar = L * 4
    obj = (4.0 * _SIGN[None, :, :] * E).reshape(L, 4).ravel()
    A_eq = np.zeros((5, nvar))
    for idx in range(4):
        A_eq[idx, idx::4] = 1.0
    b_eq = np.concatenate([np.full(4, 0.25), [G]])
    for lam in range(L):
        A_eq[4, lam * 4: lam * 4 + 4] = g[lam]
    A_ub = np.zeros((nvar, nvar))
    for lam in range(L):
        for idx in range(4):
            row = lam * 4 + idx
            A_ub[row, lam * 4: lam * 4 + 4] -= P
            A_ub[row, row] += 1.0
    b_ub = np.zeros(nvar)
    res = solve_lp(obj, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, maximize=True)
    return res.x.reshape(L, 4)


def _ns_restart(
    rng: np.random.Generator,
    G: float,
    P: float,
    L: int,
    structured: bool,
    max_iter: int = 30,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    if structured:
        # Start from pattern boxes whose mismatch positions cover all four
        # setting pairs (a random assignment with full coverage) at the common
        # guessing value G; the ascent then only has to discover the weights.
        pos0 = np.concatenate(
            [rng.permutation(4), rng.integers(0, 4, size=L - 4)]
        )
        g = np.full(L, G)
        ms = np.empty((L, 2))
        ns = np.empty((L, 2))
        for lam in range(L):
            ms[lam], ns[lam] = _pattern_marginals(int(pos0[lam]), g[lam])
    else:
        # Fully random box marginals; force component 0 to guessing value
        # exactly G so the w-program is always feasible (all weight on
        # component 0 works).
        ms = rng.uniform(0.0, 1.0, size=(L, 2))
        ns = rng.uniform(0.0, 1.0, size=(L, 2))
        dev = max(
            np.abs(ms[0] - 0.5).max(), np.abs(ns[0] - 0.5).max()
        )
        if dev == 0.0:
            ms[0, 0] = G
        else:
            t = (G - 0.5) / dev
            ms[0] = 0.5 + t * (ms[0] - 0.5)
            ns[0] = 0.5 + t * (ns[0] - 0.5)
        g = np.array([
            max(ms[lam].max(), 1.0 - ms[lam].min(), ns[lam].max(), 1.0 - ns[lam].min())
            for lam in range(L)
        ])
    w = np.full((L, 4), 0.25 / L)
    prev = -np.inf
    for _ in range(max_iter):
        E = np.stack([
            _correlators(ms[lam], ns[lam], _optimal_c(ms[lam], ns[lam]))
            for lam in range(L)
        ])
        w = _ns_w_lp(E, g, G, P)
        rho = w.sum(axis=1)
        pos = w.argmin(axis=1)
        cost = w[np.arange(L), pos]
        g = _allocate_guessing(G, rho, cost)
        for lam in range(L):
            if rho[lam] > 0.0:
                ms[lam], ns[lam] = _pattern_marginals(int(pos[lam]), g[lam])
        val = 4.0 * (w.sum() - 2.0 * (cost * (2.0 * g - 1.0)).sum())
        if val - prev < 1e-12:
            break
        prev = val
    rho = w.sum(axis=1)
    q = np.where(rho[:, None] > 0.0, w / np.maximum(rho[:, None], 1e-300), 0.25)
    return rho, q.reshape(-1, 2, 2), ms, ns


def maximize_S_ns(
    G: float,
    P: float,
    components: int = 4,
    restarts: int = 100,
    seed: int = 0,
    tol: float = FEASIBILITY_TOL,
) -> float:
    """Best observed CHSH value found over no-signalling models with guessing
    probability G, free-will parameter at most P and uniform observed inputs."""
    if not 0.5 <= G <= 1.0:
        raise DomainError(f"guessing probability must lie in [1/2, 1], got {G}")
    if not 0.25 <= P <= 1.0:
        raise DomainError(f"free-will parameter must lie in [1/4, 1], got {P}")
    if components < 4:
        raise DomainError("at least 4 components are required")
    if restarts < 1:
        raise DomainError("at least one restart is required")
    best = None
    for i in range(restarts):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(seed, spawn_key=(i,)))
        )
        try:
            rho, q, ms, ns = _ns_restart(rng, G, P, components, structured=i % 2 == 0)
        except (InfeasibleError, UnboundedError):
            continue
        val = _finalize(G, P, rho, q, ms, ns, tol)
        if val is not None and (best is None or val > best):
            best = val
    if best is None:
        raise OracleError(f"no feasible no-signalling model found at G={G}, P={P}")
    return best


# ---------------------------------------------------------------------------
# Factorizable oracle: derivative-free search over the per-component local
# setting probabilities (u, v).  Each candidate is first projected onto the
# free-will cap exactly (shrinking toward the uniform setting choice), then
# the component weights and guessing values are found by an exact inner
# linear program, so every evaluated candidate is a feasible model.

def _fac_repair(u: float, v: float, P: float) -> tuple[float, float]:
    """Shrink (u, v) toward (1/2, 1/2) until max_jk q(j,k) <= P."""
    du, dv = abs(u - 0.5), abs(v - 0.5)
    if (0.5 + du) * (0.5 + dv) <= P:
        return u, v
    # Solve (1/2 + s*du)(1/2 + s*dv) = P for the shrink factor s in [0, 1).
    a, b, c = du * dv, 0.5 * (du + dv), 0.25 - P
    if a < 1e-30:
        s = -c / b if b > 0.0 else 0.0
    else:
        s = (-b + np.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
    s = min(max(s, 0.0), 1.0)
    return 0.5 + s * (u - 0.5), 0.5 + s * (v - 0.5)


_SLACK_PENALTY = 1000.0


@functools.lru_cache(maxsize=None)
def _fac_lp_shape(L: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The inner LP's parts that do not depend on the settings, over the
    variables (rho, t, slack+ (4), slack- (4)): the objective without its
    t entries, the equality rows without their q block, and the rows
    t - rho <= 0.  Read-only; callers copy what they fill in."""
    nvar = 2 * L + 8
    obj = np.zeros(nvar)
    obj[2 * L:] = -_SLACK_PENALTY
    A_eq = np.zeros((6, nvar))
    A_eq[:4, 2 * L:2 * L + 4] = np.eye(4)
    A_eq[:4, 2 * L + 4:] = -np.eye(4)
    A_eq[4, :L] = 1.0
    A_eq[5, L:2 * L] = 1.0
    A_ub = np.hstack([-np.eye(L), np.eye(L), np.zeros((L, 8))])
    for arr in (obj, A_eq, A_ub):
        arr.flags.writeable = False
    return obj, A_eq, A_ub


def _fac_inner_lp(
    q: np.ndarray, G: float, basis: np.ndarray | None = None
) -> tuple[float, np.ndarray, np.ndarray, float, np.ndarray]:
    """Exact maximum of S over weights and per-component guessing values for
    fixed factorizable settings.

    With t_lam = rho_lam * (2 g_lam - 1) the objective and all constraints
    are linear: S = 4 - 8 sum(q_min * t), uniformity ties rho, the guessing
    constraint becomes sum(t) = 2G - 1, and 0 <= t <= rho.  The uniformity
    equalities carry heavily penalized elastic slacks so the program stays
    solvable for settings that cannot mix to uniform; the outer search then
    sees a slope toward the feasible region.  Returns (value, rho, g,
    total slack, final basis); a candidate is genuinely feasible only when
    the slack vanishes.  ``basis`` is the simplex's warm-start hint, usually
    the final basis of the previous, nearby call.
    """
    L = q.shape[0]
    obj_shape, A_eq_shape, A_ub = _fac_lp_shape(L)
    obj = obj_shape.copy()
    obj[L:2 * L] = -8.0 * q.min(axis=1)
    A_eq = A_eq_shape.copy()
    A_eq[:4, :L] = q.T
    b_eq = np.array([0.25, 0.25, 0.25, 0.25, 1.0, 2.0 * G - 1.0])
    res = solve_lp(obj, A_ub=A_ub, b_ub=np.zeros(L), A_eq=A_eq, b_eq=b_eq,
                   maximize=True, basis=basis)
    rho, t = res.x[:L], res.x[L:2 * L]
    slack = float(res.x[2 * L:].sum())
    g = np.where(rho > 0.0, 0.5 + t / np.maximum(2.0 * rho, 1e-300), 0.5)
    return 4.0 + res.fun, rho, np.clip(g, 0.5, 1.0), slack, res.basis


def _fac_candidate(
    x: np.ndarray, L: int, G: float, P: float, basis: np.ndarray | None = None
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """(value, rho, q, g, basis) of the settings x; the basis is the inner
    LP's final one, or the hint passed in when that LP failed."""
    q = np.empty((L, 4))
    for lam in range(L):
        u, v = _fac_repair(float(x[lam]), float(x[L + lam]), P)
        q[lam] = (u * v, u * (1.0 - v), (1.0 - u) * v, (1.0 - u) * (1.0 - v))
    try:
        val, rho, g, slack, basis = _fac_inner_lp(q, G, basis)
    except (InfeasibleError, UnboundedError):
        # Unboundedness can only be a numerical breakdown on a degenerate
        # tableau; treat the candidate as infeasible either way.
        return -np.inf, np.zeros(L), q, np.full(L, 0.5), basis
    if slack > FEASIBILITY_TOL:
        return val, np.zeros(L), q, g, basis  # penalized value only; not a model
    return val, rho, q, g, basis


def maximize_S_fac(
    G: float,
    P: float,
    components: int = 4,
    restarts: int = 100,
    seed: int = 0,
    tol: float = FEASIBILITY_TOL,
    maxfev: int = 200,
) -> float:
    """Best observed CHSH value found over models whose settings distributions
    all factorize into independent Alice/Bob setting choices."""
    from scipy.optimize import minimize

    if not 0.5 <= G <= 1.0:
        raise DomainError(f"guessing probability must lie in [1/2, 1], got {G}")
    if not 0.25 <= P <= 1.0:
        raise DomainError(f"free-will parameter must lie in [1/4, 1], got {P}")
    if components < 4:
        raise DomainError("at least 4 components are required")
    if restarts < 1:
        raise DomainError("at least one restart is required")
    L = components
    # Consecutive Powell evaluations differ in one coordinate, so the last
    # inner LP's optimal basis usually solves the next one without a pivot.
    # The hint lives in this call only and restarts from cold with each
    # restart, which keeps restarts independent of one another.
    hint = None

    def neg(x):
        nonlocal hint
        val, _, _, _, hint = _fac_candidate(x, L, G, P, hint)
        return 1e6 if not np.isfinite(val) else -val

    best = None
    box_bounds = [(0.0, 1.0)] * (2 * L)
    for i in range(restarts):
        hint = None
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(seed, spawn_key=(i,)))
        )
        if i % 2 == 0:
            # Corner/edge/center starts: the repair step maps these onto the
            # boundary of the free-will cap, where the extremal settings live.
            x0 = rng.choice([0.0, 0.5, 1.0], size=2 * L)
        else:
            x0 = rng.uniform(0.0, 1.0, size=2 * L)
        res = minimize(
            neg, x0, method="Powell", bounds=box_bounds,
            options={"maxfev": maxfev, "xtol": 1e-8, "ftol": 1e-12},
        )
        cand_val, rho, q, g, _ = _fac_candidate(res.x, L, G, P, hint)
        if not np.isfinite(cand_val):
            continue
        pos = q.argmin(axis=1)
        ms = np.empty((L, 2))
        ns = np.empty((L, 2))
        for lam in range(L):
            ms[lam], ns[lam] = _pattern_marginals(int(pos[lam]), g[lam])
        val = _finalize(G, P, rho, q.reshape(L, 2, 2), ms, ns, tol)
        if val is not None and (best is None or val > best):
            best = val
    if best is None:
        raise OracleError(f"no feasible factorizable model found at G={G}, P={P}")
    return best
