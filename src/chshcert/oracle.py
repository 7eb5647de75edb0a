"""Independent verification of the trade-off bounds by optimization.

Three oracles, none of which trusts the closed forms:

* :func:`maximize_S_ns` -- exact linear program over no-signalling
  hidden-variable models at fixed (G, P).
* :func:`lp_deterministic_max_S` -- the same program over local deterministic
  strategies alone (the G = 1 case).
* :func:`maximize_S_fac` -- randomized multi-start search over models whose
  settings distributions all factorize.

Every reported value is the exact ``observed_S`` of a model that passed the
core validity checks, so soundness (never exceeding a correct bound) holds by
construction up to the feasibility tolerance.

The vertex LP.  Every no-signalling box is a mixture of the 16 local
deterministic boxes (guessing value 1) and the 8 PR boxes (guessing value
1/2) (Barrett et al., PRA 71, 022101 (2005)).  With one component per vertex
box v and w(v, jk) = rho(v) q_v(j, k), every constraint is linear:

    sum_v w(v, jk) = 1/4                    uniform observed inputs,
    sum_v g_v sum_jk w(v, jk) = G           guessing probability,
    w(v, jk) <= P sum_j'k' w(v, j'k')       free will,

and so is S = 4 sum_{v,jk} (-1)**jk E_v(jk) w(v, jk).  Its optimum V(G) is
also an upper bound.  Splitting a component of any model into vertex boxes
with the same settings keeps S, P and the uniform inputs and can only raise
G, because a box's guessing value is convex.  V is concave in G and equals
its maximum 4 at G = 1/2, so it does not increase in G; hence no model with
guessing probability G beats V(G).  At G = 1 every box must have
deterministic marginals, and the extremal no-signalling boxes with
deterministic marginals are the deterministic ones, so
:func:`lp_deterministic_max_S` keeps their 16 columns and drops the G row.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import core
from .bounds import DomainError, check_G, check_P
from .core import Box, HiddenVariableModel, SettingsDistribution, box_from_marginals
from .simplex import InfeasibleError, UnboundedError, solve_lp

FEASIBILITY_TOL = 1e-9
# Vertex components lighter than this are LP rounding noise; their settings
# w / rho would be meaningless.
_MIN_WEIGHT = 1e-12


class OracleError(RuntimeError):
    """No feasible model was found."""


def deterministic_strategies() -> list[tuple[int, int, int, int]]:
    """All 16 local deterministic strategies (a0, a1, b0, b1)."""
    return list(itertools.product((0, 1), repeat=4))


def _pr_boxes() -> list[Box]:
    """The 8 PR boxes: p(a,b|j,k) = 1/2 iff a xor b = jk xor xj xor yk xor z."""
    boxes = []
    for x, y, z in itertools.product((0, 1), repeat=3):
        p = np.zeros((2, 2, 2, 2))
        for a, j, k in itertools.product((0, 1), repeat=3):
            p[a, a ^ (j & k) ^ (x & j) ^ (y & k) ^ z, j, k] = 0.5
        boxes.append(Box(p))
    return boxes


@functools.lru_cache(maxsize=None)
def _vertices() -> tuple[tuple[Box, ...], np.ndarray, np.ndarray]:
    """The 16 deterministic boxes then the 8 PR boxes, their objective rows
    4 (-1)**jk E_v(jk) (shape (24, 4)) and their guessing values."""
    boxes = tuple(core.deterministic_box(*s) for s in deterministic_strategies())
    boxes += tuple(_pr_boxes())
    obj = np.stack([4.0 * (core.SETTING_SIGN * b.correlators()).ravel() for b in boxes])
    g = np.array([b.guessing_value() for b in boxes])
    return boxes, obj, g


def _vertex_model(P: float, G: float | None) -> HiddenVariableModel:
    """Optimal model of the vertex LP: over all 24 vertex boxes with the
    guessing row, or over the 16 deterministic ones without it when G is
    None."""
    boxes, obj, g = _vertices()
    n = len(boxes) if G is not None else 16
    A_eq = np.tile(np.eye(4), n)
    b_eq = np.full(4, 0.25)
    if G is not None:
        A_eq = np.vstack([A_eq, np.repeat(g, 4)])
        b_eq = np.append(b_eq, G)
    try:
        res = solve_lp(obj[:n].ravel(), A_ub=np.kron(np.eye(n), np.eye(4) - P),
                       b_ub=np.zeros(4 * n), A_eq=A_eq, b_eq=b_eq, maximize=True)
    except (InfeasibleError, UnboundedError) as exc:
        raise OracleError(f"vertex LP failed at G={G}, P={P}: {exc}") from exc
    w = res.x.reshape(n, 4)
    rho = w.sum(axis=1)
    return HiddenVariableModel(tuple(
        (rho[v], _capped_settings(w[v] / rho[v], P), boxes[v])
        for v in np.flatnonzero(rho > _MIN_WEIGHT)
    ))


def _capped_settings(q: np.ndarray, P: float) -> SettingsDistribution:
    """q = w / rho moved into [0, P] with its sum kept at 1.

    Dividing by a light component's weight magnifies the LP's rounding
    error: at (G, P) = (1, 0.50049) a component of weight 1e-6 came out
    6e-9 above the cap.  The move is of that size, and it shifts the
    uniform rows by at most the weight times the move."""
    q = np.clip(q, 0.0, P)
    short = 1.0 - q.sum()
    if short > 0.0:
        q += short * (P - q) / (P - q).sum()  # the room sums to 4P - 1 + short
    else:
        q /= q.sum()
    return SettingsDistribution(q)


def _validated_S(model: HiddenVariableModel, G: float, P: float, tol: float) -> float:
    val = _finalize(G, P, model, tol)
    if val is None:
        raise OracleError(f"the vertex LP's model fails validation at G={G}, P={P}")
    return val


def lp_deterministic_max_S(P: float) -> float:
    """Exact maximum of the observed CHSH value over mixtures of local
    deterministic strategies with free-will parameter at most P, subject to
    uniform observed inputs: the validated S of the optimal model."""
    check_P(P)
    return _validated_S(_vertex_model(P, None), 1.0, P, FEASIBILITY_TOL)


def maximize_S_ns(
    G: float,
    P: float,
    components: int = 4,
    restarts: int = 100,
    seed: int = 0,
    tol: float = FEASIBILITY_TOL,
) -> float:
    """Exact maximum of the observed CHSH value over no-signalling models with
    guessing probability G, free-will parameter at most P and uniform
    observed inputs: the validated S of the vertex LP's optimal model.

    The value is exact in both directions (see the module docstring), so
    ``components``, ``restarts`` and ``seed`` do not change it.  They are
    still checked (at least 4 components and 1 restart), as for
    :func:`maximize_S_fac`, which takes the same arguments."""
    check_G(G)
    check_P(P)
    if components < 4:
        raise DomainError("at least 4 components are required")
    if restarts < 1:
        raise DomainError("at least one restart is required")
    return _validated_S(_vertex_model(P, G), G, P, tol)


# ---------------------------------------------------------------------------
# Shared machinery for the factorizable oracle.
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


def _assemble_model(
    rho: np.ndarray, q: np.ndarray, ms: np.ndarray, ns: np.ndarray
) -> HiddenVariableModel:
    comps = []
    for lam in range(len(rho)):
        box = box_from_marginals(ms[lam], ns[lam], _optimal_c(ms[lam], ns[lam]))
        comps.append((float(rho[lam]), SettingsDistribution(q[lam]), box))
    return HiddenVariableModel(tuple(comps))


def _finalize(G: float, P: float, model: HiddenVariableModel, tol: float) -> float | None:
    """Validate a candidate and return its exact observed CHSH value, or None
    when it misses the (G, P, uniformity) constraints."""
    report = core.validate(model, tol)
    if not report.valid:
        return None
    if abs(report.G - G) > tol or report.P > P + tol:
        return None
    return report.S


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

    check_G(G)
    check_P(P)
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
        val = _finalize(G, P, _assemble_model(rho, q.reshape(L, 2, 2), ms, ns), tol)
        if val is not None and (best is None or val > best):
            best = val
    if best is None:
        raise OracleError(f"no feasible factorizable model found at G={G}, P={P}")
    return best
