"""Independent verification of the trade-off bounds by optimization.

Three oracles, none of which trusts the closed forms, all exact:

* :func:`maximize_S_ns` -- linear program over no-signalling hidden-variable
  models at fixed (G, P).
* :func:`lp_deterministic_max_S` -- the same program over local deterministic
  strategies alone (the G = 1 case).
* :func:`maximize_S_fac` -- column generation over models whose settings
  distributions all factorize, closed by a certified dual bound.

Every reported value is the exact ``observed_S`` of a model that passed the
core validity checks, so soundness (never exceeding a correct bound) holds by
construction up to the feasibility tolerance.

The column LP.  Every no-signalling box is a mixture of the 16 local
deterministic boxes (guessing value 1) and the 8 PR boxes (guessing value
1/2) (Barrett et al., PRA 71, 022101 (2005)).  All three oracles solve an
LP over columns c = (vertex box v, settings q_c) with weights rho_c >= 0,
rows sum_c rho_c q_c(jk) = 1/4 (uniform inputs, which imply
sum_c rho_c = 1) and sum_c g_v rho_c = G, and objective
S = sum_c rho_c 4 sum_jk (-1)**jk E_v(jk) q_c(jk) (:func:`_column_lp`).

The no-signalling LP.  The settings of one vertex box, scaled by its
weight, may be any w >= 0 with w(jk) <= P sum_j'k' w(j'k'): the cone over
the capped simplex Q_P = {q >= 0, sum q = 1, q <= P}.  The cone is spanned
by the vertices of Q_P, whose entries all lie in {0, P} but at most one
(:func:`_capped_simplex_vertices`), so the columns are every vertex box
with every vertex of Q_P: at most 24 x 12 of them, five rows.  Its optimum
V(G) is also an upper bound.  Splitting a component of any model into
vertex boxes with the same settings keeps S, P and the uniform inputs and
can only raise G, because a box's guessing value is convex.  V is concave
in G and equals its maximum 4 at G = 1/2, so it does not increase in G;
hence no model with guessing probability G beats V(G).  At G = 1 every box
must have deterministic marginals, and the extremal no-signalling boxes
with deterministic marginals are the deterministic ones, so
:func:`lp_deterministic_max_S` keeps their columns and drops the G row.

The factorizable LP.  Splitting a component into vertex boxes keeps its
settings, so products stay products, and the same argument bounds every
factorizable model by the column LP over settings
q(u, w) = (uw, u(1-w), (1-u)w, (1-u)(1-w)) with the free-will cap
max(u, 1-u) max(w, 1-w) <= P.  As sum_c rho_c = 1, any dual vector y gives
V <= y.b + max(0, max_c r_c(y)) with r_c the reduced cost of column c.  The
settings form a continuum, so columns are priced rather than enumerated
(column generation): r is bilinear in (u, w) and its maximum over the cap
region has a closed form (:func:`_price`).  The master LP starts from five
settings per vertex and takes the best-priced column until none prices
above 1e-12; a gap above 1e-9 between the bound and the value raises.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import core
from .bounds import DomainError, check_G, check_P
from .core import Box, HiddenVariableModel, SettingsDistribution
from .simplex import InfeasibleError, LPResult, UnboundedError, solve_lp

FEASIBILITY_TOL = 1e-9
# LP columns lighter than this are rounding noise; the witness models leave
# them out, which moves the uniform rows by at most this much per column.
_MIN_WEIGHT = 1e-12


class OracleError(RuntimeError):
    """An oracle's LP failed, or its witness model or dual bound did not
    check out."""


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


def _capped_simplex_vertices(P: float) -> np.ndarray:
    """The vertices of Q_P = {q >= 0, sum q = 1, q <= P}, one per row: m =
    floor(1/P) entries P, one entry 1 - mP and zeros, in every arrangement.
    There are 1, 4, 12, 6, 12 or 4 of them for P = 1/4, 1/4 < P <= 1/3,
    1/3 < P < 1/2, P = 1/2, 1/2 < P < 1 and P = 1."""
    m = min(int(1.0 / P), 4)
    pattern = ((P,) * m + (max(1.0 - m * P, 0.0), 0.0, 0.0, 0.0))[:4]
    return np.array(sorted(set(itertools.permutations(pattern))))


def _column_lp(
    verts: np.ndarray, q: np.ndarray, G: float | None, P: float,
) -> tuple[HiddenVariableModel, LPResult, np.ndarray, np.ndarray, np.ndarray]:
    """Solve the column LP over (vertex box verts[c], settings q[c]), with
    the guess row unless G is None.  Return the witness model, one component
    per column heavier than _MIN_WEIGHT, and the LP's result, cost, A_eq and
    b_eq."""
    boxes, obj, g = _vertices()
    cost = (obj[verts] * q).sum(axis=1)
    A_eq = q.T
    b_eq = np.full(4, 0.25)
    if G is not None:
        A_eq = np.vstack([A_eq, g[verts]])
        b_eq = np.append(b_eq, G)
    try:
        res = solve_lp(cost, A_eq=A_eq, b_eq=b_eq, maximize=True)
    except (InfeasibleError, UnboundedError) as exc:
        raise OracleError(f"column LP failed at G={G}, P={P}: {exc}") from exc
    model = HiddenVariableModel(tuple(
        (res.x[c], SettingsDistribution(q[c]), boxes[verts[c]])
        for c in np.flatnonzero(res.x > _MIN_WEIGHT)
    ))
    return model, res, cost, A_eq, b_eq


def _vertex_model(P: float, G: float | None) -> HiddenVariableModel:
    """Witness of the no-signalling LP, or of the deterministic one (its 16
    boxes, no guess row) when G is None."""
    n = 24 if G is not None else 16
    corners = _capped_simplex_vertices(P)
    return _column_lp(np.repeat(np.arange(n), len(corners)),
                      np.tile(corners, (n, 1)), G, P)[0]


def _validated_S(
    model: HiddenVariableModel, G: float, P: float, tol: float, factorizable: bool = False
) -> float:
    """The exact observed S of a witness model that passes validation, has
    guessing probability G and free-will parameter at most P to ``tol``, and
    factorizes when asked to; otherwise OracleError."""
    report = core.validate(model, tol)
    if not (report.valid and abs(report.G - G) <= tol and report.P <= P + tol
            and (report.factorizable or not factorizable)):
        raise OracleError(f"the LP's witness model fails validation at G={G}, "
                          f"P={P}: {report}")
    return report.S


def lp_deterministic_max_S(P: float) -> float:
    """Exact maximum of the observed CHSH value over mixtures of local
    deterministic strategies with free-will parameter at most P, subject to
    uniform observed inputs: the validated S of the optimal model."""
    check_P(P)
    return _validated_S(_vertex_model(P, None), 1.0, P, FEASIBILITY_TOL)


def _check_oracle_args(G: float, P: float, restarts: int) -> None:
    check_G(G)
    check_P(P)
    if restarts < 1:
        raise DomainError("at least one restart is required")


def maximize_S_ns(
    G: float,
    P: float,
    restarts: int = 100,
    seed: int = 0,
    tol: float = FEASIBILITY_TOL,
) -> float:
    """Exact maximum of the observed CHSH value over no-signalling models with
    guessing probability G, free-will parameter at most P and uniform
    observed inputs: the validated S of the vertex LP's optimal model.

    The value is exact in both directions (see the module docstring), so
    ``restarts`` and ``seed`` do not change it.  ``restarts`` is still
    checked (at least 1), as by :func:`maximize_S_fac`, which takes the same
    arguments."""
    _check_oracle_args(G, P, restarts)
    return _validated_S(_vertex_model(P, G), G, P, tol)


# ---------------------------------------------------------------------------
# Factorizable oracle: column generation over (vertex, product settings).

_PRICE_TOL = 1e-12  # a column enters when its reduced cost exceeds this
_GAP_TOL = 1e-9  # largest accepted gap between the dual bound and the value
_MAX_COLUMNS = 20  # priced columns one call may add before it gives up


def _product_settings(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """q(u, w) = p(j) p(k) with p(j=0) = u, p(k=0) = w, in entry order
    (j, k) = 00, 01, 10, 11 along a new last axis."""
    return np.stack([u * w, u * (1.0 - w), (1.0 - u) * w, (1.0 - u) * (1.0 - w)], axis=-1)


def _price(a: np.ndarray, P: float) -> tuple[float, int, float, float]:
    """Maximum of a[v] . q(u, w) over the rows v of ``a`` and the product
    settings within the free-will cap, as (value, v, u, w).

    The value is linear in w for fixed u, so it peaks at w = H or 1 - H with
    H = min(1, P / t) and t = max(u, 1 - u) in [1/2, min(2P, 1)].  Flipping
    Alice's setting (u -> 1 - u) or Bob's (w -> 1 - w) permutes a row's
    entries, so it is enough to take u = t, w = H over the four flips of
    each row.  There the value is linear in t where H = 1 (t <= P) and
    b t + c P / t + const with b = a01 - a11, c = a10 - a11 where H = P / t,
    whose only stationary point is t = sqrt(cP / b).  The maximum lies at
    that point clipped to its piece, at the kink max(1/2, P) or at an end.
    """
    hi = min(2.0 * P, 1.0)
    lo = min(max(0.5, P), hi)
    rows = a.reshape(-1, 2, 2)
    flips = np.stack([rows, rows[:, ::-1], rows[:, :, ::-1], rows[:, ::-1, ::-1]], axis=1)
    b = flips[..., 0, 1] - flips[..., 1, 1]
    c = flips[..., 1, 0] - flips[..., 1, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = c * P / b
    stationary = np.clip(np.sqrt(np.where(ratio > 0.0, ratio, lo * lo)), lo, hi)
    t = np.stack(np.broadcast_arrays(0.5, lo, hi, stationary), axis=-1)
    H = np.minimum(1.0, P / t)
    q = _product_settings(t, H).reshape(*t.shape, 2, 2)
    vals = np.einsum("vfjk,vftjk->vft", flips, q)
    v, f, i = np.unravel_index(np.argmax(vals), vals.shape)
    u, w = float(t[v, f, i]), float(H[v, f, i])
    return (float(vals[v, f, i]), int(v),
            1.0 - u if f in (1, 3) else u, 1.0 - w if f in (2, 3) else w)


def _start_settings(P: float) -> np.ndarray:
    """The (u, w) that the master LP takes with every vertex at first: the
    centre and, with h = min(2P, 1), (h, 1/2), (1 - h, 1/2), (1/2, h) and
    (1/2, 1 - h), the settings of ``build_fac_model_low_P``.  The centre
    column alone is feasible (rho_det = 2G - 1, rho_PR = 2 - 2G)."""
    h = min(2.0 * P, 1.0)
    return np.array([[0.5, 0.5], [h, 0.5], [1.0 - h, 0.5], [0.5, h], [0.5, 1.0 - h]])


def _fac_model(G: float, P: float) -> tuple[HiddenVariableModel, float]:
    """Witness model of the factorizable LP and the certified upper bound
    y.b + max(0, max_c r_c(y)) on its value.  The dual y solves
    B^T y = c_B over the final basis' real columns, by least squares when
    an artificial is left on a redundant row."""
    _, obj, g = _vertices()
    start = _start_settings(P)
    verts = np.repeat(np.arange(len(obj)), len(start))
    uw = np.tile(start, (len(obj), 1))
    for _ in range(_MAX_COLUMNS + 1):
        model, res, cost, A_eq, b_eq = _column_lp(
            verts, _product_settings(uw[:, 0], uw[:, 1]), G, P)
        basic = res.basis[res.basis < cost.size]
        y = np.linalg.lstsq(A_eq[:, basic].T, cost[basic], rcond=None)[0]
        # sum_jk q = 1, so the guess row's dual shifts a vertex's row evenly.
        r, v, u, w = _price(obj - y[:4] - y[4] * g[:, None], P)
        if r <= _PRICE_TOL:
            break
        verts = np.append(verts, v)
        uw = np.vstack([uw, (u, w)])
    return model, float(y @ b_eq + max(r, 0.0))


def maximize_S_fac(
    G: float,
    P: float,
    restarts: int = 100,
    seed: int = 0,
    tol: float = FEASIBILITY_TOL,
) -> float:
    """Exact maximum of the observed CHSH value over models whose settings
    distributions all factorize into independent Alice/Bob setting choices,
    with guessing probability G, free-will parameter at most P and uniform
    observed inputs: the validated S of the column-generation LP's
    factorizable witness model, within 1e-9 of the LP's certified upper
    bound or OracleError.

    ``restarts`` and ``seed`` do not change the value; ``restarts`` is
    checked as by :func:`maximize_S_ns`."""
    _check_oracle_args(G, P, restarts)
    model, upper = _fac_model(G, P)
    val = _validated_S(model, G, P, tol, factorizable=True)
    if upper - val > _GAP_TOL:
        raise OracleError(f"fac oracle's bound {upper!r} is {upper - val:.3g} above "
                          f"its value at G={G}, P={P}")
    return val
