"""Small dense two-phase simplex solver.

Solves  min c.x  subject to  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0,
entirely in double precision.  Bland's rule guards against cycling; problem
sizes here are at most a few hundred variables, so the dense tableau is fine.

No answer is returned without a feasibility check against the original
rows: x >= -1e-9 and |B x_B - b| <= 1e-9 for the final basis B, or the solve
raises InfeasibleError: a pivoted tableau's rounding errors can leave its
vertex missing an equality by ~1e-6 (one free-will test LP in 600).  A solve
keeps its tableau's vertex when it has no entry below -1e-12 and passes.
Otherwise rounds of fresh solves with the basis take over: x_B from
B x_B = b and the reduced costs obj - A^T y from B^T y = obj_B.  When the
reduced costs are nonnegative and some x_B is below -1e-12, dual simplex
pivots continue on a tableau rebuilt from B; when a reduced cost is
negative, primal simplex pivots do.

Every solve starts from the slack and artificial columns and returns its
final basis, from which a caller can read the LP's duals (the fac oracle's
bound does).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TOL = 1e-10  # negative reduced costs below -_TOL let a column enter
_PIVOT_TOL = 1e-9  # smallest pivot, relative to the largest entry it competes with
_CLEAN_TOL = 1e-12  # x_B below -_CLEAN_TOL is cleaned up by dual pivots
FEASIBILITY_TOL = 1e-9  # the returned x_B is never below -FEASIBILITY_TOL
_ROUNDS = 4  # fresh solves with B that may be followed by pivots


class InfeasibleError(RuntimeError):
    pass


class UnboundedError(RuntimeError):
    pass


@dataclass(frozen=True)
class LPResult:
    """Optimal x (of the caller's variables) and objective value.

    ``basis`` lists the basic column of each constraint row, numbering the
    caller's variables first, then one slack per ``A_ub`` row; an entry past
    those is an artificial column left on a redundant row.  ``pivots`` counts
    the simplex pivots made.
    """

    x: np.ndarray
    fun: float
    basis: np.ndarray
    pivots: int = 0


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    basis[row] = col


def _simplex_phase(T: np.ndarray, basis: np.ndarray, ncols: int) -> int:
    """Run simplex iterations on tableau T (last row = objective, last column
    = rhs) until optimal and return the number of pivots.  Only columns
    < ncols may enter the basis.  The scans run over Python floats: at these
    sizes that beats a chain of numpy calls per pivot."""
    pivots = 0
    while True:
        for entering, cost in enumerate(T[-1, :ncols].tolist()):
            if cost < -_TOL:
                break  # Bland: smallest eligible index
        else:
            return pivots
        col = T[:-1, entering].tolist()
        rhs = T[:-1, -1].tolist()
        least = _PIVOT_TOL * max(1.0, max(col, default=0.0))
        row, best = -1, np.inf
        for i, a in enumerate(col):
            if a > least:
                ratio = rhs[i] / a
                if ratio < best or (ratio == best and basis[i] < basis[row]):
                    row, best = i, ratio
        if row < 0:
            raise UnboundedError("LP is unbounded")
        _pivot(T, basis, row, entering)
        pivots += 1


def _dual_phase(T: np.ndarray, basis: np.ndarray, ncols: int) -> int:
    """Dual simplex iterations on a tableau whose costs are nonnegative, until
    no rhs entry is below -_CLEAN_TOL or no pivot can raise the row chosen;
    return the number of pivots.  Bland's rule on both indices."""
    pivots = 0
    while True:
        rows = np.flatnonzero(T[:-1, -1] < -_CLEAN_TOL)
        if rows.size == 0:
            return pivots
        row = rows[np.argmin(basis[rows])]
        r = T[row, :ncols].tolist()
        costs = T[-1, :ncols].tolist()
        least = -_PIVOT_TOL * max(1.0, -min(r, default=0.0))
        entering, best = -1, np.inf
        for j, a in enumerate(r):
            if a < least and costs[j] / -a < best:
                entering, best = j, costs[j] / -a
        if entering < 0:
            return pivots
        _pivot(T, basis, row, entering)
        pivots += 1


def _optimize(
    A: np.ndarray, b: np.ndarray, obj: np.ndarray, basis: np.ndarray, ncols: int,
) -> tuple[np.ndarray, int] | None:
    """Optimize from ``basis`` (updated in place) and return x_B of the final
    basis with the pivots made, or None when a basis is singular or the last
    one fails the feasibility check.  Only columns < ncols may enter."""
    m = b.size
    pivots = 0
    for rnd in range(_ROUNDS + 1):
        B = A[:, basis]
        try:
            x_B = np.linalg.solve(B, b)
            costs = obj[:ncols] - A[:, :ncols].T @ np.linalg.solve(B.T, obj[basis])
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(x_B).all():
            return None
        dual = costs.min(initial=0.0) >= -_TOL
        if (dual and x_B.min(initial=0.0) >= -_CLEAN_TOL) or rnd == _ROUNDS:
            break
        T = np.empty((m + 1, ncols + 1))
        T[:m, :ncols] = np.linalg.solve(B, A[:, :ncols])
        T[-1, :ncols] = costs
        if dual:
            T[:m, -1] = x_B
            step = _dual_phase(T, basis, ncols)
        else:
            # Primal pivots need x_B >= 0: they optimize for the right-hand
            # side B max(x_B, 0), and the next round's dual pivots move the
            # optimum back to b.
            T[:m, -1] = np.maximum(x_B, 0.0)
            step = _simplex_phase(T, basis, ncols)
        if step == 0:
            break
        pivots += step
    x_B = _feasible(B, b, x_B)
    return None if x_B is None else (x_B, pivots)


def _feasible(B: np.ndarray, b: np.ndarray, x_B: np.ndarray) -> np.ndarray | None:
    """x_B with entries in [-FEASIBILITY_TOL, 0) set to 0, or None unless it
    then solves B x_B = b to FEASIBILITY_TOL."""
    if x_B.min(initial=0.0) < -FEASIBILITY_TOL:
        return None
    x_B = np.maximum(x_B, 0.0)
    if np.abs(B @ x_B - b).max(initial=0.0) > FEASIBILITY_TOL:
        return None
    return x_B


def solve_lp(
    c: np.ndarray,
    A_ub: np.ndarray | None = None,
    b_ub: np.ndarray | None = None,
    A_eq: np.ndarray | None = None,
    b_eq: np.ndarray | None = None,
    maximize: bool = False,
) -> LPResult:
    c = np.asarray(c, dtype=float)
    n = c.size
    A_ub = np.zeros((0, n)) if A_ub is None else np.asarray(A_ub, dtype=float)
    A_eq = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float)
    n_slack = A_ub.shape[0]
    m = n_slack + A_eq.shape[0]
    total = n + n_slack
    b = np.concatenate([
        np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).ravel(),
        np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel(),
    ])
    # Normalize to b >= 0 (flips slack signs where needed).
    neg = b < 0
    b[neg] *= -1.0

    # Initial basis: slack columns where usable, artificials elsewhere.
    slack_rows = (np.arange(m) < n_slack) & ~neg
    art_rows = np.flatnonzero(~slack_rows)
    n_art = art_rows.size
    A = np.zeros((m, total + n_art))
    A[:n_slack, :n] = A_ub
    A[np.arange(n_slack), n + np.arange(n_slack)] = 1.0
    A[n_slack:, :n] = A_eq
    A[neg, :total] *= -1.0
    A[art_rows, total + np.arange(n_art)] = 1.0
    obj = np.concatenate([-c if maximize else c, np.zeros(n_slack + n_art)])
    basis = np.where(slack_rows, n + np.arange(m), 0)
    basis[art_rows] = total + np.arange(n_art)
    pivots = 0

    T = np.zeros((m + 1, total + n_art + 1))
    T[:m, :-1] = A
    T[:m, -1] = b
    if n_art:
        # Phase 1: minimize the artificial total.
        T[-1, total:-1] = 1.0
        T[-1] -= T[art_rows].sum(axis=0)
        pivots += _simplex_phase(T, basis, total + n_art)
        if T[-1, -1] < -1e-7:
            raise InfeasibleError(f"phase-1 residual {-T[-1, -1]:.3g}")
        # Drive any lingering artificials out of the basis.
        for i in np.flatnonzero(basis >= total):
            j = np.argmax(np.abs(T[i, :total]))
            if abs(T[i, j]) > _PIVOT_TOL:
                _pivot(T, basis, i, j)
                pivots += 1

    # Phase 2 on the same tableau.  Its vertex is kept when it is clean
    # (x_B >= -_CLEAN_TOL) and passes the feasibility check against the
    # original rows; otherwise rounds of fresh solves repair what the
    # tableau's rounding errors left.
    T[-1, :-1] = obj
    T[-1, -1] = 0.0
    T[-1] -= obj[basis] @ T[:m]
    pivots += _simplex_phase(T, basis, total)
    x_B = T[:m, -1]
    if x_B.min(initial=0.0) >= -_CLEAN_TOL:
        x_B = _feasible(A[:, basis], b, x_B)
    else:
        x_B = None
    found = (x_B, 0) if x_B is not None else _optimize(A, b, obj, basis, total)
    if found is None:
        raise InfeasibleError("no basis passes the feasibility check")
    real = basis < total
    x = np.zeros(total)
    x[basis[real]] = found[0][real]
    fun = float(obj[:total] @ x)
    return LPResult(x=x[:n], fun=-fun if maximize else fun, basis=basis,
                    pivots=pivots + found[1])
