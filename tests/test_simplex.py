"""Tests for the dense two-phase simplex solver, cross-checked against scipy."""

import numpy as np
import pytest
from scipy.optimize import linprog

from chshcert.simplex import InfeasibleError, UnboundedError, solve_lp


def test_basic_maximization():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6.
    res = solve_lp(
        np.array([1.0, 1.0]),
        A_ub=np.array([[1.0, 2.0], [3.0, 1.0]]),
        b_ub=np.array([4.0, 6.0]),
        maximize=True,
    )
    assert res.fun == pytest.approx(2.8, abs=1e-10)
    np.testing.assert_allclose(res.x, [1.6, 1.2], atol=1e-10)


def test_equality_constraints():
    # min x + 2y + 3z s.t. x + y + z = 1, x - y = 0.
    res = solve_lp(
        np.array([1.0, 2.0, 3.0]),
        A_eq=np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]]),
        b_eq=np.array([1.0, 0.0]),
    )
    assert res.fun == pytest.approx(1.5, abs=1e-10)


def test_infeasible_raises():
    with pytest.raises(InfeasibleError):
        solve_lp(
            np.array([1.0]),
            A_eq=np.array([[1.0], [1.0]]),
            b_eq=np.array([1.0, 2.0]),
        )


def test_unbounded_raises():
    with pytest.raises(UnboundedError):
        solve_lp(np.array([1.0, 0.0]), maximize=True,
                 A_ub=np.array([[0.0, 1.0]]), b_ub=np.array([1.0]))


def test_negative_rhs_handled():
    # x >= 2 written as -x <= -2; min x should hit 2.
    res = solve_lp(np.array([1.0]), A_ub=np.array([[-1.0]]), b_ub=np.array([-2.0]))
    assert res.fun == pytest.approx(2.0, abs=1e-10)


def test_degenerate_vertex_terminates():
    # Multiple constraints meet at the optimum; Bland's rule must not cycle.
    res = solve_lp(
        np.array([-0.75, 150.0, -0.02, 6.0]),
        A_ub=np.array([
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]),
        b_ub=np.array([0.0, 0.0, 1.0]),
    )
    assert res.fun == pytest.approx(-0.05, abs=1e-9)


def test_matches_scipy_on_random_problems():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = rng.integers(2, 7)
        m = rng.integers(1, 5)
        c = rng.normal(size=n)
        A_ub = rng.normal(size=(m, n))
        b_ub = rng.uniform(0.5, 2.0, size=m)  # origin feasible
        # Box rows keep the problem bounded.
        A_ub = np.vstack([A_ub, np.eye(n)])
        b_ub = np.concatenate([b_ub, np.full(n, 3.0)])
        mine = solve_lp(c, A_ub=A_ub, b_ub=b_ub)
        ref = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(0, None), method="highs")
        assert ref.success
        assert mine.fun == pytest.approx(ref.fun, abs=1e-8)


def test_matches_scipy_with_equalities():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = 6
        c = rng.normal(size=n)
        A_eq = rng.normal(size=(2, n))
        x_feas = rng.uniform(0.1, 1.0, size=n)
        b_eq = A_eq @ x_feas  # guaranteed feasible
        A_ub = np.eye(n)
        b_ub = np.full(n, 5.0)
        mine = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
        ref = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                      bounds=(0, None), method="highs")
        assert ref.success
        assert mine.fun == pytest.approx(ref.fun, abs=1e-8)


# ---------------------------------------------------------------------------
# The oracles' LP shapes.

_SETTING_SIGN = np.array([1.0, 1.0, 1.0, -1.0])  # (-1)**(j*k), (j,k) = 00..11


def _ns_lp(rng, L=4):
    """An LP with free-will rows, the w-step of an earlier ns oracle:
    w(lam, jk) for random correlators E and guessing values g (g[0] = G, so
    all weight on component 0 is feasible)."""
    G, P = rng.uniform(0.5, 1.0), rng.uniform(0.25, 1.0 / 3.0)
    g = rng.uniform(0.5, 1.0, L)
    g[0] = G
    E = rng.uniform(-1.0, 1.0, (L, 4))
    return {
        "c": (4.0 * _SETTING_SIGN * E).ravel(),
        "A_ub": np.kron(np.eye(L), np.eye(4) - P), "b_ub": np.zeros(4 * L),
        "A_eq": np.vstack([np.tile(np.eye(4), L), np.repeat(g, 4)[None, :]]),
        "b_eq": np.concatenate([np.full(4, 0.25), [G]]),
    }


def _fac_lp(u, v, G, penalty=1000.0):
    """The fac oracle's inner LP over (rho, t, slack+, slack-) for the
    product settings q = (u v, u (1-v), (1-u) v, (1-u)(1-v))."""
    L = len(u)
    q = np.stack([u * v, u * (1 - v), (1 - u) * v, (1 - u) * (1 - v)], axis=1)
    A_eq = np.zeros((6, 2 * L + 8))
    A_eq[:4, :L] = q.T
    A_eq[:4, 2 * L:2 * L + 4] = np.eye(4)
    A_eq[:4, 2 * L + 4:] = -np.eye(4)
    A_eq[4, :L] = 1.0
    A_eq[5, L:2 * L] = 1.0
    return {
        "c": np.concatenate([np.zeros(L), -8.0 * q.min(axis=1), np.full(8, -penalty)]),
        "A_ub": np.hstack([-np.eye(L), np.eye(L), np.zeros((L, 8))]),
        "b_ub": np.zeros(L), "A_eq": A_eq,
        "b_eq": np.array([0.25, 0.25, 0.25, 0.25, 1.0, 2.0 * G - 1.0]),
    }


def _solve(lp, basis=None):
    return solve_lp(lp["c"], A_ub=lp["A_ub"], b_ub=lp["b_ub"], A_eq=lp["A_eq"],
                    b_eq=lp["b_eq"], maximize=True, basis=basis)


def _violation(lp, x):
    return max(
        (lp["A_ub"] @ x - lp["b_ub"]).max(),
        np.abs(lp["A_eq"] @ x - lp["b_eq"]).max(),
        -x.min(),
    )


def _assert_certified(lp, res):
    """The returned basis proves the answer optimal: B x_B = b has a
    nonnegative solution equal to res.x, and no reduced cost is negative."""
    n, m_ub = lp["c"].size, lp["b_ub"].size
    A = np.vstack([
        np.hstack([lp["A_ub"], np.eye(m_ub)]),
        np.hstack([lp["A_eq"], np.zeros((lp["b_eq"].size, m_ub))]),
    ])
    b = np.concatenate([lp["b_ub"], lp["b_eq"]])
    obj = -np.concatenate([lp["c"], np.zeros(m_ub)])
    assert res.basis.max() < n + m_ub
    B = A[:, res.basis]
    x_B = np.linalg.solve(B, b)
    assert x_B.min() >= -1e-9
    x = np.zeros(n + m_ub)
    x[res.basis] = x_B
    np.testing.assert_allclose(res.x, x[:n], atol=1e-9, rtol=0)
    costs = obj - A.T @ np.linalg.solve(B.T, obj[res.basis])
    assert costs.min() >= -1e-9
    assert res.fun == pytest.approx(lp["c"] @ res.x, abs=1e-9)


def test_ns_shaped_lps_are_feasible_and_optimal():
    # A pivoted tableau's rounding errors can leave its vertex missing an
    # equality by ~1e-6 (one of these 600 LPs did); every answer must still
    # be feasible.
    rng = np.random.default_rng(2)
    for i in range(600):
        lp = _ns_lp(rng)
        res = _solve(lp)
        ref = linprog(-lp["c"], A_ub=lp["A_ub"], b_ub=lp["b_ub"], A_eq=lp["A_eq"],
                      b_eq=lp["b_eq"], bounds=(0, None), method="highs")
        assert ref.success
        assert _violation(lp, res.x) <= 1e-9, i
        assert res.fun == pytest.approx(-ref.fun, abs=1e-7), i


def test_fac_shaped_lps_carry_an_optimality_certificate():
    # HiGHS is no reference here: with the 1000 penalty its 1e-7 feasibility
    # tolerance lets it read up to ~1e-4 above the optimum.
    rng = np.random.default_rng(11)
    for _ in range(300):
        u, v = rng.uniform(0.0, 1.0, (2, 4))
        lp = _fac_lp(u, v, rng.uniform(0.5, 1.0))
        res = _solve(lp)
        assert _violation(lp, res.x) <= 1e-9
        _assert_certified(lp, res)


def test_warm_start_matches_cold_along_a_random_walk():
    # Steps like a coordinate search's: one setting probability at a time.
    rng = np.random.default_rng(3)
    zero_pivot = solves = 0
    for _ in range(20):
        uv = rng.uniform(0.0, 1.0, 8)
        G = rng.uniform(0.5, 1.0)
        basis = None
        for _ in range(40):
            k = rng.integers(8)
            uv[k] = np.clip(uv[k] + rng.normal(0.0, 0.05), 0.0, 1.0)
            lp = _fac_lp(uv[:4], uv[4:], G)
            cold = _solve(lp)
            warm = _solve(lp, basis)
            assert warm.fun == pytest.approx(cold.fun, abs=1e-9)
            assert _violation(lp, warm.x) <= 1e-9
            _assert_certified(lp, warm)
            solves += basis is not None
            zero_pivot += warm.warm and warm.pivots == 0
            basis = warm.basis
    assert zero_pivot >= 0.5 * solves


def test_optimal_hint_needs_no_pivot():
    lp = _fac_lp(np.array([0.6, 0.3, 0.5, 0.9]), np.array([0.4, 0.7, 0.5, 0.2]), 0.8)
    cold = _solve(lp)
    assert not cold.warm and cold.pivots > 0
    warm = _solve(lp, cold.basis)
    assert warm.warm and warm.pivots == 0
    assert warm.fun == pytest.approx(cold.fun, abs=1e-12)
    np.testing.assert_array_equal(warm.basis, cold.basis)


def test_bad_hints_give_the_cold_answer():
    lp = _fac_lp(np.array([0.6, 0.3, 0.5, 0.9]), np.array([0.4, 0.7, 0.5, 0.2]), 0.8)
    cold = _solve(lp)
    L, total = 4, lp["c"].size + lp["b_ub"].size
    rejected = [
        cold.basis[:-1],                       # wrong length
        cold.basis.astype(float),              # not column indices
        np.r_[cold.basis[:-1], total],         # an artificial column
        np.r_[cold.basis[:-1], -1],            # out of range
        np.r_[cold.basis[:-1], cold.basis[0]],  # a repeated column
        # slack+ and slack- of one uniformity row are opposite columns
        np.r_[2 * L, 2 * L + 4, cold.basis[2:]],
    ]
    for hint in rejected:
        res = _solve(lp, hint)
        assert not res.warm
        assert res.fun == cold.fun
        np.testing.assert_array_equal(res.x, cold.x)
    # A hint that is a basis but not a feasible one is repaired by pivoting,
    # or dropped; either way the answer is the optimum.
    rng = np.random.default_rng(5)
    for _ in range(50):
        hint = rng.choice(total, size=cold.basis.size, replace=False)
        res = _solve(lp, hint)
        assert res.fun == pytest.approx(cold.fun, abs=1e-9)
        _assert_certified(lp, res)


def test_hint_on_infeasible_lp_still_raises():
    A_eq = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(InfeasibleError):
        solve_lp(np.array([1.0, 1.0]), A_eq=A_eq, b_eq=np.array([1.0, 2.0]),
                 basis=np.array([0, 1]))
