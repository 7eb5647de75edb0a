"""Tests for the optimization oracles (fast configurations; the full
verification campaign lives in the acceptance suite)."""

import numpy as np
import pytest
from scipy.optimize import linprog

from chshcert import core, oracle
from chshcert.bounds import DomainError, s_max_fac, s_max_ns
from chshcert.core import box_from_marginals, validate
from chshcert.simplex import solve_lp
from chshcert.oracle import (
    deterministic_strategies,
    lp_deterministic_max_S,
    maximize_S_fac,
    maximize_S_ns,
)


def test_sixteen_distinct_deterministic_strategies():
    strategies = deterministic_strategies()
    assert len(strategies) == 16
    assert len(set(strategies)) == 16


class TestDeterministicLP:
    def test_matches_closed_form(self):
        for P in (0.25, 0.28, 0.3, 1.0 / 3.0, 0.4, 0.7, 1.0):
            expected = 4.0 - 8.0 * max(0.0, 1.0 - 3.0 * P)
            assert lp_deterministic_max_S(P) == pytest.approx(expected, abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            lp_deterministic_max_S(0.2)


class TestNoSignallingOracle:
    def test_reaches_the_bound(self):
        for G, P in [(1.0, 0.25), (0.75, 0.28), (0.9, 0.3), (0.6, 0.33), (0.5, 0.26)]:
            val = maximize_S_ns(G, P, restarts=10, seed=0)
            assert val == pytest.approx(s_max_ns(G, P)[0], abs=1e-9)

    def test_never_exceeds_the_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            G = float(rng.uniform(0.5, 1.0))
            P = float(rng.uniform(0.25, 1.0 / 3.0))
            val = maximize_S_ns(G, P, restarts=5, seed=1)
            assert val <= s_max_ns(G, P)[0] + 1e-6

    def test_deterministic_given_seed(self):
        # The value is exact: neither the seed nor the restarts move it.
        a = maximize_S_ns(0.8, 0.29, restarts=6, seed=5)
        assert maximize_S_ns(0.8, 0.29, restarts=6, seed=5) == a
        assert maximize_S_ns(0.8, 0.29, components=9, restarts=1, seed=0) == a

    def test_value_is_the_validated_S_of_a_witness(self, monkeypatch):
        seen = []

        def recording(model, tol):
            report = validate(model, tol)
            seen.append((model, report))
            return report

        monkeypatch.setattr(core, "validate", recording)
        rng = np.random.default_rng(3)
        # (1, 0.50049...) leaves a component of weight 1e-6 whose settings
        # w / rho exceed P by 6e-9 before they are capped.
        points = [(0.5, 0.25), (1.0, 1.0 / 3.0), (0.75, 0.6),
                  (1.0, 0.5004912117589237)] + [
            (float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.25, 1.0)))
            for _ in range(20)
        ]
        for G, P in points:
            seen.clear()
            val = maximize_S_ns(G, P)
            [(model, report)] = seen
            assert val == report.S
            strict = validate(model, 1e-9)
            assert strict.valid, strict.failures
            assert abs(strict.G - G) <= 1e-9
            assert strict.P <= P + 1e-9

    def test_G_one_is_the_deterministic_lp(self):
        for P in (0.25, 0.27, 0.3, 1.0 / 3.0, 0.5, 1.0):
            assert maximize_S_ns(1.0, P) == pytest.approx(
                lp_deterministic_max_S(P), abs=1e-12)

    def test_saturates_above_one_third(self):
        for G in (0.5, 0.75, 1.0):
            for P in (0.34, 0.4, 0.6, 1.0):
                assert maximize_S_ns(G, P) == pytest.approx(4.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            maximize_S_ns(0.4, 0.3)
        with pytest.raises(DomainError):
            maximize_S_ns(0.8, 0.2)
        with pytest.raises(DomainError):
            maximize_S_ns(0.8, 0.3, components=3)
        with pytest.raises(DomainError):
            maximize_S_ns(0.8, 0.3, restarts=0)


class TestVertexDecomposition:
    """The lemma behind the ns oracle's upper bound: every no-signalling box
    is a mixture of the 24 vertex boxes, and its guessing value is at most
    the mixture's average guessing value."""

    def test_vertices_are_distinct_valid_boxes(self):
        boxes, _, g = oracle._vertices()
        assert len({b.p.tobytes() for b in boxes}) == 24
        assert all(not b.check(1e-12) for b in boxes)
        assert sorted(g) == [0.5] * 8 + [1.0] * 16

    def test_random_boxes_are_vertex_mixtures(self):
        boxes, _, g = oracle._vertices()
        V = np.stack([b.p.ravel() for b in boxes], axis=1)  # (16 entries, 24)
        rng = np.random.default_rng(11)
        for _ in range(200):
            m, n = rng.uniform(0.0, 1.0, (2, 2))
            lo = np.maximum(0.0, m[:, None] + n[None, :] - 1.0)
            hi = np.minimum(m[:, None], n[None, :])
            box = box_from_marginals(m, n, rng.uniform(lo, hi))
            # The least average guessing value over all decompositions.
            res = linprog(g, A_eq=np.vstack([V, np.ones(24)]),
                          b_eq=np.append(box.p.ravel(), 1.0), method="highs")
            assert res.status == 0, res.message
            assert np.abs(V @ res.x - box.p.ravel()).max() <= 1e-9
            assert box.guessing_value() <= res.fun + 1e-9


class TestFactorizableOracle:
    def test_reaches_the_bound(self):
        for G, P in [(1.0, 0.25), (0.75, 0.28), (0.6, 0.33), (0.5, 0.3)]:
            val = maximize_S_fac(G, P, restarts=10, seed=0)
            assert val == pytest.approx(s_max_fac(G, P)[0], abs=1e-3)

    def test_never_exceeds_the_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            G = float(rng.uniform(0.5, 1.0))
            P = float(rng.uniform(0.25, 1.0 / 3.0))
            val = maximize_S_fac(G, P, restarts=3, seed=2)
            assert val <= s_max_fac(G, P)[0] + 1e-6

    def test_stays_below_general_oracle_headroom(self):
        # A factorizable adversary can never beat the general bound either.
        val = maximize_S_fac(0.8, 0.3, restarts=5, seed=0)
        assert val <= s_max_ns(0.8, 0.3)[0] + 1e-6

    def test_deterministic_given_seed(self):
        a = maximize_S_fac(0.8, 0.29, restarts=4, seed=5)
        b = maximize_S_fac(0.8, 0.29, restarts=4, seed=5)
        assert a == b

    def test_inner_lps_start_from_the_last_basis(self, monkeypatch):
        results = []

        def recording(*args, **kwargs):
            res = solve_lp(*args, **kwargs)
            results.append(res)
            return res

        monkeypatch.setattr(oracle, "solve_lp", recording)
        maximize_S_fac(0.8, 0.3, restarts=2, seed=0)
        zero_pivot = sum(res.warm and res.pivots == 0 for res in results)
        assert zero_pivot >= 0.5 * len(results)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            maximize_S_fac(0.3, 0.3)
        with pytest.raises(DomainError):
            maximize_S_fac(0.8, 0.3, restarts=0)


def test_pattern_marginals_realize_requested_guessing():
    for pos in range(4):
        for g in (0.5, 0.7, 1.0):
            m, n = oracle._pattern_marginals(pos, g)
            box = oracle.box_from_marginals(m, n, oracle._optimal_c(m, n))
            assert not box.check(1e-12)
            assert box.guessing_value() == pytest.approx(g, abs=1e-12)
