"""Tests for the optimization oracles (fast configurations; the full
verification campaign lives in the acceptance suite)."""

import numpy as np
import pytest

from chshcert import oracle
from chshcert.bounds import DomainError, s_max_fac, s_max_ns
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
            assert val == pytest.approx(s_max_ns(G, P)[0], abs=1e-6)

    def test_never_exceeds_the_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            G = float(rng.uniform(0.5, 1.0))
            P = float(rng.uniform(0.25, 1.0 / 3.0))
            val = maximize_S_ns(G, P, restarts=5, seed=1)
            assert val <= s_max_ns(G, P)[0] + 1e-6

    def test_deterministic_given_seed(self):
        a = maximize_S_ns(0.8, 0.29, restarts=6, seed=5)
        b = maximize_S_ns(0.8, 0.29, restarts=6, seed=5)
        assert a == b

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            maximize_S_ns(0.4, 0.3)
        with pytest.raises(DomainError):
            maximize_S_ns(0.8, 0.2)
        with pytest.raises(DomainError):
            maximize_S_ns(0.8, 0.3, components=3)
        with pytest.raises(DomainError):
            maximize_S_ns(0.8, 0.3, restarts=0)


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


class TestAllocation:
    def test_budget_is_respected(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            rho = rng.dirichlet(np.ones(4))
            cost = rng.uniform(size=4)
            G = float(rng.uniform(0.5, 1.0))
            g = oracle._allocate_guessing(G, rho, cost)
            assert np.all(g >= 0.5 - 1e-12)
            assert np.all(g <= 1.0 + 1e-12)
            assert float(rho @ g) == pytest.approx(G, abs=1e-12)

    def test_cheapest_component_fills_first(self):
        rho = np.full(4, 0.25)
        cost = np.array([0.5, 0.1, 0.3, 0.4])
        g = oracle._allocate_guessing(0.7, rho, cost)
        assert g[1] == pytest.approx(1.0)


def test_pattern_marginals_realize_requested_guessing():
    for pos in range(4):
        for g in (0.5, 0.7, 1.0):
            m, n = oracle._pattern_marginals(pos, g)
            box = oracle.box_from_marginals(m, n, oracle._optimal_c(m, n))
            assert not box.check(1e-12)
            assert box.guessing_value() == pytest.approx(g, abs=1e-12)
