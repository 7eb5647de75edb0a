"""Tests for the closed-form trade-off bounds."""

import math

import numpy as np
import pytest

from chshcert import bounds
from chshcert.bounds import (
    BiasedDistribution,
    DomainError,
    alpha_opt,
    family_distribution,
    g_bound_fac,
    g_bound_ns,
    min_entropy_bound,
    s_max_fac,
    s_max_ns,
    s_max_quantum,
    s_max_quantum_fac,
    s_q_max_dist,
)
from chshcert.core import ValidationError, uniform_settings

SQRT2 = math.sqrt(2.0)


class TestNoSignallingBound:
    def test_frozen_values(self):
        assert s_max_ns(1.0, 0.25)[0] == pytest.approx(2.0, abs=1e-12)
        assert s_max_ns(1.0, 1.0 / 3.0)[0] == pytest.approx(4.0, abs=1e-12)
        assert s_max_ns(0.5, 0.25)[0] == pytest.approx(4.0, abs=1e-12)
        assert s_max_ns(1.0, 0.3)[0] == pytest.approx(3.2, abs=1e-12)
        assert s_max_ns(0.75, 0.28)[0] == pytest.approx(3.36, abs=1e-12)
        assert s_max_ns(0.75, 0.3)[0] == pytest.approx(3.6, abs=1e-12)

    def test_saturates_above_one_third(self):
        val, branch = s_max_ns(1.0, 0.4)
        assert val == 4.0
        assert branch == bounds.BRANCH_SATURATED

    def test_monotone_in_P_and_decreasing_in_G(self):
        ps = np.linspace(0.25, 1.0 / 3.0, 50)
        vals = [s_max_ns(0.9, float(p))[0] for p in ps]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        gs = np.linspace(0.5, 1.0, 50)
        vals = [s_max_ns(float(g), 0.27)[0] for g in gs]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            s_max_ns(0.4, 0.3)
        with pytest.raises(DomainError):
            s_max_ns(0.9, 0.2)
        with pytest.raises(DomainError):
            s_max_ns(1.1, 0.3)


class TestGuessingBounds:
    def test_inverts_the_chsh_bound(self):
        for G in np.linspace(0.5, 1.0, 21):
            for P in np.linspace(0.25, 0.32, 15):
                s, _ = s_max_ns(float(G), float(P))
                assert g_bound_ns(s, float(P)) == pytest.approx(G, abs=1e-12)
                s, _ = s_max_fac(float(G), float(P))
                assert g_bound_fac(s, float(P)) == pytest.approx(G, abs=1e-12)

    def test_frozen_values(self):
        assert g_bound_ns(3.4, 0.3) == pytest.approx(0.875, abs=1e-12)
        assert g_bound_ns(3.7, 0.3) == pytest.approx(0.6875, abs=1e-12)
        assert g_bound_ns(4.0, 0.25) == pytest.approx(0.5, abs=1e-12)

    def test_clipped_at_one_for_weak_violation(self):
        assert g_bound_ns(1.5, 0.25) == 1.0

    def test_trivial_regime_rejected(self):
        with pytest.raises(DomainError):
            g_bound_ns(3.0, 1.0 / 3.0)
        with pytest.raises(DomainError):
            g_bound_fac(3.0, 0.5)
        with pytest.raises(DomainError):
            g_bound_ns(4.5, 0.25)

    def test_general_adversary_guesses_at_least_as_well(self):
        for S in (2.2, 2.8, 3.4, 3.9):
            for P in np.linspace(0.25, 0.32, 20):
                gn = g_bound_ns(S, float(P))
                gf = g_bound_fac(S, float(P))
                assert gn >= gf - 1e-12


class TestFactorizableBound:
    def test_frozen_values(self):
        assert s_max_fac(1.0, 0.25)[0] == pytest.approx(2.0, abs=1e-12)
        assert s_max_fac(1.0, 0.5)[0] == pytest.approx(4.0, abs=1e-12)
        assert s_max_fac(0.75, 0.28)[0] == pytest.approx(3.12, abs=1e-12)

    def test_never_exceeds_no_signalling(self):
        for G in np.linspace(0.5, 1.0, 100):
            for P in np.linspace(0.25, 1.0 / 3.0, 100):
                assert (
                    s_max_fac(float(G), float(P))[0]
                    <= s_max_ns(float(G), float(P))[0] + 1e-12
                )


class TestQuantumBounds:
    def test_tsirelson_at_uniform_settings(self):
        assert s_max_quantum(0.25)[0] == pytest.approx(2.0 * SQRT2, abs=1e-12)

    def test_branch_continuity(self):
        quantum = 4.0 * (1.0 - 0.6) ** 1.5 / math.sqrt(1.0 - 0.9)
        deterministic = 24.0 * 0.3 - 4.0
        assert quantum == pytest.approx(3.2, abs=1e-12)
        assert deterministic == pytest.approx(3.2, abs=1e-12)
        assert s_max_quantum(0.3)[0] == pytest.approx(3.2, abs=1e-12)

    def test_branches(self):
        assert s_max_quantum(0.26)[1] == bounds.BRANCH_QUANTUM
        assert s_max_quantum(0.32)[1] == bounds.BRANCH_DETERMINISTIC
        assert s_max_quantum(0.5) == (4.0, bounds.BRANCH_SATURATED)

    def test_monotone_in_P(self):
        ps = np.linspace(0.25, 1.0 / 3.0, 200)
        vals = [s_max_quantum(float(p))[0] for p in ps]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_family_specializes_the_general_formula(self):
        for P in np.linspace(0.2501, 0.299, 40):
            dist = family_distribution(float(P))
            assert s_q_max_dist(dist)[0] == pytest.approx(
                s_max_quantum(float(P))[0], abs=1e-12
            )

    def test_dominates_deterministic_strategies(self):
        rng = np.random.default_rng(99)
        for _ in range(10_000):
            dist = BiasedDistribution(rng.dirichlet(np.ones(4)))
            assert s_q_max_dist(dist)[0] >= 4.0 - 8.0 * dist.q.min() - 1e-12

    def test_uniform_distribution_gives_tsirelson(self):
        assert s_q_max_dist(uniform_settings())[0] == pytest.approx(2.0 * SQRT2, abs=1e-12)
        assert alpha_opt(uniform_settings()) == pytest.approx(0.0, abs=1e-14)

    def test_alpha_opt_rejects_degenerate(self):
        with pytest.raises(DomainError):
            alpha_opt(BiasedDistribution(np.array([0.5, 0.5, 0.0, 0.0])))

    def test_degenerate_distribution_falls_back_to_deterministic(self):
        val, branch = s_q_max_dist(BiasedDistribution(np.array([0.5, 0.5, 0.0, 0.0])))
        assert branch == bounds.BRANCH_DETERMINISTIC
        assert val == pytest.approx(4.0, abs=1e-14)

    def test_factorizable_quantum_bound(self):
        assert s_max_quantum_fac(0.25) == pytest.approx(2.0 * SQRT2, abs=1e-12)
        with pytest.raises(DomainError):
            s_max_quantum_fac(0.5)
        with pytest.raises(DomainError):
            s_max_quantum_fac(0.2)


class TestMinEntropy:
    def test_values(self):
        assert min_entropy_bound(0.5, 10) == pytest.approx(10.0, abs=1e-12)
        assert min_entropy_bound(1.0, 7) == pytest.approx(0.0, abs=0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            min_entropy_bound(0.4, 10)
        with pytest.raises(DomainError):
            min_entropy_bound(0.7, 0)


def test_family_distribution_domain():
    with pytest.raises(DomainError):
        family_distribution(0.34)
    np.testing.assert_allclose(
        family_distribution(0.3).probs, [0.3, 0.3, 0.3, 0.1], atol=1e-15
    )


def test_biased_distribution_validation():
    with pytest.raises(ValidationError):
        BiasedDistribution(np.array([0.5, 0.6, -0.05, -0.05])).validate()
    with pytest.raises(ValidationError):
        BiasedDistribution(np.array([0.5, 0.4, 0.2, 0.2])).validate()


def test_non_finite_distribution_rejected():
    with pytest.raises(ValidationError):
        BiasedDistribution(np.full(4, np.nan)).validate()
    with pytest.raises(ValidationError):
        s_q_max_dist(BiasedDistribution([float("nan")] * 4))
    with pytest.raises(ValidationError):
        BiasedDistribution(np.array([np.inf, 0.25, 0.25, 0.25])).validate()
