"""Tests for two-qubit strategies and the biased Tsirelson machinery."""

import math

import numpy as np
import pytest

from chshcert.bounds import (
    BiasedDistribution,
    DomainError,
    alpha_opt,
    family_distribution,
    s_q_max_dist,
)
from chshcert.core import uniform_settings
from chshcert.quantum import (
    Observable,
    QuantumStrategy,
    TwoQubitState,
    evaluate_strategy,
    maximally_entangled_state,
    optimal_settings,
    optimize_strategy_numeric,
    strategy_from_dict,
    strategy_guessing_probability,
    strategy_to_dict,
)

SQRT2 = math.sqrt(2.0)


class TestPrimitives:
    def test_observable_requires_unit_norm(self):
        for bloch in ([1.0, 1.0, 0.0], [math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0]):
            with pytest.raises(DomainError):
                Observable(np.array(bloch))

    def test_from_vector_normalizes(self):
        obs = Observable.from_vector([3.0, 0.0, 4.0])
        np.testing.assert_allclose(obs.bloch, [0.6, 0.0, 0.8], atol=1e-15)
        with pytest.raises(DomainError):
            Observable.from_vector([0.0, 0.0, 0.0])

    def test_observable_matrix_squares_to_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            obs = Observable.from_vector(rng.normal(size=3))
            M = obs.matrix()
            np.testing.assert_allclose(M @ M, np.eye(2), atol=1e-14)

    def test_state_requires_unit_norm(self):
        with pytest.raises(DomainError):
            TwoQubitState(np.array([1.0, 1.0, 0.0, 0.0]))
        with pytest.raises(DomainError):
            TwoQubitState(np.array([math.nan, 0.0, 0.0, 0.0]))

    def test_state_fixes_global_phase(self):
        amps = np.exp(1.0j * 0.7) * np.array([1.0, 0.0, 0.0, 1.0]) / SQRT2
        state = TwoQubitState(amps)
        assert state.amplitudes[0].imag == pytest.approx(0.0, abs=1e-14)
        assert state.amplitudes[0].real > 0.0


def _classic_strategy() -> QuantumStrategy:
    z = Observable(np.array([0.0, 0.0, 1.0]))
    x = Observable(np.array([1.0, 0.0, 0.0]))
    plus = Observable.from_vector([1.0, 0.0, 1.0])
    minus = Observable.from_vector([-1.0, 0.0, 1.0])
    return QuantumStrategy(
        state=maximally_entangled_state(), a0=z, a1=x, b0=plus, b1=minus
    )


class TestEvaluation:
    def test_classic_tsirelson_strategy(self):
        val = evaluate_strategy(_classic_strategy(), uniform_settings())
        assert val == pytest.approx(2.0 * SQRT2, abs=1e-12)

    def test_maximally_entangled_state_is_unbiased(self):
        assert strategy_guessing_probability(_classic_strategy()) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_product_state_is_fully_guessable(self):
        state = TwoQubitState(np.array([1.0, 0.0, 0.0, 0.0]))
        z = Observable(np.array([0.0, 0.0, 1.0]))
        strat = QuantumStrategy(state=state, a0=z, a1=z, b0=z, b1=z)
        assert strategy_guessing_probability(strat) == pytest.approx(1.0, abs=1e-12)
        assert evaluate_strategy(strat, uniform_settings()) == pytest.approx(2.0, abs=1e-12)


class TestOptimalSettings:
    def test_saturates_the_bound_on_random_distributions(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 200:
            dist = BiasedDistribution(rng.dirichlet(np.ones(4)))
            if abs(alpha_opt(dist)) >= 2.0:
                continue
            strat = optimal_settings(dist)
            assert evaluate_strategy(strat, dist) == pytest.approx(
                s_q_max_dist(dist)[0], abs=1e-9
            )
            assert strategy_guessing_probability(strat) == pytest.approx(0.5, abs=1e-12)
            checked += 1

    def test_bob_anticommutator_matches_alpha(self):
        # {B0, B1} = 2 (b0 . b1) * identity, so its expectation in any state is
        # twice the Bloch inner product; the construction pins it to alpha_opt.
        rng = np.random.default_rng(13)
        for _ in range(50):
            dist = BiasedDistribution(rng.dirichlet(np.ones(4)))
            if abs(alpha_opt(dist)) >= 2.0:
                continue
            strat = optimal_settings(dist)
            anticomm = 2.0 * float(strat.b0.bloch @ strat.b1.bloch)
            assert anticomm == pytest.approx(alpha_opt(dist), abs=1e-12)

    def test_degenerate_distribution_rejected(self):
        with pytest.raises(DomainError):
            optimal_settings(BiasedDistribution(np.array([0.5, 0.5, 0.0, 0.0])))


class TestNumericOracle:
    def test_recovers_tsirelson(self):
        val, strat = optimize_strategy_numeric(uniform_settings(), restarts=8, seed=0)
        assert val == pytest.approx(2.0 * SQRT2, abs=1e-9)
        assert evaluate_strategy(strat, uniform_settings()) == pytest.approx(val, abs=1e-9)

    def test_sound_on_random_distributions(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            dist = BiasedDistribution(rng.dirichlet(np.ones(4)))
            val, _ = optimize_strategy_numeric(dist, restarts=10, seed=0)
            assert val <= s_q_max_dist(dist)[0] + 1e-6

    def test_family_above_threshold_is_deterministic(self):
        dist = family_distribution(0.32)
        val, _ = optimize_strategy_numeric(dist, restarts=10, seed=0)
        assert val <= 24.0 * 0.32 - 4.0 + 1e-6

    def test_near_optimal_strategies_are_unbiased(self):
        # When the entangled branch wins, the optimizer's strategy should leak
        # (almost) nothing through either party's marginals.
        rng = np.random.default_rng(71)
        for _ in range(5):
            dist = BiasedDistribution(rng.dirichlet(np.full(4, 5.0)))
            if abs(alpha_opt(dist)) >= 2.0:
                continue
            val, strat = optimize_strategy_numeric(dist, restarts=20, seed=0)
            if val >= s_q_max_dist(dist)[0] - 1e-9:
                assert strategy_guessing_probability(strat) <= 0.5 + 1e-3

    def test_deterministic_given_seed(self):
        d = family_distribution(0.27)
        v1, _ = optimize_strategy_numeric(d, restarts=4, seed=9)
        v2, _ = optimize_strategy_numeric(d, restarts=4, seed=9)
        assert v1 == v2


def test_strategy_dict_roundtrip():
    strat = optimal_settings(family_distribution(0.27))
    again = strategy_from_dict(strategy_to_dict(strat))
    np.testing.assert_allclose(
        again.state.amplitudes, strat.state.amplitudes, atol=1e-15
    )
    for name in ("a0", "a1", "b0", "b1"):
        np.testing.assert_allclose(
            getattr(again, name).bloch, getattr(strat, name).bloch, atol=1e-15
        )
    assert again.beta == pytest.approx(strat.beta)
