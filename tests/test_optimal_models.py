"""Tests for the explicit bound-saturating model constructors."""

import math

import numpy as np
import pytest

from chshcert import core
from chshcert.bounds import DomainError, s_max_fac, s_max_ns
from chshcert.core import is_factorizable
from chshcert.optimal_models import (
    build_fac_model_high_P,
    build_fac_model_low_P,
    build_general_model,
    build_high_P_model,
)


class TestGeneralModel:
    def test_saturates_the_bound_exactly(self):
        for G in np.linspace(0.5, 1.0, 6):
            for P in np.linspace(0.25, 1.0 / 3.0, 5):
                model = build_general_model(float(G), float(P))
                report = core.validate(model, tol=1e-12)
                assert report.valid, report.failures
                assert report.S == pytest.approx(s_max_ns(float(G), float(P))[0], abs=1e-12)
                assert report.G == pytest.approx(G, abs=1e-12)
                assert report.P == pytest.approx(P, abs=1e-12)

    def test_not_factorizable_in_general(self):
        report = core.validate(build_general_model(0.9, 0.3))
        assert not report.factorizable

    def test_uniform_weights(self):
        model = build_general_model(0.8, 0.27)
        np.testing.assert_allclose(model.weights, 0.25, atol=0.0)

    def test_domain_errors_no_clamping(self):
        with pytest.raises(DomainError):
            build_general_model(0.45, 0.3)
        with pytest.raises(DomainError):
            build_general_model(1.05, 0.3)
        with pytest.raises(DomainError):
            build_general_model(0.9, 0.2)
        with pytest.raises(DomainError):
            build_general_model(0.9, 0.34)


class TestHighPModel:
    def test_valid_and_reports_parameters(self):
        model = build_high_P_model(0.85, 0.4, 0.35, 0.25)
        report = core.validate(model, tol=1e-12)
        assert report.valid, report.failures
        assert report.G == pytest.approx(0.85, abs=1e-12)
        assert report.P == pytest.approx(0.4, abs=1e-12)

    def test_reaches_four_at_full_guessing(self):
        report = core.validate(build_high_P_model(1.0, 0.4, 0.35, 0.25))
        assert report.S == pytest.approx(4.0, abs=1e-12)

    def test_parameter_constraints(self):
        with pytest.raises(DomainError):
            build_high_P_model(0.9, 0.4, 0.5, 0.1)  # Q > P
        with pytest.raises(DomainError):
            build_high_P_model(0.9, 0.4, 0.3, 0.2)  # does not sum to 1
        with pytest.raises(DomainError):
            build_high_P_model(0.9, 0.3, 0.4, 0.3)  # P below 1/3

    @pytest.mark.parametrize("Q, Qp", [(math.nan, 0.2), (0.3, math.nan), (math.nan, math.nan)])
    def test_nan_secondary_probabilities_rejected(self, Q, Qp):
        with pytest.raises(DomainError):
            build_high_P_model(0.8, 0.5, Q, Qp)


class TestFactorizableModels:
    def test_low_P_saturates_the_factorizable_bound(self):
        for G in np.linspace(0.5, 1.0, 6):
            for P in np.linspace(0.25, 0.5, 6):
                model = build_fac_model_low_P(float(G), float(P))
                report = core.validate(model, tol=1e-12)
                assert report.valid, report.failures
                assert report.factorizable
                assert report.S == pytest.approx(
                    s_max_fac(float(G), float(P))[0], abs=1e-12
                )
                assert report.G == pytest.approx(G, abs=1e-12)
                assert report.P == pytest.approx(P, abs=1e-12)

    def test_low_P_settings_are_rank_one(self):
        model = build_fac_model_low_P(0.8, 0.35)
        for _, s, _ in model.components:
            assert is_factorizable(s, tol=1e-12)

    def test_high_P_settings_are_rank_one(self):
        model = build_fac_model_high_P(0.9, 0.6)
        for _, s, _ in model.components:
            assert is_factorizable(s, tol=1e-12)
        report = core.validate(model, tol=1e-12)
        assert report.valid
        assert report.P == pytest.approx(0.6, abs=1e-12)

    def test_high_P_reaches_four_at_full_guessing(self):
        report = core.validate(build_fac_model_high_P(1.0, 0.6))
        assert report.S == pytest.approx(4.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            build_fac_model_low_P(0.8, 0.55)
        with pytest.raises(DomainError):
            build_fac_model_high_P(0.8, 0.45)
