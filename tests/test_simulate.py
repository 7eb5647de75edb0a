"""Tests for the Monte Carlo trial engine and certification pipeline."""

import math
import warnings

import numpy as np
import pytest

from chshcert import core, simulate
from chshcert.bounds import DomainError
from chshcert.core import HiddenVariableModel, pr_box, uniform_settings
from chshcert.optimal_models import build_fac_model_low_P, build_general_model
from chshcert.simulate import (
    TrialCounts,
    certify,
    counts_from_csv,
    counts_to_csv,
    estimate_S,
    eve_guess_accuracy,
    run_trials,
    simulation_report,
)


def _pr_model() -> HiddenVariableModel:
    return HiddenVariableModel(((1.0, uniform_settings(), pr_box()),))


class TestTrialCounts:
    def test_rejects_negative_counts(self):
        arr = np.zeros((2, 2, 2, 2), dtype=np.int64)
        arr[0, 0, 0, 0] = -1
        with pytest.raises(ValueError):
            TrialCounts(n=-1, counts=arr)

    def test_rejects_mismatched_total(self):
        arr = np.ones((2, 2, 2, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            TrialCounts(n=10, counts=arr)

    def test_rejects_fractional_counts(self):
        arr = np.zeros(16)
        arr[:2] = (2.7, 1.2)
        with pytest.raises(ValueError, match="integers"):
            TrialCounts(n=3, counts=arr)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_counts(self, bad):
        arr = np.ones(16)
        arr[5] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                TrialCounts(n=16, counts=arr)

    def test_accepts_integral_floats(self):
        counts = TrialCounts(n=16, counts=np.ones(16))
        assert counts.counts.dtype == np.int64

    def test_setting_totals(self):
        arr = np.ones((2, 2, 2, 2), dtype=np.int64)
        counts = TrialCounts(n=16, counts=arr)
        np.testing.assert_array_equal(counts.setting_totals(), np.full((2, 2), 4))
        np.testing.assert_allclose(counts.input_frequencies(), 0.25)


class TestReproducibility:
    def test_same_seed_same_counts(self):
        model = build_general_model(0.8, 0.3)
        c1 = run_trials(model, 20_000, seed=7)
        c2 = run_trials(model, 20_000, seed=7)
        np.testing.assert_array_equal(c1.counts, c2.counts)

    def test_different_seeds_differ(self):
        model = build_general_model(0.8, 0.3)
        c1 = run_trials(model, 20_000, seed=7)
        c2 = run_trials(model, 20_000, seed=8)
        assert (c1.counts != c2.counts).any()

    def test_counts_total(self):
        counts = run_trials(_pr_model(), 12_345, seed=0)
        assert counts.counts.sum() == 12_345


class TestEstimation:
    def test_pr_box_estimate(self):
        counts = run_trials(_pr_model(), 200_000, seed=3)
        s_hat, stderr = estimate_S(counts)
        assert s_hat == pytest.approx(4.0, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_estimate_tracks_closed_form(self):
        model = build_general_model(0.8, 0.3)
        closed = core.observed_S(model)
        counts = run_trials(model, 500_000, seed=11)
        s_hat, stderr = estimate_S(counts)
        assert abs(s_hat - closed) <= 5.0 * stderr

    def test_requires_every_setting_pair(self):
        arr = np.zeros((2, 2, 2, 2), dtype=np.int64)
        arr[0, 0, 0, 0] = 5
        with pytest.raises(DomainError):
            estimate_S(TrialCounts(n=5, counts=arr))


class TestEveAccuracy:
    def test_accuracy_matches_guessing_probability(self):
        for G, P in [(1.0, 0.25), (0.8, 0.3)]:
            model = build_general_model(G, P)
            acc = eve_guess_accuracy(model, 400_000, seed=5)
            sigma = math.sqrt(G * (1.0 - G) / 400_000)
            assert abs(acc - G) <= max(5.0 * sigma, 0.005)

    def test_accuracy_never_exceeds_guessing_value_significantly(self):
        model = build_fac_model_low_P(0.9, 0.4)
        acc = eve_guess_accuracy(model, 400_000, seed=6)
        sigma = math.sqrt(0.9 * 0.1 / 400_000)
        assert acc <= 0.9 + 5.0 * sigma

    def test_explicit_targets(self):
        model = build_general_model(0.85, 0.28)
        for target in ("alice", "bob", "auto"):
            acc = eve_guess_accuracy(model, 50_000, seed=2, target=target)
            assert 0.0 <= acc <= 1.0
        with pytest.raises(DomainError):
            eve_guess_accuracy(model, 100, seed=0, target="charlie")


class TestCertification:
    def test_weak_violation_certifies_nothing(self):
        arr = np.full((2, 2, 2, 2), 625, dtype=np.int64)  # S_hat = 0
        counts = TrialCounts(n=10_000, counts=arr)
        assert certify(counts, 0.25, "ns") == 0.0

    def test_value_at_the_threshold_certifies_nothing(self):
        # All outcomes (0, 0): every correlator is 1, so S_hat = 2, which is
        # exactly the deterministic maximum at P = 1/4.
        arr = np.zeros((2, 2, 2, 2), dtype=np.int64)
        arr[0, 0] = 2_500
        counts = TrialCounts(n=10_000, counts=arr)
        assert certify(counts, 0.25, "ns") == 0.0

    def test_monotone_in_assumed_P(self):
        model = build_general_model(0.8, 0.26)
        counts = run_trials(model, 100_000, seed=1)
        bits = [certify(counts, P, "ns") for P in (0.25, 0.27, 0.29, 0.31)]
        assert all(b2 <= b1 + 1e-9 for b1, b2 in zip(bits, bits[1:]))

    def test_trivial_regimes_rejected_with_explanation(self):
        counts = run_trials(_pr_model(), 1_000, seed=0)
        with pytest.raises(DomainError, match="1/3"):
            certify(counts, 1.0 / 3.0, "ns")
        with pytest.raises(DomainError, match="1/2"):
            certify(counts, 0.5, "fac")
        with pytest.raises(DomainError):
            certify(counts, 0.25, "bogus")

    def test_fac_mode_certifies_more_than_ns(self):
        # At equal P the factorizable adversary is weaker, so the certificate
        # is at least as large.
        model = build_fac_model_low_P(1.0, 0.3)
        counts = run_trials(model, 100_000, seed=4)
        assert certify(counts, 0.3, "fac") >= certify(counts, 0.3, "ns") - 1e-9


def test_simulation_report_fields():
    model = build_general_model(0.8, 0.3)
    report = simulation_report(model, 50_000, seed=0, P_assumed=0.3, mode="ns")
    doc = report.to_dict()
    assert set(doc) == {
        "S_hat", "S_stderr", "input_freqs", "eve_accuracy", "certified_bits",
    }
    assert len(doc["input_freqs"]) == 4
    assert doc["certified_bits"] >= 0.0


class TestCsv:
    def test_roundtrip(self):
        counts = run_trials(build_general_model(0.9, 0.27), 10_000, seed=9)
        again = counts_from_csv(counts_to_csv(counts))
        np.testing.assert_array_equal(again.counts, counts.counts)
        assert again.n == counts.n

    def test_header_enforced(self):
        with pytest.raises(ValueError):
            counts_from_csv("x,y\n1,2\n")

    @pytest.mark.parametrize("edit", [
        lambda rows: rows + ["0,0,0,0,7"],
        lambda rows: rows[:-1],
        lambda rows: rows[:-1] + ["1,1,1,2,5"],
        lambda rows: rows[:-1] + ["1,1,1,-1,5"],
    ], ids=["duplicate", "missing", "out-of-range", "negative-index"])
    def test_requires_the_16_distinct_cells(self, edit):
        counts = run_trials(build_general_model(0.9, 0.27), 1_000, seed=9)
        header, *rows = counts_to_csv(counts).splitlines()
        with pytest.raises(ValueError):
            counts_from_csv("\n".join([header, *edit(rows)]) + "\n")
