"""Tests for the model representation and figure-of-merit computations."""

import math

import numpy as np
import pytest

from chshcert import core
from chshcert.core import (
    Box,
    HiddenVariableModel,
    SettingsDistribution,
    ValidationError,
    bayes_mixed_box,
    box_from_marginals,
    chsh_of_box,
    deterministic_box,
    free_will_parameter,
    is_factorizable,
    model_from_json,
    model_to_json,
    observed_S,
    pr_box,
    proof_quantity_K,
    uniform_box,
    uniform_settings,
)


def _random_ns_box(rng: np.random.Generator) -> Box:
    """Random valid no-signalling box: draw marginals, then joints inside the
    Frechet interval [max(0, m+n-1), min(m, n)] cell by cell."""
    m = rng.uniform(0.0, 1.0, size=2)
    n = rng.uniform(0.0, 1.0, size=2)
    lo = np.maximum(0.0, m[:, None] + n[None, :] - 1.0)
    hi = np.minimum(m[:, None], n[None, :])
    c = lo + rng.uniform(0.0, 1.0, size=(2, 2)) * (hi - lo)
    return box_from_marginals(m, n, c)


def _uniform_inputs_model(rng: np.random.Generator, L: int = 4) -> HiddenVariableModel:
    w = rng.dirichlet(np.ones(L))
    comps = tuple(
        (float(w[i]), uniform_settings(), _random_ns_box(rng)) for i in range(L)
    )
    return HiddenVariableModel(comps)


class TestBox:
    def test_pr_box_reaches_algebraic_maximum(self):
        assert chsh_of_box(pr_box()) == pytest.approx(4.0, abs=1e-14)
        assert pr_box().guessing_value() == pytest.approx(0.5, abs=1e-14)

    def test_uniform_box_has_no_correlation(self):
        assert chsh_of_box(uniform_box()) == pytest.approx(0.0, abs=1e-14)

    def test_deterministic_boxes_stay_below_two(self):
        import itertools
        best = 0.0
        for strat in itertools.product((0, 1), repeat=4):
            best = max(best, chsh_of_box(deterministic_box(*strat)))
        assert best == pytest.approx(2.0, abs=1e-14)

    def test_rows_roundtrip(self):
        rng = np.random.default_rng(3)
        box = _random_ns_box(rng)
        again = Box.from_rows(box.to_rows())
        np.testing.assert_allclose(again.p, box.p, atol=0.0)

    def test_from_rows_rejects_bad_shape(self):
        with pytest.raises(ValidationError):
            Box.from_rows([[0.25] * 4] * 3)

    def test_check_flags_negative_entries(self):
        p = np.full((2, 2, 2, 2), 0.25)
        p[0, 0, 0, 0] = -0.05
        p[1, 1, 0, 0] = 0.55
        assert any("negative" in msg for msg in Box(p).check())

    def test_check_flags_normalization(self):
        assert any("normalized" in msg for msg in Box(np.full((2, 2, 2, 2), 0.3)).check())

    def test_check_flags_signalling(self):
        # Alice's marginal depends on Bob's setting: not a physical box.
        p = np.full((2, 2, 2, 2), 0.25)
        p[:, :, 0, 0] = np.array([[0.5, 0.3], [0.1, 0.1]])
        failures = Box(p).check()
        assert any("signals" in msg for msg in failures)

    def test_marginals_of_constructed_box(self):
        rng = np.random.default_rng(11)
        m = rng.uniform(size=2)
        n = rng.uniform(size=2)
        lo = np.maximum(0.0, m[:, None] + n[None, :] - 1.0)
        hi = np.minimum(m[:, None], n[None, :])
        box = box_from_marginals(m, n, (lo + hi) / 2.0)
        np.testing.assert_allclose(box.alice_marginals()[0], m, atol=1e-14)
        np.testing.assert_allclose(box.bob_marginals()[0], n, atol=1e-14)

    def test_guessing_value_dominated_by_marginal_gaps(self):
        # The sum of the four pairwise marginal mismatches always dominates
        # 2g - 1; the bound machinery rests on this inequality.
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            box = _random_ns_box(rng)
            g = box.guessing_value()
            assert proof_quantity_K(box) >= 2.0 * g - 1.0 - 1e-12


class TestSettings:
    def test_uniform_settings_is_factorizable(self):
        assert is_factorizable(uniform_settings())

    def test_product_distributions_are_factorizable(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            u, v = rng.uniform(size=2)
            q = np.outer([u, 1 - u], [v, 1 - v])
            assert is_factorizable(SettingsDistribution(q))

    def test_correlated_settings_are_not_factorizable(self):
        q = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert not is_factorizable(SettingsDistribution(q))

    def test_factorizability_invariant_under_relabeling(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            q = rng.dirichlet(np.ones(4)).reshape(2, 2)
            base = is_factorizable(SettingsDistribution(q), tol=1e-9)
            for perm in (q[::-1, :], q[:, ::-1], q.T):
                assert is_factorizable(SettingsDistribution(perm), tol=1e-9) == base

    def test_check_flags_denormalized(self):
        s = SettingsDistribution(np.full((2, 2), 0.3))
        assert s.check()


class TestModel:
    def test_weights_must_sum_to_one(self):
        comps = ((0.7, uniform_settings(), pr_box()),)
        report = core.validate(HiddenVariableModel(comps))
        assert not report.valid
        assert any("sum" in msg for msg in report.failures)

    def test_nonuniform_inputs_rejected(self):
        q = SettingsDistribution(np.array([[0.4, 0.2], [0.2, 0.2]]))
        report = core.validate(HiddenVariableModel(((1.0, q, pr_box()),)))
        assert not report.valid
        assert any("uniform" in msg for msg in report.failures)

    def test_observed_S_matches_mixed_box(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            model = _uniform_inputs_model(rng)
            s_direct = observed_S(model)
            s_mixed = chsh_of_box(bayes_mixed_box(model))
            assert s_direct == pytest.approx(s_mixed, abs=1e-12)

    def test_free_will_ignores_zero_weight_components(self):
        spread = SettingsDistribution(np.array([[0.7, 0.1], [0.1, 0.1]]))
        comps = (
            (1.0, uniform_settings(), uniform_box()),
            (0.0, spread, uniform_box()),
        )
        assert free_will_parameter(HiddenVariableModel(comps)) == pytest.approx(0.25)

    def test_guessing_probability_of_pr_mixture(self):
        model = HiddenVariableModel(((1.0, uniform_settings(), pr_box()),))
        assert core.guessing_probability(model) == pytest.approx(0.5, abs=1e-14)

    def test_report_fields(self):
        model = HiddenVariableModel(((1.0, uniform_settings(), pr_box()),))
        report = core.validate(model)
        assert report.valid
        assert report.factorizable
        assert report.S == pytest.approx(4.0, abs=1e-12)
        assert report.G == pytest.approx(0.5, abs=1e-12)
        assert report.P == pytest.approx(0.25, abs=1e-12)


class TestSerialization:
    def test_json_roundtrip_is_bit_exact(self):
        rng = np.random.default_rng(123)
        model = _uniform_inputs_model(rng)
        again = model_from_json(model_to_json(model))
        assert len(again.components) == len(model.components)
        for (w1, s1, b1), (w2, s2, b2) in zip(model.components, again.components):
            assert w1 == w2
            np.testing.assert_array_equal(s1.q, s2.q)
            np.testing.assert_array_equal(b1.p, b2.p)

    def test_malformed_document_raises(self):
        with pytest.raises(ValidationError):
            core.model_from_dict({"components": [{"weight": 1.0}]})


def test_chsh_of_box_rejects_invalid_boxes():
    with pytest.raises(ValidationError):
        chsh_of_box(Box(np.full((2, 2, 2, 2), 0.3)))


class TestNonFiniteInput:
    """NaN compares False with every tolerance, so a range check written the
    obvious way lets it through."""

    def test_all_nan_box_is_invalid(self):
        box = Box(np.full((2, 2, 2, 2), np.nan))
        assert box.check()
        report = core.validate(HiddenVariableModel(((1.0, uniform_settings(), box),)))
        assert report.valid is False

    def test_infinite_box_entry_is_flagged(self):
        p = np.full((2, 2, 2, 2), 0.25)
        p[0, 0, 1, 1] = np.inf
        assert Box(p).check()

    def test_nan_settings_are_invalid(self):
        settings = SettingsDistribution(np.full((2, 2), np.nan))
        assert settings.check()
        with pytest.raises(ValidationError):
            settings.validate()
        model = HiddenVariableModel(((1.0, settings, uniform_box()),))
        assert core.validate(model).valid is False

    def test_nan_weight_is_invalid(self):
        model = HiddenVariableModel((
            (0.5, uniform_settings(), uniform_box()),
            (float("nan"), uniform_settings(), uniform_box()),
        ))
        assert any("NaN component weight" in msg for msg in model.check())
        assert core.validate(model).valid is False


class TestSinglePassValidation:
    """core.validate checks a model once and computes every figure without
    checking it again; the figures are those of the public functions."""

    @staticmethod
    def _models():
        from chshcert import optimal_models as om
        yield om.build_general_model(0.8, 0.3)
        yield om.build_general_model(1.0, 0.25)
        yield om.build_high_P_model(0.7, 0.5, 0.3, 0.2)
        yield om.build_fac_model_high_P(0.9, 0.75)
        yield om.build_fac_model_low_P(0.6, 0.4)

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        check = HiddenVariableModel.check

        def counting(model, tol=core.DEFAULT_TOL):
            calls.append(model)
            return check(model, tol)

        monkeypatch.setattr(HiddenVariableModel, "check", counting)
        return calls

    def test_checks_the_model_once(self, checks):
        for model in self._models():
            checks.clear()
            assert core.validate(model).valid
            assert len(checks) == 1 and checks[0] is model

    def test_figures_equal_the_public_functions(self):
        for model in self._models():
            report = core.validate(model)
            assert report.S == observed_S(model)
            assert report.G == core.guessing_probability(model)
            assert report.P == free_will_parameter(model)
            assert report.factorizable == all(
                is_factorizable(s) for w, s, _ in model.components if w > 0.0)

    def test_invalid_models_still_report_nan(self, checks):
        nan_box = Box(np.full((2, 2, 2, 2), np.nan))
        skewed = SettingsDistribution(np.array([[0.4, 0.2], [0.2, 0.2]]))
        for model in (HiddenVariableModel(((1.0, uniform_settings(), nan_box),)),
                      HiddenVariableModel(((1.0, skewed, pr_box()),))):
            checks.clear()
            report = core.validate(model)
            assert len(checks) == 1 and checks[0] is model
            assert not report.valid and report.failures
            assert math.isnan(report.S) and math.isnan(report.G) and math.isnan(report.P)
            assert report.factorizable is False


class TestOwnedCopies:
    """A box and a settings distribution keep private read-only copies of
    their tables, so a caller's later writes neither change them nor fail."""

    def test_settings_distribution_ignores_later_writes(self):
        a = np.full((2, 2), 0.25)
        s = SettingsDistribution(a)
        a[0, 0] = 0.9
        assert s.q[0, 0] == 0.25
        assert not s.q.flags.writeable
        assert not s.check()

    def test_box_leaves_the_callers_table_writable(self):
        p = np.full((2, 2, 2, 2), 0.25)
        box = Box(p)
        p[0, 0, 0, 0] = 0.9  # raised at the time Box froze the caller's array
        assert box.p[0, 0, 0, 0] == 0.25
        assert not box.p.flags.writeable
        assert not box.check()


def _scratch_check(p, tol):
    """Box.check's tests and messages, computed afresh from the table."""
    failures = []
    lo = p.min()
    if not lo >= -tol:
        failures.append(f"box has negative or NaN entry {lo:.3g}")
    if not np.abs(p.sum(axis=(0, 1)) - 1.0).max() <= tol:
        failures.append("box columns not normalized")
    pa, pb = p.sum(axis=1), p.sum(axis=0)
    if not np.abs(pa[:, :, 0] - pa[:, :, 1]).max() <= tol:
        failures.append("box signals from Bob to Alice")
    if not np.abs(pb[:, 0, :] - pb[:, 1, :]).max() <= tol:
        failures.append("box signals from Alice to Bob")
    return failures


def _scratch_correlators(p):
    return np.einsum("ab,abjk->jk", np.array([[1.0, -1.0], [-1.0, 1.0]]), p)


def _scratch_guess(p):
    return float(max(p.sum(axis=1).mean(axis=2).max(), p.sum(axis=0).mean(axis=1).max()))


def _record_boxes():
    rng = np.random.default_rng(909)
    tables = [_random_ns_box(rng).p for _ in range(200)]
    for p in tables[:40]:
        for scale in (1e-12, 1e-6, 1e-3):  # valid at one tol, invalid at the other
            tables.append(p + rng.normal(0.0, scale, p.shape))
    # Products of marginals that signal one way only: Alice's depends on
    # Bob's setting, Bob's on his own setting alone (and the mirror image).
    for scale in (1e-6, 1e-2):
        for _ in range(10):
            m = rng.uniform(0.2, 0.8, (2, 1)) + scale * np.array([[0.0, 1.0], [0.0, -1.0]])
            n = rng.uniform(0.2, 0.8, 2)
            ma, nb = np.stack([m, 1 - m]), np.stack([n, 1 - n])  # [a, j, k], [b, k]
            p = ma[:, None, :, :] * nb[None, :, None, :]
            tables += [p, p.transpose(1, 0, 3, 2)]
    for bad in (-0.05, np.nan, np.inf, -np.inf):
        for p in tables[:10]:
            q = p.copy()
            q[tuple(rng.integers(0, 2, 4))] = bad
            tables.append(q)
    return tables


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the checks
class TestBoxRecord:
    """Each box computes its invariants once; check, correlators and
    guessing_value read them and give what a fresh computation gives."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-4])
    def test_matches_a_fresh_computation(self, tol):
        outcomes = set()
        for p in _record_boxes():
            box = Box(p)
            for t in (tol, 1e-9):  # the second read comes from the record
                assert box.check(t) == _scratch_check(p, t)
            np.testing.assert_array_equal(box.correlators(), _scratch_correlators(p))
            assert not box.correlators().flags.writeable
            guess = box.guessing_value()
            assert guess == _scratch_guess(p) or (math.isnan(guess)
                                                 and math.isnan(_scratch_guess(p)))
            outcomes.add(tuple(box.check(tol)))
        assert {(), ("box signals from Bob to Alice",),
                ("box signals from Alice to Bob",)} < outcomes

    def test_record_is_computed_once(self, monkeypatch):
        computed = []
        record = core._box_record

        def counting(p):
            computed.append(p)
            return record(p)

        monkeypatch.setattr(core, "_box_record", counting)
        box = pr_box()
        for _ in range(3):
            box.check()
            box.correlators()
            box.guessing_value()
            core.validate(HiddenVariableModel(((1.0, uniform_settings(), box),)))
        assert len(computed) == 1 and computed[0] is box.p
