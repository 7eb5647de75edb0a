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


@pytest.fixture
def validations(monkeypatch):
    """Every (model, report) pair that core.validate returns during a test."""
    seen = []

    def recording(model, tol):
        report = validate(model, tol)
        seen.append((model, report))
        return report

    monkeypatch.setattr(core, "validate", recording)
    return seen


_rng = np.random.default_rng(3)
# At (1, 0.50049...) the old ns LP over w = rho q left a component of
# weight 1e-6 whose settings w / rho exceeded P by 6e-9.
_WITNESS_POINTS = [(0.5, 0.25), (1.0, 1.0 / 3.0), (0.75, 0.6),
                   (1.0, 0.5004912117589237)] + [
    (float(_rng.uniform(0.5, 1.0)), float(_rng.uniform(0.25, 1.0)))
    for _ in range(20)
]


def _assert_strictly_valid(model, G, P):
    strict = validate(model, 1e-9)
    assert strict.valid, strict.failures
    assert abs(strict.G - G) <= 1e-9
    assert strict.P <= P + 1e-9


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
        assert maximize_S_ns(0.8, 0.29, restarts=1, seed=0) == a

    def test_value_is_the_validated_S_of_a_witness(self, validations):
        for G, P in _WITNESS_POINTS:
            validations.clear()
            val = maximize_S_ns(G, P)
            [(model, report)] = validations
            assert val == report.S
            _assert_strictly_valid(model, G, P)

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
            maximize_S_ns(0.8, 0.3, restarts=0)


def _vertex_count(P):
    """Vertices of the capped simplex Q_P, by the formula for each range."""
    if P == 0.25:
        return 1
    if P <= 1.0 / 3.0:
        return 4
    return 6 if P == 0.5 else 4 if P == 1.0 else 12


class TestCappedSimplexVertices:
    _Ps = [0.25, 1.0 / 3.0, 0.5, 1.0, 0.5004912117589237, 1.0 / 3.0 - 1e-12,
           1.0 / 3.0 + 1e-12] + [float(P) for P in
                                  np.random.default_rng(5).uniform(0.25, 1.0, 50)]

    def test_distinct_vertices_of_Q_P_in_their_counts(self):
        for P in self._Ps:
            V = oracle._capped_simplex_vertices(P)
            assert V.shape == (_vertex_count(P), 4), P
            assert len({v.tobytes() for v in V}) == len(V)
            assert V.min() >= 0.0 and V.max() <= P
            assert np.abs(V.sum(axis=1) - 1.0).max() <= 1e-15

    def test_best_vertex_is_the_maximum_over_Q_P(self):
        rng = np.random.default_rng(8)
        for i in range(200):
            P = self._Ps[i % len(self._Ps)]
            c = rng.normal(size=4)
            ref = linprog(-c, A_eq=np.ones((1, 4)), b_eq=[1.0], bounds=(0.0, P),
                          method="highs")
            assert ref.status == 0, ref.message
            best = (oracle._capped_simplex_vertices(P) @ c).max()
            # HiGHS's point may leave Q_P by up to its 1e-7 feasibility
            # tolerance (by 3e-12 at P = 1/3 +- 1e-12).  Clipping it into
            # [0, P] and then fixing its sum moves it by at most twice the
            # miss below in L1, so its value by at most |c| times that.
            x = ref.x
            miss = (abs(x.sum() - 1.0) + np.maximum(x - P, 0.0).sum()
                    + np.maximum(-x, 0.0).sum())
            assert abs(best + ref.fun) <= 1e-12 + 2.0 * np.abs(c).max() * miss, (P, c)


def _free_will_row_lp(P, G):
    """Optimum of the ns LP written over w(v, jk) = rho_v q_v(jk) with one
    free-will row w(v, jk) <= P sum_jk' w(v, jk') per entry, by HiGHS; over
    the 16 deterministic boxes without the G row when G is None."""
    _, obj, g = oracle._vertices()
    n = 24 if G is not None else 16
    A_eq = np.tile(np.eye(4), n)
    b_eq = np.full(4, 0.25)
    if G is not None:
        A_eq = np.vstack([A_eq, np.repeat(g, 4)])
        b_eq = np.append(b_eq, G)
    res = linprog(-obj[:n].ravel(), A_ub=np.kron(np.eye(n), np.eye(4) - P),
                  b_ub=np.zeros(4 * n), A_eq=A_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    assert res.status == 0, res.message
    return -res.fun


class TestColumnLPAgainstFreeWillRows:
    """The LP over (vertex box, vertex of Q_P) columns has the optimum of the
    LP with free-will inequality rows, and its witnesses need no repair."""

    _points = [(float(G), float(P)) for G in np.linspace(0.5, 1.0, 11)
               for P in np.linspace(0.25, 0.33, 9)] + [
        (float(G), float(P)) for G, P in zip(
            np.random.default_rng(13).uniform(0.5, 1.0, 50),
            np.random.default_rng(14).uniform(0.25, 1.0, 50))]

    def test_values_match(self, validations):
        for G, P in self._points:
            for oracle_S, lp_G, max_components in (
                    (lambda: maximize_S_ns(G, P), G, 5),
                    (lambda: lp_deterministic_max_S(P), None, 4)):
                validations.clear()
                val = oracle_S()
                [(model, report)] = validations
                assert val == pytest.approx(_free_will_row_lp(P, lp_G), abs=1e-9), (G, P)
                assert len(model.components) <= max_components
                assert all((s.q <= P).all() for _, s, _ in model.components)


def test_witness_reports_equal_the_public_functions(validations):
    # core.validate checks a model once; its figures must still be exactly
    # those of the public functions, which check the model themselves.
    for G, P in _WITNESS_POINTS:
        maximize_S_ns(G, P)
        maximize_S_fac(G, P)
    assert len(validations) == 2 * len(_WITNESS_POINTS)
    for model, report in validations:
        assert report.S == core.observed_S(model)
        assert report.G == core.guessing_probability(model)
        assert report.P == core.free_will_parameter(model)


def test_each_vertex_box_computes_its_record_once(monkeypatch):
    # Every witness component of the campaign grid is one of the 24 cached
    # vertex boxes, so repeated calls validate them from their records.
    computed = []
    record = core._box_record

    def counting(p):
        computed.append(p)
        return record(p)

    monkeypatch.setattr(core, "_box_record", counting)
    oracle._vertices.cache_clear()
    boxes = oracle._vertices()[0]
    for _ in range(3):
        for P in np.linspace(0.25, 1.0 / 3.0, 5):
            lp_deterministic_max_S(P)
            for G in np.linspace(0.5, 1.0, 6):
                maximize_S_ns(G, P)
    assert len(computed) == len({id(p) for p in computed}) == 24
    assert {id(p) for p in computed} == {id(b.p) for b in boxes}


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
        for G, P in [(1.0, 0.25), (0.75, 0.28), (0.6, 0.33), (0.5, 0.3),
                     (0.5, 0.25), (1.0, 0.45), (0.8, 0.5), (1.0, 0.5),
                     (0.7, 0.6), (1.0, 0.75), (0.5, 1.0), (1.0, 1.0)]:
            val = maximize_S_fac(G, P, restarts=10, seed=0)
            assert val == pytest.approx(s_max_fac(G, P)[0], abs=1e-9)

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
        # The value is exact: neither the seed nor the restarts move it.
        a = maximize_S_fac(0.8, 0.29, restarts=4, seed=5)
        assert maximize_S_fac(0.8, 0.29, restarts=4, seed=5) == a
        assert maximize_S_fac(0.8, 0.29, restarts=1, seed=0) == a

    def test_value_is_the_validated_S_of_a_witness(self, validations):
        for G, P in _WITNESS_POINTS:
            validations.clear()
            val = maximize_S_fac(G, P)
            [(model, report)] = validations
            assert val == report.S
            _assert_strictly_valid(model, G, P)
            assert all(core.is_factorizable(s) for _, s, _ in model.components)

    def test_dual_bound_closes_on_the_acceptance_grid(self):
        for G in np.linspace(0.5, 1.0, 11):
            for P in np.linspace(0.25, 0.33, 9):
                model, upper = oracle._fac_model(float(G), float(P))
                assert upper - validate(model, 1e-9).S <= 1e-9

    def test_priced_columns_close_the_gap_from_the_centre(self, monkeypatch):
        # From the centre column alone, the optimal settings must be priced in.
        monkeypatch.setattr(oracle, "_start_settings", lambda P: np.array([[0.5, 0.5]]))
        solves = []

        def counting(*args, **kwargs):
            solves.append(None)
            return solve_lp(*args, **kwargs)

        monkeypatch.setattr(oracle, "solve_lp", counting)
        for G, P in [(0.8, 0.3), (1.0, 0.28), (0.6, 0.45), (0.9, 0.7)]:
            solves.clear()
            val = maximize_S_fac(G, P)
            assert val == pytest.approx(s_max_fac(G, P)[0], abs=1e-9)
            assert len(solves) > 1

    def test_an_open_gap_raises(self, monkeypatch):
        # Pricing that always reports a column worth 1 never closes the gap:
        # the oracle must refuse rather than return a lower bound.
        monkeypatch.setattr(oracle, "_price", lambda a, P: (1.0, 0, 0.5, 0.5))
        with pytest.raises(oracle.OracleError, match="bound"):
            maximize_S_fac(0.8, 0.3)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            maximize_S_fac(0.3, 0.3)
        with pytest.raises(DomainError):
            maximize_S_fac(0.8, 0.2)
        with pytest.raises(DomainError):
            maximize_S_fac(0.8, 0.3, restarts=0)


class TestPricing:
    """The fac oracle's closed-form pricing against a dense grid of the
    free-will cap region."""

    @pytest.mark.parametrize("P", [0.25, 1.0 / 3.0, 0.5, 1.0, 0.2871, 0.4137,
                                   0.6529, 0.9012])
    def test_no_grid_point_prices_higher(self, P):
        _, obj, g = oracle._vertices()
        s = np.linspace(0.0, 1.0, 401)
        u, w = (x.ravel() for x in np.meshgrid(s, s, indexing="ij"))
        cap = np.maximum(u, 1.0 - u) * np.maximum(w, 1.0 - w) <= P
        q = oracle._product_settings(u[cap], w[cap])
        rng = np.random.default_rng(int(P * 1e4))
        for _ in range(25):
            y = rng.normal(size=5) * rng.choice([0.1, 1.0, 10.0])
            a = obj - y[:4] - y[4] * g[:, None]
            r, v, u0, w0 = oracle._price(a, P)
            assert r >= (a @ q.T).max() - 1e-12
            # The priced column is a real one, worth what was reported.
            assert max(u0, 1.0 - u0) * max(w0, 1.0 - w0) <= P + 1e-15
            assert a[v] @ oracle._product_settings(u0, w0) == pytest.approx(r, abs=1e-12)
