"""Exact representation and evaluation of no-signalling hidden-variable models.

A model is a finite weighted mixture of components.  Each component carries a
settings distribution p(A_j, B_k | lambda) over the four input pairs and a
conditional outcome table p(a, b | A_j, B_k, lambda) (a "box").  This module
computes the three figures of merit of such a model:

* ``observed_S``            -- the CHSH correlation of the observed statistics,
* ``guessing_probability``  -- the weighted maximal single-party marginal,
* ``free_will_parameter``   -- the maximal probability of any input pair,

together with validity checks (normalization, positivity, no-signalling,
uniform observed inputs) and a JSON serialization that round-trips bit-exactly
at double precision.

Index conventions: boxes are arrays of shape (2, 2, 2, 2) indexed [a, b, j, k];
settings distributions are arrays of shape (2, 2) indexed [j, k].
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

DEFAULT_TOL = 1e-9

# (-1)**(a+b) sign table, shape (2, 2) indexed [a, b].
_OUTCOME_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])
# (-1)**(j*k) sign table, shape (2, 2) indexed [j, k].
SETTING_SIGN = np.array([[1.0, 1.0], [1.0, -1.0]])


class ValidationError(ValueError):
    """An input violates a structural invariant (normalization, positivity,
    no-signalling, or uniform observed inputs)."""


@dataclass(frozen=True)
class Box:
    """Conditional outcome table p(a, b | A_j, B_k) for one hidden-variable value.

    ``p`` has shape (2, 2, 2, 2), indexed [a, b, j, k].
    """

    p: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float)
        if arr.shape != (2, 2, 2, 2):
            raise ValidationError(f"box table must have shape (2,2,2,2), got {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "p", arr)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "Box":
        """Build from four rows, one per setting pair (j,k) = 00, 01, 10, 11,
        each listing p(a,b) in outcome order (a,b) = 00, 01, 10, 11."""
        arr = np.asarray(rows, dtype=float)
        if arr.shape != (4, 4):
            raise ValidationError(f"expected 4 rows of 4 entries, got shape {arr.shape}")
        p = np.empty((2, 2, 2, 2))
        for idx, (j, k) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            p[:, :, j, k] = arr[idx].reshape(2, 2)
        return cls(p)

    def to_rows(self) -> list[list[float]]:
        return [
            [float(self.p[a, b, j, k]) for a in (0, 1) for b in (0, 1)]
            for (j, k) in ((0, 0), (0, 1), (1, 0), (1, 1))
        ]

    def alice_marginals(self) -> np.ndarray:
        """p(a | A_j), shape (2, 2) indexed [a, j], averaged over Bob's setting.

        For a no-signalling box both of Bob's settings give the same value; the
        average makes the result well defined for near-valid boxes too.
        """
        return self.p.sum(axis=1).mean(axis=2)

    def bob_marginals(self) -> np.ndarray:
        """p(b | B_k), shape (2, 2) indexed [b, k]."""
        return self.p.sum(axis=0).mean(axis=1)

    def correlators(self) -> np.ndarray:
        """E(j, k) = sum_ab (-1)**(a+b) p(a,b|j,k), shape (2, 2)."""
        return np.einsum("ab,abjk->jk", _OUTCOME_SIGN, self.p)

    def guessing_value(self) -> float:
        """Largest single-party outcome probability over both parties and settings."""
        m = self.alice_marginals()
        n = self.bob_marginals()
        return float(max(m.max(), n.max()))

    def check(self, tol: float = DEFAULT_TOL) -> list[str]:
        """Return a list of violated invariants (empty when valid).

        Every test is written as ``not (x >= bound)`` or ``not (x <= bound)``:
        NaN compares False with everything, so it fails the test instead of
        passing it, and an infinite entry fails normalization."""
        failures = []
        lo = self.p.min()
        if not lo >= -tol:
            failures.append(f"box has negative or NaN entry {lo:.3g}")
        norms = self.p.sum(axis=(0, 1))
        if not np.abs(norms - 1.0).max() <= tol:
            failures.append("box columns not normalized")
        # Alice's marginal must not depend on Bob's setting and vice versa.
        pa = self.p.sum(axis=1)  # [a, j, k]
        pb = self.p.sum(axis=0)  # [b, j, k]
        if not np.abs(pa[:, :, 0] - pa[:, :, 1]).max() <= tol:
            failures.append("box signals from Bob to Alice")
        if not np.abs(pb[:, 0, :] - pb[:, 1, :]).max() <= tol:
            failures.append("box signals from Alice to Bob")
        return failures

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        failures = self.check(tol)
        if failures:
            raise ValidationError("; ".join(failures))


def box_from_marginals(m: Sequence[float], n: Sequence[float], c: np.ndarray) -> Box:
    """Assemble a box from Alice marginals m_j = p(a=0|A_j), Bob marginals
    n_k = p(b=0|B_k) and joint probabilities c[j,k] = p(0,0|A_j,B_k).

    The remaining entries follow from normalization:
    p(0,1) = m - c, p(1,0) = n - c, p(1,1) = 1 + c - m - n.
    """
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    c = np.asarray(c, dtype=float)
    p = np.empty((2, 2, 2, 2))
    p[0, 0] = c
    p[0, 1] = m[:, None] - c
    p[1, 0] = n[None, :] - c
    p[1, 1] = 1.0 + c - m[:, None] - n[None, :]
    return Box(p)


def pr_box() -> Box:
    """Extremal no-signalling box: p(a,b|j,k) = 1/2 iff a XOR b = j*k."""
    p = np.zeros((2, 2, 2, 2))
    for a in (0, 1):
        for b in (0, 1):
            for j in (0, 1):
                for k in (0, 1):
                    if (a ^ b) == (j & k):
                        p[a, b, j, k] = 0.5
    return Box(p)


def uniform_box() -> Box:
    return Box(np.full((2, 2, 2, 2), 0.25))


def deterministic_box(a0: int, a1: int, b0: int, b1: int) -> Box:
    """Local deterministic box: Alice outputs a_j on input j, Bob b_k on input k."""
    p = np.zeros((2, 2, 2, 2))
    outs_a = (a0, a1)
    outs_b = (b0, b1)
    for j in (0, 1):
        for k in (0, 1):
            p[outs_a[j], outs_b[k], j, k] = 1.0
    return Box(p)


@dataclass(frozen=True)
class SettingsDistribution:
    """Distribution p(A_j, B_k | lambda) over the four input pairs; shape (2, 2)."""

    q: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.q, dtype=float).reshape(2, 2)
        arr.flags.writeable = False
        object.__setattr__(self, "q", arr)

    @classmethod
    def from_flat(cls, vals: Sequence[float]) -> "SettingsDistribution":
        """Entry order (j,k) = 00, 01, 10, 11."""
        return cls(np.asarray(vals, dtype=float).reshape(2, 2))

    def to_flat(self) -> list[float]:
        return [float(x) for x in self.q.ravel()]

    def check(self, tol: float = DEFAULT_TOL) -> list[str]:
        failures = []  # NaN-safe comparisons, as in Box.check
        lo = self.q.min()
        if not lo >= -tol:
            failures.append(f"settings distribution has negative or NaN entry {lo:.3g}")
        if not abs(self.q.sum() - 1.0) <= tol:
            failures.append("settings distribution not normalized")
        return failures

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        failures = self.check(tol)
        if failures:
            raise ValidationError("; ".join(failures))


def uniform_settings() -> SettingsDistribution:
    return SettingsDistribution(np.full((2, 2), 0.25))


@dataclass(frozen=True)
class HiddenVariableModel:
    """Weighted mixture of (settings distribution, box) components."""

    components: tuple[tuple[float, SettingsDistribution, Box], ...]

    def __post_init__(self):
        comps = tuple(
            (float(w), s, b) for (w, s, b) in self.components
        )
        object.__setattr__(self, "components", comps)

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for (w, _, _) in self.components])

    def observed_input_distribution(self) -> np.ndarray:
        """sum_lambda rho(lambda) p(j,k|lambda), shape (2, 2)."""
        out = np.zeros((2, 2))
        for w, s, _ in self.components:
            out += w * s.q
        return out

    def check(self, tol: float = DEFAULT_TOL) -> list[str]:
        failures = []  # NaN-safe comparisons, as in Box.check
        w = self.weights
        if not w.min() >= -tol:
            failures.append("negative or NaN component weight")
        if not abs(w.sum() - 1.0) <= tol:
            failures.append(f"component weights sum to {w.sum():.12g}, not 1")
        for i, (_, s, b) in enumerate(self.components):
            failures.extend(f"component {i}: {msg}" for msg in s.check(tol))
            failures.extend(f"component {i}: {msg}" for msg in b.check(tol))
        obs = self.observed_input_distribution()
        if not np.abs(obs - 0.25).max() <= tol:
            failures.append("observed input distribution is not uniform")
        return failures

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        failures = self.check(tol)
        if failures:
            raise ValidationError("; ".join(failures))


@dataclass(frozen=True)
class ModelReport:
    """Aggregated invariants and figures of merit for one model."""

    S: float
    G: float
    P: float
    factorizable: bool
    valid: bool
    failures: tuple[str, ...] = field(default=())


def chsh_of_box(box: Box, tol: float = DEFAULT_TOL) -> float:
    """CHSH correlation |sum_abjk (-1)**(a+b+jk) p(a,b|j,k)|, in [0, 4]."""
    box.validate(tol)
    return float(abs((SETTING_SIGN * box.correlators()).sum()))


def bayes_mixed_box(model: HiddenVariableModel) -> Box:
    """Observed box p(a,b|j,k) = sum_lambda rho(lambda|j,k) p_lambda(a,b|j,k).

    Uses rho(lambda|j,k) = rho(lambda) q_lambda(j,k) / p(j,k) with the observed
    input probabilities p(j,k); for a model passing the uniformity check these
    are all 1/4.
    """
    pjk = model.observed_input_distribution()
    p = np.zeros((2, 2, 2, 2))
    for w, s, b in model.components:
        p += (w * s.q)[None, None, :, :] * b.p
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(pjk > 0.0, p / pjk, 0.25)
    return Box(p)


def observed_S(model: HiddenVariableModel, tol: float = DEFAULT_TOL) -> float:
    """CHSH correlation of the observed statistics of a uniform-inputs model.

    Equals 4 |sum_{lambda,j,k} (-1)**jk rho(lambda) q_lambda(j,k) E_lambda(j,k)|.
    """
    model.validate(tol)
    total = 0.0
    for w, s, b in model.components:
        total += w * (SETTING_SIGN * s.q * b.correlators()).sum()
    return float(4.0 * abs(total))


def guessing_probability(model: HiddenVariableModel, tol: float = DEFAULT_TOL) -> float:
    """Weighted average over lambda of the largest single-party marginal."""
    model.validate(tol)
    return float(sum(w * b.guessing_value() for w, _, b in model.components))


def free_will_parameter(model: HiddenVariableModel, tol: float = DEFAULT_TOL) -> float:
    """Largest input-pair probability over components with positive weight."""
    model.validate(tol)
    best = 0.0
    for w, s, _ in model.components:
        if w > 0.0:
            best = max(best, float(s.q.max()))
    return best


def is_factorizable(settings: SettingsDistribution, tol: float = DEFAULT_TOL) -> bool:
    """True iff the 2x2 settings matrix has rank 1 within tol."""
    settings.validate(tol)
    q = settings.q
    return bool(abs(q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0]) <= tol)


def proof_quantity_K(box: Box) -> float:
    """Diagnostic sum of marginal gaps |m0-n0| + |m0-n1| + |m1-n0| + |m1+n1-1|.

    For any valid box this dominates 2*g - 1 where g is the box's guessing
    value; used only by property tests.
    """
    m = box.alice_marginals()[0]  # p(a=0|A_j)
    n = box.bob_marginals()[0]
    return float(
        abs(m[0] - n[0]) + abs(m[0] - n[1]) + abs(m[1] - n[0]) + abs(m[1] + n[1] - 1.0)
    )


def validate(model: HiddenVariableModel, tol: float = DEFAULT_TOL) -> ModelReport:
    """Run all invariant checks and aggregate S, G, P and factorizability.

    When the model is invalid the figures of merit are reported as NaN and the
    offending invariants are listed in ``failures``.
    """
    failures = model.check(tol)
    if failures:
        return ModelReport(
            S=float("nan"), G=float("nan"), P=float("nan"),
            factorizable=False, valid=False, failures=tuple(failures),
        )
    fac = all(is_factorizable(s, tol) for w, s, _ in model.components if w > 0.0)
    return ModelReport(
        S=observed_S(model, tol),
        G=guessing_probability(model, tol),
        P=free_will_parameter(model, tol),
        factorizable=fac,
        valid=True,
    )


# ---------------------------------------------------------------------------
# JSON serialization

def model_to_dict(model: HiddenVariableModel) -> dict:
    return {
        "components": [
            {"weight": float(w), "settings": s.to_flat(), "box": b.to_rows()}
            for w, s, b in model.components
        ]
    }


def model_from_dict(doc: dict) -> HiddenVariableModel:
    try:
        comps = tuple(
            (
                float(c["weight"]),
                SettingsDistribution.from_flat(c["settings"]),
                Box.from_rows(c["box"]),
            )
            for c in doc["components"]
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed model document: {exc}") from exc
    return HiddenVariableModel(comps)


def model_to_json(model: HiddenVariableModel) -> str:
    return json.dumps(model_to_dict(model), indent=2)


def model_from_json(text: str) -> HiddenVariableModel:
    return model_from_dict(json.loads(text))
