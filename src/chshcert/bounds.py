"""Closed-form trade-off bounds between CHSH violation, guessing probability
and measurement-dependence, plus min-entropy accounting.

All functions are pure arithmetic on scalars or on one settings distribution;
branch tags report which case of a piecewise formula applied.  Domain
violations raise :class:`DomainError`, invalid distributions ``ValidationError``.
"""

from __future__ import annotations

import math
import numpy as np

from .core import SettingsDistribution

# Branch tags for piecewise bounds.
BRANCH_CLOSED_FORM = "closed-form"
BRANCH_SATURATED = "saturated-at-4"
BRANCH_DETERMINISTIC = "deterministic"
BRANCH_QUANTUM = "quantum"


class DomainError(ValueError):
    """An argument lies outside the validity range of the requested bound."""


def check_G(G: float) -> None:
    """Raise DomainError unless the guessing probability G lies in [1/2, 1]."""
    if not 0.5 <= G <= 1.0:
        raise DomainError(f"guessing probability must lie in [1/2, 1], got {G}")


def check_P(P: float) -> None:
    """Raise DomainError unless the free-will parameter P lies in [1/4, 1]."""
    if not 0.25 <= P <= 1.0:
        raise DomainError(f"free-will parameter must lie in [1/4, 1], got {P}")


def s_max_ns(G: float, P: float) -> tuple[float, str]:
    """Maximal CHSH value of any no-signalling model with guessing probability
    G and free-will parameter P: 4 - 8(2G-1)(1-3P) for P <= 1/3, else 4."""
    check_G(G)
    check_P(P)
    if P <= 1.0 / 3.0:
        return 4.0 - 8.0 * (2.0 * G - 1.0) * (1.0 - 3.0 * P), BRANCH_CLOSED_FORM
    return 4.0, BRANCH_SATURATED


def g_bound_ns(S: float, P: float) -> float:
    """Upper bound on the guessing probability given an observed CHSH value S
    and free-will parameter P < 1/3 (no-signalling adversary)."""
    if not 0.0 <= S <= 4.0:
        raise DomainError(f"CHSH value must lie in [0, 4], got {S}")
    check_P(P)
    if P >= 1.0 / 3.0:
        raise DomainError(
            "guessing-probability bound is trivial for P >= 1/3: a deterministic "
            "model reaches S = 4, so G may equal 1 at any S"
        )
    s1, _ = s_max_ns(1.0, P)
    return min(0.5 * (1.0 + (4.0 - S) / (4.0 - s1)), 1.0)


def s_max_fac(G: float, P: float) -> tuple[float, str]:
    """Maximal CHSH value when every settings distribution factorizes:
    4 - 4(2G-1)(1-2P) for P <= 1/2, else 4."""
    check_G(G)
    check_P(P)
    if P <= 0.5:
        return 4.0 - 4.0 * (2.0 * G - 1.0) * (1.0 - 2.0 * P), BRANCH_CLOSED_FORM
    return 4.0, BRANCH_SATURATED


def g_bound_fac(S: float, P: float) -> float:
    """Factorizable-adversary analogue of :func:`g_bound_ns`; valid for P < 1/2."""
    if not 0.0 <= S <= 4.0:
        raise DomainError(f"CHSH value must lie in [0, 4], got {S}")
    check_P(P)
    if P >= 0.5:
        raise DomainError(
            "guessing-probability bound is trivial for P >= 1/2 in the "
            "factorizable case"
        )
    s1, _ = s_max_fac(1.0, P)
    return min(0.5 * (1.0 + (4.0 - S) / (4.0 - s1)), 1.0)


def s_max_quantum(P: float) -> tuple[float, str]:
    """Maximal CHSH value achievable by a two-qubit strategy when the adversary
    biases the settings with free-will parameter P.

    For P < 3/10 the optimum is a fully random (G = 1/2) entangled strategy
    worth 4(1-2P)^(3/2)/sqrt(1-3P); for 3/10 <= P <= 1/3 a deterministic
    strategy worth 24P - 4 dominates; for P >= 1/3 the value saturates at 4.
    """
    check_P(P)
    if P < 0.3:
        val = 4.0 * (1.0 - 2.0 * P) ** 1.5 / math.sqrt(1.0 - 3.0 * P)
        return val, BRANCH_QUANTUM
    if P <= 1.0 / 3.0:
        return 24.0 * P - 4.0, BRANCH_DETERMINISTIC
    return 4.0, BRANCH_SATURATED


# Another name for the settings type, which callers of the biased-CHSH bounds use.
BiasedDistribution = SettingsDistribution


def family_distribution(P: float) -> SettingsDistribution:
    """The extremal family (P, P, P, 1-3P) for 1/4 <= P <= 1/3."""
    if not 0.25 <= P <= 1.0 / 3.0:
        raise DomainError(f"family parameter must lie in [1/4, 1/3], got {P}")
    return SettingsDistribution([P, P, P, 1.0 - 3.0 * P])


def alpha_opt(dist: SettingsDistribution) -> float:
    """Optimal anticommutator expectation of Bob's observables for a biased
    CHSH game; singular when any setting-pair probability vanishes."""
    dist.validate()
    p00, p01, p10, p11 = dist.probs
    if dist.q.min() <= 0.0:
        raise DomainError(
            "optimal anticommutator is undefined for degenerate distributions; "
            "use the deterministic bound 4 - 8*p_min instead"
        )
    num = p00**2 * p01**2 * (p10**2 + p11**2) - p10**2 * p11**2 * (p00**2 + p01**2)
    den = p00 * p01 * p10 * p11 * (p00 * p01 + p10 * p11)
    return num / den


def s_q_max_dist(dist: SettingsDistribution) -> tuple[float, str]:
    """Maximal two-qubit CHSH value for a fixed settings distribution.

    When the distribution is degenerate or the optimal anticommutator would
    exceed 2 in magnitude, the optimum coincides with a deterministic strategy
    worth 4 - 8*p_min.
    """
    dist.validate()
    p00, p01, p10, p11 = dist.probs
    p_min = float(dist.q.min())
    if p_min <= 0.0 or abs(alpha_opt(dist)) >= 2.0:
        return 4.0 - 8.0 * max(p_min, 0.0), BRANCH_DETERMINISTIC
    val = 4.0 * math.sqrt(p00 * p01 + p10 * p11) * math.sqrt(
        (p00**2 + p01**2) / (p00 * p01) + (p10**2 + p11**2) / (p10 * p11)
    )
    return val, BRANCH_QUANTUM


def s_max_quantum_fac(P: float) -> float:
    """Maximal two-qubit CHSH value over factorizable settings distributions
    with free-will parameter P < 1/2: 4*sqrt(4P^2 + (1-2P)^2)."""
    if not 0.25 <= P < 0.5:
        raise DomainError(f"free-will parameter must lie in [1/4, 1/2), got {P}")
    return 4.0 * math.sqrt(4.0 * P**2 + (1.0 - 2.0 * P) ** 2)


def min_entropy_bound(G: float, n: int) -> float:
    """Certified min-entropy, in bits, of n independent runs with per-run
    guessing probability G: -n*log2(G)."""
    check_G(G)
    if n < 1:
        raise DomainError(f"number of runs must be >= 1, got {n}")
    return -n * math.log2(G)
