"""Constructors for the explicit bound-saturating no-signalling models.

Each constructor returns a fully materialized four-component
:class:`~chshcert.core.HiddenVariableModel` with uniform component weights
(the unique choice that makes the observed input distribution uniform given
the settings columns used here).  Out-of-range parameters raise
:class:`~chshcert.bounds.DomainError`; nothing is clamped.
"""

from __future__ import annotations

import numpy as np

from .bounds import DomainError, check_G
from .core import Box, HiddenVariableModel, SettingsDistribution

# Outcome rows, in entry order (a,b) = 00, 01, 10, 11, parameterized by the
# guessing probability g.  Names describe the correlation each row encodes.
def _row_corr(g):        # perfectly correlated: 00 w.p. g, 11 w.p. 1-g
    return (g, 0.0, 0.0, 1.0 - g)

def _row_corr_flip(g):   # 00 w.p. 1-g, 11 w.p. g
    return (1.0 - g, 0.0, 0.0, g)

def _row_anti(g):        # anticorrelated: 01 w.p. 1-g, 10 w.p. g
    return (0.0, 1.0 - g, g, 0.0)

def _row_anti_flip(g):   # 01 w.p. g, 10 w.p. 1-g
    return (0.0, g, 1.0 - g, 0.0)

def _row_mix_01(g):      # 00 and 11 w.p. 1-g each, 01 w.p. 2g-1
    return (1.0 - g, 2.0 * g - 1.0, 0.0, 1.0 - g)

def _row_mix_10(g):      # 00 and 11 w.p. 1-g each, 10 w.p. 2g-1
    return (1.0 - g, 0.0, 2.0 * g - 1.0, 1.0 - g)

def _row_mix_00(g):      # 00 w.p. 2g-1, 01 and 10 w.p. 1-g each
    return (2.0 * g - 1.0, 1.0 - g, 1.0 - g, 0.0)


def _outcome_boxes(G: float) -> list[Box]:
    """The four per-component outcome tables of the optimal model, rows in
    setting order (j,k) = 00, 01, 10, 11."""
    return [
        Box.from_rows([_row_corr(G), _row_corr(G), _row_corr(G), _row_mix_00(G)]),
        Box.from_rows([_row_corr(G), _row_corr(G), _row_mix_10(G), _row_anti(G)]),
        Box.from_rows([_row_corr(G), _row_mix_01(G), _row_corr(G), _row_anti_flip(G)]),
        Box.from_rows([_row_mix_01(G), _row_corr(G), _row_corr_flip(G), _row_anti(G)]),
    ]


def _assemble(G: float, settings_rows) -> HiddenVariableModel:
    boxes = _outcome_boxes(G)
    comps = tuple(
        (0.25, SettingsDistribution.from_flat(row), box)
        for row, box in zip(settings_rows, boxes)
    )
    return HiddenVariableModel(comps)


def build_general_model(G: float, P: float) -> HiddenVariableModel:
    """Optimal no-signalling model with guessing probability G and free-will
    parameter P, for 1/4 <= P <= 1/3.  Saturates the general CHSH bound."""
    check_G(G)
    if not 0.25 <= P <= 1.0 / 3.0:
        raise DomainError(f"free-will parameter must lie in [1/4, 1/3], got {P}")
    r = 1.0 - 3.0 * P
    settings = [
        (P, P, P, r),
        (P, P, r, P),
        (P, r, P, P),
        (r, P, P, P),
    ]
    return _assemble(G, settings)


def build_high_P_model(G: float, P: float, Q: float, Qp: float) -> HiddenVariableModel:
    """Variant for P >= 1/3: settings columns are permutations of (P, Q, Q', 0)
    with Q, Q' <= P and P + Q + Q' = 1.  Reaches S = 4 at G = 1."""
    check_G(G)
    if not 1.0 / 3.0 <= P <= 1.0:
        raise DomainError(f"free-will parameter must lie in [1/3, 1], got {P}")
    if Q < 0.0 or Qp < 0.0 or Q > P or Qp > P:
        raise DomainError("secondary probabilities must satisfy 0 <= Q, Q' <= P")
    if abs(P + Q + Qp - 1.0) > 1e-12:
        raise DomainError("probabilities must satisfy P + Q + Q' = 1")
    settings = [
        (P, Q, Qp, 0.0),
        (Qp, P, 0.0, Q),
        (Q, 0.0, P, Qp),
        (0.0, Qp, Q, P),
    ]
    return _assemble(G, settings)


def build_fac_model_high_P(G: float, P: float) -> HiddenVariableModel:
    """Factorizable optimal model for P >= 1/2: the high-P variant with
    Q = 1 - P and Q' = 0, whose settings distributions are all rank 1."""
    if not 0.5 <= P <= 1.0:
        raise DomainError(f"free-will parameter must lie in [1/2, 1], got {P}")
    return build_high_P_model(G, P, 1.0 - P, 0.0)


def build_fac_model_low_P(G: float, P: float) -> HiddenVariableModel:
    """Factorizable optimal model for 1/4 <= P <= 1/2; saturates the
    factorizable CHSH bound 4 - 4(2G-1)(1-2P)."""
    check_G(G)
    if not 0.25 <= P <= 0.5:
        raise DomainError(f"free-will parameter must lie in [1/4, 1/2], got {P}")
    h = 0.5 - P
    settings = [
        (P, P, h, h),
        (h, P, h, P),
        (P, h, P, h),
        (h, h, P, P),
    ]
    return _assemble(G, settings)
