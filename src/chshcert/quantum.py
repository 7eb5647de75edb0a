"""Two-qubit strategies for the biased-settings CHSH game.

A strategy is a pure two-qubit state plus four dichotomic observables given by
unit Bloch vectors.  This module provides the explicit optimal construction
for a non-degenerate settings distribution, exact strategy evaluation by 4x4
linear algebra, the Born-rule guessing probability, and a multi-start
numerical optimizer that serves as an independent oracle for the biased
Tsirelson bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import DomainError, alpha_opt
from .core import SETTING_SIGN, SettingsDistribution

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


@dataclass(frozen=True)
class Observable:
    """Dichotomic operator n.sigma with eigenvalues +-1; ``bloch`` is a unit
    3-vector (n_x, n_y, n_z)."""

    bloch: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bloch, dtype=float).reshape(3)
        if not (abs(np.linalg.norm(arr) - 1.0) <= 1e-12):
            raise DomainError("Bloch vector must have unit norm")
        arr.flags.writeable = False
        object.__setattr__(self, "bloch", arr)

    def matrix(self) -> np.ndarray:
        n = self.bloch
        return n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z

    @classmethod
    def from_vector(cls, v: Sequence[float]) -> "Observable":
        v = np.asarray(v, dtype=float).reshape(3)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise DomainError("cannot normalize a zero Bloch vector")
        return cls(v / norm)


@dataclass(frozen=True)
class TwoQubitState:
    """Pure state with amplitudes in basis order |00>, |01>, |10>, |11>."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.amplitudes, dtype=complex).reshape(4)
        if not (abs(np.linalg.norm(arr) - 1.0) <= 1e-12):
            raise DomainError("state amplitudes must have unit norm")
        # Global phase: first amplitude above numerical noise made real positive.
        for a in arr:
            if abs(a) > 1e-12:
                arr = arr * (abs(a) / a)
                break
        arr.flags.writeable = False
        object.__setattr__(self, "amplitudes", arr)

    def as_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to (alice, bob) index order."""
        return self.amplitudes.reshape(2, 2)


def maximally_entangled_state() -> TwoQubitState:
    return TwoQubitState(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))


@dataclass(frozen=True)
class QuantumStrategy:
    state: TwoQubitState
    a0: Observable
    a1: Observable
    b0: Observable
    b1: Observable
    beta: float | None = None

    def observables(self) -> tuple[tuple[Observable, Observable], tuple[Observable, Observable]]:
        return (self.a0, self.a1), (self.b0, self.b1)


def _expectation(psi_mat: np.ndarray, A: np.ndarray, B: np.ndarray) -> float:
    # <psi| A (x) B |psi> = tr(Psi^dagger A Psi B^T) for Psi = amplitudes as a
    # 2x2 matrix over (alice, bob) indices.
    val = np.trace(psi_mat.conj().T @ A @ psi_mat @ B.T)
    return float(val.real)


def evaluate_strategy(strategy: QuantumStrategy, dist: SettingsDistribution) -> float:
    """4 |sum_jk (-1)**jk p_jk <psi| A_j (x) B_k |psi>|."""
    dist.validate()
    psi = strategy.state.as_matrix()
    A = (strategy.a0.matrix(), strategy.a1.matrix())
    B = (strategy.b0.matrix(), strategy.b1.matrix())
    p = dist.q
    total = sum(
        SETTING_SIGN[j, k] * p[j, k] * _expectation(psi, A[j], B[k])
        for j in (0, 1) for k in (0, 1)
    )
    return float(4.0 * abs(total))


def strategy_guessing_probability(strategy: QuantumStrategy) -> float:
    """Largest Born-rule single-party outcome probability over both parties,
    settings and outcomes."""
    psi = strategy.state.as_matrix()
    eye = np.eye(2, dtype=complex)
    best = 0.0
    for obs in (strategy.a0, strategy.a1):
        exp = _expectation(psi, obs.matrix(), eye)
        best = max(best, (1.0 + exp) / 2.0, (1.0 - exp) / 2.0)
    for obs in (strategy.b0, strategy.b1):
        exp = _expectation(psi, eye, obs.matrix())
        best = max(best, (1.0 + exp) / 2.0, (1.0 - exp) / 2.0)
    return float(best)


def optimal_settings(dist: SettingsDistribution) -> QuantumStrategy:
    """Explicit strategy saturating the biased Tsirelson bound for a settings
    distribution with all entries positive and optimal anticommutator below 2
    in magnitude."""
    dist.validate()
    if dist.q.min() <= 0.0:
        raise DomainError(
            "degenerate settings distribution: the optimum is deterministic, "
            "no entangled construction applies"
        )
    alpha = alpha_opt(dist)
    if abs(alpha) >= 2.0:
        raise DomainError(
            "optimal anticommutator reaches 2: the optimum coincides with a "
            "deterministic strategy worth 4 - 8*p_min"
        )
    beta = math.acos(alpha / 2.0)
    cb, sb = math.cos(beta), math.sin(beta)
    p00, p01, p10, p11 = dist.probs
    a0 = Observable.from_vector([p00 + p01 * cb, 0.0, p01 * sb])
    a1 = Observable.from_vector([p10 - p11 * cb, 0.0, -p11 * sb])
    b0 = Observable(np.array([1.0, 0.0, 0.0]))
    b1 = Observable.from_vector([cb, 0.0, sb])
    return QuantumStrategy(
        state=maximally_entangled_state(), a0=a0, a1=a1, b0=b0, b1=b1, beta=beta
    )


# ---------------------------------------------------------------------------
# Numerical oracle.
#
# For fixed observables the optimal state is the extremal eigenvector of the
# weighted CHSH operator, so the search runs over the four Bloch vectors only
# (12 raw parameters; vectors are normalized inside the objective, which makes
# it scale invariant).  Gradients are analytic.

def _spectral_objective(x: np.ndarray, p: np.ndarray) -> tuple[float, np.ndarray]:
    vecs = x.reshape(4, 3)
    norms = np.linalg.norm(vecs, axis=1)
    units = vecs / norms[:, None]
    ops = [
        units[i, 0] * PAULI_X + units[i, 1] * PAULI_Y + units[i, 2] * PAULI_Z
        for i in range(4)
    ]
    A = ops[:2]
    B = ops[2:]
    M = sum(
        SETTING_SIGN[j, k] * p[j, k] * np.kron(A[j], B[k])
        for j in (0, 1) for k in (0, 1)
    )
    evals, evecs = np.linalg.eigh(M)
    if evals[-1] >= -evals[0]:
        lam, psi, sgn = evals[-1], evecs[:, -1], 1.0
    else:
        lam, psi, sgn = -evals[0], evecs[:, 0], -1.0
    psi_mat = psi.reshape(2, 2)

    grad = np.zeros((4, 3))
    # Alice blocks: d<M>/dA_j with companion C_j = sum_k sign*p*B_k.
    for j in (0, 1):
        C = SETTING_SIGN[j, 0] * p[j, 0] * B[0] + SETTING_SIGN[j, 1] * p[j, 1] * B[1]
        K = psi_mat @ C.T @ psi_mat.conj().T
        tr_sigma = np.array([np.trace(s @ K) for s in _PAULIS])
        tr_a = np.trace(A[j] @ K)
        grad[j] = (tr_sigma - units[j] * tr_a).real / norms[j]
    # Bob blocks: companion D_k = sum_j sign*p*A_j.
    for k in (0, 1):
        D = SETTING_SIGN[0, k] * p[0, k] * A[0] + SETTING_SIGN[1, k] * p[1, k] * A[1]
        Q = psi_mat.conj().T @ D @ psi_mat
        tr_sigma = np.array([(Q * s).sum() for s in _PAULIS])
        tr_b = (Q * B[k]).sum()
        grad[2 + k] = (tr_sigma - units[2 + k] * tr_b).real / norms[2 + k]
    return 4.0 * lam, sgn * 4.0 * grad.ravel()


def optimize_strategy_numeric(
    dist: SettingsDistribution, restarts: int = 50, seed: int = 0
) -> tuple[float, QuantumStrategy]:
    """Multi-start maximization of the biased CHSH value over all two-qubit
    strategies; deterministic given the seed.  Returns the best value found
    and the strategy achieving it."""
    from scipy.optimize import minimize

    dist.validate()
    if restarts < 1:
        raise DomainError("at least one restart is required")
    p = dist.q

    def fun(x):
        val, grad = _spectral_objective(x, p)
        return -val, -grad

    best_val = -np.inf
    best_x = None
    for i in range(restarts):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(seed, spawn_key=(i,)))
        )
        x0 = rng.normal(size=12)
        while np.linalg.norm(x0.reshape(4, 3), axis=1).min() < 1e-6:
            x0 = rng.normal(size=12)
        res = minimize(fun, x0, jac=True, method="L-BFGS-B",
                       options={"maxiter": 300, "ftol": 1e-15, "gtol": 1e-12})
        val = -res.fun
        if val > best_val:
            best_val = val
            best_x = res.x
    vecs = best_x.reshape(4, 3)
    obs = [Observable.from_vector(v) for v in vecs]
    M = sum(
        SETTING_SIGN[j, k] * p[j, k] * np.kron(obs[j].matrix(), obs[2 + k].matrix())
        for j in (0, 1) for k in (0, 1)
    )
    evals, evecs = np.linalg.eigh(M)
    psi = evecs[:, -1] if evals[-1] >= -evals[0] else evecs[:, 0]
    strategy = QuantumStrategy(
        state=TwoQubitState(psi), a0=obs[0], a1=obs[1], b0=obs[2], b1=obs[3]
    )
    return float(best_val), strategy


# ---------------------------------------------------------------------------
# JSON serialization

def strategy_to_dict(strategy: QuantumStrategy) -> dict:
    amps = strategy.state.amplitudes
    doc = {
        "state": [[float(a.real), float(a.imag)] for a in amps],
        "a0": [float(x) for x in strategy.a0.bloch],
        "a1": [float(x) for x in strategy.a1.bloch],
        "b0": [float(x) for x in strategy.b0.bloch],
        "b1": [float(x) for x in strategy.b1.bloch],
    }
    if strategy.beta is not None:
        doc["beta"] = float(strategy.beta)
    return doc


def strategy_from_dict(doc: dict) -> QuantumStrategy:
    amps = np.array([complex(re, im) for re, im in doc["state"]])
    return QuantumStrategy(
        state=TwoQubitState(amps),
        a0=Observable(np.asarray(doc["a0"], dtype=float)),
        a1=Observable(np.asarray(doc["a1"], dtype=float)),
        b0=Observable(np.asarray(doc["b0"], dtype=float)),
        b1=Observable(np.asarray(doc["b1"], dtype=float)),
        beta=doc.get("beta"),
    )
