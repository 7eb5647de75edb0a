"""Monte Carlo execution of repeated CHSH trials under a hidden-variable model.

Trials are sampled with a counter-based Philox generator (numpy's
``np.random.Philox``) keyed by the caller's seed, so identical
(model, n, seed) inputs reproduce identical counts bit for bit on any
platform.  Sampling is inverse-CDF over the discrete distributions; the whole
trial batch is vectorized.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import bounds, core
from .bounds import DomainError
from .core import HiddenVariableModel


@dataclass(frozen=True)
class TrialCounts:
    """Outcome/setting tally N(a, b, j, k) of an n-trial experiment."""

    n: int
    counts: np.ndarray  # shape (2, 2, 2, 2), indexed [a, b, j, k]

    def __post_init__(self):
        raw = np.asarray(self.counts)
        if raw.dtype.kind not in "biu":
            raw = raw.astype(float)
            if not np.isfinite(raw).all():
                raise ValueError("counts must be finite")
            if (raw != np.round(raw)).any():
                raise ValueError("counts must be integers")
        arr = raw.astype(np.int64).reshape(2, 2, 2, 2)
        if arr.min() < 0:
            raise ValueError("counts must be nonnegative")
        if arr.sum() != self.n:
            raise ValueError(f"counts sum to {arr.sum()}, expected n={self.n}")
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)

    def setting_totals(self) -> np.ndarray:
        """N(j, k), shape (2, 2)."""
        return self.counts.sum(axis=(0, 1))

    def input_frequencies(self) -> np.ndarray:
        return self.setting_totals() / self.n


@dataclass(frozen=True)
class SimulationReport:
    S_hat: float
    S_stderr: float
    input_freqs: tuple[float, float, float, float]
    eve_accuracy: float
    certified_bits: float

    def to_dict(self) -> dict:
        return {
            "S_hat": self.S_hat,
            "S_stderr": self.S_stderr,
            "input_freqs": list(self.input_freqs),
            "eve_accuracy": self.eve_accuracy,
            "certified_bits": self.certified_bits,
        }


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _sample_trials(
    model: HiddenVariableModel, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample (component index, flat setting index, flat outcome index) for n
    trials.  Flat indices follow order (j,k) resp. (a,b) = 00, 01, 10, 11."""
    model.validate()
    if n < 1:
        raise DomainError(f"number of trials must be >= 1, got {n}")
    rng = _rng(seed)
    weights = model.weights
    L = len(weights)
    settings_cdf = np.cumsum(
        np.stack([s.q.ravel() for _, s, _ in model.components]), axis=1
    )
    # Outcome tables per (component, setting): shape (L, 4, 4) over (a,b).
    outcome_cdf = np.cumsum(
        np.stack([
            b.p.reshape(4, 2, 2).transpose(1, 2, 0).reshape(4, 4)
            for _, _, b in model.components
        ]),
        axis=2,
    )
    lam = np.searchsorted(np.cumsum(weights), rng.random(n), side="right")
    lam = np.minimum(lam, L - 1)
    u = rng.random(n)
    setting = (u[:, None] >= settings_cdf[lam]).sum(axis=1)
    setting = np.minimum(setting, 3)
    u = rng.random(n)
    outcome = (u[:, None] >= outcome_cdf[lam, setting]).sum(axis=1)
    outcome = np.minimum(outcome, 3)
    return lam, setting, outcome


def run_trials(model: HiddenVariableModel, n: int, seed: int) -> TrialCounts:
    """Run n independent trials: sample the hidden variable, then the setting
    pair, then the outcome pair; accumulate counts."""
    _, setting, outcome = _sample_trials(model, n, seed)
    flat = np.bincount(outcome * 4 + setting, minlength=16)
    counts = flat.reshape(2, 2, 2, 2)  # [a, b, j, k]
    return TrialCounts(n=n, counts=counts)


def estimate_S(counts: TrialCounts) -> tuple[float, float]:
    """Empirical CHSH value and its standard error.

    Each setting pair contributes the empirical correlator of +-1 outcome
    products; errors propagate binomially per pair and combine in quadrature.
    """
    totals = counts.setting_totals()
    if totals.min() == 0:
        raise DomainError("every setting pair must be observed at least once")
    sign_ab = np.array([[1.0, -1.0], [-1.0, 1.0]])
    corr = np.einsum("ab,abjk->jk", sign_ab, counts.counts.astype(float)) / totals
    s_hat = abs((core.SETTING_SIGN * corr).sum())
    var = ((1.0 - corr**2) / totals).sum()
    return float(s_hat), float(math.sqrt(var))


def eve_guess_accuracy(
    model: HiddenVariableModel, n: int, seed: int, target: str = "auto"
) -> float:
    """Fraction of trials in which an adversary who knows the hidden variable
    and the realized settings correctly guesses the target party's outcome.

    ``target`` selects the guessed party: "alice", "bob", or "auto" (per
    component, the party whose marginal attains that component's guessing
    value).  The guess is the likelier outcome of the target party's marginal
    at the realized setting, so the long-run accuracy never exceeds the
    model's guessing probability.
    """
    if target not in ("auto", "alice", "bob"):
        raise DomainError(f"unknown guessing target {target!r}")
    lam, setting, outcome = _sample_trials(model, n, seed)
    L = len(model.components)
    # Per component: target party (0 = Alice, 1 = Bob) and the guess for each
    # of that party's two settings.
    party = np.zeros(L, dtype=np.int64)
    guess = np.zeros((L, 2), dtype=np.int64)
    for i, (_, _, box) in enumerate(model.components):
        m = box.alice_marginals()  # [a, j]
        nb = box.bob_marginals()   # [b, k]
        if target == "alice":
            party[i] = 0
        elif target == "bob":
            party[i] = 1
        else:
            party[i] = 0 if m.max() >= nb.max() else 1
        table = m if party[i] == 0 else nb
        guess[i] = table.argmax(axis=0)
    j = setting // 2
    k = setting % 2
    a = outcome // 2
    b = outcome % 2
    own_setting = np.where(party[lam] == 0, j, k)
    own_outcome = np.where(party[lam] == 0, a, b)
    hits = own_outcome == guess[lam, own_setting]
    return float(hits.mean())


def certify(counts: TrialCounts, P_assumed: float, mode: str) -> float:
    """Certified min-entropy, in bits, of the whole run: bound the guessing
    probability from the empirical CHSH value, then apply -n*log2(G).

    ``mode`` selects the adversary class: "ns" (general no-signalling,
    requires P < 1/3) or "fac" (factorizable settings, requires P < 1/2).
    """
    s_hat, _ = estimate_S(counts)
    if mode == "ns":
        if P_assumed >= 1.0 / 3.0:
            raise DomainError(
                "certification impossible for P >= 1/3 under the no-signalling "
                "assumption: a deterministic model reaches S = 4, so no CHSH "
                "value bounds the guessing probability below 1"
            )
        g = bounds.g_bound_ns(min(s_hat, 4.0), P_assumed)
    elif mode == "fac":
        if P_assumed >= 0.5:
            raise DomainError(
                "certification impossible for P >= 1/2 with factorizable "
                "settings: a deterministic model reaches S = 4"
            )
        g = bounds.g_bound_fac(min(s_hat, 4.0), P_assumed)
    else:
        raise DomainError(f"unknown certification mode {mode!r}")
    if g >= 1.0:
        return 0.0
    return bounds.min_entropy_bound(g, counts.n)


def simulation_report(
    model: HiddenVariableModel, n: int, seed: int, P_assumed: float, mode: str
) -> SimulationReport:
    counts = run_trials(model, n, seed)
    s_hat, stderr = estimate_S(counts)
    accuracy = eve_guess_accuracy(model, n, seed + 1, target="auto")
    bits = certify(counts, P_assumed, mode)
    freqs = counts.input_frequencies().ravel()
    return SimulationReport(
        S_hat=s_hat,
        S_stderr=stderr,
        input_freqs=tuple(float(f) for f in freqs),
        eve_accuracy=accuracy,
        certified_bits=bits,
    )


# ---------------------------------------------------------------------------
# CSV serialization of counts

def counts_to_csv(counts: TrialCounts) -> str:
    buf = io.StringIO()
    buf.write("a,b,j,k,count\n")
    for a in (0, 1):
        for b in (0, 1):
            for j in (0, 1):
                for k in (0, 1):
                    buf.write(f"{a},{b},{j},{k},{counts.counts[a, b, j, k]}\n")
    return buf.getvalue()


def counts_from_csv(text: str) -> TrialCounts:
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0].strip() != "a,b,j,k,count":
        raise ValueError("expected header 'a,b,j,k,count'")
    arr = np.zeros((2, 2, 2, 2), dtype=np.int64)
    seen = set()
    for ln in lines[1:]:
        a, b, j, k, cnt = (int(tok) for tok in ln.split(","))
        cell = (a, b, j, k)
        if not set(cell) <= {0, 1}:
            raise ValueError(f"row {ln!r}: a, b, j, k must each be 0 or 1")
        if cell in seen:
            raise ValueError(f"row {ln!r}: duplicate cell {cell}")
        seen.add(cell)
        arr[cell] = cnt
    if len(seen) != 16:
        raise ValueError(f"expected all 16 (a, b, j, k) cells, got {len(seen)}")
    return TrialCounts(n=int(arr.sum()), counts=arr)
