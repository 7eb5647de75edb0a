"""Monte Carlo execution of repeated CHSH trials under a hidden-variable model.

The counts of an n-trial experiment over the cells (hidden variable lambda,
outcomes a, b, settings j, k) are Multinomial(n, rho_lambda q_lambda(j,k)
p_lambda(a,b|j,k)), so one multinomial draw stands for the whole experiment:
its cost does not grow with n.  The trial counts are its sum over lambda, and
the adversary's hits are a fixed subset of its cells.  The draw comes from a
counter-based Philox generator (numpy's ``np.random.Philox``) keyed by the
caller's seed, so identical (model, n, seed) inputs reproduce identical counts.
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


def _draw(model: HiddenVariableModel, n: int, seed: int) -> np.ndarray:
    """Counts of an n-trial experiment over the cells (lambda, a, b, j, k):
    one Multinomial(n, rho_lambda q_lambda(j,k) p_lambda(a,b|j,k)) draw,
    shape (L, 2, 2, 2, 2)."""
    model.validate()
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"number of trials must be an integer >= 1, got {n!r}")
    cells = np.stack([w * s.q * b.p for w, s, b in model.components])
    # Validation admits entries down to -tol; multinomial admits none.
    cells = np.clip(cells, 0.0, None)
    pvals = (cells / cells.sum()).ravel()
    return _rng(seed).multinomial(n, pvals).reshape(cells.shape)


def run_trials(model: HiddenVariableModel, n: int, seed: int) -> TrialCounts:
    """Counts N(a, b, j, k) of n independent trials."""
    return TrialCounts(n=n, counts=_draw(model, n, seed).sum(axis=0))


def estimate_S(counts: TrialCounts) -> tuple[float, float]:
    """Empirical CHSH value and its standard error.

    Each setting pair contributes the empirical correlator of +-1 outcome
    products; errors propagate binomially per pair and combine in quadrature.
    """
    totals = counts.setting_totals()
    if totals.min() == 0:
        raise DomainError("every setting pair must be observed at least once")
    corr = np.einsum("ab,abjk->jk", core._OUTCOME_SIGN, counts.counts) / totals
    s_hat = abs((core.SETTING_SIGN * corr).sum())
    var = ((1.0 - corr**2) / totals).sum()
    return float(s_hat), float(math.sqrt(var))


def _hit_cells(model: HiddenVariableModel, target: str) -> np.ndarray:
    """Boolean mask over the cells (lambda, a, b, j, k) in which the adversary
    guesses the target party's outcome correctly; see eve_guess_accuracy."""
    if target not in ("auto", "alice", "bob"):
        raise DomainError(f"unknown guessing target {target!r}")
    masks = []
    for _, _, box in model.components:
        m = box.alice_marginals()  # [a, j]
        nb = box.bob_marginals()   # [b, k]
        alice = target == "alice" or (target == "auto" and m.max() >= nb.max())
        table = m if alice else nb
        right = np.arange(2)[:, None] == table.argmax(axis=0)  # [outcome, setting]
        right = right[:, None, :, None] if alice else right[None, :, None, :]
        masks.append(np.broadcast_to(right, (2, 2, 2, 2)))
    return np.stack(masks)


def eve_guess_accuracy(
    model: HiddenVariableModel, n: int, seed: int, target: str = "auto"
) -> float:
    """Fraction of trials in which an adversary who knows the hidden variable
    and the realized settings correctly guesses the target party's outcome.

    ``target`` selects the guessed party: "alice", "bob", or "auto" (per
    component, the party whose marginal attains that component's guessing
    value, Alice on a tie).  The guess is the likelier outcome of the target
    party's marginal at the realized setting (outcome 0 on a tie), so the
    long-run accuracy never exceeds the model's guessing probability.
    """
    hits = _hit_cells(model, target)
    return float(_draw(model, n, seed)[hits].sum() / n)


def certify(counts: TrialCounts, P_assumed: float, mode: str) -> float:
    """Certified min-entropy, in bits, of the whole run: bound the guessing
    probability from the empirical CHSH value, then apply -n*log2(G).

    ``mode`` selects the adversary class: "ns" (general no-signalling,
    requires P < 1/3) or "fac" (factorizable settings, requires P < 1/2).
    """
    bound = {"ns": bounds.g_bound_ns, "fac": bounds.g_bound_fac}.get(mode)
    if bound is None:
        raise DomainError(f"unknown certification mode {mode!r}")
    s_hat, _ = estimate_S(counts)
    g = bound(min(s_hat, 4.0), P_assumed)
    if g >= 1.0:
        return 0.0
    return bounds.min_entropy_bound(g, counts.n)


def simulation_report(
    model: HiddenVariableModel, n: int, seed: int, P_assumed: float, mode: str
) -> SimulationReport:
    """Estimate S, the input frequencies and the adversary's accuracy from one
    n-trial draw, and certify the draw's counts."""
    draw = _draw(model, n, seed)
    counts = TrialCounts(n=n, counts=draw.sum(axis=0))
    s_hat, stderr = estimate_S(counts)
    accuracy = float(draw[_hit_cells(model, "auto")].sum() / n)
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
