"""Verdicts from the three canonical channel minima against the 1/10 threshold.

Decision table (t = 1/10, comparisons within ``eps``):

    all three cuts >= t      -> fully separable (necessary-condition based)
    exactly one cut >= t     -> biseparable in that cut
    no cut >= t              -> genuine tripartite entanglement
    two cuts >= t            -> reported as biseparable with both passing
                                cuts attached; the three-way taxonomy above
                                does not name this case, so the raw cut set
                                is surfaced instead of inventing a class.

A cut passing means only that the state is *consistent with* separability
across it (PPT there); beyond 2x2 and 2x3 systems PPT cannot exclude bound
entanglement, so every verdict carries ``necessity_caveat=True``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalFailure, ParamOutOfRange
from .ptranspose import QUBITS
from .spa import THRESHOLD, spa_pt_canonical
from .linalg import min_eigenvalue

CUT_NAMES = {"A": "A-BC", "B": "B-AC", "C": "C-AB"}
DEFAULT_EPS = 1e-9

GENUINE = "genuine-entangled"
BISEPARABLE = "biseparable"
FULLY_SEPARABLE = "fully-separable"

# Canonical channel minima live in [0, 0.3]: 1/10 + (1/5)*mu with mu in [-1/2, 1].
_LAM_LO, _LAM_HI = -1e-10, 0.3 + 1e-10


@dataclass(frozen=True)
class SpectralSummary:
    """Minimum eigenvalues of the three canonical channel outputs."""

    lam_a: float
    lam_b: float
    lam_c: float

    def __post_init__(self):
        for name, lam in zip("abc", (self.lam_a, self.lam_b, self.lam_c)):
            if not _LAM_LO <= lam <= _LAM_HI:
                raise NumericalFailure(
                    f"channel minimum lam_{name}={lam!r} outside [0, 0.3]"
                )

    @property
    def lam_max(self) -> float:
        return max(self.lam_a, self.lam_b, self.lam_c)

    def per_cut(self) -> dict[str, float]:
        return {"A": self.lam_a, "B": self.lam_b, "C": self.lam_c}


@dataclass(frozen=True)
class Verdict:
    """Classification outcome.

    ``cuts`` lists the cut names whose channel minimum reached the threshold
    (empty for genuine entanglement, all three for fully separable). The
    ``margin`` is positive confidence: distance of the deciding eigenvalue
    from the threshold, in the direction that supports the verdict.
    ``necessity_caveat`` is always True; separability verdicts rest on a
    necessary condition only.
    """

    kind: str
    cuts: tuple[str, ...]
    margin: float
    necessity_caveat: bool = True


def check_eps(eps: float) -> None:
    """Raise :class:`ParamOutOfRange` unless ``eps`` is finite and >= 0.

    NaN would fail every threshold comparison and infinity pass every one,
    so either would decide the verdict instead of the state.
    """
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ParamOutOfRange(f"eps={eps!r} must be finite and >= 0")


def spectral_summary(rho) -> SpectralSummary:
    """Canonical channel minima of ``rho`` for all three cuts."""
    lam = [min_eigenvalue(spa_pt_canonical(rho, q)) for q in QUBITS]
    return SpectralSummary(*lam)


def decide_minima(
    per_cut, eps: float = DEFAULT_EPS, threshold: float = THRESHOLD
) -> Verdict:
    """Apply the decision table to a mapping of cut label -> channel minimum."""
    check_eps(eps)
    passing = tuple(CUT_NAMES[q] for q in QUBITS if per_cut[q] >= threshold - eps)
    if len(passing) == 3:
        return Verdict(FULLY_SEPARABLE, passing, min(per_cut.values()) - threshold)
    if passing:
        passing_values = [per_cut[q] for q in QUBITS if CUT_NAMES[q] in passing]
        return Verdict(BISEPARABLE, passing, min(passing_values) - threshold)
    return Verdict(GENUINE, (), threshold - max(per_cut.values()))


def classify_summary(
    summary: SpectralSummary, eps: float = DEFAULT_EPS, threshold: float = THRESHOLD
) -> Verdict:
    """Apply the decision table to precomputed canonical channel minima."""
    return decide_minima(summary.per_cut(), eps, threshold)


def classify(rho, eps: float = DEFAULT_EPS) -> Verdict:
    """Classify a three-qubit density matrix per the decision table."""
    return classify_summary(spectral_summary(rho), eps)


def cut_passes_threshold(rho, q: str, eps: float = DEFAULT_EPS) -> bool:
    """Necessary condition for separability across cut ``q``.

    True when the canonical channel minimum for ``q`` reaches 1/10 (within
    ``eps``); False certifies entanglement across that cut.
    """
    check_eps(eps)
    return min_eigenvalue(spa_pt_canonical(rho, q)) >= THRESHOLD - eps
