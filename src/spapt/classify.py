"""Verdicts from the three canonical channel minima against the 1/10 threshold.

Decision table (t = 1/10, comparisons within ``0 <= eps < t``):

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

The weight is fixed at 4/5 (:mod:`spapt.spa`): at any ``p < 1`` the test
against ``p/8`` within ``eps`` is the PPT test within ``eps/(1-p)``, so
another weight only rescales ``eps`` and decides nothing new.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass

from .errors import InputError, NumericalFailure
from .ptranspose import QUBITS, partial_transpose
from .spa import CANONICAL_WEIGHT, THRESHOLD
from .linalg import as_float, min_eigenvalue
from .states import STATE_TOL, as_density_matrix

CUT_NAMES = {"A": "A-BC", "B": "B-AC", "C": "C-AB"}
DEFAULT_EPS = 1e-9

GENUINE = "genuine-entangled"
BISEPARABLE = "biseparable"
FULLY_SEPARABLE = "fully-separable"


@dataclass(frozen=True)
class Verdict:
    """Classification outcome.

    ``cuts`` lists the cuts whose channel minimum reached 1/10 within ``eps`` (empty for
    genuine entanglement, all three for fully separable): whether one cut passes. ``margin``
    is the distance of the deciding eigenvalue from the threshold on the side that supports
    the verdict, never negative (a cut passing only within ``eps`` gives 0). Separability
    verdicts rest on a necessary condition only, so ``necessity_caveat`` is always True.
    """

    kind: str
    cuts: tuple[str, ...]
    margin: float
    necessity_caveat: bool = True

    def __post_init__(self):
        if not self.margin >= 0.0:
            raise NumericalFailure(f"verdict margin {self.margin!r} is negative or NaN")

    @property
    def label(self) -> str:
        """``kind``, with the passing cuts appended as ``:A-BC+B-AC`` when biseparable."""
        return self.kind + (":" + "+".join(self.cuts) if self.kind == BISEPARABLE else "")


def channel_minima(rho) -> dict[str, float]:
    """Smallest eigenvalue of the canonical channel output per cut, computed by the
    affine law as ``1/10 + mu/5`` from the cut's partial-transpose minimum ``mu``.

    A numeric function of any Hermitian 8x8 ``rho``; :func:`classify` checks it is
    a state. A state's ``mu`` lies in [-1/2, 1], so each minimum lies in [0, 0.3];
    one outside it (beyond ``STATE_TOL``), or a failed solve (``cut B: ...``), raises
    :class:`NumericalFailure`.
    """
    minima = {}
    for q in QUBITS:
        try:
            lam = THRESHOLD + (1.0 - CANONICAL_WEIGHT) * min_eigenvalue(partial_transpose(rho, q))
        except NumericalFailure as exc:
            raise NumericalFailure(f"cut {q}: {exc}") from exc
        if not -STATE_TOL <= lam <= 0.3 + STATE_TOL:
            raise NumericalFailure(f"channel minimum of cut {q}, {lam!r}, outside [0.0, 0.3]")
        minima[q] = lam
    return minima


def _real_minimum(lam, what: str) -> float:
    """``lam`` as a float, NaN or infinite if it is; not a real number: InputError."""
    if not isinstance(lam, numbers.Real):
        raise InputError(f"{what}: expected a real number, got {lam!r}")
    return float(lam) if lam != lam or abs(lam) == math.inf else as_float(lam, what)


def decide_minima(per_cut, eps: float = DEFAULT_EPS) -> Verdict:
    """Apply the decision table to a mapping of cut -> channel minimum (only A, B, C are read)
    by the one pass rule ``minimum >= 1/10 - eps``, checking the minima before ``eps``."""
    if not isinstance(per_cut, Mapping):
        raise InputError("channel minima: expected a mapping of cut to minimum, "
                         f"got {type(per_cut).__name__}")
    missing = [q for q in QUBITS if q not in per_cut]
    if missing:
        raise InputError(f"channel minima: missing cut(s) {', '.join(missing)}")
    lams = {q: _real_minimum(per_cut[q], f"channel minima: cut {q}") for q in QUBITS}
    if not all(map(math.isfinite, lams.values())):
        raise NumericalFailure(f"channel minima {per_cut!r} are not all finite")
    eps = as_float(eps, "eps")
    if not 0.0 <= eps < THRESHOLD:
        raise InputError(f"eps={eps!r} must lie in [0, {THRESHOLD!r})")
    passing = [q for q in QUBITS if lams[q] >= THRESHOLD - eps]
    if not passing:
        return Verdict(GENUINE, (), THRESHOLD - max(lams.values()))
    kind = FULLY_SEPARABLE if len(passing) == 3 else BISEPARABLE
    margin = max(0.0, min(lams[q] for q in passing) - THRESHOLD)
    return Verdict(kind, tuple(CUT_NAMES[q] for q in passing), margin)


def classify(rho, eps: float = DEFAULT_EPS) -> Verdict:
    """Classify a three-qubit density matrix per the decision table; a matrix
    that is not a state raises :class:`InputError` (see ``as_density_matrix``)."""
    return decide_minima(channel_minima(as_density_matrix(rho)), eps)
