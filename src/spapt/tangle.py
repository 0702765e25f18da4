"""Pure-state three-tangle and the GHZ/W split of genuine entanglement.

With ``A_k = [[a00k, a01k], [a10k, a11k]]`` (k the bit of qubit C),
``det(A0 + t A1) = c0 + c1 t + c2 t^2``, and the three-tangle is
``tau = 4 |c1^2 - 4 c0 c2|``: that discriminant is Cayley's hyperdeterminant of
the amplitudes (Miyake, PRA 67, 012108 (2003)), and the Coffman-Kundu-Wootters
tangle is 4 |Det|. It equals 1 on the balanced GHZ state, vanishes identically
on the single-excitation (W-form) span and on every product or biseparable pure
state, and for pure states coincides with the residual left after removing both
pairwise concurrences from the one-vs-rest entanglement (the identity used as
an independent oracle in the tests).
"""

from __future__ import annotations

from .classify import GENUINE, channel_minima, decide_minima
from .states import density_from_pure, pure_state

TAU_TOL = 1e-8

GHZ_CLASS = "ghz-class"
W_CLASS = "w-class"
NOT_GENUINE = "not-genuine"


def three_tangle_pure(psi) -> float:
    """Three-tangle of a normalized three-qubit pure state, in [0, 1]."""
    a000, a001, a010, a011, a100, a101, a110, a111 = pure_state(psi)
    c0 = a000 * a110 - a010 * a100
    c1 = a000 * a111 + a001 * a110 - a010 * a101 - a011 * a100
    c2 = a001 * a111 - a011 * a101
    return float(4.0 * abs(c1 * c1 - 4.0 * c0 * c2))


def pure_subclass(psi) -> str:
    """Sort a pure state into ghz-class, w-class, or not-genuine.

    Genuineness comes from :func:`spapt.classify.decide_minima` at its
    default ``eps``, on the projector of the validated amplitudes (so no PSD
    check is run on it); among genuine states, a positive tangle (above
    ``TAU_TOL``) marks the GHZ class and a vanishing tangle the W class.
    """
    if decide_minima(channel_minima(density_from_pure(psi))).kind != GENUINE:
        return NOT_GENUINE
    return GHZ_CLASS if three_tangle_pure(psi) > TAU_TOL else W_CLASS
