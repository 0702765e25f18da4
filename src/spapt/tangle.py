"""Pure-state three-tangle and the GHZ/W split of genuine entanglement.

The three-tangle is the hyperdeterminant invariant

    tau = 4 |d1 - 2 d2 + 4 d3|

built from the degree-4 monomials of the amplitudes (indices named by the
basis bits). It equals 1 on the balanced GHZ state, vanishes identically on
the single-excitation (W-form) span and on every product or biseparable pure
state, and for pure states coincides with the residual left after removing
both pairwise concurrences from the one-vs-rest entanglement (the identity
used as an independent oracle in the tests).
"""

from __future__ import annotations

from .classify import GENUINE, classify
from .states import density_from_pure, pure_state

TAU_TOL = 1e-8

GHZ_CLASS = "ghz-class"
W_CLASS = "w-class"
NOT_GENUINE = "not-genuine"


def three_tangle_pure(psi) -> float:
    """Three-tangle of a normalized three-qubit pure state, in [0, 1]."""
    a = pure_state(psi)
    a000, a001, a010, a011, a100, a101, a110, a111 = a
    d1 = (
        a000 ** 2 * a111 ** 2
        + a001 ** 2 * a110 ** 2
        + a010 ** 2 * a101 ** 2
        + a100 ** 2 * a011 ** 2
    )
    d2 = (
        a000 * a111 * (a011 * a100 + a101 * a010 + a110 * a001)
        + a011 * a100 * a101 * a010
        + a011 * a100 * a110 * a001
        + a101 * a010 * a110 * a001
    )
    d3 = a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


def pure_subclass(psi) -> str:
    """Sort a pure state into ghz-class, w-class, or not-genuine.

    Genuineness comes from :func:`spapt.classify.classify` at its default
    ``eps``; among genuine states, a positive tangle (above ``TAU_TOL``)
    marks the GHZ class and a vanishing tangle the W class.
    """
    if classify(density_from_pure(psi)).kind != GENUINE:
        return NOT_GENUINE
    return GHZ_CLASS if three_tangle_pure(psi) > TAU_TOL else W_CLASS
