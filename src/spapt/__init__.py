"""Detection and SLOCC classification of three-qubit entanglement through
structurally approximated partial transposition.

The pipeline: build a validated 8x8 density matrix (:mod:`spapt.states`),
partially transpose one qubit (:mod:`spapt.ptranspose`), mix with the
depolarizing output at the canonical weight 4/5 (:mod:`spapt.spa`), and
compare the three resulting minimum eigenvalues against 1/10
(:mod:`spapt.classify`). Pure genuine-entangled states split further into
GHZ and W classes by the three-tangle (:mod:`spapt.tangle`).
"""

from .classify import (
    BISEPARABLE,
    FULLY_SEPARABLE,
    GENUINE,
    Verdict,
    channel_minima,
    classify,
    decide_minima,
)
# not part of the verdict API: the benchmark's tracer test binds spapt.hermitian_eigenvalues
from .linalg import hermitian_eigenvalues
from .ptranspose import partial_transpose
from .spa import (
    CANONICAL_WEIGHT,
    THRESHOLD,
    spa_pt,
)
from .states import (
    catalog,
    parse_state_file,
    to_density,
)
from .tangle import GHZ_CLASS, NOT_GENUINE, W_CLASS, pure_subclass, three_tangle_pure

__version__ = "0.1.0"

__all__ = [
    "BISEPARABLE",
    "CANONICAL_WEIGHT",
    "FULLY_SEPARABLE",
    "GENUINE",
    "GHZ_CLASS",
    "NOT_GENUINE",
    "THRESHOLD",
    "Verdict",
    "W_CLASS",
    "catalog",
    "channel_minima",
    "classify",
    "decide_minima",
    "hermitian_eigenvalues",
    "parse_state_file",
    "partial_transpose",
    "pure_subclass",
    "spa_pt",
    "three_tangle_pure",
    "to_density",
]
