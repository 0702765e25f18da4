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
    cut_passes_threshold,
    decide_minima,
)
from .linalg import dagger, hermitian_eigenvalues, min_eigenvalue
from .ptranspose import QUBITS, partial_transpose
from .spa import (
    CANONICAL_WEIGHT,
    THRESHOLD,
    choi_matrix,
    min_choi_psd_parameter,
    min_cp_parameter,
    spa_bipartite_threshold,
    spa_element_map,
    spa_pt,
)
from .states import (
    StateSpec,
    as_density_matrix,
    catalog,
    catalog_names,
    convex_mix,
    density_from_pure,
    ket,
    parse_state_file,
    pure_amplitudes,
    pure_state,
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
    "QUBITS",
    "StateSpec",
    "THRESHOLD",
    "Verdict",
    "W_CLASS",
    "as_density_matrix",
    "catalog",
    "catalog_names",
    "channel_minima",
    "choi_matrix",
    "classify",
    "convex_mix",
    "cut_passes_threshold",
    "dagger",
    "decide_minima",
    "density_from_pure",
    "hermitian_eigenvalues",
    "ket",
    "min_choi_psd_parameter",
    "min_cp_parameter",
    "min_eigenvalue",
    "parse_state_file",
    "partial_transpose",
    "pure_amplitudes",
    "pure_state",
    "pure_subclass",
    "spa_bipartite_threshold",
    "spa_element_map",
    "spa_pt",
    "three_tangle_pure",
    "to_density",
]
