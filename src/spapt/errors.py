"""Exception types raised by the public API.

Every input error derives from :class:`InputError` (the command line maps it
to exit code 2); :class:`NumericalFailure` is an internal failure (exit 1).
"""


class InputError(ValueError):
    """Base of every error caused by bad input rather than by the solver."""


class NonSquare(InputError):
    """Matrix operation received a non-square matrix."""


class NotHermitian(InputError):
    """Hermiticity defect of the input exceeds the allowed tolerance."""

    def __init__(self, defect: float, tol: float):
        self.defect = float(defect)
        self.tol = float(tol)
        super().__init__(f"hermiticity defect {defect:.3e} exceeds tolerance {tol:.3e}")


class NotNormalized(InputError):
    """Pure-state amplitudes do not have unit norm."""


class BadWeights(InputError):
    """Mixture weights are negative or do not sum to one."""


class UnknownName(InputError):
    """Catalog lookup for a name that does not exist."""


class ParamOutOfRange(InputError):
    """A state-family parameter lies outside its documented domain."""


class SchemaError(InputError):
    """A state document does not match the JSON schema."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class InvariantViolation(InputError):
    """A constructed state violates a density-matrix invariant."""

    def __init__(self, which: str, detail: str = ""):
        self.which = which
        msg = which if not detail else f"{which}: {detail}"
        super().__init__(msg)


class NumericalFailure(RuntimeError):
    """An internal numerical routine failed to reach its accuracy target."""
