"""Exception types raised by the public API.

:class:`InputError` (exit code 2) is every error caused by bad input; its message
starts with where the input failed: JSON path, catalog family, parameter or
option, or invariant. :class:`NumericalFailure` is an internal failure (exit 1).
"""


class InputError(ValueError):
    """An error caused by bad input rather than by the solver."""


class NumericalFailure(RuntimeError):
    """An internal numerical routine failed to reach its accuracy target."""
