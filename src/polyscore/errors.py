"""The package's failure model: one exception class per CLI exit code.

Each :class:`PolyscoreError` subclass carries the exit code README documents
for it.  Input and usage errors are also ``ValueError``s, the numerical and
convergence failures ``RuntimeError``s, so handlers of the builtins still match.
"""

from __future__ import annotations

__all__ = [
    "PolyscoreError",
    "InputError",
    "UsageError",
    "NumericalError",
    "GridConvergenceError",
    "SingularGramError",
    "DivergenceError",
    "NonConvergenceError",
]


class PolyscoreError(Exception):
    """Base class; raise a subclass, whose ``exit_code`` the CLI exits with."""

    exit_code: int


class InputError(PolyscoreError, ValueError):
    """A file the user named is unreadable or malformed."""

    exit_code = 1


class UsageError(PolyscoreError, ValueError):
    """The flags or arguments are inconsistent or out of range."""

    exit_code = 2


class NumericalError(PolyscoreError, RuntimeError):
    """A computation left the range where its result can be trusted."""

    exit_code = 3


class GridConvergenceError(NumericalError):
    """Doubling the grid moved log Z by more than the 1e-8 gate."""


class SingularGramError(NumericalError):
    """The score-matching Gram matrix is singular beyond ridge rescue."""


class DivergenceError(NumericalError):
    """The chain's energy left the representable range."""


class NonConvergenceError(PolyscoreError, RuntimeError):
    """The MLE ascent cannot reach, or cannot certify, its tolerance."""

    exit_code = 4
