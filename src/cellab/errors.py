"""Exception types shared across the package."""

from __future__ import annotations


class CellabError(Exception):
    """Base class for all package errors."""


class FlavorError(CellabError):
    """A matrix or field does not satisfy its declared flavor predicate."""


class SpectralCollisionError(CellabError):
    """Spectral gap precondition violated; carries the offending grid location."""

    def __init__(self, message: str, *, t_index: int | None = None):
        super().__init__(message)
        self.t_index = t_index


class DomainRangeError(CellabError):
    """Function-calculus input leaves the declared domain."""


class WindowError(CellabError):
    """Eigenvalue list does not fit a width-2*pi log window."""


class CommutatorError(CellabError):
    """Determinant-1 (CU membership) precondition violated."""


class CoverageError(CellabError):
    """No branch of the supplied element covers the required interval."""


class UnsupportedPaddingError(CellabError):
    """Zero-padding requested for an element with branches crossing 0."""
