"""Exception types raised by the numerical layers."""

from __future__ import annotations


class ProlateError(Exception):
    """Base class for numerical failures in this package."""


class QuadratureError(ProlateError):
    """An integral could not be resolved to the requested tolerance."""

    def __init__(self, message: str, achieved: float | None = None):
        if achieved is not None:
            message = f"{message} (achieved relative tolerance {achieved:.3e})"
        super().__init__(message)
        self.achieved = achieved


class EigensolverError(ProlateError):
    """The eigensolve failed or cannot deliver the requested modes."""


class RankDeficiencyError(ProlateError):
    """Vectors handed to an orthonormalization step are linearly dependent."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class PovmValidityError(ProlateError):
    """A candidate measurement violates positivity/completeness."""

    def __init__(self, message: str, top_eigenvalue: float | None = None,
                 eigenvector=None):
        if top_eigenvalue is not None:
            message = f"{message} (top eigenvalue {top_eigenvalue:.12g})"
        super().__init__(message)
        self.top_eigenvalue = top_eigenvalue
        self.eigenvector = eigenvector


class SingularFisherError(ProlateError):
    """Fisher matrix is singular: some parameter combination is unidentifiable."""

    def __init__(self, message: str, null_direction=None):
        super().__init__(message)
        self.null_direction = null_direction


class IdentifiabilityError(ProlateError):
    """Model evaluated in a regime where parameters are not identifiable."""
