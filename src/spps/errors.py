"""Exception and warning types shared across the package."""

from __future__ import annotations


class SppsError(Exception):
    """Base class for all package errors."""


class MeshMismatchError(SppsError):
    """Two sampled functions with different meshes were combined."""


class StencilError(SppsError):
    """The mesh is too small for the requested finite-difference stencil."""


class VanishingValueError(SppsError):
    """A function value needed in a denominator is (numerically) zero.

    Carries the offending node index and coordinate so the report can name it.
    """

    def __init__(self, message: str, node: int | None = None, x: float | None = None):
        super().__init__(message)
        self.node = node
        self.x = x


class WronskianFloorError(SppsError):
    """A Wronskian dips below the nonvanishing floor."""

    def __init__(self, message: str, index: int | None = None,
                 node: int | None = None, x: float | None = None):
        super().__init__(message)
        self.index = index
        self.node = node
        self.x = x


class SeedConstructionError(SppsError):
    """Seed-system construction exhausted its retry budget."""

    def __init__(self, message: str, best_wronskian_min: float | None = None):
        super().__init__(message)
        self.best_wronskian_min = best_wronskian_min


class ResidualVerificationError(SppsError):
    """A constructed solution fails its operator-residual verification."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class TriangularDefectError(SppsError):
    """The lower-triangular initial-value matrix has a (near-)zero diagonal entry."""


class RegionTruncationError(SppsError):
    """The requested spectral region is too large for the series truncation order."""


class ExpressionError(SppsError):
    """Parse or evaluation failure for a coefficient expression.

    ``offset`` is the byte offset into the source string (parse errors), and
    ``node`` the mesh node index (evaluation domain errors).
    """

    def __init__(self, message: str, offset: int | None = None, node: int | None = None):
        super().__init__(message)
        self.offset = offset
        self.node = node


class ConfigError(SppsError):
    """A problem configuration file is missing, malformed, or inconsistent."""


class TruncationWarning(UserWarning):
    """The power-series tail has not decayed below the reporting threshold."""
