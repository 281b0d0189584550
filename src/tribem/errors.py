"""Exception types raised across the package."""


class TriBemError(Exception):
    """Base class for all tribem errors."""


class StlParseError(TriBemError):
    """Malformed STL input. Carries the byte offset where parsing failed."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class EmptyMeshError(TriBemError):
    """Mesh contains no facets."""


class DegenerateElementError(TriBemError):
    """Triangle area below the degeneracy threshold."""


class InvalidMaterialError(TriBemError):
    """Material constants outside the admissible range."""


class SingularEvaluationError(TriBemError):
    """Kernel evaluated at zero distance."""


class SingularSystemError(TriBemError):
    """System matrix singular to working precision. Carries the pivot index."""

    def __init__(self, pivot):
        super().__init__(f"matrix is singular to working precision at pivot {pivot}")
        self.pivot = pivot


class StaleOperatorError(TriBemError):
    """Precomputed operator applied with changed boundary-condition kinds."""


class BoundaryConditionError(TriBemError):
    """Boundary specification incomplete or inconsistent with the mesh."""


class BcFileError(TriBemError):
    """Boundary-condition file could not be parsed."""


class WorkerLostError(TriBemError):
    """A worker process of a distributed run ended before it replied."""


class SolvabilityWarning(UserWarning):
    """Problem leaves one or more rigid translation directions unconstrained."""
