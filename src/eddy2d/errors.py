"""Exception types shared across the solver."""


class Eddy2dError(Exception):
    """Base class for all solver errors."""


class MeshError(Eddy2dError):
    """Invalid mesh data or unreadable mesh file."""


class ConfigError(Eddy2dError):
    """Scenario configuration is malformed or internally inconsistent."""


class AssemblyError(Eddy2dError):
    """FEM assembly failed (degenerate element, missing material, ...)."""


class SolverError(Eddy2dError):
    """An iterative or direct solve failed to produce a usable result."""


class Ic0Breakdown(SolverError):
    """Incomplete Cholesky produced a nonpositive pivot; caller should
    fall back to a weaker preconditioner."""


class InstabilityError(SolverError):
    """Explicit time stepping produced non-finite values."""

    def __init__(self, message: str, t: float | None = None, dt: float | None = None):
        super().__init__(message)
        self.t = t
        self.dt = dt
