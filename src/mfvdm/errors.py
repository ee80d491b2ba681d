"""Exception types shared across the package."""


class MfvdmError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MfvdmError):
    """Invalid experiment configuration or command-line arguments."""


class GraphFileError(MfvdmError):
    """Graph or ground-truth file cannot be parsed or violates the format."""


class ParameterError(MfvdmError, ValueError):
    """An operation received an argument outside its contract."""


class BadEdgeError(ParameterError):
    """An edge breaks a per-edge rule; ``index`` is its input position."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class DegenerateAlignmentError(MfvdmError):
    """In-plane alignment is undefined (antipodal viewing directions)."""


class ZeroDegreeError(MfvdmError):
    """A node has no incident edge weight."""


class ConvergenceError(MfvdmError):
    """Eigensolver failed to reach the requested residual tolerance."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class DegenerateEmbeddingError(MfvdmError):
    """A node has a zero-norm embedding vector."""


class UndefinedAlignmentError(MfvdmError):
    """Angle estimation received an all-zero harmonic sequence."""


class UnsupportedManifoldError(MfvdmError):
    """The requested analysis is only defined for a different manifold."""
