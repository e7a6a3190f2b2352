"""Exception hierarchy shared across the package."""


class RdsglsError(Exception):
    """Base class for all package-specific failures."""


class DegenerateNodeError(RdsglsError):
    """A node (or block) has zero degree where positive degree is required."""


class InvalidParametersError(RdsglsError, ValueError):
    """Model parameters violate their contract (e.g. edge probability > 1)."""


class ReversibilityError(RdsglsError):
    """A transition matrix is not reversible with respect to its stationary law."""


class CapacityError(RdsglsError):
    """A computation was requested above its configured size or memory cap."""


class SingularCovarianceError(RdsglsError):
    """A covariance matrix is singular or indefinite (|lambda| >= 1, failed Cholesky)."""


class ReducedSystemError(RdsglsError):
    """Repeated eigenvalues: the plain Vandermonde system has no unique solution."""


class SamplingFailedError(RdsglsError):
    """Referral sampling exhausted its restart budget.

    Carries ``restarts`` (attempts made) and ``reached`` (largest sample
    size seen before extinction) for post-mortem reporting.
    """

    def __init__(self, message: str, restarts: int, reached: int):
        super().__init__(message)
        self.restarts = restarts
        self.reached = reached


class MissingLabelError(RdsglsError):
    """A sampled node lacks the block label required by the operation."""


class InsufficientDepthError(RdsglsError):
    """The referral tree has no node pairs at the requested lag."""


class InvalidSampleError(RdsglsError):
    """Sample records violate an estimator precondition (e.g. zero degree)."""


class ParseError(RdsglsError):
    """A data file could not be parsed; message carries the line number."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno
