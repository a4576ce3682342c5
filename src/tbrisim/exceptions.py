"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A model or config parameter is outside its allowed domain."""


class PreconditionError(ValueError):
    """An operation was called on inputs that violate its contract."""


class InsufficientStatisticsError(RuntimeError):
    """Too few states/levels in a window to form a meaningful estimate."""


class EigensolverError(RuntimeError):
    """Diagonalization failed or produced a decomposition outside tolerance.

    Carries the offending residual norm in ``residual``.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class FitConvergenceError(RuntimeError):
    """A least-squares fit did not converge."""


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name and files written so far."""

    def __init__(self, stage: str, cause: BaseException, partial_outputs=()):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
        self.partial_outputs = list(partial_outputs)
