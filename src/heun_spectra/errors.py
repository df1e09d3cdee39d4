"""Exception types shared across the solver stack."""


class ParameterError(ValueError):
    """A model configuration or block violates a structural constraint."""


class RecurrenceBreakdownError(ArithmeticError):
    """A super-diagonal entry vanished, so the coefficient recurrence cannot advance."""


class ResidualToleranceError(RuntimeError):
    """A candidate root failed the terminal-residual acceptance test."""


class PrecisionError(RuntimeError):
    """The eigensolver failed, or extended precision did not bring a residual under tolerance."""


class SelectionError(LookupError):
    """A requested block or root selection does not exist or is not usable."""
