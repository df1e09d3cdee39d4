"""Exception types shared across the solver stack."""


class ParameterError(ValueError):
    """A model configuration or block violates a structural constraint."""


class RecurrenceBreakdownError(ArithmeticError):
    """A super-diagonal entry vanished, so the coefficient recurrence cannot advance."""


class PrecisionError(RuntimeError):
    """A solve or a quadrature could not reach its tolerance.

    Raised when an eigensolver fails, when neither the forward nor the
    twisted null vector of a physical root meets the residual tolerance,
    when a state norm is not finite and positive, or when a norm quadrature
    does not converge.
    """


class SelectionError(LookupError):
    """A requested block or root selection does not exist or is not usable."""
