"""Exception types shared across the solver stack."""


class ParameterError(ValueError):
    """A model configuration or block violates a structural constraint."""


class RecurrenceBreakdownError(ArithmeticError):
    """A super-diagonal entry vanished, so the coefficient recurrence cannot advance."""


class PrecisionError(RuntimeError):
    """A solve or a quadrature could not reach its tolerance.

    Raised when an eigensolver fails, when extended precision does not bring
    a residual under tolerance, or when a norm quadrature does not converge.
    """


class SelectionError(LookupError):
    """A requested block or root selection does not exist or is not usable."""
