"""Dense polynomials in the spectral parameter, as read-only values.

Every routine computes with a block's recurrence as ``Recurrence``
coefficient arrays (``heun_core``).  ``SPoly`` is the read-only polynomial
handed out where a caller wants one entry or one determinant as a value:
the entries of ``models.block_sequences`` and the expanded determinant of
``spectral.determinant_polynomial``.  ``horner`` and ``trim`` are the
evaluation and trimming rules all of them share, generic over the scalar
type (float, complex, Fraction or an mpmath number).
"""

from __future__ import annotations

from typing import Any, Iterable

Scalar = Any  # float, complex, Fraction, or an mpmath number


def horner(coeffs: Iterable[Scalar], s: Scalar) -> Scalar:
    """Evaluate a polynomial given lowest-degree-first coefficients."""
    acc = None
    for c in reversed(list(coeffs)):
        acc = c if acc is None else acc * s + c
    return 0.0 if acc is None else acc


def trim(coeffs: list) -> list:
    """Drop trailing zero coefficients from coeffs in place, keeping one."""
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


class SPoly:
    """Polynomial in the spectral parameter s, coefficients lowest degree first.

    Evaluated by calling it.  Trailing zero coefficients are trimmed on
    construction so the degree is always meaningful.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = (0.0,)):
        self.coeffs = tuple(trim(list(coeffs) or [0.0]))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, s: Scalar) -> Scalar:
        if len(self.coeffs) == 1:
            return self.coeffs[0]
        return horner(self.coeffs, s)

    def __repr__(self) -> str:
        return f"SPoly({list(self.coeffs)!r})"
