"""Dense polynomials in the spectral parameter.

The quantization machinery manipulates tridiagonal matrices whose entries are
low-degree polynomials in the spectral parameter (the eigenvalue being solved
for).  A small coefficient-list type keeps that arithmetic generic over the
scalar type, so the same formulas run in fast double precision and, for the
verification routes, in mpmath extended precision.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Union

Scalar = Any  # float, complex, or an mpmath number


def horner(coeffs: Iterable[Scalar], s: Scalar) -> Scalar:
    """Evaluate a polynomial given lowest-degree-first coefficients."""
    acc = None
    for c in reversed(list(coeffs)):
        acc = c if acc is None else acc * s + c
    return 0.0 if acc is None else acc


def scalar_is_finite(x: Scalar) -> bool:
    try:
        return math.isfinite(float(abs(x)))
    except (TypeError, OverflowError, ValueError):
        return False


class SPoly:
    """Polynomial in the spectral parameter s, coefficients lowest degree first.

    Supports +, -, * with other SPoly instances and with plain scalars, and
    evaluation via call.  Trailing zero coefficients are trimmed on
    construction so the degree is always meaningful.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = (0.0,)):
        cs = list(coeffs)
        if not cs:
            cs = [0.0]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def variable(cls) -> "SPoly":
        """The polynomial s itself."""
        return cls((0.0, 1.0))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) == 1

    def constant_value(self) -> Scalar:
        if not self.is_constant:
            raise ValueError("polynomial is not constant in the spectral parameter")
        return self.coeffs[0]

    def __call__(self, s: Scalar) -> Scalar:
        if self.is_constant:
            return self.coeffs[0]
        return horner(self.coeffs, s)

    def __add__(self, other: Union["SPoly", Scalar]) -> "SPoly":
        other = as_spoly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return SPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "SPoly":
        return SPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Union["SPoly", Scalar]) -> "SPoly":
        return self + (-as_spoly(other))

    def __rsub__(self, other: Union["SPoly", Scalar]) -> "SPoly":
        return as_spoly(other) + (-self)

    def __mul__(self, other: Union["SPoly", Scalar]) -> "SPoly":
        other = as_spoly(other)
        a, b = self.coeffs, other.coeffs
        out = [0.0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return SPoly(out)

    __rmul__ = __mul__

    def derivative(self) -> "SPoly":
        if self.is_constant:
            return SPoly((0.0,))
        return SPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def is_finite(self) -> bool:
        return all(scalar_is_finite(c) for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, float, complex)):
            return self.is_constant and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"SPoly({list(self.coeffs)!r})"


def as_spoly(x: Union[SPoly, Scalar]) -> SPoly:
    if isinstance(x, SPoly):
        return x
    return SPoly((x,))
