"""Polynomial solutions of the biconfluent and confluent Heun equations.

Biconfluent form on z in (0, inf), regular singular point at z = 0:

    y'' + (-2z - beta + (1 + alpha)/z) y'
        + (gamma - alpha - 2 - ((1 + alpha) beta + delta) / (2z)) y = 0

Confluent form on z outside {0, 1}:

    y'' + (alpha + (beta + 1)/z + (gamma + 1)/(z - 1)) y'
        + (mu/z + nu/(z - 1)) y = 0

    mu = (alpha - beta - gamma + alpha beta - beta gamma)/2 - eta
    nu = (alpha + beta + gamma + alpha gamma + beta gamma)/2 + delta + eta

Each equation admits a degree-n polynomial solution y = sum_j p_j z^j exactly
when a degree condition fixes n and the coefficients satisfy a three-term
recurrence

    c_{j-1} p_{j-1} + a_j p_j + b_j p_{j+1} = 0,    p_{-1} = 0, p_0 = 1,

whose (n+1) x (n+1) tridiagonal matrix must be singular.  This module builds
the sequences (a_j, b_j, c_j), runs the recurrence, and checks candidate
polynomials against the differential equations directly.

The sequences are ``Recurrence`` coefficient arrays, one row of
coefficients in the spectral parameter per entry; the generic Heun
sequences here have constant rows, the model blocks of
``models.block_recurrence`` polynomial ones.  A polynomial outside the
ragged kernel of ``spectral`` is a coefficient sequence, lowest degree
first, evaluated by ``horner``, which is generic over the scalar type
(float, complex, Fraction or an mpmath number) and takes arrays of
coefficients too.  ``SPoly`` is only a view of such arrays whose rows read
as ``coeffs`` tuples, for ``models.block_sequences``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import RecurrenceBreakdownError

Scalar = Any  # float, complex, Fraction, or an mpmath number

INTEGER_TOL = 1e-9


def horner(coeffs: Iterable[Scalar], s: Scalar) -> Scalar:
    """Evaluate a polynomial given lowest-degree-first coefficients.

    A lone coefficient is returned as it is.  The coefficients may be
    arrays, giving one value per array element.
    """
    acc = None
    for c in reversed(list(coeffs)):
        acc = c if acc is None else acc * s + c
    return 0.0 if acc is None else acc


def _require_finite(name: str, value: Scalar) -> None:
    try:
        finite = math.isfinite(float(abs(value)))
    except (TypeError, OverflowError, ValueError):
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class HeunBParams:
    """Parameters (alpha, beta, gamma, delta) of the biconfluent equation."""

    alpha: Scalar
    beta: Scalar
    gamma: Scalar
    delta: Scalar

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "delta"):
            _require_finite(name, getattr(self, name))


@dataclass(frozen=True)
class HeunCParams:
    """Primary parameters (alpha, beta, gamma, delta, eta) of the confluent equation.

    The accessory coefficients mu and nu are derived, never stored, so they
    can not drift out of sync with the primaries.
    """

    alpha: Scalar
    beta: Scalar
    gamma: Scalar
    delta: Scalar
    eta: Scalar

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "delta", "eta"):
            _require_finite(name, getattr(self, name))

    @property
    def mu(self) -> Scalar:
        a, b, g = self.alpha, self.beta, self.gamma
        return 0.5 * (a - b - g + a * b - b * g) - self.eta

    @property
    def nu(self) -> Scalar:
        a, b, g = self.alpha, self.beta, self.gamma
        return 0.5 * (a + b + g + a * g + b * g) + self.delta + self.eta


@dataclass(frozen=True)
class PolynomialCoefficients:
    """Recurrence output p_0..p_n with its terminal relation residual.

    terminal_residual is |c_{n-1} p_{n-1} + a_n p_n| scaled by the largest
    coefficient magnitude and the terminal entry sizes; it vanishes exactly
    when the tridiagonal matrix is singular at the evaluated spectral value.
    For a twisted vector, joined from a forward and a backward run at row t,
    it is taken at row t instead: |c_{t-1} p_{t-1} + a_t p_t + b_t p_{t+1}|
    scaled alike, the entries being those of row t.  A backward vector
    (t = 0) has its residual at row 0.
    """

    coeffs: Tuple[Scalar, ...]
    terminal_residual: float

    def __post_init__(self) -> None:
        if self.coeffs[0] != 1:
            raise ValueError("recurrence normalization requires p_0 = 1")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


class Recurrence(NamedTuple):
    """One block's recurrence as coefficient arrays in the spectral parameter.

    Each row holds one entry's coefficients, lowest degree first: a has
    shape (n+1, da), b (n, db) and c (n, dc).  Entries are floats, or their
    exact conversions to Fractions or mpmath numbers in object arrays.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    @property
    def size(self) -> int:
        return len(self.a)

    def at(self, s: Scalar) -> Tuple[list, list, list]:
        """Substitute the spectral parameter, returning numeric entry lists.

        Every row is evaluated by ``horner``, which returns a constant entry
        as it is.
        """
        return tuple([horner(row, s) for row in m.tolist()] for m in self)


class SPoly(np.ndarray):
    """A view of ``Recurrence`` arrays whose rows read as ``coeffs``: one
    entry's coefficients in the spectral parameter, lowest degree first, as
    a tuple of the array's Python scalars."""

    @property
    def coeffs(self) -> Tuple[Scalar, ...]:
        return tuple(self.tolist())


def _near_nonneg_int(value: float) -> Optional[int]:
    n = round(value)
    if abs(value - n) <= INTEGER_TOL and n >= 0:
        return int(n)
    return None


def heunb_degree(params: HeunBParams) -> Optional[int]:
    """Polynomial degree forced by the biconfluent condition gamma - alpha = 2(n+1).

    Returns the non-negative integer n, or None when (gamma - alpha)/2 - 1
    misses an integer by more than 1e-9.
    """
    value = (params.gamma - params.alpha) / 2.0 - 1.0
    return _near_nonneg_int(value)


def heunc_degree(params: HeunCParams) -> Optional[int]:
    """Polynomial degree forced by delta = -(n + 1 + (beta + gamma)/2) alpha.

    Requires alpha != 0; returns None when the resulting n is not a
    non-negative integer within 1e-9.
    """
    if params.alpha == 0:
        raise ValueError("degree condition requires alpha != 0")
    value = -params.delta / params.alpha - 1.0 - 0.5 * (params.beta + params.gamma)
    return _near_nonneg_int(value)


def heunb_sequences(params: HeunBParams, n: int) -> Recurrence:
    """Recurrence sequences of the degree-n biconfluent polynomial candidate.

        a_j = -(delta + beta (2j + alpha + 1))
        b_j = 2 (j (j + alpha + 2) + alpha + 1)
        c_j = 2 (gamma - alpha - 2j - 2)

    Under the degree condition c_n = 0 exactly, which is why only c_0..c_{n-1}
    enter the matrix.  Every entry is a constant, one coefficient a row.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    al, be, de, ga = params.alpha, params.beta, params.delta, params.gamma
    j = np.arange(n + 1)[:, None]
    i = j[:-1]
    a = -(de + be * (2 * j + al + 1))
    b = 2 * (i * (i + al + 2) + al + 1)
    c = 2 * (ga - al - 2 * i - 2)
    return Recurrence(a, b, c)


def heunc_sequences(params: HeunCParams, n: int) -> Recurrence:
    """Recurrence sequences of the degree-n confluent polynomial candidate.

        a_j = mu - j (j - alpha + beta + gamma + 1)
        b_j = (j + 1)(j + beta + 1)
        c_j = (n - j) alpha

    c_n = 0 holds identically, matching the matrix truncation.  Every entry
    is a constant, one coefficient a row.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    al, be, ga = params.alpha, params.beta, params.gamma
    j = np.arange(n + 1)[:, None]
    i = j[:-1]
    a = params.mu - j * (j - al + be + ga + 1)
    b = (i + 1) * (i + be + 1)
    c = (n - i) * al
    return Recurrence(a, b, c)


def polynomial_from_recurrence(seqs: Recurrence, s: Scalar) -> PolynomialCoefficients:
    """Run the three-term recurrence with p_{-1} = 0, p_0 = 1 at the point s.

    seqs needs only ``at`` and ``size``, which every ``Recurrence`` has,
    the ``SPoly`` view of ``models.block_sequences`` included.  Raises
    RecurrenceBreakdownError when some b_j with j < n vanishes, since
    p_{j+1} is then undetermined.

    The terminal relation c_{n-1} p_{n-1} + a_n p_n (just a_0 for n = 0) is
    returned as a scaled residual; it is the singularity test for the matrix.
    The coefficients are of the entries' scalar type, so Fraction entries
    give exact coefficients.
    This is the per-point reference for ``spectral.ragged_null_vectors``,
    which runs the same operations over an array of points on the block's
    coefficient arrays.
    """
    a, b, c = seqs.at(s)
    n = seqs.size - 1
    for j, bj in enumerate(b):
        if bj == 0:
            raise RecurrenceBreakdownError(f"b_{j} = 0 stalls the recurrence")
    p = [0 * a[0] + 1]  # p_0 = 1, exact in the entries' own type
    # c_{-1} = 0 in the entries' own type, read as c[-1] next to p_0: by row
    # 0, and as the terminal row's c by a degree-0 block
    c = [*c, 0 * p[0]]
    for j in range(n):
        p.append(-(c[j - 1] * p[j - 1] + a[j] * p[j]) / b[j])
    terminal = c[n - 1] * p[n - 1] + a[n] * p[n]
    entry_scale = max(abs(a[n]), abs(c[n - 1]), 1.0)
    coeff_scale = max(abs(pj) for pj in p)
    residual = float(abs(terminal) / (coeff_scale * entry_scale))
    return PolynomialCoefficients(coeffs=tuple(p), terminal_residual=residual)


def _poly_derivatives(coeffs: Sequence[Scalar], z: Scalar) -> Tuple[Scalar, Scalar, Scalar]:
    y = horner(coeffs, z)
    d1 = horner([j * c for j, c in enumerate(coeffs)][1:], z)
    d2 = horner([j * (j - 1) * c for j, c in enumerate(coeffs)][2:], z)
    return y, d1, d2


def _relative_residual(d2: Scalar, t1: Scalar, t0: Scalar) -> float:
    """|d2 + t1 + t0| over the sum of the three term magnitudes."""
    res = abs(d2 + t1 + t0)
    scale = abs(d2) + abs(t1) + abs(t0)
    return float(res / scale) if scale > 0 else float(res)


def heunb_ode_residual(
    params: HeunBParams, poly: PolynomialCoefficients, z: Scalar
) -> float:
    """Relative residual of the biconfluent equation at z for the candidate poly.

    The residual y'' + c1 y' + c0 y is divided by the sum of the three term
    magnitudes, giving a scale-free figure (exactly 0 for an exact solution).
    """
    if z == 0:
        raise ValueError("z = 0 is the regular singular point")
    al, be, ga, de = params.alpha, params.beta, params.gamma, params.delta
    y, d1, d2 = _poly_derivatives(poly.coeffs, z)
    c1 = -2 * z - be + (1 + al) / z
    c0 = ga - al - 2 - ((1 + al) * be + de) / (2 * z)
    return _relative_residual(d2, c1 * d1, c0 * y)


def heunc_ode_residual(
    params: HeunCParams, poly: PolynomialCoefficients, z: Scalar
) -> float:
    """Relative residual of the confluent equation at z (z outside {0, 1}),
    scaled as in ``heunb_ode_residual``."""
    if z == 0 or z == 1:
        raise ValueError("z in {0, 1} are the regular singular points")
    al, be, ga = params.alpha, params.beta, params.gamma
    y, d1, d2 = _poly_derivatives(poly.coeffs, z)
    c1 = al + (be + 1) / z + (ga + 1) / (z - 1)
    c0 = params.mu / z + params.nu / (z - 1)
    return _relative_residual(d2, c1 * d1, c0 * y)
