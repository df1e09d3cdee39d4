"""Roots of the quantization matrices and the determinant routes that check them.

The spectral condition is det A_{n+1}(s) = 0, with A_{n+1} the tridiagonal
matrix built from the recurrence sequences.  Its determinant is the
continuant

    D_{-1} = 1,  D_0 = a_0,  D_j = a_j D_{j-1} - b_{j-1} c_{j-1} D_{j-2} .

Each model's matrix has a structure that turns the root problem into a
matrix eigenproblem of size independent of any expanded polynomial:

* model 1 diagonals are s + v_j with constant b_j c_j > 0, so the roots are
  the eigenvalues of a symmetric tridiagonal matrix
  (``symmetric_eigenvalue_roots``);
* model 2 is the monic quadratic pencil s^2 I + s A1 + A0, whose 2(n+1)
  roots are the eigenvalues of its companion linearization, polished by a
  few Newton steps on the continuant and its derivative
  (``quadratic_pencil_roots``, ``newton_corrections``).

A root's bound state is the null vector of its matrix, the coefficients of
the three-term recurrence run at the root; ``null_vectors`` runs it for all
roots of a block at once on the same padded coefficient matrices as the
Newton polish, and its terminal residual certifies each root.

``determinant_polynomial`` (the continuant carried out in polynomial
arithmetic), ``determinant_numeric`` and ``dense_determinant`` evaluate the
same determinant by independent routes and serve as verification.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .errors import RecurrenceBreakdownError, ResidualToleranceError
from .heun_core import PolynomialCoefficients, TridiagonalSequences
from .spoly import Scalar, SPoly

NULL_VECTOR_TOL = 1e-8
NEWTON_STEPS = 3
RESCALE_ROWS = 8


def determinant_polynomial(seqs: TridiagonalSequences) -> SPoly:
    """Exact determinant of the quantization matrix as a polynomial in s."""
    a, b, c = seqs.a, seqs.b, seqs.c
    d_prev2 = SPoly((1.0,))
    d_prev = a[0]
    for j in range(1, seqs.size):
        d_prev2, d_prev = d_prev, a[j] * d_prev - (b[j - 1] * c[j - 1]) * d_prev2
    return d_prev


def determinant_numeric(seqs: TridiagonalSequences, s: Scalar) -> Scalar:
    """Continuant recurrence after substituting s; cheap single-point value."""
    a, b, c = seqs.at(s)
    d_prev2, d_prev = 1.0, a[0]
    for j in range(1, seqs.size):
        d_prev2, d_prev = d_prev, a[j] * d_prev - (b[j - 1] * c[j - 1]) * d_prev2
    return d_prev


def dense_determinant(seqs: TridiagonalSequences, s: Scalar) -> Scalar:
    """LU determinant of the explicitly assembled matrix; dual-path check.

    Float entries go through numpy's LAPACK LU.  mpmath entries fall back to
    a pivoted Gaussian elimination in the same precision, so the dual-path
    comparison can be run above float64 where high-degree determinants lose
    digits to cancellation.
    """
    import mpmath

    a, b, c = seqs.at(s)
    n1 = seqs.size
    mp_types = (mpmath.mpf, mpmath.mpc)
    if not any(isinstance(v, mp_types) for v in (a[0], b[0] if b else 0.0, s)):
        m = np.zeros((n1, n1), dtype=float)
        for j in range(n1):
            m[j, j] = float(a[j])
            if j + 1 < n1:
                m[j, j + 1] = float(b[j])
                m[j + 1, j] = float(c[j])
        return float(np.linalg.det(m))
    zero = a[0] * 0
    rows = [[zero] * n1 for _ in range(n1)]
    for j in range(n1):
        rows[j][j] = a[j]
        if j + 1 < n1:
            rows[j][j + 1] = b[j]
            rows[j + 1][j] = c[j]
    det = zero + 1
    for col in range(n1):
        pivot = max(range(col, n1), key=lambda r: abs(rows[r][col]))
        if rows[pivot][col] == 0:
            return zero
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det = det * rows[col][col]
        for r in range(col + 1, n1):
            factor = rows[r][col] / rows[col][col]
            if factor != 0:
                for k in range(col, n1):
                    rows[r][k] = rows[r][k] - factor * rows[col][k]
    return det


def null_vector(
    seqs: TridiagonalSequences,
    s_star: Scalar,
    tol: float = NULL_VECTOR_TOL,
) -> PolynomialCoefficients:
    """Recurrence null vector of the quantization matrix at one candidate root.

    The single-point case of ``null_vectors``.  Raises ResidualToleranceError
    when the terminal residual exceeds tol, i.e. when s_star is not a root
    to that accuracy.
    """
    coeffs, residuals = null_vectors(seqs, np.array([s_star]))
    residual = float(residuals[0])
    if residual > tol:
        raise ResidualToleranceError(
            f"terminal residual {residual:.3e} exceeds {tol:.1e} at s = {s_star}"
        )
    return PolynomialCoefficients(
        degree=seqs.size - 1,
        coeffs=tuple(coeffs[0].tolist()),
        terminal_residual=residual,
    )


def null_vectors(seqs: TridiagonalSequences, s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Recurrence null vectors of the quantization matrix at every entry of s.

    Runs p_{-1} = 0, p_0 = 1, p_{j+1} = -(c_{j-1} p_{j-1} + a_j p_j) / b_j
    over the whole 1-d array s at once, with the floating-point operations of
    ``polynomial_from_recurrence`` in the same order, so every coefficient
    and residual equals the one that routine gives at each point alone.  s
    may hold floats, complex numbers or mpmath numbers (an object array, with
    sequences built at the matching precision).  Returns (coeffs, residuals):
    coeffs[i] holds p_0..p_n at s[i] and residuals[i] its scaled terminal
    residual (see PolynomialCoefficients).  Raises RecurrenceBreakdownError
    when some b_j vanishes.
    """
    s = np.asarray(s)
    a = _rows(_coefficient_matrix(seqs.a), s)[0]
    b = _rows(_coefficient_matrix(seqs.b), s)[0]
    c = _rows(_coefficient_matrix(seqs.c), s)[0]
    stalled = (b == 0).any(axis=1)
    if stalled.any():
        j = int(np.argmax(stalled))
        raise RecurrenceBreakdownError(f"b_{j} = 0 stalls the recurrence")
    n = seqs.size - 1
    # like Python floats, overflow to inf and inf - inf = nan pass silently
    with np.errstate(over="ignore", invalid="ignore"):
        p = [0 * s + 1]  # p_0 = 1 in the scalar type of s
        for j in range(n):
            prev = c[j - 1] * p[j - 1] if j >= 1 else 0.0
            p.append(-(prev + a[j] * p[j]) / b[j])
        if n == 0:
            terminal = a[0] * p[0]
            entry_scale = np.maximum(np.abs(a[0]), 1.0)
        else:
            terminal = c[n - 1] * p[n - 1] + a[n] * p[n]
            entry_scale = np.maximum(np.maximum(np.abs(a[n]), np.abs(c[n - 1])), 1.0)
        coeffs = np.stack(p, axis=1)
        coeff_scale = np.abs(coeffs).max(axis=1)
        residuals = (np.abs(terminal) / (coeff_scale * entry_scale)).astype(float)
    return coeffs, residuals


def symmetric_eigenvalue_roots(seqs: TridiagonalSequences) -> np.ndarray:
    """Roots via a symmetrized eigenvalue problem, for monic-affine diagonals.

    Applies when every a_j = s + v_j (unit spectral coefficient), b_j and c_j
    are constants, and b_j c_j > 0.  Then det A(s) = 0 exactly when s is an
    eigenvalue of the negated constant tridiagonal part, which is similar to
    a symmetric matrix with off-diagonal sqrt(b_j c_j); its eigenvalues are
    provably real.  Returns them in ascending order.
    """
    from scipy.linalg import eigvalsh_tridiagonal

    v = []
    for entry in seqs.a:
        if entry.degree != 1 or float(entry.coeffs[1]) != 1.0:
            raise ValueError("diagonal entries must be monic affine in s")
        v.append(float(entry.coeffs[0]))
    off = []
    for bj, cj in zip(seqs.b, seqs.c):
        if not (bj.is_constant and cj.is_constant):
            raise ValueError("off-diagonal entries must be constant in s")
        prod = float(bj.constant_value()) * float(cj.constant_value())
        if prod <= 0:
            raise ValueError("b_j c_j must be positive for symmetrization")
        off.append(np.sqrt(prod))
    diag = -np.asarray(v, dtype=float)
    if not off:
        return diag.copy()
    return eigvalsh_tridiagonal(diag, np.asarray(off, dtype=float))


def quadratic_pencil_roots(seqs: TridiagonalSequences) -> Tuple[np.ndarray, np.ndarray]:
    """Roots of a monic quadratic pencil through its companion linearization.

    Applies when every a_j = s^2 + alpha_j s + beta_j, b_j is constant and
    c_j is at most linear in s.  Then A(s) = s^2 I + s A1 + A0 and the
    2(n+1) roots of det A(s) are the eigenvalues of

        [[  0,   I ],
         [ -A0, -A1 ]] .

    Each eigenvalue is polished by up to NEWTON_STEPS Newton steps on the
    continuant (``polish_roots``).  Returns (roots, corrections): complex
    arrays of length 2(n+1), corrections[i] being the Newton correction
    D/D' at roots[i].
    """
    size = seqs.size
    a0 = np.zeros((size, size))
    a1 = np.zeros((size, size))
    for j, entry in enumerate(seqs.a):
        if entry.degree != 2 or float(entry.coeffs[2]) != 1.0:
            raise ValueError("diagonal entries must be monic quadratic in s")
        a0[j, j] = float(entry.coeffs[0])
        a1[j, j] = float(entry.coeffs[1])
    for j, (bj, cj) in enumerate(zip(seqs.b, seqs.c)):
        if not bj.is_constant or cj.degree > 1:
            raise ValueError("b_j must be constant and c_j at most linear in s")
        a0[j, j + 1] = float(bj.constant_value())
        a0[j + 1, j] = float(cj.coeffs[0])
        if cj.degree == 1:
            a1[j + 1, j] = float(cj.coeffs[1])
    companion = np.zeros((2 * size, 2 * size))
    companion[:size, size:] = np.eye(size)
    companion[size:, :size] = -a0
    companion[size:, size:] = -a1
    roots = np.linalg.eigvals(companion).astype(complex)
    return polish_roots(seqs, roots)


def polish_roots(
    seqs: TridiagonalSequences, roots: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Up to NEWTON_STEPS Newton steps on the continuant, for all roots at once.

    A step is taken only where the Newton correction it leads to is smaller
    than the one before, so a root that has reached rounding level, or whose
    iteration starts to wander, stays where it was.  Returns (roots,
    corrections) with corrections[i] = D/D' at the returned roots[i].
    """
    coeffs = _continuant_coefficients(seqs)
    step = _corrections(coeffs, roots)
    for _ in range(NEWTON_STEPS):
        moved = roots - step
        after = _corrections(coeffs, moved)
        better = np.abs(after) < np.abs(step)
        if not better.any():
            break
        roots = np.where(better, moved, roots)
        step = np.where(better, after, step)
    return roots, step


def newton_corrections(seqs: TridiagonalSequences, s: np.ndarray) -> np.ndarray:
    """D(s) / D'(s) at every entry of the 1-d array s (0 where D' vanishes).

    D and D' come from the continuant recurrence and its derivative

        D'_j = a'_j D_{j-1} + a_j D'_{j-1} - e'_j D_{j-2} - e_j D'_{j-2},

    e_j = b_{j-1} c_{j-1}, with the four running values rescaled every
    RESCALE_ROWS rows so that high degrees cannot overflow.  s may hold
    floats, complex numbers or mpmath numbers (an object array) together
    with sequences built at the matching precision.
    """
    return _corrections(_continuant_coefficients(seqs), s)


def _continuant_coefficients(seqs: TridiagonalSequences) -> Tuple[np.ndarray, np.ndarray]:
    """Padded coefficient matrices (lowest degree first) of the a_j and e_j."""
    return _coefficient_matrix(seqs.a), _coefficient_matrix(
        [b * c for b, c in zip(seqs.b, seqs.c)]
    )


def _coefficient_matrix(polys) -> np.ndarray:
    if not polys:
        return np.zeros((0, 1))
    width = max(len(p.coeffs) for p in polys)
    return np.array([p.coeffs + (0,) * (width - len(p.coeffs)) for p in polys])


def _corrections(coeffs: Tuple[np.ndarray, np.ndarray], s: np.ndarray) -> np.ndarray:
    a, da = _rows(coeffs[0], s)
    e, de = _rows(coeffs[1], s)
    d_prev, d = np.ones_like(s), a[0]
    dd_prev, dd = np.zeros_like(s), da[0]
    for j in range(1, len(a)):
        ej, dej = e[j - 1], de[j - 1]
        d, d_prev, dd, dd_prev = (
            a[j] * d - ej * d_prev,
            d,
            da[j] * d + a[j] * dd - dej * d_prev - ej * dd_prev,
            dd,
        )
        if j % RESCALE_ROWS == 0:
            scale = np.abs(d) + np.abs(dd)
            scale = np.where(scale == 0, 1, scale)
            d, d_prev, dd, dd_prev = d / scale, d_prev / scale, dd / scale, dd_prev / scale
    nonzero = dd != 0
    return np.where(nonzero, d / np.where(nonzero, dd, 1), 0 * d)


def _rows(coeffs: np.ndarray, s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Values and derivatives at every entry of s of the polynomials whose
    coefficients are the rows of coeffs: Horner's rule, one array operation
    per degree."""
    top = coeffs.shape[1] - 1
    value = coeffs[:, top, None] + 0 * s
    deriv = 0 * value
    for k in range(top - 1, -1, -1):
        deriv = deriv * s + value
        value = value * s + coeffs[:, k, None]
    return value, deriv
