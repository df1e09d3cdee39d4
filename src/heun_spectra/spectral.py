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
the three-term recurrence run at the root, and its terminal residual
certifies the root.

The numerical routes work on ``Recurrence`` coefficient arrays.  The Newton
polish and the null vectors run over the roots of several blocks at once
(``ragged_polish``, ``ragged_null_vectors``): rows are padded to the longest
block, and a root whose block has ended keeps its values, so every root
sees the floating-point operations it would see alone.
``polish_roots``, ``newton_corrections`` and ``null_vectors`` are the
one-block case.

``determinant_polynomial`` (the continuant carried out in polynomial
arithmetic), ``determinant_numeric`` and ``dense_determinant`` evaluate the
same determinant by independent routes and serve as verification.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

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

    Float entries go through numpy's LAPACK LU, mpmath entries through
    ``mpmath.det`` at the working precision, so the dual-path comparison can
    be run above float64 where high-degree determinants lose digits to
    cancellation.
    """
    import mpmath

    a, b, c = seqs.at(s)
    n1 = seqs.size
    mp_types = (mpmath.mpf, mpmath.mpc)
    extended = any(isinstance(v, mp_types) for v in (a[0], b[0] if b else 0.0, s))
    m = np.zeros((n1, n1), dtype=object if extended else float)
    for j in range(n1):
        m[j, j] = a[j]
        if j + 1 < n1:
            m[j, j + 1] = b[j]
            m[j + 1, j] = c[j]
    if extended:
        return mpmath.det(mpmath.matrix(m.tolist()))
    return float(np.linalg.det(m))


class Recurrence(NamedTuple):
    """One block's recurrence as coefficient arrays in the spectral parameter.

    Each row holds one entry's coefficients, lowest degree first: a has
    shape (n+1, da), b (n, db) and c (n, dc), and e (n, de) holds the
    products b_j c_j that enter the continuant.  Entries are floats, or
    mpmath numbers in object arrays.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    e: np.ndarray

    @property
    def degree(self) -> int:
        return len(self.a) - 1


def recurrence(seqs: TridiagonalSequences) -> Recurrence:
    """The coefficient arrays of seqs, e built by SPoly multiplication."""
    return Recurrence(
        _coefficient_matrix(seqs.a),
        _coefficient_matrix(seqs.b),
        _coefficient_matrix(seqs.c),
        _coefficient_matrix([b * c for b, c in zip(seqs.b, seqs.c)]),
    )


def _coefficient_matrix(polys) -> np.ndarray:
    if not polys:
        return np.zeros((0, 1))
    width = max(len(p.coeffs) for p in polys)
    return np.array([p.coeffs + (0,) * (width - len(p.coeffs)) for p in polys])


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

    The one-block case of ``ragged_null_vectors``: coeffs[i] holds p_0..p_n
    at s[i] and residuals[i] its scaled terminal residual, each equal to
    what ``polynomial_from_recurrence`` gives at that point alone.
    """
    return ragged_null_vectors([recurrence(seqs)], np.asarray(s))


def symmetric_eigenvalue_roots(seqs: TridiagonalSequences) -> np.ndarray:
    """Roots via a symmetrized eigenvalue problem, for monic-affine diagonals.

    Applies when every a_j = s + v_j (unit spectral coefficient), b_j and c_j
    are constants, and b_j c_j > 0.  Then det A(s) = 0 exactly when s is an
    eigenvalue of the negated constant tridiagonal part, which is similar to
    a symmetric matrix with off-diagonal sqrt(b_j c_j); its eigenvalues are
    provably real.  Returns them in ascending order.
    """
    for entry in seqs.a:
        if entry.degree != 1 or float(entry.coeffs[1]) != 1.0:
            raise ValueError("diagonal entries must be monic affine in s")
    for bj, cj in zip(seqs.b, seqs.c):
        if not (bj.is_constant and cj.is_constant):
            raise ValueError("off-diagonal entries must be constant in s")
        if float(bj.constant_value()) * float(cj.constant_value()) <= 0:
            raise ValueError("b_j c_j must be positive for symmetrization")
    return symmetric_eigenvalues(recurrence(seqs))


def symmetric_eigenvalues(rec: Recurrence) -> np.ndarray:
    """Ascending eigenvalues of the symmetrized constant part of rec.

    The dense symmetric (n+1) x (n+1) matrix with diagonal -a_j(0) and
    off-diagonal sqrt(b_j c_j), solved by ``numpy.linalg.eigvalsh``; rec
    must meet the conditions of ``symmetric_eigenvalue_roots``.
    """
    diag = -rec.a[:, 0]
    if not len(rec.b):
        return diag
    off = np.sqrt(rec.b[:, 0] * rec.c[:, 0])
    i = np.arange(len(off))
    matrix = np.diag(diag)
    matrix[i, i + 1] = off
    matrix[i + 1, i] = off
    return np.linalg.eigvalsh(matrix)


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
    for entry in seqs.a:
        if entry.degree != 2 or float(entry.coeffs[2]) != 1.0:
            raise ValueError("diagonal entries must be monic quadratic in s")
    for bj, cj in zip(seqs.b, seqs.c):
        if not bj.is_constant or cj.degree > 1:
            raise ValueError("b_j must be constant and c_j at most linear in s")
    rec = recurrence(seqs)
    return ragged_polish([rec], companion_eigenvalues(rec))


def companion_eigenvalues(rec: Recurrence) -> np.ndarray:
    """Eigenvalues (complex) of the companion matrix of a monic quadratic pencil.

    rec must meet the conditions of ``quadratic_pencil_roots``.  The matrix
    is filled by index arrays; its lower half starts as -0.0, the negated
    zeros of A0 and A1.
    """
    size = len(rec.a)
    companion = np.zeros((2 * size, 2 * size))
    companion[size:] = -0.0
    i = np.arange(size)
    companion[i, size + i] = 1.0
    companion[size + i, i] = -rec.a[:, 0]
    companion[size + i, size + i] = -rec.a[:, 1]
    j = i[:-1]
    companion[size + j, j + 1] = -rec.b[:, 0]
    companion[size + j + 1, j] = -rec.c[:, 0]
    if rec.c.shape[1] > 1:
        companion[size + j + 1, size + j] = -rec.c[:, 1]
    return np.linalg.eigvals(companion).astype(complex)


def polish_roots(
    seqs: TridiagonalSequences, roots: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Up to NEWTON_STEPS guarded Newton steps on the continuant
    (``ragged_polish`` for one block)."""
    return ragged_polish([recurrence(seqs)], roots)


def newton_corrections(seqs: TridiagonalSequences, s: np.ndarray) -> np.ndarray:
    """D(s) / D'(s) at every entry of the 1-d array s (0 where D' vanishes).

    D and D' come from the continuant recurrence and its derivative

        D'_j = a'_j D_{j-1} + a_j D'_{j-1} - e'_j D_{j-2} - e_j D'_{j-2},

    e_j = b_{j-1} c_{j-1}, with the four running values rescaled every
    RESCALE_ROWS rows so that high degrees cannot overflow.  s may hold
    floats, complex numbers or mpmath numbers (an object array) together
    with sequences built at the matching precision.
    """
    s = np.asarray(s)
    return _corrections(_continuant_lanes([recurrence(seqs)], _owners(s, None)), s)


# ---------------------------------------------------------------------------
# the ragged kernel: point i belongs to recurrence owner[i] (all to recs[0]
# when owner is None)


def ragged_polish(
    recs: Sequence[Recurrence], roots: np.ndarray, owner: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Up to NEWTON_STEPS Newton steps on the continuant, for all roots at once.

    roots[i] is a root of recs[owner[i]].  A step is taken only where the
    Newton correction it leads to is smaller than the one before, so a root
    that has reached rounding level, or whose iteration starts to wander,
    stays where it was; such a root computes the same step again on every
    later pass, so it does not matter which other roots share the batch.
    Returns (roots, corrections) with corrections[i] = D/D' at the returned
    roots[i].
    """
    lanes = _continuant_lanes(recs, _owners(roots, owner))
    step = _corrections(lanes, roots)
    for _ in range(NEWTON_STEPS):
        moved = roots - step
        after = _corrections(lanes, moved)
        better = np.abs(after) < np.abs(step)
        if not better.any():
            break
        roots = np.where(better, moved, roots)
        step = np.where(better, after, step)
    return roots, step


def ragged_null_vectors(
    recs: Sequence[Recurrence], s: np.ndarray, owner: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Recurrence null vectors at every s[i], a point of recs[owner[i]].

    Runs p_{-1} = 0, p_0 = 1, p_{j+1} = -(c_{j-1} p_{j-1} + a_j p_j) / b_j
    with the operations of ``polynomial_from_recurrence`` in the same order,
    so for real or mpmath points (an object array, with recurrences built
    at the matching precision) every coefficient and residual equals that
    routine's at each point alone.  Returns (coeffs, residuals):
    coeffs[i, :n+1] holds p_0..p_n at s[i], n its recurrence's degree (the
    columns past it are padding), and residuals[i] the scaled terminal
    residual (see PolynomialCoefficients).  Raises RecurrenceBreakdownError
    when some b_j vanishes.
    """
    owner = _owners(s, owner)
    last = _degrees(recs, owner)
    rows = max(rec.degree for rec in recs) + 1
    a = _horner(_gather([r.a for r in recs], owner, rows, 0), s, derivative=False)[0]
    b = _horner(_gather([r.b for r in recs], owner, rows - 1, 1), s, derivative=False)[0]
    c = _horner(_gather([r.c for r in recs], owner, rows - 1, 0), s, derivative=False)[0]
    stalled = (b == 0).any(axis=1)
    if stalled.any():
        j = int(np.argmax(stalled))
        raise RecurrenceBreakdownError(f"b_{j} = 0 stalls the recurrence")
    n = rows - 1
    # like Python floats, overflow to inf and inf - inf = nan pass silently
    with np.errstate(over="ignore", invalid="ignore"):
        p = [0 * s + 1]  # p_0 = 1 in the scalar type of s
        for j in range(n):
            prev = c[j - 1] * p[j - 1] if j >= 1 else 0.0
            p.append(-(prev + a[j] * p[j]) / b[j])
        coeffs = np.stack(p, axis=1)
        lane = np.arange(len(s))
        a_n, p_n = a[last, lane], coeffs[lane, last]
        if n == 0:
            terminal = a_n * p_n
            entry_scale = np.maximum(np.abs(a_n), 1.0)
        else:
            # a point of a degree-0 block reads its padding in row -1, c = 0
            # next to a finite p, which leaves |terminal| and the scale as
            # they are without c
            c_n, p_m = c[last - 1, lane], coeffs[lane, last - 1]
            terminal = c_n * p_m + a_n * p_n
            entry_scale = np.maximum(np.maximum(np.abs(a_n), np.abs(c_n)), 1.0)
        inside = np.arange(n + 1) <= last[:, None]
        coeff_scale = np.where(inside, np.abs(coeffs), 0).max(axis=1)
        residuals = (np.abs(terminal) / (coeff_scale * entry_scale)).astype(float)
    return coeffs, residuals


def _owners(s: np.ndarray, owner: Optional[np.ndarray]) -> np.ndarray:
    return np.zeros(len(s), dtype=np.intp) if owner is None else owner


def _degrees(recs: Sequence[Recurrence], owner: np.ndarray) -> np.ndarray:
    return np.array([rec.degree for rec in recs], dtype=np.intp)[owner]


def _gather(mats: List[np.ndarray], owner: np.ndarray, rows: int, pad) -> np.ndarray:
    """Coefficient matrices laid out by point: out[k, j, i] is coefficient k
    of row j of mats[owner[i]], and the constant pad past its last row."""
    width = max(m.shape[1] for m in mats)
    dtype = object if any(m.dtype == object for m in mats) else float
    stacked = np.zeros((width, rows, len(mats)), dtype=dtype)
    for i, m in enumerate(mats):
        stacked[: m.shape[1], : len(m), i] = m.T
        stacked[0, len(m):, i] = pad
    return stacked[:, :, owner]


def _continuant_lanes(recs: Sequence[Recurrence], owner: np.ndarray):
    """(a, e, degrees) of the continuant laid out by point, for ``_corrections``."""
    rows = max(rec.degree for rec in recs) + 1
    return (
        _gather([r.a for r in recs], owner, rows, 0),
        _gather([r.e for r in recs], owner, rows - 1, 0),
        _degrees(recs, owner),
    )


def _corrections(lanes, s: np.ndarray) -> np.ndarray:
    """D(s) / D'(s) at every point (see ``newton_corrections``).

    Up to the shortest recurrence every point takes every row; past it a
    point whose recurrence has ended keeps its running values, including
    through the rescaling, which happens at each row index j that is a
    multiple of RESCALE_ROWS, as for a single block.
    """
    a_coeffs, e_coeffs, last = lanes
    a, da = _horner(a_coeffs, s)
    e, de = _horner(e_coeffs, s)
    shortest = last.min(initial=len(a))
    d_prev, d = np.ones_like(s), a[0]
    dd_prev, dd = np.zeros_like(s), da[0]
    for j in range(1, len(a)):
        held = d, d_prev, dd, dd_prev
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
        if j > shortest:
            d, d_prev, dd, dd_prev = (
                np.where(last >= j, x, y) for x, y in zip((d, d_prev, dd, dd_prev), held)
            )
    nonzero = dd != 0
    return np.where(nonzero, d / np.where(nonzero, dd, 1), 0 * d)


def _horner(coeffs: np.ndarray, s: np.ndarray, derivative: bool = True):
    """Values (and derivatives) at every point of the polynomials whose
    coefficients are coeffs[:, j, i]: Horner's rule, one array operation per
    degree."""
    top = len(coeffs) - 1
    value = coeffs[top] + 0 * s
    deriv = 0 * value
    for k in range(top - 1, -1, -1):
        if derivative:
            deriv = deriv * s + value
        value = value * s + coeffs[k]
    return value, deriv
