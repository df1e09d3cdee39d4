"""Roots of the quantization matrices and the determinant routes that check them.

The spectral condition is det A_{n+1}(s) = 0, with A_{n+1} the tridiagonal
matrix built from the recurrence sequences.  Its determinant is the
continuant

    D_{-1} = 1,  D_0 = a_0,  D_j = a_j D_{j-1} - b_{j-1} c_{j-1} D_{j-2} .

The solve routines take a block's recurrence as ``Recurrence`` coefficient
arrays (``models.block_recurrence`` builds them).  Each model's matrix has a
structure that turns the root problem into a matrix eigenproblem of size
independent of any expanded polynomial:

* model 1 diagonals are s + v_j with constant b_j c_j > 0, so the roots are
  the eigenvalues of a symmetric tridiagonal matrix
  (``symmetric_eigenvalues``);
* model 2 is the monic quadratic pencil s^2 I + s A1 + A0, whose 2(n+1)
  roots are the eigenvalues of its companion linearization
  (``companion_eigenvalues``), polished by a few Newton steps on the
  continuant and its derivative (``ragged_polish``, ``newton_corrections``).

A root's bound state is the null vector of its matrix, the coefficients of
the three-term recurrence run at the root, and its terminal residual
certifies the root (``ragged_null_vectors``).

The Newton polish, the corrections and the null vectors run over the roots
of several blocks at once: point i belongs to recurrence owner[i], and to
the only one when owner is None.  The points stay in that order and every
point runs every row, padded past its own recurrence's last row; a point's
result is read at that row, so every root sees the floating-point
operations it would see alone.

``determinant_polynomial`` (the continuant carried out on coefficient
arrays, returning the determinant's coefficients for ``heun_core.horner``),
``determinant_numeric`` and ``dense_determinant`` evaluate the same
determinant by independent routes and serve as verification, exactly on a
recurrence of Fractions.  The last two only call the sequences' ``at`` and
``size``, so they take a ``Recurrence`` and the ``TridiagonalSequences``
view of ``models.block_sequences`` alike.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import RecurrenceBreakdownError
from .heun_core import Recurrence, Scalar

NEWTON_STEPS = 3
RESCALE_ROWS = 8


def determinant_polynomial(rec: Recurrence) -> np.ndarray:
    """Determinant of the quantization matrix as a polynomial in s: its
    coefficient array, lowest degree first, for ``heun_core.horner``.

    The continuant runs on coefficient arrays with numpy's ``polymul`` and
    ``polysub``, which trim trailing zeros; object arrays of Fractions stay
    exact.  The array is new, never a view of the recurrence.
    """
    a, b, c = rec
    d_prev2, d_prev = [1], a[0].copy()
    for j in range(1, rec.size):
        d_prev2, d_prev = d_prev, P.polysub(
            P.polymul(a[j], d_prev), P.polymul(P.polymul(b[j - 1], c[j - 1]), d_prev2)
        )
    return d_prev


def determinant_numeric(seqs: Recurrence, s: Scalar) -> Scalar:
    """Continuant recurrence after substituting s; cheap single-point value."""
    a, b, c = seqs.at(s)
    d_prev2, d_prev = 1, a[0]
    for j in range(1, seqs.size):
        d_prev2, d_prev = d_prev, a[j] * d_prev - (b[j - 1] * c[j - 1]) * d_prev2
    return d_prev


def dense_determinant(seqs: Recurrence, s: Scalar) -> Scalar:
    """Determinant of the explicitly assembled matrix; dual-path check.

    The entries pick the matrix dtype.  Float and complex matrices go
    through numpy's LAPACK LU.  Other entries (Fractions, mpmath numbers)
    make an object matrix, whose determinant comes from Gaussian
    elimination in their own arithmetic (exact for Fractions), pivoting on
    the first non-zero entry of each column.
    """
    a, b, c = seqs.at(s)
    m = np.diag(a) + np.diag(b, 1) + np.diag(c, -1)
    if m.dtype != object:
        return np.linalg.det(m).item()
    rows, det = m.tolist(), 1
    for j in range(len(rows)):
        p = next((i for i in range(j, len(rows)) if rows[i][j] != 0), None)
        if p is None:
            return 0 * det
        if p != j:
            rows[j], rows[p], det = rows[p], rows[j], -det
        det = det * rows[j][j]
        for i in range(j + 1, len(rows)):
            if rows[i][j] != 0:
                f = rows[i][j] / rows[j][j]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[j])]
    return det


def symmetric_eigenvalues(rec: Recurrence) -> np.ndarray:
    """Roots of a block with monic affine diagonal, as symmetric eigenvalues.

    Assumes the structure that ``models.block_recurrence`` builds for model
    1: every a_j = s + v_j (a of width 2, last column 1), b_j and c_j
    constants (width 1) and b_j c_j > 0.  Then det A(s) = 0 exactly when s
    is an eigenvalue of the negated constant tridiagonal part, which is
    similar to a symmetric matrix with off-diagonal sqrt(b_j c_j); its
    eigenvalues are provably real.  Returns them in ascending order, from
    ``numpy.linalg.eigvalsh`` on the lower triangle of the dense matrix.
    """
    off = np.sqrt(rec.b[:, 0] * rec.c[:, 0])
    i = np.arange(len(off))
    matrix = np.diag(-rec.a[:, 0])
    matrix[i + 1, i] = off
    return np.linalg.eigvalsh(matrix)


def companion_eigenvalues(rec: Recurrence) -> np.ndarray:
    """Roots of a monic quadratic pencil, as eigenvalues of its linearization.

    Assumes the structure that ``models.block_recurrence`` builds for model
    2: every a_j = s^2 + alpha_j s + beta_j (a of width 3, last column 1),
    b_j constant (width 1) and c_j = gamma_j s (width 2, first column 0).
    Then A(s) = s^2 I + s A1 + A0 and the 2(n+1) roots of det A(s) are the
    (complex) eigenvalues of

        [[  0,   I ],
         [ -A0, -A1 ]] ,

    for ``ragged_polish`` to refine.  The matrix is filled by index arrays;
    its lower half starts as -0.0, the negated zeros of A0 and A1, the
    subdiagonal of A0 among them.
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
    companion[size + j + 1, size + j] = -rec.c[:, 1]
    return np.linalg.eigvals(companion).astype(complex)


# ---------------------------------------------------------------------------
# the ragged kernel: point i belongs to recurrence owner[i] (all to recs[0]
# when owner is None)


def newton_corrections(
    recs: Sequence[Recurrence], s: np.ndarray, owner: Optional[np.ndarray] = None
) -> np.ndarray:
    """D(s) / D'(s) at every s[i], a point of recs[owner[i]] (0 where D' vanishes).

    D and D' come from the continuant recurrence and its derivative

        D'_j = a'_j D_{j-1} + a_j D'_{j-1} - e'_j D_{j-2} - e_j D'_{j-2},

    e_j = b_{j-1} c_{j-1}, with the four running values rescaled every
    RESCALE_ROWS rows so that high degrees cannot overflow.  s may hold
    floats, complex numbers or mpmath numbers (an object array) together
    with recurrences converted exactly to mpmath numbers.
    """
    s = np.asarray(s)
    return _corrections(_continuant_lanes(recs, _owners(s, owner)), s)


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
    so for real or mpmath points (an object array, with recurrences
    converted exactly to mpmath numbers) every coefficient and residual
    equals that routine's at each point alone.  Returns (coeffs,
    residuals): coeffs[i, :n+1] holds p_0..p_n at s[i], n its recurrence's
    degree (the columns past it are padding), and residuals[i] the scaled
    terminal residual (see PolynomialCoefficients).  Raises
    RecurrenceBreakdownError when some b_j vanishes.
    """
    owner = _owners(s, owner)
    last = _degrees(recs, owner)
    rows = max(rec.degree for rec in recs) + 1
    a = _horner(_gather([r.a for r in recs], owner, rows, 0), s)[0]
    b = _horner(_gather([r.b for r in recs], owner, rows - 1, 1), s)[0]
    # one padded row past the longest c, c_{-1} = 0 in the scalar type of s:
    # row 0 reads it next to p_0, and a point of a degree-0 block as its
    # terminal row's c, which leaves |terminal| and the scale as they are
    # without c
    c = _horner(_gather([r.c for r in recs], owner, rows, 0), s)[0]
    stalled = (b == 0).any(axis=1)
    if stalled.any():
        j = int(np.argmax(stalled))
        raise RecurrenceBreakdownError(f"b_{j} = 0 stalls the recurrence")
    n = rows - 1
    # like Python floats, overflow to inf and inf - inf = nan pass silently
    with np.errstate(over="ignore", invalid="ignore"):
        p = [0 * s + 1]  # p_0 = 1 in the scalar type of s
        for j in range(n):
            p.append(-(c[j - 1] * p[j - 1] + a[j] * p[j]) / b[j])
        coeffs = np.stack(p, axis=1)
        lane = np.arange(len(s))
        a_n, p_n = a[last, lane], coeffs[lane, last]
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
    """The continuant laid out by point, for ``_corrections``: the a and e
    coefficients of each point's recurrence, and ends[j] = the points whose
    recurrence ends at row j, for the rows where some point's does."""
    last = _degrees(recs, owner)
    rows = max(rec.degree for rec in recs) + 1
    return (
        _gather([r.a for r in recs], owner, rows, 0),
        # e_j = b_j c_j; the 0.0 + turns a -0.0 coefficient into 0.0, which
        # the solve path's bits depend on
        _gather([0.0 + r.b * r.c for r in recs], owner, rows - 1, 0),
        {j: np.flatnonzero(last == j) for j in set(last.tolist())},
    )


# as in ragged_null_vectors, overflow to inf and inf - inf = nan pass silently
@np.errstate(over="ignore", invalid="ignore")
def _corrections(lanes, s: np.ndarray) -> np.ndarray:
    """D(s) / D'(s) at every point (see ``newton_corrections``).

    Every point runs every row, and the rescaling at each row index j that
    is a multiple of RESCALE_ROWS acts on each point alone.  A point whose
    recurrence ends before the last row keeps the (D, D') of its own last
    row: they are copied out on the rows where some point ends and written
    back after the loop, so a lone block copies nothing.  Neutral pad rows
    (a = 1, e = 0) would not keep them: 0 * inf is nan.
    """
    a_coeffs, e_coeffs, ends = lanes
    a, da = _horner(a_coeffs, s)
    e, de = _horner(e_coeffs, s)
    d, dd = a[0], da[0]
    d_prev, dd_prev = np.ones_like(d), np.zeros_like(d)
    kept = []
    for j in range(1, len(a)):
        ended = ends.get(j - 1)
        if ended is not None:
            kept.append((ended, d[ended], dd[ended]))
        aj, ej = a[j], e[j - 1]
        # D'_j and D_j, left to right as written in newton_corrections
        dd, dd_prev = da[j] * d + aj * dd - de[j - 1] * d_prev - ej * dd_prev, dd
        d, d_prev = aj * d - ej * d_prev, d
        if j % RESCALE_ROWS == 0:
            scale = np.abs(d) + np.abs(dd)
            scale[scale == 0] = 1
            d, d_prev, dd, dd_prev = (x / scale for x in (d, d_prev, dd, dd_prev))
    for ended, d_end, dd_end in kept:
        d[ended], dd[ended] = d_end, dd_end
    nonzero = dd != 0
    return np.where(nonzero, d / np.where(nonzero, dd, 1), 0 * d)


def _horner(coeffs: np.ndarray, s: np.ndarray):
    """Values and derivatives at every point of the polynomials whose
    coefficients are coeffs[:, j, i]: Horner's rule, one array operation per
    degree."""
    top = len(coeffs) - 1
    value = coeffs[top] + 0 * s
    deriv = 0 * value
    for k in range(top - 1, -1, -1):
        deriv = deriv * s + value
        value = value * s + coeffs[k]
    return value, deriv
