"""Roots of the quantization matrices, their null vectors and their inertia.

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
the three-term recurrence run at the root (``ragged_null_vectors``), and
``null_vectors`` certifies it: a terminal residual of at most
RESIDUAL_TARGET, forward or, where that misses, twisted.

Where every b_j c_j > 0, counts of negative pivots (``inertia``) at two
points bracket the roots between them, by Sylvester's law of inertia
(Barth, Martin & Wilkinson, Numer. Math. 9, 1967); ``certify`` holds each
printed root to one step of the count.  A float count is exact for a
matrix a few ulps away, entry by entry (Kahan, Stanford CS41, 1966;
Demmel, Dhillon & Ren, ETNA 3, 1995), and so is a float verdict.

The Newton polish, the corrections, the null vectors and the inertia count
(``inertia``) run over the points of several blocks at once: point i
belongs to recurrence owner[i], and to the only one when owner is None.
The points stay in that order and every point runs every row; a point's
result is that of its own last row, so every point sees the floating-point
operations it would see alone.  Each point's entries are its recurrence's
coefficient rows, gathered by point once (``_lanes``) and evaluated by
``heun_core.horner``; the corrections also need the derivatives
(``_horner_with_derivative``).  Past its own last row a point reads a = 1,
b = 1 and c = 0, a pivot that never counts and a b_j that never stalls.

``determinant_numeric`` evaluates the continuant at one point through the
recurrence's ``at``, so its arrays may be of any scalar type, the ``SPoly``
view of ``models.block_sequences`` included.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import RecurrenceBreakdownError
from .heun_core import Recurrence, Scalar, horner

NEWTON_STEPS = 3
RESCALE_ROWS = 8
RESIDUAL_TARGET = 1e-10


def determinant_numeric(seqs: Recurrence, s: Scalar) -> Scalar:
    """Continuant recurrence after substituting s; cheap single-point value."""
    a, b, c = seqs.at(s)
    d_prev2, d_prev = 1, a[0]
    for j in range(1, seqs.size):
        d_prev2, d_prev = d_prev, a[j] * d_prev - (b[j - 1] * c[j - 1]) * d_prev2
    return d_prev


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
    return _corrections(_continuant_lanes(_lanes(recs, s, owner)), s)


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
    lanes = _continuant_lanes(_lanes(recs, roots, owner))
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
    *coeffs, last = _lanes(recs, s, owner)
    a, b, c = (horner(m, s) for m in coeffs)
    stalled = (b == 0).any(axis=1)
    if stalled.any():
        j = int(np.argmax(stalled))
        raise RecurrenceBreakdownError(f"b_{j} = 0 stalls the recurrence")
    # like Python floats, overflow to inf and inf - inf = nan pass silently
    with np.errstate(over="ignore", invalid="ignore"):
        p = [0 * s + 1]  # p_0 = 1 in the scalar type of s
        for j in range(len(a) - 1):
            p.append(-(c[j - 1] * p[j - 1] + a[j] * p[j]) / b[j])
        coeffs = np.stack(p, axis=1)
        lane = np.arange(len(s))
        a_n, p_n = a[last, lane], coeffs[lane, last]
        c_n, p_m = c[last - 1, lane], coeffs[lane, last - 1]
        terminal = c_n * p_m + a_n * p_n
        entry_scale = np.maximum(np.maximum(np.abs(a_n), np.abs(c_n)), 1.0)
        inside = np.arange(len(a)) <= last[:, None]
        coeff_scale = np.where(inside, np.abs(coeffs), 0).max(axis=1)
        residuals = (np.abs(terminal) / (coeff_scale * entry_scale)).astype(float)
    return coeffs, residuals


def null_vectors(
    recs: Sequence[Recurrence], points: np.ndarray, owner: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(coeffs, forward, residuals, certified) at real roots points[i] of
    recs[owner[i]]: null vectors laid out as by ``ragged_null_vectors``, the
    forward runs' terminal residuals and the kept vectors' residuals.

    The forward run from p_0 = 1 is kept where it meets RESIDUAL_TARGET.
    Where it misses, the lower rows of the wanted vector follow the
    recurrence's minimal solution, which a forward run loses and a backward
    run keeps (Gautschi, SIAM Rev. 9, 1967): the kernel runs on the reversed
    recurrences from p_n = 1 at those points only, and the runs are joined
    (``_twisted``).  certified: the kept vector meets RESIDUAL_TARGET and
    its p_0..p_n are finite (a forward run that meets it is: an overflow
    reaches p_n and makes the residual nan).
    """
    owner = np.zeros(len(points), dtype=np.intp) if owner is None else owner
    coeffs, forward = ragged_null_vectors(recs, points, owner)
    residuals = forward.copy()
    # a nan residual (an overflowed run) misses too
    missed = np.flatnonzero(~(forward <= RESIDUAL_TARGET))
    if len(missed):
        backward = [Recurrence(r.a[::-1], r.c[::-1], r.b[::-1]) for r in recs]
        rows, _ = ragged_null_vectors(backward, points[missed], owner[missed])
        for i, row in zip(missed.tolist(), rows):
            rec = recs[owner[i]]
            f, g = coeffs[i, : rec.size], row[rec.size - 1::-1]
            coeffs[i, : rec.size], residuals[i] = _twisted(rec, points[i], f, g)
    padding = np.arange(coeffs.shape[1]) >= np.array([r.size for r in recs])[owner, None]
    certified = (residuals <= RESIDUAL_TARGET) & (np.isfinite(coeffs) | padding).all(axis=1)
    return coeffs, forward, residuals, certified


def _twisted(rec: Recurrence, x: float, f: np.ndarray, g: np.ndarray) -> Tuple[np.ndarray, float]:
    """Join a forward run f (f_0 = 1) and a backward run g (g_n = 1) at x.

    The join at row t takes f_j for j <= t and g_j f_t / g_t below, so every
    row but t holds by construction and the residual is all in row t
    (Dhillon & Parlett, SIAM J. Matrix Anal. Appl. 25, 2004).  t is the row
    where that residual, scaled like the terminal residual (by the largest
    coefficient and the row's entries), is smallest; t = n is the forward
    vector and t = 0 the backward one divided by its p_0.  Returns the
    joined p_0..p_n and its residual (inf where no row gives a number).
    """
    # like the kernel, overflow to inf and inf - inf = nan pass silently
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a, b, c = (horner(m.T, x) for m in rec)
        # row t applied to the join scaled to p_t = 1, and that row's entries
        gamma = a + np.pad(c * f[:-1] / f[1:], (1, 0)) + np.pad(b * g[1:] / g[:-1], (0, 1))
        entries = np.max([np.abs(a), np.pad(np.abs(c), (1, 0)), np.pad(np.abs(b), (0, 1)),
                          np.ones_like(a)], axis=0)
        f_size, g_size = np.abs(f), np.abs(g)
        size = np.maximum(
            np.maximum.accumulate(f_size) / f_size,
            np.maximum.accumulate(g_size[::-1])[::-1] / g_size,
        )
        residuals = np.abs(gamma) / (size * entries)
        residuals[np.isnan(residuals)] = np.inf
        t = int(np.argmin(residuals))
        return np.concatenate([f[: t + 1], g[t + 1:] / g[t] * f[t]]), float(residuals[t])


def inertia(
    recs: Sequence[Recurrence], points: np.ndarray, owner: Optional[np.ndarray] = None
) -> np.ndarray:
    """The number of negative pivots d_0 = a_0, d_j = a_j - e_{j-1} / d_{j-1},
    e_j = b_j c_j, of the continuant at every points[i], a point of
    recs[owner[i]].

    The points may be floats, or Fractions (an object array, with
    recurrences converted exactly to Fractions) for an exact count.  A zero
    pivot counts as negative and is replaced by -pivmin, the smallest normal
    double in the points' scalar type, as in LAPACK's dstebz.
    """
    a, b, c = (horner(m, points) for m in _lanes(recs, points, owner)[:3])
    e = b * c[:-1]
    pivmin = (0 * points + 1) / 2**1022
    counts = np.zeros(len(points), dtype=np.intp)
    d = a[0]
    # a pivot after -pivmin may overflow to inf, and the next one is a_j
    with np.errstate(over="ignore"):
        for j in range(len(a)):
            if j:
                d = a[j] - e[j - 1] / d
            d = np.where(d == 0, -pivmin, d)
            counts += d < 0
    return counts


def certify(recs: Sequence[Recurrence], roots: np.ndarray, owner: np.ndarray,
            delta: Scalar) -> Tuple[np.ndarray, np.ndarray]:
    """(isolated, complete) for the ascending roots[i] of recs[owner[i]],
    owner in block order, from one ``inertia`` call at both ends of every
    bracket x (1 -+ delta).  A root is isolated when the count steps by
    exactly 1 across its bracket, down where a has width 2 (model 1) and up
    where it has width 3 (model 2), and its bracket is clear of the one
    below it.  A block is complete with rec.size roots (width 2), or with
    #{j : beta_j < 0} roots and that count above its largest root (width 3).
    """
    ends = np.stack([roots - abs(roots) * delta, roots + abs(roots) * delta], axis=1)
    below, above = inertia(recs, ends.ravel(), np.repeat(owner, 2)).reshape(-1, 2).T
    down = np.array([rec.a.shape[1] == 2 for rec in recs])
    isolated = np.where(down[owner], below - above, above - below) == 1
    isolated[1:] &= (owner[1:] != owner[:-1]) | (ends[:-1, 1] < ends[1:, 0])
    found = np.bincount(owner, minlength=len(recs))
    want = np.where(down, [r.size for r in recs], [(r.a[:, 0] < 0).sum() for r in recs])
    top = want.copy()  # a block without roots has nothing to count above
    top[found > 0] = above[np.cumsum(found)[found > 0] - 1]
    return isolated, (found == want) & (down | (top == want))


def _lanes(recs: Sequence[Recurrence], s: np.ndarray, owner: Optional[np.ndarray]):
    """The recurrences laid out by point: (a, b, c, last), with m[k, j, i]
    coefficient k of row j of recs[owner[i]]'s m and last[i] its last row.

    Past a point's last row a reads 1 and b reads 1.  c has one row more
    than b, c_{-1} = 0 for every point: row 0 reads it next to p_0, and a
    point of a degree-0 block as its terminal row's c, which leaves
    |terminal| and the scale as they are without c.
    """
    owner = np.zeros(len(s), dtype=np.intp) if owner is None else owner
    sizes = np.array([rec.size for rec in recs], dtype=np.intp)
    rows = int(sizes.max())
    lanes = []
    for m, size, pad in zip(zip(*recs), (rows, rows - 1, rows), (1, 1, 0)):
        dtype = object if any(x.dtype == object for x in m) else float
        stacked = np.zeros((max(x.shape[1] for x in m), size, len(m)), dtype=dtype)
        for i, x in enumerate(m):
            stacked[: x.shape[1], : len(x), i] = x.T
            stacked[0, len(x):, i] = pad
        lanes.append(np.take(stacked, owner, axis=2))
    return (*lanes, sizes[owner] - 1)


def _continuant_lanes(lanes):
    """The continuant laid out by point, for ``_corrections``: the a and e
    coefficients of ``_lanes``, and ends[j] = the points whose recurrence
    ends at row j, for the rows where some point's does."""
    a, b, c, last = lanes
    ends = {j: np.flatnonzero(last == j) for j in set(last.tolist())}
    # e_j = b_j c_j; the 0.0 + turns a -0.0 coefficient into 0.0, which the
    # solve path's bits depend on
    return a, 0.0 + b * c[:, :-1], ends


# as in ragged_null_vectors, overflow to inf and inf - inf = nan pass silently
@np.errstate(over="ignore", invalid="ignore")
def _corrections(lanes, s: np.ndarray) -> np.ndarray:
    """D(s) / D'(s) at every point (see ``newton_corrections``).

    Every point runs every row, and the rescaling at each row index j that
    is a multiple of RESCALE_ROWS acts on each point alone.  A point whose
    recurrence ends before the last row keeps the (D, D') of its own last
    row: they are copied out on the rows where some point ends and written
    back after the loop, so a lone block copies nothing.  The pad rows of
    ``_lanes`` (a = 1, e = 0) would not keep them: 0 * inf is nan.
    """
    a_coeffs, e_coeffs, ends = lanes
    a, da = _horner_with_derivative(a_coeffs, s)
    e, de = _horner_with_derivative(e_coeffs, s)
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


def _horner_with_derivative(coeffs: np.ndarray, s: np.ndarray):
    """Values at every point of the polynomials whose coefficients are
    coeffs[:, j, i], by the operations of ``heun_core.horner`` (its seed
    broadcast to the points), and their derivatives."""
    top = len(coeffs) - 1
    value = coeffs[top] + 0 * s
    deriv = 0 * value
    for k in range(top - 1, -1, -1):
        deriv = deriv * s + value
        value = value * s + coeffs[k]
    return value, deriv
