"""Independent finite-difference check of the analytic spectra.

The radial problem is symmetrized by the substitution R = rho^(-1/2) u, which
removes the first-derivative term:

    -u'' + [ V_eff(rho) - 1/(4 rho^2) ] u = E u,
    V_eff = (sigma |l| / rho - A_phi)^2 + u_scalar .

The matrix is assembled in flux (finite-volume) form: each grid node owns the
cell between the midpoints to its neighbours, and the radial flux rho R'
through each cell face supplies the couplings.  After the similarity scaling
by rho^(1/2) that is a real symmetric tridiagonal matrix which agrees with
the naive stencil 2/h^2 + V_eff - 1/(4 rho^2) to O(h^2) away from the axis,
but keeps the discrete operator bounded below near rho = 0, where putting
-1/(4 rho^2) on the diagonal manufactures spurious wall states and O(1)
eigenvalue errors in channels whose R does not vanish at the axis.

Boundaries are Dirichlet ghosts one spacing outside the stored endpoints.
When the grid reaches the axis (rho_min <= h) the inner face carries zero
flux instead, which is the regularity condition R'(0) = 0; a hard wall at a
tiny rho_min would shift s-wave-like levels by O(1/log rho_min) and never
reproduce the analytic spectrum.

Sturm bisection and inverse iteration (LAPACK dstebz and dstein, through
scipy's eigh_tridiagonal) give the lowest levels and their vectors.  Even to
width ISOLATION_TOL bisection costs some 30 Sturm passes per level, because
||T|| reaches 1e8 near the axis, so a grid of at least 2 COARSE_POINTS points
is bisected only on every m-th node, m = points // COARSE_POINTS, and only to
that width.  The coarse vectors, interpolated onto the full grid, are
refined there by two rounds of shifted tridiagonal solves (dgtsv), the
first at the coarse levels and the second at each column's Rayleigh
quotient x.Tx / x.x.  The refined columns are kept when each one's residual
||T x - theta x|| / ||x|| at its quotient theta is within a few ulps of ||T||,
the intervals of that radius plus the gate about them are disjoint and
increasing, and one Sturm count proves that they hold the lowest levels;
otherwise the full matrix is bisected after all.  Nothing here touches the
Heun machinery, so agreement with the roots is a genuine cross-check.

Each block's bound states are the lowest levels of their channel (Sturm
oscillation), so compare_spectra pairs the i-th analytic level with the
i-th numeric one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from .errors import ParameterError, PrecisionError, require_integer
from .models import ModelConfig, effective_potential

BOX_AMPLITUDE_TOL = 1e-6
ISOLATION_TOL = 1e-3  # coarse bisection width; the fine shifted solves refine past it
RITZ_RESIDUAL_ULPS = 1e3  # gate on ||T x - theta x|| / ||x||, so theta is this near a level
COARSE_POINTS = 500  # a grid of at least twice this many points starts on every m-th point


@dataclass(frozen=True)
class GridSpec:
    """Uniform radial grid (rho_min, rho_max, interior point count)."""

    rho_min: float
    rho_max: float
    points: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rho_min) and math.isfinite(self.rho_max)):
            raise ParameterError("grid needs a finite rho_min and rho_max")
        if not (0 < self.rho_min < self.rho_max):
            raise ParameterError("grid needs 0 < rho_min < rho_max")
        points = require_integer(self.points, "grid needs an integer number of points")
        object.__setattr__(self, "points", points)
        if points < 100:
            raise ParameterError("grid needs at least 100 points")

    @property
    def h(self) -> float:
        return (self.rho_max - self.rho_min) / (self.points - 1)

    def rhos(self) -> NDArray[np.floating]:
        return np.linspace(self.rho_min, self.rho_max, self.points)


def channel_matrix(
    v_eff: NDArray[np.floating], grid: GridSpec, stride: int = 1
) -> Tuple[NDArray[np.floating], NDArray[np.floating]]:
    """Flux-form tridiagonal (diag, off) of the channel on every stride-th node.

    The axis condition is the full grid's, so a coarse subgrid models the same
    boundary as the grid it is taken from.
    """
    r = grid.rhos()[::stride]
    h = stride * grid.h
    outer = r + 0.5 * h
    inner = np.maximum(r - 0.5 * h, 0.0)
    if grid.rho_min <= grid.h * (1.0 + 1e-9):
        inner[0] = 0.0
    diag = (inner + outer) / (r * h * h) + v_eff[::stride]
    off = -outer[:-1] / (h * h * np.sqrt(r[:-1] * r[1:]))
    return diag, off


def _times(
    diag: NDArray[np.floating],
    off: NDArray[np.floating],
    x: NDArray[np.floating],
    out: NDArray[np.floating],
) -> NDArray[np.floating]:
    """T x for each column of x, written into out."""
    np.multiply(diag[:, None], x, out=out)
    out[1:] += off[:, None] * x[:-1]
    out[:-1] += off[:, None] * x[1:]
    return out


def _shifted_solves(
    diag: NDArray[np.floating],
    off: NDArray[np.floating],
    vecs: NDArray[np.floating],
    shifts: NDArray[np.floating],
) -> NDArray[np.floating]:
    """One inverse-iteration step per column: (T - shifts[i]) y_i = vecs[:, i]."""
    from scipy.linalg import lapack

    out = np.empty_like(vecs)
    for i, shift in enumerate(shifts):
        *_, y, info = lapack.dgtsv(off, diag - shift, off, vecs[:, i:i + 1])
        if info != 0:
            raise PrecisionError(f"LAPACK dgtsv failed (info = {info})")
        out[:, i] = y[:, 0]
    return out


def _count_at_most(
    diag: NDArray[np.floating], off: NDArray[np.floating], value: float
) -> int:
    """Number of eigenvalues of T at or below value, by Sturm count.

    dstebz range V on (Gershgorin floor, value] with an abstol wider than the
    interval counts the levels in it without bisecting any of them.
    """
    from scipy.linalg import lapack

    lower = np.min(diag) - 2 * np.max(np.abs(off), initial=0.0)  # Gershgorin
    floor = lower - abs(lower) - 1.0  # strictly below it at any scale
    m, *_, info = lapack.dstebz(diag, off, 1, floor, value, 0, 0, 2 * (value - floor), "E")
    if info != 0:
        raise PrecisionError(f"LAPACK dstebz failed (info = {info})")
    return m


def _bisect(
    diag: NDArray[np.floating], off: NDArray[np.floating], count: int, tol: float = 0.0
) -> Tuple[NDArray[np.floating], NDArray[np.floating]]:
    """Lowest `count` eigenpairs of T by bisection to width tol (0: full
    accuracy) and inverse iteration; a LAPACK failure raises PrecisionError."""
    # Imported here so that importing the package loads no scipy.
    from scipy.linalg import LinAlgError, eigh_tridiagonal

    try:
        # stebz, not stemr, whose n x n work array is 488 MB at 8,000 points
        return eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1),
                                check_finite=False, tol=tol, lapack_driver="stebz")
    except LinAlgError as exc:
        raise PrecisionError(f"LAPACK bisection failed: {exc}") from exc


def lowest_eigenpairs(
    diag: NDArray[np.floating], off: NDArray[np.floating], count: int
) -> Tuple[NDArray[np.floating], NDArray[np.floating]]:
    """Lowest `count` eigenpairs of the symmetric tridiagonal T = (diag, off).

    Full-accuracy bisection (dstebz) and inverse iteration (dstein), in
    memory linear in the size of T; a LAPACK failure raises PrecisionError,
    and a count that is not an integer from 1 to the size of T
    ParameterError.
    """
    count = require_integer(count, "count must be an integer")
    if not 1 <= count <= len(diag):
        raise ParameterError(f"count {count} is not between 1 and the size {len(diag)} of T")
    return _bisect(diag, off, count)


def _prolong(coarse: NDArray[np.floating], stride: int, points: int) -> NDArray[np.floating]:
    """Linear interpolation of coarse-node columns onto every grid point.

    Past the last coarse node the columns fall linearly to the coarse
    Dirichlet ghost, one coarse spacing further out.  Each column is
    contiguous, so the fine-grid steps run along the grid.
    """
    t = np.arange(stride) / stride
    padded = np.hstack([coarse.T, np.zeros((coarse.shape[1], 1))])
    ends = np.stack([padded[:, :-1], padded[:, 1:]], axis=-1)
    fine = ends @ np.stack([1.0 - t, t])  # (columns, coarse nodes, stride)
    return fine.reshape(coarse.shape[1], -1)[:, :points].T


def solve_effective_potential(
    v_eff: NDArray[np.floating], grid: GridSpec, count: int
) -> Tuple[NDArray[np.floating], NDArray[np.floating]]:
    """Lowest eigenpairs of -u'' + (v_eff - 1/(4 rho^2)) u = E u, Dirichlet.

    v_eff holds the channel potential sampled on grid.rhos(); the centrifugal
    reduction term from the R -> u substitution is carried implicitly by the
    flux-form couplings (see the module docstring).  Returns (eigenvalues,
    eigenvectors) with eigenvectors in columns, in the scaled variable u:
    unit columns from the refined start, orthonormal ones from bisection.
    """
    count = require_integer(count, "count must be an integer")
    if count < 1:
        raise ParameterError("need at least one eigenvalue")
    if count > grid.points - 2:
        raise ParameterError(
            f"count {count} exceeds the {grid.points - 2} resolvable states"
        )
    v_eff = np.asarray(v_eff, dtype=float)
    if v_eff.shape != (grid.points,) or not np.all(np.isfinite(v_eff)):
        raise ParameterError("v_eff must be finite and sampled on the grid")
    diag, off = channel_matrix(v_eff, grid)
    stride = grid.points // COARSE_POINTS
    if stride > 1 and count <= COARSE_POINTS - 2:  # the subgrid has >= COARSE_POINTS nodes
        coarse_vals, coarse_vecs = _bisect(
            *channel_matrix(v_eff, grid, stride), count, ISOLATION_TOL)
        x = _shifted_solves(
            diag, off, _prolong(coarse_vecs, stride, grid.points), coarse_vals)
        work = _times(diag, off, x, np.empty_like(x))  # T x of each round
        quotients = np.einsum("ij,ij->j", x, work) / np.einsum("ij,ij->j", x, x)
        x = _shifted_solves(diag, off, x, quotients)
        gate = RITZ_RESIDUAL_ULPS * np.finfo(float).eps * (
            np.max(np.abs(diag)) + 2 * np.max(np.abs(off)))
        # an overflowed column reads nan here, and nan fails every test below
        with np.errstate(over="ignore", invalid="ignore"):
            squares = np.einsum("ij,ij->j", x, x)
            vals = np.einsum("ij,ij->j", x, _times(diag, off, x, work)) / squares
            work -= x * vals  # now the residuals
            residuals = np.sqrt(np.einsum("ij,ij->j", work, work) / squares)
            # disjoint intervals hold distinct levels (Parlett, The Symmetric
            # Eigenvalue Problem, ch. 4), and the Sturm count the lowest ones
            lows, tops = vals - residuals - gate, vals + residuals + gate
            if (np.all(residuals <= gate) and np.all(tops[:-1] < lows[1:])
                    and _count_at_most(diag, off, tops[-1]) == count):
                x /= np.sqrt(squares)  # unit columns
                return vals, x
    return lowest_eigenpairs(diag, off, count)


def radial_eigensolve(
    config: ModelConfig,
    l: int,
    sigma: int,
    grid: GridSpec,
    count: int,
) -> List[float]:
    """Lowest `count` dimensionless channel energies of the configuration.

    l and sigma follow BlockSpec's rule: integers (not bools), sigma +1 or
    -1, else ParameterError.  Warns when the lowest requested eigenfunction
    still has noticeable amplitude at the outer wall, which means rho_max
    truncates the state and the eigenvalue carries box error beyond the h^2
    discretization error.
    """
    l = require_integer(l, "l must be an integer")
    if require_integer(sigma, "sigma must be +1 or -1") not in (-1, +1):
        raise ParameterError("sigma must be +1 or -1")
    r = grid.rhos()
    v = effective_potential(config, l, sigma, r)
    vals, vecs = solve_effective_potential(v, grid, count)
    # the columns above it may be box levels, which touch the wall
    edge = abs(vecs[-1, 0])
    peak = np.max(np.abs(vecs[:, 0]))
    if peak > 0 and edge / peak > BOX_AMPLITUDE_TOL:
        warnings.warn(
            f"eigenfunction amplitude {edge / peak:.2e} at rho_max = "
            f"{grid.rho_max}; enlarge the box",
            RuntimeWarning,
            stacklevel=2,
        )
    return [float(v) for v in vals]


@dataclass(frozen=True)
class MatchReport:
    """Index matching of analytic levels against a numeric spectrum."""

    pairs: Tuple[Tuple[float, float, float], ...]  # (analytic, numeric, error)
    unmatched: Tuple[float, ...]
    tol: float

    @property
    def passed(self) -> bool:
        return not self.unmatched

    @property
    def max_error(self) -> float:
        return max((err for _, _, err in self.pairs), default=0.0)


def compare_spectra(
    analytic: Sequence[float],
    numeric: Sequence[float],
    tol: float = 1e-3,
) -> MatchReport:
    """Pair the i-th lowest analytic level with the i-th lowest numeric one.

    The error metric is |a - v| / max(1, |a|): relative for energies of
    magnitude above one, absolute below.  A level with no numeric partner,
    or one outside tol, lands in unmatched; numeric levels above the
    analytic ones are not read.
    """
    levels = sorted(float(v) for v in numeric)
    pairs = []
    unmatched = []
    for i, a in enumerate(sorted(float(x) for x in analytic)):
        err = abs(levels[i] - a) / max(1.0, abs(a)) if i < len(levels) else math.inf
        if err <= tol:
            pairs.append((a, levels[i], err))
        else:
            unmatched.append(a)
    return MatchReport(pairs=tuple(pairs), unmatched=tuple(unmatched), tol=tol)
