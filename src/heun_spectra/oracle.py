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

Sturm bisection (LAPACK dstebz) only isolates the lowest levels, to width
ISOLATION_TOL; inverse iteration (dstein) and Rayleigh-Ritz on its vectors refine
them to a few ulps of ||T||, which reaches 1e8 near the axis.  Nothing here
touches the Heun machinery, so agreement with the roots is a genuine cross-check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from .errors import ParameterError, PrecisionError
from .models import ModelConfig, effective_potential

BOX_AMPLITUDE_TOL = 1e-6
ISOLATION_TOL = 1e-3  # bisection interval width; Rayleigh-Ritz refines past it
RITZ_RESIDUAL_ULPS = 1e3  # gate on ||T x - theta x||, so theta is this near a level


@dataclass(frozen=True)
class GridSpec:
    """Uniform radial grid (rho_min, rho_max, interior point count)."""

    rho_min: float
    rho_max: float
    points: int

    def __post_init__(self) -> None:
        if not (0 < self.rho_min < self.rho_max):
            raise ParameterError("grid needs 0 < rho_min < rho_max")
        if self.points < 100:
            raise ParameterError("grid needs at least 100 points")

    @property
    def h(self) -> float:
        return (self.rho_max - self.rho_min) / (self.points - 1)

    def rhos(self) -> NDArray[np.floating]:
        return np.linspace(self.rho_min, self.rho_max, self.points)


def lowest_eigenpairs(
    diag: NDArray[np.floating], off: NDArray[np.floating], count: int
) -> Tuple[NDArray[np.floating], NDArray[np.floating]]:
    """Lowest `count` eigenpairs of the symmetric tridiagonal T = (diag, off)."""
    # Imported here so that importing the package loads no scipy.
    from scipy.linalg import eigh, lapack

    # range 2 selects levels 1..count; dstein then treats T as one block
    m, shifts, *_, info = lapack.dstebz(diag, off, 2, 0, 0, 1, count, ISOLATION_TOL, "E")
    block, split = np.ones(diag.size, np.int32), np.full(diag.size, diag.size, np.int32)
    norm = np.max(np.abs(diag)) + 2 * np.max(np.abs(off))
    for _ in range(3):  # a round that misses the gate reshifts at its Ritz values
        if info == 0:
            basis, info = lapack.dstein(diag, off, shifts[:m], block, split)
        if info != 0:
            raise PrecisionError(f"LAPACK dstebz/dstein failed (info = {info})")
        tv = diag[:, None] * basis
        tv[1:] += off[:, None] * basis[:-1]
        tv[:-1] += off[:, None] * basis[1:]
        shifts, rotation = eigh(basis.T @ tv, basis.T @ basis)
        vecs, tv = basis @ rotation, tv @ rotation
        tv -= vecs * shifts  # now the Ritz residuals
        residual = np.max(np.linalg.norm(tv, axis=0))
        if residual <= RITZ_RESIDUAL_ULPS * np.finfo(float).eps * norm:
            return shifts, vecs
    raise PrecisionError(f"Ritz residual {residual:.2e} > {RITZ_RESIDUAL_ULPS:g} ulps of ||T||")


def solve_effective_potential(
    v_eff: NDArray[np.floating], grid: GridSpec, count: int
) -> Tuple[NDArray[np.floating], NDArray[np.floating]]:
    """Lowest eigenpairs of -u'' + (v_eff - 1/(4 rho^2)) u = E u, Dirichlet.

    v_eff holds the channel potential sampled on grid.rhos(); the centrifugal
    reduction term from the R -> u substitution is carried implicitly by the
    flux-form couplings (see the module docstring).  Returns (eigenvalues,
    eigenvectors) with eigenvectors in columns, in the scaled variable u.
    """
    if count < 1:
        raise ParameterError("need at least one eigenvalue")
    if count > grid.points - 2:
        raise ParameterError(
            f"count {count} exceeds the {grid.points - 2} resolvable states"
        )
    r = grid.rhos()
    if v_eff.shape != r.shape or not np.all(np.isfinite(v_eff)):
        raise ParameterError("v_eff must be finite and sampled on the grid")
    h = grid.h
    outer = r + 0.5 * h
    inner = np.maximum(r - 0.5 * h, 0.0)
    if grid.rho_min <= h * (1.0 + 1e-9):
        inner[0] = 0.0
    diag = (inner + outer) / (r * h * h) + v_eff
    off = -outer[:-1] / (h * h * np.sqrt(r[:-1] * r[1:]))
    return lowest_eigenpairs(diag, off, count)


def radial_eigensolve(
    config: ModelConfig,
    l: int,
    sigma: int,
    grid: GridSpec,
    count: int,
) -> List[float]:
    """Lowest `count` dimensionless channel energies of the configuration.

    Warns when the lowest requested eigenfunction still has noticeable
    amplitude at the outer wall, which means rho_max truncates the state and
    the eigenvalue carries box error beyond the h^2 discretization error.
    """
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
    """Greedy nearest matching of analytic levels against a numeric spectrum."""

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
    """Match each analytic level to its nearest unused numeric level.

    The error metric is |a - v| / max(1, |a|): relative for energies of
    magnitude above one, absolute below.  A level with no numeric partner
    within tol lands in unmatched.
    """
    pool = [float(v) for v in numeric]
    pairs = []
    unmatched = []
    for a in sorted(float(x) for x in analytic):
        if not pool:
            unmatched.append(a)
            continue
        idx = min(range(len(pool)), key=lambda i: abs(pool[i] - a))
        err = abs(pool[idx] - a) / max(1.0, abs(a))
        if err <= tol:
            pairs.append((a, pool.pop(idx), err))
        else:
            unmatched.append(a)
    return MatchReport(pairs=tuple(pairs), unmatched=tuple(unmatched), tol=tol)
