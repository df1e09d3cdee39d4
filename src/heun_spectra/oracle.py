"""Independent check of the analytic spectra on a Lagrange-Jacobi mesh.

Each channel is the radial problem -(1/rho) (rho R')' + V_eff R = E R on the
box [0, rho_max], regular at the axis and with a Dirichlet wall at rho_max.
Near the axis V_eff = mu^2 / rho^2 + W with W bounded, mu = sigma |l| for
model 1 and mu = sigma |l| + k for model 2.  W is written without the
1/rho^2 terms that cancel against the barrier, so it stays accurate at the
axis.

The state is written R = rho^mu_c g with mu_c = min(|mu|, AXIS_POWER_CAP).
After an integration by parts the quadratic form reads

    int rho^(2 mu_c + 1) [ g'^2 + ((mu^2 - mu_c^2) / rho^2 + W) g^2 ] d rho,

so the rest of the barrier stays in the potential.  Factoring out all of
rho^|mu| also reproduces the free-disk levels, but to 1e-13 where the
capped factor gets 1e-14 to 1e-15 at |mu| = 40-400, and rho^|mu| overflows
at |mu| = 400.

With t = 2 rho / rho_max - 1 the basis is (1 - t) L_i(t), L_i the Lagrange
polynomials on the N Gauss-Jacobi nodes t_i of weight
(1 - t)^2 (1 + t)^(2 mu_c + 1), scaled to unit norm by the Gauss weights
lambda_i (Baye, "The Lagrange-mesh method", Phys. Rep. 565, 2015).  This is
a discrete variable representation: the Gauss rule makes the overlap the
identity and the potential the diagonal (mu^2 - mu_c^2) / rho_i^2 + W(rho_i),
and the kinetic matrix, a polynomial integral of degree 2N - 2 under the
weight (1 + t)^(2 mu_c + 1), is exact with the N-node rule of that weight.
The nodes are the eigenvalues of the Jacobi matrix, the weights come from
the Christoffel function 1 / sum_k p_k(t_i)^2 of the orthonormal
polynomials, and the derivatives of L_i from the barycentric formula.  The
kinetic matrix does not depend on rho_max, so it is built once per (N, mu_c).

The levels converge spectrally in N.  radial_eigensolve accepts them when
two consecutive MESH_SIZES agree to MESH_RTOL, and raises PrecisionError
when none do; no size or scale is taken from the analytic roots.  Nothing
here touches the Heun machinery, so agreement with the roots is a genuine
cross-check.

Each block's bound states are the lowest levels of their channel (Sturm
oscillation), so compare_spectra pairs the i-th analytic level with the
i-th numeric one.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from .errors import ParameterError, PrecisionError, require_integer
from .families import Example, ModelConfig

BOX_AMPLITUDE_TOL = 1e-6
AXIS_POWER_CAP = 4  # largest power of rho factored out of R at the axis
MESH_SIZES = (120, 180, 270, 400)  # mesh points; each solve is checked by the next
MESH_RTOL = 1e-9  # two sizes must agree to this, relative above |E| = 1


@dataclass(frozen=True)
class GridSpec:
    """The channel's box (rho_min, rho_max, points).

    The mesh reads only rho_max; rho_min and points are validated but unused.
    """

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


def _axis_power(config: ModelConfig, l: int, sigma: int) -> int:
    """mu of the channel, after BlockSpec's rule for l and sigma: R ~ rho^|mu|
    at the axis."""
    m = sigma * abs(require_integer(l, "l must be an integer"))
    if require_integer(sigma, "sigma must be +1 or -1") not in (-1, +1):
        raise ParameterError("sigma must be +1 or -1")
    return m if config.example is Example.REPULSIVE_POLYNOMIAL else m + config.k


def _regular_potential(
    config: ModelConfig, m: int, r: NDArray[np.floating]
) -> NDArray[np.floating]:
    """W = V_eff - mu^2 / rho^2 for m = sigma |l|, with no 1/rho^2 term."""
    r2 = r * r
    k, eps = config.k, config.epsilon
    if config.example is Example.REPULSIVE_POLYNOMIAL:
        # (m / rho - A_phi)^2 + u with A_phi = rho (eps + 3 rho^2) / 2
        return 0.25 * r2 * (eps + r2) ** 2 - m * (eps + 3.0 * r2) - 2.0 * k * r2
    # (m + k s)^2 / rho^2 - (m + k)^2 / rho^2 with s = 1 / sqrt(rho^2 + 1),
    # and s - 1 = -rho^2 s / (1 + sqrt(rho^2 + 1))
    root = np.sqrt(r2 + 1.0)
    s = 1.0 / root
    w = s * s
    return -k * s * (2 * m + k * (1.0 + s)) / (1.0 + root) + 0.25 * (3.0 * w * w - eps * w)


def _eigen(solver: Callable, matrix: NDArray[np.floating]):
    try:
        return solver(matrix)
    except np.linalg.LinAlgError as exc:
        raise PrecisionError(f"mesh eigensolver failed: {exc}") from exc


def _gauss_jacobi(
    size: int, alpha: int, beta: int
) -> Tuple[NDArray[np.floating], NDArray[np.floating]]:
    """Nodes and weights of the size-point Gauss rule of (1 - t)^alpha (1 + t)^beta."""
    j = np.arange(size, dtype=float)
    s = 2 * j + alpha + beta
    diag = (beta * beta - alpha * alpha) / (s * (s + 2))
    j, s = j[1:], s[1:]
    off = np.sqrt(4 * j * (j + alpha) * (j + beta) * (j + alpha + beta)
                  / (s * s * (s + 1) * (s - 1)))
    nodes = _eigen(np.linalg.eigvalsh, np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mass = math.exp((alpha + beta + 1) * math.log(2.0) + math.lgamma(alpha + 1)
                    + math.lgamma(beta + 1) - math.lgamma(alpha + beta + 2))
    # orthonormal polynomials at the nodes, by their three-term recurrence
    before, p = np.zeros(size), np.full(size, 1.0 / math.sqrt(mass))
    christoffel = p * p
    for i in range(size - 1):
        before, p = p, ((nodes - diag[i]) * p - (off[i - 1] * before if i else 0.0)) / off[i]
        christoffel += p * p
    return nodes, 1.0 / christoffel


@functools.lru_cache(maxsize=32)  # every MESH_SIZES and mu_c
def _mesh_basis(
    size: int, mu_c: int
) -> Tuple[NDArray[np.floating], NDArray[np.floating], NDArray[np.floating]]:
    """Nodes t_i, Gauss weights lambda_i and the kinetic matrix in t of the
    orthonormal basis (1 - t) L_i(t) / sqrt(lambda_i)."""
    beta = 2 * mu_c + 1
    t, lam = _gauss_jacobi(size, 2, beta)
    s, w = _gauss_jacobi(size, 0, beta)  # exact for the kinetic integrand
    gaps = s - t[:, None]  # (basis i, node m)
    spread = t[:, None] - t
    np.fill_diagonal(spread, 1.0)
    lagrange = np.prod(gaps, axis=0) / (np.prod(spread, axis=1)[:, None] * gaps)
    slopes = lagrange * (np.sum(1.0 / gaps, axis=0) - 1.0 / gaps)
    derivative = ((1.0 - s) * slopes - lagrange) / np.sqrt(lam)[:, None]
    kinetic = (derivative * w) @ derivative.T
    kinetic = 0.5 * (kinetic + kinetic.T)
    for shared in (t, lam, kinetic):  # every caller gets these same arrays
        shared.setflags(write=False)
    return t, lam, kinetic


def _mesh_matrix(
    config: ModelConfig, l: int, sigma: int, rho_max: float, size: int
) -> Tuple[NDArray[np.floating], NDArray[np.floating]]:
    """The channel's mesh Hamiltonian, and the factor that turns an
    eigenvector into R at the nodes."""
    mu = _axis_power(config, l, sigma)
    mu_c = min(abs(mu), AXIS_POWER_CAP)
    t, lam, kinetic = _mesh_basis(size, mu_c)
    half = 0.5 * rho_max
    rho = half * (1.0 + t)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        potential = ((mu * mu - mu_c * mu_c) / (rho * rho)
                     + _regular_potential(config, sigma * abs(l), rho))
    if not np.all(np.isfinite(potential)):
        raise ParameterError("the channel potential is not finite on the mesh")
    matrix = kinetic / (half * half)
    matrix[np.diag_indices(size)] += potential
    return matrix, rho ** mu_c * (1.0 - t) / np.sqrt(lam)


def mesh_levels(
    config: ModelConfig, l: int, sigma: int, grid: GridSpec, size: int
) -> NDArray[np.floating]:
    """All size levels of the channel on one mesh of the box [0, grid.rho_max],
    in increasing order; the lowest converge first.  l and sigma follow
    BlockSpec's rule."""
    size = require_integer(size, "size must be an integer")
    if not 1 <= size <= MESH_SIZES[-1]:
        raise ParameterError(f"size must lie between 1 and {MESH_SIZES[-1]}, not {size}")
    return _eigen(np.linalg.eigvalsh, _mesh_matrix(config, l, sigma, grid.rho_max, size)[0])


def radial_eigensolve(
    config: ModelConfig,
    l: int,
    sigma: int,
    grid: GridSpec,
    count: int,
) -> List[float]:
    """Lowest `count` dimensionless channel energies in the box [0, grid.rho_max].

    l and sigma follow BlockSpec's rule: integers (not bools), sigma +1 or
    -1, else ParameterError.  count may not exceed the smallest mesh size.
    The levels of the first mesh size that agrees with the one before it to
    MESH_RTOL are returned; PrecisionError when no size does.  Warns when
    the lowest level's R at the outermost node is more than
    BOX_AMPLITUDE_TOL of its largest value at the nodes, which means
    rho_max truncates the state and the level carries box error.  Only the
    lowest level is tested: an upper bound level that the wall truncates
    passes silently (model 2 n = 4, eps = 150 is 5.6e-5 off its root at
    rho_max = 20, and matches to 3.2e-12 at rho_max = 40).
    """
    count = require_integer(count, "count must be an integer")
    if not 1 <= count <= MESH_SIZES[0]:
        raise ParameterError(
            f"count must lie between 1 and the {MESH_SIZES[0]} levels of the "
            f"smallest mesh, not {count}")
    matrix, to_r = _mesh_matrix(config, l, sigma, grid.rho_max, MESH_SIZES[0])
    levels, vectors = _eigen(np.linalg.eigh, matrix)
    r = np.abs(vectors[:, 0] * to_r)  # the levels above it may be box levels
    if r[-1] > BOX_AMPLITUDE_TOL * np.max(r):
        warnings.warn(
            f"eigenfunction amplitude {r[-1] / np.max(r):.2e} at rho_max = "
            f"{grid.rho_max}; enlarge the box",
            RuntimeWarning,
            stacklevel=2,
        )
    levels = levels[:count]
    for size in MESH_SIZES[1:]:
        finer = mesh_levels(config, l, sigma, grid, size)[:count]
        gap = float(np.max(np.abs(levels - finer) / np.maximum(1.0, np.abs(finer))))
        if gap <= MESH_RTOL:
            return [float(v) for v in finer]
        levels = finer
    raise PrecisionError(
        f"mesh levels of channel l = {l}, sigma = {sigma} still differ by "
        f"{gap:.1e} between {MESH_SIZES[-2]} and {MESH_SIZES[-1]} points")


@dataclass(frozen=True)
class MatchReport:
    """Index matching of analytic levels against a numeric spectrum."""

    pairs: Tuple[Tuple[float, float, float], ...]  # (analytic, numeric, error)
    unmatched: Tuple[float, ...]

    @property
    def passed(self) -> bool:
        return not self.unmatched

    @property
    def max_error(self) -> float:
        return max((err for _, _, err in self.pairs), default=0.0)


def compare_spectra(
    analytic: Sequence[float],
    numeric: Sequence[float],
    tol: float,
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
    return MatchReport(pairs=tuple(pairs), unmatched=tuple(unmatched))
