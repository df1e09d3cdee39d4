"""The two integrable planar magnetic systems and their bound-state pipeline.

Both models are radially symmetric two-dimensional Schrodinger problems with
an azimuthal vector potential A_phi(rho) and a scalar potential u(rho), in
dimensionless variables (lengths in units of the scale a, energies in units
of hbar^2 / (2 m a^2), vector potential in c hbar / (e a)).  A state
psi = exp(i sigma |l| phi) R(rho) satisfies the radial equation

    -R'' - R'/rho + [ (sigma |l| / rho - A_phi)^2 + u ] R = E R .

Model 1 ("repulsive polynomial"):

    A_phi = rho (eps + 3 rho^2) / 2
    u     = -(2 rho^6 + eps rho^4 + 2 k rho^2)
    B     = eps + 6 rho^2,  E = lambda

with two solvable families, whose rules ``families._RULES`` holds: case (a)
uses exp(+i l phi) with l = n + 1 - k >= 0 and sigma = +1; case (b) uses
exp(-i l phi) with 2l = k - n - 1 a non-negative even integer and sigma = -1.
The radial factor is exp(-rho^4/8 - eps rho^2/4) rho^l P_n(rho^2 / 2), with
P_n a biconfluent Heun polynomial.  The case b block (k, n, eps) is the case a
block (n + 1 - l, n, eps) of the same l with every lambda raised by 2 l eps:
their channel potentials differ by the constant 2 l eps.

Model 2 ("non-rational field"):

    A_phi = -k / (rho sqrt(rho^2 + 1))
    u     = (3 (rho^2+1)^-2 - eps (rho^2+1)^-1) / 4
    B     = k (rho^2 + 1)^(-3/2),  total flux 2 pi k,  E = -chi^2

solvable in the variable t = (1 + sqrt(rho^2 + 1)) / 2 with radial factor
sqrt(2t-1) t^(sigma (k-l)/2) (t-1)^((k+l)/2) exp(2 chi t) P_n(t), P_n a confluent
Heun polynomial; bound states require chi < 0.  The first family has
k <= -1 and n = -k - 1, l >= -k and sigma = +1 (the ladder l = -k, -k+1,
...); the second has k >= 1 and l = -n - 1 with 0 <= n <= k - 1 and
sigma = -1.  The first block (k = -(n+1), l, eps) is the second block
(k = l, n, eps - 4(l^2 - (n+1)^2)): the eps shift cancels the difference
(l^2 - (n+1)^2) / (rho^2 + 1) of their channel potentials.

``block_recurrence`` states each model's recurrence once, with these shifts.
The eigenvalue enters the recurrence sequences polynomially, so each block's
spectrum is the root set of a determinant polynomial of degree n+1 (model 1)
or 2(n+1) (model 2), found as the eigenvalues of a structured matrix.
There are two ways to solve: ``solve_record`` solves the blocks of a query
into one ``SpectrumRecord`` of arrays, and ``solve_block`` returns one
block's roots as ``SpectralRoot`` objects built from that record.  Roots
are classified and ordered here, and certified by ``spectral.null_vectors``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.typing import NDArray

from . import families, spectral
from .errors import ParameterError, PrecisionError, SelectionError
from .families import BlockSpec, Example, ModelConfig
from .heun_core import PolynomialCoefficients, SPoly, horner

# The families' rules need no numpy, so they live in ``families``; models
# re-exports them with the types imported above.
MAX_DEGREE, VARIANTS = families.MAX_DEGREE, families.VARIANTS
make_block, permissible_blocks = families.make_block, families.permissible_blocks

ArrayF = NDArray[np.floating]

REALITY_TOL = 1e-9
PHYSICAL_NEG_TOL = 1e-9
# Degree past which the earlier expanded-determinant solver switched to
# 128-bit root finding and slowed by three orders of magnitude.  Nothing
# here branches on it; it marks the old cliff that the benchmark's
# high-degree workload is defined against.
HIGH_DEGREE_THRESHOLD = 20


@dataclass(frozen=True)
class SpectralRoot:
    """One determinant root: spectral value, energy, physicality, residual.

    value is the spectral parameter (lambda for model 1, chi for model 2);
    complex only for non-real unphysical roots.  energy is None when the
    root is not real.  For physical roots eigenvector holds the recurrence
    null vector (p_0 = 1) of ``spectral.null_vectors``, forward or twisted,
    and residual its terminal residual.  For the rest residual is the
    relative Newton correction |D/D'| / max(1, |value|) of the continuant D
    at the root: an estimate of the root's error, not a bound.
    """

    value: Union[float, complex]
    energy: Optional[float]
    physical: bool
    residual: float
    eigenvector: Optional[PolynomialCoefficients] = None
    borderline: bool = False


@dataclass(frozen=True)
class BlockResult:
    """Solved block: every root (physical and filtered) plus solve metadata."""

    block: BlockSpec
    roots: Tuple[SpectralRoot, ...]
    precision_bits: int


@dataclass(frozen=True)
class SpectrumRecord:
    """The solved blocks of one query as arrays, roots in printed order.

    The roots of blocks[t] are rows bounds[t]:bounds[t+1] of each array:
    the real roots by ascending energy, then the others by real and
    imaginary part.  The columns hold what each ``SpectralRoot`` of
    ``solve_block`` holds, in that order: value (complex), real
    (whether the root counts as real, so that value.real is its value),
    energy (NaN where not real), the physical and borderline flags, and
    residual; coeffs[i, :n+1] is the null vector p_0..p_n of a physical
    root of a degree-n block.  The rest of the row is padding, which is not
    zero in general: it holds the kernel's run past row n.
    """

    blocks: Tuple[BlockSpec, ...]
    bounds: Tuple[int, ...]
    value: NDArray[np.complexfloating]
    real: NDArray[np.bool_]
    energy: ArrayF
    physical: NDArray[np.bool_]
    borderline: NDArray[np.bool_]
    residual: ArrayF
    coeffs: ArrayF


@dataclass(frozen=True)
class RadialProfile:
    """Wavefunction samples along a radial ray with the state's radial norm."""

    grid: ArrayF
    values: NDArray[np.complexfloating]
    norm: float


# ---------------------------------------------------------------------------
# sequences and spectra


def block_recurrence(config: ModelConfig, block: BlockSpec) -> spectral.Recurrence:
    """The block's quantization sequences as coefficient arrays of floats.

    One closed form per model, in the block's (n, l, sigma).  Model 1:

        a_j = lambda - eps (2j + 1 + (1 - sigma) l),
        b_j = 2 (j (j + l + 2) + l + 1),  c_j = 4 (n - j),

    so k drops out and a case b block is the case a block of the same
    (n, l) with its diagonal lowered by 2 l eps.  Model 2, with (m, B, s) =
    (l, l^2 - n^2 - n, -1) for the first family and (k, n, 3) for the second:

        a_j = chi^2 + 2 (2j - n - m) chi + B - j (j - 2n - 1) + (s - eps) / 4,
        b_j = (j + 1)(j - n - m),  c_j = 4 (n - j) chi.

    The determinant degrees are n+1 and 2(n+1).  The arrays are a of shape
    (n+1, 2) or (n+1, 3), b (n, 1), and c (n, 1) or (n, 2); each integer
    part is one integer expression, so it is exact.  Raises ParameterError
    when epsilon overflows an entry.  This is
    ``block_recurrences(config, [block])[0]``.
    """
    return block_recurrences(config, [block])[0]


def block_recurrences(
    config: ModelConfig, blocks: Sequence[BlockSpec]
) -> List[spectral.Recurrence]:
    """``[block_recurrence(config, b) for b in blocks]``, built in one pass.

    The closed forms run once over the rows (j, n, l, sigma) of all blocks
    stacked, with the integer and float operations of each block alone.
    a, b and c are computed on every row; a block of rows lo..hi-1 takes
    a[lo:hi] and the views b[lo:hi-1] and c[lo:hi-1], dropping the b and c
    of its last row.  Every block is checked against the family's rule
    before any is built: the first that breaks it raises ParameterError,
    and otherwise the first whose entries epsilon overflows.
    """
    blocks = list(blocks)
    table = [(block.n, block.l, block.sigma) for block in blocks]
    for block, row in zip(blocks, table):
        if families._family_block(config, block.n, block.l) != row:
            raise ParameterError(
                f"block {block} is not permissible: case {config.variant} "
                f"requires {families._RULES[config.variant]}"
            )
    if not blocks:
        return []
    sizes = np.array([block.n + 1 for block in blocks], dtype=np.intp)
    owner = np.repeat(np.arange(len(blocks)), sizes)
    ends = np.cumsum(sizes)
    # each block's exact Python integers, one int64 row per recurrence row
    n, l, sigma = np.array(table, dtype=np.int64)[owner].T
    e = config.epsilon
    j = np.arange(len(owner)) - np.repeat(ends - sizes, sizes)
    if config.example is Example.REPULSIVE_POLYNOMIAL:
        # a huge epsilon overflows silently, as Python floats do, and is
        # rejected below
        with np.errstate(over="ignore"):
            beta = -e * (2 * j + 1 + (1 - sigma) * l)
        b = 2 * (j * (j + l + 2) + l + 1)
        a = np.stack([beta, np.ones(len(j))], axis=1)
        c = 4.0 * (n - j)[:, None]
    else:
        first = sigma > 0
        m = np.where(first, l, config.k)
        base = np.where(first, l * l - n * n - n, n)
        beta = (base - j * (j - 2 * n - 1)) + 0.25 * (np.where(first, -1, 3) - e)
        alpha = 2 * (2 * j - n - m)
        b = (j + 1) * (j - n - m)
        a = np.stack([beta, alpha, np.ones(len(j))], axis=1)
        c = np.stack([np.zeros(len(j)), 4 * (n - j)], axis=1)
    overflowed = ~np.isfinite(a).all(axis=1)
    if overflowed.any():
        block = blocks[owner[np.argmax(overflowed)]]
        raise ParameterError(
            f"epsilon = {config.epsilon!r} overflows the recurrence of block {block}"
        )
    b = b[:, None].astype(float)
    return [
        spectral.Recurrence(a[lo:hi], b[lo:hi - 1], c[lo:hi - 1])
        for lo, hi in zip((ends - sizes).tolist(), ends.tolist())
    ]


def block_sequences(
    config: ModelConfig, block: BlockSpec, precision: Optional[int] = None
) -> spectral.Recurrence:
    """``block_recurrence``'s arrays viewed as ``SPoly``, so that each row
    also reads as a ``coeffs`` tuple, for callers that read single entries'
    coefficients (the benchmark's reference solver).  precision, when
    given, converts each float exactly to an mpmath number, for arithmetic
    at the caller's working precision (53 bits or more); it needs mpmath,
    which is installed with the ``test`` extra."""
    arrays = block_recurrence(config, block)
    if precision is not None:
        import mpmath

        arrays = map(np.frompyfunc(mpmath.mpf, 1, 1), arrays)
    return spectral.Recurrence(*(m.view(SPoly) for m in arrays))


def solve_block(
    config: ModelConfig, block: BlockSpec, precision: Optional[int] = None
) -> BlockResult:
    """Solve one block as a structured eigenproblem in double precision.

    Model 1 roots are the eigenvalues of a symmetric tridiagonal matrix
    (``numpy.linalg.eigvalsh`` on the dense matrix); model 2 roots are the
    eigenvalues of the companion linearization of its quadratic pencil,
    Newton-polished on the continuant.  Roots are then classified by
    REALITY_TOL and PHYSICAL_NEG_TOL.  A physical root without a certified
    null vector (``spectral.null_vectors``) raises PrecisionError, as does a
    failing eigensolver.  All runs in double precision (precision_bits 53);
    the roots are the objects of ``solve_record(config, [block])``, and
    precision is accepted and ignored, for callers that still pass it.
    """
    record = _solve(config, [block])
    roots = tuple(
        SpectralRoot(
            value=value.real if real else value,
            energy=energy if real else None,
            physical=physical,
            residual=residual,
            eigenvector=(PolynomialCoefficients(tuple(coeffs), residual)
                         if physical else None),
            borderline=borderline,
        )
        for value, real, energy, physical, borderline, residual, coeffs in zip(
            record.value.tolist(), record.real.tolist(), record.energy.tolist(),
            record.physical.tolist(), record.borderline.tolist(),
            record.residual.tolist(), record.coeffs.tolist())
    )
    return BlockResult(block=block, roots=roots, precision_bits=53)


def solve_record(config: ModelConfig, blocks: Sequence[BlockSpec]) -> SpectrumRecord:
    """Solve blocks of one configuration into one ``SpectrumRecord``.

    The block recurrences come from one ``block_recurrences`` pass.  Each
    block has its own eigensolve; then all model 2 roots take one ragged
    Newton polish and all physical roots one null-vector stage
    (``spectral.ragged_polish``, ``spectral.null_vectors``).  Roots are
    classified and ordered as arrays, and each gets the bits it gets in a
    block of its own.  A query fails as a whole: each
    stage checks every block and raises its first error, in block order.
    Warnings come at the caller's line.
    """
    return _solve(config, list(blocks))


def _solve(config: ModelConfig, blocks: List[BlockSpec]) -> SpectrumRecord:
    """The record of ``solve_record``, for it and ``solve_block``: both call
    it directly, so a warning's stacklevel reaches their caller."""
    recs = block_recurrences(config, blocks)
    is_model_1 = config.example is Example.REPULSIVE_POLYNOMIAL
    eigensolve = (
        spectral.symmetric_eigenvalues if is_model_1 else spectral.companion_eigenvalues
    )
    values = []
    for block, rec in zip(blocks, recs):
        try:
            values.append(eigensolve(rec))
        except np.linalg.LinAlgError as exc:
            raise PrecisionError(f"eigensolver failed on block {block}: {exc}") from exc
    owner = np.repeat(np.arange(len(values)), [len(v) for v in values])
    roots = np.concatenate(values).astype(complex) if values else np.zeros(0, complex)
    if is_model_1 or not values:
        steps = np.zeros_like(roots)
    else:
        roots, steps = spectral.ragged_polish(recs, roots, owner)
    return _classified(config, blocks, recs, owner, roots, steps)


def _classified(config, blocks, recs, owner, roots, steps) -> SpectrumRecord:
    """Classify the roots, take the null vectors, and order each block's roots.

    Every borderline root warns; then the first physical root, in block
    order, without a certified null vector raises PrecisionError.
    """
    is_model_1 = config.example is Example.REPULSIVE_POLYNOMIAL
    # Python's complex abs, which np.hypot gives and np.abs misses in the last bit
    scales = np.fmax(1.0, np.hypot(roots.real, roots.imag))
    real = np.abs(roots.imag) <= REALITY_TOL * scales
    physical = real if is_model_1 else real & (roots.real < -PHYSICAL_NEG_TOL)
    borderline = real & ~physical & (roots.real < 0.0)
    residual = np.hypot(steps.real, steps.imag) / scales
    coeffs = np.zeros((len(roots), max((rec.size for rec in recs), default=1)))
    at, certified = np.flatnonzero(physical), np.ones(0, dtype=bool)
    if len(at):
        coeffs[at], forward, residual[at], certified = spectral.null_vectors(
            recs, roots.real[at], owner[at])
    for x in roots.real[borderline].tolist():
        # at the caller of solve_block or solve_record
        warnings.warn(
            f"root chi = {x:.3e} sits within {PHYSICAL_NEG_TOL:.0e} "
            "of zero; treated as unphysical borderline",
            RuntimeWarning,
            stacklevel=4,
        )
    if not certified.all():
        first = int(np.argmin(certified))
        i = at[first]
        raise PrecisionError(
            f"root {roots.real[i].item()!r} of block {blocks[owner[i]]} misses the "
            f"terminal-residual target {spectral.RESIDUAL_TARGET:.0e}: "
            f"{forward[first]:.3e} forward, {residual[i]:.3e} twisted"
        )
    energy = np.full(len(roots), np.nan)
    # E = -chi^2 by Python's float power, whose last bit numpy's square can miss
    energy[real] = (roots.real[real] if is_model_1
                    else [-(x**2) for x in roots.real[real].tolist()])
    order = np.lexsort((np.where(real, 0.0, roots.imag),
                        np.where(real, energy, roots.real), ~real, owner))
    return SpectrumRecord(
        blocks=tuple(blocks),
        bounds=tuple(np.searchsorted(owner, np.arange(len(blocks) + 1)).tolist()),
        value=roots[order],
        real=real[order],
        energy=energy[order],
        physical=physical[order],
        borderline=borderline[order],
        residual=residual[order],
        coeffs=coeffs[order],
    )


# ---------------------------------------------------------------------------
# fields and potentials


def _radii(rho) -> ArrayF:
    r = np.asarray(rho, dtype=float)
    if np.any(r < 0):
        raise ValueError("rho must be non-negative")
    return r


def vector_potential(config: ModelConfig, rho) -> ArrayF:
    """Azimuthal A_phi in units c hbar/(e a); model 2 is singular at rho = 0."""
    r = _radii(rho)
    if config.example is Example.REPULSIVE_POLYNOMIAL:
        return 0.5 * r * (config.epsilon + 3.0 * r * r)
    if np.any(r == 0):
        raise ValueError("model 2 vector potential is singular at rho = 0")
    return -config.k / (r * np.sqrt(r * r + 1.0))


def scalar_potential(config: ModelConfig, rho) -> ArrayF:
    """Scalar potential u in units hbar^2/(2 m a^2)."""
    r = _radii(rho)
    if config.example is Example.REPULSIVE_POLYNOMIAL:
        r2 = r * r
        return -(2.0 * r2**3 + config.epsilon * r2**2 + 2.0 * config.k * r2)
    w = 1.0 / (r * r + 1.0)
    return 0.25 * (3.0 * w * w - config.epsilon * w)


def magnetic_field(config: ModelConfig, rho) -> ArrayF:
    """B(rho) in units c hbar/(e a^2); equals (1/rho) d(rho A_phi)/d rho."""
    r = _radii(rho)
    if config.example is Example.REPULSIVE_POLYNOMIAL:
        return config.epsilon + 6.0 * r * r
    return config.k * (r * r + 1.0) ** -1.5


def total_flux(config: ModelConfig) -> float:
    """Total magnetic flux in units c hbar/e, in closed form.

    Model 2 carries the finite flux 2 pi k.  Model 1's field grows with rho,
    so its flux is infinite.
    """
    if config.example is Example.REPULSIVE_POLYNOMIAL:
        return math.inf
    return 2.0 * math.pi * config.k


def effective_potential(config: ModelConfig, l: int, sigma: int, rho) -> ArrayF:
    """Radial channel potential (sigma |l| / rho - A_phi)^2 + u at rho > 0."""
    r = np.asarray(rho, dtype=float)
    if np.any(r <= 0):
        raise ValueError("the effective potential needs rho > 0")
    m = sigma * abs(l)
    return (m / r - vector_potential(config, r)) ** 2 + scalar_potential(config, r)


def t_of_rho(rho) -> ArrayF:
    """Change of variables t = (1 + sqrt(rho^2 + 1)) / 2, mapping [0, inf) to [1, inf)."""
    r = _radii(rho)
    return 0.5 * (1.0 + np.sqrt(r * r + 1.0))


# ---------------------------------------------------------------------------
# wavefunctions

# Norm quadrature (_de_integral), relative only: model 2 norms run down to
# 1e-34, below any useful absolute floor.  Rounding noise of the p_0 = 1
# polynomial can keep successive sums from agreeing to NORM_RTOL; at
# DE_FINEST_STEP, agreement to NORM_FLOOR_RTOL is accepted instead.
DE_HALF_WIDTH = 6.0
DE_FIRST_STEP = 0.25
DE_FINEST_STEP = 2.0**-7
NORM_RTOL = 1e-10
NORM_FLOOR_RTOL = 1e-6


def _require_physical(root: SpectralRoot) -> None:
    if not root.physical or root.eigenvector is None:
        raise SelectionError(
            "wavefunctions exist only for physical roots (real, and chi < 0 "
            "for model 2)"
        )


def radial_values(
    config: ModelConfig, block: BlockSpec, root: SpectralRoot, rho
) -> ArrayF:
    """Radial factor R(rho) of the state (the phi = 0 section, which is real)."""
    _require_physical(root)
    r = _radii(rho)
    coeffs = root.eigenvector.coeffs
    if config.example is Example.REPULSIVE_POLYNOMIAL:
        r2 = r * r
        envelope = np.exp(-(r2 * r2) / 8.0 - config.epsilon * r2 / 4.0)
        return envelope * r ** abs(block.l) * horner(coeffs, r2 / 2.0)
    chi = float(root.value)
    k, l = config.k, block.l
    t = t_of_rho(r)
    return (
        np.sqrt(2.0 * t - 1.0)
        * t ** (0.5 * block.sigma * (k - l))
        * np.power(t - 1.0, 0.5 * (k + l))
        * np.exp(2.0 * chi * t)
        * horner(coeffs, t)
    )


def wavefunction(
    config: ModelConfig,
    block: BlockSpec,
    root: SpectralRoot,
    rho,
    phi: float = 0.0,
) -> NDArray[np.complexfloating]:
    """psi(rho, phi) for a physical root, unnormalized (P has p_0 = 1)."""
    radial = radial_values(config, block, root, rho)
    phase = np.exp(1j * block.angular_momentum * phi)
    return radial * phase


def decay_split(config: ModelConfig, root: SpectralRoot) -> float:
    """The tail radius of ``radial_norm``: the state's part past it should
    be numerically negligible."""
    if config.example is Example.REPULSIVE_POLYNOMIAL:
        return 20.0
    chi = abs(float(root.value))
    return max(20.0, 10.0 + 35.0 / max(chi, 1e-6))


def _de_integral(integrand: Callable[[ArrayF], ArrayF], scale: float,
                 reference: float = 0.0, cut: float = math.inf) -> Tuple[float, float]:
    """(integral over [0, inf), the part of its sum from nodes past cut) of
    an integrand evaluated on whole node arrays, by double-exponential
    quadrature (Takahasi & Mori, Publ. RIMS 9, 1974): the trapezoid rule in
    tau on u = scale exp(tau - e^-tau), |tau| <= DE_HALF_WIDTH, for an
    integrand that decays about exponentially past u ~ scale.

    The first call gives the steps DE_FIRST_STEP and half that (97 nodes);
    each halving after it evaluates the new midpoints only, until two sums
    differ by at most NORM_RTOL * max(|sum|, reference), reference letting a
    small integral (an overlap) converge relative to a larger one.  At
    DE_FINEST_STEP (1,537 nodes) agreement to NORM_FLOOR_RTOL is accepted,
    and otherwise PrecisionError raised.  A non-finite sum returns at once.
    """
    def terms(tau: ArrayF) -> Tuple[ArrayF, ArrayF]:
        decay = np.exp(-tau)
        u = scale * np.exp(tau - decay)
        return u, integrand(u) * u * (1.0 + decay)

    step = DE_FIRST_STEP / 2
    tau = np.arange(-DE_HALF_WIDTH, DE_HALF_WIDTH + step, step)
    u, f = terms(tau)
    # Far out, factors that over- and underflow can make a long-decayed
    # integrand inf or nan: from the first such node on, the nodes of every
    # step are left out if the term before it is negligible.
    top = int(np.argmin(np.isfinite(f))) or tau.size
    if top < tau.size and abs(f[top - 1]) <= NORM_RTOL * abs(f[:top].sum()):
        u, f, tau = u[:top], f[:top], tau[:top]
    previous, whole = DE_FIRST_STEP * float(f[::2].sum()), float(f.sum())
    past, nodes = float(f[u > cut].sum()), tau.size
    while True:
        total = step * whole
        rtol = NORM_FLOOR_RTOL if step <= DE_FINEST_STEP else NORM_RTOL
        if not math.isfinite(total) or abs(total - previous) <= rtol * max(
                abs(total), reference):
            return total, step * past
        if step <= DE_FINEST_STEP:
            raise PrecisionError(
                f"quadrature at scale {scale:g} did not converge: {nodes} nodes "
                f"give {total!r}, {nodes // 2 + 1} give {previous!r}")
        previous, step = total, step / 2
        u, f = terms(np.arange(-DE_HALF_WIDTH + step, tau[-1], 2 * step))  # midpoints
        nodes += u.size
        whole += float(f.sum())
        past += float(f[u > cut].sum())


def _radial_integral(config: ModelConfig, block: BlockSpec, a: SpectralRoot, b: SpectralRoot,
                     reference: float = 0.0, cut: float = math.inf) -> Tuple[float, float]:
    """(integral of R_a R_b rho d rho, its part past rho = cut) for two
    physical states of one block: _de_integral of ``radial_values`` in the
    model's own variable.

    Model 1 takes x = rho^2 / 2 (rho d rho = dx) at the peak of
    e^(-x^2 - eps x) x^(|l| + 2n), at least 1/4.  Model 2 takes u = t - 1
    (rho d rho = 2 (2u + 1) du) at the peak (1 + k + l) / (2 |chi_a| +
    2 |chi_b|) of u^(1 + k + l) e^(2 (chi_a + chi_b) u).
    """
    is_model_1 = config.example is Example.REPULSIVE_POLYNOMIAL
    if is_model_1:
        m, eps = abs(block.l) + 2 * block.n, config.epsilon
        # the positive root of 2 x^2 + eps x - m; it cancels only below 1/4
        scale = max(0.25, (math.hypot(eps, math.sqrt(8 * m)) - eps) / 4)
        past = cut * cut / 2
    else:
        scale = (1 + config.k + block.l) / (2 * abs(float(a.value)) + 2 * abs(float(b.value)))
        past = float(t_of_rho(cut)) - 1.0

    def integrand(v: ArrayF) -> ArrayF:
        if is_model_1:
            rho, jacobian = np.sqrt(2.0 * v), 1.0
        else:
            rho, jacobian = 2.0 * np.sqrt(v * (v + 1.0)), 2.0 * (2.0 * v + 1.0)
        r_a = radial_values(config, block, a, rho)
        return r_a * (r_a if b is a else radial_values(config, block, b, rho)) * jacobian

    # a state whose factors overflow gives a non-finite sum, for the caller
    with np.errstate(over="ignore", invalid="ignore"):
        return _de_integral(integrand, scale, reference, past)


def radial_norm(config: ModelConfig, block: BlockSpec,
                root: SpectralRoot) -> Tuple[float, float]:
    """(integral of |R|^2 rho d rho, fraction contributed past decay_split).

    One _radial_integral, relative-accurate to about NORM_RTOL; the tail is
    the part of its sum from the nodes past the decay radius.
    """
    _require_physical(root)
    total, tail = _radial_integral(config, block, root, root, cut=decay_split(config, root))
    if not (math.isfinite(total) and total > 0):
        raise PrecisionError(
            f"state norm {total!r} of root {root.value!r} in block {block} "
            "is not finite and positive")
    return total, tail / total


def radial_profile(
    config: ModelConfig,
    block: BlockSpec,
    root: SpectralRoot,
    grid,
    phi: float = 0.0,
    normalize: bool = False,
) -> RadialProfile:
    """Sampled wavefunction along a ray with its ``radial_norm`` attached.

    normalize rescales the emitted values by 1/sqrt(norm) so they integrate
    to one; the norm field always reports the p_0 = 1 state's norm, so the
    original amplitude stays recoverable.  Raises PrecisionError when the
    norm does, and when a sampled value is not finite (far out, where the
    factors of R overflow).
    """
    g = np.asarray(grid, dtype=float)
    norm, _ = radial_norm(config, block, root)
    # an overflow shows as a non-finite value, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        values = wavefunction(config, block, root, g, phi)
    bad = ~np.isfinite(values)
    if bad.any():
        raise PrecisionError(
            f"the state of root {root.value!r} in block {block} is not finite "
            f"at rho = {float(g[bad.argmax()])!r}"
        )
    if normalize:
        values = values / math.sqrt(norm)
    return RadialProfile(grid=g, values=values, norm=norm)


def schrodinger_residual(
    config: ModelConfig, block: BlockSpec, root: SpectralRoot, grid
) -> float:
    """Max-norm residual of the radial equation on a uniform grid.

    Fourth-order central differences; grid spacing h must satisfy
    rho_min >= 5h so the stencil stays well away from the axis.  Returns
    max |(H R)(rho_i) - E R(rho_i)| / max |R(rho_i)|.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 5:
        raise ValueError("grid must be a 1-d array with at least 5 points")
    h = float(g[1] - g[0])
    if h <= 0 or not np.allclose(np.diff(g), h, rtol=1e-12, atol=1e-12):
        raise ValueError("grid must be uniformly spaced and increasing")
    if g[0] < 5.0 * h:
        raise ValueError("grid must satisfy rho_min >= 5 h")
    if root.energy is None:
        raise SelectionError("residual check needs a real-energy root")
    ext = np.concatenate(([g[0] - 2 * h, g[0] - h], g, [g[-1] + h, g[-1] + 2 * h]))
    R = radial_values(config, block, root, ext)
    d2 = (-R[:-4] + 16 * R[1:-3] - 30 * R[2:-2] + 16 * R[3:-1] - R[4:]) / (12 * h * h)
    d1 = (R[:-4] - 8 * R[1:-3] + 8 * R[3:-1] - R[4:]) / (12 * h)
    v = effective_potential(config, block.l, block.sigma, g)
    core = R[2:-2]
    residual = -d2 - d1 / g + v * core - root.energy * core
    peak = float(np.max(np.abs(core)))
    if peak == 0:
        raise ValueError("radial values vanish on the whole grid")
    return float(np.max(np.abs(residual)) / peak)
