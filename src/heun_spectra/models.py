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

with two solvable families: case (a) uses exp(+i l phi), l = n + 1 - k >= 0;
case (b) uses exp(-i l phi), 2l = k - n - 1 a non-negative even integer.
The radial factor is exp(-rho^4/8 - eps rho^2/4) rho^l P_n(rho^2 / 2), with
P_n a biconfluent Heun polynomial.

Model 2 ("non-rational field"):

    A_phi = -k / (rho sqrt(rho^2 + 1))
    u     = (3 (rho^2+1)^-2 - eps (rho^2+1)^-1) / 4
    B     = k (rho^2 + 1)^(-3/2),  total flux 2 pi k,  E = -chi^2

solvable in the variable t = (1 + sqrt(rho^2 + 1)) / 2 with radial factor
sqrt(2t-1) t^(±(k-l)/2) (t-1)^((k+l)/2) exp(2 chi t) P_n(t), P_n a confluent
Heun polynomial; bound states require chi < 0.  The first family has
k <= -1, n = -k-1 fixed and l = -k, -k+1, ...; the second has k >= 1,
n = k-1, ..., 0 with l = -n-1.

The eigenvalue enters the recurrence sequences polynomially, so each block's
spectrum is the root set of a determinant polynomial of degree n+1 (model 1)
or 2(n+1) (model 2), found as the eigenvalues of a structured matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.typing import NDArray

from . import spectral
from .errors import ParameterError, PrecisionError, SelectionError
from .heun_core import PolynomialCoefficients, TridiagonalSequences
from .spoly import SPoly, horner

ArrayF = NDArray[np.floating]

REALITY_TOL = 1e-9
PHYSICAL_NEG_TOL = 1e-9
RESIDUAL_TARGET = 1e-10
# Bit width at which a physical root that misses RESIDUAL_TARGET in double
# precision is Newton-polished once more.
FALLBACK_BITS = 128
# Degree past which the earlier expanded-determinant solver switched to
# 128-bit root finding and slowed by three orders of magnitude.  Nothing
# here branches on it; it marks the old cliff that the benchmark's
# high-degree workload is defined against.
HIGH_DEGREE_THRESHOLD = 20


class Example(IntEnum):
    """The two solvable field configurations."""

    REPULSIVE_POLYNOMIAL = 1
    NONRATIONAL = 2


VARIANTS = {
    Example.REPULSIVE_POLYNOMIAL: ("a", "b"),
    Example.NONRATIONAL: ("first", "second"),
}


@dataclass(frozen=True)
class ModelConfig:
    """A fully specified model: example, variant, integer k, real epsilon."""

    example: Example
    variant: str
    k: int
    epsilon: float

    def __post_init__(self) -> None:
        try:
            example = Example(self.example)
        except ValueError:
            raise ParameterError("example must be 1 or 2") from None
        object.__setattr__(self, "example", example)
        if self.variant not in VARIANTS[example]:
            allowed = ", ".join(VARIANTS[example])
            raise ParameterError(
                f"example {int(example)} admits cases {allowed}, not {self.variant!r}"
            )
        if isinstance(self.k, bool) or not isinstance(self.k, (int, np.integer)):
            raise ParameterError("k must be an integer")
        object.__setattr__(self, "k", int(self.k))
        if not (isinstance(self.epsilon, (int, float)) and math.isfinite(self.epsilon)):
            raise ParameterError("epsilon must be a finite real number")
        object.__setattr__(self, "epsilon", float(self.epsilon))
        if example is Example.REPULSIVE_POLYNOMIAL:
            if self.variant == "b" and self.k < 1:
                raise ParameterError(
                    "case b requires k >= 1 (2l = k - n - 1 must be non-negative)"
                )
        else:
            if self.variant == "first" and self.k > -1:
                raise ParameterError(
                    "the first non-rational family requires k <= -1 (n = -k - 1 >= 0)"
                )
            if self.variant == "second" and self.k < 1:
                raise ParameterError(
                    "the second non-rational family requires k >= 1 (it has k blocks)"
                )


@dataclass(frozen=True)
class BlockSpec:
    """One solvable angular block: polynomial degree n, angular number l.

    sigma is the sign carried by the angular factor exp(i sigma |l| phi); the
    radial equation sees sigma |l|.  For model 2 the stored l is signed and
    always equals sigma |l|.
    """

    n: int
    l: int
    sigma: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ParameterError("block degree n must be non-negative")
        if self.sigma not in (-1, +1):
            raise ParameterError("sigma must be +1 or -1")

    @property
    def angular_momentum(self) -> int:
        return self.sigma * abs(self.l)


@dataclass(frozen=True)
class SpectralRoot:
    """One determinant root: spectral value, energy, physicality, residual.

    value is the spectral parameter (lambda for model 1, chi for model 2);
    complex only for non-real unphysical roots.  energy is None when the
    root is not real.  For physical roots eigenvector holds the recurrence
    null vector (p_0 = 1) and residual its terminal residual.  For the rest
    residual is the relative Newton correction |D/D'| / max(1, |value|) of
    the continuant D at the root: an estimate of the root's error, not a
    bound.
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
    filtered_count: int


@dataclass(frozen=True)
class RadialProfile:
    """Wavefunction samples along a radial ray with the state's radial norm."""

    grid: ArrayF
    values: NDArray[np.complexfloating]
    norm: float


# ---------------------------------------------------------------------------
# block enumeration


def permissible_blocks(config: ModelConfig, n_max: int = 10) -> List[BlockSpec]:
    """Every solvable block of the configuration with degree budget n_max.

    For model 2's first family n is fixed at -k-1 and n_max instead caps the
    number of emitted l values (n_max + 1 blocks).
    """
    if n_max < 0:
        raise ParameterError("n_max must be non-negative")
    k = config.k
    if config.example is Example.REPULSIVE_POLYNOMIAL:
        if k == 0:
            warnings.warn(
                "k = 0 supports no bound multiplets here; returning no blocks",
                RuntimeWarning,
                stacklevel=2,
            )
            return []
        if config.variant == "a":
            return [
                BlockSpec(n=n, l=n + 1 - k, sigma=+1)
                for n in range(max(0, k - 1), n_max + 1)
            ]
        # case b: n = k-1, k-3, ... down to parity floor
        ns = [n for n in range(k - 1, -1, -2) if n <= n_max]
        return [BlockSpec(n=n, l=(k - n - 1) // 2, sigma=-1) for n in sorted(ns)]
    if config.variant == "first":
        n = -k - 1
        return [BlockSpec(n=n, l=-k + i, sigma=+1) for i in range(n_max + 1)]
    # second family: n runs k-1 down to 0, l = -n-1
    return [
        BlockSpec(n=n, l=-n - 1, sigma=-1)
        for n in range(k - 1, -1, -1)
        if n <= n_max
    ]


def _block_violation(config: ModelConfig, block: BlockSpec) -> Optional[str]:
    k = config.k
    if config.example is Example.REPULSIVE_POLYNOMIAL:
        if block.l < 0:
            return "model 1 blocks need l >= 0"
        if config.variant == "a":
            if block.sigma != +1:
                return "case a uses the exp(+i l phi) branch (sigma = +1)"
            if block.l != block.n + 1 - k:
                return "case a requires l = n + 1 - k"
        else:
            if block.sigma != -1:
                return "case b uses the exp(-i l phi) branch (sigma = -1)"
            if 2 * block.l != k - block.n - 1:
                return "case b requires 2l = k - n - 1"
    else:
        if block.l != block.sigma * abs(block.l) or block.l == 0:
            return "model 2 stores the signed angular number l = sigma |l| != 0"
        if config.variant == "first":
            if block.n != -k - 1:
                return "the first family fixes n = -k - 1"
            if block.l < -k:
                return "the first family requires l >= -k"
        else:
            if not (0 <= block.n <= k - 1):
                return "the second family requires 0 <= n <= k - 1"
            if block.l != -block.n - 1:
                return "the second family requires l = -n - 1"
        if k + block.l < 0:
            return "model 2 requires k + l >= 0"
    return None


def validate_block(config: ModelConfig, block: BlockSpec) -> None:
    reason = _block_violation(config, block)
    if reason is not None:
        raise ParameterError(f"block {block} is not permissible: {reason}")


def make_block(config: ModelConfig, n: int, l: Optional[int] = None) -> BlockSpec:
    """Construct the block selected by degree n (and l where n is degenerate).

    Raises SelectionError when no permissible block matches, so callers can
    distinguish bad selections from bad configurations.
    """
    k = config.k
    try:
        if config.example is Example.REPULSIVE_POLYNOMIAL:
            if config.variant == "a":
                block = BlockSpec(n=n, l=n + 1 - k, sigma=+1)
            else:
                if (k - n - 1) < 0 or (k - n - 1) % 2 != 0:
                    raise ParameterError("case b requires k - n - 1 non-negative even")
                block = BlockSpec(n=n, l=(k - n - 1) // 2, sigma=-1)
        elif config.variant == "first":
            if l is None:
                raise ParameterError("the first family needs l (n is fixed at -k-1)")
            block = BlockSpec(n=n, l=l, sigma=+1)
        else:
            block = BlockSpec(n=n, l=-n - 1, sigma=-1)
        if l is not None and block.l != l:
            raise ParameterError(f"block with n = {n} has l = {block.l}, not {l}")
        validate_block(config, block)
    except ParameterError as exc:
        raise SelectionError(str(exc)) from None
    return block


# ---------------------------------------------------------------------------
# sequences and spectra


def block_recurrence(
    config: ModelConfig, block: BlockSpec, precision: Optional[int] = None
) -> spectral.Recurrence:
    """The block's quantization sequences as coefficient arrays.

    Model 1 diagonals are affine in lambda with unit leading coefficient;
    model 2 diagonals are monic quadratic in chi and the sub-diagonal is
    linear, so the determinant degrees are n+1 and 2(n+1).  The arrays come
    straight from the closed forms: a of shape (n+1, 2) or (n+1, 3), b
    (n, 1), c (n, 1) or (n, 2), and e = 0.0 + b c as SPoly multiplication
    forms it.  precision, when given, builds mpmath entries (object arrays)
    at the current working precision (the caller holds a workprec context);
    otherwise they are floats.
    """
    validate_block(config, block)
    if precision is None:
        one, j = 1.0, np.arange(block.n + 1)
    else:
        import mpmath

        # Python integers, exact until they meet an mpf
        one, j = mpmath.mpf(1), np.arange(block.n + 1, dtype=object)
    e = one * config.epsilon
    k, n, l = config.k, block.n, block.l
    i = j[:-1]
    if config.example is Example.REPULSIVE_POLYNOMIAL:
        # a huge epsilon overflows silently, as Python floats do, and is
        # rejected below
        with np.errstate(over="ignore"):
            beta = -e * (2 * j + 1 if config.variant == "a" else k - n + 2 * j)
        if config.variant == "a":
            b = 2 * (i * (i + n - k + 3) + n - k + 2)
        else:
            b = i * (2 * i - n + k + 3) - n + k + 1
        a = np.stack([beta, np.full(n + 1, one)], axis=1)
        c = (4 * (n - i) * one)[:, None]
    else:
        if config.variant == "first":
            beta = (l * l - n * n - n - j * (j - 2 * n - 1)) - one / 4 * (1 + e)
            alpha = 2 * (2 * j - n - l)
            b = (i + 1) * (i - n - l)
        else:
            beta = (-j * (j - 2 * n - 1) + n) + one / 4 * (3 - e)
            alpha = 2 * (2 * j - k - n)
            b = (i + 1) * (i - n - k)
        a = np.stack([beta, alpha * one, np.full(n + 1, one)], axis=1)
        c = np.stack([np.full(n, 0 * one), 4 * (n - i) * one], axis=1)
    if precision is None and not np.isfinite(a).all():
        raise ValueError("sequence a has a non-finite entry")
    b = (b * one)[:, None]
    return spectral.Recurrence(a, b, c, 0.0 + b * c)


def block_sequences(
    config: ModelConfig, block: BlockSpec, precision: Optional[int] = None
) -> TridiagonalSequences:
    """The entries of ``block_recurrence`` as SPoly sequences, for the
    verification routes (determinant expansion, identities)."""
    rec = block_recurrence(config, block, precision)
    return TridiagonalSequences(
        *(tuple(SPoly(row) for row in m.tolist()) for m in (rec.a, rec.b, rec.c))
    )


def _physical_root(
    config: ModelConfig, value: float, coeffs: Tuple[float, ...], residual: float
) -> SpectralRoot:
    """A physical root with its null vector p_0..p_n and terminal residual."""
    is_model_1 = config.example is Example.REPULSIVE_POLYNOMIAL
    return SpectralRoot(
        value=value,
        energy=value if is_model_1 else -(value**2),
        physical=True,
        residual=residual,
        eigenvector=PolynomialCoefficients(
            degree=len(coeffs) - 1, coeffs=coeffs, terminal_residual=residual
        ),
    )


def _polished(
    config: ModelConfig, block: BlockSpec, value: float, double_residual: float
) -> Tuple[float, Tuple[float, ...], float]:
    """Newton-polish a real root at FALLBACK_BITS and take its null vector there.

    The polish and the null vector are the ragged kernel's, run on the one
    root with the block's recurrence built at FALLBACK_BITS.  Returns (root,
    coefficients, terminal residual) rounded to double.  Raises
    PrecisionError when the residual still misses RESIDUAL_TARGET.
    """
    import mpmath

    with mpmath.workprec(FALLBACK_BITS):
        recs = [block_recurrence(config, block, precision=FALLBACK_BITS)]
        start = np.array([mpmath.mpf(value)], dtype=object)
        root = spectral.ragged_polish(recs, start)[0]
        coeffs, residuals = spectral.ragged_null_vectors(recs, root)
    residual = float(residuals[0])
    if residual > RESIDUAL_TARGET:
        raise PrecisionError(
            f"root {value!r} of block {block} misses the terminal-residual "
            f"target {RESIDUAL_TARGET:.0e}: {double_residual:.3e} in double "
            f"precision, {residual:.3e} after Newton polish at "
            f"{FALLBACK_BITS} bits"
        )
    return float(root[0]), tuple(float(p) for p in coeffs[0]), residual


def _sort_key(r: SpectralRoot):
    if r.energy is not None:
        return (0, r.energy, 0.0)
    return (1, complex(r.value).real, complex(r.value).imag)


def solve_blocks(config: ModelConfig, blocks: Sequence[BlockSpec]) -> List[BlockResult]:
    """Solve blocks of one configuration: ``[solve_block(config, b) for b in blocks]``.

    Each block has its own eigensolve; then all model 2 roots take one
    ragged Newton polish and all physical roots one ragged null-vector
    recurrence (``spectral.ragged_polish``, ``spectral.ragged_null_vectors``),
    which give each root the bits it gets alone.  Warnings and errors come
    block by block, in the order of that loop.
    """
    return _solve(config, list(blocks))


def solve_block(
    config: ModelConfig, block: BlockSpec, precision: Optional[int] = None
) -> BlockResult:
    """Solve one block as a structured eigenproblem in double precision.

    Model 1 roots are the eigenvalues of a symmetric tridiagonal matrix
    (``numpy.linalg.eigvalsh`` on the dense matrix); model 2 roots are the
    eigenvalues of the companion linearization of its quadratic pencil,
    Newton-polished on the continuant.  Roots are then classified by
    REALITY_TOL and PHYSICAL_NEG_TOL.  Each physical root's null vector must
    have a terminal residual of at most RESIDUAL_TARGET; a root that misses
    it is Newton-polished once at FALLBACK_BITS, and one that still misses
    it raises PrecisionError, as does a failing eigensolver.  precision_bits
    is FALLBACK_BITS when some root needed that polish and 53 otherwise.
    This is ``solve_blocks(config, [block])[0]``; precision is accepted and
    ignored, for callers that still pass it.
    """
    return _solve(config, [block])[0]


def _solve(config: ModelConfig, blocks: List[BlockSpec]) -> List[BlockResult]:
    recs = [block_recurrence(config, block) for block in blocks]
    is_model_1 = config.example is Example.REPULSIVE_POLYNOMIAL
    eigensolve = (
        spectral.symmetric_eigenvalues if is_model_1 else spectral.companion_eigenvalues
    )
    values, failure = [], None
    for block, rec in zip(blocks, recs):
        try:
            values.append(eigensolve(rec))
        except np.linalg.LinAlgError as exc:
            # the blocks before this one still report first
            failure = PrecisionError(f"eigensolver failed on block {block}: {exc}")
            blocks, recs = blocks[: len(values)], recs[: len(values)]
            break
    results = []
    if blocks:
        owner = np.repeat(np.arange(len(values)), [len(v) for v in values])
        roots = np.concatenate(values).astype(complex)
        if is_model_1:
            steps = np.zeros_like(roots)
        else:
            roots, steps = spectral.ragged_polish(recs, roots, owner)
        results = _classified(config, blocks, recs, owner, roots, steps)
    if failure is not None:
        raise failure
    return results


def _classified(config, blocks, recs, owner, roots, steps) -> List[BlockResult]:
    """Classify, take the null vectors, and build the results in block order."""
    is_model_1 = config.example is Example.REPULSIVE_POLYNOMIAL
    # a physical root holds its place in its block's entries as None until
    # its null vector is taken, all physical roots in one recurrence
    entries: List[List[Optional[SpectralRoot]]] = [[] for _ in blocks]
    borderline_notes: List[List[str]] = [[] for _ in blocks]
    physical_at: List[Tuple[int, int, float]] = []
    for b, rc, step in zip(owner.tolist(), roots.tolist(), steps.tolist()):
        scale = max(1.0, abs(rc))
        is_real = abs(rc.imag) <= REALITY_TOL * scale
        borderline = False
        if is_model_1:
            physical = is_real
        else:
            physical = is_real and rc.real < -PHYSICAL_NEG_TOL
            borderline = is_real and -PHYSICAL_NEG_TOL <= rc.real < 0.0
            if borderline:
                borderline_notes[b].append(
                    f"root chi = {rc.real:.3e} sits within {PHYSICAL_NEG_TOL:.0e} "
                    "of zero; treated as unphysical borderline"
                )
        if physical:
            physical_at.append((b, len(entries[b]), rc.real))
            entries[b].append(None)
            continue
        if is_real:
            value: Union[float, complex] = rc.real
            energy = rc.real if is_model_1 else -(rc.real**2)
        else:
            value = rc
            energy = None
        entries[b].append(
            SpectralRoot(
                value=value,
                energy=energy,
                physical=False,
                residual=abs(step) / scale,
                eigenvector=None,
                borderline=borderline,
            )
        )
    pending: List[list] = [[] for _ in blocks]  # (slot, root, p, residual)
    if physical_at:
        owners, slots, points = zip(*physical_at)
        coeffs, residuals = spectral.ragged_null_vectors(
            recs, np.array(points), np.array(owners)
        )
        for b, slot, value, vec, residual in zip(
            owners, slots, points, coeffs.tolist(), residuals.tolist()
        ):
            pending[b].append((slot, value, vec[: blocks[b].n + 1], residual))
    results = []
    for block, block_entries, notes, physical in zip(
        blocks, entries, borderline_notes, pending
    ):
        for note in notes:
            # at the caller of solve_block / solve_blocks, which both call
            # _solve directly
            warnings.warn(note, RuntimeWarning, stacklevel=4)
        precision_bits = 53
        for slot, value, vec, residual in physical:
            if residual > RESIDUAL_TARGET:
                value, vec, residual = _polished(config, block, value, residual)
                precision_bits = FALLBACK_BITS
            block_entries[slot] = _physical_root(config, value, tuple(vec), residual)
        block_entries.sort(key=_sort_key)
        results.append(
            BlockResult(
                block=block,
                roots=tuple(block_entries),
                precision_bits=precision_bits,
                filtered_count=sum(1 for r in block_entries if not r.physical),
            )
        )
    return results


def spectrum(config: ModelConfig, block: BlockSpec) -> List[SpectralRoot]:
    """All determinant roots of a block, physical ones carrying null vectors.

    Model 1 yields n+1 roots (all real for permissible blocks), model 2
    yields 2(n+1) roots of which the physical ones are the real negative chi.
    Roots are sorted by ascending energy; non-real roots, which can only be
    unphysical, come last.
    """
    return list(solve_block(config, block).roots)


# ---------------------------------------------------------------------------
# fields and potentials


def vector_potential(config: ModelConfig, rho) -> ArrayF:
    """Azimuthal A_phi in units c hbar/(e a); model 2 is singular at rho = 0."""
    r = np.asarray(rho, dtype=float)
    if np.any(r < 0):
        raise ValueError("rho must be non-negative")
    if config.example is Example.REPULSIVE_POLYNOMIAL:
        return 0.5 * r * (config.epsilon + 3.0 * r * r)
    if np.any(r == 0):
        raise ValueError("model 2 vector potential is singular at rho = 0")
    return -config.k / (r * np.sqrt(r * r + 1.0))


def scalar_potential(config: ModelConfig, rho) -> ArrayF:
    """Scalar potential u in units hbar^2/(2 m a^2)."""
    r = np.asarray(rho, dtype=float)
    if np.any(r < 0):
        raise ValueError("rho must be non-negative")
    if config.example is Example.REPULSIVE_POLYNOMIAL:
        r2 = r * r
        return -(2.0 * r2**3 + config.epsilon * r2**2 + 2.0 * config.k * r2)
    w = 1.0 / (r * r + 1.0)
    return 0.25 * (3.0 * w * w - config.epsilon * w)


def magnetic_field(config: ModelConfig, rho) -> ArrayF:
    """B(rho) in units c hbar/(e a^2); equals (1/rho) d(rho A_phi)/d rho."""
    r = np.asarray(rho, dtype=float)
    if np.any(r < 0):
        raise ValueError("rho must be non-negative")
    if config.example is Example.REPULSIVE_POLYNOMIAL:
        return config.epsilon + 6.0 * r * r
    return config.k * (r * r + 1.0) ** -1.5


def total_flux(config: ModelConfig, numeric: bool = False) -> float:
    """Total magnetic flux in units c hbar/e.

    Model 2 carries the finite flux 2 pi k (closed form); numeric=True
    integrates 2 pi B rho d rho instead.  Model 1's field grows with rho, so
    its flux is infinite.
    """
    if config.example is Example.REPULSIVE_POLYNOMIAL:
        return math.inf
    if not numeric:
        return 2.0 * math.pi * config.k
    from scipy.integrate import quad

    val, _ = quad(
        lambda r: float(magnetic_field(config, r)) * r, 0.0, np.inf, limit=200
    )
    return 2.0 * math.pi * val


def effective_potential(config: ModelConfig, l: int, sigma: int, rho) -> ArrayF:
    """Radial channel potential (sigma |l| / rho - A_phi)^2 + u at rho > 0."""
    r = np.asarray(rho, dtype=float)
    if np.any(r <= 0):
        raise ValueError("the effective potential needs rho > 0")
    m = sigma * abs(l)
    return (m / r - vector_potential(config, r)) ** 2 + scalar_potential(config, r)


def t_of_rho(rho) -> ArrayF:
    """Change of variables t = (1 + sqrt(rho^2 + 1)) / 2, mapping [0, inf) to [1, inf)."""
    r = np.asarray(rho, dtype=float)
    if np.any(r < 0):
        raise ValueError("rho must be non-negative")
    return 0.5 * (1.0 + np.sqrt(r * r + 1.0))


# ---------------------------------------------------------------------------
# wavefunctions

# Norm quadrature (_gauss_integral).  Its tolerance is relative only:
# model 2 norms run down to 1e-34, below any useful absolute floor.
GAUSS_ORDER = 32
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_ORDER)
NORM_RTOL = 1e-10
NORM_START_PANELS = 4
NORM_MAX_PANELS = 512
# Cancellation in the p_0 = 1 polynomial leaves rounding noise in the
# integrand that can keep successive estimates from agreeing to NORM_RTOL;
# at the panel cap, agreement to this is accepted instead.
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
    r = np.asarray(rho, dtype=float)
    if np.any(r < 0):
        raise ValueError("rho must be non-negative")
    coeffs = root.eigenvector.coeffs
    if config.example is Example.REPULSIVE_POLYNOMIAL:
        r2 = r * r
        envelope = np.exp(-(r2 * r2) / 8.0 - config.epsilon * r2 / 4.0)
        return envelope * r ** abs(block.l) * horner(coeffs, r2 / 2.0)
    chi = float(root.value)
    k, l = config.k, block.l
    t = t_of_rho(r)
    if config.variant == "first":
        t_exp = 0.5 * (k - l)
    else:
        t_exp = 0.5 * (l - k)
    tm1 = t - 1.0
    return (
        np.sqrt(2.0 * t - 1.0)
        * t**t_exp
        * np.power(tm1, 0.5 * (k + l))
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
    """Radius beyond which the state's tail is numerically negligible."""
    if config.example is Example.REPULSIVE_POLYNOMIAL:
        return 20.0
    chi = abs(float(root.value))
    return max(20.0, 10.0 + 35.0 / max(chi, 1e-6))


def _gauss_integral(
    integrand: Callable[[ArrayF], ArrayF], a: float, b: float, scale: float = 0.0
) -> float:
    """Integral over [a, b] of an integrand evaluated on whole node arrays.

    Composite GAUSS_ORDER-point Gauss-Legendre on NORM_START_PANELS equal
    panels, doubled until two successive estimates differ by at most
    NORM_RTOL * max(|estimate|, scale).  scale lets an integral that should
    be small (a tail, an overlap) converge relative to a larger one.  At
    NORM_MAX_PANELS the finer estimate is still returned if the last two
    agree to NORM_FLOOR_RTOL; otherwise PrecisionError.
    """
    panels = NORM_START_PANELS
    previous = None
    while True:
        edges = np.linspace(a, b, panels + 1)
        half = 0.5 * np.diff(edges)[:, None]
        nodes = (edges[:-1, None] + half * (1.0 + _GAUSS_NODES)).ravel()
        weights = (half * _GAUSS_WEIGHTS).ravel()
        estimate = float(np.dot(weights, integrand(nodes)))
        if not math.isfinite(estimate):
            return estimate
        if previous is not None:
            at_cap = panels >= NORM_MAX_PANELS
            rtol = NORM_FLOOR_RTOL if at_cap else NORM_RTOL
            if abs(estimate - previous) <= rtol * max(abs(estimate), scale):
                return estimate
            if at_cap:
                raise PrecisionError(
                    f"quadrature over [{a:g}, {b:g}] did not converge: "
                    f"{panels} panels give {estimate!r}, {panels // 2} give {previous!r}"
                )
        previous = estimate
        panels *= 2


def radial_norm(
    config: ModelConfig, block: BlockSpec, root: SpectralRoot
) -> Tuple[float, float]:
    """(integral of |R|^2 rho d rho, fraction contributed past the decay radius).

    Both parts are relative-accurate to about NORM_RTOL (the tail relative
    to the head); see _gauss_integral.
    """
    _require_physical(root)

    def integrand(r: ArrayF) -> ArrayF:
        return radial_values(config, block, root, r) ** 2 * r

    split = decay_split(config, root)
    head = _gauss_integral(integrand, 0.0, split)
    tail = _gauss_integral(integrand, split, 2.0 * split, scale=head)
    total = head + tail
    if not (math.isfinite(total) and total > 0):
        raise ValueError("state norm is not finite and positive")
    return total, tail / total


def radial_profile(
    config: ModelConfig,
    block: BlockSpec,
    root: SpectralRoot,
    grid,
    phi: float = 0.0,
    normalize: bool = False,
) -> RadialProfile:
    """Sampled wavefunction along a ray with the radial norm attached.

    normalize rescales the emitted values by 1/sqrt(norm) so they integrate
    to one; the norm field always reports the p_0 = 1 state's norm, so the
    original amplitude stays recoverable.
    """
    g = np.asarray(grid, dtype=float)
    norm, _ = radial_norm(config, block, root)
    values = wavefunction(config, block, root, g, phi)
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
