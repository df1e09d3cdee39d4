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
import os
import warnings
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import mpmath
import numpy as np
from numpy.typing import NDArray

from . import heun_core, spectral
from .errors import ParameterError, PrecisionError, ResidualToleranceError, SelectionError
from .heun_core import PolynomialCoefficients, TridiagonalSequences
from .spoly import SPoly, horner

ArrayF = NDArray[np.floating]

REALITY_TOL = 1e-9
PHYSICAL_NEG_TOL = 1e-9
RESIDUAL_TARGET = 1e-10
PRECISION_ENV = "HEUN_SPECTRA_PRECISION"
DEFAULT_RUNGS = (128, 256)
REFINE_STEPS = 40
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
class UnitSystem:
    """Unit labels for reported quantities; all computation is dimensionless.

    The length scale a is the only free unit.  Energies are reported in
    hbar^2/(2 m a^2), the vector potential in c hbar/(e a), the magnetic
    field in c hbar/(e a^2) and flux in c hbar/e.
    """

    a: float = 1.0
    length: str = "a"
    energy: str = "hbar^2/(2*m*a^2)"
    vector_potential: str = "c*hbar/(e*a)"
    magnetic_field: str = "c*hbar/(e*a^2)"
    flux: str = "c*hbar/e"

    def __post_init__(self) -> None:
        if not (self.a > 0 and math.isfinite(self.a)):
            raise ParameterError("length scale a must be positive and finite")


@dataclass(frozen=True)
class ModelConfig:
    """A fully specified model: example, variant, integer k, real epsilon."""

    example: Example
    variant: str
    k: int
    epsilon: float
    units: UnitSystem = field(default_factory=UnitSystem)

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


def block_sequences(
    config: ModelConfig, block: BlockSpec, precision: Optional[int] = None
) -> TridiagonalSequences:
    """Quantization sequences of a block, polynomial in the spectral parameter.

    Model 1 diagonals are affine in lambda with unit leading coefficient;
    model 2 diagonals are monic quadratic in chi and the sub-diagonal is
    linear, so the determinant degrees are n+1 and 2(n+1).

    precision, when given, builds the entries in mpmath arithmetic at the
    current working precision (the caller is expected to hold a workprec
    context); otherwise plain floats are used.
    """
    validate_block(config, block)
    conv = float if precision is None else mpmath.mpf
    e = conv(config.epsilon)
    k, n, l = config.k, block.n, block.l
    zero, one = conv(0.0), conv(1.0)
    if config.example is Example.REPULSIVE_POLYNOMIAL:
        if config.variant == "a":
            a = tuple(SPoly((-e * (2 * j + 1), one)) for j in range(n + 1))
            b = tuple(
                SPoly((conv(2 * (j * (j + n - k + 3) + n - k + 2)),))
                for j in range(n)
            )
        else:
            a = tuple(SPoly((-e * (k - n + 2 * j), one)) for j in range(n + 1))
            b = tuple(
                SPoly((conv(j * (2 * j - n + k + 3) - n + k + 1),)) for j in range(n)
            )
        c = tuple(SPoly((conv(4 * (n - j)),)) for j in range(n))
        return TridiagonalSequences(a=a, b=b, c=c)
    quarter = conv(1.0) / 4
    if config.variant == "first":
        a = tuple(
            SPoly(
                (
                    conv(l * l - n * n - n - j * (j - 2 * n - 1))
                    - quarter * (1 + e),
                    conv(2 * (2 * j - n - l)),
                    one,
                )
            )
            for j in range(n + 1)
        )
        b = tuple(SPoly((conv((j + 1) * (j - n - l)),)) for j in range(n))
    else:
        a = tuple(
            SPoly(
                (
                    conv(-j * (j - 2 * n - 1) + n) + quarter * (3 - e),
                    conv(2 * (2 * j - k - n)),
                    one,
                )
            )
            for j in range(n + 1)
        )
        b = tuple(SPoly((conv((j + 1) * (j - n - k)),)) for j in range(n))
    c = tuple(SPoly((zero, conv(4 * (n - j)))) for j in range(n))
    return TridiagonalSequences(a=a, b=b, c=c)


def fallback_rungs(precision: Optional[int] = None) -> Tuple[int, int]:
    """Bit widths at which a physical root that fails the double gate is refined.

    128 and 256 bits by default; p and 2p when precision (or, if it is None,
    the HEUN_SPECTRA_PRECISION environment variable) asks for p > 53 bits.
    """
    if precision is None:
        env = os.environ.get(PRECISION_ENV)
        if env:
            try:
                precision = int(env)
            except ValueError:
                raise ParameterError(
                    f"{PRECISION_ENV} must be an integer bit count, got {env!r}"
                ) from None
    if precision is not None and precision > 53:
        return precision, 2 * precision
    return DEFAULT_RUNGS


def _structured_roots(config: ModelConfig, block: BlockSpec, seqs: TridiagonalSequences):
    """(roots, Newton corrections) of a block as complex arrays."""
    try:
        if config.example is Example.REPULSIVE_POLYNOMIAL:
            roots = spectral.symmetric_eigenvalue_roots(seqs).astype(complex)
            return roots, np.zeros_like(roots)
        return spectral.quadratic_pencil_roots(seqs)
    except np.linalg.LinAlgError as exc:
        raise PrecisionError(f"eigensolver failed on block {block}: {exc}") from None


def _refined(
    config: ModelConfig, block: BlockSpec, value: float, bits: int
) -> Tuple[object, PolynomialCoefficients]:
    """Newton-refine a real root at the given bit width and take its null vector.

    Newton stops when its correction stops shrinking, which happens at the
    rounding level of the bit width.  Raises ResidualToleranceError when that
    takes more than REFINE_STEPS steps or the null vector misses
    RESIDUAL_TARGET.
    """
    with mpmath.workprec(bits):
        seqs = block_sequences(config, block, precision=bits)
        x = np.array([mpmath.mpf(value)], dtype=object)
        previous = None
        for _ in range(REFINE_STEPS):
            step = spectral.newton_corrections(seqs, x)
            size = abs(step[0])
            if previous is not None and size >= previous:
                break  # the corrections stopped shrinking: rounding level
            x = x - step
            previous = size
        else:
            raise ResidualToleranceError(
                f"Newton did not settle in {REFINE_STEPS} steps"
            )
        return x[0], spectral.null_vector(seqs, x[0], tol=RESIDUAL_TARGET)


def _physical_root(
    config: ModelConfig,
    block: BlockSpec,
    seqs: TridiagonalSequences,
    value: float,
    rungs: Sequence[int],
) -> Tuple[SpectralRoot, int]:
    """A physical root certified by its null vector, and the bits that took.

    The double-precision root is tried first; if its null vector misses
    RESIDUAL_TARGET, it is refined at each rung in turn.  Exhausting the
    rungs raises PrecisionError.
    """
    bits = 53
    try:
        vec = spectral.null_vector(seqs, value, tol=RESIDUAL_TARGET)
    except ResidualToleranceError as exc:
        failures = [f"53 bits: {exc}"]
        for bits in rungs:
            try:
                s_mp, vec = _refined(config, block, value, bits)
                value = float(s_mp)
                break
            except ResidualToleranceError as exc:
                failures.append(f"{bits} bits: {exc}")
        else:
            raise PrecisionError(
                f"root {value!r} of block {block}: residuals stayed above "
                f"tolerance on the precision ladder: " + "; ".join(failures)
            ) from None
    eigen = PolynomialCoefficients(
        degree=vec.degree,
        coeffs=tuple(float(p) for p in vec.coeffs),
        terminal_residual=vec.terminal_residual,
    )
    is_model_1 = config.example is Example.REPULSIVE_POLYNOMIAL
    root = SpectralRoot(
        value=value,
        energy=value if is_model_1 else -(value**2),
        physical=True,
        residual=vec.terminal_residual,
        eigenvector=eigen,
    )
    return root, bits


def _sort_key(r: SpectralRoot):
    if r.energy is not None:
        return (0, r.energy, 0.0)
    return (1, complex(r.value).real, complex(r.value).imag)


def solve_block(
    config: ModelConfig, block: BlockSpec, precision: Optional[int] = None
) -> BlockResult:
    """Solve one block as a structured eigenproblem in double precision.

    Model 1 roots are the eigenvalues of a symmetric tridiagonal matrix;
    model 2 roots are the eigenvalues of the companion linearization of its
    quadratic pencil, Newton-polished on the continuant.  Roots are then
    classified by REALITY_TOL and PHYSICAL_NEG_TOL.  Each physical root must
    have a null vector whose terminal residual is at most RESIDUAL_TARGET; a
    root that misses it is refined by extended-precision Newton steps at the
    rungs of ``fallback_rungs(precision)``, and one that misses it at every
    rung raises PrecisionError, as does a failing eigensolver.
    precision_bits reports the widest bit width any root needed.
    """
    rungs = fallback_rungs(precision)
    seqs = block_sequences(config, block)
    values, steps = _structured_roots(config, block, seqs)
    is_model_1 = config.example is Example.REPULSIVE_POLYNOMIAL
    entries = []
    precision_bits = 53
    for rc, step in zip(values.tolist(), steps.tolist()):
        scale = max(1.0, abs(rc))
        is_real = abs(rc.imag) <= REALITY_TOL * scale
        borderline = False
        if is_model_1:
            physical = is_real
        else:
            physical = is_real and rc.real < -PHYSICAL_NEG_TOL
            borderline = is_real and -PHYSICAL_NEG_TOL <= rc.real < 0.0
            if borderline:
                warnings.warn(
                    f"root chi = {rc.real:.3e} sits within {PHYSICAL_NEG_TOL:.0e} "
                    "of zero; treated as unphysical borderline",
                    RuntimeWarning,
                    stacklevel=2,
                )
        if physical:
            root, bits = _physical_root(config, block, seqs, rc.real, rungs)
            precision_bits = max(precision_bits, bits)
            entries.append(root)
            continue
        if is_real:
            value: Union[float, complex] = rc.real
            energy = rc.real if is_model_1 else -(rc.real**2)
        else:
            value = rc
            energy = None
        entries.append(
            SpectralRoot(
                value=value,
                energy=energy,
                physical=False,
                residual=abs(step) / scale,
                eigenvector=None,
                borderline=borderline,
            )
        )
    entries.sort(key=_sort_key)
    return BlockResult(
        block=block,
        roots=tuple(entries),
        precision_bits=precision_bits,
        filtered_count=sum(1 for r in entries if not r.physical),
    )


def spectrum(
    config: ModelConfig, block: BlockSpec, precision: Optional[int] = None
) -> List[SpectralRoot]:
    """All determinant roots of a block, physical ones carrying null vectors.

    Model 1 yields n+1 roots (all real for permissible blocks), model 2
    yields 2(n+1) roots of which the physical ones are the real negative chi.
    Roots are sorted by ascending energy; non-real roots, which can only be
    unphysical, come last.
    """
    return list(solve_block(config, block, precision).roots)


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


def radial_norm(
    config: ModelConfig, block: BlockSpec, root: SpectralRoot
) -> Tuple[float, float]:
    """(integral of |R|^2 rho d rho, fraction contributed past the decay radius)."""
    _require_physical(root)
    from scipy.integrate import quad

    def integrand(r: float) -> float:
        return float(radial_values(config, block, root, r)) ** 2 * r

    split = decay_split(config, root)
    head, _ = quad(integrand, 0.0, split, limit=200)
    tail, _ = quad(integrand, split, 2.0 * split, limit=200)
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
