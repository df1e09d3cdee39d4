"""Bound-state spectra of two integrable planar magnetic Schrodinger systems.

The solvable families reduce to polynomial solutions of the biconfluent and
confluent Heun equations; each angular block's spectrum is the root set of a
tridiagonal determinant, found as the eigenvalues of a structured matrix and
independently cross-checked by a finite-difference radial eigensolver.
"""

from .errors import (
    ParameterError,
    PrecisionError,
    RecurrenceBreakdownError,
    SelectionError,
)
from .heun_core import (
    HeunBParams,
    HeunCParams,
    PolynomialCoefficients,
    heunb_degree,
    heunb_ode_residual,
    heunb_sequences,
    heunc_degree,
    heunc_ode_residual,
    heunc_sequences,
    polynomial_from_recurrence,
)
from .models import (
    BlockResult,
    BlockSpec,
    Example,
    ModelConfig,
    RadialProfile,
    SpectralRoot,
    SpectrumRecord,
    block_sequences,
    magnetic_field,
    make_block,
    permissible_blocks,
    radial_norm,
    radial_profile,
    scalar_potential,
    schrodinger_residual,
    solve_block,
    solve_record,
    t_of_rho,
    total_flux,
    vector_potential,
    wavefunction,
)
from .oracle import GridSpec, MatchReport, compare_spectra, radial_eigensolve
from .spectral import (
    dense_determinant,
    determinant_numeric,
    determinant_polynomial,
)

__version__ = "0.1.0"

__all__ = [
    "BlockResult",
    "BlockSpec",
    "Example",
    "GridSpec",
    "HeunBParams",
    "HeunCParams",
    "MatchReport",
    "ModelConfig",
    "ParameterError",
    "PolynomialCoefficients",
    "PrecisionError",
    "RadialProfile",
    "RecurrenceBreakdownError",
    "SelectionError",
    "SpectralRoot",
    "SpectrumRecord",
    "block_sequences",
    "compare_spectra",
    "dense_determinant",
    "determinant_numeric",
    "determinant_polynomial",
    "heunb_degree",
    "heunb_ode_residual",
    "heunb_sequences",
    "heunc_degree",
    "heunc_ode_residual",
    "heunc_sequences",
    "magnetic_field",
    "make_block",
    "permissible_blocks",
    "polynomial_from_recurrence",
    "radial_eigensolve",
    "radial_norm",
    "radial_profile",
    "scalar_potential",
    "schrodinger_residual",
    "solve_block",
    "solve_record",
    "t_of_rho",
    "total_flux",
    "vector_potential",
    "wavefunction",
]
