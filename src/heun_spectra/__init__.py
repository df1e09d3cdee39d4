"""Bound-state spectra of two integrable planar magnetic Schrodinger systems.

The solvable families reduce to polynomial solutions of the biconfluent and
confluent Heun equations; each angular block's spectrum is the root set of a
tridiagonal determinant, found as the eigenvalues of a structured matrix and
independently cross-checked by a Lagrange-mesh radial eigensolver.

The names of ``__all__`` load their module on first access, so importing the
package, or ``heun_spectra.families`` for the block rules, loads no numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# The module that defines each name of __all__.
_SOURCES = {
    "errors": ("ParameterError", "PrecisionError", "RecurrenceBreakdownError",
               "SelectionError"),
    "families": ("BlockSpec", "Example", "ModelConfig", "make_block", "permissible_blocks"),
    "heun_core": ("HeunBParams", "HeunCParams", "PolynomialCoefficients", "heunb_degree",
                  "heunb_ode_residual", "heunb_sequences", "heunc_degree",
                  "heunc_ode_residual", "heunc_sequences", "polynomial_from_recurrence"),
    "models": ("BlockResult", "RadialProfile", "SpectralRoot", "SpectrumRecord",
               "block_sequences", "magnetic_field", "radial_norm", "radial_profile",
               "scalar_potential", "schrodinger_residual", "solve_block", "solve_record",
               "t_of_rho", "total_flux", "vector_potential", "wavefunction"),
    "oracle": ("GridSpec", "MatchReport", "compare_spectra", "radial_eigensolve"),
    "spectral": ("determinant_numeric",),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """A name of __all__, imported from its module on first access (PEP 562)."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
