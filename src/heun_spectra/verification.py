"""Named self-checks wiring the analytic pipeline against independent routes.

Each check recomputes something the solver claims through a second path:
generic recurrence sequences against the model-substituted ones, printed
roots against an exact inertia count of the quantization matrix, assembled
wavefunctions against the differential equations and the Lagrange-mesh
eigensolver, field definitions against numerical derivatives.  The CLI
`verify` subcommand and the test suite both run through this module.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Tuple

import numpy as np

from . import heun_core, models, oracle, spectral
from .errors import ParameterError, require_integer
from .heun_core import HeunBParams, HeunCParams, Recurrence
from .models import BlockSpec, Example, ModelConfig

QUICK = "quick"
FULL = "full"
DEFAULT_SEED = 20240817


def _rel(x: float, y: float) -> float:
    return abs(x - y) / max(1.0, abs(x), abs(y))


def _heunb_params_for(config: ModelConfig, block: BlockSpec, s: float) -> HeunBParams:
    l, k, eps = float(block.l), config.k, config.epsilon
    m = block.sigma * l  # sigma |l|: one formula for both cases
    return HeunBParams(alpha=l, beta=eps, gamma=3 * m + 2 * k, delta=-m * eps - s)


def _heunc_params_for(config: ModelConfig, block: BlockSpec, s: float) -> HeunCParams:
    k, l, eps = config.k, block.l, config.epsilon
    eta = 0.5 * (k * k - l * l) + 0.25 * (eps + 1.0) - s * s
    return HeunCParams(alpha=4.0 * s, beta=float(block.sigma * (k - l)),
                       gamma=float(k + l), delta=0.0, eta=eta)


def _bound(config: ModelConfig, block: BlockSpec) -> List[models.SpectralRoot]:
    """The block's physical roots, in printed order."""
    return [r for r in models.solve_block(config, block).roots if r.physical]


# ---------------------------------------------------------------------------
# individual checks; each returns (passed, detail)


def check_sequence_identities(
    rng: np.random.Generator, full: bool
) -> Tuple[bool, str]:
    """Generic Heun sequences equal the model-substituted ones entrywise."""
    trials = 200 if full else 40
    worst = 0.0
    degree_ok = True
    count = 0
    for family in ("1a", "1b", "2first", "2second"):
        for _ in range(trials):
            eps = float(rng.uniform(-5.0, 5.0))
            s = float(rng.uniform(-8.0, 8.0))
            l = None
            if family == "1a":
                k = int(rng.integers(1, 7))
                n = int(rng.integers(max(0, k - 1), 13))
                config = ModelConfig(Example(1), "a", k, eps)
            elif family == "1b":
                l = int(rng.integers(0, 7))
                n = int(rng.integers(0, 13))
                config = ModelConfig(Example(1), "b", n + 1 + 2 * l, eps)
            else:
                if s == 0.0:
                    s = 0.5
                if family == "2first":
                    k = -int(rng.integers(1, 7))
                    n = -k - 1
                    l = int(rng.integers(-k, -k + 7))
                    config = ModelConfig(Example(2), "first", k, eps)
                else:
                    k = int(rng.integers(1, 8))
                    n = int(rng.integers(0, k))
                    config = ModelConfig(Example(2), "second", k, eps)
            block = models.make_block(config, n, l)
            if config.example is Example.REPULSIVE_POLYNOMIAL:
                params = _heunb_params_for(config, block, s)
                generic = heun_core.heunb_sequences(params, n)
                degree_ok &= heun_core.heunb_degree(params) == n
            else:
                params = _heunc_params_for(config, block, s)
                generic = heun_core.heunc_sequences(params, n)
                degree_ok &= heun_core.heunc_degree(params) == n
            ga, gb, gc = generic.at(s)
            ma, mb, mc = models.block_recurrence(config, block).at(s)
            for gx, mx in ((ga, ma), (gb, mb), (gc, mc)):
                for gv, mv in zip(gx, mx):
                    worst = max(worst, _rel(float(gv), float(mv)))
            count += 1
    passed = worst <= 1e-12 and degree_ok
    return passed, (
        f"{count} tuples, worst entry deviation {worst:.2e}, "
        f"degree conditions {'ok' if degree_ok else 'VIOLATED'}"
    )


def check_closed_form_anchors(
    rng: np.random.Generator, full: bool
) -> Tuple[bool, str]:
    """Hand-solvable blocks: lambda = eps; {-4, 4}; chi in {-1, 3} with -1 physical."""
    worst = 0.0
    ok = True
    for _ in range(20):
        eps = float(rng.uniform(-5.0, 5.0))
        config = ModelConfig(Example(1), "a", 1, eps)
        roots = models.solve_block(config, BlockSpec(n=0, l=0, sigma=+1)).roots
        ok &= len(roots) == 1 and roots[0].physical
        worst = max(worst, abs(roots[0].value - eps) / max(1.0, abs(eps)))
    ok &= worst <= 1e-12

    config_b = ModelConfig(Example(1), "a", 1, 0.0)
    roots_b = models.solve_block(config_b, BlockSpec(n=1, l=1, sigma=+1)).roots
    vals_b = sorted(r.value for r in roots_b)
    dev_b = max(abs(vals_b[0] + 4.0), abs(vals_b[1] - 4.0)) if len(vals_b) == 2 else math.inf
    ok &= dev_b <= 1e-10

    config_c1 = ModelConfig(Example(2), "first", -1, 15.0)
    roots_c1 = models.solve_block(config_c1, BlockSpec(n=0, l=1, sigma=+1)).roots
    vals_c1 = sorted(complex(r.value).real for r in roots_c1)
    phys_c1 = [r for r in roots_c1 if r.physical]
    dev_c1 = max(abs(vals_c1[0] + 1.0), abs(vals_c1[1] - 3.0)) if len(vals_c1) == 2 else math.inf
    ok &= dev_c1 <= 1e-10 and len(phys_c1) == 1
    ok &= phys_c1 and abs(phys_c1[0].value + 1.0) <= 1e-10
    ok &= phys_c1 and abs(phys_c1[0].energy + 1.0) <= 1e-10

    config_c2 = ModelConfig(Example(2), "second", 1, 15.0)
    roots_c2 = models.solve_block(config_c2, BlockSpec(n=0, l=-1, sigma=-1)).roots
    phys_c2 = [r for r in roots_c2 if r.physical]
    dev_c2 = abs(phys_c2[0].value + 1.0) if len(phys_c2) == 1 else math.inf
    ok &= dev_c2 <= 1e-10

    return ok, (
        f"lambda=eps dev {worst:.2e}; pair dev {dev_b:.2e}; "
        f"chi anchors dev {max(dev_c1, dev_c2):.2e}"
    )


def check_inertia_certificate(
    rng: np.random.Generator, full: bool
) -> Tuple[bool, str]:
    """Every printed physical root is isolated and every block's set complete,
    by ``spectral.certify`` in Fractions at delta = 2^-40: exact inertia.

    The blocks are every block of model 1 with k = 1..4 up to n = 10 (full)
    or 6, every block of model 2 with |k| <= 3 up to n_max = 2, and a degree
    ladder of every family up to n = 20 or 8.
    """
    n_cap = 20 if full else 8
    small = []
    for k in range(1, 5):
        for variant in ("a", "b"):
            config = ModelConfig(Example(1), variant, k, float(rng.uniform(-3, 3)))
            small += [(config, b) for b in models.permissible_blocks(config, 10 if full else 6)]
    for k in (-3, -2, -1, 1, 2, 3):
        variant = "first" if k < 0 else "second"
        config = ModelConfig(Example(2), variant, k, float(rng.uniform(-3, 8)))
        small += [(config, b) for b in models.permissible_blocks(config, n_max=2)]
    ladder = []
    for n in sorted({1, 3, n_cap // 2, n_cap}):
        for config, l in (
            (ModelConfig(Example(1), "a", 1, float(rng.uniform(-3, 3))), None),
            (ModelConfig(Example(1), "b", n + 1 + 2 * 2, float(rng.uniform(-3, 3))), None),
            (ModelConfig(Example(2), "first", -(n + 1), float(rng.uniform(-3, 8))), n + 1),
            (ModelConfig(Example(2), "second", n + 1, float(rng.uniform(-3, 8))), None),
        ):
            ladder.append((config, models.make_block(config, n, l)))
    to_fraction = np.frompyfunc(Fraction, 1, 1)
    recs = [Recurrence(*map(to_fraction, models.block_recurrence(*p))) for p in ladder + small]
    bound = [sorted(Fraction(r.value) for r in _bound(*p)) for p in ladder + small]
    roots = np.array([x for xs in bound for x in xs], dtype=object)
    owner = np.repeat(np.arange(len(recs)), [len(xs) for xs in bound])
    isolated, complete = spectral.certify(recs, roots, owner, delta=Fraction(1, 2**40))
    return bool(isolated.all() and complete.all()), (
        f"{isolated.sum()} of {len(roots)} roots isolated by exact inertia, "
        f"{complete.sum()} of {len(recs)} block sets complete (n <= {n_cap})"
    )


def check_ode_residuals(rng: np.random.Generator, full: bool) -> Tuple[bool, str]:
    """Null vectors of every family satisfy the Heun equations pointwise away
    from singularities.  Model 2 draws eps where its blocks bind: beta_0 < 0
    needs eps > 27 for the first block and eps > 7 for the second."""
    specs = [
        (ModelConfig(Example(1), "a", 1, float(rng.uniform(-2, 2))),
         BlockSpec(n=4, l=4, sigma=+1)),
        (ModelConfig(Example(1), "b", 5, float(rng.uniform(-2, 2))),
         BlockSpec(n=2, l=1, sigma=-1)),
        (ModelConfig(Example(2), "first", -2, float(rng.uniform(30, 60))),
         BlockSpec(n=1, l=3, sigma=+1)),
        (ModelConfig(Example(2), "second", 3, float(rng.uniform(10, 40))),
         BlockSpec(n=1, l=-2, sigma=-1)),
    ]
    worst = 0.0
    states = 0
    every_family = True
    for config, block in specs:
        physical = _bound(config, block)
        every_family &= len(physical) > 0
        if config.example is Example.REPULSIVE_POLYNOMIAL:
            params_for, residual, zs = _heunb_params_for, heun_core.heunb_ode_residual, (0.2, 5.0)
        else:
            params_for, residual, zs = _heunc_params_for, heun_core.heunc_ode_residual, (1.1, 6.0)
        for root in physical:
            states += 1
            params = params_for(config, block, root.value)
            for _ in range(10):
                z = float(rng.uniform(*zs))
                worst = max(worst, residual(params, root.eigenvector, z))
    ok = every_family and worst <= 1e-8
    return ok, f"{states} states, worst relative equation residual {worst:.2e}"


def _five_point_derivative(f: Callable[[float], float], x: float, h: float) -> float:
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


def check_field_identities(rng: np.random.Generator, full: bool) -> Tuple[bool, str]:
    """B equals (1/rho) d(rho A)/d rho; model 2 flux, integrated by the norm
    quadrature in y = asinh rho, where 2 pi B rho d rho / dy decays like
    e^-y, equals the closed form 2 pi k."""
    worst = 0.0
    for config in (
        ModelConfig(Example(1), "a", 2, 1.3),
        ModelConfig(Example(2), "first", -3, 7.0),
    ):
        def rho_a(r: float) -> float:
            return r * float(models.vector_potential(config, r))

        for _ in range(100):
            r = float(rng.uniform(0.1, 6.0))
            derived = _five_point_derivative(rho_a, r, 1e-3) / r
            b = float(models.magnetic_field(config, r))
            worst = max(worst, abs(derived - b) / max(1.0, abs(b)))
    ok = worst <= 1e-10

    flux_cap = 5 if full else 3
    worst_flux = 0.0
    for k in range(-flux_cap, flux_cap + 1):
        if k == 0:
            continue
        variant = "first" if k < 0 else "second"
        config = ModelConfig(Example(2), variant, k, 1.0)

        def integrand(y: np.ndarray) -> np.ndarray:
            rho = np.sinh(y)
            return 2 * math.pi * models.magnetic_field(config, rho) * rho * np.cosh(y)

        closed = models.total_flux(config)
        # far out rho^2 overflows, where B rho d rho / dy is long negligible
        with np.errstate(over="ignore"):
            numeric, _ = models._de_integral(integrand, 1.0)
        worst_flux = max(worst_flux, abs(closed - numeric) / abs(closed))
    ok &= worst_flux <= 1e-6
    return ok, (
        f"field identity dev {worst:.2e}; flux quadrature dev {worst_flux:.2e} "
        f"(|k| <= {flux_cap})"
    )


_ANCHOR_STATES = (
    (ModelConfig(Example(1), "a", 1, 1.0), BlockSpec(n=0, l=0, sigma=+1)),
    (ModelConfig(Example(1), "a", 1, 0.0), BlockSpec(n=1, l=1, sigma=+1)),
    (ModelConfig(Example(1), "b", 3, 1.0), BlockSpec(n=0, l=1, sigma=-1)),
    (ModelConfig(Example(2), "first", -1, 15.0), BlockSpec(n=0, l=1, sigma=+1)),
    (ModelConfig(Example(2), "second", 1, 15.0), BlockSpec(n=0, l=-1, sigma=-1)),
)


def check_schrodinger_residuals(
    rng: np.random.Generator, full: bool
) -> Tuple[bool, str]:
    """Assembled physical states satisfy the radial equation on a fine grid."""
    grid = np.linspace(0.1, 4.0, 3901)  # h = 1e-3
    worst = 0.0
    states = 0
    for config, block in _ANCHOR_STATES:
        for root in _bound(config, block):
            states += 1
            worst = max(worst, models.schrodinger_residual(config, block, root, grid))
    ok = states >= 5 and worst < 1e-5
    return ok, f"{states} states, worst FD residual {worst:.2e} at h = 1e-3"


def check_orthogonality(rng: np.random.Generator, full: bool) -> Tuple[bool, str]:
    """Distinct physical states of one block are orthogonal under rho d rho."""
    configs = [
        (ModelConfig(Example(1), "a", 1, 0.0), BlockSpec(n=1, l=1, sigma=+1)),
        (ModelConfig(Example(1), "a", 2, 0.8), BlockSpec(n=2, l=1, sigma=+1)),
        (ModelConfig(Example(2), "second", 2, 30.0), BlockSpec(n=1, l=-2, sigma=-1)),
    ]
    worst = 0.0
    pairs = 0
    for config, block in configs:
        roots = _bound(config, block)
        norms = [models.radial_norm(config, block, r)[0] for r in roots]
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                scale = math.sqrt(norms[i] * norms[j])
                overlap, _ = models._radial_integral(
                    config, block, roots[i], roots[j], reference=scale)
                worst = max(worst, abs(overlap) / scale)
                pairs += 1
    ok = pairs >= 4 and worst <= 1e-6
    return ok, f"{pairs} pairs, worst normalized overlap {worst:.2e}"


def check_normalizability(rng: np.random.Generator, full: bool) -> Tuple[bool, str]:
    """Physical-state norms have negligible far tails (``radial_norm``
    raises PrecisionError on a norm that is not finite and positive)."""
    worst_tail = 0.0
    states = 0
    for config, block in _ANCHOR_STATES:
        for root in _bound(config, block):
            _, tail = models.radial_norm(config, block, root)
            worst_tail = max(worst_tail, tail)
            states += 1
    ok = states >= 5 and worst_tail < 1e-12
    return ok, f"{states} states, worst tail fraction {worst_tail:.2e}"


def check_oracle_agreement(rng: np.random.Generator, full: bool) -> Tuple[bool, str]:
    """Lagrange-mesh channel spectra reproduce the analytic levels to 1e-10,
    and the smallest mesh already agrees with the certified levels."""
    box1 = oracle.GridSpec(1e-3, 8.0, 4000)  # the mesh reads only rho_max
    box2 = oracle.GridSpec(1e-3, 40.0, 8000)
    channels = [
        (ModelConfig(Example(1), "a", 1, 1.0), BlockSpec(n=0, l=0, sigma=+1), box1),
        (ModelConfig(Example(1), "a", 1, 0.0), BlockSpec(n=1, l=1, sigma=+1), box1),
        (ModelConfig(Example(1), "b", 3, 1.0), BlockSpec(n=0, l=1, sigma=-1), box1),
        (ModelConfig(Example(1), "b", 4, 0.7), BlockSpec(n=1, l=1, sigma=-1), box1),
        (ModelConfig(Example(2), "first", -1, 15.0), BlockSpec(n=0, l=1, sigma=+1), box2),
        (ModelConfig(Example(2), "second", 1, 15.0), BlockSpec(n=0, l=-1, sigma=-1), box2),
    ]
    smallest = oracle.MESH_SIZES[0]
    matched_states = 0
    worst = spread = 0.0
    for config, block, box in channels:
        analytic = [r.energy for r in _bound(config, block)]
        numeric, coarse = oracle._ladder(
            config, block.l, block.sigma, box, count=len(analytic)
        )
        report = oracle.compare_spectra(analytic, numeric, tol=1e-10)
        if not report.passed:
            return False, (
                f"unmatched levels {report.unmatched} in block {block} "
                f"of example {int(config.example)} {config.variant}"
            )
        matched_states += len(report.pairs)
        worst = max(worst, report.max_error)
        spread = max(spread, *(_rel(a, b) for a, b in zip(coarse, numeric)))
    ok = matched_states >= 6 and spread <= oracle.MESH_RTOL
    return ok, (
        f"{matched_states} states matched, worst error {worst:.2e}; the "
        f"{smallest}-point mesh agrees with the certified levels to {spread:.2e}"
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    seconds: float
    detail: str


_REGISTRY: List[Tuple[str, Callable, bool]] = [
    ("sequence-identities", check_sequence_identities, True),
    ("closed-form-anchors", check_closed_form_anchors, True),
    ("inertia-certificate", check_inertia_certificate, True),
    ("ode-residuals", check_ode_residuals, True),
    ("field-identities", check_field_identities, True),
    ("schrodinger-residuals", check_schrodinger_residuals, True),
    ("orthogonality", check_orthogonality, True),
    ("normalizability", check_normalizability, True),
    ("oracle-agreement", check_oracle_agreement, False),
]


def run_checks(level: str = QUICK, seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """Run the named checks at the given level, returning per-check results.

    Each check draws from its own generator seeded with seed, which must be
    a non-negative integer (ParameterError otherwise).
    """
    if level not in (QUICK, FULL):
        raise ParameterError(f"level must be {QUICK!r} or {FULL!r}")
    seed = require_integer(seed, "seed must be an integer")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, not {seed}")
    full = level == FULL
    results = []
    for name, func, in_quick in _REGISTRY:
        if not full and not in_quick:
            continue
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        passed, detail = func(rng, full)
        results.append(
            CheckResult(
                name=name,
                passed=passed,
                seconds=time.perf_counter() - start,
                detail=detail,
            )
        )
    return results
