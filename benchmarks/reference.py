"""Independent reference spectra and norms for the benchmark.

    PYTHONPATH=src python3 benchmarks/reference.py

rewrites ``benchmarks/reference.json`` for every pool entry in
``workloads.py`` and then runs each entry through the program once.

Roots here never go through ``spectral.find_roots``:

* model 1 blocks are symmetrized (off-diagonal sqrt(b_j c_j)) and solved with
  ``scipy.linalg.eigvalsh_tridiagonal``;
* model 2 blocks are solved through the 2(n+1) companion linearization of
  the quadratic pencil chi^2 I + chi A1 + A0, and the eigenvalues are then
  refined together by 256-bit Newton (Aberth) steps on
  ``spectral.determinant_numeric``.

Norms of bound states use a fixed 96-point Gauss-Legendre rule per panel
instead of adaptive ``quad``, on a radial factor written out here from the
model formulas rather than taken from ``models.radial_values``.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from typing import List, Sequence, Tuple

import mpmath
import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from heun_spectra import models, spectral
from heun_spectra.heun_core import polynomial_from_recurrence
from heun_spectra.models import BlockSpec, Example, ModelConfig

import ops
from workloads import (HIGH_DEGREE_SLOTS, NORM_PROBE, PROFILE_POINTS, PROFILE_RHO_MAX,
                       SAMPLE_INDICES, STATES_SLOTS, SWEEP_N_MAX, SWEEP_POOL,
                       Config, SweepOp, all_block_ops, block_key)

NEWTON_BITS = 256
GAUSS_POINTS = 96
GAUSS_PANELS = 64
# A refined root counts as real when its imaginary part is below this
# (relative); genuinely complex roots must sit above IMAG_GAP, and physical
# chi below -CHI_GAP, so no reference root is classified on a knife edge.
IMAG_REAL = 1e-30
IMAG_GAP = 1e-6
CHI_GAP = 1e-6


class ReferenceError(RuntimeError):
    """A reference route could not certify its own result."""


def _model1_roots(config: ModelConfig, block: BlockSpec) -> List[complex]:
    seqs = models.block_sequences(config, block)
    diag = np.array([-float(e.coeffs[0]) for e in seqs.a])
    prods = [float(b.coeffs[0]) * float(c.coeffs[0]) for b, c in zip(seqs.b, seqs.c)]
    if any(p <= 0 for p in prods):
        raise ReferenceError(f"b_j c_j <= 0 in {block}; cannot symmetrize")
    if not prods:
        return [complex(diag[0])]
    vals = eigvalsh_tridiagonal(diag, np.sqrt(np.array(prods)))
    return [complex(v) for v in vals]


def _companion_roots(config: ModelConfig, block: BlockSpec) -> np.ndarray:
    """Eigenvalues of the 2(n+1) linearization of det(chi^2 I + chi A1 + A0)."""
    seqs = models.block_sequences(config, block)
    size = seqs.size
    a0 = np.diag([float(e.coeffs[0]) for e in seqs.a])
    a1 = np.diag([float(e.coeffs[1]) for e in seqs.a])
    for j in range(size - 1):
        a0[j, j + 1] = float(seqs.b[j].coeffs[0])
        a1[j + 1, j] = float(seqs.c[j].coeffs[1])
    comp = np.zeros((2 * size, 2 * size))
    comp[:size, size:] = np.eye(size)
    comp[size:, :size] = -a0
    comp[size:, size:] = -a1
    return np.linalg.eigvals(comp)


def _model2_roots(config: ModelConfig, block: BlockSpec) -> List[complex]:
    """Companion eigenvalues refined by simultaneous Newton (Aberth) steps.

    In double precision the linearization loses up to a third of a unit in
    the unphysical roots at n = 24, so plain per-root Newton can land two
    starts on one root; the Aberth correction repels each iterate from the
    others and so keeps all 2(n+1) roots distinct.
    """
    with mpmath.workprec(NEWTON_BITS):
        seqs = models.block_sequences(config, block, precision=NEWTON_BITS)
        step = mpmath.mpf(2) ** -100
        tol = mpmath.mpf(2) ** -110
        xs = [mpmath.mpc(z.real, z.imag) for z in _companion_roots(config, block)]
        for _ in range(200):
            moved = 0
            for i, x in enumerate(xs):
                h = step * max(1, abs(x))
                f = spectral.determinant_numeric(seqs, x)
                df = (spectral.determinant_numeric(seqs, x + h)
                      - spectral.determinant_numeric(seqs, x - h)) / (2 * h)
                if f == 0:
                    continue
                w = f / df
                repel = sum(1 / (x - y) for j, y in enumerate(xs) if j != i)
                dx = w / (1 - w * repel)
                xs[i] = x - dx
                moved = max(moved, abs(dx) / max(1, abs(x)))
            if moved <= tol:
                break
        else:
            raise ReferenceError(f"Aberth iteration did not converge for {block}")
        # Vieta: the roots of the monic pencil determinant sum to -trace(A1)
        trace = sum(e.coeffs[1] for e in seqs.a)
        scale = max(1, sum(abs(r) for r in xs))
        if abs(sum(xs) + trace) > mpmath.mpf(10) ** -30 * scale:
            raise ReferenceError(f"refined roots of {block} fail the trace check")
        return [complex(r) for r in xs]


def block_roots(config: ModelConfig, block: BlockSpec) -> List[complex]:
    """Every determinant root of the block, by the independent route."""
    if config.example is Example.REPULSIVE_POLYNOMIAL:
        return _model1_roots(config, block)
    return _model2_roots(config, block)


def physical_values(config: ModelConfig, roots: Sequence[complex]) -> List[float]:
    """Spectral values of the physical roots, ascending in energy.

    Raises ReferenceError when a root sits too close to the reality or sign
    boundary to classify with certainty.
    """
    values = []
    for r in roots:
        scale = max(1.0, abs(r))
        if IMAG_REAL * scale < abs(r.imag) < IMAG_GAP * scale:
            raise ReferenceError(f"root {r} is neither clearly real nor complex")
        if abs(r.imag) >= IMAG_GAP * scale:
            continue
        if config.example is Example.REPULSIVE_POLYNOMIAL:
            values.append(r.real)
        elif -CHI_GAP <= r.real < CHI_GAP:
            raise ReferenceError(f"root chi = {r.real} too close to zero")
        elif r.real < 0:
            values.append(r.real)
    return sorted(values, key=lambda v: energy_of(config, v))


def energy_of(config: ModelConfig, value: float) -> float:
    return value if config.example is Example.REPULSIVE_POLYNOMIAL else -value * value


def expected_blocks(config: ModelConfig, n_max: int) -> List[Tuple[int, int, int]]:
    """(n, l, sigma) of every permissible block, in the CLI's order.

    Written out from the family rules rather than taken from
    ``models.permissible_blocks``.
    """
    k = config.k
    if config.example is Example.REPULSIVE_POLYNOMIAL:
        if config.variant == "a":
            return [(n, n + 1 - k, 1) for n in range(max(0, k - 1), n_max + 1)]
        return [(n, (k - n - 1) // 2, -1)
                for n in sorted(range(k - 1, -1, -2)) if n <= n_max]
    if config.variant == "first":
        return [(-k - 1, -k + i, 1) for i in range(n_max + 1)]
    return [(n, -n - 1, -1) for n in range(k - 1, -1, -1) if n <= n_max]


# ---------------------------------------------------------------------------
# bound states


def _coefficients(config: ModelConfig, block: BlockSpec, value: float) -> np.ndarray:
    """p_0..p_n of the polynomial factor, by the recurrence in 256 bits."""
    with mpmath.workprec(NEWTON_BITS):
        seqs = models.block_sequences(config, block, precision=NEWTON_BITS)
        poly = polynomial_from_recurrence(seqs, mpmath.mpf(value))
        return np.array([float(p) for p in poly.coeffs])


def radial_factor(config: ModelConfig, block: BlockSpec, value: float,
                  coeffs: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """R(rho) from the closed forms in the models module docstring."""
    poly = np.polynomial.Polynomial(coeffs)
    if config.example is Example.REPULSIVE_POLYNOMIAL:
        r2 = rho * rho
        return (np.exp(-r2 * r2 / 8.0 - config.epsilon * r2 / 4.0)
                * rho ** abs(block.l) * poly(r2 / 2.0))
    k, l = config.k, block.l
    t = 0.5 * (1.0 + np.sqrt(rho * rho + 1.0))
    t_exp = 0.5 * (k - l) if config.variant == "first" else 0.5 * (l - k)
    return (np.sqrt(2.0 * t - 1.0) * t ** t_exp * (t - 1.0) ** (0.5 * (k + l))
            * np.exp(2.0 * value * t) * poly(t))


def _norm_cutoff(config: ModelConfig, value: float) -> float:
    if config.example is Example.REPULSIVE_POLYNOMIAL:
        return 20.0
    # |R|^2 decays like exp(2 chi rho): at this radius it is below e^-150
    return 40.0 + 75.0 / abs(value)


def radial_norm(config: ModelConfig, block: BlockSpec, value: float,
                coeffs: np.ndarray) -> float:
    """Integral of R^2 rho over [0, cutoff], panel-wise Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(GAUSS_POINTS)
    edges = np.linspace(0.0, _norm_cutoff(config, value), GAUSS_PANELS + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    rho = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    r = radial_factor(config, block, value, coeffs, rho)
    return float(np.sum(w * r * r * rho))


# ---------------------------------------------------------------------------
# generating reference.json


def _block_entry(config: ModelConfig, n: int, l: int, with_states: bool) -> dict:
    sigma = 1 if config.variant in ("a", "first") else -1
    block = BlockSpec(n=n, l=l, sigma=sigma)
    roots = block_roots(config, block)
    entry = {"block": [n, l, sigma],
             "physical": physical_values(config, roots),
             "roots": [[r.real, r.imag] for r in roots]}
    if with_states:
        grid = np.linspace(0.0, PROFILE_RHO_MAX[int(config.example)], PROFILE_POINTS)
        entry["states"] = []
        for value in entry["physical"]:
            coeffs = _coefficients(config, block, value)
            norm = radial_norm(config, block, value, coeffs)
            scaled = radial_factor(config, block, value, coeffs, grid) / math.sqrt(norm)
            entry["states"].append({
                "norm": norm,
                "peak": float(np.max(np.abs(scaled))),
                "samples": [float(scaled[i]) for i in SAMPLE_INDICES],
            })
    return entry


def build() -> dict:
    """Reference answers for every pool entry of every workload."""
    sweep, blocks = {}, {}
    for family, pool in SWEEP_POOL.items():
        n_max = max(SWEEP_N_MAX[family])
        for entry in pool:
            config = Config(*entry)
            mc = ops.model_config(config)
            listed = expected_blocks(mc, n_max)
            program = [(b.n, b.l, b.sigma) for b in models.permissible_blocks(mc, n_max)]
            if listed != program:
                raise ReferenceError(f"block enumeration of {config} disagrees")
            sweep[config.key()] = [list(b) for b in listed]
            for n, l, _ in listed:
                blocks[block_key(config, n, l)] = _block_entry(mc, n, l, False)
    for slots, with_states in ((HIGH_DEGREE_SLOTS, False), (STATES_SLOTS, True),
                               (NORM_PROBE, True)):
        for op in all_block_ops(slots):
            blocks[op.key()] = _block_entry(ops.model_config(op.config), op.n, op.l, with_states)
    return {"sweep": sweep, "blocks": blocks}


def validate(reference: dict) -> bool:
    """Run every pool entry through the program once; print time and verdict.

    At the commit that introduced the benchmark the model-2 n = 30 blocks
    fail (see ``workloads.py``); ``NORM_PROBE`` is not run here.
    """
    todo = [("sweep", SweepOp(Config(*e), max(SWEEP_N_MAX[f]), fmt))
            for f, pool in SWEEP_POOL.items() for e in pool for fmt in ("json", "csv")]
    todo += [("high-degree", op) for op in all_block_ops(HIGH_DEGREE_SLOTS)]
    todo += [("states", op) for op in all_block_ops(STATES_SLOTS)]
    all_ok = True
    for workload, op in todo:
        start = time.perf_counter()
        raw = ops.execute(workload, op)
        seconds = time.perf_counter() - start
        ok, worst, detail = ops.check(workload, op, raw, reference)
        all_ok &= ok
        print(f"{workload:12s} {op}  {seconds:8.3f} s  "
              f"{'ok' if ok else 'FAIL'} {worst:.1e} {detail}", flush=True)
    return all_ok


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    reference = build()
    with open(os.path.join(here, "reference.json"), "w") as fh:
        json.dump(reference, fh, separators=(",", ":"))
    sys.exit(0 if validate(reference) else 1)
