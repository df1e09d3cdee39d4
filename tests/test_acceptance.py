"""Acceptance suite: nine criteria, one printed pass/fail line each.

Criteria 1-3 pin closed-form anchors directly; 4-9 drive the library's own
verification checks at full level with a fixed seed and enforce the stated
runtime budgets.  Criterion 5, the exact inertia certificate, proves each
printed root isolated and each block's bound-state count.
"""

import time

import numpy as np
import pytest

from heun_spectra import (
    BlockSpec,
    ModelConfig,
    make_block,
    permissible_blocks,
    schrodinger_residual,
    solve_block,
)
from heun_spectra import verification
from heun_spectra.models import Example

SEED = verification.DEFAULT_SEED


def _emit(capsys, num, ok, detail, seconds, budget):
    status = "PASS" if ok and seconds < budget else "FAIL"
    with capsys.disabled():
        print(f"[criterion {num:2d}] {status} {detail} ({seconds:.2f} s)")
    assert ok, detail
    assert seconds < budget, f"runtime {seconds:.2f} s exceeds {budget} s"


def _run_check(func, capsys, num, budget):
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    ok, detail = func(rng, True)
    _emit(capsys, num, ok, detail, time.perf_counter() - start, budget)


def test_criterion_01_single_root_anchor(capsys):
    # k=1 degree-0 block: one root at lambda = epsilon, and the assembled
    # state solves the radial equation on a fine grid
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    grid = np.linspace(0.1, 3.0, 2901)
    worst_gap = 0.0
    worst_res = 0.0
    for _ in range(20):
        eps = rng.uniform(-5.0, 5.0)
        config = ModelConfig(Example(1), "a", 1, eps)
        block = BlockSpec(n=0, l=0, sigma=+1)
        roots = solve_block(config, block).roots
        assert len(roots) == 1
        gap = abs(roots[0].value - eps) / max(1.0, abs(eps))
        res = schrodinger_residual(config, block, roots[0], grid)
        worst_gap = max(worst_gap, gap)
        worst_res = max(worst_res, res)
    ok = worst_gap < 1e-12 and worst_res < 1e-5
    detail = (f"20 draws: worst |root-eps| {worst_gap:.2e}, "
              f"worst equation residual {worst_res:.2e}")
    _emit(capsys, 1, ok, detail, time.perf_counter() - start, 1.0)


def test_criterion_02_pair_anchor(capsys):
    start = time.perf_counter()
    config = ModelConfig(Example(1), "a", 1, 0.0)
    roots = sorted(r.value for r in solve_block(config, BlockSpec(1, 1, +1)).roots)
    gap = max(abs(roots[0] + 4.0), abs(roots[1] - 4.0))
    ok = len(roots) == 2 and gap < 1e-10
    _emit(capsys, 2, ok, f"degree-1 roots {{-4, +4}}: worst gap {gap:.2e}",
          time.perf_counter() - start, 1.0)


def test_criterion_03_nonrational_anchors(capsys):
    start = time.perf_counter()
    first = ModelConfig(Example(2), "first", -1, 15.0)
    roots = solve_block(first, make_block(first, 0, 1)).roots
    values = sorted(float(np.real(r.value)) for r in roots)
    physical = [r for r in roots if r.physical]
    gap = max(abs(values[0] + 1.0), abs(values[1] - 3.0))
    ok = (len(roots) == 2 and gap < 1e-10 and len(physical) == 1
          and abs(physical[0].value + 1.0) < 1e-10
          and abs(physical[0].energy + 1.0) < 1e-10)

    second = ModelConfig(Example(2), "second", 1, 15.0)
    block = permissible_blocks(second, n_max=0)[0]
    phys2 = [r for r in solve_block(second, block).roots if r.physical]
    gap2 = abs(phys2[0].value + 1.0)
    ok = ok and len(phys2) == 1 and gap2 < 1e-10

    detail = (f"first family roots {{-1, 3}} gap {gap:.2e}, "
              f"second family physical root -1 gap {gap2:.2e}")
    _emit(capsys, 3, ok, detail, time.perf_counter() - start, 1.0)


def test_criterion_04_sequence_identities(capsys):
    _run_check(verification.check_sequence_identities, capsys, 4, 5.0)


def test_criterion_05_inertia_certificate(capsys):
    _run_check(verification.check_inertia_certificate, capsys, 5, 5.0)


def test_criterion_06_ode_residuals(capsys):
    _run_check(verification.check_ode_residuals, capsys, 6, 10.0)


def test_criterion_07_field_identities(capsys):
    _run_check(verification.check_field_identities, capsys, 7, 5.0)


def test_criterion_08_oracle_cross_validation(capsys):
    _run_check(verification.check_oracle_agreement, capsys, 8, 300.0)


def test_criterion_09_orthogonality_normalizability(capsys):
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    ok1, d1 = verification.check_orthogonality(rng, True)
    ok2, d2 = verification.check_normalizability(rng, True)
    _emit(capsys, 9, ok1 and ok2, f"{d1}; {d2}",
          time.perf_counter() - start, 30.0)
