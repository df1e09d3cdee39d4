"""Finite-difference eigensolver checks against known spectra."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import jn_zeros

from heun_spectra import (
    BlockSpec,
    GridSpec,
    ModelConfig,
    ParameterError,
    PrecisionError,
    compare_spectra,
    permissible_blocks,
    radial_eigensolve,
    solve_block,
)
from heun_spectra import oracle
from heun_spectra.models import Example
from heun_spectra.oracle import lowest_eigenpairs, solve_effective_potential


SCIPY_FAILURES = {  # the LinAlgError of eigh_tridiagonal when LAPACK returns info = 1
    "dstebz": "stebz (eigh_tridiagonal) did not converge (LAPACK info=1)",
    "dstein": "stein (eigh_tridiagonal) 1 eigenvectors failed to converge",
}


def dense(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def solve_with_matrix(v_eff, grid, count):
    """solve_effective_potential's result and the tridiagonal it solved."""
    vals, vecs = solve_effective_potential(v_eff, grid, count)
    return vals, vecs, dense(*oracle.channel_matrix(v_eff, grid))


def wall_potential(grid, l, amplitudes):
    """A smooth potential plus a centrifugal wall, which lifts ||T|| to
    l^2 / rho_min^2 as in the channels the oracle solves."""
    r = grid.rhos()
    phase = np.pi * (r - grid.rho_min) / (grid.rho_max - grid.rho_min)
    return l * l / (r * r) + sum(a * np.cos(j * phase) for j, a in enumerate(amplitudes))


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ParameterError):
            GridSpec(0.0, 8.0, 400)
        with pytest.raises(ParameterError):
            GridSpec(2.0, 1.0, 400)
        with pytest.raises(ParameterError):
            GridSpec(1e-3, 8.0, 50)
        for rho_min, rho_max in ((1e-3, math.inf), (-math.inf, 8.0), (math.nan, 8.0),
                                 (1e-3, math.nan)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ParameterError, match="finite"):
                    GridSpec(rho_min, rho_max, 200)
        for points in (200.5, 200.0, "200", True):
            with pytest.raises(ParameterError, match="integer"):
                GridSpec(1e-3, 8.0, points)
        assert GridSpec(1e-3, 8.0, np.int64(200)).rhos().size == 200

    def test_spacing(self):
        g = GridSpec(1.0, 2.0, 101)
        assert g.h == pytest.approx(0.01)
        assert len(g.rhos()) == 101


class TestSolver:
    def test_count_capacity(self):
        g = GridSpec(1e-3, 8.0, 100)
        v = np.zeros(100)
        with pytest.raises(ParameterError):
            solve_effective_potential(v, g, 99)
        with pytest.raises(ParameterError):
            solve_effective_potential(v, g, 0)
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        for points in (200, 2000):
            g = GridSpec(1e-3, 8.0, points)
            v = np.zeros(points)
            for count in (2.5, np.float64(2.0), True, "3", None):
                with pytest.raises(ParameterError, match="integer"):
                    solve_effective_potential(v, g, count)
                with pytest.raises(ParameterError, match="integer"):
                    radial_eigensolve(cfg, 0, +1, g, count)
            assert solve_effective_potential(v, g, np.int64(2))[0].size == 2
        # lowest_eigenpairs used to hand these to scipy, which raised a raw
        # ValueError or TypeError, or took True as 1
        diag, off = np.arange(10.0), np.ones(9)
        for count in (0, 11, -1):
            with pytest.raises(ParameterError, match="^count .* size 10 of T$"):
                lowest_eigenpairs(diag, off, count)
        for count in (2.5, np.float64(2.0), True, "3", None):
            with pytest.raises(ParameterError, match="^count must be an integer$"):
                lowest_eigenpairs(diag, off, count)
        assert lowest_eigenpairs(diag, off, np.int64(10))[0].size == 10

    def test_potential_must_match_grid(self):
        g = GridSpec(1e-3, 8.0, 200)
        with pytest.raises(ParameterError):
            solve_effective_potential(np.zeros(100), g, 1)

    def test_free_disk_bessel_levels(self):
        # V = 0 on a grid reaching the axis: eigenvalues are (j0_m / R)^2
        # with the Dirichlet wall sitting one spacing outside rho_max
        g = GridSpec(2e-3, 10.0, 5000)
        vals, _ = solve_effective_potential(np.zeros(g.points), g, 3)
        wall = g.rho_max + g.h
        expect = (jn_zeros(0, 3) / wall) ** 2
        assert np.allclose(vals, expect, rtol=2e-4)

    def test_full_capacity(self):
        g = GridSpec(1e-3, 8.0, 100)
        v = 3.0 * np.cos(g.rhos())
        vals, vecs, matrix = solve_with_matrix(v, g, g.points - 2)
        exact = np.linalg.eigvalsh(matrix)
        assert vecs.shape == (100, 98)
        assert np.max(np.abs(vals - exact[:98])) <= 1e-12 * np.max(np.abs(exact))
        assert np.allclose(vecs.T @ vecs, np.eye(98), atol=1e-12)

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        rho_min=st.floats(1e-3, 0.5),
        width=st.floats(2.0, 40.0),
        points=st.integers(100, 600),
        count=st.integers(1, 10),
        l=st.integers(0, 10),
        amplitudes=st.lists(st.floats(-50.0, 50.0), min_size=4, max_size=4),
    )
    def test_levels_match_dense_eigvalsh(self, rho_min, width, points, count,
                                         l, amplitudes):
        g = GridSpec(rho_min, rho_min + width, points)
        v = wall_potential(g, l, amplitudes)
        vals, _, matrix = solve_with_matrix(v, g, count)
        exact = np.linalg.eigvalsh(matrix)
        assert np.max(np.abs(vals - exact[:count])) <= 1e-12 * np.max(np.abs(exact))

    @settings(max_examples=25, deadline=None, database=None)
    @given(
        rho_min=st.floats(1e-3, 0.5),
        width=st.floats(2.0, 40.0),
        points=st.integers(2000, 8000),
        count=st.integers(1, 14),
        l=st.integers(0, 10),
        amplitudes=st.lists(st.floats(-50.0, 50.0), min_size=4, max_size=4),
    )
    def test_two_grid_levels_match_bisection(self, rho_min, width, points, count,
                                             l, amplitudes):
        # the grids the coarse start serves, against full-accuracy bisection
        # of the same fine matrix
        g = GridSpec(rho_min, rho_min + width, points)
        v = wall_potential(g, l, amplitudes)
        vals, _ = solve_effective_potential(v, g, count)
        diag, off = oracle.channel_matrix(v, g)
        exact = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, count - 1),
                                     lapack_driver="stebz")
        norm = np.max(np.abs(diag)) + 2 * np.max(np.abs(off))
        assert np.max(np.abs(vals - exact)) <= (
            oracle.RITZ_RESIDUAL_ULPS * np.finfo(float).eps * norm)

    def test_mirror_pairs_split_below_1e_10_are_both_resolved(self):
        # two identical wells joined by a 1e-6 coupling: every level of one
        # well becomes a pair split far below the bisection width
        half = 300
        x = np.linspace(-1.0, 1.0, half)
        well = 2.0 + 0.5 * (x + 0.3) ** 2
        diag = np.concatenate([well, well[::-1]])
        off = np.full(2 * half - 1, -1.0)
        off[half - 1] = -1e-6
        exact = np.linalg.eigvalsh(dense(diag, off))
        splits = exact[1:8:2] - exact[0:8:2]
        assert np.all((splits > 0) & (splits < 1e-10))
        vals, vecs = lowest_eigenpairs(diag, off, 8)
        assert np.max(np.abs(vals - exact[:8])) <= 1e-14
        assert np.allclose(vecs.T @ vecs, np.eye(8), atol=1e-12)
        residual = dense(diag, off) @ vecs - vecs * vals
        assert np.max(np.abs(residual)) <= 1e-13

    def test_missed_gate_reshifts_at_the_ritz_values(self):
        # the first fine round, shifted at the coarse levels, misses the gate;
        # the second is one shifted solve per level at the first round's Ritz
        # values, with no second bisection
        g = GridSpec(0.5, 30.0, 2 * oracle.COARSE_POINTS)
        v = 1.0 / g.rhos() ** 2
        rounds = []
        real = oracle._shifted_solves

        def recording(diag, off, vecs, shifts):
            out = real(diag, off, vecs, shifts)
            rounds.append((np.array(shifts), out))
            return out

        lapack = scipy.linalg.lapack
        with mock.patch.object(oracle, "_bisect", wraps=oracle._bisect) as bisect, \
                mock.patch.object(oracle, "_shifted_solves", recording), \
                mock.patch.object(lapack, "dgtsv", wraps=lapack.dgtsv) as gtsv:
            vals, _, matrix = solve_with_matrix(v, g, 3)
        assert bisect.call_count == 1
        assert len(rounds) == 2 and gtsv.call_count == 2 * 3
        basis = np.linalg.qr(rounds[0][1])[0]
        ritz = np.linalg.eigvalsh(basis.T @ matrix @ basis)
        assert np.allclose(rounds[1][0], ritz, rtol=1e-12, atol=0.0)
        assert not np.allclose(rounds[1][0], rounds[0][0], rtol=1e-12, atol=0.0)
        exact, _ = lowest_eigenpairs(*oracle.channel_matrix(v, g), 3)
        norm = np.linalg.norm(matrix, np.inf)
        assert np.max(np.abs(vals - exact)) <= 0.5 * np.finfo(float).eps * norm

    @pytest.mark.parametrize("routine, points", [
        ("dstebz", 200), ("dstebz", 2 * oracle.COARSE_POINTS),
        ("dstein", 200), ("dstein", 2 * oracle.COARSE_POINTS),
        ("dgtsv", 2 * oracle.COARSE_POINTS)])
    def test_lapack_failure_raises_precision_error(self, monkeypatch, routine, points):
        # bisection fails in the direct solve (200 points) and in the coarse
        # start (1,000 points), a shifted solve in the fine refinement
        if routine == "dgtsv":
            real = scipy.linalg.lapack.dgtsv

            def failing(*args):
                *out, _ = real(*args)
                return (*out, 1)

            monkeypatch.setattr(scipy.linalg.lapack, routine, failing)
        else:
            def failing(*args, **kwargs):
                raise scipy.linalg.LinAlgError(SCIPY_FAILURES[routine])

            monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", failing)
        g = GridSpec(0.5, 30.0, points)
        with pytest.raises(PrecisionError, match=r"LAPACK (dgtsv|bisection) failed"):
            solve_effective_potential(1.0 / g.rhos() ** 2, g, 3)

    def test_sturm_count_failure_raises_precision_error(self, monkeypatch):
        real = scipy.linalg.lapack.dstebz

        def failing_count(d, e, rng, *args):
            *out, info = real(d, e, rng, *args)
            return (*out, 1 if rng == 1 else info)

        monkeypatch.setattr(scipy.linalg.lapack, "dstebz", failing_count)
        g = GridSpec(1e-3, 8.0, 2 * oracle.COARSE_POINTS)
        with pytest.raises(PrecisionError, match="info = 1"):
            solve_effective_potential(np.zeros(g.points), g, 3)

    @pytest.mark.parametrize("start", ["rough", "perturbed"])
    def test_fine_refinement_missing_the_gate_falls_back(self, monkeypatch, start):
        # rough coarse vectors miss the gate and the Sturm count; the fine
        # eigenvectors perturbed by 1e-6 pass the count and miss only the gate
        g = GridSpec(1e-3, 8.0, 2 * oracle.COARSE_POINTS)
        v = np.zeros(g.points)
        direct_vals, direct_vecs = lowest_eigenpairs(*oracle.channel_matrix(v, g), 3)
        real = oracle._bisect

        def rough(diag, off, count, tol=0.0):
            vals, vecs = real(diag, off, count, tol)
            if diag.size == oracle.COARSE_POINTS:
                # orthonormal but not invariant: Rayleigh-Ritz cannot rescue it
                vecs, _ = np.linalg.qr(np.cos(np.outer(np.arange(diag.size), vals + 1.0)))
            return vals, vecs

        def idle(dl, d, du, b):
            # a shifted solve that returns its right-hand side unchanged
            return dl, d, du, b.copy(), 0

        monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", idle)
        if start == "perturbed":
            noise = 1e-6 * np.cos(np.arange(g.points))[:, None]
            monkeypatch.setattr(oracle, "_prolong", lambda *args: direct_vecs + noise)
        with mock.patch.object(oracle, "_bisect",
                               wraps=rough if start == "rough" else real) as spy:
            vals, vecs = solve_effective_potential(v, g, 3)
        assert [call.args[0].size for call in spy.call_args_list] == [
            oracle.COARSE_POINTS, g.points]
        assert np.array_equal(vals, direct_vals)
        assert np.array_equal(vecs, direct_vecs)

    def test_non_finite_potential_rejected(self):
        g = GridSpec(1e-3, 8.0, 200)
        v = np.zeros(g.points)
        v[7] = np.inf
        with pytest.raises(ParameterError, match="finite"):
            solve_effective_potential(v, g, 1)

    def test_eigenvector_columns(self):
        g = GridSpec(1e-3, 8.0, 500)
        vals, vecs = solve_effective_potential(np.zeros(g.points), g, 4)
        assert vecs.shape == (500, 4)
        assert list(vals) == sorted(vals)

class TestTwoGridStart:
    def test_fine_grid_starts_on_the_coarse_subgrid(self):
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        with mock.patch.object(oracle, "_bisect", wraps=oracle._bisect) as spy:
            vals = radial_eigensolve(cfg, 0, +1, GridSpec(1e-3, 8.0, 4000), 1)
        assert spy.call_count == 1
        assert spy.call_args.args[0].size == oracle.COARSE_POINTS
        assert vals[0] == pytest.approx(1.0, abs=1e-3)

    def test_memory_stays_linear_in_the_grid(self):
        # an n x n work array at 8,000 points would be 488 MB
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        grid = GridSpec(1e-3, 8.0, 8000)
        radial_eigensolve(cfg, 0, +1, grid, 1)  # loads scipy outside the trace
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                radial_eigensolve(cfg, 0, +1, grid, 14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_direct_solve_memory_stays_linear_in_the_grid(self):
        # the fallback's bisection on the 8,000-point channel above: stemr
        # would allocate an n x n array there
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        grid = GridSpec(1e-3, 8.0, 8000)
        diag, off = oracle.channel_matrix(
            oracle.effective_potential(cfg, 0, +1, grid.rhos()), grid)
        lowest_eigenpairs(diag, off, 1)  # loads scipy outside the trace
        tracemalloc.start()
        try:
            vals, _ = lowest_eigenpairs(diag, off, 14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vals.size == 14
        assert peak < 32 * 2**20

    def test_more_levels_than_the_subgrid_holds_are_solved_directly(self):
        g = GridSpec(1e-3, 8.0, 2 * oracle.COARSE_POINTS)
        count = oracle.COARSE_POINTS + 1
        vals, _, matrix = solve_with_matrix(3.0 * np.cos(g.rhos()), g, count)
        exact = np.linalg.eigvalsh(matrix)
        assert np.max(np.abs(vals - exact[:count])) <= 1e-12 * np.max(np.abs(exact))

    def test_level_hidden_from_the_coarse_subgrid_falls_back(self):
        # a one-point well between coarse nodes binds a level that the
        # coarse start cannot see: the Sturm count rejects the refined
        # levels and the fine matrix is solved directly
        g = GridSpec(1e-3, 8.0, 4 * oracle.COARSE_POINTS)
        stride = g.points // oracle.COARSE_POINTS
        v = np.zeros(g.points)
        v[10 * stride + 1] = -1e4
        with mock.patch.object(oracle, "_bisect", wraps=oracle._bisect) as spy:
            vals, vecs = solve_effective_potential(v, g, 3)
        assert [call.args[0].size for call in spy.call_args_list] == [
            oracle.COARSE_POINTS, g.points]
        direct_vals, direct_vecs = lowest_eigenpairs(*oracle.channel_matrix(v, g), 3)
        assert vals[0] < -100.0
        assert np.array_equal(vals, direct_vals)
        assert np.array_equal(vecs, direct_vecs)


class TestRadialEigensolve:
    def test_model1_ground_channel(self):
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        vals = radial_eigensolve(cfg, 0, +1, GridSpec(1e-3, 8.0, 4000), 1)
        assert vals[0] == pytest.approx(1.0, abs=1e-3)

    def test_model2_bound_channel(self):
        cfg = ModelConfig(Example(2), "first", -1, 15.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            vals = radial_eigensolve(cfg, 1, +1, GridSpec(1e-3, 40.0, 8000), 3)
        assert min(abs(v + 1.0) for v in vals) < 1e-3

    def test_model1_k_zero_blocks(self):
        cfg = ModelConfig(Example(1), "a", 0, 1.0)
        for block in permissible_blocks(cfg, n_max=2):
            analytic = [r.energy for r in solve_block(cfg, block).roots if r.physical]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                numeric = radial_eigensolve(cfg, block.l, block.sigma,
                                            GridSpec(1e-3, 8.0, 4000), len(analytic) + 2)
            report = compare_spectra(analytic, numeric, tol=1e-4)
            assert report.passed and len(report.pairs) == block.n + 1

    def test_second_order_convergence(self):
        cfg = ModelConfig(Example(1), "a", 1, 0.0)
        errors = []
        for points in (500, 1000, 2000):
            vals = radial_eigensolve(cfg, 1, +1, GridSpec(1e-3, 8.0, points), 1)
            errors.append(abs(vals[0] - (-4.0)))
        assert 3.0 < errors[0] / errors[1] < 5.5
        assert 3.0 < errors[1] / errors[2] < 5.5

    def test_box_warning_when_state_touches_wall(self):
        cfg = ModelConfig(Example(1), "a", 1, 0.0)
        with pytest.warns(RuntimeWarning, match="enlarge the box"):
            radial_eigensolve(cfg, 1, +1, GridSpec(1e-3, 2.5, 800), 2)

    def test_box_levels_above_a_confined_ground_state_do_not_warn(self):
        # model 2 binds one state here (E = -1); the three columns above it
        # are continuum levels of the box, whose edge ratios reach 3e-5 to
        # 4e-3, while the ground state's is 2e-16
        cfg = ModelConfig(Example(2), "first", -1, 15.0)
        grid = GridSpec(1e-3, 40.0, 2000)
        _, vecs = solve_effective_potential(
            oracle.effective_potential(cfg, 1, +1, grid.rhos()), grid, 4)
        edge = np.abs(vecs[-1]) / np.abs(vecs).max(axis=0)
        assert edge[0] < 1e-12 and (edge[1:] > oracle.BOX_AMPLITUDE_TOL).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            vals = radial_eigensolve(cfg, 1, +1, grid, 4)
        assert vals[0] == pytest.approx(-1.0, abs=1e-3)

    def test_box_size_invariance(self):
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        a = radial_eigensolve(cfg, 0, +1, GridSpec(1e-3, 8.0, 4000), 1)[0]
        b = radial_eigensolve(cfg, 0, +1, GridSpec(1e-3, 12.0, 6000), 1)[0]
        assert abs(a - b) < 1e-6

    def test_variational_floor(self):
        # no numeric level sits below the analytic channel ground by more
        # than the discretization error
        cfg = ModelConfig(Example(1), "a", 2, 0.7)
        block = BlockSpec(n=2, l=1, sigma=+1)
        analytic = min(r.energy for r in solve_block(cfg, block).roots if r.physical)
        vals = radial_eigensolve(
            cfg, block.l, block.sigma, GridSpec(1e-3, 8.0, 4000), 1)
        assert vals[0] > analytic - 1e-3


class TestCompareSpectra:
    def test_identical(self):
        report = compare_spectra([1.0, 2.0], [1.0, 2.0])
        assert report.passed
        assert report.max_error == 0.0

    def test_threshold_arithmetic(self):
        report = compare_spectra([-1.0], [-0.9995, 3.2], tol=1e-2)
        assert report.passed
        assert report.pairs[0][:2] == (-1.0, -0.9995)

    def test_missing_level_reported(self):
        report = compare_spectra([-1.0, 5.0], [-1.0], tol=1e-3)
        assert not report.passed
        assert report.unmatched == (5.0,)

    def test_each_numeric_level_used_once(self):
        report = compare_spectra([1.0, 1.0], [1.0, 9.0], tol=1e-3)
        assert len(report.pairs) == 1
        assert report.unmatched == (1.0,)
