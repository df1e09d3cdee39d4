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
from heun_spectra.oracle import solve_effective_potential


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
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        for count in (99, 0, -1):
            with pytest.raises(ParameterError):
                solve_effective_potential(v, g, count)
            with pytest.raises(ParameterError):
                radial_eigensolve(cfg, 0, +1, g, count)
        for points in (200, 2000):
            g = GridSpec(1e-3, 8.0, points)
            v = np.zeros(points)
            for count in (2.5, np.float64(2.0), True, "3", None):
                with pytest.raises(ParameterError, match="integer"):
                    solve_effective_potential(v, g, count)
                with pytest.raises(ParameterError, match="integer"):
                    radial_eigensolve(cfg, 0, +1, g, count)
            assert solve_effective_potential(v, g, np.int64(2))[0].size == 2

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

    def test_seeded_wall_channels_rarely_fall_back(self):
        # 150 channels from default_rng(2026) and the distribution of
        # test_two_grid_levels_match_bisection: every level lies within the
        # gate of full bisection, and no more than the 16 channels measured
        # fall back, so that any further loss of the fast path fails
        rng = np.random.default_rng(2026)
        real = oracle._bisect
        fallbacks = 0
        for _ in range(150):
            rho_min = rng.uniform(1e-3, 0.5)
            g = GridSpec(rho_min, rho_min + rng.uniform(2.0, 40.0),
                         int(rng.integers(2000, 8001)))
            count, l = int(rng.integers(1, 15)), int(rng.integers(0, 11))
            v = wall_potential(g, l, rng.uniform(-50.0, 50.0, 4))
            with mock.patch.object(oracle, "_bisect", wraps=real) as spy:
                vals, _ = solve_effective_potential(v, g, count)
            fallbacks += spy.call_count == 2
            diag, off = oracle.channel_matrix(v, g)
            norm = np.max(np.abs(diag)) + 2 * np.max(np.abs(off))
            assert np.max(np.abs(vals - real(diag, off, count)[0])) <= (
                oracle.RITZ_RESIDUAL_ULPS * np.finfo(float).eps * norm)
        assert fallbacks <= 16

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
        vals, vecs = oracle._bisect(diag, off, 8)
        assert np.max(np.abs(vals - exact[:8])) <= 1e-14
        assert np.allclose(vecs.T @ vecs, np.eye(8), atol=1e-12)
        residual = dense(diag, off) @ vecs - vecs * vals
        assert np.max(np.abs(residual)) <= 1e-13

    @staticmethod
    def recorded_solve(v, g, count):
        """The solve with its fine rounds (shifts, output), its bisections,
        its dgtsv solves and its QR and eigh factorizations recorded."""
        rounds = []
        real = oracle._shifted_solves

        def recording(diag, off, vecs, shifts):
            out = real(diag, off, vecs, shifts)
            rounds.append((np.array(shifts), out.copy()))
            return out

        lapack = scipy.linalg.lapack
        with mock.patch.object(oracle, "_bisect", wraps=oracle._bisect) as bisect, \
                mock.patch.object(oracle, "_shifted_solves", recording), \
                mock.patch.object(lapack, "dgtsv", wraps=lapack.dgtsv) as gtsv, \
                mock.patch.object(scipy.linalg, "qr", wraps=scipy.linalg.qr) as qr, \
                mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            vals, _ = solve_effective_potential(v, g, count)
        diag, off = oracle.channel_matrix(v, g)
        exact, _ = oracle._bisect(diag, off, count)
        ulps = np.max(np.abs(vals - exact)) / (
            np.finfo(float).eps * (np.max(np.abs(diag)) + 2 * np.max(np.abs(off))))
        return rounds, bisect.call_count, gtsv.call_count, qr.call_count + eigh.call_count, ulps

    def test_second_round_shifts_at_the_rayleigh_quotients(self):
        # the first fine round is shifted at the coarse levels, the second at
        # each column's Rayleigh quotient x.Tx / x.x; the second round's
        # columns then pass the certificate as they are, with no QR, no
        # eigh and no second bisection
        g = GridSpec(0.5, 30.0, 2 * oracle.COARSE_POINTS)
        v = 1.0 / g.rhos() ** 2
        rounds, bisects, gtsv, factorizations, ulps = self.recorded_solve(v, g, 3)
        assert bisects == 1 and factorizations == 0
        assert len(rounds) == 2 and gtsv == 2 * 3
        x = rounds[0][1]
        matrix = dense(*oracle.channel_matrix(v, g))
        quotients = np.einsum("ij,ij->j", x, matrix @ x) / np.einsum("ij,ij->j", x, x)
        assert np.allclose(rounds[1][0], quotients, rtol=1e-12, atol=0.0)
        assert not np.allclose(rounds[1][0], rounds[0][0], rtol=1e-12, atol=0.0)
        assert ulps <= 0.5

    def test_refined_columns_are_the_unit_second_round_columns(self):
        # the certified levels are the second round's own Rayleigh quotients,
        # and the vectors its columns scaled to unit length
        g = GridSpec(0.5, 30.0, 2 * oracle.COARSE_POINTS)
        v = 1.0 / g.rhos() ** 2
        real = oracle._shifted_solves
        outputs = []

        def recording(*args):
            outputs.append(real(*args).copy())
            return outputs[-1].copy()

        with mock.patch.object(oracle, "_shifted_solves", recording):
            vals, vecs = solve_effective_potential(v, g, 3)
        x, (diag, off) = outputs[-1], oracle.channel_matrix(v, g)
        norms = np.sqrt(np.einsum("ij,ij->j", x, x))
        assert np.allclose(vecs, x / norms, rtol=1e-14, atol=0.0)
        assert np.allclose(np.einsum("ij,ij->j", vecs, vecs), 1.0, rtol=1e-14, atol=0.0)
        quotients = np.einsum("ij,ij->j", x, dense(diag, off) @ x) / norms ** 2
        norm = np.max(np.abs(diag)) + 2 * np.max(np.abs(off))
        assert np.max(np.abs(vals - quotients)) <= 10 * np.finfo(float).eps * norm

    def test_missed_gate_falls_back_to_bisection(self):
        # a channel drawn from the distribution of
        # test_two_grid_levels_match_bisection whose second-round residuals
        # miss the gate by some 300x: after the two fine rounds the full grid
        # is bisected, with no QR or eigh on the way
        g = GridSpec(0.409, 0.409 + 15.52, 2570)
        v = wall_potential(g, 1, [-13.02, -49.09, -29.91, -35.37])
        count = 12
        rounds, bisects, gtsv, factorizations, ulps = self.recorded_solve(v, g, count)
        assert factorizations == 0 and bisects == 2
        assert len(rounds) == 2 and gtsv == 2 * count
        assert ulps <= 0.5

    @staticmethod
    def falls_back(v, g, count, coarse=None):
        """Whether the solve bisects the full grid, with coarse(vals, vecs)
        applied to the coarse start; its levels and vectors must then be
        full bisection's."""
        real = oracle._bisect

        def bisect(diag, off, count, tol=0.0):
            vals, vecs = real(diag, off, count, tol)
            if coarse is not None and diag.size == oracle.COARSE_POINTS:
                vals, vecs = coarse(vals, vecs)
            return vals, vecs

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with mock.patch.object(oracle, "_bisect", wraps=bisect) as spy:
                vals, vecs = solve_effective_potential(v, g, count)
        direct_vals, direct_vecs = oracle._bisect(*oracle.channel_matrix(v, g), count)
        assert np.array_equal(vals, direct_vals) == (spy.call_count == 2)
        assert np.array_equal(vecs, direct_vecs) == (spy.call_count == 2)
        return spy.call_count == 2

    def test_two_columns_on_one_level_fall_back(self):
        # duplicated start columns converge to the lowest level twice: their
        # intervals coincide, while the Sturm count at the top of the third
        # column's interval still reads 3
        g = GridSpec(1e-3, 8.0, 2 * oracle.COARSE_POINTS)
        v = np.zeros(g.points)
        assert not self.falls_back(v, g, 3)
        assert self.falls_back(v, g, 3, lambda vals, vecs: (vals[[0, 0, 2]], vecs[:, [0, 0, 2]]))

    def test_start_without_the_lowest_level_falls_back(self):
        # a coarse start at levels 1 to 3 refines to three certified,
        # disjoint and increasing intervals, and only the Sturm count (4 up
        # to the top of the last one) sees that level 0 is missing
        g = GridSpec(1e-3, 8.0, 2 * oracle.COARSE_POINTS)
        v = np.zeros(g.points)
        stride = g.points // oracle.COARSE_POINTS
        vals, vecs = oracle._bisect(*oracle.channel_matrix(v, g, stride), 4,
                                    oracle.ISOLATION_TOL)
        assert self.falls_back(v, g, 3, lambda *_: (vals[1:], vecs[:, 1:]))

    def test_non_finite_residual_falls_back(self, monkeypatch):
        # a second-round column scaled to entries of 1e200 overflows x.x and
        # x.Tx, so its quotient inf / inf and its residual are nan: the
        # certificate fails without a warning and the full grid is bisected
        g = GridSpec(1e-3, 8.0, 2 * oracle.COARSE_POINTS)
        real = scipy.linalg.lapack.dgtsv
        calls = []

        def overflowing(*args):
            *out, y, info = real(*args)
            calls.append(None)
            if len(calls) == 5:  # the second round's second column
                y = y * (1e200 / np.max(np.abs(y)))
            return (*out, y, info)

        monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", overflowing)
        assert self.falls_back(np.zeros(g.points), g, 3)
        assert len(calls) == 6

    @pytest.mark.parametrize("case", ["out of order", "overlapping"])
    def test_intervals_out_of_order_or_overlapping_fall_back(self, monkeypatch, case):
        # out of order: the coarse start lists level 1 before level 0, so the
        # intervals are disjoint but decreasing, and the count at the top of
        # the last one (level 2) still reads 3.  overlapping: a gate wider
        # than half the gap between levels 0 and 1 but narrower than the gap
        # from level 2 to level 3 joins the first two intervals, and the
        # count still reads 3
        g = GridSpec(1e-3, 8.0, 2 * oracle.COARSE_POINTS)
        v = np.zeros(g.points)
        coarse = None
        if case == "out of order":
            def coarse(vals, vecs):
                return vals[[1, 0, 2]], vecs[:, [1, 0, 2]]
        else:
            diag, off = oracle.channel_matrix(v, g)
            levels = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 3))
            gaps = np.diff(levels)
            assert gaps[0] / 2 < gaps[2]
            norm = np.max(np.abs(diag)) + 2 * np.max(np.abs(off))
            monkeypatch.setattr(oracle, "RITZ_RESIDUAL_ULPS",
                                (gaps[0] / 2 + gaps[2]) / 2 / (np.finfo(float).eps * norm))
        assert self.falls_back(v, g, 3, coarse)

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
        direct_vals, direct_vecs = oracle._bisect(*oracle.channel_matrix(v, g), 3)
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

    def test_potential_list_is_read_as_an_array(self):
        # a list used to raise a raw AttributeError on .shape
        g = GridSpec(1e-3, 8.0, 200)
        v = 3.0 * np.cos(g.rhos())
        listed = solve_effective_potential(v.tolist(), g, 2)
        arrayed = solve_effective_potential(v, g, 2)
        assert all(np.array_equal(a, b) for a, b in zip(listed, arrayed))

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

    def test_refinement_holds_at_most_five_grid_by_level_arrays(self):
        # the certified refinement needs the two rounds' outputs and one T x
        # work array, about 4 arrays of 8,000 x 14 floats at its peak here;
        # the Rayleigh-Ritz step it replaced peaked at 6.4
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        grid, count = GridSpec(1e-3, 8.0, 8000), 14
        radial_eigensolve(cfg, 0, +1, grid, 1)  # loads scipy outside the trace
        with warnings.catch_warnings(), \
                mock.patch.object(oracle, "_bisect", wraps=oracle._bisect) as spy:
            warnings.simplefilter("ignore", RuntimeWarning)
            tracemalloc.start()
            try:
                radial_eigensolve(cfg, 0, +1, grid, count)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert spy.call_count == 1  # certified, no fallback
        assert peak < 5 * grid.points * count * 8

    def test_direct_solve_memory_stays_linear_in_the_grid(self):
        # the fallback's bisection on the 8,000-point channel above: stemr
        # would allocate an n x n array there
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        grid = GridSpec(1e-3, 8.0, 8000)
        diag, off = oracle.channel_matrix(
            oracle.effective_potential(cfg, 0, +1, grid.rhos()), grid)
        oracle._bisect(diag, off, 1)  # loads scipy outside the trace
        tracemalloc.start()
        try:
            vals, _ = oracle._bisect(diag, off, 14)
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
        direct_vals, direct_vecs = oracle._bisect(*oracle.channel_matrix(v, g), 3)
        assert vals[0] < -100.0
        assert np.array_equal(vals, direct_vals)
        assert np.array_equal(vecs, direct_vecs)


class TestRadialEigensolve:
    @pytest.mark.parametrize("l, sigma, message", [
        (2.5, +1, "l must be an integer"), (True, +1, "l must be an integer"),
        ("1", +1, "l must be an integer"), (0, 2, "sigma must be"),
        (0, 0, "sigma must be"), (0, True, "sigma must be"), (0, 1.0, "sigma must be")])
    def test_l_and_sigma_follow_the_block_rule(self, l, sigma, message):
        # 2.5, True, 2 and 0 used to return the levels of a channel that no
        # block has, and "1" to raise a raw TypeError
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        with pytest.raises(ParameterError, match=message):
            radial_eigensolve(cfg, l, sigma, GridSpec(1e-3, 8.0, 200), 1)

    def test_numpy_integer_l_and_sigma_are_accepted(self):
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        g = GridSpec(1e-3, 8.0, 200)
        assert radial_eigensolve(cfg, np.int64(1), np.int8(-1), g, 2) == \
            radial_eigensolve(cfg, 1, -1, g, 2)

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

    def test_dropped_level_fails(self):
        # the analytic list lacks the channel's lowest level: its level 0
        # is paired with the oracle's level 0, not with the nearest one
        report = compare_spectra([2.0], [-1.0, 2.0], tol=1e-3)
        assert not report.passed
        assert report.unmatched == (2.0,)

    def test_added_level_fails(self):
        # the oracle finds a level between two analytic ones, so the upper
        # analytic level is paired with it
        report = compare_spectra([-1.0, 2.0], [-1.0, 0.5, 2.0], tol=1e-3)
        assert not report.passed
        assert report.pairs == ((-1.0, -1.0, 0.0),)
        assert report.unmatched == (2.0,)

    def test_longer_numeric_list_pairs_its_lowest_levels(self):
        report = compare_spectra([2.0, -1.0], [-1.0, 2.0, 2.0005, 7.0], tol=1e-3)
        assert report.passed
        assert report.pairs == ((-1.0, -1.0, 0.0), (2.0, 2.0, 0.0))
