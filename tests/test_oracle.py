"""Lagrange-mesh eigensolver checks against known spectra."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy.special import jn_zeros

from heun_spectra import (
    BlockSpec,
    GridSpec,
    ModelConfig,
    ParameterError,
    PrecisionError,
    compare_spectra,
    make_block,
    permissible_blocks,
    radial_eigensolve,
    solve_block,
)
from heun_spectra import models, oracle
from heun_spectra.models import Example


BOX = GridSpec(1e-3, 8.0, 4000)  # the mesh reads only rho_max


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
        assert GridSpec(1e-3, 8.0, np.int64(200)).points == 200


class TestSolver:
    def test_count_capacity(self):
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        for count in (oracle.MESH_SIZES[0] + 1, 0, -1):
            with pytest.raises(ParameterError, match="smallest mesh"):
                radial_eigensolve(cfg, 0, +1, BOX, count)
        for count in (2.5, np.float64(2.0), True, "3", None):
            with pytest.raises(ParameterError, match="integer"):
                radial_eigensolve(cfg, 0, +1, BOX, count)
        assert len(radial_eigensolve(cfg, 0, +1, BOX, np.int64(2))) == 2
        for size in (0, oracle.MESH_SIZES[-1] + 1):
            with pytest.raises(ParameterError, match="size must lie"):
                oracle.mesh_levels(cfg, 0, +1, BOX, size)
        with pytest.raises(ParameterError, match="integer"):
            oracle.mesh_levels(cfg, 0, +1, BOX, 120.0)

    @pytest.mark.parametrize("mu", [0, 3, 20, 80, 400])
    def test_free_disk_bessel_levels(self, monkeypatch, mu):
        # V = 0 in the box [0, 10]: the levels are (j_mu,k / 10)^2.  Past
        # AXIS_POWER_CAP the rest of the barrier mu^2 / rho^2 sits on the
        # mesh diagonal; rho^400 itself would overflow.  The ground state
        # fills the box, so it warns
        monkeypatch.setattr(oracle, "_regular_potential", lambda config, m, r: 0.0 * r)
        cfg = ModelConfig(Example(1), "a", 1, 0.0)  # model 1: mu = sigma |l|
        with pytest.warns(RuntimeWarning, match="enlarge the box"):
            vals = radial_eigensolve(cfg, mu, +1, GridSpec(1e-3, 10.0, 100), 5)
        assert np.allclose(vals, (jn_zeros(mu, 5) / 10.0) ** 2, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("config", [
        ModelConfig(Example(1), "a", 1, 1.0), ModelConfig(Example(1), "b", 4, -2.5),
        ModelConfig(Example(2), "first", -3, 15.0), ModelConfig(Example(2), "second", 8, 150.0),
        ModelConfig(Example(2), "first", -40, 2.0)], ids=str)
    @pytest.mark.parametrize("l", [-9, -1, 0, 2, 7])
    @pytest.mark.parametrize("sigma", [+1, -1])
    def test_split_potential_is_the_effective_potential(self, config, l, sigma):
        # mu^2 / rho^2 + W against models.effective_potential, relative to
        # the size of the terms: near the axis W stays bounded where both
        # squares grow like 1/rho^2
        rho = np.linspace(1e-3, 20.0, 2001)
        m = sigma * abs(l)
        mu = oracle._axis_power(config, l, sigma)
        assert mu == (m if config.example is Example(1) else m + config.k)
        regular = oracle._regular_potential(config, m, rho)
        scale = ((abs(m) / rho + np.abs(models.vector_potential(config, rho))) ** 2
                 + np.abs(models.scalar_potential(config, rho)))
        error = np.abs(mu * mu / rho ** 2 + regular
                       - models.effective_potential(config, l, sigma, rho))
        assert np.all(error <= 1e-12 * scale)

    def test_levels_agree_between_mesh_sizes(self):
        # spectral convergence: the 120- and 180-point meshes agree far
        # inside MESH_RTOL, and the certified levels are the finer mesh's
        cfg = ModelConfig(Example(1), "a", 3, 1.25)
        coarse, fine = (oracle.mesh_levels(cfg, 6, +1, BOX, size)[:8]
                        for size in oracle.MESH_SIZES[:2])
        assert np.all(np.abs(coarse - fine) <= 1e-11 * np.maximum(1.0, np.abs(fine)))
        assert radial_eigensolve(cfg, 6, +1, BOX, 8) == fine.tolist()

    @staticmethod
    def solve_with_sizes(cfg, perturb):
        """radial_eigensolve with mesh_levels(size) shifted by perturb(size),
        and the sizes it asked mesh_levels for."""
        real = oracle.mesh_levels
        sizes = []

        def shifted(config, l, sigma, grid, size):
            sizes.append(size)
            return real(config, l, sigma, grid, size) + perturb(size)

        with mock.patch.object(oracle, "mesh_levels", shifted):
            return radial_eigensolve(cfg, 0, +1, BOX, 3), sizes

    def test_a_disagreeing_size_grows_the_mesh(self):
        # a 180-point solve that misses the 120-point one by 1e-6 is checked
        # against 270 points, which it misses too; 400 points agree with 270
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        vals, sizes = self.solve_with_sizes(cfg, lambda size: 1e-6 * (size == 180))
        assert sizes == [180, 270, 400]
        assert vals == oracle.mesh_levels(cfg, 0, +1, BOX, 400)[:3].tolist()

    def test_no_agreeing_sizes_raise_precision_error(self):
        # each size is 1e-6 above the one before it, up to the largest
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        with pytest.raises(PrecisionError, match="still differ by 1.0e-06 between 270 and 400"):
            self.solve_with_sizes(cfg, lambda size: 1e-6 * oracle.MESH_SIZES.index(size))

    @pytest.mark.parametrize("routine", ["eigh", "eigvalsh"])
    def test_lapack_failure_raises_precision_error(self, monkeypatch, routine):
        # eigh solves the smallest mesh, eigvalsh the larger ones (and the
        # Jacobi matrices of an uncached basis)
        def failing(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, routine, failing)
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        with pytest.raises(PrecisionError,
                           match="mesh eigensolver failed: Eigenvalues did not converge"):
            radial_eigensolve(cfg, 0, +1, BOX, 3)

    def test_non_finite_potential_rejected(self):
        # eps = 1e300 overflows W on the mesh, without a numpy warning
        cfg = ModelConfig(Example(1), "a", 1, 1e300)
        with pytest.raises(ParameterError, match="not finite"):
            radial_eigensolve(cfg, 0, +1, BOX, 1)

    def test_kinetic_matrix_is_cached_per_size_and_axis_power(self):
        # mu = 2 and mu = -2 share one basis, and rho_max does not enter it
        oracle._mesh_basis.cache_clear()
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        for l, sigma, box in ((2, +1, BOX), (2, -1, BOX), (2, +1, GridSpec(1e-3, 5.0, 100))):
            radial_eigensolve(cfg, l, sigma, box, 1)
        info = oracle._mesh_basis.cache_info()
        assert (info.misses, info.hits) == (2, 4)


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
        assert vals[0] == pytest.approx(1.0, abs=1e-10)

    def test_model2_bound_channel(self):
        cfg = ModelConfig(Example(2), "first", -1, 15.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            vals = radial_eigensolve(cfg, 1, +1, GridSpec(1e-3, 40.0, 8000), 3)
        assert vals[0] == pytest.approx(-1.0, abs=1e-10)

    def test_model2_levels_match_once_the_box_holds_them(self):
        # the shallowest of five bound levels carries a 5.6e-5 shift from the
        # wall at rho_max = 20, the box of the benchmark's oracle; at 40 every
        # level matches
        cfg = ModelConfig(Example(2), "second", 5, 150.0)
        block = make_block(cfg, 4, -5)
        analytic = [r.energy for r in solve_block(cfg, block).roots if r.physical]
        errors = {}
        for rho_max in (20.0, 40.0):
            numeric = radial_eigensolve(cfg, block.l, block.sigma,
                                        GridSpec(1e-3, rho_max, 100), len(analytic))
            errors[rho_max] = [abs(a - v) / max(1.0, abs(a)) for a, v in zip(analytic, numeric)]
        assert len(analytic) == 5
        assert max(errors[20.0][:4]) < 1e-10 and 1e-5 < errors[20.0][4] < 1e-4
        assert max(errors[40.0]) < 1e-10

    def test_model1_k_zero_blocks(self):
        cfg = ModelConfig(Example(1), "a", 0, 1.0)
        for block in permissible_blocks(cfg, n_max=2):
            analytic = [r.energy for r in solve_block(cfg, block).roots if r.physical]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                numeric = radial_eigensolve(cfg, block.l, block.sigma,
                                            GridSpec(1e-3, 8.0, 4000), len(analytic) + 2)
            report = compare_spectra(analytic, numeric, tol=1e-10)
            assert report.passed and len(report.pairs) == block.n + 1

    def test_box_warning_when_state_touches_wall(self):
        cfg = ModelConfig(Example(1), "a", 1, 0.0)
        with pytest.warns(RuntimeWarning, match="enlarge the box"):
            radial_eigensolve(cfg, 1, +1, GridSpec(1e-3, 2.5, 800), 2)

    def test_box_levels_above_a_confined_ground_state_do_not_warn(self):
        # model 2 binds one state here (E = -1); the three levels above it
        # are continuum levels of the box, which reach the outer wall, while
        # the ground state's R has died off there
        cfg = ModelConfig(Example(2), "first", -1, 15.0)
        grid = GridSpec(1e-3, 40.0, 2000)
        matrix, to_r = oracle._mesh_matrix(cfg, 1, +1, grid.rho_max, oracle.MESH_SIZES[0])
        r = np.abs(np.linalg.eigh(matrix)[1][:, :4] * to_r[:, None])
        edge = r[-1] / r.max(axis=0)
        assert edge[0] < 1e-12 and (edge[1:] > oracle.BOX_AMPLITUDE_TOL).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            vals = radial_eigensolve(cfg, 1, +1, grid, 4)
        assert vals[0] == pytest.approx(-1.0, abs=1e-10)

    def test_box_size_invariance(self):
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        a = radial_eigensolve(cfg, 0, +1, GridSpec(1e-3, 8.0, 4000), 1)[0]
        b = radial_eigensolve(cfg, 0, +1, GridSpec(1e-3, 12.0, 6000), 1)[0]
        assert abs(a - b) < 1e-10

    def test_variational_floor(self):
        # no numeric level sits below the analytic channel ground by more
        # than the mesh's agreement
        cfg = ModelConfig(Example(1), "a", 2, 0.7)
        block = BlockSpec(n=2, l=1, sigma=+1)
        analytic = min(r.energy for r in solve_block(cfg, block).roots if r.physical)
        vals = radial_eigensolve(
            cfg, block.l, block.sigma, GridSpec(1e-3, 8.0, 4000), 1)
        assert vals[0] > analytic - 1e-10


class TestCompareSpectra:
    def test_identical(self):
        report = compare_spectra([1.0, 2.0], [1.0, 2.0], tol=1e-10)
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
