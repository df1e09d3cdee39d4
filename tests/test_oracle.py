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
        # spectral convergence: the 80-point mesh agrees with the 120-point
        # one inside MESH_RTOL (to 3.3e-10), the 120- and 180-point meshes
        # agree far inside it, and the certified levels are the finer mesh's
        # of the first agreeing pair
        cfg = ModelConfig(Example(1), "a", 3, 1.25)
        smallest, coarse, fine = (oracle.mesh_levels(cfg, 6, +1, BOX, size)[:8]
                                  for size in oracle.MESH_SIZES[:3])
        assert np.all(np.abs(smallest - coarse)
                      <= oracle.MESH_RTOL * np.maximum(1.0, np.abs(coarse)))
        assert np.all(np.abs(coarse - fine) <= 1e-11 * np.maximum(1.0, np.abs(fine)))
        assert radial_eigensolve(cfg, 6, +1, BOX, 8) == coarse.tolist()

    @staticmethod
    def solve_with_sizes(cfg, perturb, l=0, count=3):
        """radial_eigensolve with every level of the size-point mesh shifted
        by perturb(size), and the sizes it built a mesh matrix for: each
        rung builds one."""
        real = oracle._mesh_matrix
        sizes = []

        def shifted(config, l, sigma, rho_max, size):
            sizes.append(size)
            matrix = real(config, l, sigma, rho_max, size)
            matrix[np.diag_indices(size)] += perturb(size)
            return matrix

        with mock.patch.object(oracle, "_mesh_matrix", shifted):
            return radial_eigensolve(cfg, l, +1, BOX, count), sizes

    def test_a_channel_the_smallest_mesh_certifies_stops_at_120_points(self):
        # the 80-point mesh only checks: the levels are the 120-point mesh's
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        vals, sizes = self.solve_with_sizes(cfg, lambda size: 0.0)
        assert sizes == [80, 120]
        assert vals == oracle.mesh_levels(cfg, 0, +1, BOX, 120)[:3].tolist()

    def test_a_climbing_states_channel_returns_the_180_point_levels(self):
        # a `states` channel (1a k = 1, eps = 1.5, n = 10 and three levels
        # above its 11 bound ones) whose 80-point mesh is not yet converged
        cfg = ModelConfig(Example(1), "a", 1, 1.5)
        assert make_block(cfg, 10, 10).sigma == +1
        vals, sizes = self.solve_with_sizes(cfg, lambda size: 0.0, l=10, count=14)
        assert sizes == [80, 120, 180]
        assert vals == oracle.mesh_levels(cfg, 10, +1, BOX, 180)[:14].tolist()

    def test_a_disagreeing_size_grows_the_mesh(self):
        # the 80-point mesh misses the 120-point one by 1e-6, and a 180-point
        # solve that misses the 120-point one too is checked against 270
        # points, which it misses as well; 400 points agree with 270
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        vals, sizes = self.solve_with_sizes(cfg, lambda size: 1e-6 * (size in (80, 180)))
        assert sizes == [80, 120, 180, 270, 400]
        assert vals == oracle.mesh_levels(cfg, 0, +1, BOX, 400)[:3].tolist()

    def test_no_agreeing_sizes_raise_precision_error(self):
        # each size is 1e-6 above the one before it, up to the largest
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        with pytest.raises(PrecisionError, match="still differ by 1.0e-06 between 270 and 400"):
            self.solve_with_sizes(cfg, lambda size: 1e-6 * oracle.MESH_SIZES.index(size))

    @pytest.mark.parametrize("routine", ["eigvalsh", "solve"])
    def test_lapack_failure_raises_precision_error(self, monkeypatch, routine):
        # eigvalsh solves every mesh (and the Jacobi matrices of an uncached
        # basis), solve gives the box test its vector
        def failing(*operands):
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
        # mu = 2 and mu = -2 share one basis, and rho_max does not enter it;
        # each call reads the basis three times: for the 80-point matrix,
        # for the 120-point matrix and for its R factor
        oracle._mesh_basis.cache_clear()
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        for l, sigma, box in ((2, +1, BOX), (2, -1, BOX), (2, +1, GridSpec(1e-3, 5.0, 100))):
            radial_eigensolve(cfg, l, sigma, box, 1)
        info = oracle._mesh_basis.cache_info()
        assert (info.misses, info.hits) == (2, 7)


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
        # the warning points at the caller of radial_eigensolve
        cfg = ModelConfig(Example(1), "a", 1, 0.0)
        with pytest.warns(RuntimeWarning, match="enlarge the box") as record:
            radial_eigensolve(cfg, 1, +1, GridSpec(1e-3, 2.5, 800), 2)
        assert [w.filename for w in record] == [__file__]

    def test_box_levels_above_a_confined_ground_state_do_not_warn(self):
        # model 2 binds one state here (E = -1); the three levels above it
        # are continuum levels of the box, which reach the outer wall, while
        # the ground state's R has died off there
        cfg = ModelConfig(Example(2), "first", -1, 15.0)
        grid = GridSpec(1e-3, 40.0, 2000)
        matrix = oracle._mesh_matrix(cfg, 1, +1, grid.rho_max, oracle.MESH_SIZES[1])
        to_r = oracle._to_r(cfg, 1, +1, grid.rho_max, oracle.MESH_SIZES[1])
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


def _channel_grid(rng, count):
    """Seeded channels of both models, l in [-20, 20], in boxes of 2.5 to 40."""
    channels = []
    for _ in range(count):
        if rng.random() < 0.5:
            config = ModelConfig(Example(1), str(rng.choice(["a", "b"])),
                                 int(rng.integers(1, 15)), float(rng.uniform(-3.0, 3.0)))
        else:
            variant = str(rng.choice(["first", "second"]))
            k = int(rng.integers(1, 40)) * (1 if variant == "second" else -1)
            config = ModelConfig(Example(2), variant, k,
                                 float(rng.choice([2.0, 15.0, 60.0, 150.0, 400.0, 1600.0])))
        channels.append((config, int(rng.integers(-20, 21)), int(rng.choice([-1, 1])),
                         float(rng.choice([2.5, 5.0, 8.0, 12.0, 20.0, 40.0]))))
    return channels


# the warning channel, the confined model 2 channel, and two quiet ones
BOX_TEST_CHANNELS = [
    (ModelConfig(Example(1), "a", 1, 0.0), 1, +1, 2.5),
    (ModelConfig(Example(2), "first", -1, 15.0), 1, +1, 40.0),
    (ModelConfig(Example(1), "a", 3, 1.25), 6, +1, 8.0),
    (ModelConfig(Example(2), "second", 5, 150.0), -5, -1, 40.0),
]


class TestBoxVector:
    """The box test reads one vector, from one shifted solve, not from eigh."""

    @pytest.mark.parametrize("config, l, sigma, rho_max", BOX_TEST_CHANNELS, ids=str)
    def test_no_eigh_call(self, monkeypatch, config, l, sigma, rho_max):
        def solve(box_warnings):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                levels = radial_eigensolve(config, l, sigma, GridSpec(1e-3, rho_max, 200), 4)
            box_warnings.extend(str(w.message) for w in seen)
            return levels

        def failing(*operands):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        before, after = [], []
        levels = solve(before)
        monkeypatch.setattr(np.linalg, "eigh", failing)
        assert solve(after) == levels
        assert after == before
        assert bool(before) == (rho_max == 2.5)

    def test_shifted_solve_matches_eigh(self):
        # the wall amplitude the box test reads agrees with that of eigh's
        # lowest vector to 1e-3 wherever it is above 1e-9, no verdict
        # changes, and the vector lies inside _ground_vector's bound; the
        # matrix is the box rung's, the mesh the box test reads
        size = oracle.MESH_SIZES[1]
        verdicts = set()
        for config, l, sigma, rho_max in (BOX_TEST_CHANNELS
                                          + _channel_grid(np.random.default_rng(37), 150)):
            matrix = oracle._mesh_matrix(config, l, sigma, rho_max, size)
            to_r = oracle._to_r(config, l, sigma, rho_max, size)
            exact = np.linalg.eigh(matrix)[1][:, 0]
            levels = np.linalg.eigvalsh(matrix)
            vector = oracle._ground_vector(matrix, levels)
            reference, amplitude = (np.abs(v * to_r)[-1] / np.max(np.abs(v * to_r))
                                    for v in (exact, vector))
            if reference > 1e-9:
                assert abs(amplitude - reference) <= 1e-3 * reference
            assert (amplitude > oracle.BOX_AMPLITUDE_TOL) == (reference > oracle.BOX_AMPLITUDE_TOL)
            verdicts.add(bool(reference > oracle.BOX_AMPLITUDE_TOL))
            x = vector / np.linalg.norm(vector)
            delta = np.finfo(float).eps * max(abs(levels[0]), abs(levels[-1]))
            assert (np.linalg.norm(x - (x @ exact) * exact)
                    <= math.sqrt(size) * 2 * delta / (levels[1] - levels[0]))
        assert verdicts == {True, False}

    def test_the_smallest_rung_moves_no_box_warning(self):
        # the box test solves the 120-point mesh, MESH_SIZES[1]: with the
        # 80-point rung's levels shifted (and its vectors tilted), no warning
        # changes in verdict or text.  The returned levels are the 180-point
        # mesh's or a finer one's, or, where the 80-point mesh certifies,
        # agree with the 180-point mesh's to 1e-10
        real_matrix, real_vector = oracle._mesh_matrix, oracle._ground_vector
        box_sizes, sizes = [], []

        def spy(config, l, sigma, rho_max, size):
            sizes.append(size)
            return real_matrix(config, l, sigma, rho_max, size)

        def shifted(config, l, sigma, rho_max, size):
            matrix = real_matrix(config, l, sigma, rho_max, size)
            if size == oracle.MESH_SIZES[0]:
                matrix[np.diag_indices(size)] += 1e-3 * np.arange(size)
            return matrix

        def ground_vector(matrix, levels):
            box_sizes.append(len(levels))
            return real_vector(matrix, levels)

        def solve(config, l, sigma, grid):
            # a model 1 channel in a wide box can stay unresolved at 400
            # points; its box test has run by then
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                try:
                    levels = radial_eigensolve(config, l, sigma, grid, 4)
                except PrecisionError:
                    levels = None
            return levels, [str(w.message) for w in seen]

        verdicts, stops = set(), set()
        for config, l, sigma, rho_max in (BOX_TEST_CHANNELS
                                          + _channel_grid(np.random.default_rng(38), 150)):
            grid = GridSpec(1e-3, rho_max, 200)
            sizes.clear()
            with mock.patch.object(oracle, "_ground_vector", ground_vector):
                with mock.patch.object(oracle, "_mesh_matrix", spy):
                    levels, before = solve(config, l, sigma, grid)
                with mock.patch.object(oracle, "_mesh_matrix", shifted):
                    _, after = solve(config, l, sigma, grid)
            assert after == before
            verdicts.add(bool(before))
            if levels is None:
                continue
            stop = sizes[-1]
            finer = oracle.mesh_levels(config, l, sigma, grid, max(stop, 180))[:4]
            if stop == oracle.MESH_SIZES[1]:
                assert np.all(np.abs(levels - finer)
                              <= 1e-10 * np.maximum(1.0, np.abs(finer)))
            else:
                assert levels == finer.tolist()
            stops.add(stop)
        assert verdicts == {True, False}
        assert {120, 180} <= stops
        assert set(box_sizes) == {oracle.MESH_SIZES[1]}


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
