"""Finite-difference eigensolver checks against known spectra."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import jn_zeros

from heun_spectra import (
    BlockSpec,
    GridSpec,
    ModelConfig,
    ParameterError,
    compare_spectra,
    radial_eigensolve,
    spectrum,
)
from heun_spectra.models import Example
from heun_spectra.oracle import solve_effective_potential


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ParameterError):
            GridSpec(0.0, 8.0, 400)
        with pytest.raises(ParameterError):
            GridSpec(2.0, 1.0, 400)
        with pytest.raises(ParameterError):
            GridSpec(1e-3, 8.0, 50)

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

    def test_eigenvector_columns(self):
        g = GridSpec(1e-3, 8.0, 500)
        vals, vecs = solve_effective_potential(np.zeros(g.points), g, 4)
        assert vecs.shape == (500, 4)
        assert list(vals) == sorted(vals)


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
        analytic = min(r.energy for r in spectrum(cfg, block) if r.physical)
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
