"""Block rules, sequences, spectra, fields, wavefunctions, and residuals."""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from heun_spectra import (
    BlockSpec,
    ModelConfig,
    ParameterError,
    PrecisionError,
    SelectionError,
    block_sequences,
    magnetic_field,
    make_block,
    permissible_blocks,
    polynomial_from_recurrence,
    radial_norm,
    radial_profile,
    scalar_potential,
    schrodinger_residual,
    solve_block,
    spectrum,
    t_of_rho,
    total_flux,
    vector_potential,
    wavefunction,
)
from heun_spectra.models import Example
from heun_spectra import models, spectral


class TestConfigValidation:
    def test_case_b_needs_positive_k(self):
        with pytest.raises(ParameterError):
            ModelConfig(Example(1), "b", 0, 1.0)

    def test_model2_first_needs_negative_k(self):
        with pytest.raises(ParameterError):
            ModelConfig(Example(2), "first", 1, 1.0)
        with pytest.raises(ParameterError):
            ModelConfig(Example(2), "first", 0, 1.0)

    def test_model2_second_needs_natural_k(self):
        with pytest.raises(ParameterError):
            ModelConfig(Example(2), "second", -2, 1.0)

    def test_unknown_variant(self):
        with pytest.raises(ParameterError):
            ModelConfig(Example(1), "first", 1, 1.0)

    def test_messages_name_the_constraint(self):
        with pytest.raises(ParameterError, match="k"):
            ModelConfig(Example(2), "first", 3, 0.0)


class TestBlockEnumeration:
    def test_case_a_ladder(self):
        cfg = ModelConfig(Example(1), "a", 1, 0.0)
        blocks = permissible_blocks(cfg, n_max=2)
        assert [(b.n, b.l, b.sigma) for b in blocks] == [
            (0, 0, 1), (1, 1, 1), (2, 2, 1)]

    def test_case_a_large_k_starts_at_k_minus_1(self):
        cfg = ModelConfig(Example(1), "a", 3, 0.0)
        blocks = permissible_blocks(cfg, n_max=4)
        assert [(b.n, b.l) for b in blocks] == [(2, 0), (3, 1), (4, 2)]

    def test_case_b_parity_rule(self):
        cfg = ModelConfig(Example(1), "b", 4, 0.0)
        blocks = permissible_blocks(cfg, n_max=3)
        assert [(b.n, b.l, b.sigma) for b in blocks] == [(1, 1, -1), (3, 0, -1)]

    def test_model2_first_fixed_n_capped_l_ladder(self):
        cfg = ModelConfig(Example(2), "first", -2, 0.0)
        blocks = permissible_blocks(cfg, n_max=2)
        assert [(b.n, b.l, b.sigma) for b in blocks] == [
            (1, 2, 1), (1, 3, 1), (1, 4, 1)]

    def test_model2_second_descending_n(self):
        cfg = ModelConfig(Example(2), "second", 2, 0.0)
        blocks = permissible_blocks(cfg, n_max=10)
        assert [(b.n, b.l, b.sigma) for b in blocks] == [(1, -2, -1), (0, -1, -1)]

    def test_model1_k_zero_is_empty_with_diagnostic(self):
        cfg = ModelConfig(Example(1), "a", 0, 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert permissible_blocks(cfg, n_max=5) == []
        assert len(caught) == 1

    def test_make_block_checks_permissibility(self):
        cfg = ModelConfig(Example(1), "a", 2, 0.0)
        block = make_block(cfg, 3)
        assert (block.n, block.l, block.sigma) == (3, 2, 1)
        with pytest.raises(SelectionError):
            make_block(cfg, 0)  # n < k-1 not permissible
        with pytest.raises(SelectionError):
            make_block(cfg, 3, l=5)

    def test_angular_momentum_sign(self):
        assert BlockSpec(n=1, l=1, sigma=-1).angular_momentum == -1
        assert BlockSpec(n=1, l=-2, sigma=-1).angular_momentum == -2


class TestBlockSequences:
    def test_case_a_diagonal_is_s_minus_eps_ladder(self):
        cfg = ModelConfig(Example(1), "a", 1, 0.6)
        seqs = block_sequences(cfg, BlockSpec(n=0, l=0, sigma=+1))
        assert seqs.a[0].coeffs == (-0.6, 1.0)

    def test_model2_second_anchor_diagonal(self):
        eps = 15.0
        cfg = ModelConfig(Example(2), "second", 1, eps)
        seqs = block_sequences(cfg, BlockSpec(n=0, l=-1, sigma=-1))
        # a_0 = s^2 - 2 s + (3 - eps)/4
        assert seqs.a[0].coeffs == pytest.approx(
            ((3.0 - eps) / 4.0, -2.0, 1.0), abs=1e-14)

    def test_impermissible_block_rejected(self):
        cfg = ModelConfig(Example(1), "a", 1, 0.0)
        with pytest.raises(ParameterError, match="not permissible"):
            block_sequences(cfg, BlockSpec(n=1, l=3, sigma=+1))


class TestSpectrum:
    def test_anchor_single_root_lambda_equals_eps(self):
        rng = np.random.default_rng(101)
        cfg0 = ModelConfig(Example(1), "a", 1, 0.0)
        block = BlockSpec(n=0, l=0, sigma=+1)
        for _ in range(5):
            eps = float(rng.uniform(-5, 5))
            roots = spectrum(ModelConfig(Example(1), "a", 1, eps), block)
            assert len(roots) == 1
            assert roots[0].physical
            assert math.isclose(roots[0].value, eps, rel_tol=1e-12, abs_tol=1e-12)
            assert roots[0].energy == roots[0].value

    def test_anchor_pair(self):
        cfg = ModelConfig(Example(1), "a", 1, 0.0)
        roots = spectrum(cfg, BlockSpec(n=1, l=1, sigma=+1))
        assert [r.value for r in roots] == pytest.approx([-4.0, 4.0], abs=1e-10)
        assert all(r.physical for r in roots)

    def test_model2_first_anchor(self):
        cfg = ModelConfig(Example(2), "first", -1, 15.0)
        roots = spectrum(cfg, BlockSpec(n=0, l=1, sigma=+1))
        assert len(roots) == 2
        physical = [r for r in roots if r.physical]
        assert len(physical) == 1
        assert math.isclose(physical[0].value, -1.0, abs_tol=1e-10)
        assert math.isclose(physical[0].energy, -1.0, abs_tol=1e-10)
        other = [r for r in roots if not r.physical][0]
        assert math.isclose(other.value, 3.0, abs_tol=1e-10)
        # the energy map applies to every real root; only the sign filter
        # marks chi = 3 as unphysical
        assert math.isclose(other.energy, -9.0, abs_tol=1e-10)

    def test_model2_second_anchor(self):
        cfg = ModelConfig(Example(2), "second", 1, 15.0)
        roots = spectrum(cfg, BlockSpec(n=0, l=-1, sigma=-1))
        physical = [r for r in roots if r.physical]
        assert len(physical) == 1
        assert math.isclose(physical[0].value, -1.0, abs_tol=1e-10)

    def test_counts_before_filtering(self):
        res1 = solve_block(
            ModelConfig(Example(1), "a", 2, 1.1), BlockSpec(4, 3, +1))
        assert len(res1.roots) == 5
        assert res1.filtered_count == 0
        res2 = solve_block(
            ModelConfig(Example(2), "second", 3, 9.0), BlockSpec(2, -3, -1))
        assert len(res2.roots) == 6

    def test_roots_sorted_ascending_by_energy(self):
        res = solve_block(
            ModelConfig(Example(2), "second", 3, 30.0), BlockSpec(2, -3, -1))
        energies = [r.energy for r in res.roots]
        assert None not in energies
        assert energies == sorted(energies)
        phys = [r.energy for r in res.roots if r.physical]
        assert phys and all(e < 0 for e in phys)

    def test_eigenvector_attached_to_physical_roots(self):
        res = solve_block(
            ModelConfig(Example(1), "a", 1, 0.7), BlockSpec(2, 2, +1))
        for r in res.roots:
            assert r.eigenvector is not None
            assert r.eigenvector.coeffs[0] == 1.0
            assert r.residual < 1e-10

    def test_high_degree_blocks_stay_in_double(self):
        # past n = 20, where the expanded-polynomial solver needed 128 bits;
        # each physical root is confirmed by one 256-bit Newton step on
        # determinant_numeric, with a central-difference derivative
        cases = [
            (ModelConfig(Example(1), "a", 2, -1.0), 21),
            (ModelConfig(Example(1), "a", 3, 2.5), 30),
            (ModelConfig(Example(1), "a", 1, 0.25), 40),
            (ModelConfig(Example(2), "second", 22, 400.0), 21),
            (ModelConfig(Example(2), "second", 25, 1600.0), 24),
            (ModelConfig(Example(2), "second", 31, 900.0), 30),
        ]
        for config, n in cases:
            block = make_block(config, n)
            res = solve_block(config, block)
            assert res.precision_bits == 53
            physical = [r for r in res.roots if r.physical]
            assert physical
            with mpmath.workprec(256):
                seqs = block_sequences(config, block, precision=256)
                for root in physical:
                    x = mpmath.mpf(root.value)
                    h = mpmath.mpf(2) ** -100 * max(1, abs(x))
                    slope = (spectral.determinant_numeric(seqs, x + h)
                             - spectral.determinant_numeric(seqs, x - h)) / (2 * h)
                    step = spectral.determinant_numeric(seqs, x) / slope
                    assert abs(step) <= 1e-12 * max(1, abs(x)), (config, n, root.value)

    def test_root_missing_the_residual_target_is_refined(self, monkeypatch):
        # between the double (~1e-16) and 128-bit (~1e-38) terminal residuals
        monkeypatch.setattr(models, "RESIDUAL_TARGET", 1e-20)
        for config, block in (
            (ModelConfig(Example(1), "a", 1, 0.5), BlockSpec(3, 3, +1)),
            (ModelConfig(Example(2), "second", 4, 100.0), BlockSpec(3, -4, -1)),
        ):
            refined = solve_block(config, block)
            assert refined.precision_bits == 128
            monkeypatch.setattr(models, "RESIDUAL_TARGET", 1e-10)
            plain = solve_block(config, block)
            monkeypatch.setattr(models, "RESIDUAL_TARGET", 1e-20)
            assert plain.precision_bits == 53
            for r, p in zip(refined.roots, plain.roots):
                assert r.physical == p.physical
                if r.physical:
                    assert r.residual <= 1e-20
                    assert math.isclose(r.value, p.value, rel_tol=1e-12, abs_tol=1e-12)

    def test_exhausted_rungs_raise_precision_error(self, monkeypatch):
        monkeypatch.setattr(models, "RESIDUAL_TARGET", -1.0)
        with pytest.raises(PrecisionError, match="after Newton polish at 128 bits"):
            solve_block(ModelConfig(Example(1), "a", 1, 0.5), BlockSpec(1, 1, +1))

    def test_root_missing_the_target_in_double_is_polished_at_128_bits(self):
        # the double null vector of this root has a terminal residual of
        # 2.3e-9; a 128-bit Newton polish moves the root by 3e-17 relative
        # and brings the residual to rounding level
        config = ModelConfig(Example(1), "a", 14, 30.0)
        res = solve_block(config, make_block(config, 13))
        assert res.precision_bits == 128
        assert 28.222332638496038 in [r.value for r in res.roots]
        physical = [r for r in res.roots if r.physical]
        assert len(physical) == len(res.roots) == 14
        assert all(r.residual <= 1e-10 for r in physical)
        # the other 13 roots keep the null vectors of the per-root reference
        seqs = block_sequences(config, make_block(config, 13))
        for r in physical:
            if r.value != 28.222332638496038:
                want = polynomial_from_recurrence(seqs, r.value)
                assert r.eigenvector.coeffs == want.coeffs
                assert r.residual == want.terminal_residual

    def test_spurious_physical_root_raises_instead_of_duplicating_a_state(self):
        # the double eigensolver returns a spurious real negative chi whose
        # Newton iteration at 128 bits would land on another physical root
        # of the same block, which was then reported twice
        for k, epsilon, n, root in (
            (31, 5000.0, 27, -35.42581300892498),
            (45, 1600.0, 37, -9.419512573873368),
        ):
            config = ModelConfig(Example(2), "second", k, epsilon)
            message = rf"^root {re.escape(repr(root))} of block .* at 128 bits$"
            with pytest.raises(PrecisionError, match=message):
                solve_block(config, make_block(config, n))


class TestSolveBlocks:
    def test_batch_equals_blocks_solved_one_at_a_time(self):
        # model 1b k = 37, epsilon = 30 has blocks whose roots take the
        # 128-bit polish; model 2 adds the ragged Newton polish and a
        # borderline root at chi ~ 0
        for config, n_max in (
            (ModelConfig(Example(1), "b", 37, 30.0), 40),
            (ModelConfig(Example(2), "second", 21, 1200.0), 20),
            (ModelConfig(Example(2), "second", 31, 15.0), 30),
        ):
            blocks = permissible_blocks(config, n_max=n_max)
            with warnings.catch_warnings(record=True) as batch_warnings:
                warnings.simplefilter("always")
                batch = models.solve_blocks(config, blocks)
            with warnings.catch_warnings(record=True) as alone_warnings:
                warnings.simplefilter("always")
                alone = [solve_block(config, b) for b in blocks]
            assert [repr(r) for r in batch] == [repr(r) for r in alone]
            # the same warnings, in the same order, at the caller's line
            assert [str(w.message) for w in batch_warnings] == [
                str(w.message) for w in alone_warnings
            ]
            assert all(w.filename == __file__ for w in batch_warnings + alone_warnings)
        assert batch_warnings  # the borderline root of the last configuration
        config = ModelConfig(Example(1), "b", 37, 30.0)
        bits = [r.precision_bits for r in models.solve_blocks(
            config, permissible_blocks(config, n_max=40))]
        assert 128 in bits and 53 in bits

    def test_first_failing_block_raises_after_earlier_warnings(self):
        # of the blocks l = 27, 28, 29 (n = 26), the last fails its 128-bit
        # polish; the batch raises the same error as the loop
        config = ModelConfig(Example(2), "first", -27, -5.0)
        blocks = permissible_blocks(config, n_max=2)
        with pytest.raises(PrecisionError) as batch:
            models.solve_blocks(config, blocks)
        with pytest.raises(PrecisionError) as alone:
            for block in blocks:
                solve_block(config, block)
        assert str(batch.value) == str(alone.value)

    def test_eigensolver_failure_lets_earlier_blocks_report_first(self, monkeypatch):
        real_eigvals, calls = np.linalg.eigvals, []

        def fail_second(matrix):
            calls.append(matrix)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real_eigvals(matrix)

        monkeypatch.setattr(np.linalg, "eigvals", fail_second)
        config = ModelConfig(Example(2), "second", 3, 30.0)
        blocks = permissible_blocks(config, n_max=2)
        with pytest.raises(PrecisionError, match=r"eigensolver failed on block BlockSpec\(n=1"):
            models.solve_blocks(config, blocks)
        # a loop over solve_block would stop at the first block's polish
        calls.clear()
        monkeypatch.setattr(models, "RESIDUAL_TARGET", -1.0)
        with pytest.raises(PrecisionError, match=r"BlockSpec\(n=2.* at 128 bits$"):
            models.solve_blocks(config, blocks)

    def test_empty_block_list(self):
        assert models.solve_blocks(ModelConfig(Example(1), "a", 2, 0.5), []) == []


class TestFieldsAndPotentials:
    def test_vector_potential_model1(self):
        cfg = ModelConfig(Example(1), "a", 1, 0.0)
        assert vector_potential(cfg, 0.0) == 0.0
        cfg = ModelConfig(Example(1), "a", 1, 2.0)
        assert vector_potential(cfg, 1.0) == pytest.approx(2.5, abs=1e-15)

    def test_vector_potential_model2(self):
        cfg = ModelConfig(Example(2), "first", -1, 0.0)
        assert vector_potential(cfg, 1.0) == pytest.approx(1 / math.sqrt(2))
        with pytest.raises(ValueError):
            vector_potential(cfg, 0.0)

    def test_scalar_potential(self):
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        assert scalar_potential(cfg, 0.0) == 0.0
        assert scalar_potential(cfg, 1.0) == pytest.approx(-5.0, abs=1e-14)
        cfg2 = ModelConfig(Example(2), "first", -1, 3.0)
        assert scalar_potential(cfg2, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_magnetic_field(self):
        cfg = ModelConfig(Example(1), "a", 1, 0.0)
        assert magnetic_field(cfg, 0.0) == 0.0
        cfg2 = ModelConfig(Example(2), "first", -3, 0.0)
        assert magnetic_field(cfg2, 0.0) == pytest.approx(-3.0)

    def test_field_is_curl_of_potential(self):
        rng = np.random.default_rng(37)
        for cfg in (
            ModelConfig(Example(1), "a", 2, 1.7),
            ModelConfig(Example(2), "second", 2, 0.3),
        ):
            rho = rng.uniform(0.05, 5.0, size=50)
            h = 1e-6
            lhs = magnetic_field(cfg, rho)
            rhs = (
                (rho + h) * vector_potential(cfg, rho + h)
                - (rho - h) * vector_potential(cfg, rho - h)
            ) / (2 * h * rho)
            assert np.allclose(lhs, rhs, rtol=1e-8, atol=1e-8)

    def test_flux(self):
        cfg = ModelConfig(Example(2), "second", 2, 0.0)
        assert total_flux(cfg) == pytest.approx(4 * math.pi, rel=1e-15)
        assert total_flux(cfg, numeric=True) == pytest.approx(
            4 * math.pi, abs=1e-6)
        cfg1 = ModelConfig(Example(1), "a", 1, 1.0)
        assert math.isinf(total_flux(cfg1))

    def test_t_of_rho(self):
        assert t_of_rho(0.0) == 1.0
        assert t_of_rho(math.sqrt(3.0)) == pytest.approx(1.5, abs=1e-15)
        grid = np.linspace(0, 10, 200)
        assert np.all(np.diff(t_of_rho(grid)) > 0)


class TestWavefunctions:
    def test_positive_l_vanishes_at_origin(self):
        cfg = ModelConfig(Example(1), "a", 1, 0.3)
        block = make_block(cfg, 1)
        root = spectrum(cfg, block)[0]
        assert wavefunction(cfg, block, root, 0.0) == 0.0

    def test_ground_profile_is_pure_envelope(self):
        eps = 1.2
        cfg = ModelConfig(Example(1), "a", 1, eps)
        block = make_block(cfg, 0)
        root = spectrum(cfg, block)[0]
        rho = np.linspace(0.0, 3.0, 40)
        vals = wavefunction(cfg, block, root, rho)
        expect = np.exp(-rho ** 4 / 8 - eps * rho ** 2 / 4)
        assert np.allclose(vals, expect, rtol=1e-13, atol=1e-13)

    def test_model2_boundary_value(self):
        cfg = ModelConfig(Example(2), "first", -1, 15.0)
        block = BlockSpec(n=0, l=1, sigma=+1)
        root = [r for r in spectrum(cfg, block) if r.physical][0]
        val = wavefunction(cfg, block, root, 0.0)
        assert val == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_angular_phase(self):
        cfg = ModelConfig(Example(1), "b", 4, 0.5)
        block = make_block(cfg, 1)
        root = spectrum(cfg, block)[0]
        v0 = wavefunction(cfg, block, root, 1.5, phi=0.0)
        v1 = wavefunction(cfg, block, root, 1.5, phi=0.25)
        # sigma = -1, |l| = 1: phase e^{-i phi}
        assert v1 == pytest.approx(v0 * np.exp(-0.25j), rel=1e-12)

    def test_unphysical_root_rejected(self):
        cfg = ModelConfig(Example(2), "first", -1, 15.0)
        block = BlockSpec(n=0, l=1, sigma=+1)
        bad = [r for r in spectrum(cfg, block) if not r.physical][0]
        with pytest.raises(SelectionError):
            wavefunction(cfg, block, bad, 1.0)

    def test_norm_and_tail(self):
        cfg = ModelConfig(Example(1), "a", 2, 0.9)
        block = make_block(cfg, 2)
        root = spectrum(cfg, block)[0]
        total, tail = radial_norm(cfg, block, root)
        assert math.isfinite(total) and total > 0
        assert tail < 1e-12

    @staticmethod
    def scalar_quad_norm(cfg, block, root):
        split = models.decay_split(cfg, root)

        def integrand(r):
            return float(models.radial_values(cfg, block, root, r)) ** 2 * r

        return sum(
            quad(integrand, a, b, epsabs=0, epsrel=1e-12, limit=1000)[0]
            for a, b in ((0.0, split), (split, 2.0 * split)))

    def test_tiny_norms_are_relative_accurate(self):
        # Norms from 6.6e-27 down to 2.3e-34, far below any absolute floor.
        cfg = ModelConfig(Example(2), "second", 5, 1600.0)
        block = make_block(cfg, 4)
        bound = [r for r in spectrum(cfg, block) if r.physical]
        assert len(bound) == 5
        for root in bound:
            total, _ = radial_norm(cfg, block, root)
            assert total < 1e-26
            assert total == pytest.approx(
                self.scalar_quad_norm(cfg, block, root), rel=1e-6, abs=0)

    def test_small_chi_state_keeps_a_negligible_tail(self):
        cfg = ModelConfig(Example(2), "second", 2, 4.0)
        block = make_block(cfg, 0)
        root = [r for r in spectrum(cfg, block) if r.physical][0]
        assert models.decay_split(cfg, root) > 100
        total, tail = radial_norm(cfg, block, root)
        assert tail < 1e-12
        assert total == pytest.approx(
            self.scalar_quad_norm(cfg, block, root), rel=1e-9, abs=0)

    def test_unconverged_norm_raises_precision_error(self, monkeypatch):
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        block = make_block(cfg, 0)
        root = spectrum(cfg, block)[0]
        rng = np.random.default_rng(0)

        def noisy(config, block, root, rho):
            r = np.asarray(rho, dtype=float)
            return np.exp(-r * r) * (1.0 + 1e-2 * rng.standard_normal(r.shape))

        monkeypatch.setattr(models, "radial_values", noisy)
        with pytest.raises(PrecisionError, match="did not converge"):
            radial_norm(cfg, block, root)

    def test_normalized_profile_integrates_to_one(self):
        cfg = ModelConfig(Example(2), "second", 2, 30.0)
        block = make_block(cfg, 1)
        root = [r for r in spectrum(cfg, block) if r.physical][0]
        grid = np.linspace(0.0, 30.0, 50)
        prof = radial_profile(cfg, block, root, grid, normalize=True)
        scale = 1.0 / math.sqrt(prof.norm)
        value, _ = quad(
            lambda r: abs(
                wavefunction(cfg, block, root, np.array([r]))[0] * scale
            ) ** 2 * r,
            0.0, 40.0, limit=300)
        assert value == pytest.approx(1.0, abs=1e-8)


class TestSchrodingerResidual:
    def test_anchor_state_residual(self):
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        block = make_block(cfg, 0)
        root = spectrum(cfg, block)[0]
        grid = np.arange(0.1, 3.0 + 1e-12, 1e-3)
        assert schrodinger_residual(cfg, block, root, grid) < 1e-6

    def test_fourth_order_scaling(self):
        # h large enough that truncation dominates the 1/h^2 roundoff noise
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        block = make_block(cfg, 0)
        root = spectrum(cfg, block)[0]
        r_coarse = schrodinger_residual(
            cfg, block, root, np.arange(0.2, 3.0, 2e-2))
        r_fine = schrodinger_residual(
            cfg, block, root, np.arange(0.2, 3.0, 1e-2))
        assert 8.0 < r_coarse / r_fine < 40.0

    def test_detector_sees_wrong_energy(self):
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        block = make_block(cfg, 0)
        root = spectrum(cfg, block)[0]
        shifted = type(root)(
            value=root.value + 0.1,
            energy=root.energy + 0.1,
            physical=True,
            residual=root.residual,
            eigenvector=root.eigenvector,
            borderline=False,
        )
        grid = np.arange(0.1, 3.0, 1e-3)
        assert schrodinger_residual(cfg, block, shifted, grid) >= 0.05

    def test_grid_too_close_to_the_axis(self):
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        block = make_block(cfg, 0)
        root = spectrum(cfg, block)[0]
        with pytest.raises(ValueError):
            schrodinger_residual(cfg, block, root, np.arange(0.001, 1.0, 1e-3))


class TestResidualsAcrossFamilies:
    def test_all_four_families(self):
        cases = [
            (ModelConfig(Example(1), "a", 1, 0.8), None),
            (ModelConfig(Example(1), "b", 5, 0.4), None),
            (ModelConfig(Example(2), "first", -2, 20.0), None),
            (ModelConfig(Example(2), "second", 2, 20.0), None),
        ]
        for cfg, _ in cases:
            block = permissible_blocks(cfg, n_max=1)[0]
            phys = [r for r in spectrum(cfg, block) if r.physical]
            assert phys, f"no physical state in {cfg}"
            grid = np.arange(0.1, 4.0, 1e-3)
            res = schrodinger_residual(cfg, block, phys[0], grid)
            assert res < 1e-5
