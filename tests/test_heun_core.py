"""Degree conditions, sequences, recurrence, and equation residuals."""

import math
import re

import numpy as np
import pytest

from heun_spectra import (
    HeunBParams,
    HeunCParams,
    PolynomialCoefficients,
    RecurrenceBreakdownError,
    heunb_degree,
    heunb_ode_residual,
    heunb_sequences,
    heunc_degree,
    heunc_ode_residual,
    heunc_sequences,
    polynomial_from_recurrence,
)
from heun_spectra.heun_core import Recurrence


def constant_entries(rec):
    """The entries of a recurrence whose rows are constants, as tuples."""
    assert all(m.shape[1] == 1 for m in rec)
    return tuple(tuple(m[:, 0].tolist()) for m in rec)


def recurrence(a, b, c):
    """A recurrence from its coefficient rows, lowest degree first."""
    return Recurrence(*(np.array(rows, dtype=float).reshape(len(rows), -1)
                        for rows in (a, b, c)))


class TestDegreeConditions:
    def test_biconfluent_degree_one(self):
        assert heunb_degree(HeunBParams(1.0, 0.5, 5.0, 0.0)) == 1

    def test_biconfluent_degree_zero(self):
        assert heunb_degree(HeunBParams(0.0, 0.0, 2.0, 3.0)) == 0

    def test_biconfluent_odd_gap_is_not_polynomial(self):
        assert heunb_degree(HeunBParams(1.0, 0.0, 4.0, 0.0)) is None

    def test_biconfluent_negative_gap_is_not_polynomial(self):
        assert heunb_degree(HeunBParams(5.0, 0.0, 1.0, 0.0)) is None

    def test_confluent_degree_zero(self):
        # alpha = 4 chi with chi = -1; delta = 0 forces n+1+(beta+gamma)/2 = 0
        assert heunc_degree(HeunCParams(-4.0, -2.0, 0.0, 0.0, 0.0)) == 0

    def test_confluent_degree_one(self):
        assert heunc_degree(HeunCParams(2.0, 0.0, 0.0, -4.0, 0.0)) == 1

    def test_confluent_alpha_zero_is_an_error(self):
        with pytest.raises(ValueError):
            heunc_degree(HeunCParams(0.0, 1.0, 1.0, 1.0, 0.0))

    def test_confluent_fractional_is_not_polynomial(self):
        assert heunc_degree(HeunCParams(2.0, 0.0, 0.0, -5.0, 0.0)) is None

    def test_tolerance_window(self):
        assert heunb_degree(HeunBParams(1.0, 0.0, 5.0 + 5e-10, 0.0)) == 1
        assert heunb_degree(HeunBParams(1.0, 0.0, 5.0 + 1e-6, 0.0)) is None


class TestSequences:
    def test_biconfluent_example(self):
        seqs = heunb_sequences(HeunBParams(1.0, 0.0, 6.0, 0.0), n=1)
        a, b, c = constant_entries(seqs)
        assert a == (0.0, 0.0)
        assert b == (4.0,)
        assert c == (6.0,)

    def test_biconfluent_single_diagonal(self):
        seqs = heunb_sequences(HeunBParams(0.0, 1.0, 2.0, 0.0), n=0)
        a, b, c = constant_entries(seqs)
        assert a == (-1.0,)
        assert b == ()
        assert c == ()

    def test_confluent_example(self):
        params = HeunCParams(4.0, 0.0, 0.0, -8.0, 0.0)
        assert params.mu == 2.0
        seqs = heunc_sequences(params, n=1)
        a, b, c = constant_entries(seqs)
        assert a == (2.0, 4.0)
        assert b == (1.0,)
        assert c == (4.0,)

    def test_mu_nu_formulas(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            al, be, ga, de, eta = rng.uniform(-3, 3, size=5)
            p = HeunCParams(al, be, ga, de, eta)
            mu = 0.5 * (al - be - ga + al * be - ga * be) - eta
            nu = 0.5 * (al + be + ga + ga * al + ga * be) + de + eta
            assert math.isclose(p.mu, mu, rel_tol=1e-14, abs_tol=1e-14)
            assert math.isclose(p.nu, nu, rel_tol=1e-14, abs_tol=1e-14)

    def test_biconfluent_formulas_random(self):
        rng = np.random.default_rng(62)
        for _ in range(40):
            al, be, ga, de = rng.uniform(-4, 4, size=4)
            n = int(rng.integers(0, 7))
            seqs = heunb_sequences(HeunBParams(al, be, ga, de), n)
            a, b, c = constant_entries(seqs)
            for j in range(n + 1):
                assert math.isclose(a[j], -(de + be * (2 * j + al + 1)), abs_tol=1e-12)
            for j in range(n):
                assert math.isclose(b[j], 2 * (j * (j + al + 2) + al + 1), abs_tol=1e-12)
                assert math.isclose(c[j], 2 * (ga - al - 2 * j - 2), abs_tol=1e-12)

    def test_termination_entry_vanishes_at_the_degree(self):
        # gamma - alpha = 2(n+1) makes c_n = 2(gamma - alpha - 2n - 2) = 0,
        # so the recurrence truncates and p_{j>n} stay zero
        params = HeunBParams(1.5, 0.3, 1.5 + 2 * 4, 0.2)
        n = heunb_degree(params)
        assert n == 3
        seqs = heunb_sequences(params, n + 1)
        _, _, c = constant_entries(seqs)
        assert c[n] == 0.0

    def test_sizes(self):
        seqs = heunb_sequences(HeunBParams(0.0, 0.0, 2.0, 0.0), n=5)
        assert seqs.size == 6
        assert len(seqs.a) == 6
        assert len(seqs.b) == 5
        assert len(seqs.c) == 5

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="^degree must be non-negative$"):
            heunb_sequences(HeunBParams(0.0, 0.0, 2.0, 0.0), -1)
        with pytest.raises(ValueError, match="^degree must be non-negative$"):
            heunc_sequences(HeunCParams(4.0, 0.0, 0.0, -8.0, 0.0), -1)

    def test_non_finite_parameters_rejected(self):
        with pytest.raises(ValueError):
            HeunBParams(math.nan, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            HeunCParams(1.0, math.inf, 0.0, 0.0, 0.0)


class TestRecurrence:
    def test_first_step(self):
        # the contract's literal sequences, constant in s
        seqs = recurrence([[-2.0], [7.0]], [[4.0]], [[3.0]])
        poly = polynomial_from_recurrence(seqs, 0.0)
        assert poly.coeffs[0] == 1.0
        assert poly.coeffs[1] == 0.5

    def test_degree_zero(self):
        seqs = heunb_sequences(HeunBParams(0.0, 1.0, 2.0, 0.0), n=0)
        poly = polynomial_from_recurrence(seqs, 0.0)
        assert poly.coeffs == (1.0,)
        # single relation RB(0): residual is |a_0| over its own scale
        a0 = abs(seqs.a[0, 0])
        assert math.isclose(poly.terminal_residual, a0 / max(a0, 1.0), rel_tol=1e-15)

    def test_zero_subdiagonal_breaks(self):
        seqs = heunb_sequences(HeunBParams(-1.0, 0.0, 3.0, 0.0), n=1)
        assert seqs.b[0, 0] == 0.0
        with pytest.raises(RecurrenceBreakdownError):
            polynomial_from_recurrence(seqs, 0.0)

    def test_residual_vanishes_at_a_true_root(self):
        # gamma - alpha = 4 admits n = 1; the quantization condition in delta
        # is det = delta^2 - b_0 c_0 (beta = 0), so delta = sqrt(b_0 c_0)
        al, ga = 1.0, 5.0
        b0 = 2 * (al + 1)
        c0 = 2 * (ga - al - 2)
        delta = math.sqrt(b0 * c0)
        seqs = heunb_sequences(HeunBParams(al, 0.0, ga, delta), n=1)
        poly = polynomial_from_recurrence(seqs, 0.0)
        assert poly.terminal_residual < 1e-10

    @pytest.mark.parametrize("coeffs, message", [
        ((1.0 + 2**-52, 0.5), "recurrence normalization requires p_0 = 1"),
        ((complex(1.0, 2**-52), 0.5), "recurrence normalization requires p_0 = 1"),
    ], ids=["p0", "p0-complex"])
    def test_coefficients_are_checked(self, coeffs, message):
        # the p_0 check caught complex points whose a_0 / a_0 missed 1
        assert PolynomialCoefficients((1.0, 0.5), 0.0).degree == 1
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PolynomialCoefficients(coeffs, 0.0)

    def test_symbolic_entries_require_substitution(self):
        # both diagonal entries are s itself
        seqs = recurrence([[0.0, 1.0], [0.0, 1.0]], [[4.0]], [[2.0]])
        poly = polynomial_from_recurrence(seqs, s=-2.0)
        assert poly.coeffs == (1.0, 0.5)


class TestOdeResiduals:
    def test_biconfluent_trivial_constant_solution(self):
        # gamma - alpha - 2 = 0 and (1+alpha) beta + delta = 0 make y = 1 exact
        params = HeunBParams(1.0, 2.0, 3.0, -4.0)
        seqs = heunb_sequences(params, n=0)
        poly = polynomial_from_recurrence(seqs, 0.0)
        for z in (0.5, 1.0, 2.0):
            assert heunb_ode_residual(params, poly, z) == 0.0

    def test_biconfluent_singular_point_rejected(self):
        params = HeunBParams(1.0, 2.0, 3.0, -4.0)
        poly = polynomial_from_recurrence(heunb_sequences(params, 0), 0.0)
        with pytest.raises(ValueError):
            heunb_ode_residual(params, poly, 0.0)

    def test_confluent_trivial_constant_solution(self):
        params = HeunCParams(0.0, 0.0, 0.0, 0.0, 0.0)
        assert params.mu == 0.0 and params.nu == 0.0
        seqs = heunc_sequences(params, n=0)
        poly = polynomial_from_recurrence(seqs, 0.0)
        for z in (1.5, 2.0, 5.0):
            assert heunc_ode_residual(params, poly, z) == 0.0

    def test_confluent_singular_points_rejected(self):
        params = HeunCParams(0.0, 0.0, 0.0, 0.0, 0.0)
        poly = polynomial_from_recurrence(heunc_sequences(params, 0), 0.0)
        for z in (0.0, 1.0):
            with pytest.raises(ValueError):
                heunc_ode_residual(params, poly, z)

    def test_pipeline_solution_and_perturbation(self):
        # quantized delta from test_residual_vanishes_at_a_true_root
        al, ga = 1.0, 5.0
        delta = math.sqrt(2 * (al + 1) * 2 * (ga - al - 2))
        params = HeunBParams(al, 0.0, ga, delta)
        poly = polynomial_from_recurrence(heunb_sequences(params, 1), 0.0)
        for z in (0.5, 1.0, 2.0):
            assert heunb_ode_residual(params, poly, z) < 1e-12
        bad = type(poly)(
            coeffs=poly.coeffs[:-1] + (poly.coeffs[-1] * 1.01,),
            terminal_residual=poly.terminal_residual,
        )
        # z = 1 is degenerate for this family (the residual of 1 + c z
        # vanishes there for every c), so probe the detector off it
        assert heunb_ode_residual(params, bad, 2.0) > 1e-4
