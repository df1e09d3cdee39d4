"""Determinant assembly, root finding, and null vectors.

The solve routines, the determinant routes that check them and
``polynomial_from_recurrence`` all take ``Recurrence`` arrays from
``block_recurrence``."""

import hashlib
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polytrim

from heun_spectra import (
    BlockSpec,
    ModelConfig,
    ParameterError,
    RecurrenceBreakdownError,
    dense_determinant,
    determinant_numeric,
    determinant_polynomial,
    make_block,
    polynomial_from_recurrence,
    solve_block,
)
from heun_spectra.heun_core import horner
from heun_spectra.models import (
    Example,
    block_recurrence,
    block_sequences,
    permissible_blocks,
)
from heun_spectra.spectral import (
    RESCALE_ROWS,
    RESIDUAL_TARGET,
    Recurrence,
    _continuant_lanes,
    companion_eigenvalues,
    newton_corrections,
    null_vectors,
    ragged_null_vectors,
    ragged_polish,
    symmetric_eigenvalues,
)


def extended_recurrence(config, block):
    """The block's recurrence with each float converted exactly to an mpmath
    number, for arithmetic at the caller's working precision."""
    to_mpf = np.frompyfunc(mpmath.mpf, 1, 1)
    return Recurrence(*map(to_mpf, block_recurrence(config, block)))


def expanded_roots(rec):
    """np.roots of the expanded determinant: the independent reference."""
    det = determinant_polynomial(rec)
    return np.roots([float(c) for c in det[::-1]])


def assert_same_roots(got, want, rtol):
    got = sorted(np.asarray(got, dtype=complex), key=lambda z: (z.real, z.imag))
    want = sorted(np.asarray(want, dtype=complex), key=lambda z: (z.real, z.imag))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= rtol * max(1.0, abs(w))


def const_rec(a, b, c):
    return Recurrence(*(np.array(v, dtype=float)[:, None] for v in (a, b, c)))


def pencil_roots(rec):
    """Model 2 roots: companion eigenvalues, Newton-polished on the continuant."""
    return ragged_polish([rec], companion_eigenvalues(rec))


def null_vector_at(rec, s):
    """Coefficients and terminal residual at one point of one block."""
    coeffs, residuals = ragged_null_vectors([rec], np.array([s]))
    return tuple(coeffs[0].tolist()), float(residuals[0])


class TestDeterminantPolynomial:
    def test_two_by_two_constants(self):
        det = determinant_polynomial(const_rec((2, 3), (1,), (1,)))
        assert det.tolist() == [5.0]

    def test_model1_smallest_block_is_s_minus_eps(self):
        cfg = ModelConfig(Example(1), "a", 1, 0.75)
        rec = block_recurrence(cfg, BlockSpec(n=0, l=0, sigma=+1))
        det = determinant_polynomial(rec)
        assert det.tolist() == [-0.75, 1.0]

    def test_model1_two_state_block_is_s_squared_minus_16(self):
        cfg = ModelConfig(Example(1), "a", 1, 0.0)
        rec = block_recurrence(cfg, BlockSpec(n=1, l=1, sigma=+1))
        det = determinant_polynomial(rec)
        assert det.tolist() == [-16.0, 0.0, 1.0]

    def test_degrees_by_model(self):
        cfg1 = ModelConfig(Example(1), "a", 2, 1.0)
        det1 = determinant_polynomial(block_recurrence(cfg1, BlockSpec(3, 2, +1)))
        assert len(det1) - 1 == 4
        cfg2 = ModelConfig(Example(2), "first", -4, 1.0)
        det2 = determinant_polynomial(block_recurrence(cfg2, BlockSpec(3, 4, +1)))
        assert len(det2) - 1 == 8


class TestDeterminantNumeric:
    def test_value_at_zero_is_constant_term(self):
        cfg = ModelConfig(Example(2), "second", 3, 2.0)
        rec = block_recurrence(cfg, BlockSpec(n=2, l=-3, sigma=-1))
        det = determinant_polynomial(rec)
        assert math.isclose(
            determinant_numeric(rec, 0.0), det[0], rel_tol=1e-12
        )

    def test_dual_path_small_degree(self):
        rng = np.random.default_rng(17)
        cfg = ModelConfig(Example(1), "a", 1, float(rng.uniform(-2, 2)))
        rec = block_recurrence(cfg, BlockSpec(n=5, l=5, sigma=+1))
        det = determinant_polynomial(rec)
        for _ in range(20):
            s = float(rng.uniform(-8, 8))
            lu = dense_determinant(rec, s)
            scale = max(1.0, abs(lu))
            assert abs(horner(det, s) - lu) / scale < 1e-10
            assert abs(determinant_numeric(rec, s) - lu) / scale < 1e-10

    def test_ill_scaled_entries(self):
        rng = np.random.default_rng(18)
        base = block_recurrence(
            ModelConfig(Example(1), "a", 1, 1.0), BlockSpec(n=10, l=10, sigma=+1)
        )
        scaled = Recurrence(*(m * 1e6 for m in base))
        det = determinant_polynomial(scaled)
        for _ in range(10):
            s = float(rng.uniform(-5, 5))
            lu = dense_determinant(scaled, s)
            assert abs(horner(det, s) - lu) / max(1.0, abs(lu)) < 1e-6

    @pytest.mark.parametrize("variant, k, n, l", [
        ("first", -3, 2, 4), ("second", 3, 2, None), ("second", 5, 0, None),
    ])
    def test_dense_route_at_complex_points_in_double(self, variant, k, n, l):
        # model 2's unphysical roots are complex, so both routes must take
        # complex points on the float recurrence
        cfg = ModelConfig(Example(2), variant, k, 2.0)
        rec = block_recurrence(cfg, make_block(cfg, n, l))
        for s in (1 + 1j, -0.5 + 2j, 3j):
            lu = dense_determinant(rec, s)
            assert isinstance(lu, complex)
            assert abs(determinant_numeric(rec, s) - lu) <= 1e-12 * max(1.0, abs(lu))

    def test_extended_precision_path(self):
        cfg = ModelConfig(Example(2), "first", -6, 4.0)
        block = BlockSpec(n=5, l=6, sigma=+1)
        with mpmath.workprec(200):
            rec = extended_recurrence(cfg, block)
            s = mpmath.mpf("1.375")
            cont = determinant_numeric(rec, s)
            lu = dense_determinant(rec, s)
            assert abs(cont - lu) / max(1, abs(lu)) < mpmath.mpf(10) ** -40


class TestStructuredRoots:
    """Block roots by the structured routes (the symmetric eigensolve and the
    companion pencil), against np.roots of the expansion."""

    def test_quadratic(self):
        cfg = ModelConfig(Example(1), "a", 1, 0.0)
        rec = block_recurrence(cfg, BlockSpec(n=1, l=1, sigma=+1))
        roots = symmetric_eigenvalues(rec)
        assert list(roots) == pytest.approx([-4.0, 4.0], abs=1e-12)
        assert_same_roots(roots, expanded_roots(rec), 1e-12)

    def test_closed_form_quadratic_of_model2(self):
        cfg = ModelConfig(Example(2), "first", -1, 15.0)
        rec = block_recurrence(cfg, BlockSpec(n=0, l=1, sigma=+1))
        det = determinant_polynomial(rec)
        # the 1x1 determinant is (chi - 1)^2 - 4
        assert det.tolist() == pytest.approx([-3.0, -2.0, 1.0], abs=1e-12)
        roots, corrections = pencil_roots(rec)
        values = sorted(r.real for r in roots)
        assert values == pytest.approx([-1.0, 3.0], abs=1e-10)
        assert np.all(roots.imag == 0)
        assert np.all(np.abs(corrections) <= 1e-12)
        assert_same_roots(roots, expanded_roots(rec), 1e-12)

    def test_root_count_matches_degree(self):
        rng = np.random.default_rng(19)
        for n, k in ((2, 1), (4, 2), (7, 3)):
            cfg = ModelConfig(Example(1), "a", k, float(rng.uniform(-2, 2)))
            rec = block_recurrence(cfg, BlockSpec(n=n, l=n + 1 - k, sigma=+1))
            roots = symmetric_eigenvalues(rec)
            assert len(roots) == len(determinant_polynomial(rec)) - 1
            assert_same_roots(roots, expanded_roots(rec), 1e-8)
        for n in (1, 3, 6):
            for cfg, block in (
                (ModelConfig(Example(2), "first", -(n + 1), float(rng.uniform(2, 40))),
                 BlockSpec(n=n, l=n + 2, sigma=+1)),
                (ModelConfig(Example(2), "second", n + 1, float(rng.uniform(2, 40))),
                 BlockSpec(n=n, l=-n - 1, sigma=-1)),
            ):
                rec = block_recurrence(cfg, block)
                roots, corrections = pencil_roots(rec)
                assert len(roots) == len(determinant_polynomial(rec)) - 1 == 2 * (n + 1)
                assert_same_roots(roots, expanded_roots(rec), 1e-8)
                assert np.all(np.abs(corrections) <= 1e-8 * np.maximum(1, np.abs(roots)))


class TestNewtonCorrections:
    def test_matches_expanded_polynomial_in_extended_precision(self):
        cfg = ModelConfig(Example(2), "second", 6, 7.0)
        block = BlockSpec(n=5, l=-6, sigma=-1)
        rng = np.random.default_rng(31)
        points = rng.uniform(-6, 6, 4) + 1j * rng.uniform(-2, 2, 4)
        with mpmath.workprec(200):
            rec = extended_recurrence(cfg, block)
            det = determinant_polynomial(rec)
            slope = np.polynomial.polynomial.polyder(det)
            xs = np.array([mpmath.mpc(z.real, z.imag) for z in points], dtype=object)
            got = newton_corrections([rec], xs)
            for x, g in zip(xs, got):
                want = horner(det, x) / np.polynomial.polynomial.polyval(x, slope)
                assert abs(g - want) <= mpmath.mpf(10) ** -50 * max(1, abs(want))
        doubles = newton_corrections([block_recurrence(cfg, block)], points)
        for d, x in zip(doubles, xs):
            with mpmath.workprec(200):
                want = complex(horner(det, x) / np.polynomial.polynomial.polyval(x, slope))
            assert abs(d - want) <= 1e-10 * max(1.0, abs(want))

    def test_rescaling_survives_overflowing_continuants(self):
        base = block_recurrence(
            ModelConfig(Example(1), "a", 1, 1.0), BlockSpec(n=60, l=60, sigma=+1)
        )
        scaled = Recurrence(*(m * 1e6 for m in base))
        s = np.array([0.5, -3.25, 7.0])
        # every entry scaled by 1e6 scales D and D' alike, so D/D' is unchanged
        with np.errstate(over="ignore", invalid="ignore"):
            assert not all(
                math.isfinite(determinant_numeric(scaled, x)) for x in s
            )
        got = newton_corrections([scaled], s)
        want = newton_corrections([base], s)
        assert np.all(np.isfinite(got))
        assert np.allclose(got, want, rtol=1e-10, atol=0)

    def test_polish_never_grows_a_correction(self):
        cfg = ModelConfig(Example(2), "first", -9, 30.0)
        rec = block_recurrence(cfg, BlockSpec(n=8, l=10, sigma=+1))
        exact, _ = pencil_roots(rec)
        polished, _ = ragged_polish([rec], exact * (1 + 1e-4))
        assert_same_roots(polished, exact, 1e-9)
        # at n = 30 the double-precision continuant is noise-limited, and
        # unguarded Newton steps from the expanded polynomial's roots make
        # some corrections grow
        cfg = ModelConfig(Example(2), "second", 31, 900.0)
        rec = block_recurrence(cfg, BlockSpec(n=30, l=-31, sigma=-1))
        start = expanded_roots(rec)
        before = np.abs(newton_corrections([rec], start))
        polished, corrections = ragged_polish([rec], start)
        assert np.all(np.abs(corrections) <= before)
        assert np.array_equal(corrections, newton_corrections([rec], polished))


class TestNullVector:
    def test_degree_zero_block(self):
        cfg = ModelConfig(Example(1), "a", 1, 2.0)
        rec = block_recurrence(cfg, BlockSpec(n=0, l=0, sigma=+1))
        assert null_vector_at(rec, 2.0)[0] == (1.0,)

    def test_contract_example_coefficients(self):
        cfg = ModelConfig(Example(1), "a", 1, 0.0)
        rec = block_recurrence(cfg, BlockSpec(n=1, l=1, sigma=+1))
        coeffs, residual = null_vector_at(rec, 4.0)
        assert coeffs == pytest.approx((1.0, -1.0), abs=1e-14)
        assert residual <= RESIDUAL_TARGET

    def test_off_root_value_is_rejected(self):
        # the terminal residual certifies a root: the solver rejects a point
        # whose residual misses RESIDUAL_TARGET
        cfg = ModelConfig(Example(1), "a", 1, 0.0)
        rec = block_recurrence(cfg, BlockSpec(n=1, l=1, sigma=+1))
        assert null_vector_at(rec, 4.01)[1] > RESIDUAL_TARGET

    def test_vector_annihilates_the_assembled_matrix(self):
        rng = np.random.default_rng(23)
        cfg = ModelConfig(Example(1), "a", 2, float(rng.uniform(-2, 2)))
        rec = block_recurrence(cfg, BlockSpec(n=4, l=3, sigma=+1))
        roots = symmetric_eigenvalues(rec)
        assert_same_roots(roots, expanded_roots(rec), 1e-9)
        coeffs, residuals = ragged_null_vectors([rec], roots)
        assert np.all(residuals <= RESIDUAL_TARGET)
        for s, p in zip(roots, coeffs.tolist()):
            a, b, c = rec.at(s)
            scale = max(abs(x) for x in p) * max(
                max(abs(x) for x in a), max(abs(x) for x in b), 1.0
            )
            n1 = rec.size
            for j in range(n1):
                row = a[j] * p[j]
                if j > 0:
                    row += c[j - 1] * p[j - 1]
                if j + 1 < n1:
                    row += b[j] * p[j + 1]
                assert abs(row) / scale < 1e-8


    @pytest.mark.parametrize(
        "example, case, k, epsilon, n, l",
        [
            (1, "a", 2, 1.5, 40, None),
            (1, "b", 31, -0.8, 30, None),
            (2, "second", 31, 1600.0, 30, None),
            (2, "first", -31, 1600.0, 30, 31),
        ],
    )
    def test_vectorized_recurrence_equals_the_per_root_reference(
        self, example, case, k, epsilon, n, l
    ):
        config = ModelConfig(Example(example), case, k, epsilon)
        block = make_block(config, n, l)
        roots = [r.value for r in solve_block(config, block).roots if r.physical]
        assert roots
        rec = block_recurrence(config, block)
        coeffs, residuals = ragged_null_vectors([rec], np.array(roots))
        assert coeffs.shape == (len(roots), n + 1)
        for s, got, residual in zip(roots, coeffs.tolist(), residuals.tolist()):
            want = polynomial_from_recurrence(rec, s)
            assert tuple(got) == want.coeffs
            assert residual == want.terminal_residual

    def test_vectorized_recurrence_at_128_bits(self):
        config = ModelConfig(Example(2), "second", 22, 400.0)
        block = make_block(config, 21)
        roots = [r.value for r in solve_block(config, block).roots if r.physical]
        assert len(roots) > 1
        with mpmath.workprec(128):
            rec = extended_recurrence(config, block)
            s = np.array([mpmath.mpf(r) for r in roots], dtype=object)
            coeffs, residuals = ragged_null_vectors([rec], s)
            wants = [polynomial_from_recurrence(rec, x) for x in s]
        for got, residual, want in zip(coeffs, residuals, wants):
            assert all(isinstance(p, mpmath.mpf) for p in got)
            assert tuple(got) == want.coeffs
            assert residual == want.terminal_residual

    def test_vectorized_recurrence_on_a_degree_zero_block(self):
        config = ModelConfig(Example(1), "a", 1, 2.0)
        rec = block_recurrence(config, BlockSpec(n=0, l=0, sigma=+1))
        s = np.array([2.0, -1.5, 0.0])
        coeffs, residuals = ragged_null_vectors([rec], s)
        assert coeffs.shape == (3, 1)
        for x, got, residual in zip(s, coeffs.tolist(), residuals.tolist()):
            want = polynomial_from_recurrence(rec, x)
            assert tuple(got) == want.coeffs == (1.0,)
            assert residual == want.terminal_residual
        assert residuals[0] == 0.0 and residuals[1] > 0.5

    def test_exact_entries_give_exact_coefficients(self):
        # model 1a, k = 1, eps = 0, n = 1 has the root lambda = 4 with the
        # null vector (1, -1); a float zero for c_{-1} p_{-1} used to turn
        # p_1 into a float
        to_fraction = np.frompyfunc(Fraction, 1, 1)
        config = ModelConfig(Example(1), "a", 1, 0.0)
        rec = Recurrence(*map(to_fraction, block_recurrence(config, BlockSpec(1, 1, +1))))
        want = polynomial_from_recurrence(rec, Fraction(4))
        coeffs, residuals = ragged_null_vectors([rec], np.array([Fraction(4)], dtype=object))
        for got in (want.coeffs, tuple(coeffs[0])):
            assert got == (1, -1)
            assert all(type(p) is Fraction for p in got)
        assert want.terminal_residual == residuals[0] == 0.0

    def test_p0_is_exactly_one_at_complex_points(self):
        # p_0 used to be a_0 / a_0, which for a complex a_0 can miss 1 in the
        # last bit (16 of these points raised "requires p_0 = 1"); the kernel
        # may fuse complex products, so the two agree to rounding, not bits
        config = ModelConfig(Example(2), "second", 3, 10.0)
        rec = block_recurrence(config, make_block(config, 1))
        s = np.random.default_rng(0).uniform(-5, 5, 200) + 0.5j
        coeffs, _ = ragged_null_vectors([rec], s)
        for x, row in zip(s.tolist(), coeffs):
            got = np.array(polynomial_from_recurrence(rec, x).coeffs)
            assert got[0] == 1
            np.testing.assert_allclose(got, row, rtol=1e-12, atol=0)

    def test_vanishing_super_diagonal_breaks_down(self):
        rec = Recurrence(*(np.array(v, dtype=float)[:, None]
                           for v in ((1, 2, 3), (1, 0), (1, 1))))
        with pytest.raises(RecurrenceBreakdownError, match="b_1 = 0"):
            ragged_null_vectors([rec], np.array([0.0, 1.0]))
        with pytest.raises(RecurrenceBreakdownError, match="b_1 = 0"):
            polynomial_from_recurrence(rec, 0.0)


class TestSymmetricPath:
    def test_matches_polynomial_roots_case_a(self):
        cfg = ModelConfig(Example(1), "a", 2, 1.3)
        rec = block_recurrence(cfg, BlockSpec(n=6, l=5, sigma=+1))
        sym = symmetric_eigenvalues(rec)
        poly_roots = sorted(r.real for r in expanded_roots(rec))
        assert np.allclose(sym, poly_roots, rtol=1e-9, atol=1e-9)

    def test_matches_polynomial_roots_case_b(self):
        cfg = ModelConfig(Example(1), "b", 9, -0.8)
        rec = block_recurrence(cfg, BlockSpec(n=4, l=2, sigma=-1))
        sym = symmetric_eigenvalues(rec)
        poly_roots = sorted(r.real for r in expanded_roots(rec))
        assert np.allclose(sym, poly_roots, rtol=1e-9, atol=1e-9)

    def test_certifies_reality(self):
        # the expanded polynomial's roots, found with no knowledge of the
        # symmetric structure, are real and are the symmetric eigenvalues
        rng = np.random.default_rng(29)
        for k in (1, 2, 3, 4):
            eps = float(rng.uniform(-3, 3))
            cfg = ModelConfig(Example(1), "a", k, eps)
            n = int(rng.integers(max(0, k - 1), 9))
            rec = block_recurrence(cfg, BlockSpec(n=n, l=n + 1 - k, sigma=+1))
            roots = expanded_roots(rec)
            scale = max(1.0, max(abs(r) for r in roots))
            assert all(abs(r.imag) < 1e-9 * scale for r in roots)
            assert_same_roots(symmetric_eigenvalues(rec), roots, 1e-9)


def _batch(recs, points):
    """Points of several recurrences concatenated, with each one's owner."""
    owner = np.repeat(np.arange(len(recs)), [len(p) for p in points])
    return np.concatenate(points), owner


def corrections_at_one_point(rec, x):
    """D(x) / D'(x) at one point of one recurrence, row by row as
    ``newton_corrections`` states it, with the rescaling every RESCALE_ROWS
    rows.  The arithmetic is numpy's on one-element arrays, which rounds as
    the kernel's arrays do: where numpy fuses the multiply-adds of a complex
    product (as with AVX-512), a Python complex product can differ from it
    in the last bit."""
    s = np.array([x])

    def entry(row):  # value and derivative by Horner's rule, top down
        value = row[-1] + 0 * s
        deriv = 0 * value
        for coeff in row[-2::-1]:
            deriv = deriv * s + value
            value = value * s + coeff
        return value, deriv

    a = [entry(row) for row in rec.a]
    e = [entry(row) for row in 0.0 + rec.b * rec.c]
    (d, dd), d_prev, dd_prev = a[0], np.ones_like(s), np.zeros_like(s)
    for j in range(1, len(a)):
        (aj, daj), (ej, dej) = a[j], e[j - 1]
        d, d_prev, dd, dd_prev = (
            aj * d - ej * d_prev, d, daj * d + aj * dd - dej * d_prev - ej * dd_prev, dd
        )
        if j % RESCALE_ROWS == 0:
            scale = np.abs(d) + np.abs(dd)
            scale = np.where(scale == 0, 1, scale)
            d, d_prev, dd, dd_prev = d / scale, d_prev / scale, dd / scale, dd_prev / scale
    return np.where(dd != 0, d / np.where(dd != 0, dd, 1), 0 * d)[0]


class TestRaggedKernel:
    """One pass over the roots of several blocks gives each root's own bits."""

    def check_null_vectors(self, recs, points):
        s, owner = _batch(recs, points)
        coeffs, residuals = ragged_null_vectors(recs, s, owner)
        assert coeffs.shape == (len(s), max(r.degree for r in recs) + 1)
        for x, i, got, residual in zip(s, owner, coeffs, residuals):
            want = polynomial_from_recurrence(recs[i], x)
            assert tuple(got[: recs[i].degree + 1]) == want.coeffs
            assert residual == want.terminal_residual

    def check_polish(self, recs, points):
        s, owner = _batch(recs, points)
        roots, corrections = ragged_polish(recs, s, owner)
        assert np.array_equal(corrections, newton_corrections(recs, roots, owner))
        for i, (rec, start) in enumerate(zip(recs, points)):
            alone, alone_corrections = ragged_polish([rec], start)
            assert np.array_equal(roots[owner == i], alone)
            assert np.array_equal(corrections[owner == i], alone_corrections)
            assert np.array_equal(
                corrections[owner == i], newton_corrections([rec], roots[owner == i])
            )

    def test_batch_with_a_degree_zero_block(self):
        config = ModelConfig(Example(1), "a", 1, 0.75)
        recs = [block_recurrence(config, make_block(config, n)) for n in (3, 0, 5)]
        points = [symmetric_eigenvalues(rec) for rec in recs]
        self.check_null_vectors(recs, points)
        # away from the roots the terminal residuals are large
        self.check_null_vectors(recs, [p * 1.1 + 0.3 for p in points])
        self.check_polish(recs, [p * (1 + 1e-6) + 0j for p in points])

    def test_blocks_straddling_the_rescaled_rows(self):
        # n = 7, 8, 16, 17 end just before and just at the rows where the
        # continuant is rescaled, and the batch runs on past each of them
        assert RESCALE_ROWS == 8
        config = ModelConfig(Example(2), "second", 18, 400.0)
        blocks = [make_block(config, n) for n in (17, 7, 16, 8)]
        recs = [block_recurrence(config, b) for b in blocks]
        starts = [pencil_roots(rec)[0] * (1 + 1e-7) for rec in recs]
        self.check_polish(recs, starts)
        physical = [
            np.array([r.value for r in solve_block(config, b).roots if r.physical])
            for b in blocks
        ]
        self.check_null_vectors(recs, physical)

    @pytest.mark.parametrize("model", [1, 2])
    def test_corrections_equal_a_loop_over_single_points(self, model):
        # ragged batches: degree-0 blocks, blocks ending just before, at and
        # after the rescaled rows, owners shuffled, complex and real points
        assert RESCALE_ROWS == 8
        if model == 1:
            pairs = [(ModelConfig(Example(1), "a", 1, 0.75), n) for n in (0, 3, 7, 8, 9, 17)]
            pairs += [(ModelConfig(Example(1), "b", 40, -2.5), n) for n in (1, 7, 9, 15, 25)]
        else:
            pairs = [(ModelConfig(Example(2), "second", 26, 400.0), n)
                     for n in (0, 7, 8, 16, 17, 25)]
            pairs += [(ModelConfig(Example(2), "first", -(n + 1), 30.0), n) for n in (0, 8, 16)]
        recs = [block_recurrence(config, make_block(config, n, n + 1 if config.k < 0 else None))
                for config, n in pairs]
        rng = np.random.default_rng(model)
        points = [(symmetric_eigenvalues(rec) if model == 1 else pencil_roots(rec)[0])
                  * (1 + 1e-3 * rng.standard_normal()) for rec in recs]
        s, owner = _batch(recs, points)
        shuffle = rng.permutation(len(s))
        s, owner = s[shuffle] + 0.5j * rng.standard_normal(len(s)), owner[shuffle]
        for x in (s, s.real.copy()):
            want = np.array([corrections_at_one_point(recs[i], p) for p, i in zip(x, owner)])
            got = newton_corrections(recs, x, owner)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_batch_of_one(self):
        config = ModelConfig(Example(2), "first", -9, 30.0)
        block = make_block(config, 8, 10)
        rec = block_recurrence(config, block)
        roots, _ = pencil_roots(rec)
        self.check_polish([rec], [roots * (1 - 1e-5)])
        # real points, as the solver passes them: numpy's complex array
        # arithmetic need not round like the per-point scalar reference
        physical = [r.value for r in solve_block(config, block).roots if r.physical]
        self.check_null_vectors([rec], [np.array(physical)])

    def test_extended_precision_batch(self):
        config = ModelConfig(Example(2), "second", 12, 150.0)
        blocks = [make_block(config, n) for n in (11, 2, 9)]
        starts = [
            [r.value for r in solve_block(config, b).roots if r.physical] for b in blocks
        ]
        with mpmath.workprec(128):
            recs = [extended_recurrence(config, b) for b in blocks]
            points = [np.array([mpmath.mpf(x) for x in p], dtype=object) for p in starts]
            self.check_null_vectors(recs, points)
            self.check_polish(recs, points)

    # Roots of model 1 blocks (case, k, epsilon, n), as symmetric_eigenvalues
    # gives them, stored so that no LAPACK build can change them.  In 1b
    # k = 37 the first root of each block (the first two at n = 36) misses
    # the target forward and is rescued by the twisted join.  At epsilon =
    # 1e300 and 1e100 the forward runs overflow; at 1e300 every join but one
    # misses, at 1e100 roots 1 to 3 are rescued, with a nan forward residual
    # and nan past p_n in the batch's padding, and root 4 meets the target
    # with coefficients that are not finite.
    RESCUE_POINTS = {
        ("b", 37, 30.0, 30): ["0x1.8206e741f017bp+7", "0x1.0ea18b54c214ap+10",
                              "0x1.09fb465c3346dp+11"],
        ("b", 37, 30.0, 32): ["0x1.1098c327ad352p+7", "0x1.0db723040afa0p+10",
                              "0x1.12ddbdae09fc3p+11"],
        ("b", 37, 30.0, 34): ["0x1.40d8f1cb27c71p+6", "0x1.0cbe17c041755p+10",
                              "0x1.1bcc487d4ce15p+11"],
        ("b", 37, 30.0, 36): ["0x1.8c5ba377bf797p+4", "0x1.2c53213241ebfp+6",
                              "0x1.0bb66a349861cp+10", "0x1.24c6c796791dep+11"],
        ("b", 7, 1e300, 2): ["0x1.ddd4baa009302p+998", "0x1.4e7b4f70066e8p+999",
                             "0x1.ae0c419008450p+999"],
        ("b", 7, 1e300, 4): ["0x1.1eb2d66005835p+998", "0x1.ddd4baa009303p+998",
                             "0x1.4e7b4f70066e8p+999", "0x1.ae0c419008450p+999",
                             "0x1.06ce99d8050dbp+1000"],
        ("b", 7, 1e300, 6): ["0x1.7e43c8800759bp+996", "0x1.4e7b4f70066e7p+999",
                             "0x1.369712e805f8fp+1000"],
        ("a", 1, 1e100, 5): ["0x1.249ad2594c37dp+332", "0x1.b6e83b85f253cp+333",
                             "0x1.6dc186ef9f45cp+334", "0x1.0007780e22b0dp+335",
                             "0x1.492e2ca475bedp+335"],
    }
    # sha256 of each block's (coeffs[:, :n+1], forward, residuals, certified)
    # alone, in the order above, nan written as np.nan: recorded from the
    # stage when it still lived in models (as _null_vectors)
    RESCUE_DIGEST = "f5393a5b68fabf12a2aa801ea6f995bcf7568a84aef4e28750463cc614c325d4"

    def test_null_vectors_batch_equals_blocks_alone_and_the_recorded_bytes(self):
        recs, points = [], []
        for (case, k, epsilon, n), hexes in self.RESCUE_POINTS.items():
            config = ModelConfig(Example(1), case, k, epsilon)
            recs.append(block_recurrence(config, make_block(config, n)))
            points.append(np.array([float.fromhex(h) for h in hexes]))
        alone = [null_vectors([rec], p) for rec, p in zip(recs, points)]
        digest = hashlib.sha256()
        for rec, (coeffs, *rest) in zip(recs, alone):
            for x in (coeffs[:, : rec.size], *rest):
                digest.update(np.where(np.isnan(x), np.nan, x).tobytes()
                              if x.dtype == float else x.tobytes())
        assert digest.hexdigest() == self.RESCUE_DIGEST
        # forward-kept, rescued and uncertified roots of eight blocks, shuffled
        s, owner = _batch(recs, points)
        shuffle = np.random.default_rng(0).permutation(len(s))
        coeffs, *rest = null_vectors(recs, s[shuffle], owner[shuffle])
        for got, want in zip(rest, zip(*(a[1:] for a in alone))):
            assert got.tobytes() == np.concatenate(want)[shuffle].tobytes()
        rows = [c[:, : rec.size] for rec, (c, *_) in zip(recs, alone)]
        want = [row for block in rows for row in block]
        for got, i in zip(coeffs, shuffle.tolist()):
            size = recs[owner[i]].size
            assert got[:size].tobytes() == want[i].tobytes()
        forward, residuals, certified = rest
        assert 0 < certified.sum() < len(s)
        assert (certified & ~(forward <= RESIDUAL_TARGET)).sum() == 5 + 3
        assert (~certified & (residuals <= RESIDUAL_TARGET)).sum() == 1

    def test_block_recurrence_matches_the_scalar_closed_forms(self):
        # the arrays carry the bits (signed zeros included) of the closed
        # forms evaluated one entry at a time, and the continuant's e_j is
        # the product b_j c_j with -0.0 coefficients turned into 0.0
        # an entry is (n, l) for the first family
        cases = [
            (ModelConfig(Example(1), "a", 3, 0.0), [2, 5]),
            (ModelConfig(Example(1), "a", 1, -1.7), [0, 9]),
            (ModelConfig(Example(1), "a", -2, -0.0), [0, 4]),
            (ModelConfig(Example(1), "a", 2, 5e-324), [1, 3]),
            (ModelConfig(Example(1), "a", 1, 1e300), [0, 6]),
            (ModelConfig(Example(1), "b", 14, 2.3), [1, 13]),
            (ModelConfig(Example(1), "b", 5, -0.0), [0, 4]),  # l = 2 and l = 0
            (ModelConfig(Example(1), "b", 1, 5e-324), [0]),  # l = 0
            (ModelConfig(Example(2), "first", -6, 0.0), [(5, 6)]),
            (ModelConfig(Example(2), "first", -2, -0.0), [(1, 2), (1, 40)]),
            (ModelConfig(Example(2), "first", -1, 5e-324), [(0, 1), (0, 300)]),
            (ModelConfig(Example(2), "second", 9, -3.1), [0, 8]),
            (ModelConfig(Example(2), "second", 4, -0.0), [0, 3]),
            (ModelConfig(Example(2), "second", 3, 5e-324), [2]),
        ]
        for config, selections in cases:
            for selection in selections:
                n, l = selection if isinstance(selection, tuple) else (selection, None)
                block = make_block(config, n, l)
                got = block_recurrence(config, block)
                want = closed_form_entries(config, block)
                products = [polytrim([0.0 + b0 * x for x in c_row]).tolist()
                            for (b0,), c_row in zip(got.b.tolist(), got.c.tolist())]
                assert len(got) == 3
                for g, w in zip(got, want):
                    assert repr(g.tolist()) == repr(w)
                e_lanes = _continuant_lanes([got], np.zeros(1, dtype=np.intp))[1]
                assert repr(e_lanes[:, :, 0].T.tolist()) == repr(products)
        # where a closed form overflows, the arrays are refused; eps = 1e300
        # overflows model 1's diagonal only where the multiplier 2j + 1 + 2l
        # passes 1.8e8, here at l = 2**30 - 1
        config = ModelConfig(Example(1), "b", 2**31 - 1, 1e300)
        block = make_block(config, 0)
        assert not all(math.isfinite(x) for row in closed_form_entries(config, block)[0]
                       for x in row)
        with pytest.raises(ParameterError, match="overflows the recurrence"):
            block_recurrence(config, block)


def closed_form_entries(config, block):
    """Coefficient rows of a, b and c, one float entry at a time."""
    e, k, n, l = config.epsilon, config.k, block.n, block.l
    one, quarter = 1.0, 0.25
    if config.example is Example.REPULSIVE_POLYNOMIAL:
        if config.variant == "a":
            a = [[-e * (2 * j + 1), one] for j in range(n + 1)]
            b = [[float(2 * (j * (j + n - k + 3) + n - k + 2))] for j in range(n)]
        else:
            a = [[-e * (k - n + 2 * j), one] for j in range(n + 1)]
            b = [[float(j * (2 * j - n + k + 3) - n + k + 1)] for j in range(n)]
        return a, b, [[float(4 * (n - j))] for j in range(n)]
    if config.variant == "first":
        a = [[float(l * l - n * n - n - j * (j - 2 * n - 1)) - quarter * (1 + e),
              float(2 * (2 * j - n - l)), one] for j in range(n + 1)]
        b = [[float((j + 1) * (j - n - l))] for j in range(n)]
    else:
        a = [[float(-j * (j - 2 * n - 1) + n) + quarter * (3 - e),
              float(2 * (2 * j - k - n)), one] for j in range(n + 1)]
        b = [[float((j + 1) * (j - n - k))] for j in range(n)]
    return a, b, [[0.0, float(4 * (n - j))] for j in range(n)]


FAMILIES = {
    "1a": (Example(1), "a", st.integers(1, 31)),
    "1b": (Example(1), "b", st.integers(1, 61)),
    "2first": (Example(2), "first", st.integers(-31, -1)),
    "2second": (Example(2), "second", st.integers(1, 31)),
}


def outcome(func, *args):
    """repr of func(*args), or of the error it raises: equal reprs are equal bits."""
    try:
        result = func(*args)
    except (ArithmeticError, ValueError) as exc:
        return repr(exc)
    if hasattr(result, "coeffs"):
        return repr((result.coeffs, result.terminal_residual))
    return repr(result)


class TestSequencesView:
    """``block_sequences`` (the arrays viewed as SPoly rows) and
    ``block_recurrence`` give the same bits through every route that reads
    them."""

    @settings(max_examples=80, deadline=None, database=None)
    @given(
        data=st.data(),
        family=st.sampled_from(sorted(FAMILIES)),
        epsilon=st.floats(-100.0, 2000.0),
        point=st.one_of(
            st.floats(-60.0, 60.0),
            st.complex_numbers(max_magnitude=60.0, allow_nan=False, allow_infinity=False),
        ),
        extended=st.booleans(),
    )
    def test_arrays_and_spoly_view_agree_bit_for_bit(
        self, data, family, epsilon, point, extended
    ):
        # extended: the view at 128 bits against the exactly converted arrays
        example, case, ks = FAMILIES[family]
        config = ModelConfig(example, case, data.draw(ks), epsilon)
        blocks = permissible_blocks(config, n_max=30)
        block = blocks[data.draw(st.integers(0, len(blocks) - 1))]
        assert block.n <= 30
        precision = 128 if extended else None
        with mpmath.workprec(precision or 53):
            if extended:
                rec = extended_recurrence(config, block)
            else:
                rec = block_recurrence(config, block)
            view = block_sequences(config, block, precision)
            s = mpmath.mpmathify(point) if extended else point
            for func in (
                lambda seqs: seqs.at(s),
                lambda seqs: polynomial_from_recurrence(seqs, s),
                lambda seqs: determinant_numeric(seqs, s),
            ):
                assert outcome(func, rec) == outcome(func, view)
