"""Determinant assembly, root finding, and null vectors."""

import math

import mpmath
import numpy as np
import pytest

from heun_spectra import (
    BlockSpec,
    DeterminantPolynomial,
    ModelConfig,
    ResidualToleranceError,
    TridiagonalSequences,
    block_sequences,
    dense_determinant,
    determinant_numeric,
    determinant_polynomial,
    newton_corrections,
    null_vector,
    quadratic_pencil_roots,
    symmetric_eigenvalue_roots,
)
from heun_spectra.models import Example
from heun_spectra.spectral import polish_roots
from heun_spectra.spoly import SPoly


def expanded_roots(seqs):
    """np.roots of the expanded determinant: the independent reference."""
    det = determinant_polynomial(seqs)
    return np.roots([float(c) for c in reversed(det.coeffs)])


def assert_same_roots(got, want, rtol):
    got = sorted(np.asarray(got, dtype=complex), key=lambda z: (z.real, z.imag))
    want = sorted(np.asarray(want, dtype=complex), key=lambda z: (z.real, z.imag))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= rtol * max(1.0, abs(w))


def const_seqs(a, b, c):
    return TridiagonalSequences(
        a=tuple(SPoly((float(x),)) for x in a),
        b=tuple(SPoly((float(x),)) for x in b),
        c=tuple(SPoly((float(x),)) for x in c),
    )


class TestDeterminantPolynomial:
    def test_two_by_two_constants(self):
        det = determinant_polynomial(const_seqs((2, 3), (1,), (1,)))
        assert det.degree == 0
        assert det.coeffs == (5.0,)

    def test_model1_smallest_block_is_s_minus_eps(self):
        cfg = ModelConfig(Example(1), "a", 1, 0.75)
        seqs = block_sequences(cfg, BlockSpec(n=0, l=0, sigma=+1))
        det = determinant_polynomial(seqs)
        assert det.coeffs == (-0.75, 1.0)

    def test_model1_two_state_block_is_s_squared_minus_16(self):
        cfg = ModelConfig(Example(1), "a", 1, 0.0)
        seqs = block_sequences(cfg, BlockSpec(n=1, l=1, sigma=+1))
        det = determinant_polynomial(seqs)
        assert det.coeffs == (-16.0, 0.0, 1.0)

    def test_degrees_by_model(self):
        cfg1 = ModelConfig(Example(1), "a", 2, 1.0)
        det1 = determinant_polynomial(block_sequences(cfg1, BlockSpec(3, 2, +1)))
        assert det1.degree == 4
        cfg2 = ModelConfig(Example(2), "first", -4, 1.0)
        det2 = determinant_polynomial(block_sequences(cfg2, BlockSpec(3, 4, +1)))
        assert det2.degree == 8


class TestDeterminantNumeric:
    def test_value_at_zero_is_constant_term(self):
        cfg = ModelConfig(Example(2), "second", 3, 2.0)
        seqs = block_sequences(cfg, BlockSpec(n=2, l=-3, sigma=-1))
        det = determinant_polynomial(seqs)
        assert math.isclose(
            determinant_numeric(seqs, 0.0), det.coeffs[0], rel_tol=1e-12
        )

    def test_dual_path_small_degree(self):
        rng = np.random.default_rng(17)
        cfg = ModelConfig(Example(1), "a", 1, float(rng.uniform(-2, 2)))
        seqs = block_sequences(cfg, BlockSpec(n=5, l=5, sigma=+1))
        det = determinant_polynomial(seqs)
        for _ in range(20):
            s = float(rng.uniform(-8, 8))
            lu = dense_determinant(seqs, s)
            scale = max(1.0, abs(lu))
            assert abs(det(s) - lu) / scale < 1e-10
            assert abs(determinant_numeric(seqs, s) - lu) / scale < 1e-10

    def test_ill_scaled_entries(self):
        rng = np.random.default_rng(18)
        base = block_sequences(
            ModelConfig(Example(1), "a", 1, 1.0), BlockSpec(n=10, l=10, sigma=+1)
        )
        scaled = TridiagonalSequences(
            a=tuple(e * 1e6 for e in base.a),
            b=tuple(e * 1e6 for e in base.b),
            c=tuple(e * 1e6 for e in base.c),
        )
        det = determinant_polynomial(scaled)
        for _ in range(10):
            s = float(rng.uniform(-5, 5))
            lu = dense_determinant(scaled, s)
            assert abs(det(s) - lu) / max(1.0, abs(lu)) < 1e-6

    def test_extended_precision_path(self):
        cfg = ModelConfig(Example(2), "first", -6, 4.0)
        block = BlockSpec(n=5, l=6, sigma=+1)
        with mpmath.workprec(200):
            seqs = block_sequences(cfg, block, precision=200)
            s = mpmath.mpf("1.375")
            rec = determinant_numeric(seqs, s)
            lu = dense_determinant(seqs, s)
            assert abs(rec - lu) / max(1, abs(lu)) < mpmath.mpf(10) ** -40


class TestFindRoots:
    """Block roots by the structured routes, against np.roots of the expansion."""

    def test_quadratic(self):
        cfg = ModelConfig(Example(1), "a", 1, 0.0)
        seqs = block_sequences(cfg, BlockSpec(n=1, l=1, sigma=+1))
        roots = symmetric_eigenvalue_roots(seqs)
        assert list(roots) == pytest.approx([-4.0, 4.0], abs=1e-12)
        assert_same_roots(roots, expanded_roots(seqs), 1e-12)

    def test_closed_form_quadratic_of_model2(self):
        cfg = ModelConfig(Example(2), "first", -1, 15.0)
        seqs = block_sequences(cfg, BlockSpec(n=0, l=1, sigma=+1))
        det = determinant_polynomial(seqs)
        # the 1x1 determinant is (chi - 1)^2 - 4
        assert det.coeffs == pytest.approx((-3.0, -2.0, 1.0), abs=1e-12)
        roots, corrections = quadratic_pencil_roots(seqs)
        values = sorted(r.real for r in roots)
        assert values == pytest.approx([-1.0, 3.0], abs=1e-10)
        assert np.all(roots.imag == 0)
        assert np.all(np.abs(corrections) <= 1e-12)
        assert_same_roots(roots, expanded_roots(seqs), 1e-12)

    def test_root_count_matches_degree(self):
        rng = np.random.default_rng(19)
        for n, k in ((2, 1), (4, 2), (7, 3)):
            cfg = ModelConfig(Example(1), "a", k, float(rng.uniform(-2, 2)))
            seqs = block_sequences(cfg, BlockSpec(n=n, l=n + 1 - k, sigma=+1))
            roots = symmetric_eigenvalue_roots(seqs)
            assert len(roots) == determinant_polynomial(seqs).degree
            assert_same_roots(roots, expanded_roots(seqs), 1e-8)
        for n in (1, 3, 6):
            for cfg, block in (
                (ModelConfig(Example(2), "first", -(n + 1), float(rng.uniform(2, 40))),
                 BlockSpec(n=n, l=n + 2, sigma=+1)),
                (ModelConfig(Example(2), "second", n + 1, float(rng.uniform(2, 40))),
                 BlockSpec(n=n, l=-n - 1, sigma=-1)),
            ):
                seqs = block_sequences(cfg, block)
                roots, corrections = quadratic_pencil_roots(seqs)
                assert len(roots) == determinant_polynomial(seqs).degree == 2 * (n + 1)
                assert_same_roots(roots, expanded_roots(seqs), 1e-8)
                assert np.all(np.abs(corrections) <= 1e-8 * np.maximum(1, np.abs(roots)))


class TestNewtonCorrections:
    def test_matches_expanded_polynomial_in_extended_precision(self):
        cfg = ModelConfig(Example(2), "second", 6, 7.0)
        block = BlockSpec(n=5, l=-6, sigma=-1)
        rng = np.random.default_rng(31)
        points = rng.uniform(-6, 6, 4) + 1j * rng.uniform(-2, 2, 4)
        with mpmath.workprec(200):
            seqs = block_sequences(cfg, block, precision=200)
            det = determinant_polynomial(seqs)
            slope = DeterminantPolynomial(
                tuple(j * c for j, c in enumerate(det.coeffs))[1:])
            xs = np.array([mpmath.mpc(z.real, z.imag) for z in points], dtype=object)
            got = newton_corrections(seqs, xs)
            for x, g in zip(xs, got):
                want = det(x) / slope(x)
                assert abs(g - want) <= mpmath.mpf(10) ** -50 * max(1, abs(want))
        doubles = newton_corrections(block_sequences(cfg, block), points)
        for d, x in zip(doubles, xs):
            with mpmath.workprec(200):
                want = complex(det(x) / slope(x))
            assert abs(d - want) <= 1e-10 * max(1.0, abs(want))

    def test_rescaling_survives_overflowing_continuants(self):
        base = block_sequences(
            ModelConfig(Example(1), "a", 1, 1.0), BlockSpec(n=60, l=60, sigma=+1)
        )
        scaled = TridiagonalSequences(
            a=tuple(e * 1e6 for e in base.a),
            b=tuple(e * 1e6 for e in base.b),
            c=tuple(e * 1e6 for e in base.c),
        )
        s = np.array([0.5, -3.25, 7.0])
        # every entry scaled by 1e6 scales D and D' alike, so D/D' is unchanged
        with np.errstate(over="ignore", invalid="ignore"):
            assert not all(math.isfinite(determinant_numeric(scaled, x)) for x in s)
        got = newton_corrections(scaled, s)
        want = newton_corrections(base, s)
        assert np.all(np.isfinite(got))
        assert np.allclose(got, want, rtol=1e-10, atol=0)

    def test_polish_never_grows_a_correction(self):
        cfg = ModelConfig(Example(2), "first", -9, 30.0)
        seqs = block_sequences(cfg, BlockSpec(n=8, l=10, sigma=+1))
        exact, _ = quadratic_pencil_roots(seqs)
        polished, _ = polish_roots(seqs, exact * (1 + 1e-4))
        assert_same_roots(polished, exact, 1e-9)
        # at n = 30 the double-precision continuant is noise-limited, and
        # unguarded Newton steps from the expanded polynomial's roots make
        # some corrections grow
        cfg = ModelConfig(Example(2), "second", 31, 900.0)
        seqs = block_sequences(cfg, BlockSpec(n=30, l=-31, sigma=-1))
        start = expanded_roots(seqs)
        before = np.abs(newton_corrections(seqs, start))
        polished, corrections = polish_roots(seqs, start)
        assert np.all(np.abs(corrections) <= before)
        assert np.array_equal(corrections, newton_corrections(seqs, polished))


class TestNullVector:
    def test_degree_zero_block(self):
        cfg = ModelConfig(Example(1), "a", 1, 2.0)
        seqs = block_sequences(cfg, BlockSpec(n=0, l=0, sigma=+1))
        poly = null_vector(seqs, 2.0)
        assert poly.coeffs == (1.0,)

    def test_contract_example_coefficients(self):
        cfg = ModelConfig(Example(1), "a", 1, 0.0)
        seqs = block_sequences(cfg, BlockSpec(n=1, l=1, sigma=+1))
        poly = null_vector(seqs, 4.0)
        assert poly.coeffs == pytest.approx((1.0, -1.0), abs=1e-14)

    def test_off_root_value_is_rejected(self):
        cfg = ModelConfig(Example(1), "a", 1, 0.0)
        seqs = block_sequences(cfg, BlockSpec(n=1, l=1, sigma=+1))
        with pytest.raises(ResidualToleranceError):
            null_vector(seqs, 4.01)

    def test_vector_annihilates_the_assembled_matrix(self):
        rng = np.random.default_rng(23)
        cfg = ModelConfig(Example(1), "a", 2, float(rng.uniform(-2, 2)))
        seqs = block_sequences(cfg, BlockSpec(n=4, l=3, sigma=+1))
        roots = symmetric_eigenvalue_roots(seqs)
        assert_same_roots(roots, expanded_roots(seqs), 1e-9)
        for s in roots:
            p = null_vector(seqs, s).coeffs
            a, b, c = seqs.at(s)
            scale = max(abs(x) for x in p) * max(
                max(abs(x) for x in a), max(abs(x) for x in b), 1.0
            )
            n1 = seqs.size
            for j in range(n1):
                row = a[j] * p[j]
                if j > 0:
                    row += c[j - 1] * p[j - 1]
                if j + 1 < n1:
                    row += b[j] * p[j + 1]
                assert abs(row) / scale < 1e-8


class TestSymmetricPath:
    def test_matches_polynomial_roots_case_a(self):
        cfg = ModelConfig(Example(1), "a", 2, 1.3)
        seqs = block_sequences(cfg, BlockSpec(n=6, l=5, sigma=+1))
        sym = symmetric_eigenvalue_roots(seqs)
        poly_roots = sorted(r.real for r in expanded_roots(seqs))
        assert np.allclose(sym, poly_roots, rtol=1e-9, atol=1e-9)

    def test_matches_polynomial_roots_case_b(self):
        cfg = ModelConfig(Example(1), "b", 9, -0.8)
        seqs = block_sequences(cfg, BlockSpec(n=4, l=2, sigma=-1))
        sym = symmetric_eigenvalue_roots(seqs)
        poly_roots = sorted(r.real for r in expanded_roots(seqs))
        assert np.allclose(sym, poly_roots, rtol=1e-9, atol=1e-9)

    def test_certifies_reality(self):
        # the expanded polynomial's roots, found with no knowledge of the
        # symmetric structure, are real and are the symmetric eigenvalues
        rng = np.random.default_rng(29)
        for k in (1, 2, 3, 4):
            eps = float(rng.uniform(-3, 3))
            cfg = ModelConfig(Example(1), "a", k, eps)
            n = int(rng.integers(max(0, k - 1), 9))
            seqs = block_sequences(cfg, BlockSpec(n=n, l=n + 1 - k, sigma=+1))
            roots = expanded_roots(seqs)
            scale = max(1.0, max(abs(r) for r in roots))
            assert all(abs(r.imag) < 1e-9 * scale for r in roots)
            assert_same_roots(symmetric_eigenvalue_roots(seqs), roots, 1e-9)
