"""Block rules, sequences, spectra, fields, wavefunctions, and residuals."""

import dataclasses
import functools
import itertools
import math
import os
import re
import warnings
from fractions import Fraction
from unittest import mock

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
    t_of_rho,
    total_flux,
    vector_potential,
    wavefunction,
)
from heun_spectra.models import Example
from heun_spectra import models, spectral


def extended_recurrence(config, block):
    """The block's recurrence with each float converted exactly to an mpmath
    number, for arithmetic at the caller's working precision."""
    to_mpf = np.frompyfunc(mpmath.mpf, 1, 1)
    return spectral.Recurrence(*map(to_mpf, models.block_recurrence(config, block)))


def reference_coefficients(config, block, value, bits=400):
    """p_0..p_n at a root Newton-polished from value at that many bits."""
    with mpmath.workprec(bits):
        rec = extended_recurrence(config, block)
        x = np.array([mpmath.mpf(value)], dtype=object)
        for _ in range(8):
            x = x - spectral.newton_corrections([rec], x)
        return polynomial_from_recurrence(rec, x[0]).coeffs


# builders that take a block degree (n_max for permissible_blocks), and the
# name their messages give it
DEGREE_BUILDS = pytest.mark.parametrize("build, message", [
    (lambda n: BlockSpec(n=n, l=0, sigma=+1), "block degree n"),
    *[(functools.partial(permissible_blocks, ModelConfig(Example(example), variant, k, 1.0)),
       "n_max")
      for example, variant, k in ((1, "a", 1), (1, "b", 401), (2, "first", -1),
                                  (2, "second", 401))],
    *[(functools.partial(make_block, ModelConfig(Example(example), variant, k, 1.0), l=l),
       "block degree n")
      for example, variant, k, l in ((1, "a", 1, None), (1, "b", 1, None),
                                     (2, "first", -1, 1), (2, "second", 1, None))],
], ids=["BlockSpec", "a", "b", "first", "second",
        "make_block-a", "make_block-b", "make_block-first", "make_block-second"])


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

    def test_unknown_example(self):
        for example in (0, 3):
            with pytest.raises(ParameterError, match="^example must be 1 or 2$"):
                ModelConfig(example, "a", 1, 1.0)

    def test_messages_name_the_constraint(self):
        with pytest.raises(ParameterError, match="k"):
            ModelConfig(Example(2), "first", 3, 0.0)

    def test_k_must_be_an_integer(self):
        assert ModelConfig(Example(1), "a", np.int64(2), 1.0).k == 2
        for k in (2.0, 2.5, True, "2", None):
            with pytest.raises(ParameterError, match="^k must be an integer$"):
                ModelConfig(Example(1), "a", k, 1.0)

    def test_epsilon_is_any_finite_real_but_a_bool(self):
        for epsilon, want in ((np.float32(1.5), 1.5), (np.int64(2), 2.0),
                              (Fraction(1, 3), 1 / 3), (-7, -7.0), (0.25, 0.25)):
            config = ModelConfig(Example(1), "a", 1, epsilon)
            assert type(config.epsilon) is float and config.epsilon == want
        # True used to pass as 1.0; 10**400 and Fraction(10**400) used to
        # raise a raw OverflowError
        for epsilon in (True, False, "1.5", None, 1j, math.inf, math.nan,
                        np.float64(-np.inf), 10**400, Fraction(10**400)):
            with pytest.raises(ParameterError, match="^epsilon must be a finite real number$"):
                ModelConfig(Example(1), "a", 1, epsilon)


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

    def test_model1_k_zero_starts_at_l_one_without_diagnostic(self):
        # the oracle confirms these blocks (test_oracle, k = 0 channels)
        cfg = ModelConfig(Example(1), "a", 0, 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            blocks = permissible_blocks(cfg, n_max=5)
        assert [(b.n, b.l, b.sigma) for b in blocks] == [(n, n + 1, 1) for n in range(6)]
        assert caught == []

    def test_make_block_checks_permissibility(self):
        cfg = ModelConfig(Example(1), "a", 2, 0.0)
        block = make_block(cfg, 3)
        assert (block.n, block.l, block.sigma) == (3, 2, 1)
        with pytest.raises(SelectionError):
            make_block(cfg, 0)  # n < k-1 not permissible
        with pytest.raises(SelectionError):
            make_block(cfg, 3, l=5)

    def test_l_past_2_to_31_is_a_parameter_error(self):
        # keeps the closed forms' int64 products below 2**63; the first
        # family's l = 4000000000 used to end in an OverflowError
        cfg = ModelConfig(Example(2), "first", -1, 0.0)
        with pytest.raises(ParameterError, match=re.escape("l must satisfy |l| < 2**31")):
            make_block(cfg, 0, 4000000000)
        with pytest.raises(ParameterError, match=re.escape("|l| < 2**31")):
            BlockSpec(n=0, l=-2**31, sigma=-1)
        assert make_block(cfg, 0, 2**31 - 1) == BlockSpec(0, 2**31 - 1, +1)

    @pytest.mark.parametrize("build, message", [
        (lambda n: BlockSpec(n=n, l=0, sigma=+1), "block degree n"),
        *[(functools.partial(permissible_blocks, ModelConfig(Example(example), variant, k, 1.0)),
           "n_max")
          for example, variant, k in ((1, "a", 1), (1, "b", 401), (2, "first", -1),
                                      (2, "second", 401))],
    ], ids=["BlockSpec", "a", "b", "first", "second"])
    def test_degree_past_max_degree_is_a_parameter_error(self, build, message):
        # the ragged arrays of a query grow as n_max^3; n = 10**5 used to
        # end in a numpy MemoryError traceback, n_max = 5000 in a hang
        build(models.MAX_DEGREE)
        with pytest.raises(ParameterError, match=f"^{message} must be at most 200$"):
            build(models.MAX_DEGREE + 1)

    @DEGREE_BUILDS
    def test_negative_degree_is_a_parameter_error(self, build, message):
        # the other end of the range; `spectrum ... --n-max -1` and
        # `wavefunction ... --n -1` print this
        build(0)
        with pytest.raises(ParameterError, match=f"^{message} must be non-negative$"):
            build(-1)

    @DEGREE_BUILDS
    def test_non_integer_degree_is_a_parameter_error(self, build, message):
        # 2.5 used to make a block that failed to solve with a raw
        # ValueError, True and 1.0 to pass as 1, "1" to raise a TypeError
        assert build(np.int64(0)) == build(0)
        for bad in (2.5, 1.0, np.float64(0.0), True, "1", None):
            with pytest.raises(ParameterError, match=f"^{message} must be an integer$"):
                build(bad)

    def test_non_integer_l_or_sigma_is_a_parameter_error(self):
        first = ModelConfig(Example(2), "first", -1, 1.0)
        for build, message in (
            (lambda: BlockSpec(3, "1", 1), "l must be an integer"),
            (lambda: BlockSpec(1, 1.0, 1), "l must be an integer"),
            (lambda: BlockSpec(1, 1, 1.0), "sigma must be +1 or -1"),
            (lambda: BlockSpec(1, 1, True), "sigma must be +1 or -1"),
            (lambda: make_block(first, 0, 1.5), "l must be an integer"),
            (lambda: make_block(first, 0, True), "l must be an integer"),
        ):
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                build()
        block = BlockSpec(np.int64(1), np.int64(2), np.int64(-1))
        assert block == BlockSpec(1, 2, -1)
        assert [type(x) for x in (block.n, block.l, block.sigma)] == [int] * 3

    def test_integer_sigma_other_than_plus_or_minus_one_is_a_parameter_error(self):
        for sigma in (0, 2, -2):
            with pytest.raises(ParameterError, match=r"^sigma must be \+1 or -1$"):
                BlockSpec(1, 1, sigma)

    def test_angular_momentum_sign(self):
        assert BlockSpec(n=1, l=1, sigma=-1).angular_momentum == -1
        assert BlockSpec(n=1, l=-2, sigma=-1).angular_momentum == -2


def stated_blocks(config, n_max):
    """(n, l, sigma) of every block the family's rule admits, written out
    from the rules in README "The two systems" rather than from models.

    Case a and the second family run over n; case b over l >= 0, whose
    degree is n = k - 1 - 2l; the first family over its l ladder.
    """
    k = config.k
    if config.variant == "a":
        return [(n, n + 1 - k, 1) for n in range(n_max + 1) if n + 1 - k >= 0]
    if config.variant == "b":
        return sorted((k - 1 - 2 * l, l, -1) for l in range(k) if 0 <= k - 1 - 2 * l <= n_max)
    if config.variant == "first":
        return [(-k - 1, -k + i, 1) for i in range(n_max + 1)]
    return [(n, -n - 1, -1) for n in range(k - 1, -1, -1) if n <= n_max]


FAMILY_CONFIGS = [
    ModelConfig(Example(example), variant, k, 1.0)
    for example, variant, ks in (
        (1, "a", range(-4, 6)), (1, "b", range(1, 8)),
        (2, "first", range(-6, 0)), (2, "second", range(1, 7)),
    )
    for k in ks
]


class TestFamilyRules:
    @pytest.mark.parametrize(
        "config", FAMILY_CONFIGS, ids=lambda c: f"{c.variant}-k{c.k}")
    def test_enumeration_selection_and_validation_follow_the_rule(self, config):
        for n_max in range(9):
            expected = stated_blocks(config, n_max)
            got = [(b.n, b.l, b.sigma) for b in permissible_blocks(config, n_max)]
            assert got == expected
        admitted = set(stated_blocks(config, 30))
        for n in range(-1, 12):
            for l in [None] + list(range(-12, 13)):
                matches = [b for b in admitted
                           if b[0] == n and (l is None or b[1] == l)]
                if config.variant == "first" and l is None:
                    matches = []  # n alone does not select a first-family block
                if n < 0:
                    with pytest.raises(ParameterError, match="must be non-negative"):
                        make_block(config, n, l)
                elif matches:
                    block = make_block(config, n, l)
                    assert [(block.n, block.l, block.sigma)] == matches
                else:
                    with pytest.raises(SelectionError, match="no block with|needs l"):
                        make_block(config, n, l)
                if n < 0 or l is None:
                    continue
                for sigma in (-1, 1):
                    if (n, l, sigma) in admitted:
                        models.block_recurrence(config, BlockSpec(n, l, sigma))
                    else:
                        with pytest.raises(ParameterError, match="not permissible"):
                            models.block_recurrence(config, BlockSpec(n, l, sigma))

    @pytest.mark.parametrize("example, variant, k, block, rule", [
        (1, "a", 2, (3, 1, 1), "l = n + 1 - k >= 0"),  # wrong l
        (1, "a", 2, (3, 2, -1), "sigma = +1"),  # wrong sigma
        (1, "a", 3, (0, -2, 1), "l = n + 1 - k >= 0"),  # n below k - 1
        (1, "b", 5, (2, 0, -1), "2l = k - n - 1"),  # wrong l
        (1, "b", 5, (2, 1, 1), "sigma = -1"),  # wrong sigma
        (1, "b", 5, (1, 1, -1), "non-negative even integer"),  # odd k - n - 1
        (1, "b", 3, (4, -1, -1), "non-negative even integer"),  # n past k - 1
        (2, "first", -2, (1, 2, -1), "sigma = +1"),  # wrong sigma
        (2, "first", -2, (0, 2, 1), "n = -k - 1"),  # n != -k - 1
        (2, "first", -2, (1, 1, 1), "l >= -k"),  # l < -k
        (2, "second", 3, (1, -1, -1), "l = -n - 1"),  # wrong l
        (2, "second", 3, (1, -2, 1), "sigma = -1"),  # wrong sigma
        (2, "second", 2, (2, -3, -1), "0 <= n <= k - 1"),  # n past k - 1
    ])
    def test_off_rule_block_names_the_rule(self, example, variant, k, block, rule):
        config = ModelConfig(Example(example), variant, k, 1.0)
        with pytest.raises(ParameterError, match=re.escape(
                f"case {variant} requires") + ".*" + re.escape(rule)):
            models.block_recurrence(config, BlockSpec(*block))


class TestModel1CaseIdentity:
    def test_case_b_block_is_a_shifted_case_a_block(self):
        # a case b block (k = n + 1 + 2l, n, eps) is the case a block
        # (k = n + 1 - l, n, eps) of the same l with every lambda raised by
        # 2 l eps: the channel potentials differ by the constant 2 l eps.
        # The potentials come from the fields, not from block_recurrence.
        rng = np.random.default_rng(3)
        rho = np.linspace(0.05, 10.0, 200)
        for _ in range(300):
            l = int(rng.integers(0, 9))
            n = int(rng.integers(0, 9))
            eps = float(rng.uniform(-20.0, 40.0))
            config_b = ModelConfig(Example(1), "b", n + 1 + 2 * l, eps)
            config_a = ModelConfig(Example(1), "a", n + 1 - l, eps)
            block_b, block_a = make_block(config_b, n), make_block(config_a, n)
            assert (block_b.l, block_a.l) == (l, l)
            rec_b = models.block_recurrence(config_b, block_b)
            rec_a = models.block_recurrence(config_a, block_a)
            assert np.array_equal(rec_b.b, rec_a.b)
            assert np.array_equal(rec_b.c, rec_a.c)
            shift = 2 * l * eps
            v_b = models.effective_potential(config_b, l, -1, rho)
            v_a = models.effective_potential(config_a, l, +1, rho)
            assert np.all(np.abs(v_b - v_a - shift) <= 1e-10 * np.maximum(1.0, np.abs(v_a)))
            roots_b = solve_block(config_b, block_b).roots
            roots_a = solve_block(config_a, block_a).roots
            assert len(roots_b) == len(roots_a) == n + 1
            for r_b, r_a in zip(roots_b, roots_a):
                assert r_b.energy == pytest.approx(r_a.energy + shift, rel=1e-12, abs=1e-12)
                p_b = np.array(r_b.eigenvector.coeffs)
                p_a = np.array(r_a.eigenvector.coeffs)
                assert np.linalg.norm(p_b - p_a) <= 1e-9 * np.linalg.norm(p_a)


class TestModel2FamilyIdentity:
    def test_first_block_is_a_shifted_second_block(self):
        # a first block (k = -(n+1), l, eps) is the second block
        # (k = l, n, eps - 4(l^2 - (n+1)^2)): the channel potentials differ
        # by (l^2 - (n+1)^2) / (rho^2 + 1), which the epsilon shift cancels.
        # block_recurrence writes both families with one formula, but with
        # each family's own constant term, so the entries check the epsilon
        # shift; the potentials come from the fields, not from that formula.
        rng = np.random.default_rng(2)
        rho = np.linspace(0.05, 10.0, 200)
        for _ in range(300):
            n = int(rng.integers(0, 9))
            l = int(rng.integers(n + 1, n + 9))
            eps = float(rng.uniform(-20.0, 200.0))
            first = ModelConfig(Example(2), "first", -(n + 1), eps)
            second = ModelConfig(Example(2), "second", l, eps - 4 * (l * l - (n + 1) ** 2))
            b1, b2 = make_block(first, n, l), make_block(second, n)
            for x, y in zip(models.block_recurrence(first, b1),
                            models.block_recurrence(second, b2)):
                assert np.all(np.abs(x - y) <= 1e-14 * np.maximum(1.0, np.abs(x)))
            v1 = models.effective_potential(first, b1.l, b1.sigma, rho)
            v2 = models.effective_potential(second, b2.l, b2.sigma, rho)
            assert np.all(np.abs(v1 - v2) <= 1e-12 * np.maximum(1.0, np.abs(v1)))
            p1 = [r for r in solve_block(first, b1).roots if r.physical]
            p2 = [r for r in solve_block(second, b2).roots if r.physical]
            assert len(p1) == len(p2)
            for r1, r2 in zip(p1, p2):
                assert r1.energy == pytest.approx(r2.energy, rel=1e-12, abs=1e-12)
                f1 = models.radial_values(first, b1, r1, rho)
                f2 = models.radial_values(second, b2, r2, rho)
                assert np.max(np.abs(f1 - f2)) <= 1e-12 * np.max(np.abs(f1))


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

    @pytest.mark.parametrize("precision", [None, 128])
    def test_is_the_block_recurrence_with_tuple_rows(self, precision):
        cfg = ModelConfig(Example(2), "second", 5, 30.0)
        block = make_block(cfg, 3)
        seqs = block_sequences(cfg, block, precision)
        assert isinstance(seqs, spectral.Recurrence)
        scalar = float if precision is None else mpmath.mpf
        for got, want in zip(seqs, models.block_recurrence(cfg, block)):
            assert got.shape == want.shape
            assert got.tolist() == want.tolist()
            for row in got:
                assert isinstance(row.coeffs, tuple)
                assert all(type(x) is scalar for x in row.coeffs)


def recurrences_one_at_a_time(config, blocks):
    """``block_recurrence`` per block, or the repr of the error that stops it."""
    try:
        return [models.block_recurrence(config, b) for b in blocks]
    except ParameterError as exc:
        return repr(exc)


class TestBlockRecurrences:
    EPSILONS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, -1.7e308,
                -1.0, 3.0, 27.25]
    FAMILIES = (
        [(Example(1), "a", k) for k in (-3, 0, 1, 2, 6)]
        + [(Example(1), "b", k) for k in (1, 2, 9, 30)]
        + [(Example(2), "first", k) for k in (-1, -2, -9)]
        + [(Example(2), "second", k) for k in (1, 4, 21)]
    )

    def test_one_pass_equals_a_call_per_block(self):
        # bytes, dtypes and shapes, so signed zeros too; where epsilon
        # overflows a diagonal, the same error on the same first block
        failures = 0
        for (example, case, k), eps in itertools.product(self.FAMILIES, self.EPSILONS):
            config = ModelConfig(example, case, k, eps)
            blocks = permissible_blocks(config, n_max=20)
            want = recurrences_one_at_a_time(config, blocks)
            if isinstance(want, str):
                failures += 1
                with pytest.raises(ParameterError) as got:
                    models.block_recurrences(config, blocks)
                assert repr(got.value) == want
                continue
            got = models.block_recurrences(config, blocks)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert [(m.dtype, m.shape, m.tobytes()) for m in g] == [
                    (m.dtype, m.shape, m.tobytes()) for m in w]
                # the structure the eigensolvers assume: monic diagonals,
                # constant b, and b_j c_j > 0 (model 1) or c_j = gamma_j s
                # (model 2)
                model_1 = example is Example.REPULSIVE_POLYNOMIAL
                assert [m.shape[1] for m in g] == ([2, 1, 1] if model_1 else [3, 1, 2])
                assert (g.a[:, -1] == 1.0).all()
                assert ((g.b[:, 0] * g.c[:, 0] > 0) if model_1 else (g.c[:, 0] == 0)).all()
        # -1.7e308 overflows model 1 past its first diagonal entry, so every
        # model 1 family here but case b k = 1, whose one block has one entry
        assert failures == 8
        assert models.block_recurrences(ModelConfig(Example(1), "a", 1, 1.0), []) == []

    def test_broken_rule_raises_before_any_overflow(self):
        # every block is checked against the rule before any is built, so a
        # block off the rule raises wherever it stands; with none, the first
        # overflowing block does
        config = ModelConfig(Example(1), "a", 1, -1.7e308)
        ok, overflowing, off_rule = (BlockSpec(0, 0, 1), BlockSpec(1, 1, 1),
                                     BlockSpec(1, 3, 1))
        for blocks in ([ok, off_rule, overflowing], [ok, overflowing, off_rule]):
            with pytest.raises(ParameterError, match=re.escape(
                    f"block {off_rule} is not permissible: case a requires")):
                models.block_recurrences(config, blocks)
        with pytest.raises(ParameterError, match=re.escape(
                f"overflows the recurrence of block {overflowing}")):
            models.block_recurrences(config, [ok, overflowing])


class TestSpectrum:
    def test_anchor_single_root_lambda_equals_eps(self):
        rng = np.random.default_rng(101)
        cfg0 = ModelConfig(Example(1), "a", 1, 0.0)
        block = BlockSpec(n=0, l=0, sigma=+1)
        for _ in range(5):
            eps = float(rng.uniform(-5, 5))
            roots = solve_block(ModelConfig(Example(1), "a", 1, eps), block).roots
            assert len(roots) == 1
            assert roots[0].physical
            assert math.isclose(roots[0].value, eps, rel_tol=1e-12, abs_tol=1e-12)
            assert roots[0].energy == roots[0].value

    def test_anchor_pair(self):
        cfg = ModelConfig(Example(1), "a", 1, 0.0)
        roots = solve_block(cfg, BlockSpec(n=1, l=1, sigma=+1)).roots
        assert [r.value for r in roots] == pytest.approx([-4.0, 4.0], abs=1e-10)
        assert all(r.physical for r in roots)

    def test_model2_first_anchor(self):
        cfg = ModelConfig(Example(2), "first", -1, 15.0)
        roots = solve_block(cfg, BlockSpec(n=0, l=1, sigma=+1)).roots
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
        roots = solve_block(cfg, BlockSpec(n=0, l=-1, sigma=-1)).roots
        physical = [r for r in roots if r.physical]
        assert len(physical) == 1
        assert math.isclose(physical[0].value, -1.0, abs_tol=1e-10)

    def test_counts_before_filtering(self):
        res1 = solve_block(
            ModelConfig(Example(1), "a", 2, 1.1), BlockSpec(4, 3, +1))
        assert len(res1.roots) == 5
        assert sum(not r.physical for r in res1.roots) == 0
        res2 = solve_block(
            ModelConfig(Example(2), "second", 3, 9.0), BlockSpec(2, -3, -1))
        assert len(res2.roots) == 6

    def test_eigenvector_degree_is_the_block_degree(self):
        # degree is derived from the coefficient count, so every physical
        # root's eigenvector carries exactly n + 1 coefficients
        for cfg, block in ((ModelConfig(Example(1), "a", 2, 1.1), BlockSpec(4, 3, +1)),
                           (ModelConfig(Example(2), "second", 3, 30.0), BlockSpec(2, -3, -1))):
            vectors = [r.eigenvector for r in solve_block(cfg, block).roots if r.physical]
            assert vectors and None not in vectors
            assert [v.degree for v in vectors] == [block.n] * len(vectors)
            assert all(len(v.coeffs) == block.n + 1 for v in vectors)

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
        # each physical root is confirmed by one 256-bit Newton step on the
        # continuant, with its exact derivative
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
                x = np.array([mpmath.mpf(r.value) for r in physical], dtype=object)
                steps = spectral.newton_corrections([extended_recurrence(config, block)], x)
                for root, value, step in zip(physical, x, steps):
                    assert abs(step) <= 1e-12 * max(1, abs(value)), (config, n, root.value)

    def test_unphysical_residual_is_the_relative_newton_correction(self):
        # |D/D'| / max(1, |value|) with Python's complex abs, which differs
        # from numpy's in the last bit at some of these roots
        config = ModelConfig(Example(2), "second", 6, 30.0)
        block = make_block(config, 5)
        rec = models.block_recurrence(config, block)
        complex_roots = [r for r in solve_block(config, block).roots
                         if isinstance(r.value, complex)]
        assert complex_roots
        steps = spectral.newton_corrections(
            [rec], np.array([r.value for r in complex_roots]))
        for r, step in zip(complex_roots, steps.tolist()):
            assert not r.physical
            assert r.residual == abs(step) / max(1.0, abs(r.value))

    def test_root_missing_the_target_forward_and_twisted_raises_precision_error(
        self, monkeypatch
    ):
        """A root whose forward and twisted null vectors both miss
        RESIDUAL_TARGET fails the block with PrecisionError."""
        monkeypatch.setattr(spectral, "RESIDUAL_TARGET", -1.0)
        with pytest.raises(PrecisionError, match=r"forward, .* twisted$"):
            solve_block(ModelConfig(Example(1), "a", 1, 0.5), BlockSpec(1, 1, +1))

    def test_root_missing_the_target_forward_takes_the_twisted_vector(self):
        # the forward null vector of this root has a terminal residual of
        # 2.3e-9; joined to the one run backward from p_n = 1, it meets the
        # target at the same double root
        config = ModelConfig(Example(1), "a", 14, 30.0)
        block = make_block(config, 13)
        res = solve_block(config, block)
        assert res.precision_bits == 53
        assert 28.222332638496038 in [r.value for r in res.roots]
        physical = [r for r in res.roots if r.physical]
        assert len(physical) == len(res.roots) == 14
        assert all(r.residual <= 1e-10 for r in physical)
        rec = models.block_recurrence(config, block)
        reversed_rec = spectral.Recurrence(rec.a[::-1], rec.c[::-1], rec.b[::-1])
        for r in physical:
            forward = polynomial_from_recurrence(rec, r.value)
            if r.value != 28.222332638496038:
                # the other 13 roots keep the per-root forward reference
                assert r.eigenvector.coeffs == forward.coeffs
                assert r.residual == forward.terminal_residual
                continue
            assert forward.terminal_residual > spectral.RESIDUAL_TARGET
            # the forward run down to some row t, below it the backward run
            # scaled to agree with it at t
            f, p = forward.coeffs, r.eigenvector.coeffs
            g = polynomial_from_recurrence(reversed_rec, r.value).coeffs[::-1]
            t = max(j for j in range(len(p)) if p[: j + 1] == f[: j + 1])
            assert t < len(p) - 1
            assert p[t + 1:] == tuple(q / g[t] * f[t] for q in g[t + 1:])
            want = reference_coefficients(config, block, r.value)
            assert all(abs(x - w) <= 1e-13 * abs(w) for x, w in zip(p, want))

    @pytest.mark.parametrize("k, epsilon, n, rescued_count", [
        (37, 30.0, 36, 2),
        (19, 100.0, 18, 7),
    ])
    def test_twisted_vectors_match_a_400_bit_reference(
        self, k, epsilon, n, rescued_count
    ):
        # a forward run, even at 128 bits from a 128-bit Newton root, leaves
        # the smallest coefficients of these roots up to 1.4e12 (k = 37) and
        # 2.2e10 (k = 19) relative off; the forward vectors that meet the
        # gate are outside this test (their small components wait for
        # twisted vectors at every root)
        config = ModelConfig(Example(1), "b", k, epsilon)
        block = make_block(config, n)
        rec = models.block_recurrence(config, block)
        physical = [r for r in solve_block(config, block).roots if r.physical]
        values = np.array([r.value for r in physical])
        _, forward = spectral.ragged_null_vectors([rec], values)
        reversed_rec = spectral.Recurrence(rec.a[::-1], rec.c[::-1], rec.b[::-1])
        _, backward = spectral.ragged_null_vectors([reversed_rec], values)
        rescued = forward > spectral.RESIDUAL_TARGET
        assert rescued.sum() == rescued_count
        # at k = 19 the backward vector alone misses the target too
        assert (backward[rescued] > spectral.RESIDUAL_TARGET).any() == (k == 19)
        for r in (r for r, miss in zip(physical, rescued) if miss):
            assert r.residual <= spectral.RESIDUAL_TARGET
            want = reference_coefficients(config, block, r.value)
            assert all(abs(p - w) <= 1e-13 * abs(w)
                       for p, w in zip(r.eigenvector.coeffs, want))

    def test_spurious_physical_root_raises_instead_of_duplicating_a_state(self):
        # the double eigensolver returns a spurious real negative chi whose
        # forward and twisted null vectors both miss the target; Newton
        # iteration at 128 bits would land on another physical root of the
        # same block, which was then reported twice
        for k, epsilon, n, root in (
            (31, 5000.0, 27, -35.42581300892498),
            (45, 1600.0, 37, -9.419512573873368),
        ):
            config = ModelConfig(Example(2), "second", k, epsilon)
            message = rf"^root {re.escape(repr(root))} of block .* twisted$"
            with pytest.raises(PrecisionError, match=message):
                solve_block(config, make_block(config, n))


def listed_spectrum_queries():
    """(config, blocks) of each valid spectrum command in the command list
    of tools/compare_stdout.py."""
    from heun_spectra import cli

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tools", "stdout_commands.txt")
    with open(path) as fh:
        commands = [line.split("#", 1)[0].split() for line in fh]
    queries = []
    for argv in commands:
        if argv[:1] != ["spectrum"]:
            continue
        args = cli.build_parser().parse_args(argv)
        try:
            config = ModelConfig(Example(args.example), args.case, args.k, args.epsilon)
            queries.append((config, permissible_blocks(config, n_max=args.n_max)))
        except ParameterError:
            continue
    return queries


RECORD_COLUMNS = ("value", "real", "energy", "physical", "borderline", "residual")


def record_rows(record):
    """Each block of a SpectrumRecord with the dtype and bytes of its rows of
    every column, its null vectors cut to the block's n + 1 coefficients."""
    rows = []
    for block, lo, hi in zip(record.blocks, record.bounds, record.bounds[1:]):
        columns = [getattr(record, name)[lo:hi] for name in RECORD_COLUMNS]
        columns.append(record.coeffs[lo:hi, : block.n + 1])
        rows.append((block, [(c.dtype.str, c.tobytes()) for c in columns]))
    return rows


def solved_together_and_alone(config, blocks):
    """[together, alone]: ``solve_record`` on the whole block list, and on
    each block alone in a loop that stops at the first error.  Each outcome
    is (the record rows of every block or the error's repr, the warnings as
    (message, file))."""
    outcomes = []
    for solve in (
        lambda: record_rows(models.solve_record(config, blocks)),
        lambda: [row for b in blocks for row in record_rows(models.solve_record(config, [b]))],
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = solve()
            except (ParameterError, PrecisionError) as exc:
                result = repr(exc)
        outcomes.append((result, [(str(w.message), w.filename) for w in caught]))
    return outcomes


class TestSolveRecord:
    def test_blocks_together_equal_blocks_solved_alone(self):
        # model 1b k = 37, epsilon = 30 has blocks whose roots take the
        # twisted null vector; model 2 adds the ragged Newton polish and a
        # borderline root at chi ~ 0
        for config, n_max in (
            (ModelConfig(Example(1), "b", 37, 30.0), 40),
            (ModelConfig(Example(2), "second", 21, 1200.0), 20),
            # residuals overflow to inf, which the polish must not turn
            # into nan by running a block on past its last row
            (ModelConfig(Example(2), "second", 12, -1e100), 44),
            (ModelConfig(Example(2), "second", 31, 15.0), 30),
        ):
            blocks = permissible_blocks(config, n_max=n_max)
            together, alone = solved_together_and_alone(config, blocks)
            # every array bit-equal, the same warnings in the same order, at
            # this file's line
            assert together == alone
            assert [b for b, _ in together[0]] == blocks
            assert all(w[1] == __file__ for w in together[1])
        assert together[1]  # the borderline root of the last configuration
        config = ModelConfig(Example(1), "b", 37, 30.0)
        rescued = []
        for block in permissible_blocks(config, n_max=40):
            physical = [r for r in solve_block(config, block).roots if r.physical]
            _, forward = spectral.ragged_null_vectors(
                [models.block_recurrence(config, block)],
                np.array([r.value for r in physical]))
            rescued += [r for r, f in zip(physical, forward)
                        if f > spectral.RESIDUAL_TARGET >= r.residual]
        assert len(rescued) == 5

    def test_listed_spectrum_queries_together_equal_blocks_solved_alone(self):
        # every twelfth spectrum command of tools/stdout_commands.txt, and the
        # one whose query warns
        queries = listed_spectrum_queries()
        warning = [q for q in queries if q[0] == ModelConfig(Example(2), "second", 31, 15.0)]
        assert len(queries) > 300 and len(warning) == 1
        for config, blocks in queries[::12] + warning:
            together, alone = solved_together_and_alone(config, blocks)
            assert together == alone
            assert all(w[1] == __file__ for w in together[1])
        assert together[1]

    def test_first_failing_block_raises_after_earlier_warnings(self):
        # of the blocks l = 27, 28, 29 (n = 26), the last holds a root whose
        # forward and twisted null vectors both miss the target; the query
        # raises the same error as the loop
        config = ModelConfig(Example(2), "first", -27, -5.0)
        blocks = permissible_blocks(config, n_max=2)
        together, alone = solved_together_and_alone(config, blocks)
        assert together == alone
        assert together[0].startswith("PrecisionError(") and "l=29" in together[0]

    def test_eigensolver_failure_raises_at_once(self, monkeypatch):
        real_eigvals, calls = np.linalg.eigvals, []

        def fail_second(matrix):
            calls.append(matrix)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real_eigvals(matrix)

        def no_polish(*args):
            raise AssertionError("a root was polished after the eigensolver failed")

        monkeypatch.setattr(np.linalg, "eigvals", fail_second)
        monkeypatch.setattr(spectral, "ragged_polish", no_polish)
        # every null vector would miss too, but the eigensolve stage comes first
        monkeypatch.setattr(spectral, "RESIDUAL_TARGET", -1.0)
        config = ModelConfig(Example(2), "second", 3, 30.0)
        blocks = permissible_blocks(config, n_max=2)
        with pytest.raises(PrecisionError, match=r"eigensolver failed on block BlockSpec\(n=1"):
            models.solve_record(config, blocks)
        assert len(calls) == 2

    def test_every_borderline_warning_comes_before_the_first_error(self):
        # block n = 35 holds a root whose null vectors miss the target, and
        # the later block n = 3 a borderline root; a loop over the blocks
        # would stop before that warning
        config = ModelConfig(Example(2), "second", 41, 15.0)
        blocks = permissible_blocks(config, n_max=40)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(PrecisionError, match=re.escape(f"of block {BlockSpec(35, -36, -1)}")):
                models.solve_record(config, blocks)
        assert [(str(w.message), w.filename) for w in caught] == [(
            "root chi = -1.213e-14 sits within 1e-09 of zero; treated as unphysical "
            "borderline", __file__)]
        assert blocks.index(BlockSpec(35, -36, -1)) < blocks.index(BlockSpec(3, -4, -1))

    def test_empty_block_list(self):
        record = models.solve_record(ModelConfig(Example(1), "a", 2, 0.5), [])
        assert record.blocks == () and record.bounds == (0,)
        assert all(len(getattr(record, name)) == 0 for name in RECORD_COLUMNS)


class TestModel2PhysicalCount:
    """Model 2's physical roots, where a real negative companion eigenvalue
    is printed as a bound state with nothing to check it.  Each physical
    root is one step of the inertia count of the symmetrized pencil, which
    runs from 0 to #{j : beta_j < 0}, so a block has that many physical
    roots.  The defect shows from n = 13 on.  These fail until the roots
    come from inertia brackets, and must then be turned into plain tests."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="spurious or missing physical roots")
    @pytest.mark.parametrize("k, epsilon, n_max", [
        # 11 blocks are wrong: n = 34 has 23 physical roots for 35, and
        # n = 44 has 18 for 17
        (45, 5000.0, 44),
        # n = 14 has 11 physical roots for 10: chi = -8.69e-4 is no root
        (49, 800.0, 14),
        # n = 27, 29 and 30 have 2 physical roots each, and no negative beta_j
        (151, 100.0, 30),
    ])
    def test_physical_count_is_the_number_of_negative_beta(self, k, epsilon, n_max):
        config = ModelConfig(Example(2), "second", k, epsilon)
        record = models.solve_record(config, permissible_blocks(config, n_max=n_max))
        got, want = [], []
        for block, lo, hi in zip(record.blocks, record.bounds, record.bounds[1:]):
            got.append((block.n, int(record.physical[lo:hi].sum())))
            want.append((block.n, int((models.block_recurrence(config, block).a[:, 0] < 0).sum())))
        assert got == want

    @pytest.mark.parametrize("n", [
        20,
        # the count is right (21 and 19 physical roots), the set is not:
        # two roots of each block are no step of the count
        *(pytest.param(n, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="physical roots that are no step of the inertia count"))
          for n in (39, 41)),
    ])
    def test_each_physical_root_is_a_step_of_the_inertia_count(self, n):
        config = ModelConfig(Example(2), "second", 45, 5000.0)
        block = make_block(config, n)
        to_fraction = np.frompyfunc(Fraction, 1, 1)
        rec = spectral.Recurrence(*map(to_fraction, models.block_recurrence(config, block)))

        roots = [r.value for r in solve_block(config, block).roots if r.physical]
        assert roots
        # N(chi), the negative pivots of the symmetrized matrix, exact in
        # Fractions, just above and just below each root
        points = np.array([Fraction(x * (1 - d)) for d in (1e-8, -1e-8) for x in roots],
                          dtype=object)
        above, below = np.split(spectral.inertia([rec], points), 2)
        assert (above - below).tolist() == [1] * len(roots)

    @pytest.mark.xfail(strict=True, raises=PrecisionError,
                       reason="a spurious companion root in a block with no bound state")
    @pytest.mark.parametrize("k, epsilon, n_max, n, l", [
        (-27, -5.0, 2, 26, 29),
        # every beta_j of block (19, 43) is positive
        (-20, 40.0, 40, 19, 43),
        # nor of block (49, 63): PrecisionError on chi = -127.80
        (-50, 100.0, 13, 49, 63),
    ])
    def test_spurious_root_is_not_a_bound_state(self, k, epsilon, n_max, n, l):
        config = ModelConfig(Example(2), "first", k, epsilon)
        record = models.solve_record(config, permissible_blocks(config, n_max=n_max))
        t = record.blocks.index(BlockSpec(n, l, +1))
        assert not record.physical[record.bounds[t]:record.bounds[t + 1]].any()


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
        cfg1 = ModelConfig(Example(1), "a", 1, 1.0)
        assert math.isinf(total_flux(cfg1))

    def test_negative_radius_rejected(self):
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        for field in (vector_potential, scalar_potential, magnetic_field):
            with pytest.raises(ValueError, match="^rho must be non-negative$"):
                field(cfg, [1.0, -0.5])
        with pytest.raises(ValueError, match="^rho must be non-negative$"):
            t_of_rho(-1e-300)

    def test_effective_potential_needs_a_positive_radius(self):
        cfg = ModelConfig(Example(2), "second", 2, 1.0)
        for rho in (0.0, [1.0, -1.0]):
            with pytest.raises(ValueError, match="^the effective potential needs rho > 0$"):
                models.effective_potential(cfg, -1, -1, rho)

    def test_t_of_rho(self):
        assert t_of_rho(0.0) == 1.0
        assert t_of_rho(math.sqrt(3.0)) == pytest.approx(1.5, abs=1e-15)
        grid = np.linspace(0, 10, 200)
        assert np.all(np.diff(t_of_rho(grid)) > 0)


def per_interval_gauss_integral(integrand, a, b, scale, levels):
    """models._gauss_integral with one integrand call per level, as the
    norm was computed before its first levels shared a call; appends the
    number of levels it evaluated to levels."""
    x, w = np.polynomial.legendre.leggauss(models.GAUSS_ORDER)
    panels = models.NORM_START_PANELS
    previous = None
    count = 0
    while True:
        edges = np.linspace(a, b, panels + 1)
        half = 0.5 * np.diff(edges)[:, None]
        nodes = (edges[:-1, None] + half * (1.0 + x)).ravel()
        weights = (half * w).ravel()
        estimate = float(np.dot(weights, integrand(nodes)))
        count += 1
        if not math.isfinite(estimate):
            levels.append(count)
            return estimate
        if previous is not None:
            at_cap = panels >= models.NORM_MAX_PANELS
            rtol = models.NORM_FLOOR_RTOL if at_cap else models.NORM_RTOL
            if abs(estimate - previous) <= rtol * max(abs(estimate), scale):
                levels.append(count)
                return estimate
            if at_cap:
                raise PrecisionError(
                    f"quadrature over [{a:g}, {b:g}] did not converge: "
                    f"{panels} panels give {estimate!r}, {panels // 2} give {previous!r}"
                )
        previous = estimate
        panels *= 2


def per_interval_norm(cfg, block, root, levels):
    """radial_norm by per_interval_gauss_integral: the head, then the tail
    scaled by the head."""
    def integrand(r):
        return models.radial_values(cfg, block, root, r) ** 2 * r

    split = models.decay_split(cfg, root)
    head = per_interval_gauss_integral(integrand, 0.0, split, 0.0, levels)
    tail = per_interval_gauss_integral(integrand, split, 2.0 * split, head, levels)
    total = head + tail
    return total, tail / total


class TestWavefunctions:
    def test_positive_l_vanishes_at_origin(self):
        cfg = ModelConfig(Example(1), "a", 1, 0.3)
        block = make_block(cfg, 1)
        root = solve_block(cfg, block).roots[0]
        assert wavefunction(cfg, block, root, 0.0) == 0.0

    def test_ground_profile_is_pure_envelope(self):
        eps = 1.2
        cfg = ModelConfig(Example(1), "a", 1, eps)
        block = make_block(cfg, 0)
        root = solve_block(cfg, block).roots[0]
        rho = np.linspace(0.0, 3.0, 40)
        vals = wavefunction(cfg, block, root, rho)
        expect = np.exp(-rho ** 4 / 8 - eps * rho ** 2 / 4)
        assert np.allclose(vals, expect, rtol=1e-13, atol=1e-13)

    def test_model2_boundary_value(self):
        cfg = ModelConfig(Example(2), "first", -1, 15.0)
        block = BlockSpec(n=0, l=1, sigma=+1)
        root = [r for r in solve_block(cfg, block).roots if r.physical][0]
        val = wavefunction(cfg, block, root, 0.0)
        assert val == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_angular_phase(self):
        cfg = ModelConfig(Example(1), "b", 4, 0.5)
        block = make_block(cfg, 1)
        root = solve_block(cfg, block).roots[0]
        v0 = wavefunction(cfg, block, root, 1.5, phi=0.0)
        v1 = wavefunction(cfg, block, root, 1.5, phi=0.25)
        # sigma = -1, |l| = 1: phase e^{-i phi}
        assert v1 == pytest.approx(v0 * np.exp(-0.25j), rel=1e-12)

    def test_unphysical_root_rejected(self):
        cfg = ModelConfig(Example(2), "first", -1, 15.0)
        block = BlockSpec(n=0, l=1, sigma=+1)
        bad = [r for r in solve_block(cfg, block).roots if not r.physical][0]
        with pytest.raises(SelectionError):
            wavefunction(cfg, block, bad, 1.0)

    def test_norm_and_tail(self):
        cfg = ModelConfig(Example(1), "a", 2, 0.9)
        block = make_block(cfg, 2)
        root = solve_block(cfg, block).roots[0]
        total, tail = radial_norm(cfg, block, root)
        assert math.isfinite(total) and total > 0
        assert tail < 1e-12

    @pytest.mark.xfail(strict=True, raises=PrecisionError,
                       reason="model 1 norm quadrature does not converge at high degree")
    @pytest.mark.parametrize("k, eps, n, index", [
        pytest.param(1, 1.0, 18, 18, id="18-18"),
        pytest.param(1, 1.0, 30, 30, id="30-30"),
        pytest.param(2, -1.0, 17, 17, id="k2-eps-1-17-17")])
    def test_high_model1_state_has_a_norm(self, k, eps, n, index):
        # every norm of k = 1, eps = 1 converges at n = 17; at n = 18 only
        # index 18 fails, at n = 30 indices 20-30 do.  At k = 2, eps = -1
        # the top state fails already at n = 17
        cfg = ModelConfig(Example(1), "a", k, eps)
        block = make_block(cfg, n)
        root = solve_block(cfg, block).roots[index]
        total, _ = radial_norm(cfg, block, root)
        assert math.isfinite(total) and total > 0

    @pytest.mark.xfail(strict=True, raises=PrecisionError,
                       reason="norm quadrature fails on a physical state")
    @pytest.mark.parametrize("example, case, k, eps, n, index", [
        # from n = 11 on, Horner on p_j t^j cancels: the panels disagree
        # over [0, 20]
        pytest.param(2, "second", 45, 5000.0, 11, 23, id="second-45-5000-11-23"),
        pytest.param(2, "second", 45, 5000.0, 14, 28, id="second-45-5000-14-28"),
        pytest.param(2, "second", 45, 5000.0, 20, 35, id="second-45-5000-20-35"),
        # weakly bound, chi = -5.77e-4: the panels disagree over [0, 60686.1]
        pytest.param(2, "second", 45, 100.0, 4, 9, id="second-45-100-4-9"),
        # R peaks at e^450, and R^2 overflows to a norm of inf
        pytest.param(1, "a", 1, -60.0, 0, 0, id="1a-1-minus60-0-0"),
    ])
    def test_physical_state_has_a_norm(self, example, case, k, eps, n, index):
        cfg = ModelConfig(Example(example), case, k, eps)
        block = make_block(cfg, n)
        root = solve_block(cfg, block).roots[index]
        assert root.physical
        total, _ = radial_norm(cfg, block, root)
        assert math.isfinite(total) and total > 0

    @pytest.mark.parametrize("example, case, k, eps, n", [
        (1, "a", 3, 2.5, 2),  # two of the three states need a third level
        (1, "b", 4, 0.5, 1),
        (2, "second", 6, 100.0, 5),  # the top state needs a fourth level
        (2, "second", 5, 1600.0, 4),  # norms down to 2.3e-34
    ])
    def test_norm_keeps_the_per_interval_bits(self, example, case, k, eps, n):
        # one integrand call for both intervals' first two levels gives the
        # same bits as evaluating each level of each interval on its own,
        # and the integrand is called again only for the levels past two
        cfg = ModelConfig(Example(example), case, k, eps)
        block = make_block(cfg, n)
        bound = [r for r in solve_block(cfg, block).roots if r.physical]
        past_two = []
        for root in bound:
            levels = []
            expect = per_interval_norm(cfg, block, root, levels)
            with mock.patch.object(models, "radial_values",
                                   wraps=models.radial_values) as spy:
                got = radial_norm(cfg, block, root)
            assert [x.hex() for x in got] == [x.hex() for x in expect]
            past_two.append(sum(max(0, m - 2) for m in levels))
            assert spy.call_count == 1 + past_two[-1]
        assert len(bound) >= 2
        if (example, k) in ((1, 3), (2, 6)):
            assert max(past_two) >= 1

    def test_unconverged_norm_keeps_the_per_interval_error(self):
        cfg = ModelConfig(Example(1), "a", 2, -1.0)
        block = make_block(cfg, 17)
        root = solve_block(cfg, block).roots[17]
        with pytest.raises(PrecisionError) as expect:
            per_interval_norm(cfg, block, root, [])
        with pytest.raises(PrecisionError) as got:
            radial_norm(cfg, block, root)
        assert str(got.value) == str(expect.value)
        assert "did not converge" in str(got.value)

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
        bound = [r for r in solve_block(cfg, block).roots if r.physical]
        assert len(bound) == 5
        for root in bound:
            total, _ = radial_norm(cfg, block, root)
            assert total < 1e-26
            assert total == pytest.approx(
                self.scalar_quad_norm(cfg, block, root), rel=1e-6, abs=0)

    def test_small_chi_state_keeps_a_negligible_tail(self):
        cfg = ModelConfig(Example(2), "second", 2, 4.0)
        block = make_block(cfg, 0)
        root = [r for r in solve_block(cfg, block).roots if r.physical][0]
        assert models.decay_split(cfg, root) > 100
        total, tail = radial_norm(cfg, block, root)
        assert tail < 1e-12
        assert total == pytest.approx(
            self.scalar_quad_norm(cfg, block, root), rel=1e-9, abs=0)

    def test_unconverged_norm_raises_precision_error(self, monkeypatch):
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        block = make_block(cfg, 0)
        root = solve_block(cfg, block).roots[0]
        rng = np.random.default_rng(0)

        def noisy(config, block, root, rho):
            r = np.asarray(rho, dtype=float)
            return np.exp(-r * r) * (1.0 + 1e-2 * rng.standard_normal(r.shape))

        monkeypatch.setattr(models, "radial_values", noisy)
        with pytest.raises(PrecisionError, match="did not converge"):
            radial_norm(cfg, block, root)

    def test_overflowing_state_has_a_non_finite_norm(self):
        # R^2 overflows at every node, so the quadrature returns its first
        # non-finite estimate instead of refining it to the panel cap
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        block = make_block(cfg, 1)
        root = solve_block(cfg, block).roots[0]
        huge = dataclasses.replace(root, eigenvector=models.PolynomialCoefficients(
            coeffs=(1.0, 1e300), terminal_residual=0.0))
        with pytest.raises(PrecisionError, match="^state norm inf of root "):
            radial_norm(cfg, block, huge)

    def test_noise_floor_norm_is_accepted_at_the_panel_cap(self, monkeypatch):
        # noise of 1e-7 keeps successive estimates from agreeing to
        # NORM_RTOL, but not to NORM_FLOOR_RTOL: the head reaches
        # NORM_MAX_PANELS and is accepted there, near the exact 1/4
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        block = make_block(cfg, 0)
        root = solve_block(cfg, block).roots[0]
        rng = np.random.default_rng(0)
        sizes = []

        def noisy(config, block, root, rho):
            r = np.asarray(rho, dtype=float)
            sizes.append(r.size)
            return np.exp(-r * r) * (1.0 + 1e-7 * rng.standard_normal(r.shape))

        monkeypatch.setattr(models, "radial_values", noisy)
        total, _ = radial_norm(cfg, block, root)
        assert max(sizes) == models.NORM_MAX_PANELS * models.GAUSS_ORDER
        assert abs(total - 0.25) <= 1e-8

    def test_normalized_profile_integrates_to_one(self):
        cfg = ModelConfig(Example(2), "second", 2, 30.0)
        block = make_block(cfg, 1)
        root = [r for r in solve_block(cfg, block).roots if r.physical][0]
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
        root = solve_block(cfg, block).roots[0]
        grid = np.arange(0.1, 3.0 + 1e-12, 1e-3)
        assert schrodinger_residual(cfg, block, root, grid) < 1e-6

    def test_fourth_order_scaling(self):
        # h large enough that truncation dominates the 1/h^2 roundoff noise
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        block = make_block(cfg, 0)
        root = solve_block(cfg, block).roots[0]
        r_coarse = schrodinger_residual(
            cfg, block, root, np.arange(0.2, 3.0, 2e-2))
        r_fine = schrodinger_residual(
            cfg, block, root, np.arange(0.2, 3.0, 1e-2))
        assert 8.0 < r_coarse / r_fine < 40.0

    def test_detector_sees_wrong_energy(self):
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        block = make_block(cfg, 0)
        root = solve_block(cfg, block).roots[0]
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
        root = solve_block(cfg, block).roots[0]
        with pytest.raises(ValueError, match=r"^grid must satisfy rho_min >= 5 h$"):
            schrodinger_residual(cfg, block, root, np.arange(0.001, 1.0, 1e-3))

    @pytest.mark.parametrize("grid, message", [
        (np.linspace(0.1, 1.0, 4), "grid must be a 1-d array with at least 5 points"),
        (np.linspace(0.1, 1.0, 12).reshape(2, 6),
         "grid must be a 1-d array with at least 5 points"),
        (np.linspace(1.0, 0.1, 10), "grid must be uniformly spaced and increasing"),
        (np.array([0.1, 0.2, 0.3, 0.5, 0.6]),
         "grid must be uniformly spaced and increasing"),
    ], ids=["four-points", "two-d", "decreasing", "uneven"])
    def test_grid_shape_and_spacing(self, grid, message):
        cfg = ModelConfig(Example(1), "a", 1, 1.0)
        block = make_block(cfg, 0)
        root = solve_block(cfg, block).roots[0]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            schrodinger_residual(cfg, block, root, grid)

    def test_root_without_a_real_energy_is_a_selection_error(self):
        cfg = ModelConfig(Example(2), "second", 1, 1.0)
        block = make_block(cfg, 0)
        root = models.SpectralRoot(value=-1 + 1j, energy=None, physical=False,
                                   residual=0.0)
        with pytest.raises(SelectionError, match="^residual check needs a real-energy root$"):
            schrodinger_residual(cfg, block, root, np.linspace(0.5, 1.0, 11))

    def test_a_grid_where_the_state_underflows_is_refused(self):
        # far out the state's exp(2 chi t) underflows to 0 on every point
        cfg = ModelConfig(Example(2), "first", -1, 15.0)
        block = make_block(cfg, 0, 1)
        root = next(r for r in solve_block(cfg, block).roots if r.physical)
        with pytest.raises(ValueError, match="^radial values vanish on the whole grid$"):
            schrodinger_residual(cfg, block, root, np.linspace(2000, 2001, 100))


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
            phys = [r for r in solve_block(cfg, block).roots if r.physical]
            assert phys, f"no physical state in {cfg}"
            grid = np.arange(0.1, 4.0, 1e-3)
            res = schrodinger_residual(cfg, block, phys[0], grid)
            assert res < 1e-5
