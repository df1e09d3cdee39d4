"""Mutant checks: a verification check must fail on a deliberately broken
program, or its pass shows nothing."""

import dataclasses

import numpy as np
import pytest

from heun_spectra import models, spectral, verification


def run(check):
    return check(np.random.default_rng(verification.DEFAULT_SEED), False)


class TestDeterminantDualPath:
    def test_a_relative_error_of_two_to_the_minus_80_fails(self, monkeypatch):
        # far inside any float tolerance, and lost entirely if a float
        # slipped into the Fraction path (d + d / 2**80 == d in double)
        numeric = spectral.determinant_numeric

        def perturbed(rec, s):
            d = numeric(rec, s)
            return d + d / 2**80

        monkeypatch.setattr(spectral, "determinant_numeric", perturbed)
        ok, detail = run(verification.check_determinant_dual_path)
        assert not ok
        assert not detail.startswith("worst deviation 0.00e+00 ")


class TestRootRealityAndCount:
    def test_model2_count_fails_when_a_bound_state_is_lost(self, monkeypatch):
        # the default seed's model 2 blocks hold physical roots at
        # chi = -0.073 and -0.315; a floor of 0.1 turns the first unphysical
        monkeypatch.setattr(models, "PHYSICAL_NEG_TOL", 0.1)
        with pytest.warns(RuntimeWarning, match="borderline"):
            ok, detail = run(verification.check_root_reality_and_count)
        assert not ok
        assert detail.endswith("model 2 counts WRONG")


class TestOdeResiduals:
    def test_a_shifted_confluent_eta_fails(self, monkeypatch):
        # the check must solve model 2 states and test them against the
        # confluent equation, whose accessory parameter eta this shifts
        params_for = verification._heunc_params_for

        def shifted(config, block, s):
            params = params_for(config, block, s)
            return dataclasses.replace(params, eta=params.eta + 0.5)

        monkeypatch.setattr(verification, "_heunc_params_for", shifted)
        ok, _ = run(verification.check_ode_residuals)
        assert not ok
