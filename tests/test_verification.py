"""Mutant checks: a verification check must fail on a deliberately broken
program, or its pass shows nothing.  And ``run_checks``' input rule."""

import dataclasses

import numpy as np
import pytest

from heun_spectra import models, verification
from heun_spectra.errors import ParameterError
from heun_spectra.models import Example


def run(check):
    return check(np.random.default_rng(verification.DEFAULT_SEED), False)


def mutate_first_block(monkeypatch, example, change):
    """models.solve_block with change applied to the roots of the first
    block of the example that the caller solves."""
    solve = models.solve_block
    changed = []

    def mutant(config, block, precision=None):
        result = solve(config, block, precision)
        if config.example is example and not changed:
            changed.append(block)
            result = dataclasses.replace(result, roots=change(result.roots))
        return result

    monkeypatch.setattr(models, "solve_block", mutant)
    return changed


class TestInertiaCertificate:
    def test_the_default_seed_passes(self):
        assert run(verification.check_inertia_certificate) == (True, (
            "40 of 40 roots isolated by exact inertia, "
            "16 of 16 block sets complete (n <= 8)"))

    def test_a_spurious_model2_root_fails(self, monkeypatch):
        def spurious(roots):
            extra = models.SpectralRoot(value=-0.5, energy=-0.25, physical=True,
                                        residual=0.0)
            return roots + (extra,)

        changed = mutate_first_block(monkeypatch, Example.NONRATIONAL, spurious)
        ok, detail = run(verification.check_inertia_certificate)
        assert changed and not ok
        assert detail == ("40 of 41 roots isolated by exact inertia, "
                          "15 of 16 block sets complete (n <= 8)")

    def test_a_dropped_root_fails(self, monkeypatch):
        def dropped(roots):
            first = next(i for i, r in enumerate(roots) if r.physical)
            return roots[:first] + roots[first + 1:]

        changed = mutate_first_block(monkeypatch, Example.REPULSIVE_POLYNOMIAL, dropped)
        ok, detail = run(verification.check_inertia_certificate)
        assert changed and not ok
        assert detail == ("39 of 39 roots isolated by exact inertia, "
                          "15 of 16 block sets complete (n <= 8)")

    def test_a_model1_root_moved_by_one_part_in_a_million_fails(self, monkeypatch):
        def moved(roots):
            return (dataclasses.replace(roots[0], value=roots[0].value * (1 + 1e-6)),
                    *roots[1:])

        changed = mutate_first_block(monkeypatch, Example.REPULSIVE_POLYNOMIAL, moved)
        ok, detail = run(verification.check_inertia_certificate)
        assert changed and not ok
        assert detail == ("39 of 40 roots isolated by exact inertia, "
                          "16 of 16 block sets complete (n <= 8)")

    def test_a_root_printed_twice_in_place_of_another_fails(self, monkeypatch):
        # both brackets step across the same root, so only their overlap
        # shows that the set is not the block's
        def doubled(roots):
            return (roots[0], roots[0], *roots[2:])

        changed = mutate_first_block(monkeypatch, Example.REPULSIVE_POLYNOMIAL, doubled)
        ok, detail = run(verification.check_inertia_certificate)
        assert changed and not ok
        assert detail == ("39 of 40 roots isolated by exact inertia, "
                          "16 of 16 block sets complete (n <= 8)")


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


class TestOracleAgreement:
    def test_a_dropped_lowest_level_fails(self, monkeypatch):
        # 1a k = 1, eps = 0, n = 1 prints the levels -4 and 4; without -4
        # the printed 4 is paired with the channel's lowest level, which a
        # nearest-level match would have skipped for its level 1
        solve = models.solve_block
        target = (models.ModelConfig(Example(1), "a", 1, 0.0),
                  models.BlockSpec(n=1, l=1, sigma=+1))

        def mutant(config, block, precision=None):
            result = solve(config, block, precision)
            if (config, block) == target:
                physical = [r for r in result.roots if r.physical]
                assert [r.energy for r in physical] == pytest.approx([-4.0, 4.0])
                result = dataclasses.replace(
                    result, roots=tuple(r for r in result.roots if r is not physical[0]))
            return result

        monkeypatch.setattr(models, "solve_block", mutant)
        ok, detail = run(verification.check_oracle_agreement)
        assert not ok
        assert detail == ("unmatched levels (4.0,) in block "
                          "BlockSpec(n=1, l=1, sigma=1) of example 1 a")


class TestRunChecks:
    @pytest.mark.parametrize("seed", [2.5, "1", None, True])
    def test_a_seed_that_is_not_an_integer_is_a_parameter_error(self, seed):
        with pytest.raises(ParameterError, match="^seed must be an integer$"):
            verification.run_checks(seed=seed)

    def test_an_unknown_level_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="^level must be 'quick' or 'full'$"):
            verification.run_checks(level="medium")
