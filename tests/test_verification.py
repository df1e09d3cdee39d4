"""Mutant checks: a verification check must fail on a deliberately broken
program, or its pass shows nothing.  And ``run_checks``' input rule."""

import dataclasses

import numpy as np
import pytest

from heun_spectra import models, oracle, verification
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
    # each mutant changes the first block of its model that the check
    # solves: the degree ladder's n = 1 block
    LADDER_FIRST = {Example.REPULSIVE_POLYNOMIAL: models.BlockSpec(n=1, l=1, sigma=+1),
                    Example.NONRATIONAL: models.BlockSpec(n=1, l=2, sigma=+1)}

    def test_the_default_seed_passes(self):
        assert run(verification.check_inertia_certificate) == (True, (
            "157 of 157 roots isolated by exact inertia, "
            "59 of 59 block sets complete (n <= 8)"))

    def test_a_spurious_model2_root_fails(self, monkeypatch):
        def spurious(roots):
            extra = models.SpectralRoot(value=-0.5, energy=-0.25, physical=True,
                                        residual=0.0)
            return roots + (extra,)

        changed = mutate_first_block(monkeypatch, Example.NONRATIONAL, spurious)
        ok, detail = run(verification.check_inertia_certificate)
        assert changed == [self.LADDER_FIRST[Example.NONRATIONAL]] and not ok
        assert detail == ("157 of 158 roots isolated by exact inertia, "
                          "58 of 59 block sets complete (n <= 8)")

    def test_a_dropped_root_fails(self, monkeypatch):
        def dropped(roots):
            first = next(i for i, r in enumerate(roots) if r.physical)
            return roots[:first] + roots[first + 1:]

        changed = mutate_first_block(monkeypatch, Example.REPULSIVE_POLYNOMIAL, dropped)
        ok, detail = run(verification.check_inertia_certificate)
        assert changed == [self.LADDER_FIRST[Example.REPULSIVE_POLYNOMIAL]] and not ok
        assert detail == ("156 of 156 roots isolated by exact inertia, "
                          "58 of 59 block sets complete (n <= 8)")

    def test_a_model1_root_moved_by_one_part_in_a_million_fails(self, monkeypatch):
        def moved(roots):
            return (dataclasses.replace(roots[0], value=roots[0].value * (1 + 1e-6)),
                    *roots[1:])

        changed = mutate_first_block(monkeypatch, Example.REPULSIVE_POLYNOMIAL, moved)
        ok, detail = run(verification.check_inertia_certificate)
        assert changed == [self.LADDER_FIRST[Example.REPULSIVE_POLYNOMIAL]] and not ok
        assert detail == ("156 of 157 roots isolated by exact inertia, "
                          "59 of 59 block sets complete (n <= 8)")

    def test_a_root_printed_twice_in_place_of_another_fails(self, monkeypatch):
        # both brackets step across the same root, so only their overlap
        # shows that the set is not the block's
        def doubled(roots):
            return (roots[0], roots[0], *roots[2:])

        changed = mutate_first_block(monkeypatch, Example.REPULSIVE_POLYNOMIAL, doubled)
        ok, detail = run(verification.check_inertia_certificate)
        assert changed == [self.LADDER_FIRST[Example.REPULSIVE_POLYNOMIAL]] and not ok
        assert detail == ("156 of 157 roots isolated by exact inertia, "
                          "59 of 59 block sets complete (n <= 8)")

    def test_a_lost_model2_bound_state_fails(self, monkeypatch):
        # the default seed's small model 2 blocks hold physical roots at
        # chi = -0.073 and -0.315; a floor of 0.1 turns the first unphysical
        monkeypatch.setattr(models, "PHYSICAL_NEG_TOL", 0.1)
        with pytest.warns(RuntimeWarning, match="borderline"):
            ok, detail = run(verification.check_inertia_certificate)
        assert not ok
        assert detail == ("156 of 156 roots isolated by exact inertia, "
                          "58 of 59 block sets complete (n <= 8)")


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

    def test_each_mesh_is_built_once(self, monkeypatch):
        # the smallest mesh's levels come with the certified ones, rather
        # than from a second solve of that mesh
        build = oracle._mesh_matrix
        meshes = []

        def spy(config, l, sigma, rho_max, size):
            meshes.append((config, l, sigma, rho_max, size))
            return build(config, l, sigma, rho_max, size)

        monkeypatch.setattr(oracle, "_mesh_matrix", spy)
        ok, detail = run(verification.check_oracle_agreement)
        assert ok and f"the {oracle.MESH_SIZES[0]}-point mesh agrees" in detail
        assert len(set(meshes)) == len(meshes)
        assert [mesh[-1] for mesh in meshes].count(oracle.MESH_SIZES[0]) == 6


class TestRunChecks:
    @pytest.mark.parametrize("seed", [2.5, "1", None, True])
    def test_a_seed_that_is_not_an_integer_is_a_parameter_error(self, seed):
        with pytest.raises(ParameterError, match="^seed must be an integer$"):
            verification.run_checks(seed=seed)

    def test_an_unknown_level_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="^level must be 'quick' or 'full'$"):
            verification.run_checks(level="medium")
