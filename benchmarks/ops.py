"""Execute one op of a workload through the program's public functions.

``execute`` is the timed part and only calls into the program; ``check``
compares what it returned against the stored reference and is not timed.
An op that raises is returned as the exception and fails its check.
"""

from __future__ import annotations

import contextlib
import io
import math
import warnings
from typing import Dict

import numpy as np

from heun_spectra import cli, models, oracle
from heun_spectra.models import Example, ModelConfig

import checks
from workloads import (NORM_PROBE, ORACLE_EXTRA_LEVELS, ORACLE_GRID, ORACLE_TOL,
                       PROFILE_POINTS, PROFILE_RHO_MAX, SAMPLE_INDICES,
                       Config, all_block_ops, block_key)


def model_config(config: Config) -> ModelConfig:
    return ModelConfig(Example(config.example), config.case, config.k, config.epsilon)


def profile_grid(example: int) -> np.ndarray:
    return np.linspace(0.0, PROFILE_RHO_MAX[example], PROFILE_POINTS)


def execute(workload: str, op):
    try:
        if workload == "sweep":
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(op.argv())
            return code, out.getvalue()
        config = model_config(op.config)
        block = models.make_block(config, op.n, op.l)
        result = models.solve_block(config, block)
        if workload == "high-degree":
            return result
        bound = [r for r in result.roots if r.physical]
        grid = profile_grid(op.config.example)
        profiles = [models.radial_profile(config, block, r, grid, normalize=True)
                    for r in bound]
        with warnings.catch_warnings():
            # the extra levels above the bound spectrum are box states that
            # legitimately reach the outer wall
            warnings.simplefilter("ignore", RuntimeWarning)
            numeric = oracle.radial_eigensolve(
                config, block.l, block.sigma,
                oracle.GridSpec(*ORACLE_GRID[op.config.example]),
                count=len(bound) + ORACLE_EXTRA_LEVELS)
        report = oracle.compare_spectra([r.energy for r in bound], numeric,
                                        tol=ORACLE_TOL)
        return result, profiles, report
    except Exception as exc:  # a failed op is counted, never fatal
        return exc


def check(workload: str, op, raw, reference: Dict) -> checks.Result:
    if isinstance(raw, Exception):
        return False, math.inf, f"raised {type(raw).__name__}: {raw}"
    if workload == "sweep":
        code, stdout = raw
        c = op.config
        ref_blocks = [[n, l, sigma, reference["blocks"][block_key(c, n, l)]["physical"]]
                      for n, l, sigma in reference["sweep"][c.key()]]
        return checks.check_sweep(c.example, c.case, op.n_max, op.fmt, code,
                                  stdout, ref_blocks)
    ref = reference["blocks"][op.key()]
    if workload == "high-degree":
        return checks.check_block(op.config.example, raw.roots, ref)
    result, profiles, report = raw
    ok, worst, detail = checks.check_block(op.config.example, result.roots, ref)
    if not ok:
        return ok, worst, detail
    for profile, ref_state in zip(profiles, ref["states"]):
        ok, _, detail = checks.check_state(profile.norm, profile.values,
                                           ref_state, SAMPLE_INDICES)
        if not ok:
            return ok, worst, detail
    if not report.passed:
        return False, worst, f"oracle left levels unmatched: {report.unmatched}"
    return True, worst, ""


def norm_probe_error(reference: Dict) -> float:
    """Worst relative error of ``radial_norm`` over the ``NORM_PROBE`` states.

    Not timed and not an op: these norms lie below quad's absolute tolerance
    (see ``workloads.py``), and this is how far off the program is on them.
    A block that raises counts as an error of 1.
    """
    worst = 0.0
    for op in all_block_ops(NORM_PROBE):
        config = model_config(op.config)
        block = models.make_block(config, op.n, op.l)
        try:
            bound = [r for r in models.solve_block(config, block).roots if r.physical]
            for root, ref_state in zip(bound, reference["blocks"][op.key()]["states"]):
                norm, _ = models.radial_norm(config, block, root)
                worst = max(worst, abs(norm - ref_state["norm"]) / ref_state["norm"])
        except Exception:  # the probe reports, it never stops the run
            worst = max(worst, 1.0)
    return worst
