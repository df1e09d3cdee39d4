"""Tests of the benchmark itself: references, checks, spans and verdicts.

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_benchmark.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from heun_spectra import models
from heun_spectra.models import BlockSpec, Example, ModelConfig

import checks
import compare
import ops
import reference
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


@pytest.fixture(scope="module")
def stored():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# reference routes and checks


def test_model2_reference_reproduces_readme_roots():
    config = ModelConfig(Example(2), "first", -1, 15.0)
    roots = reference.block_roots(config, BlockSpec(n=0, l=1, sigma=1))
    assert sorted(r.real for r in roots) == pytest.approx([-1.0, 3.0], abs=1e-12)
    assert reference.physical_values(config, roots) == pytest.approx([-1.0])


def test_model1_reference_matches_program():
    config = ModelConfig(Example(1), "a", 1, 1.0)
    block = models.make_block(config, 1)
    ref = reference.physical_values(config, reference.block_roots(config, block))
    got = [r.energy for r in models.solve_block(config, block).roots if r.physical]
    assert checks.compare_energies(got, ref, "b")[0]
    assert ref == pytest.approx([-2.1231056256176606, 6.1231056256176606], rel=1e-14)


def test_reference_blocks_follow_the_family_rules():
    for args, n_max in (((1, "a", 3, 0.5), 6), ((1, "b", 9, 1.0), 8),
                        ((2, "first", -4, 400.0), 3), ((2, "second", 5, 400.0), 3)):
        config = ModelConfig(Example(args[0]), *args[1:])
        want = [(b.n, b.l, b.sigma) for b in models.permissible_blocks(config, n_max)]
        assert reference.expected_blocks(config, n_max) == want


def test_compare_energies_rejects_count_and_value_misses():
    assert checks.compare_energies([1.0, 2.0], [1.0, 2.0], "b") == (True, 0.0, "")
    assert not checks.compare_energies([1.0], [1.0, 2.0], "b")[0]
    ok, err, _ = checks.compare_energies([1.0, 2.0 + 1e-6], [1.0, 2.0], "b")
    assert not ok and err == pytest.approx(5e-7)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_check_catches_a_corrupted_energy(stored, fmt):
    op = next(o for o in workloads.sweep_ops(0) if o.fmt == fmt)
    code, text = raw = ops.execute("sweep", op)
    assert ops.check("sweep", op, raw, stored)[0]
    if fmt == "json":
        report = json.loads(text)
        root = next(r for b in report["blocks"] for r in b["roots"] if r["physical"])
        root["energy"] *= 1 + 1e-6
        bad = json.dumps(report)
    else:
        rows = text.splitlines()
        i = next(i for i, row in enumerate(rows) if row.split(",")[5:6] == ["true"])
        cells = rows[i].split(",")
        cells[4] = repr(float(cells[4]) * (1 + 1e-6) + 1e-6)
        rows[i] = ",".join(cells)
        bad = "\n".join(rows) + "\n"
    assert not ops.check("sweep", op, (code, bad), stored)[0]
    assert not ops.check("sweep", op, (3, text), stored)[0]


def test_failed_op_is_counted_not_raised(stored):
    op = workloads.high_degree_ops(0)[0]
    ok, err, detail = ops.check("high-degree", op, RuntimeError("boom"), stored)
    assert not ok and math.isinf(err) and "RuntimeError" in detail


def test_state_check_uses_norm_and_samples():
    ref = {"norm": 2.0, "peak": 1.0, "samples": [0.5, 0.25]}
    values = [0.0] * 10
    values[1], values[3] = 0.5, 0.25
    assert checks.check_state(2.0, values, ref, (1, 3))[0]
    assert not checks.check_state(2.0 * (1 + 1e-5), values, ref, (1, 3))[0]
    values[3] = 0.25 + 1e-5
    assert not checks.check_state(2.0, values, ref, (1, 3))[0]


def test_max_root_error_matches_roots_greedily():
    ref = [complex(-1, 0), complex(3, 0), complex(1, 2)]
    got = [complex(3, 1e-3), complex(-1, 0), complex(1, 2)]
    assert checks.max_root_error(got, ref) == pytest.approx(1e-3 / 3)
    assert math.isinf(checks.max_root_error(got[:2], ref))


# ---------------------------------------------------------------------------
# workloads


@pytest.mark.parametrize("name", ["sweep", "high-degree", "states"])
def test_ops_depend_on_the_seed_only(name):
    assert workloads.ops_for(name, 3) == workloads.ops_for(name, 3)
    assert any(workloads.ops_for(name, s) != workloads.ops_for(name, 3) for s in range(4, 8))


def test_every_pool_entry_has_a_reference(stored):
    for slots in (workloads.HIGH_DEGREE_SLOTS, workloads.STATES_SLOTS, workloads.NORM_PROBE):
        for op in workloads.all_block_ops(slots):
            assert op.key() in stored["blocks"]
    for slots in (workloads.STATES_SLOTS, workloads.NORM_PROBE):
        for op in workloads.all_block_ops(slots):
            assert stored["blocks"][op.key()]["states"]
    for pool in workloads.SWEEP_POOL.values():
        for entry in pool:
            key = workloads.Config(*entry).key()
            for n, l, _ in stored["sweep"][key]:
                assert workloads.block_key(workloads.Config(*entry), n, l) in stored["blocks"]


def test_norm_probe_lies_below_quads_tolerance_and_states_above(stored):
    def norms(slots):
        return [s["norm"] for op in workloads.all_block_ops(slots)
                for s in stored["blocks"][op.key()].get("states", [])]

    assert max(norms(workloads.NORM_PROBE)) < 1.5e-8 < min(norms(workloads.STATES_SLOTS))


def test_high_degree_stays_past_the_cliff():
    degrees = {n for (_, n), _ in workloads.HIGH_DEGREE_SLOTS}
    assert min(degrees) > models.HIGH_DEGREE_THRESHOLD
    assert all(n <= 10 for (_, n), _ in workloads.STATES_SLOTS)


def test_benchmark_json_matches_the_runner():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_runner_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0 and proc.stdout == ""


# ---------------------------------------------------------------------------
# spans


def test_wrapper_skips_missing_targets_and_restores_originals():
    tracer = spans.Tracer()
    assert not tracer.wrap("heun_spectra.no_such_module", "f", "x")
    assert not tracer.wrap("heun_spectra.models", "no_such_function", "x")
    original = models.t_of_rho
    assert tracer.wrap("heun_spectra.models", "t_of_rho", "models.t_of_rho")
    assert models.t_of_rho is not original
    models.t_of_rho(1.0)
    tracer.uninstall()
    assert models.t_of_rho is original
    assert spans.self_times(tracer.spans)["models.t_of_rho"][0] == 1
    assert "models.radial_norm" not in spans.self_times(tracer.spans)


def test_self_times_partition_the_root_span():
    recorded = [["op", 0.0, 10.0, -1], ["a", 1.0, 6.0, 0], ["b", 2.0, 3.0, 1],
                ["b", 4.0, 5.0, 1], ["c", 7.0, 9.0, 0]]
    stats = spans.self_times(recorded)
    assert stats == {"op": (1, 3.0), "a": (1, 3.0), "b": (2, 2.0), "c": (1, 2.0)}
    assert sum(s for _, s in stats.values()) == pytest.approx(10.0)


def test_importtime_parsing_counts_outermost_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     mpmath",
        "import time:       200 |        900 |   scipy.integrate",
        "import time:        50 |       1500 | heun_spectra",
        "import time:        10 |         20 |   heun_spectra.verification",
        "import time:        30 |        300 | heun_spectra.cli",
    ])
    entries = spans.parse_importtime(text)
    assert spans.import_ms(entries, "heun_spectra") == pytest.approx(1.8)
    assert spans.import_ms(entries, "scipy.integrate") == pytest.approx(0.9)
    assert spans.import_ms(entries, "mpmath") == pytest.approx(0.1)
    assert spans.import_ms(entries, "sympy") == 0.0


# ---------------------------------------------------------------------------
# comparison verdicts


def test_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    faster = [p * 0.8 for p in parent]
    assert compare.verdict(parent, faster, "lower", 0.1) == "improved"
    assert compare.verdict(parent, faster, "higher", 0.1) == "worse"
    assert compare.verdict(parent, list(parent), "lower", 0.1) == "unchanged"
    assert compare.verdict(parent, [p * 1.05 for p in parent], "lower", 0.1) == "unchanged"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    assert compare.verdict(noisy, [n * 0.98 for n in noisy], "lower", 0.1) == "unresolved"
    assert compare.verdict(noisy, [40.0] * 10, "lower", 0.1) == "improved"
    assert compare.verdict([5.0] * 10, [7.0] * 10, "lower", None) == "worse"
