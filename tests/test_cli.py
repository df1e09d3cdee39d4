"""End-to-end checks of the command line interface."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from heun_spectra import cli, models


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SPEC_ARGS = ["--example", "1", "--case", "a", "--k", "1", "--epsilon", "1"]

# Child interpreters import the package these tests imported, whether it
# came from PYTHONPATH or from pytest's pythonpath setting.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    ),
}


class TestBlocks:
    def test_case_a_listing(self, capsys):
        code, out, _ = run_cli(
            ["blocks", "--example", "1", "--case", "a", "--k", "1",
             "--n-max", "2"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "n l sigma"
        assert lines[2:5] == ["0 0 +1", "1 1 +1", "2 2 +1"]
        assert lines[5] == "3 blocks"

    def test_case_b_skips_even_gaps(self, capsys):
        code, out, _ = run_cli(
            ["blocks", "--example", "1", "--case", "b", "--k", "4",
             "--n-max", "3"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[2:4] == ["1 1 -1", "3 0 -1"]
        assert lines[4] == "2 blocks"

    def test_invalid_k_exits_2(self, capsys):
        code, out, err = run_cli(
            ["blocks", "--example", "2", "--case", "first", "--k", "1"],
            capsys)
        assert code == 2
        assert "k" in err


class TestSpectrumJson:
    def test_schema_and_anchor(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", *SPEC_ARGS, "--n-max", "0"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["example", "case", "k", "epsilon", "blocks",
                             "filtered_root_count", "precision_bits"]
        assert doc["example"] == 1 and doc["case"] == "a"
        block = doc["blocks"][0]
        assert block["n"] == 0 and block["l"] == 0 and block["sigma"] == 1
        root = block["roots"][0]
        assert list(root) == ["value", "energy", "physical", "residual",
                              "coefficients"]
        assert root["value"] == pytest.approx(1.0, abs=1e-12)
        assert root["energy"] == pytest.approx(1.0, abs=1e-12)
        assert root["physical"] is True
        assert root["coefficients"] == [1.0]

    def test_nonrational_anchor(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--example", "2", "--case", "first", "--k", "-1",
             "--epsilon", "15", "--n-max", "0"], capsys)
        assert code == 0
        doc = json.loads(out)
        roots = doc["blocks"][0]["roots"]
        physical = [r for r in roots if r["physical"]]
        assert len(physical) == 1
        assert physical[0]["energy"] == pytest.approx(-1.0, abs=1e-12)

    def test_floats_round_trip_exactly(self, capsys):
        # %.17g must reproduce the binary64 values bit for bit
        _, out, _ = run_cli(
            ["spectrum", *SPEC_ARGS, "--n-max", "3"], capsys)
        doc = json.loads(out)
        config = models.ModelConfig(models.Example(1), "a", 1, 1.0)
        for jb in doc["blocks"]:
            block = models.BlockSpec(jb["n"], jb["l"], jb["sigma"])
            res = models.solve_block(config, block)
            for jr, r in zip(jb["roots"], res.roots):
                assert jr["value"] == float(np.real(r.value))
                assert jr["energy"] == r.energy
                assert jr["residual"] == float(r.residual)


def reference_json(value, indent=0):
    """A generic recursive emitter of the report's layout: the reference
    for the flat emitter in ``cli``."""
    pad = "  " * indent
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, complex):
        return f"[{value.real:.17g}, {value.imag:.17g}]"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = ",\n".join(pad + "  " + reference_json(v, indent + 1) for v in value)
        return "[\n" + inner + "\n" + pad + "]"
    inner = ",\n".join(
        pad + "  " + json.dumps(k) + ": " + reference_json(v, indent + 1)
        for k, v in value.items()
    )
    return "{\n" + inner + "\n" + pad + "}"


class TestJsonEmitter:
    @pytest.mark.filterwarnings("ignore:k = 0 supports no bound multiplets")
    @pytest.mark.parametrize("example, case, k, epsilon, n_max", [
        (1, "a", 1, 1.0, 3),  # several coefficients per state
        (1, "a", 0, 0.0, 3),  # no blocks at all
        (2, "second", 2, 3.0, 1),  # complex roots, null energies, -0
        (2, "first", -4, 150.0, 2),
    ])
    def test_bytes_match_the_recursive_layout(self, capsys, example, case, k,
                                              epsilon, n_max):
        code, out, _ = run_cli(
            ["spectrum", "--example", str(example), "--case", case,
             "--k", str(k), "--epsilon", repr(epsilon),
             "--n-max", str(n_max)], capsys)
        assert code == 0
        config = models.ModelConfig(models.Example(example), case, k, epsilon)
        blocks = models.permissible_blocks(config, n_max=n_max)
        results = models.solve_blocks(config, blocks)
        report = {
            "example": example, "case": case, "k": k, "epsilon": epsilon,
            "blocks": [
                {"n": res.block.n, "l": res.block.l, "sigma": res.block.sigma,
                 "roots": [
                     {"value": r.value, "energy": r.energy,
                      "physical": r.physical, "residual": r.residual,
                      "coefficients": None if r.eigenvector is None
                      else list(r.eigenvector.coeffs)}
                     for r in res.roots]}
                for res in results],
            "filtered_root_count": sum(res.filtered_count for res in results),
            "precision_bits": max((res.precision_bits for res in results), default=53),
        }
        assert out == reference_json(report) + "\n"


class TestSpectrumCsv:
    def test_header_and_agreement_with_json(self, capsys):
        _, csv_out, _ = run_cli(
            ["spectrum", *SPEC_ARGS, "--n-max", "2", "--format", "csv"],
            capsys)
        lines = csv_out.splitlines()
        assert lines[0] == "n,l,sigma,root,energy,physical,residual"
        _, json_out, _ = run_cli(
            ["spectrum", *SPEC_ARGS, "--n-max", "2"], capsys)
        doc = json.loads(json_out)
        rows = [line.split(",") for line in lines[1:]]
        flat = [(b["n"], b["l"], b["sigma"], r)
                for b in doc["blocks"] for r in b["roots"]]
        assert len(rows) == len(flat)
        for row, (n, l, sigma, r) in zip(rows, flat):
            assert (int(row[0]), int(row[1]), int(row[2])) == (n, l, sigma)
            assert float(row[3]) == r["value"]
            assert float(row[4]) == r["energy"]
            assert row[5] == ("true" if r["physical"] else "false")

    def test_deterministic_bytes(self, capsys):
        argv = ["spectrum", "--example", "2", "--case", "second", "--k", "2",
                "--epsilon", "3", "--n-max", "4", "--format", "csv"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_jobs_flag_does_not_change_output(self, capsys):
        # --jobs is accepted and ignored; n-max 26 reaches past n = 20
        argv = ["spectrum", *SPEC_ARGS, "--n-max", "26"]
        _, serial, _ = run_cli([*argv, "--jobs", "1"], capsys)
        _, parallel, _ = run_cli([*argv, "--jobs", "2"], capsys)
        assert serial == parallel


class TestHighDegree:
    # chi = 0 is an exact root of the n = 3 block at epsilon 15
    @pytest.mark.filterwarnings("ignore:root chi = .* of zero")
    def test_model2_degree_30_spectrum_exits_0(self, capsys):
        code, out, err = run_cli(
            ["spectrum", "--example", "2", "--case", "second", "--k", "31",
             "--epsilon", "15", "--n-max", "30"], capsys)
        assert code == 0, err
        doc = json.loads(out)
        assert len(doc["blocks"]) == 31
        assert [b["n"] for b in doc["blocks"]] == list(range(30, -1, -1))
        assert doc["precision_bits"] == 53


class TestWavefunction:
    def test_ground_state_profile(self, capsys):
        code, out, _ = run_cli(
            ["wavefunction", *SPEC_ARGS, "--n", "0", "--samples", "10",
             "--rho-max", "4"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rho,re,im,abs2"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1.0)
        assert float(first[2]) == 0.0

    def test_nonzero_l_vanishes_at_origin(self, capsys):
        code, out, _ = run_cli(
            ["wavefunction", "--example", "1", "--case", "a", "--k", "1",
             "--epsilon", "0.5", "--n", "1", "--samples", "8"], capsys)
        assert code == 0
        first = out.splitlines()[1].split(",")
        assert float(first[3]) == 0.0

    def test_unphysical_index_exits_4(self, capsys):
        # chi = 3 is a determinant root but not a bound state; its mapped
        # energy -9 sorts it ahead of the physical chi = -1 level
        code, _, err = run_cli(
            ["wavefunction", "--example", "2", "--case", "first", "--k", "-1",
             "--epsilon", "15", "--n", "0", "--l", "1", "--index", "0"],
            capsys)
        assert code == 4
        assert "physical" in err

    def test_index_out_of_range_exits_4(self, capsys):
        code, _, err = run_cli(
            ["wavefunction", *SPEC_ARGS, "--n", "0", "--index", "5"], capsys)
        assert code == 4
        assert "out of range" in err

    def test_bad_samples_exits_2(self, capsys):
        code, _, _ = run_cli(
            ["wavefunction", *SPEC_ARGS, "--n", "0", "--samples", "1"],
            capsys)
        assert code == 2

    def test_normalize_density_integrates_to_one(self, capsys):
        code, out, _ = run_cli(
            ["wavefunction", *SPEC_ARGS, "--n", "0", "--samples", "4001",
             "--rho-max", "12", "--normalize"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        rho = np.array([float(r[0]) for r in rows])
        abs2 = np.array([float(r[3]) for r in rows])
        assert np.trapezoid(abs2 * rho, rho) == pytest.approx(1.0, abs=1e-4)


class TestVerify:
    def test_quick_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--level", "quick"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].startswith("verification passed:")

    def test_corrupt_check_exits_5(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--level", "quick", "--corrupt-check",
             "sequence-identities"], capsys)
        assert code == 5
        assert "verification failed: sequence-identities" in out

    def test_unreachable_tolerance_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(models, "RESIDUAL_TARGET", -1.0)
        code, _, err = run_cli(
            ["spectrum", *SPEC_ARGS, "--n-max", "0"], capsys)
        assert code == 3
        assert "after Newton polish at 128 bits" in err
        assert "Traceback" not in err

    def test_duplicate_state_block_exits_3(self, capsys):
        code, out, err = run_cli(
            ["spectrum", "--example", "2", "--case", "second", "--k", "31",
             "--epsilon", "5000", "--n-max", "30"], capsys)
        assert code == 3
        assert out == ""
        assert "BlockSpec(n=27" in err
        assert "Traceback" not in err

    def test_failing_block_exits_3_with_its_message(self, capsys):
        code, out, err = run_cli(
            ["spectrum", "--example", "2", "--case", "first", "--k", "-27",
             "--epsilon", "-5", "--n-max", "2"], capsys)
        assert code == 3
        assert out == ""
        assert err == (
            "error: root -89.60788950956042 of block BlockSpec(n=26, l=29, "
            "sigma=1) misses the terminal-residual target 1e-10: 9.969e-01 in "
            "double precision, 9.963e-01 after Newton polish at 128 bits\n"
        )

    def test_stdout_is_deterministic(self, capsys):
        code, first, first_err = run_cli(["verify", "--level", "quick"], capsys)
        _, second, _ = run_cli(["verify", "--level", "quick"], capsys)
        assert code == 0
        assert first == second
        # the wall times go to stderr, one line per check
        assert len(first_err.splitlines()) == len(first.splitlines()) - 1
        assert all(line.endswith(" s") for line in first_err.splitlines())

    def test_eigensolver_failure_exits_3(self, capsys, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        code, out, err = run_cli(
            ["spectrum", "--example", "2", "--case", "second", "--k", "2",
             "--epsilon", "3", "--n-max", "1"], capsys)
        assert code == 3
        assert out == ""
        assert "eigensolver failed" in err
        assert "Traceback" not in err


class TestSubprocess:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "heun_spectra", "spectrum", *SPEC_ARGS,
             "--n-max", "1"],
            capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["blocks"][0]["roots"][0]["value"] == pytest.approx(1.0)

    def test_import_loads_no_scipy_linalg_or_integrate(self):
        # Cold start-up: commands that never solve a block, integrate a norm
        # or polish a root in extended precision must not pay for these
        # imports.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import heun_spectra, heun_spectra.cli, sys; "
             "print(' '.join(m for m in ('scipy.linalg', 'scipy.integrate', "
             "'mpmath') if m in sys.modules))"],
            capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""

    @pytest.mark.parametrize("family", [
        ["--example", "1", "--case", "a", "--k", "1"],
        ["--example", "2", "--case", "second", "--k", "4", "--epsilon", "30"],
    ])
    def test_spectrum_loads_no_scipy_or_mpmath(self, family):
        # the solve path uses numpy's eigensolvers only; scipy serves the
        # oracle and mpmath the 128-bit polish and verification
        script = (
            "import sys\n"
            "from heun_spectra import cli\n"
            f"code = cli.main(['spectrum', *{family!r}, '--n-max', '3'])\n"
            "loaded = [m for m in ('scipy', 'mpmath') if m in sys.modules]\n"
            "print(code, loaded, file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=CHILD_ENV)
        assert proc.stderr == "0 []\n"
        assert len(json.loads(proc.stdout)["blocks"]) == 4

    def test_missing_subcommand_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "heun_spectra"],
            capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 2
        assert "usage" in proc.stderr
