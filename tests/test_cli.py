"""End-to-end checks of the command line interface."""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heun_spectra import cli, models, spectral, verification


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

    K_RANGE = "k must satisfy |k| < 2**31"

    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "--example", "1", "--case", "b",
          "--k", "100000000000000000001", "--n-max", "2"], K_RANGE),
        (["spectrum", "--example", "2", "--case", "second",
          "--k", "100000000000000000001", "--n-max", "1"], K_RANGE),
        (["spectrum", "--example", "2", "--case", "first",
          "--k", "-100000000000000000001", "--n-max", "0"], K_RANGE),
        (["blocks", "--example", "1", "--case", "a",
          "--k", "-2147483648", "--n-max", "0"], K_RANGE),
        # these used to exit 3 (a nan norm) and 0 (202 blocks); a huge --n
        # or --n-max ended in a MemoryError traceback or a hang
        (["wavefunction", "--example", "1", "--case", "a", "--k", "1", "--n", "201"],
         "block degree n must be at most 200"),
        (["blocks", "--example", "1", "--case", "a", "--k", "1", "--n-max", "201"],
         "n_max must be at most 200"),
        # this used to exit 4, as a block off the family rule
        (["wavefunction", "--example", "1", "--case", "a", "--k", "1", "--n", "-1"],
         "block degree n must be non-negative"),
    ], ids=["spectrum-1b", "spectrum-2-second", "spectrum-2-first", "blocks-1a",
            "wavefunction-n", "blocks-n-max", "wavefunction-negative-n"])
    def test_out_of_range_input_exits_2(self, capsys, argv, message):
        # the k cases used to end in an OverflowError or a ValueError traceback
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


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

    def test_negative_exponent_epsilon_is_written_with_equals(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--example", "1", "--case", "a", "--k", "1",
             "--epsilon=-1e-05", "--n-max", "2"], capsys)
        assert code == 0
        assert json.loads(out)["epsilon"] == -1e-05
        # argparse reads a separate "-1e-05" as an option name; the help text
        # of both float flags says to write a negative value with "="
        code, out, err = run_cli(
            ["spectrum", "--example", "1", "--case", "a", "--k", "1",
             "--epsilon", "-1e-05", "--n-max", "2"], capsys)
        assert code == 2 and out == ""
        assert "expected one argument" in err
        for command, flag in (("spectrum", "--epsilon"), ("wavefunction", "--epsilon"),
                              ("wavefunction", "--phi")):
            code, out, _ = run_cli([command, "--help"], capsys)
            assert code == 0
            assert f"writeanegativevalueas{flag}=-1e-05" in "".join(out.split())

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
    @pytest.mark.parametrize("example, case, k, epsilon, n_max", [
        (1, "a", 1, 1.0, 3),  # several coefficients per state
        (1, "a", 6, 0.0, 3),  # no blocks at all: case a needs n >= k - 1
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
        results = [models.solve_block(config, b) for b in blocks]
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


def reference_report(config, results, fmt):
    """The spectrum report built root by root from the objects of
    ``solve_block`` on each block alone: the reference for the array
    emitters in ``cli``, which print ``solve_record`` on the whole query."""
    fmt17 = "{:.17g}".format

    def json_root(root):
        value = root.value
        if isinstance(value, complex) and value.imag != 0:
            value_text = f"[{fmt17(value.real)}, {fmt17(value.imag)}]"
        else:
            value_text = fmt17(value.real)
        coeffs = "null" if root.eigenvector is None else (
            "[\n            "
            + ",\n            ".join(fmt17(c) for c in root.eigenvector.coeffs)
            + "\n          ]")
        return (
            "        {\n"
            f'          "value": {value_text},\n'
            f'          "energy": {"null" if root.energy is None else fmt17(root.energy)},\n'
            f'          "physical": {"true" if root.physical else "false"},\n'
            f'          "residual": {fmt17(root.residual)},\n'
            f'          "coefficients": {coeffs}\n'
            "        }")

    def json_list(items, pad):
        return "[\n" + ",\n".join(items) + "\n" + pad + "]" if items else "[]"

    def csv_row(block, root):
        if isinstance(root.value, complex) and root.value.imag != 0:
            root_cell = f"{fmt17(root.value.real)}{root.value.imag:+.17g}j"
        else:
            root_cell = fmt17(root.value.real)
        energy_cell = "" if root.energy is None else fmt17(root.energy)
        return (f"{block.n},{block.l},{block.sigma},{root_cell},{energy_cell},"
                f"{'true' if root.physical else 'false'},{fmt17(root.residual)}")

    if fmt == "csv":
        rows = [csv_row(res.block, r) for res in results for r in res.roots]
        return "\n".join(["n,l,sigma,root,energy,physical,residual", *rows])
    blocks = [
        "    {\n"
        f'      "n": {res.block.n},\n'
        f'      "l": {res.block.l},\n'
        f'      "sigma": {res.block.sigma},\n'
        f'      "roots": {json_list([json_root(r) for r in res.roots], "      ")}\n'
        "    }"
        for res in results
    ]
    precision_bits = max((res.precision_bits for res in results), default=53)
    return (
        "{\n"
        f'  "example": {int(config.example)},\n'
        f'  "case": {json.dumps(config.variant)},\n'
        f'  "k": {config.k},\n'
        f'  "epsilon": {fmt17(config.epsilon)},\n'
        f'  "blocks": {json_list(blocks, "  ")},\n'
        f'  "filtered_root_count": {sum(res.filtered_count for res in results)},\n'
        f'  "precision_bits": {precision_bits}\n'
        "}")


# (example, case, k) of the four families, each keeping every block at n <= 20
REPORT_FAMILIES = st.one_of(
    st.tuples(st.just(1), st.just("a"), st.integers(-3, 22)),
    st.tuples(st.just(1), st.just("b"), st.integers(1, 41)),
    st.tuples(st.just(2), st.just("first"), st.integers(-21, -1)),
    st.tuples(st.just(2), st.just("second"), st.integers(1, 21)),
)


class TestReportsFromArrays:
    """``spectrum`` prints from the solve record of the whole query the
    bytes that the per-root reference prints from the ``solve_block``
    objects of each block alone."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        family=REPORT_FAMILIES,
        epsilon=st.one_of(
            st.floats(-50.0, 2000.0),
            st.sampled_from([0.0, -0.0, 15.0, 27.0, 400.0, 1200.0]),
        ),
        n_max=st.integers(0, 20),
        fmt=st.sampled_from(["json", "csv"]),
    )
    # complex roots (null energies) and chi = -0
    @example(family=(2, "second", 2), epsilon=3.0, n_max=1, fmt="json")
    @example(family=(2, "second", 2), epsilon=3.0, n_max=1, fmt="csv")
    # a borderline root near chi = 0
    @example(family=(2, "second", 5), epsilon=15.0, n_max=20, fmt="json")
    @example(family=(2, "second", 5), epsilon=15.0, n_max=20, fmt="csv")
    # no blocks: case a needs n >= k - 1
    @example(family=(1, "a", 22), epsilon=1.0, n_max=3, fmt="json")
    @example(family=(1, "a", 22), epsilon=1.0, n_max=3, fmt="csv")
    def test_stdout_equals_the_per_root_reference(self, family, epsilon, n_max, fmt):
        example_, case, k = family
        if case == "first":
            n_max = min(n_max, 3)  # here n_max counts the blocks of the l ladder
        # "--epsilon=": argparse takes a separate "-1e-05" for an option
        argv = ["spectrum", "--example", str(example_), "--case", case, "--k", str(k),
                f"--epsilon={epsilon!r}", "--n-max", str(n_max), "--format", fmt]
        out = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore", RuntimeWarning)
            code = cli.main(argv)
            config = models.ModelConfig(models.Example(example_), case, k, epsilon)
            blocks = models.permissible_blocks(config, n_max=n_max)
            try:
                results = [models.solve_block(config, b) for b in blocks]
            except models.PrecisionError:
                assert code == cli.EXIT_PRECISION and out.getvalue() == ""
                return
        assert code == 0
        assert out.getvalue() == reference_report(config, results, fmt) + "\n"
        # each explicit example shows what it is there for
        roots = [r for res in results for r in res.roots]
        if (family, epsilon) == ((2, "second", 2), 3.0):
            assert any(r.energy is None for r in roots)
        if (family, epsilon, n_max) == ((2, "second", 5), 15.0, 20):
            assert any(r.borderline for r in roots)
        if family == (1, "a", 22) and n_max == 3:
            assert not blocks

    def test_listed_commands_print_the_reference(self):
        # every eighth spectrum command of tools/stdout_commands.txt
        tool = load_compare_stdout()
        commands = [argv for argv in tool.read_commands(tool.DEFAULT_COMMANDS)
                    if argv[0] == "spectrum"]
        checked = 0
        for argv in commands[::8]:
            args = cli.build_parser().parse_args(argv)
            out = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                warnings.simplefilter("ignore", RuntimeWarning)
                code = cli.main(argv)
                try:
                    config = models.ModelConfig(
                        models.Example(args.example), args.case, args.k, args.epsilon)
                    blocks = models.permissible_blocks(config, n_max=args.n_max)
                    results = [models.solve_block(config, b) for b in blocks]
                except (models.ParameterError, models.PrecisionError):
                    assert code != 0 and out.getvalue() == ""
                    continue
            assert code == 0
            assert out.getvalue() == reference_report(config, results, args.format) + "\n"
            checked += 1
        assert checked > 40


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

    @pytest.mark.parametrize("argv, samples, message", [
        (["--example", "2", "--case", "first", "--k", "-27", "--epsilon", "-5",
          "--n", "26", "--l", "29"], "1", "at least 2"),
        (["--example", "1", "--case", "a", "--k", "1", "--n", "0", "--index", "5"],
         "1", "at least 2"),
        # this used to end in a numpy MemoryError traceback ("Unable to
        # allocate 72.8 TiB")
        (["--example", "1", "--case", "a", "--k", "1", "--n", "0"],
         "10000000000000", "at most 10**6"),
    ], ids=["solve-fails", "index-out-of-range", "huge-grid"])
    def test_bad_samples_exits_2_before_the_solve(self, capsys, argv, samples, message):
        # the flags are checked before the block is solved or a root picked,
        # so the failure that solve or selection would raise never shows
        code, out, err = run_cli(["wavefunction", *argv, "--samples", samples], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: --samples must be {message}\n"

    def test_out_of_range_l_exits_2(self, capsys):
        # this used to end in an OverflowError traceback
        code, out, err = run_cli(
            ["wavefunction", "--example", "2", "--case", "first", "--k", "-1",
             "--n", "0", "--l", "4000000000"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: l must satisfy |l| < 2**31\n"

    def test_borderline_warning_names_the_solving_line_of_cli(self, capsys):
        # the block has a borderline root; its warning used to name the line
        # of a wrapper in models.py
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run_cli(
                ["wavefunction", "--example", "2", "--case", "second", "--k", "5",
                 "--epsilon", "51", "--n", "4", "--index", "5", "--samples", "3"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 4
        # chi ~ -1e-15 is a double root: the same warning twice
        assert [(w.category, w.filename) for w in caught] == [(RuntimeWarning, cli.__file__)] * 2
        assert "treated as unphysical borderline" in str(caught[0].message)

    def test_infinite_rho_max_exits_2(self, capsys):
        code, out, err = run_cli(
            ["wavefunction", *SPEC_ARGS, "--n", "0", "--rho-max", "inf"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: --rho-max must be positive and finite\n"

    def test_nan_phi_exits_2(self, capsys):
        code, out, err = run_cli(
            ["wavefunction", *SPEC_ARGS, "--n", "0", "--phi", "nan"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: --phi must be finite\n"

    @pytest.mark.parametrize("argv, rho", [
        (["--example", "1", "--case", "a", "--k", "1", "--n", "3",
          "--rho-max", "1e100", "--samples", "3"], "5e+99"),
        (["--example", "2", "--case", "second", "--k", "1", "--epsilon", "15",
          "--n", "0", "--index", "1", "--rho-max", "1e300", "--samples", "3"],
         "5e+299"),
    ], ids=["model1-zero-times-inf", "model2-t-overflows"])
    def test_non_finite_samples_exit_3(self, capsys, argv, rho):
        # far out the factors of R overflow; the profile used to print nan
        code, out, err = run_cli(["wavefunction", *argv], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert err.endswith(f"is not finite at rho = {rho}\n")

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

    def test_corrupt_check_exits_5(self, capsys, monkeypatch):
        # the first check reports a failure; the others still run
        registry = list(verification._REGISTRY)
        name, _, in_quick = registry[0]
        registry[0] = (name, lambda rng, full: (False, "forced failure"), in_quick)
        monkeypatch.setattr(verification, "_REGISTRY", registry)
        code, out, _ = run_cli(["verify", "--level", "quick"], capsys)
        assert code == 5
        lines = out.splitlines()
        assert lines[0] == "FAIL sequence-identities: forced failure"
        assert all(line.startswith("PASS") for line in lines[1:-1])
        assert lines[-1] == "verification failed: sequence-identities"

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run_cli(["verify", "--seed", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: seed must be non-negative, not -1"]

    def test_unreachable_tolerance_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(spectral, "RESIDUAL_TARGET", -1.0)
        code, _, err = run_cli(
            ["spectrum", *SPEC_ARGS, "--n-max", "0"], capsys)
        assert code == 3
        assert err.endswith(" twisted\n")
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
            "sigma=1) misses the terminal-residual target 1e-10: 9.969e-01 "
            "forward, 9.700e-01 twisted\n"
        )

    def test_stdout_is_deterministic(self, capsys):
        code, first, first_err = run_cli(["verify", "--level", "quick"], capsys)
        _, second, _ = run_cli(["verify", "--level", "quick"], capsys)
        assert code == 0
        assert first == second
        # the wall times go to stderr, one line per check
        assert len(first_err.splitlines()) == len(first.splitlines()) - 1
        assert all(line.endswith(" s") for line in first_err.splitlines())

    def test_oracle_lapack_failure_exits_3(self, capsys, monkeypatch):
        import scipy.linalg

        def failing(*args, **kwargs):
            # what eigh_tridiagonal raises when dstein returns info = 1
            raise scipy.linalg.LinAlgError(
                "stein (eigh_tridiagonal) 1 eigenvectors failed to converge")

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", failing)
        code, out, err = run_cli(["verify", "--level", "full"], capsys)
        assert code == 3
        assert out == ""
        assert err.splitlines() == [
            "error: LAPACK bisection failed: "
            "stein (eigh_tridiagonal) 1 eigenvectors failed to converge"]

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


def load_compare_stdout():
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "tools", "compare_stdout.py")
    spec = importlib.util.spec_from_file_location("compare_stdout", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCommandList:
    def test_every_listed_command_parses(self):
        # a flag the parser no longer knows would turn the byte-identity
        # comparison of tools/compare_stdout.py into exit-2 comparisons
        tool = load_compare_stdout()
        commands = tool.read_commands(tool.DEFAULT_COMMANDS)
        assert commands
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        for argv in commands:
            assert parser.parse_args(argv).command == argv[0]

    def test_difference_report_counts_every_differing_line(self):
        first_difference = load_compare_stdout().first_difference
        assert (first_difference("a\nb\nc\nd\n", "a\nx\nc\ny\n")
                == "line 2: 'b' -> 'x' (2 of 4 lines differ)")
        assert (first_difference("a\nb\n", "a\nb\nc\nd\n")
                == "2 lines -> 4 lines (2 of 4 lines differ)")


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

    @pytest.mark.parametrize("family, blocks", [
        (["--example", "1", "--case", "a", "--k", "1", "--n-max", "3"], 4),
        (["--example", "2", "--case", "second", "--k", "4", "--epsilon", "30",
          "--n-max", "3"], 4),
        # blocks n = 30-36 hold roots whose forward null vectors miss the
        # residual target
        (["--example", "1", "--case", "b", "--k", "37", "--epsilon", "30",
          "--n-max", "40"], 19),
    ], ids=["family0", "family1", "family2"])
    def test_spectrum_loads_no_scipy_or_mpmath(self, family, blocks):
        # the solve path uses numpy's eigensolvers only, in double precision;
        # scipy serves the oracle, and mpmath only the extended-precision
        # recurrences of the tests and the benchmark's reference
        script = (
            "import sys\n"
            "from heun_spectra import cli\n"
            f"code = cli.main(['spectrum', *{family!r}])\n"
            "loaded = [m for m in ('scipy', 'mpmath') if m in sys.modules]\n"
            "print(code, loaded, file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=CHILD_ENV)
        assert proc.stderr == "0 []\n"
        report = json.loads(proc.stdout)
        assert len(report["blocks"]) == blocks
        assert report["precision_bits"] == 53

    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_verify_loads_no_mpmath_or_scipy_integrate(self, level):
        # the inertia certificate counts in Fractions, and the flux check
        # integrates with the norm quadrature
        script = (
            "import sys\n"
            "from heun_spectra import cli\n"
            f"code = cli.main(['verify', '--level', {level!r}])\n"
            "loaded = [m for m in ('mpmath', 'scipy.integrate') if m in sys.modules]\n"
            "print(code, loaded, file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=CHILD_ENV)
        assert proc.stderr.splitlines()[-1] == "0 []"
        roots = 40 if level == "quick" else 76
        assert (f"PASS inertia-certificate: {roots} of {roots} roots isolated by exact "
                "inertia, 16 of 16 block sets complete") in proc.stdout

    @pytest.mark.parametrize("argv, code", [
        (["spectrum", "--example", "1", "--case", "b", "--k", "3",
          "--epsilon", "1e308", "--n-max", "3"], 2),
        (["wavefunction", "--example", "1", "--case", "a", "--k", "1",
          "--epsilon", "1e300", "--n", "0"], 3),
        (["spectrum", "--example", "2", "--case", "second", "--k", "3",
          "--epsilon", "1e308", "--n-max", "3"], 3),
        # the twisted null vector overflows
        (["spectrum", "--example", "1", "--case", "a", "--k", "1",
          "--epsilon", "1e300", "--n-max", "3"], 3),
        # the forward run overflows to a nan residual, which used to pass
        (["spectrum", "--example", "1", "--case", "b", "--k", "7",
          "--epsilon", "1e300", "--n-max", "6"], 3),
        # an in-range degree whose state norm overflows at epsilon = 0
        (["wavefunction", "--example", "1", "--case", "a", "--k", "1",
          "--n", "150", "--samples", "3"], 3),
    ], ids=["spectrum-1b", "wavefunction-1a", "spectrum-2-second", "spectrum-1a",
            "spectrum-1b-nan", "wavefunction-1a-n150"])
    def test_overflowing_epsilon_exits_with_one_error_line(self, argv, code):
        # no traceback and no numpy warnings, in a fresh process
        proc = subprocess.run([sys.executable, "-m", "heun_spectra", *argv],
                              capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == code
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")
        if code == 2:
            assert "epsilon = 1e+308" in proc.stderr

    def test_missing_subcommand_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "heun_spectra"],
            capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 2
        assert "usage" in proc.stderr
