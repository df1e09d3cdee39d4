"""Command-line interface: blocks, spectrum, wavefunction, verify.

All numeric output is printed with 17 significant digits ("%.17g"), which
round-trips binary64 exactly, and the emitters below are hand-rolled so the
byte stream is deterministic for identical flags.  Exit codes: 0 success,
2 parameter error, 3 precision failure, 4 selection error, 5 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

import numpy as np

from . import models, verification
from .errors import ParameterError, PrecisionError, SelectionError
from .models import Example, ModelConfig

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_PRECISION = 3
EXIT_SELECTION = 4
EXIT_VERIFICATION = 5


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _config_from(args: argparse.Namespace) -> ModelConfig:
    return ModelConfig(
        example=Example(args.example),
        variant=args.case,
        k=args.k,
        epsilon=args.epsilon,
    )


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--example", type=int, choices=(1, 2), required=True,
                        help="1: repulsive polynomial field; 2: non-rational field")
    parser.add_argument("--case", required=True,
                        choices=("a", "b", "first", "second"),
                        help="solvable family within the example")
    parser.add_argument("--k", type=int, required=True,
                        help="integer field-strength parameter")
    parser.add_argument("--epsilon", type=float, default=0.0,
                        help="dimensionless field parameter (default 0)")


def cmd_blocks(args: argparse.Namespace) -> int:
    config = _config_from(args)
    blocks = models.permissible_blocks(config, n_max=args.n_max)
    print(
        f"example={int(config.example)} case={config.variant} k={config.k} "
        f"epsilon={_fmt(config.epsilon)} n_max={args.n_max}"
    )
    print("n l sigma")
    for b in blocks:
        print(f"{b.n} {b.l} {'+1' if b.sigma > 0 else '-1'}")
    print(f"{len(blocks)} block{'s' if len(blocks) != 1 else ''}")
    return EXIT_OK


# One root of the JSON report, at the indentation of its place in it.
_JSON_ROOT = """        {{
          "value": {},
          "energy": {},
          "physical": {},
          "residual": {},
          "coefficients": {}
        }}"""


def _json_root(root: models.SpectralRoot) -> str:
    value = root.value
    if isinstance(value, complex) and value.imag != 0:
        value_text = f"[{_fmt(value.real)}, {_fmt(value.imag)}]"
    else:
        value_text = _fmt(value.real)
    if root.eigenvector is None:
        coeffs = "null"
    else:
        values = root.eigenvector.coeffs
        # one %-format call for all coefficients; "%.17g" % x == _fmt(x)
        coeffs = (
            "[\n            "
            + ",\n            ".join(["%.17g"] * len(values)) % tuple(values)
            + "\n          ]"
        )
    return _JSON_ROOT.format(
        value_text,
        "null" if root.energy is None else _fmt(root.energy),
        "true" if root.physical else "false",
        _fmt(root.residual),
        coeffs,
    )


def _json_list(items: Sequence[str], pad: str) -> str:
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + pad + "]"


def _json_report(config: ModelConfig, results: Sequence[models.BlockResult]) -> str:
    """The spectrum report as JSON, two-space indented, floats as %.17g."""
    blocks = [
        "    {\n"
        f'      "n": {res.block.n},\n'
        f'      "l": {res.block.l},\n'
        f'      "sigma": {res.block.sigma},\n'
        f'      "roots": {_json_list([_json_root(r) for r in res.roots], "      ")}\n'
        "    }"
        for res in results
    ]
    precision_bits = max((res.precision_bits for res in results), default=53)
    return (
        "{\n"
        f'  "example": {int(config.example)},\n'
        f'  "case": {json.dumps(config.variant)},\n'
        f'  "k": {config.k},\n'
        f'  "epsilon": {_fmt(config.epsilon)},\n'
        f'  "blocks": {_json_list(blocks, "  ")},\n'
        f'  "filtered_root_count": {sum(res.filtered_count for res in results)},\n'
        f'  "precision_bits": {precision_bits}\n'
        "}"
    )


def _csv_row(block: models.BlockSpec, r: models.SpectralRoot) -> str:
    if isinstance(r.value, complex) and r.value.imag != 0:
        root_cell = f"{_fmt(r.value.real)}{r.value.imag:+.17g}j"
    else:
        root_cell = _fmt(r.value.real)
    energy_cell = "" if r.energy is None else _fmt(r.energy)
    return (
        f"{block.n},{block.l},{block.sigma},{root_cell},{energy_cell},"
        f"{'true' if r.physical else 'false'},{_fmt(r.residual)}"
    )


def cmd_spectrum(args: argparse.Namespace) -> int:
    config = _config_from(args)
    blocks = models.permissible_blocks(config, n_max=args.n_max)
    results = models.solve_blocks(config, blocks)
    if args.format == "json":
        print(_json_report(config, results))
        return EXIT_OK
    rows = [_csv_row(res.block, r) for res in results for r in res.roots]
    print("\n".join(["n,l,sigma,root,energy,physical,residual", *rows]))
    return EXIT_OK


def cmd_wavefunction(args: argparse.Namespace) -> int:
    config = _config_from(args)
    block = models.make_block(config, args.n, args.l)
    roots = models.spectrum(config, block)
    if not (0 <= args.index < len(roots)):
        raise SelectionError(
            f"--index {args.index} out of range; block has {len(roots)} roots"
        )
    root = roots[args.index]
    if not root.physical:
        raise SelectionError(
            f"root #{args.index} (value {root.value!r}) is not physical; "
            "wavefunctions exist only for physical roots"
        )
    if args.samples < 2:
        raise ParameterError("--samples must be at least 2")
    if not args.rho_max > 0:
        raise ParameterError("--rho-max must be positive")
    grid = np.linspace(0.0, args.rho_max, args.samples)
    profile = models.radial_profile(
        config, block, root, grid, phi=args.phi, normalize=args.normalize
    )
    print("rho,re,im,abs2")
    for rho, val in zip(profile.grid, profile.values):
        print(
            f"{_fmt(rho)},{_fmt(val.real)},{_fmt(val.imag)},"
            f"{_fmt(abs(val) ** 2)}"
        )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = verification.run_checks(
        level=args.level, seed=args.seed, corrupt_check=args.corrupt_check
    )
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
        # wall times vary from run to run, so they stay off stdout
        print(f"{r.name}: {r.seconds:.2f} s", file=sys.stderr)
    if failed:
        print(f"verification failed: {', '.join(r.name for r in failed)}")
        return EXIT_VERIFICATION
    print(f"verification passed: {len(results)} checks")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heun-spectra",
        description="Bound-state spectra of two integrable planar magnetic systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_blocks = sub.add_parser("blocks", help="list permissible angular blocks")
    _add_config_flags(p_blocks)
    p_blocks.add_argument("--n-max", type=int, default=10,
                          help="degree budget (block-count budget for example 2 first)")
    p_blocks.set_defaults(func=cmd_blocks)

    p_spec = sub.add_parser("spectrum", help="solve every block and print the roots")
    _add_config_flags(p_spec)
    p_spec.add_argument("--n-max", type=int, default=10)
    p_spec.add_argument("--format", choices=("json", "csv"), default="json")
    p_spec.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility and ignored: blocks are "
                             "solved one after another")
    p_spec.set_defaults(func=cmd_spectrum)

    p_wf = sub.add_parser("wavefunction", help="sample one bound state on a radial grid")
    _add_config_flags(p_wf)
    p_wf.add_argument("--n", type=int, required=True, help="block degree")
    p_wf.add_argument("--l", type=int, default=None,
                      help="angular number (needed when n does not fix the block)")
    p_wf.add_argument("--index", type=int, default=0,
                      help="root index within the block, ascending energy")
    p_wf.add_argument("--phi", type=float, default=0.0)
    p_wf.add_argument("--samples", type=int, default=500)
    p_wf.add_argument("--rho-max", type=float, default=8.0)
    p_wf.add_argument("--normalize", action="store_true",
                      help="scale so the radial density integrates to 1")
    p_wf.set_defaults(func=cmd_wavefunction)

    p_ver = sub.add_parser("verify", help="run the self-check suite")
    p_ver.add_argument("--level", choices=("quick", "full"), default="quick")
    p_ver.add_argument("--seed", type=int, default=verification.DEFAULT_SEED)
    p_ver.add_argument("--corrupt-check", default=None, help=argparse.SUPPRESS)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except PrecisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except SelectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SELECTION


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
