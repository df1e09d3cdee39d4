"""Command-line interface: blocks, spectrum, wavefunction, verify.

All numeric output is printed with 17 significant digits ("%.17g"), which
round-trips binary64 exactly, and the emitters below are hand-rolled so the
byte stream is deterministic for identical flags.  Exit codes: 0 success,
2 parameter error, 3 precision failure, 4 selection error, 5 verification
failure.
"""

from __future__ import annotations

import argparse
import functools
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
    parser.add_argument("--epsilon", type=float, default=0.0, help="dimensionless field "
                        "parameter (default 0); write a negative value as --epsilon=-1e-05")


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
          "residual": %.17g,
          "coefficients": {}
        }}"""


@functools.cache
def _json_root_template(real: bool, physical: bool, degree: int) -> str:
    """The %-template of one root of the JSON report; it takes the root's
    numbers in the order of ``_numbers``."""
    coefficients = (
        "[\n            " + ",\n            ".join(["%.17g"] * (degree + 1))
        + "\n          ]"
    )
    return _JSON_ROOT.format(
        "%.17g" if real else "[%.17g, %.17g]",
        "%.17g" if real else "null",
        "true" if physical else "false",
        coefficients if physical else "null",
    )


# A root's CSV row after "n,l,sigma,", by whether it is real and physical.
_CSV_ROOT = {
    (True, True): "%.17g,%.17g,true,%.17g",
    (True, False): "%.17g,%.17g,false,%.17g",
    (False, False): "%.17g%+.17gj,,false,%.17g",
}


def _numbers(record: models.SpectrumRecord, vectors: bool) -> tuple:
    """The numbers of the report in printed order: for each root its value
    (the real part, then the energy of a real root or the imaginary part of
    another), its residual and, with vectors, a physical root's null vector."""
    head = np.stack([
        record.value.real,
        np.where(record.real, record.energy, record.value.imag),
        record.residual,
    ], axis=1)
    if not vectors:
        return tuple(head.ravel().tolist())
    degree = np.repeat([b.n for b in record.blocks], np.diff(record.bounds))
    width = np.where(record.physical, degree + 4, 3)
    table = np.concatenate([head, record.coeffs], axis=1)
    return tuple(table[np.arange(table.shape[1]) < width[:, None]].tolist())


def _json_list(items: Sequence[str], pad: str) -> str:
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + pad + "]"


def _json_report(config: ModelConfig, record: models.SpectrumRecord) -> str:
    """The spectrum report as JSON, two-space indented, floats as %.17g."""
    real, physical = record.real.tolist(), record.physical.tolist()
    blocks = [
        "    {\n"
        f'      "n": {b.n},\n'
        f'      "l": {b.l},\n'
        f'      "sigma": {b.sigma},\n'
        '      "roots": ' + _json_list(
            [_json_root_template(real[i], physical[i], b.n) for i in range(lo, hi)], "      "
        ) + "\n"
        "    }"
        for b, lo, hi in zip(record.blocks, record.bounds, record.bounds[1:])
    ]
    template = (
        "{\n"
        f'  "example": {int(config.example)},\n'
        f'  "case": {json.dumps(config.variant)},\n'
        f'  "k": {config.k},\n'
        f'  "epsilon": {_fmt(config.epsilon)},\n'
        f'  "blocks": {_json_list(blocks, "  ")},\n'
        f'  "filtered_root_count": {len(physical) - sum(physical)},\n'
        '  "precision_bits": 53\n'
        "}"
    )
    # one %-format call for every number; "%.17g" % x == _fmt(x)
    return template % _numbers(record, vectors=True)


def _csv_report(record: models.SpectrumRecord) -> str:
    real, physical = record.real.tolist(), record.physical.tolist()
    rows = [
        f"{b.n},{b.l},{b.sigma}," + _CSV_ROOT[real[i], physical[i]]
        for b, lo, hi in zip(record.blocks, record.bounds, record.bounds[1:])
        for i in range(lo, hi)
    ]
    template = "\n".join(["n,l,sigma,root,energy,physical,residual", *rows])
    return template % _numbers(record, vectors=False)


def cmd_spectrum(args: argparse.Namespace) -> int:
    config = _config_from(args)
    blocks = models.permissible_blocks(config, n_max=args.n_max)
    record = models.solve_record(config, blocks)
    print(_json_report(config, record) if args.format == "json" else _csv_report(record))
    return EXIT_OK


def cmd_wavefunction(args: argparse.Namespace) -> int:
    config = _config_from(args)
    if not 2 <= args.samples <= 10**6:
        raise ParameterError(f"--samples must be at {'least 2' if args.samples < 2 else 'most 10**6'}")
    if not (np.isfinite(args.rho_max) and args.rho_max > 0):
        raise ParameterError("--rho-max must be positive and finite")
    if not np.isfinite(args.phi):
        raise ParameterError("--phi must be finite")
    block = models.make_block(config, args.n, args.l)
    roots = models.solve_block(config, block).roots
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
    results = verification.run_checks(level=args.level, seed=args.seed)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing does not
    change it)."""
    parser = argparse.ArgumentParser(
        prog="heun-spectra",
        description="Bound-state spectra of two integrable planar magnetic systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    n_max_help = (f"degree budget, at most {models.MAX_DEGREE} "
                  "(block-count budget for example 2 first)")
    p_blocks = sub.add_parser("blocks", help="list permissible angular blocks")
    _add_config_flags(p_blocks)
    p_blocks.add_argument("--n-max", type=int, default=10, help=n_max_help)
    p_blocks.set_defaults(func=cmd_blocks)

    p_spec = sub.add_parser("spectrum", help="solve every block and print the roots")
    _add_config_flags(p_spec)
    p_spec.add_argument("--n-max", type=int, default=10, help=n_max_help)
    p_spec.add_argument("--format", choices=("json", "csv"), default="json")
    p_spec.set_defaults(func=cmd_spectrum)

    p_wf = sub.add_parser("wavefunction", help="sample one bound state on a radial grid")
    _add_config_flags(p_wf)
    p_wf.add_argument("--n", type=int, required=True,
                      help=f"block degree, at most {models.MAX_DEGREE}")
    p_wf.add_argument("--l", type=int, default=None,
                      help="angular number (needed when n does not fix the block)")
    p_wf.add_argument("--index", type=int, default=0,
                      help="root index within the block, ascending energy")
    p_wf.add_argument("--phi", type=float, default=0.0,
                      help="azimuthal angle of the ray (default 0); write a negative "
                      "value as --phi=-1e-05")
    p_wf.add_argument("--samples", type=int, default=500,
                      help="grid points, from 2 to 10**6 (default 500)")
    p_wf.add_argument("--rho-max", type=float, default=8.0)
    p_wf.add_argument("--normalize", action="store_true",
                      help="scale so the radial density integrates to 1")
    p_wf.set_defaults(func=cmd_wavefunction)

    p_ver = sub.add_parser("verify", help="run the self-check suite")
    p_ver.add_argument("--level", choices=("quick", "full"), default="quick")
    p_ver.add_argument("--seed", type=int, default=verification.DEFAULT_SEED)
    p_ver.set_defaults(func=cmd_verify)

    return parser


# The exit code of each error that ends a command with one "error:" line.
_EXIT_CODES = {ParameterError: EXIT_PARAMETER, PrecisionError: EXIT_PRECISION,
               SelectionError: EXIT_SELECTION}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES.items() if isinstance(exc, error))


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
