"""Run a list of heun-spectra commands against two checkouts and diff them.

    python tools/compare_stdout.py BEFORE AFTER [--commands FILE]
    python tools/compare_stdout.py --check CHECKOUT [--commands FILE]

BEFORE and AFTER are checkout roots (directories holding ``src/``).  Each
line of the command file is one argument list for ``heun-spectra`` (blank
lines and ``#`` comments are skipped); the default file,
``stdout_commands.txt`` next to this script, holds the command set used to
check that a change keeps stdout byte-identical.  For every command the
script compares stdout, stderr and the exit code and reports each
difference, a stream by its first differing line and the number of lines
that differ (line i of one output against line i of the other); it exits 1
when there is one.

Each checkout runs all commands in one child interpreter through
``heun_spectra.cli.main``, with the warning filters reset per command so
that each command prints the warnings a fresh process would print.  In
stderr the checkout's own ``src`` path is replaced by ``<src>``, so warning
locations compare by file and line, and the per-check wall times that
``verify`` prints (``name: 0.33 s``) read ``name: <t> s``, so that timing
noise is not reported as a difference.

``--check`` runs every command of one checkout twice in this interpreter,
with mpmath and all of scipy blocked, as no command needs them.  It reports
each command that ends with an exit code outside 0/2/3/4/5, prints a
traceback or a leaked numpy warning ("... encountered in ...") on stderr,
or whose second pass differs from its first in stdout, stderr (verify's
wall times masked) or exit code, and exits 1 when there is one: output is
byte-identical for the same flags, cached parsers and per-command warning
filters included.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import traceback
import warnings
from itertools import zip_longest
from typing import List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_COMMANDS = os.path.join(HERE, "stdout_commands.txt")

Outcome = Tuple[str, str, int]  # stdout, stderr, exit code

VERIFY_TIME = re.compile(r"^([\w-]+): \d+\.\d+ s$", re.MULTILINE)


def mask_times(err: str) -> str:
    return VERIFY_TIME.sub(r"\1: <t> s", err)


def read_commands(path: str) -> List[List[str]]:
    with open(path) as fh:
        lines = [line.split("#", 1)[0].split() for line in fh]
    return [argv for argv in lines if argv]


def run_in_process(commands: List[List[str]]) -> List[Outcome]:
    """Every command through ``cli.main`` in this interpreter."""
    from heun_spectra import cli

    outcomes = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error ends a real process with 1
                traceback.print_exc()
                code = 1
        outcomes.append((out.getvalue(), err.getvalue(), code))
    return outcomes


def run_checkout(root: str, commands_path: str) -> List[Outcome]:
    src = os.path.join(os.path.abspath(root), "src")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", commands_path],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        check=True)
    return [(out, mask_times(err.replace(src, "<src>")), code)
            for out, err, code in json.loads(proc.stdout)]


def check(root: str, commands_path: str) -> int:
    """``--check``: every command of the checkout twice, in this process."""
    sys.modules["mpmath"] = sys.modules["scipy"] = None
    sys.path.insert(0, os.path.join(os.path.abspath(root), "src"))
    commands = read_commands(commands_path)
    passes = [[(out, mask_times(err), code) for out, err, code in run_in_process(commands)]
              for _ in range(2)]
    bad = [(code, " ".join(argv)) for argv, (_, err, code) in zip(commands, passes[0])
           if code not in (0, 2, 3, 4, 5) or "Traceback" in err or "encountered in" in err]
    drift = [" ".join(argv) for argv, first, second in zip(commands, *passes)
             if first != second]
    for code, command in bad:
        print(f"exit {code}: {command}")
    for command in drift:
        print(f"second pass differs: {command}")
    print(f"{len(commands)} commands, {len(bad)} without a documented exit code, "
          f"{len(drift)} whose second pass differs")
    return 1 if bad or drift else 0


def first_difference(a: str, b: str) -> str:
    la, lb = a.splitlines(), b.splitlines()
    differing = [i for i, (x, y) in enumerate(zip_longest(la, lb)) if x != y]
    count = f"{len(differing)} of {max(len(la), len(lb))} lines differ"
    if differing and differing[0] < min(len(la), len(lb)):
        i = differing[0]
        return f"line {i + 1}: {la[i]!r} -> {lb[i]!r} ({count})"
    return f"{len(la)} lines -> {len(lb)} lines ({count})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", nargs="?")
    parser.add_argument("after", nargs="?")
    parser.add_argument("--commands", default=DEFAULT_COMMANDS)
    parser.add_argument("--check", metavar="CHECKOUT",
                        help="run every command of one checkout twice instead")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        json.dump(run_in_process(read_commands(args.child)), sys.stdout)
        return 0
    if args.check:
        return check(args.check, args.commands)
    if not (args.before and args.after):
        parser.error("BEFORE and AFTER checkouts are required")
    commands = read_commands(args.commands)
    before = run_checkout(args.before, args.commands)
    after = run_checkout(args.after, args.commands)
    counts = {"stdout": 0, "stderr": 0, "exit code": 0}
    for argv, old, new in zip(commands, before, after):
        diffs = {}
        for index, stream in enumerate(("stdout", "stderr")):
            if old[index] != new[index]:
                diffs[stream] = first_difference(old[index], new[index])
        if old[2] != new[2]:
            diffs["exit code"] = f"{old[2]} -> {new[2]}"
        if diffs:
            print(" ".join(argv))
            for stream, text in diffs.items():
                counts[stream] += 1
                print(f"  {stream} {text}")
    exits = [code for _, _, code in after]
    tally = ", ".join(f"{exits.count(c)} exit {c}" for c in sorted(set(exits)))
    print(f"{len(commands)} commands ({tally}); differing stdout "
          f"{counts['stdout']}, stderr {counts['stderr']}, "
          f"exit code {counts['exit code']}")
    return 1 if any(counts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
