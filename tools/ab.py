"""In-process paired timing of the benchmark's ops on two checkouts.

    python tools/ab.py --against PATH [--workload W] [--rounds N] [--seed S]

Loads the package of this checkout and that of the checkout at PATH (a
directory holding ``src/heun_spectra``) side by side, under the package
names ``heun_spectra_this`` and ``heun_spectra_against``, and binds a copy of
this checkout's ``benchmarks/ops.py`` to each, so both trees run the
benchmark's own ops of workload W: ``states`` (the default), ``sweep`` or
``high-degree``.  The benchmark files are only read.

After one untimed pass, each round times the op list that
``benchmarks/workloads.py`` deals for pass ``round`` of the seed, op by op
on both trees, and alternates which tree goes first.  Every timed result is
checked against ``benchmarks/reference.json`` (untimed).  The script prints
each tree's median ms per op with its interquartile range, their ratio
(this over against), and the quartiles of the per-round ratio, each round's
summed ms of this over those of against; and it exits 1 when an op fails its
check.  A ratio whose per-round quartiles straddle 1 is not resolved from
host noise.  Pairing whole ops a few milliseconds apart in one process
takes the host's drift out of the ratio, which separate
``benchmarks/run.py`` runs leave in.  BLAS and OpenMP run one thread, as in
the benchmark.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import itertools
import json
import os
import statistics
import sys
import time
from typing import List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = os.path.join(ROOT, "benchmarks")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
OPS_IMPORTS = ("cli", "models", "oracle")  # what ops.py imports from the package


def load_package(root: str, name: str):
    """The package under root/src/heun_spectra, imported afresh as name."""
    for loaded in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[loaded]
    path = os.path.join(root, "src", "heun_spectra")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def load_ops(root: str, name: str):
    """benchmarks/ops.py of this checkout, bound to the package at root.

    ops.py imports ``heun_spectra`` by name, so that name and its modules
    point at the package under ``name`` while ops.py loads, and at what
    they were before once it has.
    """
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)  # ops.py imports checks and workloads
    package = load_package(root, f"heun_spectra_{name}")
    aliases = {"heun_spectra": package}
    for module in OPS_IMPORTS:
        aliases[f"heun_spectra.{module}"] = importlib.import_module(
            f"{package.__name__}.{module}")
    saved = {alias: sys.modules.get(alias) for alias in aliases}
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(
            f"ops_{name}", os.path.join(BENCH, "ops.py"))
        ops = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(ops)
    finally:
        for alias, module in saved.items():
            if module is None:
                del sys.modules[alias]
            else:
                sys.modules[alias] = module
    return ops


def paired_times(trees: Sequence, workload: str, passes: Sequence[Sequence],
                 reference: dict) -> Tuple[List[List[float]], int]:
    """Per-op ms of the two ops modules of trees over the workload's op
    lists of passes, after one untimed pass over the first list, and the
    number of timed results that fail their check."""
    for op in passes[0]:
        for ops in trees:
            ops.execute(workload, op)
    times: List[List[float]] = [[], []]
    failed = 0
    for round_, op_list in enumerate(passes):
        for i, op in enumerate(op_list):
            for t in (0, 1) if (round_ + i) % 2 == 0 else (1, 0):
                start = time.perf_counter()
                raw = trees[t].execute(workload, op)
                times[t].append(1e3 * (time.perf_counter() - start))
                failed += not trees[t].check(workload, op, raw, reference)[0]
    return times, failed


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """Lower quartile, median and upper quartile (one value is all three)."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report(this: Sequence[float], against: Sequence[float],
           round_sizes: Sequence[int]) -> List[str]:
    """The summary lines for the per-op ms of both trees, whose ops come in
    rounds of round_sizes ops."""
    lines = []
    for name, times in (("this:   ", this), ("against:", against)):
        q1, median, q3 = quartiles(times)
        lines.append(f"{name} {median:.3f} ms/op (median), IQR {q3 - q1:.3f} "
                     f"({q1:.3f} to {q3:.3f})")
    lines.append(f"ratio this/against: {statistics.median(this) / statistics.median(against):.3f}")
    ends = list(itertools.accumulate(round_sizes))
    ratios = [sum(this[lo:hi]) / sum(against[lo:hi]) for lo, hi in zip([0] + ends, ends)]
    lines.append("per-round ratio quartiles: " + " / ".join(
        f"{q:.3f}" for q in quartiles(ratios)) + f" ({len(ratios)} rounds)")
    return lines


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True,
                        help="root of the other checkout (holding src/heun_spectra)")
    parser.add_argument("--workload", choices=("states", "sweep", "high-degree"),
                        default="states")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if not os.path.isfile(os.path.join(args.against, "src", "heun_spectra", "__init__.py")):
        parser.error(f"no src/heun_spectra under {args.against}")
    os.environ.update({var: "1" for var in THREAD_VARS})
    trees = [load_ops(ROOT, "this"), load_ops(args.against, "against")]
    import workloads
    passes = [workloads.ops_for(args.workload, args.seed, i) for i in range(args.rounds)]
    with open(os.path.join(BENCH, "reference.json")) as f:
        reference = json.load(f)
    (this, against), failed = paired_times(trees, args.workload, passes, reference)
    print(f"{len(this)} {args.workload} ops per tree, {args.rounds} rounds, seed {args.seed}")
    print("\n".join(report(this, against, [len(ops) for ops in passes])))
    if failed:
        print(f"{failed} ops failed their check", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
