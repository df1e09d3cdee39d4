"""Compare two result sets of the benchmark, workload by workload.

    python3 benchmarks/compare.py PARENT_DIR CHANGE_DIR
    python3 benchmarks/compare.py --run PARENT_CHECKOUT CHANGE_CHECKOUT \
        [--seeds 10] [--seconds 10] [--trace 0] [--workload sweep ...]

A result set is a directory of ``result-<workload>-seed<n>-trace<t>.json``
records as ``run.py`` writes them to ``benchmarks/out/``.  Runs are paired
by workload, trace mode and seed, so both sides of a pair saw the same
inputs.  ``--run`` makes the pairs itself, alternating which checkout runs
first, and keeps the records under ``benchmarks/out/compare/``.

Verdict per workload and metric:

* improved: the change wins at least 9 of 10 pairs (ties count for
  neither) and its median beats the parent's by more than the parent's
  interquartile range;
* worse: the change's median is worse than the parent's by more than the
  metric's bound (from BENCHMARK.json), or, for a metric without a bound,
  the parent wins 9 of 10 pairs by more than the change's own spread;
* unresolved: the parent's own spread is wider than the bound, unless
  every change run beats every parent run;
* unchanged: anything else.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WIN_SHARE = 0.9
RECORD = re.compile(r"result-(.+)-seed(-?\d+)-trace([01])\.json$")


def iqr(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: List[float], change: List[float], better: str,
            bound: Optional[float]) -> str:
    """Verdict for paired runs (parent[i] and change[i] share inputs)."""
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    wins = sum(g > 0 for g in gains)
    losses = sum(g < 0 for g in gains)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    gap = sign * (c_med - p_med)
    if wins >= WIN_SHARE * len(gains) and gap > iqr(parent):
        return "improved"
    if bound is not None:
        if -gap > bound * abs(p_med):
            return "worse"
        if iqr(parent) > bound * abs(p_med):
            if min(sign * c for c in change) > max(sign * p for p in parent):
                return "improved"
            return "unresolved"
        return "unchanged"
    if losses >= WIN_SHARE * len(gains) and -gap > iqr(change):
        return "worse"
    return "unchanged"


def load(directory: str) -> Dict[Tuple[str, int, int], dict]:
    out = {}
    for path in glob.glob(os.path.join(directory, "result-*.json")):
        m = RECORD.search(os.path.basename(path))
        if m:
            with open(path) as fh:
                out[(m.group(1), int(m.group(2)), int(m.group(3)))] = json.load(fh)
    return out


def metric_specs() -> Dict[str, Tuple[str, Optional[float]]]:
    """name -> (better, bound) from BENCHMARK.json; per-layer metrics have no bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return out


def compare(parent: Dict, change: Dict) -> List[str]:
    specs = metric_specs()
    lines = []
    for workload, trace in sorted({(w, t) for w, _, t in parent}):
        seeds = sorted(s for w, s, t in parent
                       if w == workload and t == trace and (w, s, t) in change)
        if not seeds:
            continue
        p_runs = [parent[(workload, s, trace)] for s in seeds]
        c_runs = [change[(workload, s, trace)] for s in seeds]
        lines.append(f"== {workload} (trace {trace}, {len(seeds)} pairs) ==")
        for label, runs in (("parent", p_runs), ("change", c_runs)):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            lines.append(f"  {label} failed_ops_frac {failed / attempted:.4f} "
                         f"({failed}/{attempted} ops)")
        for name in p_runs[0]["metrics"]:
            if name not in c_runs[0]["metrics"] or name not in specs:
                continue
            better, bound = specs[name]
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            unit = p_runs[0]["metrics"][name]["unit"]
            lines.append(
                f"  {name:42s} {verdict(p, c, better, bound):10s} "
                f"parent {statistics.median(p):.6g} (IQR {iqr(p):.3g})  "
                f"change {statistics.median(c):.6g} (IQR {iqr(c):.3g}) {unit}")
    return lines


def run_pairs(parent_checkout: str, change_checkout: str, workloads: List[str],
              seeds: int, seconds: int, trace: int) -> Tuple[str, str]:
    """Run both checkouts alternately; returns the two record directories."""
    dirs = {}
    for side in ("parent", "change"):
        dirs[side] = os.path.join(HERE, "out", "compare", side)
        os.makedirs(dirs[side], exist_ok=True)
    checkouts = {"parent": parent_checkout, "change": change_checkout}
    for workload in workloads:
        for seed in range(seeds):
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            for side in order:
                cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
                proc = subprocess.run(cmd, cwd=checkouts[side], capture_output=True,
                                      text=True, timeout=900)
                if proc.returncode != 0:
                    raise RuntimeError(f"{side} {workload} seed {seed}: {proc.stderr}")
                name = f"result-{workload}-seed{seed}-trace{trace}.json"
                src = os.path.join(checkouts[side], "benchmarks", "out", name)
                with open(src) as fh, open(os.path.join(dirs[side], name), "w") as out:
                    out.write(fh.read())
                print(f"{side} {workload} seed {seed}: {proc.stdout.splitlines()[-1]}",
                      flush=True)
    return dirs["parent"], dirs["change"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--run", action="store_true",
                        help="treat the arguments as checkouts and run the pairs first")
    parser.add_argument("--workload", action="append",
                        choices=("sweep", "high-degree", "states"))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    parent_dir, change_dir = args.parent, args.change
    if args.run:
        parent_dir, change_dir = run_pairs(
            args.parent, args.change, args.workload or ["sweep", "high-degree", "states"],
            args.seeds, args.seconds, args.trace)
    print("\n".join(compare(load(parent_dir), load(change_dir))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
