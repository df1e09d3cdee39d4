"""Run one workload of the heun-spectra benchmark and print its metrics.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  The process is a closed loop with one thread: each op
starts when the previous one has returned, as a caller waiting for each
result would.  BLAS/OpenMP threads are pinned to 1 here and in every child
interpreter.

A run warms up, then executes whole passes until ``--seconds`` have
elapsed, each pass dealt afresh from the seed; a pass longer than that
(``high-degree``) runs once.  ``--trace 0`` reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced passes and reports
per-layer metrics, per traced pass; the spans go to ``benchmarks/out/``.
Every op is checked against ``reference.json``; the last line of stdout is
the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from typing import Callable, Dict, List, Tuple

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("sweep", "high-degree", "states")

# setup_s: a fresh interpreter answering the smallest CLI query
SETUP_ARGV = ["-m", "heun_spectra", "blocks", "--example", "1", "--case", "a",
              "--k", "1", "--n-max", "2"]
SETUP_STDOUT = ("example=1 case=a k=1 epsilon=0 n_max=2\nn l sigma\n"
                "0 0 +1\n1 1 +1\n2 2 +1\n3 blocks\n")
SETUP_REPEATS = 2  # before and again after the op loop
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 60

END_TO_END = {  # name: unit
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "spectral.find_roots.calls": "count",
    "spectral.find_roots.self_ms": "ms",
    "spectral.find_roots.max_err_all": "rel",
    "numpy.roots.calls": "count",
    "numpy.roots.self_ms": "ms",
    "mpmath.polyroots.calls": "count",
    "mpmath.polyroots.self_ms": "ms",
    "models.solve_block.calls": "count",
    "models.solve_block.self_ms": "ms",
    "models.solve_block.attempts_per_call": "ratio",
    "blocks_at_53": "count",
    "blocks_at_128": "count",
    "blocks_at_256": "count",
    "spectral.determinant_polynomial.calls": "count",
    "spectral.determinant_polynomial.self_ms": "ms",
    "spectral.determinant_numeric.calls": "count",
    "spectral.determinant_numeric.self_ms": "ms",
    "models.block_sequences.calls": "count",
    "models.block_sequences.self_ms": "ms",
    "spectral.null_vector.calls": "count",
    "spectral.null_vector.self_ms": "ms",
    "cli.main.calls": "count",
    "cli.main.self_ms": "ms",
    "models.radial_norm.calls": "count",
    "models.radial_norm.self_ms": "ms",
    "models.radial_values.calls": "count",
    "models.radial_values.self_ms": "ms",
    "models.radial_values.calls_per_state": "ratio",
    "models.radial_norm.small_norm_err": "rel",
    "oracle.radial_eigensolve.calls": "count",
    "oracle.radial_eigensolve.self_ms": "ms",
    "oracle.compare_spectra.calls": "count",
    "oracle.compare_spectra.self_ms": "ms",
    "import.heun_spectra_ms": "ms",
    "import.scipy_integrate_ms": "ms",
    "import.mpmath_ms": "ms",
    "untraced_ms": "ms",
    "trace.op_ms": "ms",
    "trace.overhead_frac": "ratio",
    "ops.count": "count",
    "op_p90_ms": "ms",
    "failed_ops_frac": "ratio",
    "max_err_physical": "rel",
}


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cold_cli(extra: List[str]) -> Tuple[float, bool, str]:
    """Wall time of one fresh interpreter running the setup query."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *extra, *SETUP_ARGV], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    seconds = time.perf_counter() - start
    ok = proc.returncode == 0 and proc.stdout == SETUP_STDOUT
    return seconds, ok, proc.stderr


def environment() -> Dict[str, str]:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        commit = proc.stdout.strip() or commit
    return {"cpu": cpu, "nproc": str(os.cpu_count()), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "commit": commit}


class Run:
    """Op loop state: latencies, failures, worst physical-energy error.

    An op fails when it raises, exits non-zero or returns a wrong answer;
    only the last kind, a silent failure, makes the run incorrect.
    """

    def __init__(self, workload: str, reference: dict) -> None:
        self.workload = workload
        self.reference = reference
        self.latencies: List[float] = []
        self.ops: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.worst_err = 0.0
        self.failures: List[str] = []

    def one(self, op, tracer=None) -> Tuple[float, bool]:
        """Run, time and check one op; returns (seconds, raised or exited non-zero)."""
        import ops

        span = tracer.begin(spans.OP_SPAN) if tracer is not None else None
        start = time.perf_counter()
        raw = ops.execute(self.workload, op)
        seconds = time.perf_counter() - start
        if span is not None:
            tracer.end(span)
        ok, err, detail = ops.check(self.workload, op, raw, self.reference)
        loud = isinstance(raw, Exception) or (self.workload == "sweep" and raw[0] != 0)
        self.attempted += 1
        if ok:
            self.worst_err = max(self.worst_err, err)
        else:
            self.failed += 1
            self.wrong += not loud
            if len(self.failures) < 10:
                self.failures.append(f"{op}: {detail}")
        return seconds, loud


def warm_up(run: Run, op_list: list) -> None:
    """Untimed: imports, first-call caches, and the 128-bit mpmath path."""
    if run.workload == "high-degree":
        from heun_spectra import models
        from heun_spectra.models import Example, ModelConfig

        for config in (ModelConfig(Example(1), "a", 1, 1.0),
                       ModelConfig(Example(2), "second", 3, 400.0)):
            models.solve_block(config, models.permissible_blocks(config, 2)[0],
                               precision=128)
        return
    for op in op_list[:3]:
        Run(run.workload, run.reference).one(op)


def percentile(values: List[float], q: float) -> float:
    """Linearly interpolated quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(run: Run, deal: Callable[[int], list], seconds: float) -> Dict[str, float]:
    start = time.perf_counter()
    passes = 0
    while True:
        for op in deal(passes):
            run.latencies.append(run.one(op)[0])
            run.ops.append(str(op))
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
    return {
        "ops_per_s": (run.attempted - run.failed) / sum(run.latencies),
        "op_p50_ms": 1000.0 * statistics.median(run.latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(run: Run, deal: Callable[[int], list], seconds: float,
           spans_path: str) -> Dict[str, float]:

    tracer = spans.Tracer()
    # (config, block, precision_bits, roots of the last find_roots call)
    solved: List[tuple] = []
    last_roots: List[object] = [None]

    def on_find_roots(args, kwargs, result) -> None:
        last_roots[0] = result

    def on_solve_block(args, kwargs, result) -> None:
        solved.append((args[0], args[1], result.precision_bits, last_roots[0]))

    hooks = {"spectral.find_roots": on_find_roots, "models.solve_block": on_solve_block}
    # Each traced pass is paired with an untraced pass of the same ops for the
    # overhead, alternating which goes first and skipping ops that raised:
    # they would add nothing but time.
    paired: List[Tuple[float, float]] = []
    raised: set = set()
    passes = 0
    states = 0
    start = time.perf_counter()

    def untraced_pass(op_list: list) -> Dict[int, float]:
        return {i: run.one(op)[0] for i, op in enumerate(op_list) if op not in raised}

    while True:
        op_list = deal(passes)
        plain_first = untraced_pass(op_list) if passes % 2 else None
        tracer.install(hooks)
        try:
            timed = [run.one(op, tracer) for op in op_list]
        finally:
            tracer.uninstall()
        raised.update(op for op, (_, loud) in zip(op_list, timed) if loud)
        plain_pass = plain_first if plain_first is not None else untraced_pass(op_list)
        paired.extend((timed[i][0], t) for i, t in plain_pass.items()
                      if op_list[i] not in raised)
        if run.workload == "states":
            states += sum(len(run.reference["blocks"][op.key()]["physical"])
                          for op in op_list)
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
    plain = [p for _, p in paired]
    tracer.dump(spans_path)

    per_pass = 1.0 / passes
    stats = spans.self_times(tracer.spans)
    metrics: Dict[str, float] = {}
    for _, _, name in spans.LAYERS:
        calls, self_s = stats.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls * per_pass
        metrics[f"{name}.self_ms"] = 1000.0 * self_s * per_pass
    solve_calls = metrics["models.solve_block.calls"]
    metrics["models.solve_block.attempts_per_call"] = (
        metrics["spectral.find_roots.calls"] / solve_calls if solve_calls else 0.0)
    for b in (53, 128, 256):
        metrics[f"blocks_at_{b}"] = sum(bits == b for _, _, bits, _ in solved) * per_pass
    metrics["models.radial_values.calls_per_state"] = (
        stats.get("models.radial_values", (0, 0.0))[0] / states if states else 0.0)
    roots_by_block = [
        (workloads.block_key(workloads.Config(int(c.example), c.variant, c.k, c.epsilon),
                             b.n, b.l), [complex(r) for r in rs.roots])
        for c, b, _, rs in solved if rs is not None]
    metrics["spectral.find_roots.max_err_all"] = checks.max_all_root_error(
        roots_by_block, run.reference["blocks"])
    metrics["untraced_ms"] = 1000.0 * stats.get(spans.OP_SPAN, (0, 0.0))[1] * per_pass
    metrics["trace.op_ms"] = 1000.0 * per_pass * sum(
        end - start for name, start, end, _ in tracer.spans if name == spans.OP_SPAN)
    metrics["trace.overhead_frac"] = (
        sum(t for t, _ in paired) / sum(plain) - 1.0 if plain else 0.0)
    metrics["ops.count"] = len(plain)
    metrics["op_p90_ms"] = 1000.0 * percentile(plain, 0.9)
    metrics["failed_ops_frac"] = run.failed / run.attempted
    metrics["max_err_physical"] = run.worst_err
    import ops

    metrics["models.radial_norm.small_norm_err"] = (
        ops.norm_probe_error(run.reference) if run.workload == "states" else 0.0)
    return metrics


def import_metrics() -> Tuple[Dict[str, float], bool]:
    samples: Dict[str, List[float]] = {"heun_spectra": [], "scipy.integrate": [], "mpmath": []}
    ok = True
    for _ in range(IMPORTTIME_REPEATS):
        _, good, stderr = cold_cli(["-X", "importtime"])
        ok &= good
        entries = spans.parse_importtime(stderr)
        for package in samples:
            samples[package].append(spans.import_ms(entries, package))
    return {f"import.{p.replace('.', '_')}_ms": statistics.median(v)
            for p, v in samples.items()}, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    reference_path = os.path.join(HERE, "reference.json")
    if not os.path.isfile(os.path.join(SRC, "heun_spectra", "__init__.py")):
        print(f"error: no program to benchmark at {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(reference_path):
        print(f"error: missing {reference_path}", file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, SRC)

    # cluster and borderline-root warnings would only flood stderr
    warnings.simplefilter("ignore")
    with open(reference_path) as fh:
        reference = json.load(fh)
    env = environment()

    # setup_s samples are split around the op loop, so a slow spell of the
    # host at one end of the run does not set the median
    setup = [] if args.trace else [cold_cli([]) for _ in range(SETUP_REPEATS)]

    def deal(index: int) -> list:
        return workloads.ops_for(args.workload, args.seed, index)

    run = Run(args.workload, reference)
    warm_up(run, deal(0))
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        metrics = traced(run, deal, args.seconds, os.path.join(OUT, f"spans-{stem}.json"))
        imports, setup_ok = import_metrics()
        metrics.update(imports)
        units = PER_LAYER
    else:
        metrics = end_to_end(run, deal, args.seconds)
        setup += [cold_cli([]) for _ in range(SETUP_REPEATS)]
        setup_ok = all(ok for _, ok, _ in setup)
        metrics["setup_s"] = statistics.median(s for s, _, _ in setup)
        units = END_TO_END

    result = {
        "correct": setup_ok and run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "failures": run.failures,
              "setup_ok": setup_ok, "ops": run.ops,
              "op_ms": [round(1000.0 * t, 3) for t in run.latencies], **result}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    for line in run.failures:
        print(f"failed op: {line}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
