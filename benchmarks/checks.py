"""Checks of the program's outputs against the stored reference.

Each check returns ``(ok, worst_error, detail)``.  ``worst_error`` is the
largest relative error of a physical energy, |E - E_ref| / max(1, |E_ref|);
an op passes only if the physical-root count matches the reference in every
block and every energy is within ``ENERGY_TOL``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Dict, List, Sequence, Tuple

ENERGY_TOL = 1e-9
# quad's default tolerance is 1.5e-8 relative; the norm must hold to 1e-7
NORM_TOL = 1e-7
# normalized profile samples, relative to the state's peak amplitude
SAMPLE_TOL = 1e-7

Result = Tuple[bool, float, str]


def energy(example: int, value: float) -> float:
    return value if example == 1 else -value * value


def rel_error(got: float, ref: float) -> float:
    return abs(got - ref) / max(1.0, abs(ref))


def compare_energies(got: Sequence[float], ref: Sequence[float], where: str) -> Result:
    if len(got) != len(ref):
        return False, math.inf, f"{where}: {len(got)} physical roots, reference has {len(ref)}"
    worst = max((rel_error(g, r) for g, r in zip(got, ref)), default=0.0)
    if not worst <= ENERGY_TOL:
        return False, worst, f"{where}: energy error {worst:.2e} > {ENERGY_TOL:.0e}"
    return True, worst, ""


def expected_sweep_blocks(blocks: List[list], case: str, n_max: int) -> List[list]:
    """Reference blocks of a query: stored up to the pool's largest n_max."""
    if case == "first":
        return blocks[: n_max + 1]
    return [b for b in blocks if b[0] <= n_max]


def _parse_json(text: str) -> List[Tuple[Tuple[int, int, int], List[float]]]:
    report = json.loads(text)
    return [((b["n"], b["l"], b["sigma"]),
             [r["energy"] for r in b["roots"] if r["physical"]])
            for b in report["blocks"]]


def _parse_csv(text: str) -> List[Tuple[Tuple[int, int, int], List[float]]]:
    rows = csv.DictReader(io.StringIO(text))
    out: List[Tuple[Tuple[int, int, int], List[float]]] = []
    for row in rows:
        key = (int(row["n"]), int(row["l"]), int(row["sigma"]))
        if not out or out[-1][0] != key:
            out.append((key, []))
        if row["physical"] == "true":
            out[-1][1].append(float(row["energy"]))
    return out


def check_sweep(example: int, case: str, n_max: int, fmt: str, code: int,
                stdout: str, ref_blocks: List[list]) -> Result:
    """A ``spectrum`` query: exit code, block list and physical energies.

    CSV omits blocks without roots, which no permissible block is.
    """
    if code != 0:
        return False, math.inf, f"exit code {code}"
    try:
        got = _parse_json(stdout) if fmt == "json" else _parse_csv(stdout)
    except (ValueError, KeyError) as exc:
        return False, math.inf, f"unparsable {fmt} output: {exc}"
    want = expected_sweep_blocks(ref_blocks, case, n_max)
    if [g[0] for g in got] != [tuple(w[:3]) for w in want]:
        return False, math.inf, "block list differs from the reference"
    worst = 0.0
    for (key, energies), ref in zip(got, want):
        ok, err, detail = compare_energies(
            energies, [energy(example, v) for v in ref[3]], f"block {key}")
        if not ok:
            return False, err, detail
        worst = max(worst, err)
    return True, worst, ""


def check_block(example: int, roots: Sequence, ref: Dict) -> Result:
    """A solved block's physical roots (``SpectralRoot`` objects)."""
    got = [r.energy for r in roots if r.physical]
    return compare_energies(got, [energy(example, v) for v in ref["physical"]],
                            f"block {tuple(ref['block'])}")


def check_state(norm: float, values: Sequence[complex], ref_state: Dict,
                sample_indices: Sequence[int]) -> Result:
    """A normalized profile: its norm and its samples at fixed grid points.

    The error returned is the norm's relative error.
    """
    norm_err = abs(norm - ref_state["norm"]) / ref_state["norm"]
    if not norm_err <= NORM_TOL:
        return False, norm_err, f"norm error {norm_err:.2e} > {NORM_TOL:.0e}"
    peak = ref_state["peak"]
    for i, want in zip(sample_indices, ref_state["samples"]):
        if not abs(values[i] - want) <= SAMPLE_TOL * peak:
            return False, norm_err, f"profile sample {i} is {values[i]!r}, reference {want!r}"
    return True, norm_err, ""


def max_root_error(got: Sequence[complex], ref: Sequence[complex]) -> float:
    """Worst |r - r_ref| / max(1, |r_ref|) under greedy nearest matching.

    Covers every root, unphysical ones included; a missing root is infinite.
    """
    if len(got) != len(ref):
        return math.inf
    pool = list(ref)
    worst = 0.0
    for r in sorted(got, key=lambda z: -abs(z)):
        i = min(range(len(pool)), key=lambda j: abs(pool[j] - r))
        worst = max(worst, abs(pool[i] - r) / max(1.0, abs(pool[i])))
        pool.pop(i)
    return worst


def max_all_root_error(entries: List[Tuple[str, List[complex]]], blocks: Dict) -> float:
    """Worst error over every root of (block key, roots) pairs with a reference."""
    worst = 0.0
    for key, roots in entries:
        ref = blocks.get(key)
        if ref is not None:
            worst = max(worst, max_root_error(
                roots, [complex(re, im) for re, im in ref["roots"]]))
    return worst
