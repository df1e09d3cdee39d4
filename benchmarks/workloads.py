"""The benchmark's workloads: their input pools, seeded op lists and rationale.

Every input comes from a fixed pool whose reference answers are stored in
``reference.json`` (regenerate with
``PYTHONPATH=src python3 benchmarks/reference.py``).
The seed decides which pool entries a run uses, with which parameters, and
in which order.  Each pass of a run deals its inputs afresh from the seed,
and the pools are stratified by degree and family, so that runs with
different seeds do comparable amounts of work.

Seed-time facts behind the degree choices (measured on a 2-core Intel Xeon,
Python 3.11.7, numpy 2.4, scipy 1.17, mpmath 1.3):

* ``models.HIGH_DEGREE_THRESHOLD`` is 20: a block with n <= 20 starts on the
  double-precision companion path (0.1-10 ms), a block with n > 20 starts the
  precision ladder at 128-bit ``mpmath.polyroots``.  At n = 21 that costs
  0.4-0.9 s (model 1) and 3-6 s (model 2); model 1 takes 1.5-3 s at n = 30
  and 5.5-8.6 s at n = 40, model 2 takes 4.4-9 s at n = 24 and 11-17 s at
  n = 27.  Repeated timings of one block differ by up to 30% with host load.
* Model 2 at n = 30 raises ``mpmath.NoConvergence`` after 21-30 s for every
  family and epsilon tried (k = +-31; epsilon 15, 400, 900).  ``high-degree``
  keeps that block: it is a failed op at this commit, and the benchmark shows
  when a change makes it solvable.
* ``models.radial_norm`` integrates with ``quad``'s default absolute
  tolerance of 1.5e-8, so a state whose p_0 = 1 norm lies below about 1e-8
  gets a wrong norm, and its normalized profile with it.  At epsilon
  400-1600 the model-2 states with n <= 10 have norms of 1e-8 down to 1e-34.
  A ``states`` op must pass, so its model-2 slots use epsilon 60-150, where
  every state's norm is 4e-7 or more and the program's norms agree with the
  reference to 1e-10; the tiny-norm blocks form ``NORM_PROBE`` instead,
  whose worst relative norm error the traced ``states`` run reports as
  ``models.radial_norm.small_norm_err`` (0.49 at this commit).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

# ---------------------------------------------------------------------------
# pools

# (example, case, k, epsilon) per family; n_max values come from the seed.
SWEEP_POOL: Dict[str, List[Tuple[int, str, int, float]]] = {
    "1a": [(1, "a", k, e) for k, e in (
        (1, 1.5), (1, -2.0), (2, 0.5), (2, -2.75), (3, 2.25), (3, -0.5),
        (4, -1.0), (4, 1.0), (5, 3.0), (5, -1.5), (6, -0.25), (6, 2.0))],
    "1b": [(1, "b", k, e) for k, e in (
        (13, 0.5), (16, -1.0), (19, 2.0), (21, -2.5), (22, 1.25), (25, 0.0),
        (28, -0.75), (30, 2.5), (31, -2.0), (34, 1.0), (37, -1.25), (40, 0.75))],
    "2-second": [(2, "second", k, e) for k, e in (
        (10, 1600.0), (11, 400.0), (12, 900.0), (13, 150.0), (14, 1200.0),
        (15, 250.0), (16, 600.0), (17, 1600.0), (18, 100.0), (19, 900.0),
        (20, 400.0), (21, 1200.0))],
    "2-first": [(2, "first", k, e) for k, e in (
        (-10, 900.0), (-11, 150.0), (-12, 1600.0), (-13, 400.0), (-14, 250.0),
        (-15, 1200.0), (-16, 600.0), (-17, 100.0), (-18, 900.0), (-19, 400.0),
        (-20, 1600.0), (-21, 250.0))],
}
# Each pass gives every pool entry one query; these n_max multisets are dealt
# out by the seed.  For the first family n is fixed at -k-1 and n_max caps
# the number of l values instead.
SWEEP_N_MAX = {
    "1a": (14, 15, 16, 17, 18, 19, 20, 20, 19, 18, 17, 16),
    "1b": (14, 15, 16, 17, 18, 19, 20, 20, 19, 18, 17, 16),
    "2-second": (14, 15, 16, 17, 18, 19, 20, 20, 19, 18, 17, 16),
    "2-first": (1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3),
}
SWEEP_CSV_PER_FAMILY = 3  # of 12 queries per family, printed as CSV

def _mirror_pair(n: int, eps: float) -> List[Tuple[str, int, Optional[int], float]]:
    """The two model-2 blocks of degree n with identical sequences.

    The second family at k = n+1 (l = -n-1) and the first family at
    k = -(n+1), l = n+1 share every a_j, b_j and c_j and the same radial
    factor, so either costs the same work and gives the same answer.
    """
    return [("second", n + 1, None, eps), ("first", -(n + 1), n + 1, eps)]


# One op per slot per pass: (example, n) and the candidates
# (case, k, l or None, epsilon) the seed picks from.  Model-1 case a has
# l = n + 1 - k; model-2 "second" blocks have l = -n-1 and "first" blocks
# n = -k-1 with the l given.
Slots = List[Tuple[Tuple[int, int], List[Tuple[str, int, Optional[int], float]]]]

# Model 2 at n = 21 and 24 comes twice, at two epsilons, so that four ops of
# similar cost sit at the middle of a pass: one op of a few seconds varies by
# up to 30% with host load, and op_p50_ms would otherwise rest on two of them.
HIGH_DEGREE_SLOTS: Slots = [
    ((1, 21), [("a", 2, None, -1.0)]),
    ((1, 30), [("a", 3, None, 2.5)]),
    ((1, 40), [("a", 1, None, 0.25)]),
] + [((2, n), _mirror_pair(n, eps)) for n, eps in (
    (21, 400.0), (21, 900.0), (24, 1600.0), (24, 600.0), (30, 900.0))]

# States: blocks with n <= 10, one op per slot per pass.
STATES_SLOTS: Slots = [
    ((1, 2), [("a", 1, None, 1.0), ("a", 2, None, -1.5), ("a", 3, None, 2.5)]),
    ((1, 4), [("a", 1, None, -2.0), ("a", 3, None, 0.5), ("a", 5, None, 1.5)]),
    ((1, 6), [("a", 2, None, 2.0), ("a", 4, None, -0.5), ("a", 6, None, 0.0)]),
    ((1, 8), [("a", 1, None, -1.0), ("a", 3, None, 1.25), ("a", 5, None, -2.5)]),
    ((1, 10), [("a", 1, None, 1.5), ("a", 4, None, -1.0), ("a", 6, None, 2.0)]),
    ((1, 1), [("b", 4, None, 0.5), ("b", 6, None, -1.0), ("b", 8, None, 2.0)]),
    ((1, 4), [("b", 7, None, -0.5), ("b", 9, None, 1.5), ("b", 11, None, -2.0)]),
    ((1, 7), [("b", 10, None, 1.0), ("b", 12, None, -1.5), ("b", 14, None, 0.25)]),
] + [((2, n), _mirror_pair(n, eps)) for n, eps in (
    (1, 60.0), (2, 100.0), (4, 150.0), (5, 100.0), (7, 150.0), (8, 150.0), (10, 150.0))]
# Model-2 blocks whose states have norms below quad's absolute tolerance;
# not timed, only their norm error is reported (see the module docstring).
NORM_PROBE: Slots = [((2, n), _mirror_pair(n, eps)[:1]) for n, eps in (
    (1, 400.0), (2, 900.0), (4, 1600.0), (5, 600.0), (7, 900.0), (8, 400.0), (10, 1200.0))]
PROFILE_POINTS = 800
SAMPLE_INDICES = tuple(range(40, PROFILE_POINTS, 95))  # checked profile points
PROFILE_RHO_MAX = {1: 6.0, 2: 12.0}
# Oracle grids: fine enough that every pool level matches within ORACLE_TOL
# with at least a factor two to spare.
ORACLE_GRID = {1: (1e-3, 8.0, 6000), 2: (1e-3, 20.0, 8000)}
ORACLE_TOL = 1e-3
ORACLE_EXTRA_LEVELS = 3

# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "sweep",
        "tabulation through the CLI over families 1a/1b/2-first/2-second with "
        "n_max <= 20: the double-precision root path and the JSON/CSV "
        "emitters, never mpmath.polyroots or the wavefunction layers",
    ),
    Workload(
        "high-degree",
        "single blocks past the n = 20 cliff (model 1a n = 21/30/40, model 2 "
        "n = 21/24/30), where 128-bit mpmath.polyroots and the precision "
        "ladder do nearly all the work",
    ),
    Workload(
        "states",
        "blocks with n <= 10 whose bound states are normalized on an 800-point "
        "grid and cross-checked by the finite-difference oracle: radial_norm, "
        "radial_values and the oracle dominate, root finding is minor",
    ),
)}


@dataclass(frozen=True)
class Config:
    example: int
    case: str
    k: int
    epsilon: float

    def key(self) -> str:
        return f"{self.example}/{self.case}/{self.k}/{self.epsilon!r}"


@dataclass(frozen=True)
class SweepOp:
    config: Config
    n_max: int
    fmt: str

    def argv(self) -> List[str]:
        c = self.config
        return ["spectrum", "--example", str(c.example), "--case", c.case,
                "--k", str(c.k), "--epsilon", repr(c.epsilon),
                "--n-max", str(self.n_max), "--format", self.fmt]


@dataclass(frozen=True)
class BlockOp:
    config: Config
    n: int
    l: int

    def key(self) -> str:
        return block_key(self.config, self.n, self.l)


def block_key(config: Config, n: int, l: int) -> str:
    return f"{config.key()}/{n}/{l}"


def _block_op(example: int, n: int, case: str, k: int, l: Optional[int],
              eps: float) -> BlockOp:
    if l is None:
        l = {"a": n + 1 - k, "b": (k - n - 1) // 2, "second": -n - 1}[case]
    return BlockOp(Config(example, case, k, eps), n, l)


def sweep_ops(seed: int, index: int = 0) -> List[SweepOp]:
    rng = random.Random(f"sweep/{seed}/{index}")
    ops = []
    for family, pool in SWEEP_POOL.items():
        n_maxes = list(SWEEP_N_MAX[family])
        rng.shuffle(n_maxes)
        csv = set(rng.sample(range(len(pool)), SWEEP_CSV_PER_FAMILY))
        for i, (entry, n_max) in enumerate(zip(pool, n_maxes)):
            ops.append(SweepOp(Config(*entry), n_max, "csv" if i in csv else "json"))
    rng.shuffle(ops)
    return ops


def _slot_ops(name: str, slots: Slots, seed: int, index: int) -> List[BlockOp]:
    rng = random.Random(f"{name}/{seed}/{index}")
    ops = []
    for (example, n), candidates in slots:
        case, k, l, eps = rng.choice(candidates)
        ops.append(_block_op(example, n, case, k, l, eps))
    rng.shuffle(ops)
    return ops


def high_degree_ops(seed: int, index: int = 0) -> List[BlockOp]:
    return _slot_ops("high-degree", HIGH_DEGREE_SLOTS, seed, index)


def states_ops(seed: int, index: int = 0) -> List[BlockOp]:
    return _slot_ops("states", STATES_SLOTS, seed, index)


def ops_for(workload: str, seed: int, index: int = 0) -> list:
    """The op list of pass ``index`` of a run with this seed."""
    return {"sweep": sweep_ops, "high-degree": high_degree_ops,
            "states": states_ops}[workload](seed, index)


def all_block_ops(slots: Slots) -> List[BlockOp]:
    """Every candidate block of a slot table (the reference pool)."""
    return [_block_op(ex, n, case, k, l, eps)
            for (ex, n), cands in slots for case, k, l, eps in cands]
