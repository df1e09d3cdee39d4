"""The solvable families: model configurations, angular blocks and the
quantization rules that say which (n, l, sigma) each family admits.

The rules are integer arithmetic, so this module imports only the standard
library and ``errors``: the CLI lists blocks and rejects bad configurations
without loading numpy or the solver.  ``models`` re-exports the public names.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import IntEnum
from typing import List, Optional, Tuple

from .errors import ParameterError, SelectionError, require_integer

# Largest block degree and n_max.  A query's ragged arrays hold rows x roots
# entries, so its memory grows as n_max^3: at this bound the worst query
# (201 model 2 blocks of degree 200, ``spectrum --example 2 --case second
# --k 201 --epsilon 5000 --n-max 200``) peaks at 974 MB of RSS at commit
# d37d274, measured in a child process under a 4 GB address-space cap.
MAX_DEGREE = 200


class Example(IntEnum):
    """The two solvable field configurations."""

    REPULSIVE_POLYNOMIAL = 1
    NONRATIONAL = 2


VARIANTS = {
    Example.REPULSIVE_POLYNOMIAL: ("a", "b"),
    Example.NONRATIONAL: ("first", "second"),
}


@dataclass(frozen=True)
class ModelConfig:
    """A fully specified model: example, variant, integer k, real epsilon."""

    example: Example
    variant: str
    k: int
    epsilon: float

    def __post_init__(self) -> None:
        try:
            example = Example(self.example)
        except ValueError:
            raise ParameterError("example must be 1 or 2") from None
        object.__setattr__(self, "example", example)
        if self.variant not in VARIANTS[example]:
            allowed = ", ".join(VARIANTS[example])
            raise ParameterError(
                f"example {int(example)} admits cases {allowed}, not {self.variant!r}"
            )
        object.__setattr__(self, "k", require_integer(self.k, "k must be an integer"))
        # keeps the closed forms' int64 products below 2**63
        if abs(self.k) >= 2**31:
            raise ParameterError("k must satisfy |k| < 2**31")
        real = isinstance(self.epsilon, numbers.Real) and not isinstance(self.epsilon, bool)
        try:
            epsilon = float(self.epsilon) if real else math.nan
        except OverflowError:  # an int or a Fraction past the float range
            epsilon = math.inf
        if not math.isfinite(epsilon):
            raise ParameterError("epsilon must be a finite real number")
        object.__setattr__(self, "epsilon", epsilon)
        if example is Example.REPULSIVE_POLYNOMIAL:
            if self.variant == "b" and self.k < 1:
                raise ParameterError(
                    "case b requires k >= 1 (2l = k - n - 1 must be non-negative)"
                )
        else:
            if self.variant == "first" and self.k > -1:
                raise ParameterError(
                    "the first non-rational family requires k <= -1 (n = -k - 1 >= 0)"
                )
            if self.variant == "second" and self.k < 1:
                raise ParameterError(
                    "the second non-rational family requires k >= 1 (it has k blocks)"
                )


@dataclass(frozen=True)
class BlockSpec:
    """One solvable angular block: polynomial degree n (0 to MAX_DEGREE),
    angular number l.  n, l and sigma are ints or numpy integers (not
    bools), stored as ints.

    sigma is the sign carried by the angular factor exp(i sigma |l| phi); the
    radial equation sees sigma |l|.  For model 2 the stored l is signed and
    always equals sigma |l|.
    """

    n: int
    l: int
    sigma: int

    def __post_init__(self) -> None:
        for name, message in (("n", "block degree n must be an integer"),
                              ("l", "l must be an integer"),
                              ("sigma", "sigma must be +1 or -1")):
            object.__setattr__(self, name, require_integer(getattr(self, name), message))
        if self.n < 0:
            raise ParameterError("block degree n must be non-negative")
        if self.n > MAX_DEGREE:
            raise ParameterError(f"block degree n must be at most {MAX_DEGREE}")
        if self.sigma not in (-1, +1):
            raise ParameterError("sigma must be +1 or -1")
        # keeps the closed forms' int64 products below 2**63, as for k
        if abs(self.l) >= 2**31:
            raise ParameterError("l must satisfy |l| < 2**31")

    @property
    def angular_momentum(self) -> int:
        return self.sigma * abs(self.l)


# ---------------------------------------------------------------------------
# block enumeration


# Each family's quantization rule: the pattern of (n, l, sigma) for which a
# degree-n Heun polynomial exists.  ``_family_block`` states it in code.
_RULES = {
    "a": "l = n + 1 - k >= 0 and sigma = +1",
    "b": "2l = k - n - 1 a non-negative even integer and sigma = -1",
    "first": "n = -k - 1, l >= -k and sigma = +1",
    "second": "l = -n - 1 with 0 <= n <= k - 1 and sigma = -1",
}


def _family_block(
    config: ModelConfig, n: int, l: Optional[int] = None
) -> Optional[Tuple[int, int, int]]:
    """(n, l, sigma) of the family's block of degree n (of angular number l
    for ``first``), or None when the rule in ``_RULES`` admits none."""
    k = config.k
    if config.variant == "a":
        ok, l, sigma = n >= k - 1, n + 1 - k, +1
    elif config.variant == "b":
        ok, l, sigma = n <= k - 1 and (k - n - 1) % 2 == 0, (k - n - 1) // 2, -1
    elif config.variant == "first":
        ok, sigma = n == -k - 1 and l is not None and l >= -k, +1
    else:
        ok, l, sigma = n <= k - 1, -n - 1, -1
    return (n, l, sigma) if ok else None


def permissible_blocks(config: ModelConfig, n_max: int = 10) -> List[BlockSpec]:
    """Every solvable block of the configuration with degree budget n_max
    (0 to MAX_DEGREE).

    For model 2's first family n is fixed at -k-1 and n_max instead caps the
    number of emitted l values (n_max + 1 blocks); the second family's
    blocks come in descending n.
    """
    n_max = require_integer(n_max, "n_max must be an integer")
    if n_max < 0:
        raise ParameterError("n_max must be non-negative")
    if n_max > MAX_DEGREE:
        raise ParameterError(f"n_max must be at most {MAX_DEGREE}")
    k = config.k
    if config.variant == "first":
        return [BlockSpec(*_family_block(config, -k - 1, l))
                for l in range(-k, -k + n_max + 1)]
    # no block of b or second passes degree k - 1, so the scan stops there
    top = n_max if config.variant == "a" else min(n_max, k - 1)
    ns = range(top, -1, -1) if config.variant == "second" else range(top + 1)
    return [BlockSpec(*block) for block in (_family_block(config, n) for n in ns) if block]


def make_block(config: ModelConfig, n: int, l: Optional[int] = None) -> BlockSpec:
    """Construct the block selected by degree n (and l where n is degenerate).

    Raises SelectionError when no permissible block matches, so callers can
    distinguish bad selections from bad configurations; a negative n is a
    bad input (ParameterError), as is an n or l that is not an integer.
    """
    n = require_integer(n, "block degree n must be an integer")
    if l is not None:
        l = require_integer(l, "l must be an integer")
    if n < 0:
        raise ParameterError("block degree n must be non-negative")
    if config.variant == "first" and l is None:
        raise SelectionError("the first family needs l (n is fixed at -k-1)")
    found = _family_block(config, n, l)
    block = BlockSpec(*found) if found else None
    if block is None or (l is not None and block.l != l):
        selected = f"n = {n}" if l is None else f"n = {n}, l = {l}"
        raise SelectionError(
            f"no block with {selected}: case {config.variant} "
            f"requires {_RULES[config.variant]}"
        )
    return block
