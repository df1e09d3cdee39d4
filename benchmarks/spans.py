"""Spans around the program's layers, installed from outside the package.

``Tracer.install`` replaces module attributes (``heun_spectra.models.
solve_block`` and so on) with timing wrappers and ``Tracer.uninstall`` puts
the originals back; nothing under ``src/`` is edited.  Every caller that
looks the function up through its module at call time, which is how the
package calls its own layers, goes through the wrapper.  A target that is
missing, or never called, simply reports zero calls.

A span is ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span (-1 for none).  Times and parents live in ``array`` columns,
which the garbage collector never scans, so a long trace does not slow the
untraced passes that follow it.  Self time is a span's duration minus the
durations of its direct children; the benchmark wraps each op in a root span
named ``op`` whose self time is the op time no layer span covers.
"""

from __future__ import annotations

import importlib
import json
from array import array
import re
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

OP_SPAN = "op"

# (module, attribute, span name).  The span names are the metric prefixes.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("heun_spectra.cli", "main", "cli.main"),
    ("heun_spectra.models", "solve_block", "models.solve_block"),
    ("heun_spectra.models", "block_sequences", "models.block_sequences"),
    ("heun_spectra.spectral", "determinant_polynomial", "spectral.determinant_polynomial"),
    ("heun_spectra.spectral", "find_roots", "spectral.find_roots"),
    ("heun_spectra.spectral", "determinant_numeric", "spectral.determinant_numeric"),
    ("heun_spectra.spectral", "null_vector", "spectral.null_vector"),
    ("numpy", "roots", "numpy.roots"),
    ("mpmath", "polyroots", "mpmath.polyroots"),
    ("heun_spectra.models", "radial_norm", "models.radial_norm"),
    ("heun_spectra.models", "radial_values", "models.radial_values"),
    ("heun_spectra.oracle", "radial_eigensolve", "oracle.radial_eigensolve"),
    ("heun_spectra.oracle", "compare_spectra", "oracle.compare_spectra"),
)

Hook = Callable[[tuple, dict, object], None]


class Tracer:
    """In-memory span recorder with attribute-patching wrappers."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        self.names.append(name)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @property
    def spans(self) -> List[Tuple[str, float, float, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def wrap(self, module: str, attr: str, name: str,
             hook: Optional[Hook] = None) -> bool:
        """Patch ``module.attr`` with a span-recording wrapper.

        Returns False, and patches nothing, when the module or attribute does
        not exist.  ``hook(args, kwargs, result)`` runs after a successful
        call, outside the span.
        """
        try:
            mod = importlib.import_module(module)
        except ImportError:
            return False
        target = getattr(mod, attr, None)
        if not callable(target):
            return False
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = target(*args, **kwargs)
            finally:
                tracer.end(idx)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        setattr(mod, attr, wrapper)
        self._patched.append((mod, attr, target))
        return True

    def install(self, hooks: Optional[Dict[str, Hook]] = None) -> List[str]:
        """Wrap every entry of LAYERS; returns the span names installed."""
        hooks = hooks or {}
        return [name for module, attr, name in LAYERS
                if self.wrap(module, attr, name, hooks.get(name))]

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, target = self._patched.pop()
            setattr(mod, attr, target)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"name": self.names, "start": self.starts.tolist(),
                       "end": self.ends.tolist(), "parent": self.parents.tolist()}, fh)


def self_times(spans) -> Dict[str, Tuple[int, float]]:
    """Per span name: (calls, total self seconds)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Dict[str, list] = defaultdict(lambda: [0, 0.0])
    for i, (name, start, end, _) in enumerate(spans):
        out[name][0] += 1
        out[name][1] += (end - start) - child[i]
    return {k: (v[0], v[1]) for k, v in out.items()}


_IMPORT_LINE = re.compile(r"^import time:\s+\d+\s+\|\s+(\d+)\s+\|( +)(\S+)\s*$")


def parse_importtime(stderr: str) -> List[Tuple[int, str, float]]:
    """(nesting depth, module, cumulative ms) per line of ``-X importtime``."""
    out = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            out.append(((len(m.group(2)) - 1) // 2, m.group(3),
                        int(m.group(1)) / 1000.0))
    return out


def import_ms(entries: List[Tuple[int, str, float]], package: str) -> float:
    """Cumulative import ms of ``package``: its outermost entries summed.

    ``-X importtime`` prints a module after everything it imports, so read in
    reverse each line comes after its enclosing import.  Zero when the
    package was never imported (for example after it was made lazy).
    """
    total = 0.0
    stack: List[Tuple[int, bool]] = []
    for depth, name, ms in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        mine = name == package or name.startswith(package + ".")
        if mine and not any(inside for _, inside in stack):
            total += ms
        stack.append((depth, mine))
    return total
