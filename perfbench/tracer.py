"""Layer spans recorded by wrapping spapt's public functions from outside.

The package carries no instrumentation, so the tracer replaces each wrapped
function in every loaded ``spapt`` module namespace, including copies made
by ``from .linalg import min_eigenvalue`` style imports, and puts the
originals back on :meth:`Tracer.uninstall`. Functions that do not exist in
the package under test are skipped, so the tracer survives their removal.

A span is ``(name, start, end, parent, op, n, error)``: ``parent`` is the
index of the enclosing span or -1, ``op`` the operation id, ``n`` the matrix
size for eigensolves (else 0) and ``error`` whether an exception left the
wrapped call. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer name -> (module, function) pairs that make up the layer
LAYERS = {
    "states.parse": [("spapt.states", "parse_state_file")],
    "states.realise": [("spapt.states", "to_density")],
    "states.validate": [("spapt.states", "as_density_matrix"), ("spapt.states", "convex_mix")],
    "ptranspose.partial_transpose": [("spapt.ptranspose", "partial_transpose")],
    "spa.spa_pt": [("spapt.spa", "spa_pt")],
    "spa.choi_matrix": [("spapt.spa", "choi_matrix")],
    "spa.weights": [("spapt.spa", "min_cp_parameter"), ("spapt.spa", "min_choi_psd_parameter")],
    "linalg.eigvalsh": [("spapt.linalg", "hermitian_eigenvalues")],
    "classify.decide_minima": [("spapt.classify", "decide_minima")],
    "tangle.three_tangle_pure": [("spapt.tangle", "three_tangle_pure")],
    "cli.report": [("spapt.cli", "build_report")],
    # cli.main's self time: argparse, file read, orchestration and render
    "cli.self": [("spapt.cli", "main")],
}
# Recorded by the cold-start child around `import spapt.cli`, not a wrapper.
IMPORT_LAYER = "process.import"
ALL_LAYERS = list(LAYERS) + [IMPORT_LAYER]
SIZED_LAYER = "linalg.eigvalsh"
SIZES = (8, 64)


def _matrix_size(args) -> int:
    shape = getattr(args[0], "shape", ()) if args else ()
    return int(shape[0]) if shape else 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span, such as the cold import."""
        self.spans.append((name, start, end, -1, self.op, 0, False))

    def _wrap(self, name: str, fn):
        sized = name == SIZED_LAYER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            error = False
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op,
                                   _matrix_size(args) if sized else 0, error)

        return traced

    def install(self) -> list[str]:
        """Wrap every resolvable layer function; return the ones wrapped."""
        wrapped = []
        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                try:
                    original = getattr(importlib.import_module(module_name), attr)
                except (ImportError, AttributeError):
                    continue
                wrapper = self._wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "spapt" or mod_name.startswith("spapt.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, original))
                wrapped.append(f"{module_name}.{attr}")
        return wrapped

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    Spans come from one thread and nest, so children never overlap and
    their durations add.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (name, start, end, *_), c in zip(spans, child)]


def layer_metrics(spans, ops: int, op_wall_s: float) -> dict[str, float]:
    """Per-layer calls, self time, share of op wall time and errors."""
    selfs = self_times(spans)
    out = {}
    for layer in ALL_LAYERS:
        mine = [(s, t) for s, t in zip(spans, selfs) if s[0] == layer]
        self_s = sum(t for _, t in mine)
        out[f"{layer}.calls_per_op"] = len(mine) / ops
        out[f"{layer}.self_ms_per_op"] = 1e3 * self_s / ops
        out[f"{layer}.share"] = self_s / op_wall_s
        out[f"{layer}.errors"] = sum(1 for s, _ in mine if s[6])
        if layer == SIZED_LAYER:
            for n in SIZES:
                out[f"{layer}.calls_per_op.n{n}"] = sum(1 for s, _ in mine if s[5] == n) / ops
    return out
