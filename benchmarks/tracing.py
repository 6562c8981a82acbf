"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package: each public function a layer
exposes is replaced, for the length of a ``with install(...)`` block, by a
wrapper that records (name, start, end, parent, raised exception).  The
wrapper is installed under every name that refers to the original function in
any ``certitrack`` module, because some callers look a function up in its home
module at call time (the step loop reads ``certitrack.linalg.lu_factor_checked``
on every call) while others bound it at import time (``heuristic`` imports
``bordered_solve``, ``make_bordered`` and ``newton_projective`` by name).
Patching only the home module would make such a layer read as free.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from array import array

import numpy as np

# Span name -> (module, attribute) of the function it wraps.
LAYERS = {
    "tracker.track_path": ("certitrack.tracker", "track_path"),
    "tracker.track_linear": ("certitrack.tracker", "track_linear"),
    "tracker.make_linear_homotopy": ("certitrack.tracker", "make_linear_homotopy"),
    "linalg.lu_factor_checked": ("certitrack.linalg", "lu_factor_checked"),
    "linalg.lu_solve": ("certitrack.linalg", "lu_solve"),
    "linalg.make_bordered": ("certitrack.linalg", "make_bordered"),
    "linalg.bordered_solve": ("certitrack.linalg", "bordered_solve"),
    "numpy.linalg.svd": ("numpy.linalg", "svd"),
    "polysys.evaluate": ("certitrack.polysys", "evaluate"),
    "polysys.jacobian": ("certitrack.polysys", "jacobian"),
    "newton.newton_projective": ("certitrack.newton", "newton_projective"),
    "newton.refine": ("certitrack.newton", "refine"),
    "newton.condition_mu": ("certitrack.newton", "condition_mu"),
    "bw.riemann_distance": ("certitrack.bw", "riemann_distance"),
    "bw.normalize_to_sphere": ("certitrack.bw", "normalize_to_sphere"),
    "bw.unitary_compose": ("certitrack.bw", "unitary_compose"),
    "heuristic.track_heuristic": ("certitrack.heuristic", "track_heuristic"),
    "heuristic.predict": ("certitrack.heuristic", "predict"),
    "heuristic.correct": ("certitrack.heuristic", "correct"),
    "start_systems.solve_all_total_degree": ("certitrack.start_systems", "solve_all_total_degree"),
    "start_systems.total_degree_start": ("certitrack.start_systems", "total_degree_start"),
    "start_systems.random_initial_pair": ("certitrack.start_systems", "random_initial_pair"),
}

# Spans whose descendants form the certified step loop.
TRACKER_SPANS = ("tracker.track_path", "tracker.track_linear")
EMPTY = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": 0,
         "loop_calls": 0, "loop_self_s": 0.0, "under_refine": 0}


class Tracer:
    """Spans in parallel arrays: name id, start, end, parent index (-1 for a
    root), and the id of the exception it raised (0 for none)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.error = array("i")
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.error.append(0)
        self._stack.append(idx)
        return idx

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. one per work item."""
        idx = self._open(self._id(name))
        self.start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        name_id = self._id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self.error[idx] = self._id("!" + type(exc).__name__)
                raise
            finally:
                self.end[idx] = clock()
                self.start[idx] = t0
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def __len__(self) -> int:
        return len(self.name)

    def dump(self, path) -> None:
        """Write every span as compressed NumPy columns; name and error are
        indices into ``names``."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{col: np.frombuffer(getattr(self, col), dtype=getattr(self, col).typecode)
               for col in ("name", "start", "end", "parent", "error")},
        )


@contextlib.contextmanager
def install(tracer: Tracer):
    """Replace every binding of each layer function in the loaded certitrack
    modules (and numpy.linalg.svd) by a tracing wrapper; restore on exit."""
    patched = []
    try:
        for name, (module_name, attr) in LAYERS.items():
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = tracer.wrap(name, original)
            for mod in _binding_modules(module_name):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        patched.append((mod, key, original))
        yield
    finally:
        for mod, key, original in reversed(patched):
            setattr(mod, key, original)


def _binding_modules(home: str):
    if not home.startswith("certitrack"):
        return [sys.modules[home]]
    return [m for k, m in list(sys.modules.items()) if k == "certitrack" or k.startswith("certitrack.")]


def summarize(tracer: Tracer, roots) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, calls that raised, and the
    same restricted to the step loop (descendants of a tracker span), over the
    spans that descend from one of the given root span indices."""
    n = len(tracer)
    name, start, end, parent, error = tracer.name, tracer.start, tracer.end, tracer.parent, tracer.error
    names = tracer.names
    tracker_ids = {tracer._name_ids[s] for s in TRACKER_SPANS if s in tracer._name_ids}
    root_set = set(roots)
    inside = bytearray(n)  # span descends from a selected root
    in_loop = bytearray(n)  # span descends from a tracker span
    child_time = [0.0] * n
    for i in range(n):
        p = parent[i]
        if i in root_set:
            inside[i] = 1
        elif p >= 0:
            inside[i] = inside[p]
            in_loop[i] = in_loop[p] or (name[p] in tracker_ids)
            child_time[p] += end[i] - start[i]
    stats: dict[str, dict[str, float]] = {}
    for i in range(n):
        if not inside[i] or i in root_set:
            continue
        s = stats.setdefault(names[name[i]], dict(EMPTY))
        dur = end[i] - start[i]
        self_s = dur - child_time[i]
        s["calls"] += 1
        s["total_s"] += dur
        s["self_s"] += self_s
        if error[i]:
            s["raised"] += 1
        if in_loop[i]:
            s["loop_calls"] += 1
            s["loop_self_s"] += self_s
        p = parent[i]
        if p >= 0 and names[name[p]] == "newton.refine":
            s["under_refine"] += 1
    return stats


def root_coverage(tracer: Tracer, roots) -> tuple[float, float]:
    """(wall seconds of the root spans, seconds of it covered by their direct
    children, i.e. by some named layer)."""
    root_set = set(roots)
    wall = sum(tracer.end[r] - tracer.start[r] for r in roots)
    covered = 0.0
    for i in range(len(tracer)):
        if tracer.parent[i] in root_set:
            covered += tracer.end[i] - tracer.start[i]
    return wall, covered
