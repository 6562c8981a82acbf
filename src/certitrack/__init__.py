"""Certified homotopy continuation for square complex polynomial systems.

The package re-exports what the command line and the benchmarks use; the
rest of the API lives in its modules (polysys, bw, linalg, newton, tracker,
start_systems, heuristic, experiments).
"""

from . import experiments, heuristic, newton, start_systems, tracker
from .bw import normalize_to_sphere, riemann_distance
from .experiments import (
    katsura_system, match_roots, run_bench, run_conjecture, run_entropy, run_solve,
)
from .heuristic import HeuristicOptions
from .linalg import SingularLinearSolveError
from .newton import certified_radius, refine
from .polysys import homogenize, parse_system_json
from .start_systems import random_system_on_sphere, total_degree_start
from .tracker import TrackerOptions, track_path, write_trace_csv

__all__ = [
    "HeuristicOptions",
    "SingularLinearSolveError",
    "TrackerOptions",
    "certified_radius",
    "experiments",
    "heuristic",
    "homogenize",
    "katsura_system",
    "match_roots",
    "newton",
    "normalize_to_sphere",
    "parse_system_json",
    "random_system_on_sphere",
    "refine",
    "riemann_distance",
    "run_bench",
    "run_conjecture",
    "run_entropy",
    "run_solve",
    "start_systems",
    "total_degree_start",
    "track_path",
    "tracker",
    "write_trace_csv",
]
__version__ = "0.1.0"
