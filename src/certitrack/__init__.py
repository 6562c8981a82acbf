"""Certified homotopy continuation for square complex polynomial systems.

The package re-exports what the benchmarks read from it; the command line
and the rest of the API live in its modules (polysys, bw, linalg, newton,
tracker, start_systems, heuristic, experiments, cli).
"""

from . import experiments, heuristic, newton, start_systems, tracker
from .bw import normalize_to_sphere, riemann_distance
from .experiments import katsura_system, match_roots
from .heuristic import HeuristicOptions
from .linalg import SingularLinearSolveError
from .newton import certified_radius, refine
from .polysys import homogenize
from .start_systems import random_system_on_sphere, total_degree_start
from .tracker import TrackerOptions

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
    "random_system_on_sphere",
    "refine",
    "riemann_distance",
    "start_systems",
    "total_degree_start",
    "tracker",
]
__version__ = "0.1.0"
