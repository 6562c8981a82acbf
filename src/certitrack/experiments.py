"""Experiment harness: benchmark step counts, the start-pair comparison
experiment, and the root-equidistribution experiment, all seeded and
reproducible.

Trials are independent and draw their randomness from generators derived
deterministically from (master seed, trial index), so results do not depend
on the number of workers.  Means and variances are computed over successful
paths only; failures are reported in their own column.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bw import riemann_distance
from .newton import refine
from .polysys import AffineSystem, PolySystem, space_dimension
from .start_systems import (
    _NO_TRACE,
    StartSet,
    good_initial_pair,
    good_system_raw,
    prepare_target,
    random_initial_pair,
    random_initial_pair_unitary,
    random_system_on_sphere,
    solve_all_total_degree,
    total_degree_initial_pair,
    total_degree_start,
)
from .tracker import (
    TrackStatus,
    make_linear_homotopy,
    theorem_step_bound,
    track_linear,
    track_path,
)
from .heuristic import track_heuristic

TIE_TOL = 1e-12


class AmbiguousMatchError(Exception):
    """An endpoint sits (numerically) equidistant from two reference roots."""


class ReferenceRootsError(Exception):
    """A total-degree path to run_entropy's target failed: no reference roots."""


def shannon_entropy(hits) -> float:
    """Entropy in bits of the empirical output distribution; zero-count
    buckets contribute nothing (the 0 log 0 = 0 convention)."""
    counts = np.asarray(list(hits), dtype=np.float64)
    if counts.size == 0 or counts.sum() <= 0:
        raise ValueError("histogram must contain at least one hit")
    if np.any(counts < 0):
        raise ValueError("negative counts make no sense")
    p = counts / counts.sum()
    p = p[p > 0]
    # + 0.0 turns the -0.0 of a single bucket into 0.0.
    return float(-(p * np.log2(p)).sum()) + 0.0


def nearest_root(endpoint, references) -> tuple[int, float]:
    """Index and distance of the nearest reference root under d_R; a tie within TIE_TOL raises."""
    dists = [riemann_distance(endpoint, ref) for ref in references]
    order = np.argsort(dists)
    best = int(order[0])
    if len(dists) > 1 and dists[int(order[1])] - dists[best] <= TIE_TOL:
        raise AmbiguousMatchError(
            f"endpoint equidistant from roots {best} and {int(order[1])} "
            f"(distances {dists[best]:.6e}, {dists[int(order[1])]:.6e})"
        )
    return best, dists[best]


def match_roots(endpoints, references) -> list[int]:
    """Nearest-neighbor assignment of endpoints to reference roots.

    References must be pairwise separated (> 1e-4 in d_R).  Certified
    endpoints of distinct paths land on distinct roots, so the assignment is
    injective for them; ties within TIE_TOL raise AmbiguousMatchError.
    """
    refs = list(references)
    for i in range(len(refs)):
        for j in range(i + 1, len(refs)):
            if riemann_distance(refs[i], refs[j]) <= 1e-4:
                raise ValueError(f"reference roots {i} and {j} are not separated")
    return [nearest_root(z, refs)[0] for z in endpoints]


def katsura_system(n: int) -> AffineSystem:
    """The Katsura benchmark with n variables: one linear and n-1 quadratic
    equations, as affine terms (run_solve and prepare_target homogenize it).

    Variables u_0..u_{n-1}; the linear equation is u_0 + 2(u_1 + ... +
    u_{n-1}) = 1 and the quadratic ones are sum_{|i|<n} u_|i| u_|k-i| = u_k
    for k = 0..n-2, with u_j = 0 for j >= n.  Total degree 2^(n-1).
    """
    if n < 2:
        raise ValueError("the benchmark needs at least 2 variables")

    def e(*pairs):
        expo = [0] * n
        for idx, power in pairs:
            expo[idx] += power
        return tuple(expo)

    equations = []
    linear = [(e((0, 1)), 1.0 + 0.0j)]
    linear += [(e((j, 1)), 2.0 + 0.0j) for j in range(1, n)]
    linear.append((e(), -1.0 + 0.0j))
    equations.append(linear)
    for k in range(n - 1):
        terms: dict[tuple[int, ...], complex] = {}
        for i in range(-(n - 1), n):
            a, b = abs(i), abs(k - i)
            if a >= n or b >= n:
                continue
            key = e((a, 1), (b, 1))
            terms[key] = terms.get(key, 0.0) + 1.0
        key = e((k, 1))
        terms[key] = terms.get(key, 0.0) - 1.0
        equations.append(sorted(terms.items()))
    degrees = [1] + [2] * (n - 1)
    return AffineSystem(degrees, equations)


# ---------------------------------------------------------------------------
# Benchmark experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathStat:
    trial: int
    path: int
    tracker: str
    status: str
    steps: int


@dataclass(frozen=True)
class ExperimentReport:
    per_path: tuple[PathStat, ...]
    mean_steps: float
    variance_steps: float
    failures: int
    wall_time_s: float


def _step_stats(outcomes: list[tuple[str, int]]) -> tuple[float, float, int]:
    """Mean and sample variance of the steps of the successful paths, and
    the number of failed ones, from (status, steps) pairs."""
    good = [steps for status, steps in outcomes if status == TrackStatus.SUCCESS.value]
    mean = float(np.mean(good)) if good else math.nan
    var = float(np.var(good, ddof=1)) if len(good) > 1 else 0.0
    return mean, var, len(outcomes) - len(good)


def _bench_trial(args) -> list[PathStat]:
    family, degrees, n, trial, seed, trackers = args
    rows: list[PathStat] = []
    if family == "random":
        rng = np.random.default_rng([seed, trial, 0])
        target = random_system_on_sphere(degrees, rng)
    else:
        target = prepare_target(katsura_system(n))
        degrees = target.degrees
    start = total_degree_start(degrees, np.random.default_rng([seed, trial, 1]))
    hom = make_linear_homotopy(start.g, target)
    for kind in trackers:
        for path_id, root in enumerate(start.roots):
            if kind == "certified":
                result = track_linear(hom, root, _NO_TRACE)
            else:
                result = track_heuristic(hom, root, _NO_TRACE)
            rows.append(PathStat(trial, path_id, kind, result.status.value, result.num_steps))
    return rows


def run_bench(
    family: str,
    degrees=None,
    n: int | None = None,
    trials: int | None = None,
    trackers=("certified",),
    seed: int = 0,
    threads: int = 1,
) -> dict[str, ExperimentReport]:
    """Average steps per total-degree path for random or Katsura targets.

    The random family takes degrees and trials (None: 10 random targets),
    the katsura family n alone, for its one deterministic system (trials
    None or 1).  A parameter the family does not read is a ValueError."""
    if family == "random":
        if degrees is None:
            raise ValueError("the random family needs --degrees")
        if n is not None:
            raise ValueError("the random family takes no n: its size is the length of degrees")
        degrees = tuple(int(d) for d in degrees)
        trials = 10 if trials is None else trials
    elif family == "katsura":
        if n is None:
            raise ValueError("the katsura family needs --n")
        if degrees is not None:
            raise ValueError("the katsura family takes no degrees: n sets them")
        if trials not in (None, 1):
            raise ValueError(f"the katsura family takes no trials={trials}: it has one system")
        trials = 1
    else:
        raise ValueError(f"unknown family {family!r}")
    t0 = time.perf_counter()
    args = [(family, degrees, n, trial, seed, tuple(trackers)) for trial in range(trials)]
    rows_nested = _map_trials(_bench_trial, args, threads)
    wall = time.perf_counter() - t0
    reports = {}
    for kind in trackers:
        rows = [p for rows in rows_nested for p in rows if p.tracker == kind]
        stats = _step_stats([(p.status, p.steps) for p in rows])
        reports[kind] = ExperimentReport(tuple(rows), *stats, wall)
    return reports


# ---------------------------------------------------------------------------
# Start-pair comparison experiment
# ---------------------------------------------------------------------------


PAIR_KINDS = ("good", "total", "random")


@dataclass(frozen=True)
class ConjectureReport:
    kind: str
    n: int
    trials: int
    mean_steps: float
    variance_steps: float
    failures: int
    bound: float
    bound_violations: int


def conjecture_bound(n: int) -> float:
    """The average-steps bound 71 pi d^{3/2} n N / sqrt(2) for degrees (2,...,2)."""
    N = space_dimension((2,) * n) - 1
    return 71.0 * math.pi * 2**1.5 * n * N / math.sqrt(2.0)


def _conjecture_trial(args):
    n, trial, seed, verify_bound = args
    degrees = (2,) * n
    target = random_system_on_sphere(degrees, np.random.default_rng([seed, trial, 0]))
    out = []
    for j, kind in enumerate(PAIR_KINDS):
        rng = np.random.default_rng([seed, trial, 1 + j])
        if kind == "good":
            pair = good_initial_pair(degrees)
        elif kind == "total":
            pair = total_degree_initial_pair(degrees, rng)
        else:
            pair = random_initial_pair(degrees, rng)
        hom = make_linear_homotopy(pair.g, target)
        result = track_linear(hom, pair.zeta0, _NO_TRACE)
        violated = False
        if verify_bound and result.success:
            violated = result.num_steps > theorem_step_bound(hom, pair.zeta0)
        out.append((kind, result.status.value, result.num_steps, violated))
    return out


def run_conjecture(
    n: int,
    trials: int = 30,
    seed: int = 0,
    threads: int = 1,
    verify_bound: bool = False,
) -> list[ConjectureReport]:
    """Mean certified steps from the good / total-degree / random start pairs
    to random targets with all degrees 2."""
    args = [(n, trial, seed, verify_bound) for trial in range(trials)]
    rows_nested = _map_trials(_conjecture_trial, args, threads)
    bound = conjecture_bound(n)
    reports = []
    for kind in PAIR_KINDS:
        stats = [row for rows in rows_nested for row in rows if row[0] == kind]
        mean, var, failures = _step_stats([(status, steps) for _, status, steps, _ in stats])
        violations = sum(1 for *_, v in stats if v)
        reports.append(
            ConjectureReport(kind, n, trials, mean, var, failures, bound, violations)
        )
    return reports


# ---------------------------------------------------------------------------
# Equidistribution experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyReport:
    root_hits: tuple[int, ...]
    runs: int
    failures: int
    entropy_bits: float


def entropy_target(degrees, epsilon: float, rng: np.random.Generator) -> PolySystem:
    """The target of run_entropy: the perturbed conjectured system
    g + epsilon * h with h uniform on the sphere, through prepare_target; one
    well-conditioned root, the rest poorly conditioned."""
    return prepare_target(_perturbed_good_system(degrees, epsilon, rng))


def _perturbed_good_system(degrees, epsilon: float, rng: np.random.Generator) -> PolySystem:
    return good_system_raw(degrees) + epsilon * random_system_on_sphere(degrees, rng)


def _entropy_run(args):
    degrees, variant, run, seed, f, references = args
    rng = np.random.default_rng([seed, 2, run])
    if variant == "ball":
        pair = random_initial_pair(degrees, rng)
    elif variant == "unitary":
        pair = random_initial_pair_unitary(degrees, rng)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    result = track_path(pair.g, f, pair.zeta0, _NO_TRACE)
    if not result.success:
        return None
    root = refine(f, result.endpoint)
    idx, dist = nearest_root(root, references)
    if dist > 1e-4:
        return None
    return idx


def run_entropy(
    degrees,
    epsilon: float = 0.1,
    runs: int = 800,
    variant: str = "ball",
    seed: int = 0,
    threads: int = 1,
) -> EntropyReport:
    """Histogram of which root the random start pair discovers, with its
    Shannon entropy; maximal entropy means equidistribution.  Raises
    ReferenceRootsError when a total-degree path to the target fails."""
    degrees = tuple(int(d) for d in degrees)
    # solve_all_total_degree prepares the target once; the histogram paths
    # track that same system, entropy_target's bits.
    system = _perturbed_good_system(degrees, epsilon, np.random.default_rng([seed, 0]))
    report = solve_all_total_degree(system, np.random.default_rng([seed, 1]))
    if report.num_failed:
        raise ReferenceRootsError(f"{report.num_failed} total-degree paths to the target failed")
    f = report.target
    references = report.roots
    args = [(degrees, variant, run, seed, f, references) for run in range(runs)]
    outcomes = _map_trials(_entropy_run, args, threads)
    hits = [0] * len(references)
    failures = 0
    for idx in outcomes:
        if idx is None:
            failures += 1
        else:
            hits[idx] += 1
    entropy = shannon_entropy(hits) if sum(hits) else math.nan
    return EntropyReport(tuple(hits), runs, failures, entropy)


def _map_trials(fn, args_list, threads: int):
    # A process pool starts all its workers up front, so it gets no more
    # than there are trials; one trial runs in this process.
    workers = min(threads, len(args_list))
    if workers <= 1:
        return [fn(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list))


# ---------------------------------------------------------------------------
# Solve / track front end
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveRow:
    path: int
    status: str
    steps: int
    endpoint: np.ndarray | None


START_KINDS = ("total", "good", "random")


def start_paths(
    system: PolySystem | AffineSystem, kind: str, seed: int
) -> tuple[PolySystem, StartSet]:
    """The target, through prepare_target once, and the start of one kind
    with all its roots: the total-degree start (D roots, drawn from
    default_rng([seed, 1])), the good pair, or the random pair (drawn from
    default_rng([seed, 2])).  Path i of run_solve starts at root i."""
    f = prepare_target(system)
    if kind == "total":
        return f, total_degree_start(f.degrees, _total_degree_rng(seed))
    if kind == "good":
        pair = good_initial_pair(f.degrees)
    elif kind == "random":
        pair = random_initial_pair(f.degrees, np.random.default_rng([seed, 2]))
    else:
        raise ValueError(f"unknown start kind {kind!r}")
    return f, StartSet(pair.g, (pair.zeta0,))


def _total_degree_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, 1])


def run_solve(
    system: PolySystem | AffineSystem,
    start_kind: str = "total",
    seed: int = 0,
) -> list[SolveRow]:
    """Track every path of start_paths(system, start_kind, seed): all D
    total-degree paths (through solve_all_total_degree, which prepares the
    target as start_paths does), or the one path of the good or random pair.
    Row i is the path from root i; its endpoint is None unless it succeeded.
    """
    if start_kind == "total":
        results = solve_all_total_degree(system, _total_degree_rng(seed)).results
    else:
        f, start = start_paths(system, start_kind, seed)
        results = [track_path(start.g, f, z, _NO_TRACE) for z in start.roots]
    return [
        SolveRow(i, r.status.value, r.num_steps, r.endpoint if r.success else None)
        for i, r in enumerate(results)
    ]
