"""Experiment harness: benchmark step counts, the start-pair comparison
experiment, and the root-equidistribution experiment, all seeded and
reproducible.

Trials are independent and draw their randomness from generators derived
deterministically from (master seed, trial index), so results do not depend
on the number of workers.  Means and variances are computed over successful
paths only; failures are reported in their own column.

Each named choice is defined once and checked before any path is tracked:
start_systems.initial_pair, START_KINDS, PAIR_KINDS, check_bench, TRACKERS
and ENTROPY_VARIANTS.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bw import riemann_distance
from .linalg import SingularLinearSolveError
from .newton import RefinementError, refine
from .polysys import AffineSystem, PolySystem, degree_tuple, space_dimension
from .start_systems import (
    _NO_TRACE,
    ENDPOINT_CHECK_ERRORS,
    StartSet,
    good_system_raw,
    initial_pair,
    prepare_target,
    random_system_on_sphere,
    solve_all_total_degree,
    total_degree_start,
)
from .tracker import (
    TrackerOptions,
    TrackResult,
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
    """A total-degree path to run_entropy's target failed, or its endpoint
    check rejected the endpoints: no reference roots."""


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

    def e(*idx):
        # The exponents of the product of u_j over j in idx.
        expo = [0] * n
        for j in idx:
            expo[j] += 1
        return tuple(expo)

    # Terms as written: homogenize adds repeated monomials exactly (all coefficients are +-1 or 2).
    equations = [[(e(0), 1.0)] + [(e(j), 2.0) for j in range(1, n)] + [(e(), -1.0)]]
    for k in range(n - 1):
        terms = [(e(abs(i), abs(k - i)), 1.0) for i in range(-(n - 1), n) if abs(k - i) < n]
        equations.append(terms + [(e(k), -1.0)])
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


TRACKERS = ("certified", "heuristic")


def check_bench(family: str, degrees, n, trials, trackers) -> tuple[tuple[int, ...] | None, int]:
    """run_bench's degrees and number of trials: random takes degrees and
    trials (None: 10), katsura an n >= 2 alone (trials None or 1).  Any
    other parameter, family or tracker is a ValueError in the CLI's words."""
    if family == "random":
        if degrees is None:
            raise ValueError("--family random needs --degrees")
        if n is not None:
            raise ValueError("--family random takes no --n: its size is the length of --degrees")
        degrees = degree_tuple(degrees)
        trials = 10 if trials is None else trials
    elif family == "katsura":
        if n is None or n < 2:
            raise ValueError("--family katsura needs --n of at least 2")
        if degrees is not None:
            raise ValueError("--family katsura takes no --degrees: --n sets them")
        if trials not in (None, 1):
            raise ValueError("--family katsura takes no --trials: it has one system, tracked once")
        trials = 1
    else:
        raise ValueError(f"unknown family {family!r}")
    for kind in trackers:
        if kind not in TRACKERS:
            raise ValueError(f"unknown tracker {kind!r}")
    return degrees, trials


def _bench_trial(args) -> list[PathStat]:
    family, degrees, n, trial, seed, trackers = args
    rows: list[PathStat] = []
    if family == "random":
        target = random_system_on_sphere(degrees, np.random.default_rng([seed, trial, 0]))
        start = total_degree_start(degrees, np.random.default_rng([seed, trial, 1]))
    else:
        # The one Katsura trial starts where run_solve does, path by path.
        target, start = start_paths(katsura_system(n), "total", seed)
    hom = make_linear_homotopy(start.g, target)
    for kind in trackers:
        track = track_linear if kind == "certified" else track_heuristic
        for path_id, root in enumerate(start.roots):
            result = track(hom, root, _NO_TRACE)
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
    """Average steps per total-degree path for random or Katsura targets,
    under check_bench's rules; the one Katsura trial's paths are
    start_paths(katsura_system(n), "total", seed)'s, as in run_solve."""
    degrees, trials = check_bench(family, degrees, n, trials, trackers)
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
        pair = initial_pair(kind, degrees, np.random.default_rng([seed, trial, 1 + j]))
        hom = make_linear_homotopy(pair.g, target)
        # Tracked once: the bound integrates this result's trace.
        result = track_linear(hom, pair.zeta0, TrackerOptions(record_trace=verify_bound))
        violated = False
        if verify_bound and result.success:
            violated = result.num_steps > theorem_step_bound(hom, pair.zeta0, result)
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
    to random targets with all degrees 2.  With verify_bound, each path is
    tracked once with its trace, and a successful one whose steps exceed
    theorem_step_bound of that trace counts as a bound violation."""
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


# Entropy variant -> the start pair its runs draw.
ENTROPY_VARIANTS = {"ball": "random", "unitary": "unitary"}


def _entropy_run(args):
    degrees, pair_kind, run, seed, f, references = args
    pair = initial_pair(pair_kind, degrees, np.random.default_rng([seed, 2, run]))
    result = track_path(pair.g, f, pair.zeta0, _NO_TRACE)
    if not result.success:
        return None
    try:
        idx, dist = nearest_root(refine(f, result.endpoint), references)
    except (RefinementError, SingularLinearSolveError, AmbiguousMatchError):
        return None
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
    """Histogram of which root the variant's start pair discovers, with its
    Shannon entropy; maximal entropy means equidistribution.  The target is
    the perturbed conjectured system g + epsilon * h, h uniform on the sphere
    (drawn from default_rng([seed, 0])): one well-conditioned root, the rest
    poorly conditioned.  A run fails when its path does not end Success,
    or its endpoint does not refine (RefinementError or
    SingularLinearSolveError), ties between two references
    (AmbiguousMatchError) or lies over 1e-4 from every one.  Raises
    ReferenceRootsError when a total-degree path to the target fails or the
    solve's endpoint check rejects the endpoints."""
    if variant not in ENTROPY_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    degrees = degree_tuple(degrees)
    # start_paths prepares the target once; the reference solve and the
    # histogram paths track that same system.
    h = random_system_on_sphere(degrees, np.random.default_rng([seed, 0]))
    f, start = start_paths(good_system_raw(degrees) + epsilon * h, "total", seed)
    try:
        report = solve_all_total_degree(f, start)
    except ENDPOINT_CHECK_ERRORS as exc:
        raise ReferenceRootsError(f"endpoint check of the total-degree solve failed: {exc}") from exc
    if report.num_failed:
        raise ReferenceRootsError(f"{report.num_failed} total-degree paths to the target failed")
    references = report.roots
    args = [(degrees, ENTROPY_VARIANTS[variant], run, seed, f, references) for run in range(runs)]
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


def _available_cpus() -> int:
    # The CPUs this process may run on (os.cpu_count where the affinity
    # mask cannot be read).
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _map_trials(fn, args_list, threads: int):
    # A process pool starts all its workers up front, so it gets no more
    # than there are trials or CPUs available; one worker runs the trials
    # in this process.
    workers = min(threads, len(args_list), _available_cpus())
    if workers <= 1:
        return [fn(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list))


# ---------------------------------------------------------------------------
# Solve / track front end
# ---------------------------------------------------------------------------


START_KINDS = ("total", "good", "random")


def start_paths(
    system: PolySystem | AffineSystem, kind: str, seed: int
) -> tuple[PolySystem, StartSet]:
    """The target, through prepare_target once, and the start of one kind
    with all its roots: the total-degree start (D roots, drawn from
    default_rng([seed, 1])), the good pair, or the random pair (drawn from
    default_rng([seed, 2])).  Every solve, track and reference solve starts
    here; path i of run_solve starts at root i."""
    if kind not in START_KINDS:
        raise ValueError(f"unknown start kind {kind!r}")
    f = prepare_target(system)
    if kind == "total":
        return f, total_degree_start(f.degrees, np.random.default_rng([seed, 1]))
    pair = initial_pair(kind, f.degrees, np.random.default_rng([seed, 2]))
    return f, StartSet(pair.g, (pair.zeta0,))


def run_solve(
    system: PolySystem | AffineSystem,
    start_kind: str = "total",
    seed: int = 0,
) -> tuple[TrackResult, ...]:
    """Track every path of start_paths(system, start_kind, seed), untraced:
    all D total-degree paths through solve_all_total_degree, with its
    endpoint check, or the one path of the good or random pair.  Result i
    is the path from root i.
    """
    f, start = start_paths(system, start_kind, seed)
    if start_kind == "total":
        return solve_all_total_degree(f, start).results
    return tuple(track_path(start.g, f, z, _NO_TRACE) for z in start.roots)
