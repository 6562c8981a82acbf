"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (timed as
``setup_s``), runs one work item at a time in ``run_item`` (the timed part,
which receives only those inputs), and checks the outputs in ``check``,
outside the timed region.  ``run_item`` calls ``pause`` before each path,
outside the path's clock; the benchmark samples the machine's speed there
(speed.py).  Every call into certitrack goes through a module
attribute looked up at call time (``ct.tracker.track_path``, not a name bound
at import), so the traced run sees the same calls as the untraced one.

Why these four, and which layer each exercises, is recorded in
``baseline.json`` next to this file.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

import certitrack as ct

SUCCESS = "Success"
REJECTED = "RejectedBySolve"  # run_solve's own endpoint check raised


@dataclass
class PathRun:
    """One tracked path: its status and step count, its wall time from
    ``start`` (a perf_counter reading), and its endpoint.  ``ok`` is set by
    the correctness gate."""

    status: str
    steps: int
    seconds: float
    endpoint: np.ndarray
    start: float = 0.0
    ok: bool = False

    @property
    def success(self) -> bool:
        return self.status == SUCCESS


@dataclass
class Verdict:
    """Gate outcome for one item: per-path pass flags, and the reasons, if
    any, that the program's output is wrong (not merely a path giving up)."""

    path_ok: list[bool]
    wrong: list[str]


def _refined_root(f, z):
    """(refined root, certified radius) of an endpoint, or None when Newton
    refinement does not settle."""
    try:
        zeta = ct.refine(f, z)
    except (ct.newton.RefinementError, ct.SingularLinearSolveError):
        return None
    return zeta, ct.certified_radius(f, zeta)


def check_certified_target(f, paths: list[PathRun]) -> Verdict:
    """Certified endpoints of one target: each refines to a root within that
    root's certified radius, and the roots are pairwise farther apart than
    twice the largest radius (a closer pair means two paths crossed)."""
    ok = [p.success for p in paths]
    wrong = []
    roots = {}
    for i, p in enumerate(paths):
        if not p.success:
            continue
        found = _refined_root(f, p.endpoint)
        if found is None or found[1] == 0.0 or ct.riemann_distance(p.endpoint, found[0]) > found[1]:
            ok[i] = False
            wrong.append(f"path {i}: certified endpoint is not within the certified radius of a root")
            continue
        roots[i] = found
    if roots:
        worst = 2.0 * max(r for _, r in roots.values())
        for i, j in itertools.combinations(sorted(roots), 2):
            if ct.riemann_distance(roots[i][0], roots[j][0]) <= worst:
                ok[i] = ok[j] = False
                wrong.append(f"paths {i} and {j} reach the same root")
    return Verdict(ok, wrong)


class TdRandom222:
    """All 8 total-degree paths of seeded random dense (2,2,2) targets."""

    name = "td-random-222"
    degrees = (2, 2, 2)
    certified = True
    opts = ct.TrackerOptions(record_trace=False)
    expected_spans = (
        "tracker.track_path", "tracker.track_linear", "tracker.make_linear_homotopy",
        "linalg.lu_factor_checked", "linalg.lu_solve", "numpy.linalg.svd",
        "start_systems.total_degree_start", "bw.normalize_to_sphere",
    )

    items_per_s = 0.5  # nominal rate: sizes a run's work from --seconds

    def __init__(self, prefix: int = 12, pool: int = 256):
        self.prefix = prefix  # items every run tracks; the step digest covers them
        self.pool = pool  # inputs built in set-up; a run that outlasts them cycles

    def setup(self, seed: int):
        out = []
        for k in range(self.pool):
            f = ct.random_system_on_sphere(self.degrees, np.random.default_rng([seed, k, 0]))
            start = ct.total_degree_start(self.degrees, np.random.default_rng([seed, k, 1]))
            out.append((f, start))
        return out

    def run_item(self, inputs, k: int, pause=lambda: None) -> list[PathRun]:
        f, start = inputs[k % self.pool]
        paths = []
        for root in start.roots:
            pause()
            t0 = time.perf_counter()
            r = ct.tracker.track_path(start.g, f, root, self.opts)
            paths.append(PathRun(r.status.value, r.num_steps, time.perf_counter() - t0, r.endpoint, t0))
        return paths

    def check(self, inputs, k: int, paths: list[PathRun]) -> Verdict:
        return check_certified_target(inputs[k % self.pool][0], paths)


class Katsura5Solve:
    """experiments.run_solve on Katsura-5 from the total-degree start, with the
    library-default tracker options (full traces kept).

    The start-system phase is fixed (run_solve seed 0) whatever --seed is:
    one solve fills most of a run, and its cost moves by ~40% from one phase
    to another, which no bound could absorb.  Every run makes the same solve
    at least twice: one ~15 s solve alone left the median path time with a
    run-to-run spread of 25% on a shared 2-core machine.
    """

    name = "katsura5-solve"
    certified = True
    solve_seed = 0
    pool = 1  # every item is the same solve
    expected_spans = (
        "start_systems.solve_all_total_degree", "start_systems.total_degree_start",
        "tracker.track_path", "tracker.track_linear", "tracker.make_linear_homotopy",
        "linalg.lu_factor_checked", "linalg.lu_solve", "numpy.linalg.svd",
        "newton.refine", "newton.newton_projective", "newton.condition_mu",
        "polysys.evaluate", "polysys.jacobian", "linalg.make_bordered",
        "linalg.bordered_solve", "bw.riemann_distance", "bw.normalize_to_sphere",
    )

    items_per_s = 1 / 15

    def __init__(self, prefix: int = 2, n: int = 5):
        self.prefix = prefix
        self.n = n
        self.roots = 2 ** (n - 1)

    def setup(self, seed: int):
        return ct.katsura_system(self.n)

    def run_item(self, system, k: int, pause=lambda: None) -> list[PathRun]:
        # run_solve reports neither per-path times nor, when its own endpoint
        # check raises, the paths' outcomes: record both around each
        # track_path call it makes through start_systems (one clock pair per
        # ~1 s path).
        mod = ct.start_systems
        inner = mod.track_path
        tracked = []

        def timed_track_path(*args, **kwargs):
            pause()
            t0 = time.perf_counter()
            r = inner(*args, **kwargs)
            tracked.append((r, time.perf_counter() - t0, t0))
            return r

        mod.track_path = timed_track_path
        try:
            ct.experiments.run_solve(system, "total", self.solve_seed)
            rejected = False
        except (RuntimeError, ct.newton.RefinementError, ct.SingularLinearSolveError):
            rejected = True
        finally:
            mod.track_path = inner
        return [
            PathRun(REJECTED if rejected else r.status.value, r.num_steps, seconds, r.endpoint, t0)
            for r, seconds, t0 in tracked
        ]

    def check(self, system, k: int, paths: list[PathRun]) -> Verdict:
        verdict = check_certified_target(ct.normalize_to_sphere(ct.homogenize(system)), paths)
        if len(paths) != self.roots:
            verdict.wrong.append(f"{len(paths)} paths, expected {self.roots}")
        if any(p.status == REJECTED for p in paths):
            verdict.wrong.append("run_solve's own endpoint check rejected the solve")
        return verdict


class PairCompareN3:
    """One track_linear call from each of the good, total-degree and random
    start pairs to each seeded random degree-2 target in 3 variables."""

    name = "pair-compare-n3"
    degrees = (2, 2, 2)
    certified = True
    kinds = ("good", "total", "random")
    opts = ct.TrackerOptions(record_trace=False)
    expected_spans = (
        "tracker.track_linear", "tracker.make_linear_homotopy",
        "linalg.lu_factor_checked", "linalg.lu_solve", "numpy.linalg.svd",
        "start_systems.total_degree_start", "start_systems.random_initial_pair",
        "bw.unitary_compose", "bw.normalize_to_sphere", "polysys.evaluate",
    )

    items_per_s = 1.5

    def __init__(self, prefix: int = 20, pool: int = 256):
        self.prefix = prefix
        self.pool = pool

    def setup(self, seed: int):
        targets = [
            ct.random_system_on_sphere(self.degrees, np.random.default_rng([seed, k, 0]))
            for k in range(self.pool)
        ]
        return seed, targets

    def run_item(self, inputs, k: int, pause=lambda: None) -> list[PathRun]:
        # A path's time includes building its start pair and homotopy: that
        # is the single-path latency solve_one/track users wait for.
        seed, targets = inputs
        f = targets[k % self.pool]
        paths = []
        for j, kind in enumerate(self.kinds):
            pause()
            t0 = time.perf_counter()
            rng = np.random.default_rng([seed, k % self.pool, 1 + j])
            if kind == "good":
                pair = ct.start_systems.good_initial_pair(self.degrees)
            elif kind == "total":
                pair = ct.start_systems.total_degree_initial_pair(self.degrees, rng)
            else:
                pair = ct.start_systems.random_initial_pair(self.degrees, rng)
            hom = ct.tracker.make_linear_homotopy(pair.g, f)
            r = ct.tracker.track_linear(hom, pair.zeta0, self.opts)
            paths.append(PathRun(r.status.value, r.num_steps, time.perf_counter() - t0, r.endpoint, t0))
        return paths

    def check(self, inputs, k: int, paths: list[PathRun]) -> Verdict:
        f = inputs[1][k % self.pool]
        ok = []
        wrong = []
        for i, p in enumerate(paths):
            found = _refined_root(f, p.endpoint) if p.success else None
            good = found is not None and ct.riemann_distance(p.endpoint, found[0]) <= found[1]
            if p.success and not good:
                wrong.append(f"{self.kinds[i]} pair: endpoint is not within the certified radius of a root")
            ok.append(good)
        return Verdict(ok, wrong)


class Heuristic222:
    """track_heuristic (RK4, default options, traces off) on the td-random-222
    targets and starts of the same seed.

    On the first `prefix` targets the gate compares each endpoint with the
    certified path from the same start root.  That costs about 1 s of
    certified tracking per target, so on every later target it checks instead
    that the 8 endpoints refine to 8 distinct roots within their certified
    radii, i.e. that each of the target's 8 roots is reached exactly once.
    A path that fails either check counts as failed, not as a wrong program:
    jumping is a known weakness of the uncertified tracker.
    """

    name = "heuristic-222"
    certified = False
    opts = ct.HeuristicOptions(record_trace=False)
    expected_spans = (
        "heuristic.track_heuristic", "heuristic.predict", "heuristic.correct",
        "polysys.evaluate", "polysys.jacobian", "linalg.make_bordered",
        "linalg.bordered_solve", "linalg.lu_factor_checked",
        "newton.newton_projective", "bw.riemann_distance",
        "tracker.make_linear_homotopy", "start_systems.total_degree_start",
    )

    items_per_s = 6.5

    def __init__(self, prefix: int = 4, pool: int = 256):
        self.prefix = prefix
        self.pool = pool
        self.targets = TdRandom222(pool=pool)

    def setup(self, seed: int):
        return [
            (f, start, ct.tracker.make_linear_homotopy(start.g, f))
            for f, start in self.targets.setup(seed)
        ]

    def run_item(self, inputs, k: int, pause=lambda: None) -> list[PathRun]:
        f, start, hom = inputs[k % self.pool]
        paths = []
        for root in start.roots:
            pause()
            t0 = time.perf_counter()
            r = ct.heuristic.track_heuristic(hom, root, self.opts)
            paths.append(PathRun(r.status.value, r.num_steps, time.perf_counter() - t0, r.endpoint, t0))
        return paths

    def check(self, inputs, k: int, paths: list[PathRun]) -> Verdict:
        f, start, _ = inputs[k % self.pool]
        distinct = check_certified_target(f, paths).path_ok
        if k % self.pool >= self.prefix:
            return Verdict(distinct, [])
        certified = self.targets.run_item([(f, start)], 0)
        reference = check_certified_target(f, certified).path_ok
        refs = [_refined_root(f, c.endpoint) if good else None for c, good in zip(certified, reference)]
        known = [i for i, r in enumerate(refs) if r is not None]
        ok = []
        for i, p in enumerate(paths):
            found = _refined_root(f, p.endpoint) if p.success else None
            if found is None or refs[i] is None:
                # Without a certified reference only the distinctness check applies.
                ok.append(found is not None and distinct[i])
                continue
            try:
                nearest = known[ct.match_roots([found[0]], [refs[j][0] for j in known])[0]]
            except (ct.experiments.AmbiguousMatchError, ValueError):
                nearest = None
            ok.append(nearest == i and ct.riemann_distance(found[0], refs[i][0]) <= refs[i][1])
        return Verdict(ok, [])


WORKLOADS = {w.name: w for w in (TdRandom222, Katsura5Solve, PairCompareN3, Heuristic222)}
