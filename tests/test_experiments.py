import math

import numpy as np
import pytest

from certitrack import experiments, start_systems, tracker
from certitrack.bw import bw_norm, normalize_to_sphere
from certitrack.experiments import (
    AmbiguousMatchError,
    PAIR_KINDS,
    conjecture_bound,
    katsura_system,
    match_roots,
    nearest_root,
    run_bench,
    run_conjecture,
    run_entropy,
    run_solve,
    shannon_entropy,
)
from certitrack.newton import RefinementError, refine
from certitrack.polysys import evaluate, homogenize, space_dimension, unit_point
from certitrack.start_systems import (
    good_system_raw,
    prepare_target,
    random_system_on_sphere,
    solve_all_total_degree,
    total_degree_start,
)


def solve_katsura(n: int):
    # All total-degree paths to Katsura-n from the start of default_rng(1).
    f = prepare_target(katsura_system(n))
    return solve_all_total_degree(f, total_degree_start(f.degrees, np.random.default_rng(1)))


class TestShannonEntropy:
    def test_uniform_eight(self):
        assert shannon_entropy([100] * 8) == pytest.approx(3.0)

    def test_single_bucket(self):
        assert shannon_entropy([42]) == 0.0

    def test_single_bucket_is_positive_zero(self):
        # -0.0 == 0.0, so only the sign shows a -0.0 (printed "-0.000000").
        assert math.copysign(1.0, shannon_entropy([42])) == 1.0
        assert math.copysign(1.0, shannon_entropy([0, 7, 0])) == 1.0

    def test_three_quarters_split(self):
        assert shannon_entropy([75, 25]) == pytest.approx(0.811278, abs=1e-6)

    def test_zero_buckets_ignored(self):
        assert shannon_entropy([50, 0, 50]) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy([])
        with pytest.raises(ValueError):
            shannon_entropy([0, 0])

    def test_bounded_by_log_buckets(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            hits = rng.integers(0, 50, size=6)
            if hits.sum() == 0:
                continue
            h = shannon_entropy(hits)
            assert 0.0 <= h <= math.log2(6) + 1e-12


class TestMatchRoots:
    def setup_method(self):
        self.refs = [
            unit_point([1.0, 0.0, 0.0]),
            unit_point([0.0, 1.0, 0.0]),
            unit_point([0.0, 0.0, 1.0]),
        ]

    def test_identity_assignment(self):
        assert match_roots(self.refs, self.refs) == [0, 1, 2]

    def test_small_perturbation_same_assignment(self):
        moved = [unit_point(np.asarray(r) + 1e-9) for r in self.refs]
        assert match_roots(moved, self.refs) == [0, 1, 2]

    def test_equidistant_raises(self):
        midpoint = unit_point([1.0, 1.0, 0.0])
        with pytest.raises(AmbiguousMatchError):
            match_roots([midpoint], self.refs)

    def test_unseparated_references_rejected(self):
        refs = [unit_point([1.0, 0.0]), unit_point([1.0, 1e-6])]
        with pytest.raises(ValueError):
            match_roots([refs[0]], refs)

    @pytest.mark.parametrize("gap, tie", [(0.995e-12, True), (1.005e-12, False)])
    def test_tie_tolerance_boundary(self, gap, tie):
        # On the line through e0 and e1 the distances are theta and
        # pi/2 - theta: their gap straddles TIE_TOL = 1e-12 by half a percent.
        theta = (math.pi / 2 - gap) / 2
        endpoint = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
        refs = [unit_point([1.0, 0.0]), unit_point([0.0, 1.0])]
        if tie:
            with pytest.raises(AmbiguousMatchError):
                nearest_root(endpoint, refs)
        else:
            assert nearest_root(endpoint, refs) == (0, pytest.approx(theta, abs=1e-15))

    def test_nearest_root_distance(self):
        idx, dist = nearest_root(unit_point([1.0, 0.1, 0.0]), self.refs)
        assert idx == 0
        assert dist == pytest.approx(math.atan(0.1), abs=1e-12)


class TestKatsura:
    def test_shape_and_degrees(self):
        f = katsura_system(3)
        assert f.degrees == (1, 2, 2)

    def test_known_affine_solution(self):
        # u0 = 1, u1 = u2 = 0 solves every equation
        f = katsura_system(4)
        x = np.zeros(4, dtype=complex)
        x[0] = 1.0
        assert np.linalg.norm(evaluate(homogenize(f), unit_point((1.0, *x)))) <= 1e-14

    @pytest.mark.parametrize("n,count", [(3, 4), (4, 8)])
    def test_solution_count(self, n, count):
        report = solve_katsura(n)
        assert report.num_failed == 0
        assert len([r.endpoint for r in report.results if r.success]) == count

    def test_pinned_step_counts(self):
        # (status, steps) of the Katsura-4 solve of test_solution_count[4-8]
        report = solve_katsura(4)
        assert [(r.status.value, r.num_steps) for r in report.results] == [
            ("Success", 2485), ("Success", 2360), ("Success", 3360), ("Success", 3374),
            ("Success", 3428), ("Success", 4768), ("Success", 4460), ("Success", 2867),
        ]

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            katsura_system(1)


class TestRunBench:
    def test_random_family_report(self):
        rep = run_bench("random", degrees=(2, 2), trials=2, seed=0)["certified"]
        assert len(rep.per_path) == 8
        assert rep.failures == 0
        assert 50 <= rep.mean_steps <= 800

    def test_both_trackers(self):
        reports = run_bench(
            "random", degrees=(2, 2), trials=1, trackers=("certified", "heuristic"), seed=1
        )
        assert reports["heuristic"].mean_steps < reports["certified"].mean_steps

    def test_thread_determinism(self):
        a = run_bench("random", degrees=(2, 2), trials=3, seed=2, threads=1)["certified"]
        b = run_bench("random", degrees=(2, 2), trials=3, seed=2, threads=2)["certified"]
        assert a.per_path == b.per_path

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        # A stand-in for the pool records its size and starts no process.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                return map(fn, args)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        return sizes

    @staticmethod
    def _cpus(monkeypatch, count):
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)

    def test_worker_count_is_capped_at_the_trials(self, pool_sizes, monkeypatch):
        self._cpus(monkeypatch, 8)
        sizes = pool_sizes
        assert experiments._map_trials(abs, [-1, -2, -3], 4) == [1, 2, 3]
        assert sizes == [3]
        rep = run_bench("katsura", n=2, seed=0, threads=2)["certified"]
        assert rep.failures == 0
        assert sizes == [3]  # the one Katsura trial ran without a pool

    def test_worker_count_is_capped_at_the_cpus(self, pool_sizes, monkeypatch):
        # As entropy --threads 800 asks: no more workers than CPUs available.
        self._cpus(monkeypatch, 2)
        trials = list(range(-800, 0))
        assert experiments._map_trials(abs, trials, 800) == [abs(a) for a in trials]
        assert pool_sizes == [2]
        # Without an affinity mask, os.cpu_count; without that, one worker,
        # which runs the trials in this process.
        monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
        experiments._map_trials(abs, trials, 800)
        assert pool_sizes == [2, 3]
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
        assert experiments._map_trials(abs, [-1, -2], 800) == [1, 2]
        assert pool_sizes == [2, 3]

    def test_katsura_family(self):
        rep = run_bench("katsura", n=3, seed=0)["certified"]
        assert len(rep.per_path) == 4
        assert rep.failures == 0

    def test_pinned_step_counts(self):
        # Read before the certified tracker shared the trial's homotopy;
        # sharing it must not move a step.
        reports = run_bench("random", (2, 2), trials=3, seed=2, trackers=("certified", "heuristic"))
        steps = {
            "certified": [320, 438, 577, 494, 194, 209, 257, 298, 907, 378, 1091, 536],
            "heuristic": [10, 10, 10, 10, 10, 10, 10, 10, 15, 11, 11, 11],
        }
        for kind, report in reports.items():
            assert [(p.trial, p.path) for p in report.per_path] == [
                (t, i) for t in range(3) for i in range(4)
            ]
            assert {p.status for p in report.per_path} == {"Success"}
            assert [p.steps for p in report.per_path] == steps[kind]
        # The Katsura paths are run_solve(katsura_system(3), "total", 0)'s.
        katsura = run_bench("katsura", n=3)["certified"].per_path
        assert [(p.status, p.steps) for p in katsura] == [
            ("Success", s) for s in (1270, 841, 1056, 980)
        ]

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_katsura_paths_are_the_solve_paths(self, n, seed):
        # Both start from start_paths(katsura_system(n), "total", seed).
        bench = run_bench("katsura", n=n, seed=seed)["certified"].per_path
        solve = run_solve(katsura_system(n), "total", seed)
        assert [(p.path, p.status, p.steps) for p in bench] == [
            (i, r.status.value, r.num_steps) for i, r in enumerate(solve)
        ]

    def test_one_homotopy_per_trial(self, monkeypatch):
        # Both trackers of a trial share one homotopy; track_path would
        # build one per certified path.
        built = []
        make = experiments.make_linear_homotopy

        def counting(g, f):
            built.append(1)
            return make(g, f)

        monkeypatch.setattr(experiments, "make_linear_homotopy", counting)
        monkeypatch.setattr(tracker, "make_linear_homotopy", counting)
        run_bench("random", (2, 2), trials=2, seed=0, trackers=("certified", "heuristic"))
        assert len(built) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            run_bench("random", degrees=None)
        with pytest.raises(ValueError):
            run_bench("nope", degrees=(2,))

    @pytest.mark.parametrize("trackers", [("nope",), ("certified", "nope")])
    def test_unknown_tracker_raises_before_tracking(self, monkeypatch, trackers):
        calls = []

        def counting(hom, z0, opts):
            calls.append(1)

        monkeypatch.setattr(experiments, "track_linear", counting)
        monkeypatch.setattr(experiments, "track_heuristic", counting)
        with pytest.raises(ValueError, match="unknown tracker 'nope'"):
            run_bench("random", (2, 2), trials=1, trackers=trackers)
        assert calls == []

    @pytest.mark.parametrize(
        "family, kwargs, name",
        [
            ("katsura", {"n": 3, "trials": 5}, "trials"),
            ("katsura", {"n": 3, "degrees": (2, 2)}, "degrees"),
            ("random", {"degrees": (2, 2), "n": 3}, "n"),
        ],
    )
    def test_parameter_the_family_does_not_read_is_rejected(self, family, kwargs, name):
        with pytest.raises(ValueError, match=f"takes no --{name}"):
            run_bench(family, **kwargs)

    def test_default_trials(self):
        # None is 10 random targets, or the one Katsura system, which an
        # explicit trials=1 also asks for.
        random_targets = run_bench("random", degrees=(1,), trials=None)["certified"].per_path
        assert {p.trial for p in random_targets} == set(range(10))
        assert len(run_bench("katsura", n=2, trials=1)["certified"].per_path) == 2


class TestRunConjecture:
    def test_bound_formula(self):
        # n = 4, all degrees 2: N + 1 = 60
        n = 4
        N = space_dimension((2,) * n) - 1
        assert N == 59
        want = 71.0 * math.pi * 2.0**1.5 * n * N / math.sqrt(2.0)
        assert conjecture_bound(n) == pytest.approx(want)
        assert conjecture_bound(4) == pytest.approx(1.05e5, rel=0.01)

    def test_small_run_reports(self):
        reports = run_conjecture(2, trials=2, seed=0)
        kinds = [r.kind for r in reports]
        assert kinds == list(PAIR_KINDS)
        for r in reports:
            assert r.failures == 0
            assert r.mean_steps > 0
            assert r.mean_steps < r.bound

    def test_thread_determinism(self):
        for verify_bound in (False, True):
            a = run_conjecture(2, trials=3, seed=4, threads=1, verify_bound=verify_bound)
            b = run_conjecture(2, trials=3, seed=4, threads=2, verify_bound=verify_bound)
            assert a == b

    def test_verify_bound_tracks_each_path_once(self, monkeypatch):
        # The bound integrates the trace of the path the trial tracked; the
        # oracle tracks nothing itself.
        calls = []
        track = tracker.track_linear

        def counting(hom, z0, opts=tracker.TrackerOptions()):
            calls.append(opts.record_trace)
            return track(hom, z0, opts)

        monkeypatch.setattr(experiments, "track_linear", counting)
        monkeypatch.setattr(tracker, "track_linear", counting)
        reports = run_conjecture(2, trials=1, seed=3, verify_bound=True)
        assert all(r.failures == 0 for r in reports)
        assert calls == [True] * len(PAIR_KINDS)

    def test_verify_bound_flags_nothing(self):
        reports = run_conjecture(2, trials=1, seed=3, verify_bound=True)
        assert all(r.bound_violations == 0 for r in reports)


class TestEntropyExperiment:
    def test_rejected_endpoint_check_means_no_reference_roots(self, monkeypatch):
        def failing(f, z):
            raise RefinementError("no convergence")

        monkeypatch.setattr(start_systems, "refine", failing)
        with pytest.raises(experiments.ReferenceRootsError, match="endpoint check .* no convergence"):
            run_entropy((2, 2), epsilon=0.1, runs=1)

    @pytest.fixture
    def tracked_targets(self, monkeypatch):
        # The coefficient bytes of every target a path tracks, through the
        # track_path of the reference solve and of the histogram runs.
        targets = []

        def recording(module):
            track = module.track_path

            def wrapper(g, f, z0, opts):
                targets.append(f._vec.tobytes())
                return track(g, f, z0, opts)

            monkeypatch.setattr(module, "track_path", wrapper)

        recording(experiments)
        recording(start_systems)
        return targets

    @staticmethod
    def perturbed_good_system(degrees, epsilon, seed):
        # The target the run's docstring names, through prepare_target.
        h = random_system_on_sphere(degrees, np.random.default_rng([seed, 0]))
        return prepare_target(good_system_raw(degrees) + epsilon * h)

    def test_target_construction(self, tracked_targets):
        run_entropy((1, 2, 2), epsilon=0.1, runs=1, seed=0)
        want = self.perturbed_good_system((1, 2, 2), 0.1, 0)
        assert set(tracked_targets) == {want._vec.tobytes()}
        assert bw_norm(want) == pytest.approx(1.0, abs=1e-12)

    def test_reference_roots_are_of_the_tracked_target(self, tracked_targets):
        # The total-degree reference paths and the histogram paths track one
        # system, bit for bit.  Seed 1 is one where scaling the target a
        # second time changes its bits.
        run_entropy((2, 2), epsilon=0.1, runs=2, seed=1)
        assert len(tracked_targets) == 4 + 2
        want = self.perturbed_good_system((2, 2), 0.1, 1)
        assert set(tracked_targets) == {want._vec.tobytes()}

    def test_small_entropy_run(self):
        rep = run_entropy((2, 2), epsilon=0.1, runs=12, variant="ball", seed=0)
        assert len(rep.root_hits) == 4
        assert sum(rep.root_hits) + rep.failures == 12
        assert 0.0 <= rep.entropy_bits <= 2.0

    def test_unitary_variant(self):
        rep = run_entropy((2, 2), epsilon=0.1, runs=12, variant="unitary", seed=1)
        assert sum(rep.root_hits) + rep.failures == 12

    def test_thread_determinism(self):
        a = run_entropy((2, 2), runs=6, seed=1, threads=1)
        b = run_entropy((2, 2), runs=6, seed=1, threads=2)
        assert a == b

    def test_endpoint_that_does_not_refine_is_a_failed_run(self, monkeypatch):
        # The reference solve refines through start_systems; each run's
        # endpoint through experiments, which here never converges.
        calls = []

        def failing(f, z):
            calls.append(1)
            raise RefinementError("no convergence")

        monkeypatch.setattr(experiments, "refine", failing)
        rep = run_entropy((2, 2), epsilon=0.1, runs=3, seed=0)
        assert (rep.root_hits, rep.failures, len(calls)) == ((0, 0, 0, 0), 3, 3)
        assert math.isnan(rep.entropy_bits)

    @pytest.mark.parametrize("offset, hit", [(0.995e-4, True), (1.005e-4, False)])
    def test_endpoint_over_1e_4_from_every_root_is_a_failed_run(self, monkeypatch, offset, hit):
        # Each run's refined endpoint moved offset away in d_R from the root
        # it refines to, on either side of the 1e-4 a hit may lie within.
        refined = experiments.refine

        def moved(f, z):
            zeta = refined(f, z)
            u = np.ones_like(zeta) - np.vdot(zeta, np.ones_like(zeta)) * zeta
            return math.cos(offset) * zeta + math.sin(offset) * u / np.linalg.norm(u)

        monkeypatch.setattr(experiments, "refine", moved)
        rep = run_entropy((2, 2), epsilon=0.1, runs=3, seed=0)
        assert (sum(rep.root_hits), rep.failures) == ((3, 0) if hit else (0, 3))

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            run_entropy((2, 2), runs=1, variant="nope")

    def test_unknown_variant_raises_before_the_reference_solve(self, monkeypatch):
        solves = []
        solve = experiments.solve_all_total_degree

        def counting(f, start):
            solves.append(1)
            return solve(f, start)

        monkeypatch.setattr(experiments, "solve_all_total_degree", counting)
        with pytest.raises(ValueError, match="unknown variant 'nope'"):
            run_entropy((2, 2), runs=1, variant="nope")
        assert solves == []


def test_random_pair_is_drawn_through_start_systems(monkeypatch):
    # Each run draws its random pair through the module attribute
    # start_systems.random_initial_pair, so a wrapper on it sees every draw.
    calls = []
    draw = start_systems.random_initial_pair

    def counting(degrees, rng):
        calls.append(tuple(degrees))
        return draw(degrees, rng)

    monkeypatch.setattr(start_systems, "random_initial_pair", counting)
    run_solve(katsura_system(2), "random", seed=0)
    assert calls == [(1, 2)]
    run_conjecture(1, trials=2, seed=0)
    assert calls == [(1, 2)] + [(2,)] * 2
    run_entropy((2, 2), epsilon=0.1, runs=3, seed=0)
    assert calls == [(1, 2)] + [(2,)] * 2 + [(2, 2)] * 3


class TestRunSolve:
    def test_total_start_all_paths(self):
        f = katsura_system(3)
        rows = run_solve(f, "total", seed=0)
        assert len(rows) == 4
        assert all(r.success for r in rows)

    def test_single_path_kinds(self):
        f = homogenize(katsura_system(3))
        for kind in ("good", "random"):
            rows = run_solve(f, kind, seed=0)
            assert len(rows) == 1
            assert rows[0].success
            target = normalize_to_sphere(f)
            root = refine(target, rows[0].endpoint)
            assert np.linalg.norm(evaluate(target, root)) <= 1e-10

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            run_solve(katsura_system(3), "weird")
