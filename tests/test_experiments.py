import math

import numpy as np
import pytest

from certitrack import experiments, newton, start_systems, tracker
from certitrack.bw import bw_norm, normalize_to_sphere
from certitrack.experiments import (
    AmbiguousMatchError,
    PAIR_KINDS,
    conjecture_bound,
    katsura_system,
    match_roots,
    run_bench,
    run_conjecture,
    run_entropy,
    run_solve,
    shannon_entropy,
)
from certitrack.newton import RefinementError, certified_radius, refine
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
    @pytest.mark.parametrize("hits, want", [
        ([100] * 8, pytest.approx(3.0)),
        ([42], 0.0),
        ([0, 7, 0], 0.0),
        ([75, 25], pytest.approx(0.811278, abs=1e-6)),
        ([50, 0, 50], pytest.approx(1.0)),
    ], ids=["uniform-eight", "single-bucket", "single-bucket-among-zeros", "three-quarters-split",
            "zero-buckets-ignored"])
    def test_value(self, hits, want):
        # Never -0.0: -0.0 == 0.0, so only the sign shows one (printed "-0.000000").
        entropy = shannon_entropy(hits)
        assert entropy == want
        assert math.copysign(1.0, entropy) == 1.0

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

    @pytest.mark.parametrize("refs, message", [
        ([unit_point([1.0, 0.0]), unit_point([1.0, 1e-6])], "not separated"),
        ([], "reference root list is empty"),
    ], ids=["unseparated", "empty"])
    def test_references_rejected(self, refs, message):
        with pytest.raises(ValueError, match=message):
            match_roots([unit_point([1.0, 0.0])], refs)

    @pytest.mark.parametrize("gap, tie", [(0.995e-12, True), (1.005e-12, False)])
    def test_tie_tolerance_boundary(self, gap, tie):
        # On the line through e0 and e1 the distances are theta and
        # pi/2 - theta: their gap straddles TIE_TOL = 1e-12 by half a percent.
        theta = (math.pi / 2 - gap) / 2
        endpoint = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
        refs = [unit_point([1.0, 0.0]), unit_point([0.0, 1.0])]
        if tie:
            with pytest.raises(AmbiguousMatchError):
                match_roots([endpoint], refs)
        else:
            assert match_roots([endpoint], refs) == [0]

    def test_nearest_root_distance(self):
        # At d_R = atan(0.1) from e0 and pi/2 from e1 and e2.
        assert match_roots([unit_point([1.0, 0.1, 0.0])], self.refs) == [0]


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

    @pytest.mark.parametrize("n,count", [(3, 4)])  # Katsura-4's 8: test_pinned_step_counts
    def test_solution_count(self, n, count):
        report = solve_katsura(n)
        assert report.num_failed == 0
        assert len([r.endpoint for r in report.results if r.success]) == count

    def test_pinned_step_counts(self):
        # (status, steps) of the 8 paths of the Katsura-4 solve, every one a
        # solution
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
        katsura = run_bench("katsura", n=3)["certified"]
        assert katsura.failures == 0
        assert [(p.status, p.steps) for p in katsura.per_path] == [
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

    def test_one_homotopy_per_trial(self, spy):
        # Both trackers of a trial share one homotopy; track_path would
        # build one per certified path.
        built = spy(experiments, "make_linear_homotopy", tracker)
        run_bench("random", (2, 2), trials=2, seed=0, trackers=("certified", "heuristic"))
        assert len(built) == 2

    @pytest.mark.parametrize("trackers", [("nope",), ("certified", "nope")])
    def test_unknown_tracker_raises_before_tracking(self, spy, trackers):
        tracked = [spy(experiments, name) for name in ("track_linear", "track_heuristic")]
        with pytest.raises(ValueError, match="unknown tracker 'nope'"):
            run_bench("random", (2, 2), trials=1, trackers=trackers)
        assert tracked == [[], []]

    def test_validation(self):
        with pytest.raises(ValueError):
            run_bench("random", degrees=None)
        with pytest.raises(ValueError):
            run_bench("nope", degrees=(2,))

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

    def test_verify_bound_tracks_each_path_once(self, spy):
        # The bound integrates the trace of the path the trial tracked; the
        # oracle tracks nothing itself.
        calls = spy(experiments, "track_linear", tracker)
        reports = run_conjecture(2, trials=1, seed=3, verify_bound=True)
        assert all(r.failures == 0 and r.bound_violations == 0 for r in reports)
        assert [opts.record_trace for _, _, opts in calls] == [True] * len(PAIR_KINDS)


class TestEntropyExperiment:
    def test_rejected_endpoint_check_means_no_reference_roots(self, monkeypatch):
        def failing(f, z):
            raise RefinementError("no convergence")

        monkeypatch.setattr(newton, "refine", failing)
        with pytest.raises(experiments.ReferenceRootsError, match="endpoint check .* no convergence"):
            run_entropy((2, 2), epsilon=0.1, runs=1)

    @pytest.fixture
    def tracked_targets(self, spy):
        # The coefficient bytes of every target a path tracks, through the
        # track_path of the reference solve and of the histogram runs.
        calls = spy(experiments, "track_path", start_systems)
        return lambda: [f._vec.tobytes() for _, f, *_ in calls]

    @staticmethod
    def perturbed_good_system(degrees, epsilon, seed):
        # The target the run's docstring names, through prepare_target.
        h = random_system_on_sphere(degrees, np.random.default_rng([seed, 0]))
        return prepare_target(good_system_raw(degrees) + epsilon * h)

    def test_target_construction(self, tracked_targets):
        run_entropy((1, 2, 2), epsilon=0.1, runs=1, seed=0)
        want = self.perturbed_good_system((1, 2, 2), 0.1, 0)
        assert set(tracked_targets()) == {want._vec.tobytes()}
        assert bw_norm(want) == pytest.approx(1.0, abs=1e-12)

    def test_reference_roots_are_of_the_tracked_target(self, tracked_targets):
        # The total-degree reference paths and the histogram paths track one
        # system, bit for bit.  Seed 1 is one where scaling the target a
        # second time changes its bits.
        run_entropy((2, 2), epsilon=0.1, runs=2, seed=1)
        assert len(tracked_targets()) == 4 + 2
        want = self.perturbed_good_system((2, 2), 0.1, 1)
        assert set(tracked_targets()) == {want._vec.tobytes()}

    def test_small_entropy_run(self):
        for variant, seed in [("ball", 0), ("unitary", 1)]:
            rep = run_entropy((2, 2), epsilon=0.1, runs=12, variant=variant, seed=seed)
            assert len(rep.root_hits) == 4
            assert sum(rep.root_hits) + rep.failures == 12
            assert 0.0 <= rep.entropy_bits <= 2.0

    @staticmethod
    def refine_after_the_reference_solve(monkeypatch, stand_in):
        # newton.refine, where identify_roots and each run look it up,
        # becomes stand_in(refine, f, z) once the reference solve returns:
        # the references stay those of the unpatched solve.
        solve, refine = experiments.solve_all_total_degree, newton.refine

        def solve_then_patch(f, start):
            report = solve(f, start)
            monkeypatch.setattr(newton, "refine", lambda f, z: stand_in(refine, f, z))
            return report

        monkeypatch.setattr(experiments, "solve_all_total_degree", solve_then_patch)

    def test_endpoint_that_does_not_refine_is_a_failed_run(self, monkeypatch):
        calls = []

        def failing(refine, f, z):
            calls.append(1)
            raise RefinementError("no convergence")

        self.refine_after_the_reference_solve(monkeypatch, failing)
        rep = run_entropy((2, 2), epsilon=0.1, runs=3, seed=0)
        assert (rep.root_hits, rep.failures, len(calls)) == ((0, 0, 0, 0), 3, 3)
        assert math.isnan(rep.entropy_bits)

    @pytest.mark.parametrize("fraction, hit", [(0.995, True), (1.005, False)])
    def test_endpoint_outside_its_root_ball_is_a_failed_run(self, monkeypatch, fraction, hit):
        # Each run's refined endpoint moved in d_R from the root it refines
        # to by a fraction of that root's certified radius, just inside and
        # just outside the ball a hit lies in.
        def moved(refine, f, z):
            zeta = refine(f, z)
            offset = fraction * certified_radius(f, zeta)
            u = np.ones_like(zeta) - np.vdot(zeta, np.ones_like(zeta)) * zeta
            return math.cos(offset) * zeta + math.sin(offset) * u / np.linalg.norm(u)

        self.refine_after_the_reference_solve(monkeypatch, moved)
        rep = run_entropy((2, 2), epsilon=0.1, runs=3, seed=0)
        assert (sum(rep.root_hits), rep.failures) == ((3, 0) if hit else (0, 3))

    def test_reference_of_radius_0_takes_no_hit(self, monkeypatch):
        # Infinite mu at the reference root most runs hit gives it a ball of
        # radius 0: those runs fail, and the other references keep theirs.
        want = run_entropy((2, 2), epsilon=0.1, runs=12, seed=0)
        k = int(np.argmax(want.root_hits))
        assert want.root_hits[k] > 0
        f, start = experiments.start_paths(self.perturbed_good_system((2, 2), 0.1, 0), "total", 0)
        root = solve_all_total_degree(f, start).roots[k]
        condition_mu = newton.condition_mu
        monkeypatch.setattr(newton, "condition_mu",
                            lambda h, z: math.inf if np.array_equal(z, root) else condition_mu(h, z))
        rep = run_entropy((2, 2), epsilon=0.1, runs=12, seed=0)
        hits = list(want.root_hits)
        hits[k] = 0
        assert (list(rep.root_hits), rep.failures) == (hits, want.failures + want.root_hits[k])

    def test_unknown_variant_raises_before_the_reference_solve(self, spy):
        solves = spy(experiments, "solve_all_total_degree")
        with pytest.raises(ValueError, match="unknown variant 'nope'"):
            run_entropy((2, 2), runs=1, variant="nope")
        assert solves == []


@pytest.mark.parametrize("run", [
    lambda threads: run_bench("random", degrees=(2, 2), trials=3, seed=2, threads=threads)["certified"].per_path,
    lambda threads: [run_conjecture(2, trials=3, seed=4, threads=threads, verify_bound=verify_bound)
                     for verify_bound in (False, True)],
    lambda threads: run_entropy((2, 2), runs=6, seed=1, threads=threads),
], ids=["bench", "conjecture", "entropy"])
def test_thread_determinism(run):
    assert run(1) == run(2)


def test_random_pair_is_drawn_through_start_systems(spy):
    # Each run draws its random pair through the module attribute
    # start_systems.random_initial_pair, so a wrapper on it sees every draw.
    calls = spy(start_systems, "random_initial_pair")

    def drawn():
        return [tuple(degrees) for degrees, _ in calls]

    run_solve(katsura_system(2), "random", seed=0)
    assert drawn() == [(1, 2)]
    run_conjecture(1, trials=2, seed=0)
    assert drawn() == [(1, 2)] + [(2,)] * 2
    run_entropy((2, 2), epsilon=0.1, runs=3, seed=0)
    assert drawn() == [(1, 2)] + [(2,)] * 2 + [(2, 2)] * 3


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
