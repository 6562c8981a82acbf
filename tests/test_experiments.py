import math

import numpy as np
import pytest

from certitrack import experiments, tracker
from certitrack.bw import normalize_to_sphere
from certitrack.experiments import (
    AmbiguousMatchError,
    PAIR_KINDS,
    conjecture_bound,
    entropy_target,
    katsura_system,
    match_roots,
    nearest_root,
    run_bench,
    run_conjecture,
    run_entropy,
    run_solve,
    shannon_entropy,
)
from certitrack.polysys import (
    evaluate,
    homogenize,
    space_dimension,
    unit_point,
)
from certitrack.start_systems import solve_all_total_degree


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
        report = solve_all_total_degree(katsura_system(n), np.random.default_rng(1))
        assert report.num_failed == 0
        assert len(report.endpoints) == count

    def test_pinned_step_counts(self):
        # (status, steps) of the Katsura-4 solve of test_solution_count[4-8]
        report = solve_all_total_degree(katsura_system(4), np.random.default_rng(1))
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

    def test_worker_count_is_capped_at_the_trials(self, monkeypatch):
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
        assert experiments._map_trials(abs, [-1, -2, -3], 4) == [1, 2, 3]
        assert sizes == [3]
        rep = run_bench("katsura", n=2, seed=0, threads=2)["certified"]
        assert rep.failures == 0
        assert sizes == [3]  # the one Katsura trial ran without a pool

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
        katsura = run_bench("katsura", n=3)["certified"].per_path
        assert [(p.status, p.steps) for p in katsura] == [
            ("Success", s) for s in (1087, 1162, 1354, 1484)
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

    @pytest.mark.parametrize(
        "family, kwargs, name",
        [
            ("katsura", {"n": 3, "trials": 5}, "trials"),
            ("katsura", {"n": 3, "degrees": (2, 2)}, "degrees"),
            ("random", {"degrees": (2, 2), "n": 3}, "n"),
        ],
    )
    def test_parameter_the_family_does_not_read_is_rejected(self, family, kwargs, name):
        with pytest.raises(ValueError, match=f"takes no {name}"):
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
        a = run_conjecture(2, trials=3, seed=4, threads=1)
        b = run_conjecture(2, trials=3, seed=4, threads=2)
        assert a == b

    def test_verify_bound_flags_nothing(self):
        reports = run_conjecture(2, trials=1, seed=3, verify_bound=True)
        assert all(r.bound_violations == 0 for r in reports)


class TestEntropyExperiment:
    def test_target_construction(self):
        f = entropy_target((2, 2, 2), 0.1, np.random.default_rng(0))
        from certitrack.bw import bw_norm

        assert bw_norm(f) == pytest.approx(1.0, abs=1e-12)

    def test_reference_roots_are_of_the_tracked_target(self, monkeypatch):
        # The total-degree reference paths and the histogram paths track one
        # system, bit for bit: entropy_target's.  Seed 1 is one where scaling
        # the target a second time changes its bits.
        import certitrack.experiments as experiments
        import certitrack.start_systems as start_systems

        targets = []

        def recording(module):
            track = module.track_path

            def wrapper(g, f, z0, opts):
                targets.append(f.coeff_vector().tobytes())
                return track(g, f, z0, opts)

            monkeypatch.setattr(module, "track_path", wrapper)

        recording(experiments)
        recording(start_systems)
        run_entropy((2, 2), epsilon=0.1, runs=2, seed=1)
        assert len(targets) == 4 + 2
        want = entropy_target((2, 2), 0.1, np.random.default_rng([1, 0]))
        assert set(targets) == {want.coeff_vector().tobytes()}

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

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            run_entropy((2, 2), runs=1, variant="nope")


class TestRunSolve:
    def test_total_start_all_paths(self):
        f = katsura_system(3)
        rows = run_solve(f, "total", seed=0)
        assert len(rows) == 4
        assert all(r.status == "Success" for r in rows)

    def test_single_path_kinds(self):
        f = homogenize(katsura_system(3))
        for kind in ("good", "random"):
            rows = run_solve(f, kind, seed=0)
            assert len(rows) == 1
            assert rows[0].status == "Success"
            target = normalize_to_sphere(f)
            from certitrack.newton import refine
            from certitrack.polysys import evaluate

            root = refine(target, rows[0].endpoint)
            assert np.linalg.norm(evaluate(target, root)) <= 1e-10

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            run_solve(katsura_system(3), "weird")
