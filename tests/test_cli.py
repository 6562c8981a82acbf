import csv
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from certitrack import cli, experiments, start_systems, tracker
from certitrack.bw import riemann_distance
from certitrack.cli import build_parser, main
from certitrack.experiments import (
    ENTROPY_VARIANTS,
    START_KINDS,
    TRACKERS,
    katsura_system,
    run_bench,
    run_conjecture,
    run_entropy,
    run_solve,
)
from certitrack.linalg import SingularLinearSolveError
from certitrack.newton import RefinementError, certified_radius, refine
from certitrack.polysys import homogenize, parse_system_json
from certitrack.start_systems import good_system_raw, prepare_target, random_system_on_sphere
from system_io import affine_json, system_to_json


def usage_error(argv, capsys) -> str:
    """The last line of standard error from main(argv), which must exit 2
    without a traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err.strip().splitlines()[-1]


@pytest.fixture
def quad_system(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(system_to_json(random_system_on_sphere((2, 2), np.random.default_rng(40))))
    return path


class TestTrackPath:
    @pytest.mark.parametrize("index", ["-1", "4"])
    def test_rejects_index_outside_the_start_roots(self, quad_system, tmp_path, capsys, index):
        # a (2,2) system has 4 total-degree start roots, indices 0..3
        out = tmp_path / "trace.csv"
        argv = ["track", str(quad_system), "--path", index, "--out", str(out)]
        assert "--path must lie in [0, 4)" in usage_error(argv, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("start", ["good", "random"])
    @pytest.mark.parametrize("index", ["-1", "1", "5"])
    def test_single_root_starts_reject_any_index_but_0(
        self, quad_system, tmp_path, capsys, start, index
    ):
        out = tmp_path / "trace.csv"
        argv = ["track", str(quad_system), "--start", start, "--path", index, "--out", str(out)]
        assert "--path must lie in [0, 1)" in usage_error(argv, capsys)
        assert not out.exists()

    def test_tracks_the_last_root(self, quad_system, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["track", str(quad_system), "--path", "3", "--out", str(out)]) == 0
        assert out.read_text().startswith("step,s,t,phi,chi1,chi2,accepted")

    def test_appends_to_standard_output(self, quad_system, tmp_path):
        # `track SYSTEM >> out.csv` keeps what out.csv held.
        src = Path(__import__("certitrack").__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        out = tmp_path / "out.csv"
        out.write_text("earlier line\n")
        with open(out, "a") as fh:
            child = subprocess.run(
                [sys.executable, "-m", "certitrack.cli", "track", str(quad_system)],
                stdout=fh, stderr=subprocess.PIPE, env=env, text=True, timeout=300,
            )
        assert child.returncode == 0, child.stderr
        lines = out.read_text().splitlines()
        assert lines[:2] == ["earlier line", "step,s,t,phi,chi1,chi2,accepted,re0,re1,re2,im0,im1,im2"]
        assert f"steps={len(lines) - 2}" in child.stderr


class TestMultipleOfTheGoodSystem:
    # A target on the real line through the good start g: its positive
    # multiples are g on the sphere, its negative ones -g, where no great
    # circle is determined.
    @staticmethod
    def _argv(tmp_path, command, factor):
        system = tmp_path / "system.json"
        system.write_text(system_to_json(factor * good_system_raw((2, 2))))
        return [command, str(system), "--start", "good", "--out", str(tmp_path / "out.csv")]

    @pytest.mark.parametrize("command", ["track", "solve"])
    def test_negative_multiple_is_an_input_error(self, tmp_path, capsys, command):
        assert "start and target are aligned" in usage_error(self._argv(tmp_path, command, -1.0), capsys)
        assert not (tmp_path / "out.csv").exists()

    def test_positive_multiple_takes_no_step(self, tmp_path, capsys):
        assert main(self._argv(tmp_path, "track", 3.0)) == 0
        assert "status=Success steps=0" in capsys.readouterr().err
        assert main(self._argv(tmp_path, "solve", 3.0)) == 0
        assert _rows(tmp_path / "out.csv")[1][1:3] == ["Success", "0"]


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_solve_exits_1_when_every_path_fails(quad_system, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(tracker, "MAX_STEPS", 1)
    assert main(["solve", str(quad_system), "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err.strip().splitlines()[-1] == "0/4 paths succeeded"


@pytest.fixture(scope="module")
def katsura4_solutions(tmp_path_factory):
    # Katsura-4 at seed 0: scaling it onto the sphere a second time changes
    # its bits (Katsura-3's do not change), so a second scaling would show.
    root = tmp_path_factory.mktemp("katsura4")
    system = root / "katsura4.json"
    system.write_text(affine_json(katsura_system(4)))
    solved = {}

    def rows(start):
        if start not in solved:
            out = root / f"solve-{start}.csv"
            assert main(["solve", str(system), "--start", start, "--out", str(out)]) == 0
            solved[start] = _rows(out)[1:]
        return solved[start]

    return system, rows


class TestTrackReproducesSolve:
    @pytest.mark.parametrize(
        "start,index", [("total", i) for i in range(8)] + [("good", 0), ("random", 0)]
    )
    def test_last_trace_row_is_the_solve_row(self, katsura4_solutions, tmp_path, start, index):
        system, solve_rows = katsura4_solutions
        path, status, steps, *coords = solve_rows(start)[index]
        assert (path, status) == (str(index), "Success")
        out = tmp_path / "trace.csv"
        argv = ["track", str(system), "--start", start, "--path", str(index), "--out", str(out)]
        assert main(argv) == 0
        last = _rows(out)[-1]
        assert last[0] == steps
        assert last[7:] == coords


SUBCOMMANDS = {
    "solve": (
        ["solve", "SYSTEM"],
        ["path", "status", "steps", "re0", "re1", "re2", "im0", "im1", "im2"],
    ),
    "bench": (
        ["bench", "--family", "random", "--degrees", "2,2", "--trials", "2"],
        ["trial", "path", "tracker", "status", "steps"],
    ),
    "conjecture": (
        ["conjecture", "--n", "2", "--trials", "2"],
        ["kind", "n", "trials", "mean_steps", "variance_steps", "failures", "bound"],
    ),
    "entropy": (["entropy", "--degrees", "2,2", "--runs", "4"], ["root", "hits"]),
}


class TestAffineFile:
    @pytest.mark.parametrize("start", ["total", "random"])
    def test_solve_equals_the_homogenized_file(self, tmp_path, start):
        # An affine file is homogenized as it is read: solving it and its
        # homogenization written out writes the same bytes.
        f = katsura_system(3)
        outputs = []
        for name, text in [("affine", affine_json(f)), ("homogeneous", system_to_json(homogenize(f)))]:
            system = tmp_path / f"{name}.json"
            system.write_text(text)
            out = tmp_path / f"{name}.csv"
            assert main(["solve", str(system), "--start", start, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(_rows(tmp_path / "affine.csv")) == (5 if start == "total" else 2)


class TestSubcommands:
    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_reruns_write_identical_bytes(self, quad_system, tmp_path, command):
        argv, header = SUBCOMMANDS[command]
        argv = [str(quad_system) if a == "SYSTEM" else a for a in argv]
        outputs = []
        for run in range(2):
            out = tmp_path / f"run{run}.csv"
            assert main(argv + ["--seed", "3", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        rows = _rows(tmp_path / "run0.csv")
        assert rows[0] == header
        assert len(rows) > 1


class TestInputErrors:
    """Bad flag values end in an argparse message and exit 2, no traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bench", "--family", "random"], "--family random needs --degrees"),
            (["bench", "--family", "katsura"], "--family katsura needs --n of at least 2"),
            (["bench", "--family", "katsura", "--n", "1"], "--family katsura needs --n of at least 2"),
            (["bench", "--family", "random", "--degrees", "2,x"], "argument --degrees: expected positive integers"),
            (["bench", "--family", "random", "--degrees", "0"], "argument --degrees: expected positive integers"),
            (["entropy", "--degrees", "2,x"], "argument --degrees: expected positive integers"),
            (["entropy", "--degrees", ","], "argument --degrees: expected positive integers"),
            (["conjecture", "--n", "0"], "argument --n: expected a positive integer"),
            (["bench", "--family", "random", "--degrees", "2,2", "--trials", "0"],
             "argument --trials: expected a positive integer"),
            (["bench", "--family", "random", "--degrees", "2,2", "--threads", "-3"],
             "argument --threads: expected a positive integer"),
            (["conjecture", "--n", "2", "--trials", "0"], "argument --trials: expected a positive integer"),
            (["conjecture", "--n", "2", "--threads", "0"], "argument --threads: expected a positive integer"),
            (["entropy", "--runs", "0"], "argument --runs: expected a positive integer"),
            (["entropy", "--runs", "-1"], "argument --runs: expected a positive integer"),
            (["entropy", "--threads", "0"], "argument --threads: expected a positive integer"),
            (["entropy", "--runs", "2", "--epsilon", "nan"], "argument --epsilon: expected a finite number"),
            (["entropy", "--runs", "2", "--epsilon", "inf"], "argument --epsilon: expected a finite number"),
            (["entropy", "--runs", "2", "--epsilon=-Infinity"], "argument --epsilon: expected a finite number"),
            (["entropy", "--runs", "2", "--epsilon", "x"], "argument --epsilon: expected a finite number"),
            (["conjecture", "--n", "1", "--trials", "1", "--seed", "-1"],
             "argument --seed: expected an integer in [0, 2**64)"),
            (["conjecture", "--n", "1", "--trials", "1", "--seed", "18446744073709551616"],
             "argument --seed: expected an integer in [0, 2**64)"),
            (["conjecture", "--n", "1", "--trials", "1", "--seed", "x"],
             "argument --seed: expected an integer in [0, 2**64)"),
            (["solve", "system.json", "--seed", "-1"], "argument --seed: expected an integer in [0, 2**64)"),
            # epsilon = 0 leaves the good system, whose zeros are singular:
            # its total-degree paths fail, so there are no reference roots.
            (["entropy", "--degrees", "2,2", "--epsilon", "0", "--runs", "1"],
             "no reference roots for --epsilon 0.0: 3 total-degree paths to the target failed"),
            # A flag the family does not read.
            (["bench", "--family", "katsura", "--n", "3", "--trials", "5"], "--family katsura takes no --trials"),
            (["bench", "--family", "katsura", "--n", "3", "--degrees", "2,2"],
             "--family katsura takes no --degrees"),
            (["bench", "--family", "random", "--degrees", "2,2", "--n", "3"], "--family random takes no --n"),
            # A system file whose degree 2.7 is no integer.
            (["solve", str(Path(__file__).with_name("degree_2_7.json"))],
             "degree_2_7.json': system record needs a 'degrees' list of positive integers"),
        ],
    )
    def test_exit_2_with_a_message(self, capsys, argv, message):
        assert message in usage_error(argv, capsys)

    def test_largest_seed_accepted(self, tmp_path):
        argv = ["conjecture", "--n", "1", "--trials", "1", "--seed", str(2**64 - 1)]
        assert main(argv + ["--out", str(tmp_path / "conjecture.csv")]) == 0

    def test_value_error_while_tracking_is_no_usage_error(self, monkeypatch, tmp_path):
        # Only bench's family rules are reported as usage errors.
        def failing(hom, z0, opts):
            raise ValueError("raised while tracking")

        monkeypatch.setattr(experiments, "track_linear", failing)
        argv = ["bench", "--family", "random", "--degrees", "1", "--trials", "1"]
        with pytest.raises(ValueError, match="raised while tracking"):
            main(argv + ["--out", str(tmp_path / "bench.csv")])


class TestUnwritableOut:
    """An --out that no CSV can be written to is refused when the flags are
    parsed: exit 2 with a message naming it, before any path is tracked, and
    no file is made."""

    COMMANDS = [
        ["solve", "SYSTEM"],
        ["track", "SYSTEM"],
        ["bench", "--family", "random", "--degrees", "2,2", "--trials", "1"],
        ["conjecture", "--n", "1", "--trials", "1"],
        ["entropy", "--degrees", "2,2", "--runs", "1"],
    ]

    @pytest.fixture(autouse=True)
    def untracked(self, monkeypatch):
        def tracking(*args, **kwargs):
            raise AssertionError("a path was tracked")

        for name in ("run_solve", "start_paths", "run_bench", "run_conjecture", "run_entropy"):
            monkeypatch.setattr(cli, name, tracking)

    @staticmethod
    def refused(argv, quad_system, out, capsys) -> str:
        argv = [str(quad_system) if a == "SYSTEM" else a for a in argv]
        return usage_error(argv + ["--out", str(out)], capsys)

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_missing_directory(self, argv, quad_system, tmp_path, capsys):
        out = tmp_path / "missing" / "rows.csv"
        message = self.refused(argv, quad_system, out, capsys)
        assert f"argument --out: expected a writable file in an existing directory, got {str(out)!r}" in message
        assert not out.parent.exists()

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_directory(self, argv, quad_system, tmp_path, capsys):
        out = tmp_path / "rows"
        out.mkdir()
        message = self.refused(argv, quad_system, out, capsys)
        assert f"argument --out: expected a writable file in an existing directory, got {str(out)!r}" in message
        assert list(out.iterdir()) == []


def test_choices_are_the_names_the_runs_dispatch_on():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices

    def choices(command, dest):
        return list(next(a for a in subparsers[command]._actions if a.dest == dest).choices)

    assert choices("solve", "start") == choices("track", "start") == list(START_KINDS)
    assert choices("bench", "tracker") == [*TRACKERS, "both"]
    assert choices("entropy", "variant") == list(ENTROPY_VARIANTS)


def test_flag_defaults_are_the_runs_defaults():
    # A flag and the parameter of the same name of its command's run have
    # one default, so a caller of run_bench, run_conjecture, run_entropy or
    # run_solve gets what the command does.
    runs = {"bench": run_bench, "conjecture": run_conjecture, "entropy": run_entropy, "solve": run_solve}
    subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
    defaults = [
        (f"{command} --{action.dest}", action.default, param.default)
        for command, run in runs.items()
        for action in subparsers[command]._actions
        if (param := inspect.signature(run).parameters.get(action.dest)) is not None
        and param.default is not param.empty
    ]
    assert len(defaults) == 15
    assert {flag: a for flag, a, _ in defaults} == {flag: b for flag, _, b in defaults}


class TestEntropyOutput:
    def test_one_root_prints_positive_zero_entropy(self, tmp_path, capsys):
        argv = ["entropy", "--degrees", "1,1", "--runs", "2", "--epsilon", "0"]
        assert main(argv + ["--out", str(tmp_path / "hits.csv")]) == 0
        assert "entropy_bits=0.000000 " in capsys.readouterr().err


class TestReadmeExample:
    def test_solve_reports_approximate_zeros(self, tmp_path):
        # The system of README.md, x^2 - y = 0, x + y - 2 = 0: solve reports
        # an approximate zero per path, within the certified radius of the
        # zero that Newton refinement converges to.
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = re.search(r"```json\n(.*?)```", readme.read_text(), re.S).group(1)
        system = tmp_path / "example.json"
        system.write_text(text)
        out = tmp_path / "solutions.csv"
        assert main(["solve", str(system), "--out", str(out)]) == 0
        rows = _rows(out)[1:]
        assert [row[1] for row in rows] == ["Success", "Success"]
        f = prepare_target(parse_system_json(text))
        roots = []
        for row in rows:
            coords = [float(c) for c in row[3:]]
            z = np.array(coords[:3]) + 1j * np.array(coords[3:])
            zeta = refine(f, z)
            assert riemann_distance(z, zeta) <= certified_radius(f, zeta)
            roots.append(zeta / zeta[0])
        expected = [np.array([1.0, 1.0, 1.0]), np.array([1.0, -2.0, 4.0])]
        for zeta, want in zip(roots, expected):
            assert np.max(np.abs(zeta - want)) <= 1e-12


class TestLinearSystem:
    @pytest.mark.parametrize("start", ["total", "good", "random"])
    def test_solve_from_every_start(self, tmp_path, start):
        system = tmp_path / "lin.json"
        system.write_text(
            '{"degrees": [1, 1], "terms": ['
            '[{"exponents": [1, 0, 0], "re": 1.0}, {"exponents": [0, 1, 0], "re": 2.0}], '
            '[{"exponents": [0, 0, 1], "re": 1.0}, {"exponents": [0, 1, 0], "re": -1.0}]]}'
        )
        out = tmp_path / "out.csv"
        assert main(["solve", str(system), "--start", start, "--out", str(out)]) == 0
        assert [row[1] for row in _rows(out)[1:]] == ["Success"]


class TestUnreadableSystem:
    @pytest.mark.parametrize("command", ["solve", "track"])
    @pytest.mark.parametrize(
        "content",
        [
            None,  # no such file
            "{not json",
            '{"degrees": [1]}',
            '{"degrees": [1], "terms": [[{"re": 1.0}]]}',
            '{"degrees": [1], "terms": [[{"exponents": [1, 0], "re": "x"}]]}',
            '{"degrees": [1], "terms": [[{"exponents": [1, 0], "re": NaN}]]}',
            '{"degrees": [1], "terms": [[{"exponents": [1, 0], "im": Infinity}]]}',
            '{"degrees": [1], "terms": [[{"exponents": [1, 0], "re": 1e400}]]}',
            # finite coefficients, but a zero norm: no scaling puts them on
            # the sphere
            '{"degrees": [2], "terms": [[]]}',
        ],
    )
    def test_reported_as_usage_error(self, tmp_path, capsys, command, content):
        system = tmp_path / "system.json"
        if content is not None:
            system.write_text(content)
        out = tmp_path / "out.csv"
        message = usage_error([command, str(system), "--out", str(out)], capsys)
        assert f"error: cannot load system file {str(system)!r}" in message
        assert not out.exists()


def _raising(error):
    def stand_in(*args):
        raise error

    return stand_in


class TestNearDoubleRoot:
    """(X1 - X0)(X1 - (1+eps) X0): two roots eps apart, of condition ~1/eps."""

    @staticmethod
    def _system(tmp_path, eps):
        system = tmp_path / "system.json"
        terms = [[{"exponents": [2, 0], "re": 1.0 + eps}, {"exponents": [1, 1], "re": -(2.0 + eps)},
                  {"exponents": [0, 2], "re": 1.0}]]
        system.write_text(json.dumps({"degrees": [2], "terms": terms}))
        return system

    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-6])
    def test_solved(self, tmp_path, capsys, eps):
        # refine's steps stall above REFINE_TOL, within the certified radius.
        out = tmp_path / "out.csv"
        assert main(["solve", str(self._system(tmp_path, eps)), "--out", str(out)]) == 0
        assert capsys.readouterr().err.strip().splitlines()[-1] == "2/2 paths succeeded"

    @pytest.mark.parametrize(
        "name, stand_in, message",
        [
            ("refine", _raising(RefinementError("no convergence")), "no convergence"),
            ("refine", _raising(SingularLinearSolveError("exact zero pivot")), "exact zero pivot"),
            # A radius past every distance puts the two roots in one cluster.
            ("certified_radius", lambda f, zeta: 1.0, "suspected path crossing"),
        ],
        ids=["refinement", "singular", "crossing"],
    )
    def test_rejected_endpoint_check_is_an_input_error(
        self, tmp_path, capsys, monkeypatch, name, stand_in, message
    ):
        monkeypatch.setattr(start_systems, name, stand_in)
        system = self._system(tmp_path, 1e-2)
        out = tmp_path / "out.csv"
        last = usage_error(["solve", str(system), "--out", str(out)], capsys)
        assert f"error: endpoint check of the solve of {str(system)!r} failed" in last
        assert message in last
        assert not out.exists()

    def test_closer_roots_end_without_a_traceback(self, tmp_path, capsys):
        # At eps = 1e-8 the last Newton step of a refined endpoint stays
        # above its certified radius on some OpenBLAS kernels (SkylakeX,
        # Haswell): the check rejects the solve, exit 2.  Where the steps
        # fall under REFINE_TOL (the Sandybridge and generic kernels) the
        # solve succeeds.  Either way, no traceback.
        system = self._system(tmp_path, 1e-8)
        out = tmp_path / "out.csv"
        try:
            code = main(["solve", str(system), "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        last = capsys.readouterr().err.strip().splitlines()[-1]
        if code == 2:
            assert f"error: endpoint check of the solve of {str(system)!r} failed" in last
            assert not out.exists()
        else:
            assert (code, last) == (0, "2/2 paths succeeded")


class TestExtremeCoefficients:
    """Systems whose squared coefficients overflow or go subnormal still scale
    onto the sphere."""

    @pytest.mark.parametrize("scale", ["1e-158", "1e-170", "1e200"])
    @pytest.mark.parametrize(
        "terms",
        [
            '[[{"exponents": [2, 0], "re": %s}, {"exponents": [0, 2], "re": -%s}]]',
            '[[{"exponents": [2], "re": %s}, {"exponents": [0], "re": -%s}]]',
        ],
        ids=["homogeneous", "affine"],
    )
    def test_solved(self, tmp_path, capsys, scale, terms):
        system = tmp_path / "system.json"
        system.write_text('{"degrees": [2], "terms": %s}' % (terms % (scale, scale)))
        out = tmp_path / "out.csv"
        assert main(["solve", str(system), "--out", str(out)]) == 0
        assert capsys.readouterr().err.strip().splitlines()[-1] == "2/2 paths succeeded"
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["status"] for row in rows] == ["Success", "Success"]
