import csv

import numpy as np
import pytest

from certitrack.cli import main
from certitrack.experiments import katsura_system
from certitrack.polysys import system_to_json
from certitrack.start_systems import random_system_on_sphere


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
        with pytest.raises(SystemExit) as exc:
            main(["track", str(quad_system), "--path", index, "--out", str(out)])
        assert exc.value.code == 2
        assert "--path must lie in [0, 4)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("start", ["good", "random"])
    @pytest.mark.parametrize("index", ["-1", "1", "5"])
    def test_single_root_starts_reject_any_index_but_0(
        self, quad_system, tmp_path, capsys, start, index
    ):
        out = tmp_path / "trace.csv"
        with pytest.raises(SystemExit) as exc:
            main(["track", str(quad_system), "--start", start, "--path", index, "--out", str(out)])
        assert exc.value.code == 2
        assert "--path must lie in [0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_tracks_the_last_root(self, quad_system, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["track", str(quad_system), "--path", "3", "--out", str(out)]) == 0
        assert out.read_text().startswith("step,s,t,phi,chi1,chi2,accepted")


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def katsura4_solutions(tmp_path_factory):
    # Katsura-4 at seed 0: scaling it onto the sphere a second time changes
    # its bits (Katsura-3's do not change), so a second scaling would show.
    root = tmp_path_factory.mktemp("katsura4")
    system = root / "katsura4.json"
    system.write_text(system_to_json(katsura_system(4)))
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
            # finite coefficients, but a norm that overflows or is zero: no
            # scaling puts them on the sphere
            '{"degrees": [2], "terms": [[{"exponents": [2, 0], "re": 1e200}, '
            '{"exponents": [0, 2], "re": -1e200}]]}',
            '{"degrees": [2], "terms": [[{"exponents": [2], "re": 1e200}, '
            '{"exponents": [0], "re": -1e200}]]}',
            '{"degrees": [2], "terms": [[]]}',
        ],
    )
    def test_reported_as_usage_error(self, tmp_path, capsys, command, content):
        system = tmp_path / "system.json"
        if content is not None:
            system.write_text(content)
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main([command, str(system), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        message = err.strip().splitlines()[-1]
        assert f"error: cannot load system file {str(system)!r}" in message
        assert not out.exists()

