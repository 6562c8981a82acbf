"""tools/mutate.py's pass over the mutants, on a two-function checkout that
is its own copy, with tier1 and collect stubbed: no pytest run is started."""

import contextlib
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutate.py"
SOURCE = "def add(a, b):\n    return a + b\n\n\ndef sub(a, b):\n    return a - b\n"
ADD, SUB = "tests.test_calc::test_add", "tests.test_calc.TestSub::test_sub"
NODES = {ADD: "tests/test_calc.py::test_add", SUB: "tests/test_calc.py::TestSub::test_sub"}
# m00 and m01 swap the operators of add and sub; m02's site is in no source.
MUTANTS = [
    {"id": "m00", "module": "calc.py", "scope": "add", "edit": "+ to -", "text": "a + b", "nth": 0},
    {"id": "m01", "module": "calc.py", "scope": "sub", "edit": "- to +", "text": "a - b", "nth": 0},
    {"id": "m02", "module": "calc.py", "scope": "add", "edit": "* to /", "text": "a * b", "nth": 0},
]
M00, M01 = SOURCE.replace("a + b", "a - b"), SOURCE.replace("a - b", "a + b")


@pytest.fixture
def mutate():
    spec = importlib.util.spec_from_file_location("mutate", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def checkout(tmp_path, mutate, monkeypatch):
    """run(last, fails, *argv): main on the two-function checkout, whose
    last recorded run has the results last and on whose calc.py source the
    tests fails[source] fail, in suite order.  It returns main's exit code,
    the record's bytes before and after, and the tests of each tier1 call
    (() for the full suite)."""
    package = tmp_path / "src" / "certitrack"
    package.mkdir(parents=True)
    (package / "calc.py").write_text(SOURCE)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_calc.py").write_text("")
    record = tmp_path / "mutants.json"
    monkeypatch.setattr(mutate, "ROOT", tmp_path)
    monkeypatch.setattr(mutate, "RECORD", record)
    monkeypatch.setattr(mutate, "checkout_copy", lambda: contextlib.nullcontext(tmp_path))
    monkeypatch.setattr(mutate, "collect", lambda copy: set(NODES.values()))

    def run(last, fails, *argv):
        calls = []

        def tier1(copy, timeout, tests=()):
            calls.append(tuple(tests))
            failing = [t for t in fails.get((copy / "src" / "certitrack" / "calc.py").read_text(), [])
                       if not tests or NODES[t] in tests]
            return (failing[0] if failing else None), 1.0

        monkeypatch.setattr(mutate, "tier1", tier1)
        record.write_text(json.dumps({"seed": 0, "mutants": MUTANTS, "runs": [{"tree": "old", "results": last}]}))
        before = record.read_bytes()
        code = mutate.main(list(argv))
        assert (package / "calc.py").read_text() == SOURCE
        return code, before, record.read_bytes(), calls

    return run


def test_killer_runs_first_and_stays_while_it_fails(checkout):
    # SUB fails first in the suite, but m00's recorded killer ADD still fails.
    last = {"m00": ADD, "m01": None, "m02": "gone"}
    code, _, after, calls = checkout(last, {M00: [SUB, ADD]})
    assert code == 0
    assert calls[:2] == [(), (NODES[ADD],)]  # unmutated, then m00's killer alone
    assert json.loads(after)["runs"][-1]["results"]["m00"] == ADD


@pytest.mark.parametrize("killer", [ADD, None], ids=["killer-passes", "no-killer"])
def test_full_suite_runs_only_after_the_killer_passes(checkout, killer):
    code, _, after, calls = checkout({"m00": ADD, "m01": killer, "m02": "gone"}, {M00: [ADD], M01: [SUB]})
    assert code == 0
    assert calls == [(), (NODES[ADD],), *([(NODES[ADD],)] if killer else []), ()]
    assert json.loads(after)["runs"][-1]["results"] == {"m00": ADD, "m01": SUB, "m02": "gone"}


def test_missing_site_is_gone_and_runs_nothing(checkout):
    code, _, after, calls = checkout({"m00": None, "m01": None, "m02": ADD}, {})
    assert code == 0
    assert calls == [(), (), ()]  # unmutated, m00, m01
    assert json.loads(after)["runs"][-1]["results"]["m02"] == "gone"


@pytest.mark.parametrize("argv", [(), ("--check",)], ids=["record", "check"])
def test_lost_kill_exits_1(checkout, capsys, argv):
    code, *_ = checkout({"m00": ADD, "m01": None, "m02": "gone"}, {}, *argv)
    assert code == 1
    assert capsys.readouterr().out.splitlines()[-1] == "kills recorded for old that survive: ['m00']"


@pytest.mark.parametrize("argv", [(), ("--check",)], ids=["record", "check"])
def test_unmutated_failure_stops_the_run(checkout, argv):
    with pytest.raises(SystemExit, match="Tier-1 fails unmutated: tests.test_calc::test_add"):
        checkout({"m00": ADD, "m01": None, "m02": "gone"}, {SOURCE: [ADD]}, *argv)


def test_check_runs_the_kills_and_records_nothing(checkout):
    code, before, after, calls = checkout({"m00": ADD, "m01": None, "m02": "gone"}, {M00: [ADD]}, "--check")
    assert code == 0
    assert calls == [(), (NODES[ADD],)]
    assert after == before


@pytest.mark.parametrize(
    "killer, node",
    [
        (SUB, NODES[SUB]),
        (ADD, NODES[ADD]),
        ("::tests.test_calc", "tests/test_calc.py"),
        ("tests.test_calc::test_gone", None),
        ("timeout", None),
        (None, None),
    ],
    ids=["method", "module-level", "collection", "not-collected", "timeout", "none"],
)
def test_node_id(mutate, tmp_path, killer, node):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_calc.py").write_text("")
    assert mutate.node_id(tmp_path, killer, set(NODES.values())) == node
