"""The package surface: certitrack.__all__ lists what the command line and
the benchmarks read from the top-level package, and no module imports a
name it never reads."""

import ast
from pathlib import Path

import pytest

import certitrack

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "benchmarks" / "workloads.py"
# __init__ re-exports what it imports; __all__ lists those names.
CHECKED = sorted(
    p for p in [*(ROOT / "src" / "certitrack").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def _attributes_read(path: Path, name: str) -> set[str]:
    # Every `name.<attr>` in the file.
    tree = ast.parse(path.read_text())
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == name
    }


def test_all_is_a_list_of_resolvable_names():
    assert isinstance(certitrack.__all__, list)
    assert len(set(certitrack.__all__)) == len(certitrack.__all__)
    for name in certitrack.__all__:
        assert getattr(certitrack, name) is not None, name


def test_star_import_gives_exactly_all():
    namespace: dict = {}
    exec("from certitrack import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(certitrack.__all__)


def test_benchmark_workloads_read_only_listed_names():
    used = _attributes_read(WORKLOADS, "ct")
    assert used, "the workloads read nothing from the package"
    assert used <= set(certitrack.__all__), sorted(used - set(certitrack.__all__))


def _unread_imports(path: Path) -> list[str]:
    # Names bound by an import statement that no expression of the file reads
    # (`import a.b` binds `a`).
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    return sorted(imported - read)


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    assert _unread_imports(path) == []


def test_settable_surface_is_pinned():
    # Every option field and CLI flag a caller can set.  A new knob needs an
    # edit here, with its reason given in CHANGES.md.
    import dataclasses

    assert [f.name for f in dataclasses.fields(certitrack.TrackerOptions)] == ["record_trace"]
    assert [f.name for f in dataclasses.fields(certitrack.HeuristicOptions)] == ["record_trace"]
    flags = {
        name: sorted(opt for a in sub._actions for opt in (a.option_strings or [a.dest]))
        for name, sub in _subparsers().items()
    }
    common = ["--out", "--seed", "-h", "--help"]
    assert flags == {
        name: sorted(extra + common)
        for name, extra in {
            "solve": ["system", "--start"],
            "track": ["system", "--start", "--path"],
            "bench": ["--family", "--degrees", "--n", "--trials", "--tracker", "--threads"],
            "conjecture": ["--n", "--trials", "--verify-bound", "--threads"],
            "entropy": ["--degrees", "--epsilon", "--runs", "--variant", "--threads"],
        }.items()
    }


def _subparsers() -> dict:
    from certitrack.cli import build_parser

    parser = build_parser()
    return next(a for a in parser._actions if a.choices and a.dest == "command").choices


def _args_read(functions: dict[str, ast.FunctionDef], name: str) -> set[str]:
    # Every `args.<attr>` in the function `name`, and in the module functions
    # it passes `args` to, transitively.
    seen, todo, read = set(), [name], set()
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        for node in ast.walk(functions[fn]):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "args"):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in functions
                    and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)):
                todo.append(node.func.id)
    return read


def test_every_cli_flag_is_read():
    # A flag whose value no code reads is a dead knob: it parses and is ignored.
    tree = ast.parse((ROOT / "src" / "certitrack" / "cli.py").read_text())
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    unread = {}
    for name, sub in _subparsers().items():
        dests = {a.dest for a in sub._actions if a.dest != "help"}
        missing = dests - _args_read(functions, sub.get_default("func").__name__)
        if missing:
            unread[name] = sorted(missing)
    assert unread == {}
