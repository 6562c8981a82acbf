"""The package surface: certitrack.__all__ lists what the command line and
the benchmarks read from the top-level package, what a caller can set is
pinned, and no module imports a name it never reads."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import certitrack
from certitrack.cli import build_parser

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


def _optional_parameters() -> dict[str, list[str]]:
    # The parameters with a default of every public function of certitrack's
    # modules, by "module.function"; functions without one are left out.
    found = {}
    for path in sorted((ROOT / "src" / "certitrack").glob("*.py")):
        module = importlib.import_module(f"certitrack.{path.stem}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != module.__name__:
                continue
            params = inspect.signature(fn).parameters.values()
            optional = [p.name for p in params if p.default is not p.empty]
            if optional:
                found[f"{path.stem}.{name}"] = optional
    return found


def test_settable_surface_is_pinned():
    # Every optional parameter, option field and CLI flag a caller can set.
    # A new knob needs an edit here, with its reason given in CHANGES.md; a
    # value no caller changes is a module constant.
    assert _optional_parameters() == {
        "cli.main": ["argv"],
        "experiments.run_bench": ["degrees", "n", "trials", "trackers", "seed", "threads"],
        "experiments.run_conjecture": ["trials", "seed", "threads", "verify_bound"],
        "experiments.run_entropy": ["epsilon", "runs", "variant", "seed", "threads"],
        "experiments.run_solve": ["start_kind", "seed"],
        "heuristic.track_heuristic": ["opts"],
        "tracker.track_linear": ["opts"],
        "tracker.track_path": ["opts"],
    }
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


def test_one_options_class_for_both_trackers():
    assert certitrack.HeuristicOptions is certitrack.TrackerOptions


def _subparsers() -> dict:
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


def _linalg_norms(tree: ast.AST) -> list[int]:
    # Lines that reach numpy's linalg.norm: an attribute `<x>.linalg.norm`,
    # or `norm` imported from numpy.linalg.
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "norm"
                and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
                and any(a.name == "norm" for a in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


def test_vectors_have_one_norm():
    # Every module measures vectors (and unitary_compose its Frobenius
    # defect) with linalg.vector_norm: np.linalg.norm's bits without its
    # dispatch.
    assert _linalg_norms(ast.parse("a = np.linalg.norm(x)\nfrom numpy.linalg import norm")) == [1, 2]
    found = {path.name: _linalg_norms(ast.parse(path.read_text()))
             for path in sorted((ROOT / "src" / "certitrack").glob("*.py"))}
    assert found == {name: [] for name in found}


def _lapack_reaches(tree: ast.AST) -> list[int]:
    # Lines that reach NumPy's or SciPy's linear algebra: an attribute
    # `<x>.linalg.<name>`, or an import or from-import of numpy.linalg or
    # of scipy.
    def outside(module: str) -> bool:
        parts = module.split(".")
        return parts[0] == "scipy" or parts[:2] == ["numpy", "linalg"]

    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"):
            lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(outside(a.name) for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                outside(node.module) or (node.module == "numpy" and any(a.name == "linalg" for a in node.names))):
            lines.append(node.lineno)
    return sorted(lines)


def test_one_module_reaches_lapack():
    # linalg is the one door to NumPy's and SciPy's linear algebra: every
    # bordered solve is linalg.bordered_solve and every largest singular
    # value linalg.spectral_norm, so a wrapper on either sees them all.
    probe = ("a = np.linalg.svd(x)\nimport scipy.linalg\nfrom scipy.linalg.lapack import zgetrf\n"
             "from numpy import linalg\nimport numpy.linalg as la\nb = scipy.linalg.lu_factor(x)\n"
             "c = linalg.bordered_solve(B, r)\nfrom .linalg import vector_norm\nimport numpy as np\n")
    assert _lapack_reaches(ast.parse(probe)) == [1, 2, 3, 4, 5, 6]
    found = {path.name: _lapack_reaches(ast.parse(path.read_text()))
             for path in sorted((ROOT / "src" / "certitrack").glob("*.py"))}
    assert found.pop("linalg.py")
    assert found == {name: [] for name in found}


def test_the_reference_reads_only_the_layout():
    # tests/reference.py shares no code path with the engine: of certitrack
    # it imports the coefficient layout alone, and its algebra is mpmath's.
    tree = ast.parse((ROOT / "tests" / "reference.py").read_text())
    imported = {(getattr(node, "module", None), a.name) for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
    assert {(m, a) for m, a in imported if "certitrack" in f"{m}.{a}"} == {
        ("certitrack.polysys", "_layout"), ("certitrack.polysys", "homogeneous_exponents")}
    assert _lapack_reaches(tree) == []


def _singular_raises(tree: ast.AST) -> list[str]:
    # Names of the functions that raise SingularLinearSolveError (by name or
    # as an attribute, called or not), in source order.
    def is_singular(exc) -> bool:
        if isinstance(exc, ast.Call):
            exc = exc.func
        return (isinstance(exc, ast.Name) and exc.id == "SingularLinearSolveError") or (
            isinstance(exc, ast.Attribute) and exc.attr == "SingularLinearSolveError")

    return [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Raise) and is_singular(node.exc)
    ]


def test_one_singularity_policy():
    # A solve is singular only at an exact zero pivot (lu_factor_checked);
    # kernel_vector's rank check is not a solve.  A new raise site, such as
    # a floor on the pivots, needs an edit here, with its reason given in
    # CHANGES.md.
    probe = ("def f():\n    raise SingularLinearSolveError('x')\n"
             "def g():\n    raise linalg.SingularLinearSolveError")
    assert _singular_raises(ast.parse(probe)) == ["f", "g"]
    found = [
        f"{path.stem}.{name}"
        for path in sorted((ROOT / "src" / "certitrack").glob("*.py"))
        for name in _singular_raises(ast.parse(path.read_text()))
    ]
    assert found == ["linalg.lu_factor_checked", "linalg.kernel_vector"]


def _public_definitions(path: Path):
    # (qualified name, node) of every public module-level function and class
    # of path, and of every public method of those classes.
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item


def _names_read(path: Path) -> list[tuple[str, int, bool]]:
    # (name, line, read as an attribute) of every name and attribute the
    # file reads (Load context).
    return [
        (node.attr, node.lineno, True) if isinstance(node, ast.Attribute) else (node.id, node.lineno, False)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]


def _unread_public(sources: list[Path], readers: list[Path]) -> list[str]:
    # The public names of sources that no reader file reads, by name,
    # outside their own definition.  A method or property is read only
    # through an attribute; a bare name of the same spelling is another
    # variable.
    reads = {path: _names_read(path) for path in readers}
    unread = []
    for path in sources:
        for qualname, node in _public_definitions(path):
            name = qualname.rsplit(".", 1)[-1]
            method = qualname.count(".") == 2
            if not any(
                read == name and (attribute or not method)
                and not (where == path and node.lineno <= line <= node.end_lineno)
                for where, found in reads.items()
                for read, line, attribute in found
            ):
                unread.append(qualname)
    return unread


def test_unread_public_finds_a_name_read_only_in_its_own_definition(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def loop(n):\n    return loop(n - 1)\n"
        "class Box:\n    def size(self):\n        return self.size\n    def used(self):\n        pass\n"
        "    @property\n    def items(self):\n        return []\n"
        "def _private():\n    pass\n"
        "def _count(items):\n    return len(items)\n"
        "Box().used()\n"
    )
    assert _unread_public([probe], [probe]) == ["probe.loop", "probe.Box.size", "probe.Box.items"]


def test_every_public_name_is_read():
    # Every public function, class and method of certitrack is read by the
    # package or the benchmarks outside its own definition: the public API
    # is what the program uses, not what only the tests call.
    sources = sorted((ROOT / "src" / "certitrack").glob("*.py"))
    readers = sources + sorted((ROOT / "benchmarks").glob("*.py"))
    assert _unread_public(sources, readers) == []
