"""The package surface: certitrack.__all__ lists what the command line and
the benchmarks read from the top-level package."""

import ast
from pathlib import Path

import certitrack

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


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
