"""Mutation check of Tier-1: which test fails on each of a fixed set of mutants.

    python tools/mutate.py   # run the set, check it against the last run, record it

A mutant is one small edit of src/certitrack/*.py: + and - swapped, * and /
swapped, < and <= (or > and >=) swapped, a `not` dropped, or a number moved
by 1 (an int) or by 1% (a float).  The set is drawn once, by SEED, from every
such site of the tree it is drawn on, plus PINNED; tools/mutants.json keeps
it, so later trees run the same mutants.  A mutant names its site by module,
enclosing definition, edit and source text, and the count of like sites
before it there, so it survives edits elsewhere; a site that is gone runs as
"gone".  Each mutant runs Tier-1 with -x in a temporary copy of the checkout
(the working tree is never edited), and the first failing test is its
killer.  A run appends {"tree", "killed", "results"} to "runs" (replacing a
run of the same tree, named by git describe), so the first run is of the
tree the set was drawn on, and exits 1 naming each mutant that the last
recorded run of another tree killed and this one does not.  A survivor
that no input tells from the source carries its reason as "equivalent",
which runs keep.
"""

import ast
import contextlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from xml.etree import ElementTree

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "tools" / "mutants.json"
SEED, SAMPLE = 41, 60
# The 7 survivors of an earlier draw of 57 mutants (ROADMAP item 23), put in
# every set: (module, scope, edit, text, nth).
PINNED = [
    ("linalg.py", "kernel_vector", "*1.01", "1e-10 * s[0]", 0),
    ("linalg.py", "unitary_mapping_to_e0", "<= to <", "abs(vector_norm(zeta) - 1.0) <= 1e-10", 0),
    ("linalg.py", "unitary_mapping_to_e0", "+ to -",
     "rng.standard_normal((m, m - 1)) + 1j * rng.standard_normal((m, m - 1))", 0),
    ("experiments.py", "<module>", "*1.01", "TIE_TOL = 1e-12", 0),
    ("newton.py", "<module>", "+1", "REFINE_MAX_ITERS = 30", 0),
    ("cli.py", "build_parser", "+1", 'p.add_argument("--threads", type=_positive_int, default=1, help=_THREADS_HELP)', 0),
    ("polysys.py", "Evaluator.__init__", "+1", "n_powers + self.max_d + 1", 0),
]
SWAPS = {ast.Add: "+ to -", ast.Sub: "- to +", ast.Mult: "* to /", ast.Div: "/ to *",
         ast.Lt: "< to <=", ast.LtE: "<= to <", ast.Gt: "> to >=", ast.GtE: ">= to >"}


def sites(path: Path):
    """(scope, edit, text, (start, end, replacement)) of every site of a
    module, in source order.  text is the site's expression, or for a number
    the expression (else the statement line) around it."""
    data = path.read_bytes()
    lines = data.decode().splitlines()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def span(node):
        return (starts[node.lineno - 1] + node.col_offset,
                starts[node.end_lineno - 1] + node.end_col_offset)

    def swap(left, right, edit):
        # The operator token between two operands, swapped.
        old, new = edit.split(" to ")
        pos = data.index(old.encode(), span(left)[1], span(right)[0])
        return pos, pos + len(old), new.encode()

    found = []

    def visit(node, scope, around):
        if isinstance(node, ast.JoinedStr) or (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            return  # f-strings and docstrings
        text = " ".join(data[slice(*span(node))].decode().split()) if isinstance(node, ast.expr) else around
        if isinstance(node, ast.stmt):
            text = lines[node.lineno - 1].strip()
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            found.append((scope, SWAPS[type(node.op)], text, swap(node.left, node.right, SWAPS[type(node.op)])))
        elif isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                if type(op) in SWAPS:
                    found.append((scope, SWAPS[type(op)], text, swap(left, right, SWAPS[type(op)])))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            found.append((scope, "not", text, (span(node)[0], span(node)[0] + 3, b"")))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float) \
                and node.value * 1.01 != node.value:  # 1% of 0.0 moves nothing
            edit, new = ("+1", node.value + 1) if type(node.value) is int else ("*1.01", node.value * 1.01)
            found.append((scope, edit, around, (*span(node), repr(new).encode())))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        for child in ast.iter_child_nodes(node):
            visit(child, scope, text)

    visit(ast.parse(data), "<module>", "")
    return found


def site_table(root: Path) -> dict:
    # Every site of the tree, keyed as a mutant names it.
    table = {}
    for path in sorted((root / "src" / "certitrack").glob("*.py")):
        seen, data = {}, path.read_bytes()
        for scope, edit, text, change in sites(path):
            key = (path.name, scope, edit, text)
            seen[key] = seen.get(key, -1) + 1
            table[(*key, seen[key])] = (*change, data.count(b"\n", 0, change[0]) + 1)  # and its line
    return table


def draw(root: Path) -> list[dict]:
    table = site_table(root)
    keys = list(PINNED)
    missing = [k for k in keys if k not in table]
    if missing:
        sys.exit(f"pinned mutants not found: {missing}")
    keys += random.Random(SEED).sample(sorted(set(table) - set(keys)), SAMPLE)
    fields = ("module", "scope", "edit", "text", "nth")
    return [{"id": f"m{i:02d}", **dict(zip(fields, key)), "line": table[key][3]} for i, key in enumerate(keys)]


def tier1(copy: Path, timeout: float) -> tuple[str | None, float]:
    """The first test that fails in the copy, as "module.Class::test" (None
    when all pass, "timeout" past timeout s), and the seconds taken."""
    report = copy / "tier1.xml"
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--continue-on-collection-errors", f"--junitxml={report}"]
    began = time.monotonic()
    child = subprocess.Popen(argv, cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = "timeout"
    with contextlib.suppress(ProcessLookupError):
        os.killpg(child.pid, signal.SIGKILL)  # with the workers and children it left
    child.wait()
    took = time.monotonic() - began
    if code in (0, "timeout"):
        return code or None, took
    failed = [f"{case.get('classname')}::{case.get('name')}" for case in ElementTree.parse(report).iter("testcase")
              if case.find("failure") is not None or case.find("error") is not None]
    return (failed[0] if failed else f"exit {code}"), took


def main(argv: list[str]) -> int:
    if argv:
        sys.exit(__doc__)
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {"seed": SEED, "mutants": draw(ROOT), "runs": []}
    label = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True,
                           text=True).stdout.strip() or "unknown"
    table = site_table(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", "out"))
        where = subprocess.run([sys.executable, "-c", "import certitrack; print(certitrack.__file__)"],
                               cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
                               capture_output=True, text=True).stdout
        if not where.startswith(str(copy)):
            sys.exit(f"the copy imports certitrack from {where!r}")
        killer, base = tier1(copy, 3600)
        if killer is not None:
            sys.exit(f"Tier-1 fails unmutated: {killer}")
        results = {}
        for m in record["mutants"]:
            change = table.get((m["module"], m["scope"], m["edit"], m["text"], m["nth"]))
            if change is None:
                results[m["id"]] = "gone"
                continue
            path = copy / "src" / "certitrack" / m["module"]
            original = path.read_bytes()
            start, end, new, _ = change
            path.write_bytes(original[:start] + new + original[end:])
            try:
                results[m["id"]], took = tier1(copy, max(300.0, 5 * base))
            finally:
                path.write_bytes(original)
            print(f"{m['id']} {m['module']}:{m['scope']} {m['edit']} {m['text'][:40]!r}: "
                  f"{results[m['id']] or 'SURVIVED'} ({took:.0f} s)", flush=True)
    killed = sum(r not in (None, "gone") for r in results.values())
    print(f"{label}: {killed} of {len(results)} killed")
    earlier = [r for r in record["runs"] if r["tree"] != label]
    lost = []
    if earlier:
        last = earlier[-1]["results"]
        lost = [i for i, r in results.items() if r is None and last.get(i) not in (None, "gone")]
        print(f"kills recorded for {earlier[-1]['tree']} that survive:", lost or "none")
    record["runs"] = earlier + [{"tree": label, "killed": killed, "results": results}]
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
