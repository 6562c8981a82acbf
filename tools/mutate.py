"""Mutation check of Tier-1: which test fails on each of a fixed set of mutants.

    python tools/mutate.py           # run every mutant, check the run against the last one, record it
    python tools/mutate.py --check   # run the last run's kills the same way; record nothing

A mutant is one small edit of src/certitrack/*.py: + and - swapped, * and /
swapped, < and <= (or > and >=) swapped, a `not` dropped, or a number moved
by 1 (an int) or by 1% (a float).  The set is drawn once, by SEED, from every
such site of the tree it is drawn on, plus PINNED; tools/mutants.json keeps
it, so later trees run the same mutants.  A mutant names its site by module,
enclosing definition, edit and source text, and the count of like sites
before it there, so it survives edits elsewhere; a site that is gone runs as
"gone".

Both modes work in a temporary copy of the checkout (the working tree is
never edited), and first require the full Tier-1 to pass there unmutated.
The last run is the last recorded run of another tree (named by git
describe).  run_mutant runs each mutant: the killer the last run recorded
for it alone (for a collection kill, the killing module), and the full
Tier-1 with -x only when that test passes or no killer is recorded.  A
mutant is killed exactly when some test fails, so the verdict is the one a
full pass gives; its entry is the recorded killer while that still fails,
else the first test to fail.  Both modes exit 1 naming each kill of the
last run that this run does not make.

The recording runs every mutant and appends {"tree", "killed", "results"}
to "runs" (replacing a run of the same tree), so the first run is of the
tree the set was drawn on.  --check runs only the kills of the last run and
records nothing.  A survivor that no input tells from the source carries
its reason as "equivalent", which runs keep.
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


def tier1(copy: Path, timeout: float, tests=()) -> tuple[str | None, float]:
    """The first test that fails in the copy, as "module.Class::test" (None
    when all pass, "timeout" past timeout s, "exit N" when pytest exits N
    with no test failed), and the seconds taken: Tier-1, or the given
    pytest node ids alone."""
    report = copy / "tier1.xml"
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--continue-on-collection-errors", f"--junitxml={report}", *tests]
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


def collect(copy: Path) -> set[str]:
    # The node ids of the tests pytest collects in the copy.
    listing = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"],
                             cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
                             capture_output=True, text=True).stdout
    return set(listing.splitlines())


def node_id(copy: Path, killer: str | None, collected: set[str]) -> str | None:
    """The pytest node id of a recorded killer "module.Class::test" among
    the copy's collected ids or, for a collection kill "::module", of its
    module file; None for no killer, a timeout, an exit code or a test that
    is gone."""
    classname, sep, name = (killer or "").partition("::")
    if not sep:
        return None
    if not classname:
        classname, name = name, None
    parts = classname.split(".")
    for k in range(len(parts), 0, -1):
        path = "/".join(parts[:k]) + ".py"
        if (copy / path).is_file():
            test = "::".join([path, *parts[k:], *([name] if name else [])])
            return test if name is None or test in collected else None
    return None


@contextlib.contextmanager
def checkout_copy():
    # A temporary copy of the checkout that imports its own certitrack.
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", "out"))
        where = subprocess.run([sys.executable, "-c", "import certitrack; print(certitrack.__file__)"],
                               cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
                               capture_output=True, text=True).stdout
        if not where.startswith(str(copy)):
            sys.exit(f"the copy imports certitrack from {where!r}")
        yield copy


def run_mutant(copy: Path, m: dict, change, killer: str | None, timeout: float) -> tuple[str | None, float]:
    """Mutant m's entry, as tier1 names a test ("gone" when its site,
    change, is None), and the seconds taken: with m's edit applied to the
    copy, the killer's node id alone first, and the full Tier-1 only when
    that passes or there is no killer."""
    if change is None:
        return "gone", 0.0
    path = copy / "src" / "certitrack" / m["module"]
    original = path.read_bytes()
    start, end, new, _ = change
    path.write_bytes(original[:start] + new + original[end:])
    try:
        failed, took = tier1(copy, timeout, [killer]) if killer else (None, 0.0)
        if failed is None or failed.startswith("exit"):
            failed, more = tier1(copy, timeout)
            took += more
    finally:
        path.write_bytes(original)
    return failed, took


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        sys.exit(__doc__)
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {"seed": SEED, "mutants": draw(ROOT), "runs": []}
    label = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True,
                           text=True).stdout.strip() or "unknown"
    earlier = [r for r in record["runs"] if r["tree"] != label]
    if argv and not earlier:
        sys.exit("no recorded run to check")
    last = earlier[-1] if earlier else {"tree": "no tree", "results": {}}
    kills = {i for i, r in last["results"].items() if r not in (None, "gone")}
    table = site_table(ROOT)
    began = time.monotonic()
    with checkout_copy() as copy:
        failed, base = tier1(copy, 3600)
        if failed is not None:
            sys.exit(f"Tier-1 fails unmutated: {failed}")
        tests = collect(copy)
        results = {}
        for m in record["mutants"]:
            if argv and m["id"] not in kills:
                continue
            change = table.get((m["module"], m["scope"], m["edit"], m["text"], m["nth"]))
            killer = node_id(copy, last["results"].get(m["id"]), tests)
            results[m["id"]], took = run_mutant(copy, m, change, killer, max(300.0, 5 * base))
            print(f"{m['id']} {m['module']}:{m['scope']} {m['edit']} {m['text'][:40]!r}: "
                  f"{results[m['id']] or 'SURVIVED'} ({took:.0f} s)", flush=True)
    killed = sum(r not in (None, "gone") for r in results.values())
    lost = [i for i, r in results.items() if r is None and i in kills]
    print(f"{label}: {killed} of {len(results)} killed in {time.monotonic() - began:.0f} s")
    print(f"kills recorded for {last['tree']} that survive:", lost or "none")
    if not argv:
        record["runs"] = earlier + [{"tree": label, "killed": killed, "results": results}]
        RECORD.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
