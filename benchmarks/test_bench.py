"""Tests of the benchmark itself, at a small size:

    python3 -m pytest benchmarks/test_bench.py
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "td-random-222": lambda: workloads.TdRandom222(prefix=1, pool=1),
    "katsura5-solve": lambda: workloads.Katsura5Solve(n=3),
    "pair-compare-n3": lambda: workloads.PairCompareN3(prefix=1, pool=1),
    "heuristic-222": lambda: workloads.Heuristic222(prefix=1, pool=1),
}
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_two_runs_give_identical_step_digests(name):
    digests = []
    for _ in range(2):
        workload = SMALL[name]()
        inputs = workload.setup(3)
        items, _ = run.timed_run(workload, inputs, seconds=0.0)
        assert len(items) == workload.prefix
        assert run.gate(workload, inputs, items) == []
        digests.append(run.digest(items))
    assert digests[0] == digests[1]


def test_untraced_run_reports_every_end_to_end_metric():
    args = argparse.Namespace(seed=0, seconds=0.0)
    result, _, notes = run.untraced(SMALL["pair-compare-n3"](), args)
    assert result["correct"] and result["attempted"] == 3
    assert "median correction factor" in notes[1]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]
    ]


def test_traced_run_counts_two_factorizations_per_step(tmp_path):
    args = argparse.Namespace(seed=0, seconds=0.0)
    workload = SMALL["td-random-222"]()
    result, _, notes = run.traced(workload, args, tmp_path / "trace")
    assert result["correct"], notes
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert metrics["linalg.lu_factor_checked.calls_per_step"] == 2.0
    assert metrics["linalg.lu_solve.calls_per_step"] == 2.0
    spans = np.load(tmp_path / "trace.spans.npz")
    assert spans["start"].shape == spans["end"].shape == spans["parent"].shape


def test_install_patches_import_time_bindings_and_restores_them():
    import certitrack.heuristic as heuristic
    import certitrack.linalg as linalg

    original = linalg.bordered_solve
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        assert heuristic.bordered_solve is linalg.bordered_solve is not original
    assert heuristic.bordered_solve is linalg.bordered_solve is original


def test_work_per_run_depends_on_seconds_not_on_the_clock():
    outcomes = []
    for _ in range(2):
        workload = workloads.PairCompareN3(prefix=1, pool=2)
        workload.items_per_s = 2.0
        inputs = workload.setup(0)
        items, _ = run.timed_run(workload, inputs, seconds=1.0)
        outcomes.append([(p.status, p.steps) for it in items for p in it.paths])
    assert len(outcomes[0]) == 6
    assert outcomes[0] == outcomes[1]
