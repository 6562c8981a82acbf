"""Benchmark of the certitrack certified homotopy tracker.

Run from the root of a source checkout (nothing needs installing):

    python3 benchmarks/run.py --workload pair-compare-n3 --seed 0 --seconds 30 --trace 0

Workloads: katsura5-solve, pair-compare-n3, heuristic-222 (the ones in
BENCHMARK.json), td-random-222 (run by hand: too unsteady for a bound; see
baseline.json), or ``all`` for each in turn (then peak_rss_mb is the peak so
far in the one process).  One process, one thread of work.

The work of a run is a fixed number of items, sized from --seconds by each
workload's nominal rate (items_per_s, measured on a 2-core x86-64 VM), so a
run lasts about --seconds there.  The count depends on --seconds alone, never
on the clock, so two runs of one seed attempt the same paths and fail the same
ones however fast the machine is that day.

--trace 0 measures the end-to-end metrics: set-up is repeated and its median
reported, then the work items run in order, and the outputs are checked
outside the timed region.  Every time in them is corrected for the drifting
speed of a shared machine by a reference loop timed between paths (see
speed.py); the uncorrected figures are printed beside them.

--trace 1 gives the per-layer metrics: a fixed number of passes over the
workload's prefix, each item run untraced and then traced, the traced run
with a span around every public function of each layer (see tracing.py).

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  Per-path rows,
the step-count digest and, when traced, every span are written under
benchmarks/out/.  Exits 2 without a result when the certitrack sources are
not in src/ of the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_MIN_REPS = 7
SETUP_MIN_SECONDS = 0.5
# A run stops adding items after this long, so that it ends well within
# 180 s even on a machine (or a change) several times slower than nominal.
DEADLINE_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s", "us_per_step": "us", "paths_per_s": "1/s", "path_ms_p50": "ms",
    "path_ms_p90": "ms", "solve_s_p50": "s", "steps_per_path": "steps",
    "success_frac": "frac", "peak_rss_mb": "MB",
}
# Per-layer units follow from the metric name's suffix.
SUFFIX_UNITS = (
    ("self_us_per_step", "us/step"), ("calls_per_step", "1/step"), ("us_per_call", "us"),
    ("ms_per_call", "ms"), ("self_ms", "ms"), ("iters_per_call", "1/call"), ("calls", "count"),
    ("singular", "count"), ("failed", "count"), ("_frac", "frac"), ("per_attempt", "frac"),
)


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return next(u for suffix, u in SUFFIX_UNITS if name.endswith(suffix))


@dataclass
class Item:
    k: int
    paths: list
    seconds: float
    start: float


def run_item(workload, inputs, k: int, pause=lambda: None) -> Item:
    t0 = time.perf_counter()
    paths = workload.run_item(inputs, k, pause)
    return Item(k, paths, time.perf_counter() - t0, t0)


def item_count(workload, seconds: float) -> int:
    """Work items of one run: as many as the workload's nominal rate fits in
    `seconds`, and at least its fixed prefix."""
    return max(workload.prefix, int(seconds * workload.items_per_s))


def timed_run(workload, inputs, seconds: float, pause=lambda: None):
    """Items 0, 1, ..., item_count - 1 in order, and the (start, end) of the
    run.  Past the prefix a run that would outlast DEADLINE_S stops early,
    which only a far slower machine or program than nominal reaches."""
    items = []
    t_start = time.perf_counter()
    for k in range(item_count(workload, seconds)):
        elapsed = time.perf_counter() - t_start
        if k >= workload.prefix and elapsed + elapsed / k > DEADLINE_S:
            print(f"  stopped after {k} items at the {DEADLINE_S:g} s deadline")
            break
        items.append(run_item(workload, inputs, k, pause))
    return items, (t_start, time.perf_counter())


def gate(workload, inputs, items: list[Item]) -> list[str]:
    """Check every path outside the timed region; set each path's ok flag.

    An item whose inputs were already run (a cycled pool, or the traced twin
    of an untraced item) must give bitwise the same outcome as the first time.
    Returns the reasons the program's output is wrong, if any.
    """
    wrong = []
    first = {}
    for item in items:
        key = item.k % workload.pool
        outcome = [(p.status, p.steps, p.endpoint.tobytes()) for p in item.paths]
        if key in first:
            if outcome != first[key][0]:
                wrong.append(f"item {item.k}: repeated inputs gave a different outcome")
            path_ok = first[key][1]
        else:
            verdict = workload.check(inputs, item.k, item.paths)
            path_ok = verdict.path_ok
            wrong += [f"item {item.k}: {w}" for w in verdict.wrong]
            first[key] = (outcome, path_ok)
        for p, ok in zip(item.paths, path_ok):
            p.ok = ok
    return wrong


def digest(items: list[Item]) -> str:
    """Hash of (item, path, status, steps) over the given items."""
    h = hashlib.sha256()
    for item in items:
        for i, p in enumerate(item.paths):
            h.update(f"{item.k}:{i}:{p.status}:{p.steps}\n".encode())
    return h.hexdigest()[:16]


def end_to_end(setup_spans, items, seconds) -> dict[str, float]:
    """The end-to-end metrics; `seconds(t0, t1)` gives the time of an
    interval (corrected for machine speed, or not).  The items of a run go
    back to back, so their times add up to its timed wall time."""
    paths = [p for it in items for p in it.paths]
    item_s = [seconds(it.start, it.start + it.seconds) for it in items]
    path_ms = [1e3 * seconds(p.start, p.start + p.seconds) for p in paths]
    success_steps = [p.steps for p in paths if p.success]
    return {
        "setup_s": statistics.median(seconds(*s) for s in setup_spans),
        "us_per_step": 1e6 * sum(item_s) / max(1, sum(p.steps for p in paths)),
        "paths_per_s": sum(p.ok for p in paths) / sum(item_s),
        "path_ms_p50": float(np.percentile(path_ms, 50)),
        "path_ms_p90": float(np.percentile(path_ms, 90)),
        "solve_s_p50": statistics.median(item_s),
        "steps_per_path": statistics.fmean(success_steps) if success_steps else 0.0,
        "success_frac": sum(p.ok for p in paths) / len(paths),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, item_roots, setup_root, one_pass, workload, npass, untraced_s, traced_s):
    """Per-layer metrics of the traced items.  Counts and per-step figures
    are per pass over the prefix; per-call times cover every traced call,
    the traced set-up included.  Also returns the expected spans that never
    fired."""
    import tracing

    S = tracing.summarize(tracer, item_roots)
    A = tracing.summarize(tracer, item_roots + [setup_root])

    def s(name):
        return S.get(name, tracing.EMPTY)

    def per_call(name, scale):
        a = A.get(name, tracing.EMPTY)
        return scale * a["total_s"] / a["calls"] if a["calls"] else 0.0

    def ratio(x, y):
        return x / y if y else 0.0

    paths = [p for it in one_pass for p in it.paths]
    steps = sum(p.steps for p in paths)
    loop_steps = npass * steps if workload.certified else 0
    wall, covered = tracing.root_coverage(tracer, item_roots)
    track_self = s("tracker.track_path")["self_s"] + s("tracker.track_linear")["self_s"]
    m = {
        "tracker.track.self_us_per_step": 1e6 * ratio(track_self, loop_steps),
        "tracker.make_linear_homotopy.us_per_call": per_call("tracker.make_linear_homotopy", 1e6),
        "tracker.wasted_step_frac": ratio(sum(p.steps for p in paths if not p.ok), steps),
    }
    for name in ("linalg.lu_factor_checked", "linalg.lu_solve"):
        m[f"{name}.calls_per_step"] = ratio(s(name)["loop_calls"], loop_steps)
        m[f"{name}.us_per_call"] = per_call(name, 1e6)
        m[f"{name}.self_us_per_step"] = 1e6 * ratio(s(name)["loop_self_s"], loop_steps)
    m["linalg.lu_factor_checked.singular"] = s("linalg.lu_factor_checked")["raised"] / npass
    m["numpy.linalg.svd.us_per_call"] = per_call("numpy.linalg.svd", 1e6)
    m["numpy.linalg.svd.self_us_per_step"] = 1e6 * ratio(s("numpy.linalg.svd")["loop_self_s"], loop_steps)
    for name in ("polysys.evaluate", "polysys.jacobian", "linalg.bordered_solve",
                 "newton.newton_projective", "newton.refine", "bw.riemann_distance"):
        m[f"{name}.calls"] = s(name)["calls"] / npass
    for name in ("polysys.evaluate", "polysys.jacobian", "linalg.make_bordered",
                 "linalg.bordered_solve", "newton.newton_projective", "heuristic.predict",
                 "heuristic.correct", "newton.condition_mu", "bw.normalize_to_sphere"):
        m[f"{name}.us_per_call"] = per_call(name, 1e6)
    for name in ("start_systems.total_degree_start", "start_systems.random_initial_pair",
                 "bw.unitary_compose"):
        m[f"{name}.ms_per_call"] = per_call(name, 1e3)
    # One predict call per heuristic attempt; num_steps counts accepted ones.
    m["heuristic.accepted_per_attempt"] = (
        0.0 if workload.certified else ratio(npass * steps, s("heuristic.predict")["calls"])
    )
    refine = s("newton.refine")
    m["newton.refine.iters_per_call"] = ratio(s("newton.newton_projective")["under_refine"], refine["calls"])
    m["newton.refine.failed"] = refine["raised"] / npass
    solve_all = s("start_systems.solve_all_total_degree")
    m["start_systems.solve_all_total_degree.self_ms"] = 1e3 * ratio(solve_all["self_s"], solve_all["calls"])
    m["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    m["trace.untracked_frac"] = 1.0 - covered / wall
    missing = [n for n in workload.expected_spans if A.get(n, tracing.EMPTY)["calls"] == 0]
    return m, missing


def result_line(correct: bool, paths, metrics) -> dict:
    return {
        "correct": correct,
        "attempted": len(paths),
        "failed": sum(1 for p in paths if not p.ok),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }


def untraced(workload, args):
    import speed

    probe = speed.SpeedProbe()
    setup_spans = []
    while len(setup_spans) < SETUP_MIN_REPS or sum(e - s for s, e in setup_spans) < SETUP_MIN_SECONDS:
        probe.maybe_sample()
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed)
        setup_spans.append((t0, time.perf_counter()))
    probe.sample()
    gc.collect()
    items, span = timed_run(workload, inputs, args.seconds, probe.maybe_sample)
    probe.sample()
    wrong = gate(workload, inputs, items)
    metrics = end_to_end(setup_spans, items, probe.seconds)
    raw = end_to_end(setup_spans, items, lambda t0, t1: probe.seconds(t0, t1, corrected=False))
    paths = [p for it in items for p in it.paths]
    notes = [f"{len(items)} items ({workload.prefix} in the fixed prefix), {len(paths)} paths,"
             f" {span[1] - span[0]:.2f} s timed; set-up median of {len(setup_spans)}",
             f"speed: {len(probe.factor)} reference samples, median correction factor"
             f" {probe.median_factor():.4f}; uncorrected: "
             + ", ".join(f"{k} {raw[k]:.6g}" for k in ("setup_s", "us_per_step", "paths_per_s",
                                                        "path_ms_p50", "solve_s_p50"))]
    return result_line(not wrong, paths, metrics), items, notes + wrong


def traced(workload, args, stem):
    """Passes over the fixed prefix; each item runs untraced and then traced,
    back to back, so that drift in machine speed cancels in the overhead.
    A pass costs up to four times its items untraced (the heuristic's many
    small calls make tracing dear), so the number of passes is a quarter of
    what item_count allows, and at least one."""
    import tracing

    inputs = workload.setup(args.seed)
    tracer = tracing.Tracer()
    with tracing.install(tracer), tracer.span("bench.setup"):
        workload.setup(args.seed)
    setup_root = 0
    gc.collect()
    item_roots, all_items, untraced_s, traced_s = [], [], 0.0, 0.0
    passes = max(1, item_count(workload, args.seconds) // (4 * workload.prefix))
    for _ in range(passes):
        one_pass = []
        for k in range(workload.prefix):
            plain = run_item(workload, inputs, k)
            with tracing.install(tracer):
                item_roots.append(len(tracer))
                with tracer.span("bench.item"):
                    one_pass.append(run_item(workload, inputs, k))
            untraced_s += plain.seconds
            traced_s += one_pass[-1].seconds
            all_items += [plain, one_pass[-1]]
    wrong = gate(workload, inputs, all_items)
    metrics, missing = per_layer(tracer, item_roots, setup_root, one_pass, workload,
                                 passes, untraced_s, traced_s)
    tracer.dump(stem.with_suffix(".spans.npz"))
    wrong += [f"span {name} never fired: its wrapper is not where callers look it up"
              for name in missing]
    paths = [p for it in all_items for p in it.paths]
    notes = [f"{passes} passes of {workload.prefix} items, each run untraced then traced;"
             f" {len(tracer)} spans"]
    return result_line(not wrong, paths, metrics), one_pass, notes + wrong


def run_workload(workload, args) -> dict:
    """Run one workload, write its rows under out/, print its human-readable
    lines, and return its result object."""
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    result, items, notes = traced(workload, args, stem) if args.trace else untraced(workload, args)
    prefix = items[: workload.prefix]
    step_digest = digest(prefix)
    recorded = json.loads((HERE / "baseline.json").read_text())["digests"]
    expected = recorded.get(workload.name, {}).get(str(args.seed))
    if expected is None:
        notes.append(f"step digest {step_digest} (none recorded for seed {args.seed})")
    elif expected == step_digest:
        notes.append(f"step digest {step_digest} matches the recorded baseline")
    else:
        notes.append(f"STEP DIGEST CHANGED: {step_digest}, recorded {expected}")
    rows = [
        {"item": it.k, "path": i, "status": p.status, "steps": p.steps,
         "seconds": p.seconds, "ok": p.ok}
        for it in items for i, p in enumerate(it.paths)
    ]
    stem.with_suffix(".json").write_text(json.dumps(
        {"workload": workload.name, "seed": args.seed, "digest": step_digest,
         "prefix_items": len(prefix), "result": result, "notes": notes, "paths": rows},
        indent=1,
    ))
    print(f"{workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in notes:
        print("  " + line)
    print(f"  correct={result['correct']} attempted={result['attempted']} failed={result['failed']}"
          f" failed_frac={result['failed'] / result['attempted']:.4f}")
    for name, v in result["metrics"].items():
        print(f"  {name:48s} {v['value']:.6g} {v['unit']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all' for each in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "certitrack" / "__init__.py").is_file():
        print(f"benchmark: no certitrack sources in {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)} or 'all'")
    results = {name: run_workload(workloads.WORKLOADS[name](), args) for name in names}
    # With 'all', the last line maps each workload to its result object.
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
