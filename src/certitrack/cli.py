"""Command-line front end.

Subcommands:
  solve       track a target system from a chosen start (all paths for the
              total-degree start, one path otherwise); writes a solutions CSV.
              The total-degree solve checks its endpoints; a rejected check
              exits 2 with a message
  track       one path of solve, with its per-step trace CSV: both prepare the
              target and draw the start through experiments.start_paths, the
              one routine that does either, so the last row of
              `track --path i` is row i of solve bit for bit
  bench       average steps per path on random or Katsura targets, under
              experiments.check_bench's family rules
  conjecture  compare good / total-degree / random start pairs on random
              degree-2 targets
  entropy     root-hit histogram and Shannon entropy of the random start pair

--start, --tracker and --variant offer the names experiments dispatches on.

CSV columns are fixed per subcommand (see the writers below); floats are
printed with 17 significant digits so reruns with the same seed produce
byte-identical files.  Every CSV goes to --out, or to standard output
without it; an --out no file can be written to exits 2 before any path is
tracked.  Wall-clock times go to stderr, never into the CSV.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from pathlib import Path

from .experiments import (
    ENTROPY_VARIANTS,
    START_KINDS,
    TRACKERS,
    ReferenceRootsError,
    check_bench,
    run_bench,
    run_conjecture,
    run_entropy,
    run_solve,
    start_paths,
)
from .bw import unit_scale
from .polysys import parse_system_json
from .start_systems import ENDPOINT_CHECK_ERRORS
from .tracker import DegenerateHomotopyError, track_path

# Floats in CSV output: 17 significant digits give back every double exactly.
FLOAT_FMT = "%.17g"


def _load_system(args):
    """The system file of args, or an argparse error (exit 2) when it cannot
    be read or parsed, or when unit_scale cannot put it on the sphere (a
    zero, infinite or NaN norm, or 1 / ||h|| no float), so prepare_target
    could not."""
    try:
        system = parse_system_json(Path(args.system).read_text())
        unit_scale(system)
    except (OSError, ValueError) as exc:
        args.error(f"cannot load system file {args.system!r}: {exc}")
    return system


def _checked(convert, accept, expected: str):
    # An argparse type: convert(text) when it parses and accept holds for
    # it, or an error naming what was expected.
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


def _writable(text: str) -> bool:
    # --out's check, made when the flags are parsed, before any path is
    # tracked: a file can be written there.  No file is created.
    path = Path(text)
    return path.parent.is_dir() and not path.is_dir() and os.access(
        path if path.exists() else path.parent, os.W_OK)


_degree_list = _checked(
    lambda text: tuple(int(d) for d in text.split(",")),
    lambda degrees: min(degrees) >= 1,
    "positive integers such as 2,2",
)
_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_seed = _checked(int, lambda v: 0 <= v < 2**64, "an integer in [0, 2**64)")
_finite_float = _checked(float, math.isfinite, "a finite number")
_out_path = _checked(str, _writable, "a writable file in an existing directory")


def _write_rows(out: str | None, header: list[str], rows) -> None:
    fh = open(out, "w", newline="") if out else sys.stdout
    try:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if out:
            fh.close()


def _point_header(n_coords: int) -> list[str]:
    return [f"re{j}" for j in range(n_coords)] + [f"im{j}" for j in range(n_coords)]


def _point_cells(z) -> list[str]:
    return [FLOAT_FMT % c.real for c in z] + [FLOAT_FMT % c.imag for c in z]


def _solution_rows(results, n_coords: int):
    failed = [""] * (2 * n_coords)
    return [
        [i, r.status.value, r.num_steps, *(_point_cells(r.endpoint) if r.success else failed)]
        for i, r in enumerate(results)
    ]


def write_trace_csv(result, out: str | None) -> None:
    """The certified trace of result as CSV, to the file out or, for None,
    standard output: step, the trace's float columns (s, t, phi, chi1,
    chi2), accepted (always 1: the certified tracker accepts every step),
    then re0.. and im0.. of the point, floats in FLOAT_FMT."""
    header = ["step", *result.trace.dtype.names[:-1], "accepted", *_point_header(result.endpoint.shape[0])]
    rows = [[k, *(FLOAT_FMT % v for v in row[:-1]), 1, *_point_cells(row[-1])]
            for k, row in enumerate(result.trace.tolist(), start=1)]
    _write_rows(out, header, rows)


def cmd_solve(args) -> int:
    system = _load_system(args)
    try:
        results = run_solve(system, args.start, args.seed)
    except DegenerateHomotopyError as exc:  # the target is -g on the sphere
        args.error(f"no homotopy to {args.system!r} from the {args.start} start: {exc}")
    except ENDPOINT_CHECK_ERRORS as exc:
        args.error(f"endpoint check of the solve of {args.system!r} failed: {exc}")
    n_coords = system.n + 1
    header = ["path", "status", "steps"] + _point_header(n_coords)
    _write_rows(args.out, header, _solution_rows(results, n_coords))
    failed = sum(1 for r in results if not r.success)
    print(f"{len(results) - failed}/{len(results)} paths succeeded", file=sys.stderr)
    return 1 if failed == len(results) else 0


def cmd_track(args) -> int:
    f, start = start_paths(_load_system(args), args.start, args.seed)
    count = len(start.roots)
    if not 0 <= args.path < count:
        args.error(f"--path must lie in [0, {count}) for this system, got {args.path}")
    try:
        result = track_path(start.g, f, start.roots[args.path])
    except DegenerateHomotopyError as exc:  # the target is -g on the sphere
        args.error(f"no homotopy to {args.system!r} from the {args.start} start: {exc}")
    write_trace_csv(result, args.out)
    print(f"status={result.status.value} steps={result.num_steps}", file=sys.stderr)
    return 0 if result.success else 1


def cmd_bench(args) -> int:
    trackers = TRACKERS if args.tracker == "both" else (args.tracker,)
    # Only the family rules' ValueError is a usage error, not one raised while tracking.
    try:
        check_bench(args.family, args.degrees, args.n, args.trials, trackers)
    except ValueError as exc:
        args.error(str(exc))
    reports = run_bench(
        family=args.family,
        degrees=args.degrees,
        n=args.n,
        trials=args.trials,
        trackers=trackers,
        seed=args.seed,
        threads=args.threads,
    )
    rows = []
    for kind, report in reports.items():
        for p in report.per_path:
            rows.append([p.trial, p.path, p.tracker, p.status, p.steps])
    _write_rows(args.out, ["trial", "path", "tracker", "status", "steps"], rows)
    for kind, report in reports.items():
        print(
            f"{kind}: mean_steps={report.mean_steps:.6g} variance={report.variance_steps:.6g} "
            f"failures={report.failures} wall_time_s={report.wall_time_s:.2f}",
            file=sys.stderr,
        )
    return 0


def cmd_conjecture(args) -> int:
    reports = run_conjecture(
        n=args.n,
        trials=args.trials,
        seed=args.seed,
        threads=args.threads,
        verify_bound=args.verify_bound,
    )
    header = ["kind", "n", "trials", "mean_steps", "variance_steps", "failures", "bound"]
    rows = [
        [r.kind, r.n, r.trials, FLOAT_FMT % r.mean_steps, FLOAT_FMT % r.variance_steps,
         r.failures, FLOAT_FMT % r.bound]
        for r in reports
    ]
    _write_rows(args.out, header, rows)
    violations = sum(r.bound_violations for r in reports)
    if args.verify_bound:
        print(f"step-bound violations: {violations}", file=sys.stderr)
    return 1 if violations else 0


def cmd_entropy(args) -> int:
    try:
        report = run_entropy(
            args.degrees, args.epsilon, args.runs, args.variant, args.seed, args.threads
        )
    except ReferenceRootsError as exc:  # the target has a singular zero
        args.error(f"no reference roots for --epsilon {args.epsilon!r}: {exc}")
    rows = [[i, hits] for i, hits in enumerate(report.root_hits)]
    _write_rows(args.out, ["root", "hits"], rows)
    print(
        f"runs={report.runs} failures={report.failures} entropy_bits={report.entropy_bits:.6f} "
        f"(max {math.log2(len(report.root_hits)):.6f})",
        file=sys.stderr,
    )
    return 0


_THREADS_HELP = "worker processes for trials, at most the CPUs available (default 1)"


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_seed, default=0, help="master seed (unsigned 64-bit)")
    p.add_argument("--out", type=_out_path, default=None, help="output CSV path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="certitrack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="track a target system to its solutions")
    p.add_argument("system", help="system file (JSON: degrees + terms)")
    p.add_argument("--start", choices=START_KINDS, default="total")
    _add_common(p)
    p.set_defaults(func=cmd_solve, error=p.error)

    p = sub.add_parser("track", help="track one path and dump its step trace")
    p.add_argument("system")
    p.add_argument("--start", choices=START_KINDS, default="total")
    p.add_argument("--path", type=int, default=0, help="solve's path index: 0 to D-1 for "
                   "--start total (D the product of the degrees), 0 for good and random")
    _add_common(p)
    p.set_defaults(func=cmd_track, error=p.error)

    p = sub.add_parser("bench", help="steps-per-path benchmark")
    p.add_argument("--family", choices=["random", "katsura"], required=True)
    p.add_argument("--degrees", type=_degree_list, default=None, help="comma-separated, e.g. 2,2")
    p.add_argument("--n", type=int, default=None, help="Katsura size")
    p.add_argument("--trials", type=_positive_int, default=None,
                   help="random targets (default 10); katsura has one system")
    p.add_argument("--tracker", choices=[*TRACKERS, "both"], default="certified")
    p.add_argument("--threads", type=_positive_int, default=1, help=_THREADS_HELP)
    _add_common(p)
    p.set_defaults(func=cmd_bench, error=p.error)

    p = sub.add_parser("conjecture", help="compare start pairs on random targets")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--trials", type=_positive_int, default=30)
    p.add_argument("--verify-bound", action="store_true", help="check the step bound per path (slow)")
    p.add_argument("--threads", type=_positive_int, default=1, help=_THREADS_HELP)
    _add_common(p)
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("entropy", help="root equidistribution of the random pair")
    p.add_argument("--degrees", type=_degree_list, default="2,2,2")
    p.add_argument("--epsilon", type=_finite_float, default=0.1)
    p.add_argument("--runs", type=_positive_int, default=800)
    p.add_argument("--variant", choices=list(ENTROPY_VARIANTS), default="ball")
    p.add_argument("--threads", type=_positive_int, default=1, help=_THREADS_HELP)
    _add_common(p)
    p.set_defaults(func=cmd_entropy, error=p.error)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
