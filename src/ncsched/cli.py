"""Command-line front end: gen, solve, verify, plots.

Exit codes: 0 verified/success, 2 no solution found (or verification failed),
3 input or schema error. Plant indices in all output are 1-based; time steps
are 0-based.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .core import TERMINAL_RTOL, ZERO_RTOL, ControlLogic
from .errors import NcsError, NoSolutionFoundError, NonFiniteError, SchemaError
from .instances import generate_instance, read_instance, write_instance
from .pipeline import solve_instance
from .report import SolveReport, export_plots, read_report, write_report
from .sim import verify_logic

EXIT_OK = 0
EXIT_NO_SOLUTION = 2
EXIT_INPUT_ERROR = 3


def parse_dims(text: str) -> list[int]:
    """Dimension spec: comma-separated 'd' or 'dxCOUNT' tokens, e.g. '2x50,3x50'."""
    dims: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "x" in token:
            d_str, count_str = token.split("x", 1)
            count = int(count_str)
            if count < 1:
                raise ValueError(f"bad dimension spec: {text!r}")
            dims.extend([int(d_str)] * count)
        else:
            dims.append(int(token))
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"bad dimension spec: {text!r}")
    return dims


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncsched",
        description=(
            "Co-design channel schedules and deadbeat control inputs that "
            "steer every plant of a bandwidth-limited NCS to zero in time."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance file")
    gen.add_argument("--dims", required=True, help="e.g. '2x50,3x50' or '1,2,3'")
    gen.add_argument("--capacity", type=int, required=True, help="channel capacity M")
    gen.add_argument("--horizon", type=int, required=True, help="time horizon T")
    gen.add_argument("--range", type=float, default=2.0, dest="value_range",
                     help="entries drawn uniform on [-range, range] (default 2)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="instance JSON path")

    solve = sub.add_parser("solve", help="solve an instance and write a report")
    solve.add_argument("instance", help="instance JSON path")
    solve.add_argument("--method", choices=["auto", "lane", "block", "relax", "brute"],
                       default="auto")
    solve.add_argument("--out", help="report JSON path")
    solve.add_argument("--terminal-rtol", type=float, default=TERMINAL_RTOL,
                       help=f"terminal-state tolerance (default {TERMINAL_RTOL:g})")
    solve.add_argument("--zero-rtol", type=float, default=ZERO_RTOL,
                       help=f"zero-threshold factor (default {ZERO_RTOL:g})")

    verify = sub.add_parser("verify", help="re-simulate a report's control matrix")
    verify.add_argument("instance", help="instance JSON path")
    verify.add_argument("report", help="report JSON path")
    verify.add_argument("--terminal-rtol", type=float, default=TERMINAL_RTOL)
    verify.add_argument("--zero-rtol", type=float, default=ZERO_RTOL)

    plots = sub.add_parser("plots", help="export report CSVs, replaying the state norms")
    plots.add_argument("instance", help="instance JSON path")
    plots.add_argument("report", help="report JSON path")
    plots.add_argument("--out-dir", required=True)

    return parser


def _cmd_gen(args) -> int:
    dims = parse_dims(args.dims)
    rec = generate_instance(
        n=len(dims),
        capacity=args.capacity,
        horizon=args.horizon,
        dims=dims,
        value_range=args.value_range,
        seed=args.seed,
    )
    write_instance(args.out, rec)
    print(f"wrote instance: N={len(dims)} M={args.capacity} T={args.horizon} -> {args.out}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    rec = read_instance(args.instance)
    try:
        report = solve_instance(
            rec.instance,
            method=args.method,
            zero_rtol=args.zero_rtol,
            terminal_rtol=args.terminal_rtol,
        )
    except NoSolutionFoundError as exc:
        print(f"no solution found: {exc}")
        for reason in exc.reasons:
            print(f"  - {reason}")
        if args.out:
            failure = SolveReport(
                method=None,
                plan=None,
                control=None,
                verified=False,
                residuals=[],
                diagnostics=list(exc.reasons),
            )
            write_report(args.out, failure)
        return EXIT_NO_SOLUTION
    if args.out:
        t0 = time.perf_counter()
        write_report(args.out, report)
        # console only: timings are never serialized
        report.timings["write"] = time.perf_counter() - t0
    worst = max(report.residuals) if report.residuals else 0.0
    occ = int(np.count_nonzero(report.control, axis=0).max())
    print(
        f"verified=true method={report.method} max_occupancy={occ} "
        f"worst_residual={worst:.3e}"
    )
    for name, secs in report.timings.items():
        print(f"  time {name}: {secs:.3f}s")
    for w in report.warnings:
        print(f"  warning: {w}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    rec = read_instance(args.instance)
    report = read_report(args.report, (rec.instance.n, rec.instance.horizon))
    if report.control is None:
        raise SchemaError("report holds no control matrix to verify")
    logic = ControlLogic(report.control)
    try:
        outcome = verify_logic(
            rec.instance, logic, zero_rtol=args.zero_rtol, terminal_rtol=args.terminal_rtol
        )
    except NonFiniteError as exc:
        return _replay_overflowed(exc)
    worst = float(outcome.terminal_residuals.max()) if outcome.terminal_residuals.size else 0.0
    print(
        f"replay verified={'true' if outcome.verified else 'false'} "
        f"max_occupancy={outcome.max_column_occupancy} worst_residual={worst:.3e}"
    )
    for v in outcome.violations:
        print(f"  violation: {v}")
    return EXIT_OK if outcome.verified else EXIT_NO_SOLUTION


def _replay_overflowed(exc: NonFiniteError) -> int:
    # a replay that overflows fails verification; the files themselves are valid
    print("replay verified=false")
    print(f"  violation: {exc}")
    return EXIT_NO_SOLUTION


def _cmd_plots(args) -> int:
    rec = read_instance(args.instance)
    try:
        paths = export_plots(rec.instance, args.report, args.out_dir)
    except NonFiniteError as exc:
        # export_plots replays before it writes, so no file is left behind
        return _replay_overflowed(exc)
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "solve": _cmd_solve,
        "verify": _cmd_verify,
        "plots": _cmd_plots,
    }
    try:
        return handlers[args.command](args)
    except (NcsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
