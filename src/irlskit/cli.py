"""Command-line front end.

Subcommands: recover (run the solver on matrix/vector files), trace and
phase (experiments from a JSON config), check (RIP/NSP constants),
oracle (exhaustive sparse or LP l1 minimization), plot (CSV to SVG).
Exit status: 0 success, 1 solver/oracle failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import IrlsKitError
from .experiments import (
    ExperimentConfig,
    run_phase_transition,
    run_trace,
    write_phase_csv,
)
from .linalg import read_sensing_matrix, read_vector
from .plotting import PLOT_KINDS, emit_plot
from .solver import IrlsConfig, irls_run, save_result
from .verify import l1_oracle, nsp_constant, rip_constant, sparse_oracle


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irlskit",
        description="Sparse recovery by iteratively re-weighted least squares.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser(
        "recover",
        help="recover a vector from matrix and right-hand-side files",
        formatter_class=fmt,
    )
    p.add_argument("--matrix", required=True, help="matrix file (text format)")
    p.add_argument("--rhs", required=True, help="right-hand-side vector file")
    p.add_argument("--K", type=int, default=IrlsConfig.K, help="sparsity order for the eps update (default: heuristic)")
    p.add_argument("--tau", type=float, default=IrlsConfig.tau, help="exponent in (0, 1]")
    p.add_argument("--warmstart", type=int, default=IrlsConfig.warmstart_iters, help="tau=1 iterations before switching to tau (default: 10 if tau < 1)")
    p.add_argument("--max-iters", type=int, default=IrlsConfig.max_iters, help="iteration cap")
    p.add_argument("--eps-floor", type=float, default=IrlsConfig.eps_floor, help="smoothing-parameter floor")
    p.add_argument("--step-tol", type=float, default=IrlsConfig.step_tol, help="relative l1 step tolerance")
    p.add_argument("--out", default="recovery.json", help="output JSON path")
    p.set_defaults(handler=_cmd_recover)

    p = sub.add_parser(
        "check", help="compute a RIP or NSP constant", formatter_class=fmt
    )
    p.add_argument("--matrix", required=True, help="matrix file (text format)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rip", type=int, metavar="L", help="RIP constant of order L")
    group.add_argument("--nsp", type=int, metavar="L", help="NSP constant of order L")
    p.add_argument("--tau", type=float, default=1.0, help="NSP exponent in (0, 1]")
    p.add_argument("--method", default="auto", choices=["auto", "exact", "montecarlo"], help="NSP method")
    p.add_argument("--samples", type=int, default=100000, help="Monte Carlo sample count")
    p.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser(
        "oracle",
        help="exhaustive k-sparse or LP l1 minimization",
        formatter_class=fmt,
    )
    p.add_argument("--matrix", required=True, help="matrix file (text format)")
    p.add_argument("--rhs", required=True, help="right-hand-side vector file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="exhaustive best k-sparse fit")
    group.add_argument("--l1", action="store_true", help="minimum-l1-norm solution")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser(
        "trace",
        help="convergence-trace experiment from a JSON config",
        formatter_class=fmt,
    )
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", default=".", help="output directory for CSV files")
    p.set_defaults(handler=_cmd_trace)

    p = sub.add_parser(
        "phase",
        help="phase-transition experiment from a JSON config",
        formatter_class=fmt,
    )
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", default=".", help="output directory for CSV files")
    p.set_defaults(handler=_cmd_phase)

    p = sub.add_parser(
        "plot", help="render a result CSV as a static SVG", formatter_class=fmt
    )
    p.add_argument("--csv", required=True, help="input CSV path")
    p.add_argument("--kind", required=True, choices=PLOT_KINDS, help="plot kind")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(handler=_cmd_plot)

    return parser


def _cmd_recover(args) -> int:
    phi = read_sensing_matrix(args.matrix)
    y = read_vector(args.rhs)
    cfg = IrlsConfig(
        K=args.K,
        tau=args.tau,
        warmstart_iters=args.warmstart,
        max_iters=args.max_iters,
        eps_floor=args.eps_floor,
        step_tol=args.step_tol,
    )
    result = irls_run(phi, y, cfg)
    if args.K is None:
        print(f"K = {result.resolved_K} (heuristic default)")
    save_result(result, args.out)
    print(f"termination: {result.termination}")
    print(f"wrote {args.out}")
    return 0


def _cmd_check(args) -> int:
    phi = read_sensing_matrix(args.matrix)
    if args.rip is not None:
        report = rip_constant(phi, args.rip)
    else:
        report = nsp_constant(
            phi,
            args.nsp,
            tau=args.tau,
            method=args.method,
            samples=args.samples,
            seed=args.seed,
        )
    print(report.summary())
    print(json.dumps(report.to_dict()))
    return 0


def _cmd_oracle(args) -> int:
    phi = read_sensing_matrix(args.matrix)
    y = read_vector(args.rhs)
    if args.l1:
        x, details = l1_oracle(phi, y, full_output=True)
        print(
            json.dumps(
                {
                    "x": [float(v) for v in x],
                    "l1_norm": float(sum(abs(v) for v in x)),
                    "maybe_nonunique": details["maybe_nonunique"],
                }
            )
        )
    else:
        support, x, residual = sparse_oracle(phi, y, args.k)
        print(
            json.dumps(
                {
                    "support": list(support),
                    "x": [float(v) for v in x],
                    "residual": residual,
                }
            )
        )
    return 0


def _cmd_trace(args) -> int:
    cfg = ExperimentConfig.from_json_file(args.config)
    os.makedirs(args.out, exist_ok=True)
    for tau in cfg.tau_list:
        suffix = f"tau{tau:g}".replace(".", "p")
        trace_csv = os.path.join(args.out, f"trace_{suffix}.csv")
        ratios_csv = os.path.join(args.out, f"ratios_{suffix}.csv")
        study = run_trace(cfg, tau, trace_csv=trace_csv, ratios_csv=ratios_csv)
        print(
            f"{study.tag}: {study.result.iterations} iterations, "
            f"termination {study.result.termination}"
        )
        print(f"wrote {trace_csv}")
        print(f"wrote {ratios_csv}")
    return 0


def _cmd_phase(args) -> int:
    cfg = ExperimentConfig.from_json_file(args.config)
    os.makedirs(args.out, exist_ok=True)
    table = run_phase_transition(cfg)
    out_path = os.path.join(args.out, "phase.csv")
    write_phase_csv(table, out_path)
    for (k, tag) in sorted(table.rows):
        cell = table.rows[(k, tag)]
        print(f"k={k} {tag}: {cell.successes}/{cell.trials} ({cell.success_rate:.3f})")
    print(f"wrote {out_path}")
    return 0


def _cmd_plot(args) -> int:
    emit_plot(args.csv, args.kind, args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except IrlsKitError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
