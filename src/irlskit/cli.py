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
from dataclasses import asdict

from .errors import IrlsKitError
from .experiments import (
    ExperimentConfig,
    file_suffix,
    method_tag,
    run_phase_transition,
    run_trace,
    worker_count,
    write_phase_csv,
    write_ratios_csv,
    write_trace_csv,
)
from .linalg import SensingMatrix, read_matrix, read_vector
from .plotting import PLOT_KINDS, emit_plot
from .solver import IrlsConfig, irls_run, rate_diagnostics, save_result
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

    for name, kind, handler in (("trace", "convergence-trace", _cmd_trace), ("phase", "phase-transition", _cmd_phase)):
        p = sub.add_parser(name, help=f"{kind} experiment from a JSON config", formatter_class=fmt)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=".", help="output directory for CSV files")
        p.set_defaults(handler=handler)

    p = sub.add_parser(
        "plot", help="render a result CSV as a static SVG", formatter_class=fmt
    )
    p.add_argument("--csv", required=True, help="input CSV path")
    p.add_argument("--kind", required=True, choices=PLOT_KINDS, help="plot kind")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(handler=_cmd_plot)

    return parser


def _cmd_recover(args) -> int:
    phi = SensingMatrix(read_matrix(args.matrix))
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
        print(f"K = {result.config.K} (heuristic default)")
    save_result(result, args.out)
    print(f"termination: {result.termination}")
    print(f"wrote {args.out}")
    return 0


def _cmd_check(args) -> int:
    phi = SensingMatrix(read_matrix(args.matrix))
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
    print(json.dumps(asdict(report)))
    return 0


def _cmd_oracle(args) -> int:
    phi = SensingMatrix(read_matrix(args.matrix))
    y = read_vector(args.rhs)
    if args.l1:
        x = l1_oracle(phi, y)
        doc = {
            "x": [float(v) for v in x],
            "l1_norm": float(sum(abs(v) for v in x)),
        }
    else:
        support, x, residual = sparse_oracle(phi, y, args.k)
        doc = {
            "support": list(support),
            "x": [float(v) for v in x],
            "residual": residual,
        }
    print(json.dumps(doc))
    return 0


def _cmd_trace(args) -> int:
    cfg = ExperimentConfig.from_json_file(args.config)
    os.makedirs(args.out, exist_ok=True)
    for tau in cfg.tau_list:
        suffix = file_suffix(tau)
        trace_csv = os.path.join(args.out, f"trace_{suffix}.csv")
        ratios_csv = os.path.join(args.out, f"ratios_{suffix}.csv")
        run = run_trace(cfg, tau)
        write_trace_csv(run, trace_csv)
        write_ratios_csv(rate_diagnostics(run), ratios_csv)
        print(
            f"{method_tag(tau)}: {run.iterations} iterations, "
            f"termination {run.termination}"
        )
        print(f"wrote {trace_csv}")
        print(f"wrote {ratios_csv}")
    return 0


def _cmd_phase(args) -> int:
    cfg = ExperimentConfig.from_json_file(args.config)
    workers = worker_count()
    os.makedirs(args.out, exist_ok=True)
    cells = run_phase_transition(cfg, n_workers=workers)
    out_path = os.path.join(args.out, "phase.csv")
    write_phase_csv(cells, out_path)
    for (k, tag) in sorted(cells):
        cell = cells[(k, tag)]
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
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
