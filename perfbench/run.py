"""irlskit benchmark: named workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload recover-small --seed 20250809 --seconds 10 --trace 0

Run from the repository root.  The program is imported from ``src/``; the
benchmark only calls its public functions and times those calls.  One
process calls the program, closed loop: each call starts when the previous
one has returned.  Only ``run_phase_transition``'s own pool adds
processes, at its default worker count.  No thread environment variable
is set or changed; the inherited values are recorded.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` sets the
workload up, then alternates untraced rounds and rounds with every public
layer function wrapped, and prints the per-layer metrics of the traced
rounds, per round.  Earlier stdout lines are a readable report
with sample counts; the last line is one JSON object holding the metrics
that ``BENCHMARK.json`` declares.  The full report (provenance, digests,
workload metrics) goes to ``.perfbench_out/``, with the spans of a
traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from statistics import fmean, median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
DEFAULT_SEED = 20250809
SETUP_PROBES = 4
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "IRLS_THREADS")
# workloads.WORKLOADS has the same names, but importing it loads numpy
WORKLOAD_NAMES = ("recover-small", "recover-large", "phase-pool", "verify-oracles")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set the workload up once and print the set-up time")
    return p.parse_args(argv)


def set_up(name: str, seed: int, tmpdir: str):
    """Import the program, build the workload's inputs and make one warm-up call.

    Returns (workload, seconds).  Only the standard library is loaded
    before the clock starts, so the time includes importing numpy, scipy
    and irlskit.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import irlskit
    from workloads import WORKLOADS

    if not os.path.abspath(irlskit.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported irlskit from {irlskit.__file__}, not from {SRC}")
    wl = WORKLOADS[name](seed, tmpdir)
    wl.warm_up()
    return wl, time.perf_counter() - t0


def probe_setup(args) -> float:
    """Set-up time in a fresh interpreter: imports, inputs and the warm-up call."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_rounds(wl, seconds: float, tracer=None):
    """Whole rounds until ``seconds`` have passed.

    With a tracer, untraced and traced rounds alternate, so that both see
    the same machine conditions; returns (untraced rounds, traced rounds).
    """
    plain, traced = [], []
    t0 = time.perf_counter()
    while True:
        plain.append(wl.round())
        if tracer:
            tracer.install()
            try:
                traced.append(wl.round())
            finally:
                tracer.uninstall()
        if time.perf_counter() - t0 >= seconds:
            return plain, traced


def busy_s(rounds) -> float:
    return sum(c.seconds for r in rounds for c in r)


def provenance(args, wl) -> dict:
    import numpy as np
    import scipy
    import irlskit.experiments

    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True, timeout=10).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        nproc = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "numpy": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
            "scipy": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"],
        },
        "rng_id": irlskit.experiments.RNG_ID,
        "fingerprints": wl.fingerprints,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def call_seconds(rounds) -> dict:
    """Kind of call -> its call times, in run order."""
    secs = defaultdict(list)
    for calls in rounds:
        for c in calls:
            secs[c.kind].append(c.seconds)
    return dict(secs)


def end_to_end(rounds, setup_samples, rss_mb) -> dict:
    """End-to-end metrics: name -> (value, unit, samples).

    The timings take each kind of call at the fastest it ran in the run.
    ``kind_rate_geomean_per_s`` weighs every kind the same, however long
    its calls take, so a change that slows one short kind of call shows in
    full.  ``round_best_ms`` weighs each kind by its calls per round, as a
    user waiting for the whole batch does.
    """
    from workloads import round_seconds

    secs = call_seconds(rounds)
    n_calls = sum(len(v) for v in secs.values())
    return {
        "setup_s": (median(setup_samples), "s", len(setup_samples)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "kind_rate_geomean_per_s": (
            math.exp(-fmean(math.log(min(v)) for v in secs.values())), "1/s", n_calls),
        "round_best_ms": (
            1e3 * sum(len(v) * min(v) for v in secs.values()) / len(rounds), "ms", n_calls),
        # printed for reference, not declared
        "round_p50_ms": (1e3 * median(round_seconds(rounds)), "ms", len(rounds)),
    }


def per_layer(tracer, wl, plain, rounds) -> dict:
    """Per-layer metrics of the traced rounds, per traced round:
    name -> (value, unit, samples)."""
    from tracing import layer_metric_units

    n = len(rounds)
    units = layer_metric_units()
    totals = tracer.layer_totals()
    values = {}
    for name, (calls, secs, self_s) in totals.items():
        values[f"{name}.calls"] = calls / n
        values[f"{name}.s"] = secs / n
        values[f"{name}.self_s"] = self_s / n
    steps, step_s, _ = totals["solver.irls_step"]
    values["solver.iterations"] = steps / n
    values["solver.iter_us"] = 1e6 * step_s / steps if steps else 0.0
    for key in units:
        if key.startswith("solver.terminations."):
            values[key] = tracer.counts[key] / n
    values["linalg.ill_conditioned"] = tracer.counts[
        "linalg.weighted_ls_solve.raised.IllConditionedError"] / n
    solve_s = totals["linalg.weighted_ls_solve"][1]
    values["linalg.weighted_ls_solve.gflop_computed"] = tracer.flop / 1e9 / n
    values["linalg.weighted_ls_solve.gbyte_computed"] = tracer.byte / 1e9 / n
    values["linalg.weighted_ls_solve.gflops"] = tracer.flop / 1e9 / solve_s if solve_s else 0.0
    # the pool side comes from the untraced rounds: spans in pool workers are lost
    efficiency, children_cpu = wl.pool_side(plain)
    values["experiments.pool_efficiency"] = efficiency
    values["experiments.children_cpu_s"] = children_cpu
    values["trace_overhead_frac"] = busy_s(rounds) / busy_s(plain) - 1.0
    return {k: (values[k], units[k], n) for k in units}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "irlskit", "__init__.py")):
        print(f"perfbench: no irlskit sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_probe:
            _, secs = set_up(args.workload, args.seed, tmpdir)
            print(json.dumps({"setup_s": secs}))
            return 0
        return bench(args, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def bench(args, tmpdir) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    wl, secs = set_up(args.workload, args.seed, tmpdir)
    report = {}

    if args.trace:
        from tracing import Tracer

        # the first round after set-up runs slow (0.8 s against 0.33 s on
        # recover-small), so it stays out of the overhead comparison
        settle = wl.round()
        tracer = Tracer()
        plain, rounds = run_rounds(wl, args.seconds, tracer)
        serial = Tracer()
        serial.install()
        try:
            extra = wl.traced_extra()
        finally:
            serial.uninstall()
        extra += wl.check([settle] + plain + rounds)
        calls = [c for r in [settle] + plain + rounds for c in r] + extra
        metrics = per_layer(tracer, wl, plain, rounds)
        _, irls_s, irls_self_s = tracer.layer_totals()["solver.irls_run"]
        report["irls_run_wrapped_frac"] = 1.0 - irls_self_s / irls_s if irls_s else None
        report["absent"] = tracer.absent
        if serial.spans:
            report["serial_pass_layers"] = {
                name: row for name, row in serial.layer_totals().items() if row[0]}
        spans_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.csv")
        tracer.write_spans(spans_path)
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        from workloads import round_seconds

        rounds, _ = run_rounds(wl, args.seconds)
        extra = wl.check(rounds)
        calls = [c for r in rounds for c in r] + extra
        # before the set-up probes, whose interpreters are children too
        rss_mb = peak_rss_mb()
        setup_samples = [secs] + [probe_setup(args) for _ in range(SETUP_PROBES)]
        metrics = end_to_end(rounds, setup_samples, rss_mb)
        report["setup_s_samples"] = setup_samples
        report["round_seconds"] = round_seconds(rounds)
        report["call_seconds"] = call_seconds(rounds)
    report["provenance"] = provenance(args, wl)

    failed = [c for c in calls if c.failed]
    workload_metrics = wl.report(rounds, extra)
    workload_metrics["failed_frac"] = (len(failed) / len(calls), "ratio", len(calls))
    report.update(
        rounds=len(rounds),
        digest=wl.digest(rounds),
        workload_metrics=workload_metrics,
        metrics=metrics,
        failures=[f"{c.kind} {c.key}: {c.error.strip().splitlines()[-1]}" for c in failed],
    )
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {len(rounds)}"
          f"  round: {wl.batch}")
    prov = report["provenance"]
    print(f"provenance nproc={prov['nproc']} cpu_count={prov['os_cpu_count']} "
          f"affinity={prov['affinity']} threads={prov['thread_env']} rng_id={prov['rng_id']}")
    for table in (workload_metrics, metrics):
        for key, (val, unit, n) in table.items():
            print(f"  {key:44s} {val:.6g} {unit}  (n={n})")
    if args.trace:
        for name, (n, secs, self_s) in report.get("serial_pass_layers", {}).items():
            print(f"  serial pass {name:32s} calls {n}  {secs:.6g} s  self {self_s:.6g} s")
        print(f"  absent: {report['absent'] or 'none'}; share of irls_run spent in "
              f"wrapped children: {report['irls_run_wrapped_frac']}")
    print(f"digest {report['digest']}")
    for c, line in zip(failed, report["failures"]):
        print(f"FAILED {line}")
        print(c.error, file=sys.stderr)

    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=1, default=str)
        fh.write("\n")
    result = {}
    for entry in declared:
        value, unit, _ = metrics[entry["name"]]
        result[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": not failed, "attempted": len(calls),
                      "failed": len(failed), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
