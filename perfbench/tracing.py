"""Per-layer tracing for the benchmark, installed from outside the program.

A :class:`Tracer` replaces public irlskit functions with wrappers that
record one span per call: name, parent span, start and end.  The wrappers
are set as module attributes in every ``irlskit.*`` namespace that binds
the original object, so calls between modules go through them too.  No
file under ``src/`` changes.  Spans stay in memory until the run ends.

Self time of a span is its duration minus the durations of its direct
children.  Calls run in one thread and nest, so children never overlap.
Within one tree of spans the self times therefore add up to the root's
duration by construction; what the trace tells is how that duration
splits between the functions.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (layer, module, attribute) of every wrapped callable.  "Class.method"
# attributes wrap a class attribute; a bare class name wraps its __init__,
# which is where construction and validation happen.
WRAPPED = (
    ("solver", "irlskit.solver", "irls_run"),
    ("solver", "irlskit.solver", "irls_step"),
    ("solver", "irlskit.solver", "epsilon_update"),
    ("solver", "irlskit.solver", "optimal_weights"),
    ("solver", "irlskit.solver", "smoothed_objective"),
    ("solver", "irlskit.solver", "surrogate_value"),
    ("solver", "irlskit.solver", "IrlsConfig.resolve_K"),
    ("solver", "irlskit.solver", "save_result"),
    ("linalg", "irlskit.linalg", "weighted_ls_solve"),
    ("linalg", "irlskit.linalg", "cho_factor"),
    ("linalg", "irlskit.linalg", "dpocon"),
    ("linalg", "irlskit.linalg", "cho_solve"),
    ("linalg", "irlskit.linalg", "SensingMatrix"),
    ("linalg", "irlskit.linalg", "read_matrix"),
    ("linalg", "irlskit.linalg", "read_vector"),
    ("linalg", "irlskit.linalg", "null_space_basis"),
    ("sparsity", "irlskit.sparsity", "rearrangement"),
    ("experiments", "irlskit.experiments", "gen_gaussian_matrix"),
    ("experiments", "irlskit.experiments", "gen_sparse_vector"),
    ("experiments", "irlskit.experiments", "run_phase_transition"),
    ("verify", "irlskit.verify", "exact_nsp_profile"),
    ("verify", "irlskit.verify", "nsp_constant"),
    ("verify", "irlskit.verify", "rip_constant"),
    ("verify", "irlskit.verify", "sparse_oracle"),
    ("verify", "irlskit.verify", "l1_oracle"),
    ("cli", "irlskit.cli", "main"),
)

# Fixed here rather than read from the program, so that the metric names
# BENCHMARK.json declares do not depend on the program version.
TERMINATIONS = ("EpsHitFloor", "StepBelowTol", "MaxIters", "ExactSparseStop", "IllConditioned")


def span_name(layer: str, attr: str) -> str:
    """Metric prefix of a wrapped callable: ``IrlsConfig.resolve_K`` -> ``solver.resolve_K``."""
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


SPAN_NAMES = tuple(span_name(layer, attr) for layer, _, attr in WRAPPED)

# Derived per-layer metrics and their units, in report order.  Counts and
# times are per traced round, so they do not grow with the run length.
DERIVED_UNITS = {
    "solver.iterations": "count/round",
    "solver.iter_us": "us",
    **{f"solver.terminations.{t}": "count/round" for t in TERMINATIONS},
    "linalg.ill_conditioned": "count/round",
    "linalg.weighted_ls_solve.gflop_computed": "GFLOP/round",
    "linalg.weighted_ls_solve.gbyte_computed": "GB/round",
    "linalg.weighted_ls_solve.gflops": "GFLOP/s",
    "experiments.pool_efficiency": "ratio",
    "experiments.children_cpu_s": "s",
    "trace_overhead_frac": "ratio",
}


def layer_metric_units() -> dict:
    """Unit of every per-layer metric the traced run reports."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count/round"
        units[f"{name}.s"] = "s/round"
        units[f"{name}.self_s"] = "s/round"
    units.update(DERIVED_UNITS)
    return units


def weighted_ls_cost(m: int, n: int) -> tuple[float, float]:
    """Computed (flop, byte) count of one ``weighted_ls_solve`` on an m x N matrix.

    Flops: the Gram ``(Phi D) Phi^T`` costs 2 m^2 N and the Cholesky m^3 / 3;
    the triangular solves and the back-projection are lower order and left
    out.  Bytes: Phi is read three times (scaling, Gram, back-projection),
    the scaled copy is written and read once, and the m x m Gram is written,
    copied by the factorization and written back as the factor.  Both are
    computed from array sizes, not measured; cache misses are ignored.
    """
    flop = 2.0 * m * m * n + m**3 / 3.0
    byte = 8.0 * (5.0 * m * n + 3.0 * m * m)
    return flop, byte


class Tracer:
    """Records spans and counters for the wrapped irlskit callables."""

    def __init__(self):
        # Each span is [name, parent index or -1, start ns, end ns].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.flop = 0.0
        self.byte = 0.0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every callable in WRAPPED; names that no longer exist are recorded as absent."""
        self.absent = []
        for layer, module_name, attr in WRAPPED:
            name = span_name(layer, attr)
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name, None)
                orig = getattr(owner, meth, None) if owner is not None else None
                if orig is None:
                    self.absent.append(name)
                    continue
                self._set(owner, meth, self._wrap(name, orig))
                continue
            orig = getattr(module, attr, None)
            if orig is None:
                self.absent.append(name)
                continue
            if isinstance(orig, type):
                self._set(orig, "__init__", self._wrap(name, orig.__init__))
                continue
            wrapper = self._wrap(name, orig)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "irlskit" and getattr(mod, attr, None) is orig:
                    self._set(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        before = self._before_hooks().get(name)
        after = self._after_hooks().get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            span = [name, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return traced

    def _before_hooks(self) -> dict:
        def solve_cost(args):
            m, n = args[0].shape
            flop, byte = weighted_ls_cost(m, n)
            self.flop += flop
            self.byte += byte

        return {"linalg.weighted_ls_solve": solve_cost}

    def _after_hooks(self) -> dict:
        def termination(result):
            self.counts[f"solver.terminations.{result.termination}"] += 1

        return {"solver.irls_run": termination}

    # -- aggregation ----------------------------------------------------------

    def _child_ns(self) -> list[int]:
        """Summed duration of each span's direct children."""
        child_ns = [0] * len(self.spans)
        for _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        return child_ns

    def layer_totals(self) -> dict:
        """calls, total seconds and self seconds of every span name."""
        totals = {name: [0, 0, 0] for name in SPAN_NAMES}
        for (name, _, t0, t1), inner in zip(self.spans, self._child_ns()):
            row = totals[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - inner
        return {name: (c, s / 1e9, self_s / 1e9) for name, (c, s, self_s) in totals.items()}

    def write_spans(self, path) -> None:
        """Write every span as CSV: index, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{t0},{t1}\n")
