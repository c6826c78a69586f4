"""Reproducible instance generation and experiment families.

All randomness flows through a counter-based generator (numpy Philox)
keyed by seeds derived with a stable hash from the master seed and the
cell coordinates, so any single trial can be reproduced in isolation and
whole tables are bit-identical across runs.  Every phase-table trial is a
:func:`rerun_trial` call, the one place trial seeds are derived.  Trials
are independent and may execute in a process pool, which receives the
config once per chunk of trials; aggregation is pure counting, so results
do not depend on completion order.  The environment variable
``IRLS_THREADS`` caps the worker count.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, field, fields
from functools import lru_cache, partial

import numpy as np
from scipy.linalg.blas import dgemv

from .errors import SchemaMismatchError
from .linalg import SensingMatrix, _fmt
from .solver import (
    IrlsConfig,
    IterationRecord,
    RecoveryResult,
    default_sparsity_order,
    irls_run,
    rate_diagnostics,
)
from .sparsity import rearrangement

#: generator identity recorded in outputs (bit streams are stable for a
#: fixed numpy version; Philox itself is specified exactly)
RNG_ID = f"numpy-{np.__version__}-philox-blake2b-v1"


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 128-bit seed from the master seed and a cell key."""
    payload = repr((int(master_seed),) + tuple(parts)).encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=16).digest(), "little")


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed & ((1 << 128) - 1)))


def worker_count() -> int:
    env = os.environ.get("IRLS_THREADS")
    if env is not None:
        return max(1, int(env))
    return os.cpu_count() or 1


def gen_gaussian_matrix(m: int, n: int, seed: int) -> SensingMatrix:
    """m-by-N matrix with i.i.d. normal entries of mean 0 and variance 1/m.

    Deterministic: the same seed yields a bit-identical matrix.
    """
    if not m < n:
        raise ValueError(f"need m < N, got m={m}, N={n}")
    entries = make_rng(seed).normal(0.0, 1.0 / np.sqrt(m), size=(m, n))
    return SensingMatrix(entries)


def gen_sparse_vector(
    n: int, k: int, seed: int, gap_ratio: float | None = None
) -> np.ndarray:
    """k-sparse vector with uniform support and standard-normal magnitudes.

    With ``gap_ratio=C`` a fully supported perturbation is added and scaled
    so that the k-th largest magnitude equals exactly C times the l1 tail
    beyond it ("approximately k-sparse with gap ratio C"); the scale is
    found by a fixed-point iteration and validated to 1e-12 relative.
    """
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    rng = make_rng(seed)
    z = np.zeros(n)
    if k > 0:
        support = rng.choice(n, size=k, replace=False)
        z[support] = rng.normal(size=k)
    if gap_ratio is None:
        return z
    if gap_ratio <= 0:
        raise ValueError("gap_ratio must be positive")
    if k == 0:
        raise ValueError("gap_ratio requires k >= 1")
    noise = rng.normal(size=n)
    r0 = rearrangement(z)
    beta = r0[k - 1] / (gap_ratio * np.sum(np.abs(noise)))
    for _ in range(200):
        r = rearrangement(z + beta * noise)
        beta_new = beta * r[k - 1] / (gap_ratio * np.sum(r[k:]))
        if abs(beta_new - beta) <= 1e-16 * beta:
            beta = beta_new
            break
        beta = beta_new
    out = z + beta * noise
    r = rearrangement(out)
    if abs(r[k - 1] - gap_ratio * np.sum(r[k:])) > 1e-12 * r[k - 1]:
        raise ValueError(
            "gap-ratio construction did not converge; increase gap_ratio"
        )
    return out


@dataclass
class ExperimentConfig:
    """Parameters for the experiment families.

    ``k`` is the planted sparsity for single-instance traces; phase
    transitions sweep ``k_list`` (defaulting to ``[k]``).  ``K_policy``
    selects the solver's sparsity order per trial: "EqualsPlantedK",
    "Heuristic", or an explicit integer.  ``warmstart_iters`` applies to
    the hybrid (tau < 1) methods in ``tau_list``.  A field whose value
    does not fit its type (see ``_json_fits``) raises ``ValueError``.
    """

    m: int
    N: int
    k: int
    tau_list: list[float] = field(default_factory=lambda: [1.0])
    trials: int = 1
    master_seed: int = 0
    success_tol: float = 1e-4
    K_policy: str | int = "EqualsPlantedK"
    gap_ratio: float | None = None
    k_list: list[int] | None = None
    warmstart_iters: int = 10
    max_iters: int = 1000
    eps_floor: float = 1e-10
    step_tol: float = 1e-9
    per_trial_matrix: bool = False

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _json_fits(value, _CONFIG_TYPES[f.name]):
                raise ValueError(f"config key {f.name!r}: {value!r} is not {f.type}")
        if not 0 <= self.k <= self.m < self.N:
            raise ValueError(f"need k <= m < N, got k={self.k}, m={self.m}, N={self.N}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if any(not 0 < t <= 1 for t in self.tau_list):
            raise ValueError("tau_list entries must be in (0, 1]")
        if isinstance(self.K_policy, str) and self.K_policy not in (
            "EqualsPlantedK",
            "Heuristic",
        ):
            raise ValueError(f"unknown K_policy {self.K_policy!r}")

    def resolve_K(self, planted_k: int) -> int:
        if self.K_policy == "EqualsPlantedK":
            return max(1, planted_k)
        if self.K_policy == "Heuristic":
            return default_sparsity_order(self.m, self.N)
        return int(self.K_policy)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """From a JSON object; ``ValueError`` names an unknown or mistyped key."""
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        for key in doc:
            if key not in _CONFIG_TYPES:
                raise ValueError(f"unknown config key {key!r}")
        return cls(**doc)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, encoding="ascii") as fh:
            return cls.from_dict(json.load(fh))


_CONFIG_TYPES = typing.get_type_hints(ExperimentConfig)


def _json_fits(value, hint) -> bool:
    """Whether a JSON value fits a field type; a bool is no number, an int is a float."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_json_fits(v, args[0]) for v in value)
    if args:  # a union
        return any(_json_fits(value, h) for h in args)
    if hint is bool or isinstance(value, bool):
        return hint is bool and isinstance(value, bool)
    return isinstance(value, (int, float) if hint is float else hint)


def method_tag(tau: float) -> str:
    return "tau1" if tau == 1.0 else f"hybrid-tau{tau:g}"


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    seed: int
    success: bool
    rel_error_l1: float
    iterations: int
    termination: str


@dataclass(frozen=True)
class PhaseCell:
    trials: int
    successes: int
    success_rate: float
    mean_iters: float


@dataclass
class PhaseTransitionTable:
    rows: dict
    config: ExperimentConfig
    rng_id: str = RNG_ID


def _solver_config(cfg: ExperimentConfig, tau: float, K: int) -> IrlsConfig:
    return IrlsConfig(
        K=K,
        tau=tau,
        warmstart_iters=0 if tau == 1.0 else cfg.warmstart_iters,
        max_iters=cfg.max_iters,
        eps_floor=cfg.eps_floor,
        step_tol=cfg.step_tol,
    )


@lru_cache(maxsize=8)
def _cached_matrix(m: int, n: int, seed: int) -> SensingMatrix:
    return gen_gaussian_matrix(m, n, seed)


def rerun_trial(cfg: ExperimentConfig, k: int, tau: float, trial_index: int) -> TrialRecord:
    """Run one (k, method, trial) entry of a phase table.

    The only place trial seeds are derived: ``run_phase_transition`` maps
    this function over every key, so a rerun is the table's trial itself.
    """
    tag = method_tag(tau)
    matrix_key = ("matrix", k, tag, trial_index) if cfg.per_trial_matrix else ("matrix",)
    phi = _cached_matrix(cfg.m, cfg.N, derive_seed(cfg.master_seed, *matrix_key))
    vector_seed = derive_seed(cfg.master_seed, "trial", k, tag, trial_index)
    planted = gen_sparse_vector(cfg.N, k, vector_seed)
    y = dgemv(1.0, phi.entries.T, planted, trans=1)
    result = irls_run(phi, y, _solver_config(cfg, tau, cfg.resolve_K(k)))
    err = float(np.sum(np.abs(result.x_final - planted)))
    norm = float(np.sum(np.abs(planted)))
    if norm > 0:
        rel = err / norm
    else:
        rel = 0.0 if err == 0.0 else np.inf
    return TrialRecord(
        trial_index,
        vector_seed,
        bool(rel <= cfg.success_tol),
        rel,
        result.iterations,
        result.termination,
    )


def run_phase_transition(
    cfg: ExperimentConfig, n_workers: int | None = None
) -> PhaseTransitionTable:
    """Success-rate table over sparsity levels and solver methods.

    One measurement matrix per table by default (seeded from the master
    seed); ``per_trial_matrix=True`` regenerates the matrix for every
    trial.  Every trial is a :func:`rerun_trial` call, so individual
    cells are reproducible in isolation.
    """
    ks = cfg.k_list if cfg.k_list is not None else [cfg.k]
    if any(not 0 <= k <= cfg.m for k in ks):
        raise ValueError("k_list entries must be in [0, m]")
    keys = [(k, tau, t) for k in ks for tau in cfg.tau_list for t in range(cfg.trials)]
    trial = partial(rerun_trial, cfg)
    workers = n_workers if n_workers is not None else worker_count()
    if workers > 1 and len(keys) > 8:
        # pool.map pickles ``trial``, and with it the config, once per chunk
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(trial, *zip(*keys), chunksize=16))
    else:
        records = [trial(*key) for key in keys]
    cells: dict = {}
    for (k, tau, _), record in zip(keys, records):
        cells.setdefault((k, method_tag(tau)), []).append(record)
    rows = {}
    for key, recs in cells.items():
        succ = sum(r.success for r in recs)
        rows[key] = PhaseCell(
            trials=len(recs),
            successes=succ,
            success_rate=succ / len(recs),
            mean_iters=float(np.mean([r.iterations for r in recs])),
        )
    return PhaseTransitionTable(rows=rows, config=cfg)


@dataclass
class TraceStudy:
    """A single-instance convergence trace with rate diagnostics."""

    result: RecoveryResult
    diagnostics: list
    planted: np.ndarray
    tag: str
    matrix_seed: int
    vector_seed: int
    rng_id: str = RNG_ID


def run_trace(
    cfg: ExperimentConfig,
    tau: float,
    trace_csv=None,
    ratios_csv=None,
) -> TraceStudy:
    """Run one seeded instance, tracing reference errors and rate ratios.

    The planted vector (``cfg.gap_ratio`` aware) is kept as the reference;
    CSV files are written when paths are given.
    """
    matrix_seed = derive_seed(cfg.master_seed, "matrix")
    vector_seed = derive_seed(cfg.master_seed, "vector")
    phi = gen_gaussian_matrix(cfg.m, cfg.N, matrix_seed)
    planted = gen_sparse_vector(cfg.N, cfg.k, vector_seed, cfg.gap_ratio)
    solver_cfg = _solver_config(cfg, tau, cfg.resolve_K(cfg.k))
    y = dgemv(1.0, phi.entries.T, planted, trans=1)
    result = irls_run(phi, y, solver_cfg, x_ref=planted)
    diagnostics = rate_diagnostics(result, planted, tau) if result.trace else []
    study = TraceStudy(
        result=result,
        diagnostics=diagnostics,
        planted=planted,
        tag=method_tag(tau),
        matrix_seed=matrix_seed,
        vector_seed=vector_seed,
    )
    if trace_csv is not None:
        write_trace_csv(result, trace_csv)
    if ratios_csv is not None:
        write_ratios_csv(diagnostics, ratios_csv)
    return study


# --- CSV schemas -------------------------------------------------------------
#
# Each schema maps column names, in file order, to cell types.  Floats are
# written with 17 significant digits and None as an empty cell, which reads
# back as None in a ``float | None`` column and is an error elsewhere.

TRACE_CSV_COLUMNS = typing.get_type_hints(IterationRecord)
RATIOS_CSV_COLUMNS = {"n": int, "linear_ratio": float, "superlinear_ratio": float}
PHASE_CSV_COLUMNS = {"k": int, "method": str, **typing.get_type_hints(PhaseCell)}


def _write_csv(path, columns: dict, rows) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:  # csv writes None as an empty cell
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def _read_csv(path, columns: dict) -> list[dict]:
    """Rows as dicts of the ``columns`` cells, converted to their types.

    Other columns are ignored; a missing one raises ``SchemaMismatchError``.
    """
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaMismatchError(f"{path}: empty file")
        for col in columns:
            if col not in header:
                raise SchemaMismatchError(f"{path}: missing column '{col}'")
        rows = [dict(zip(header, row)) for row in reader]
    return [{col: _parse_cell(row[col], kind) for col, kind in columns.items()} for row in rows]


def _parse_cell(text: str, kind):
    if kind == float | None:
        return float(text) if text else None
    return kind(text)


def write_trace_csv(result: RecoveryResult, path) -> None:
    _write_csv(path, TRACE_CSV_COLUMNS, [astuple(rec) for rec in result.trace])


def read_trace_csv(path) -> list[dict]:
    return _read_csv(path, TRACE_CSV_COLUMNS)


def write_ratios_csv(diagnostics, path) -> None:
    _write_csv(path, RATIOS_CSV_COLUMNS, diagnostics)


def read_ratios_csv(path) -> list[dict]:
    return _read_csv(path, RATIOS_CSV_COLUMNS)


def write_phase_csv(table: PhaseTransitionTable, path) -> None:
    rows = [(k, tag, *astuple(table.rows[(k, tag)])) for k, tag in sorted(table.rows)]
    _write_csv(path, PHASE_CSV_COLUMNS, rows)


def read_phase_csv(path) -> list[dict]:
    return _read_csv(path, PHASE_CSV_COLUMNS)
