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
from dataclasses import astuple, dataclass, field
from functools import lru_cache, partial

import numpy as np
from scipy.linalg.blas import dgemv

from .errors import SchemaMismatchError
from .linalg import SensingMatrix, _check_int, _check_shape, make_rng
from .solver import (
    IrlsConfig,
    IterationRecord,
    RecoveryResult,
    _JSON_TYPE_NAMES,
    _check_record,
    default_sparsity_order,
    irls_run,
)
from .sparsity import rearrangement

#: generator identity, recorded by the benchmark for provenance (bit streams
#: are stable for a fixed numpy version; Philox itself is specified exactly)
RNG_ID = f"numpy-{np.__version__}-philox-blake2b-v1"


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 128-bit seed from the master seed, any integer, and a cell key."""
    payload = repr((_check_int(master_seed, "master_seed", None),) + tuple(parts)).encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=16).digest(), "little")


def worker_count() -> int:
    env = os.environ.get("IRLS_THREADS")
    if env is None:
        return os.cpu_count() or 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(f"IRLS_THREADS must be an integer, got {env!r}") from None


def gen_gaussian_matrix(m: int, n: int, seed: int) -> SensingMatrix:
    """m-by-N matrix with i.i.d. normal entries of mean 0 and variance 1/m.

    Deterministic: the same seed yields a bit-identical matrix.
    """
    m, n = _check_shape(m, n)
    entries = make_rng(seed).normal(0.0, 1.0 / np.sqrt(m), size=(m, n))
    return SensingMatrix(entries)


def _check_gap_ratio(gap_ratio: float | None, k: int, n: int) -> None:
    if gap_ratio is not None and not gap_ratio > 0:
        raise ValueError(f"gap_ratio must be positive, got {gap_ratio}")
    if gap_ratio is not None:  # the gap is taken against the tail beyond k
        _check_int(k, "k with a gap_ratio", 1, n - 1)


def gen_sparse_vector(
    n: int, k: int, seed: int, gap_ratio: float | None = None
) -> np.ndarray:
    """k-sparse vector with uniform support and standard-normal magnitudes.

    With ``gap_ratio=C`` a fully supported perturbation is added and scaled
    so that the k-th largest magnitude equals exactly C times the l1 tail
    beyond it ("approximately k-sparse with gap ratio C"); the scale is
    found by a fixed-point iteration and validated to 1e-12 relative.
    """
    n = _check_int(n, "n", 0)
    k = _check_int(k, "k", 0, n)
    _check_gap_ratio(gap_ratio, k, n)
    rng = make_rng(seed)
    z = np.zeros(n)
    if k > 0:
        support = rng.choice(n, size=k, replace=False)
        z[support] = rng.normal(size=k)
    if gap_ratio is None:
        return z
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
    "Heuristic", or an integer K with 1 <= K < N.  ``warmstart_iters``
    applies to the hybrid (tau < 1) methods in ``tau_list``.  ``gap_ratio``
    shapes only the planted vector of ``trace``; phase trials
    (:func:`rerun_trial`) draw exactly k-sparse vectors and ignore it.
    Before any trial runs, ``ValueError`` rejects a field that does not fit its type (see ``_hint_schema``),
    a solver setting ``IrlsConfig`` rejects, an empty list, a repeated cell (``tau_list`` entries compare by
    :func:`file_suffix`), a shape without 0 < m < N, a ``k`` or ``k_list`` entry outside [0, m] and an
    infinite ``success_tol``.
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
    eps_floor: float = IrlsConfig.eps_floor
    step_tol: float = IrlsConfig.step_tol
    per_trial_matrix: bool = False

    def __post_init__(self):
        _check_record(vars(self), _EXPERIMENT_SCHEMA, "config")
        _check_shape(self.m, self.N)
        _check_int(self.k, "k", 0, self.m)
        _check_int(self.trials, "trials", 1)
        if not 0 <= self.success_tol < np.inf:
            raise ValueError(f"success_tol must be finite and non-negative, got {self.success_tol}")
        _check_gap_ratio(self.gap_ratio, self.k, self.N)
        ks = [_check_int(k, "k_list entry", 0, self.m) for k in self.k_sweep]
        if not 0 < len(set(ks)) == len(ks):
            raise ValueError(f"k_list must be a non-empty list of distinct entries, got {self.k_list}")
        if not self.tau_list or len({file_suffix(tau) for tau in self.tau_list}) < len(self.tau_list):
            raise ValueError(f"tau_list must be a non-empty list of entries with distinct file suffixes, got {self.tau_list}")
        for tau in self.tau_list:  # the solver's rules and K_policy, met before any trial runs
            _solver_config(self, tau, self.k)

    @property
    def k_sweep(self) -> list[int]:
        """The planted sparsities of a phase table: ``k_list``, by default ``[k]``."""
        return self.k_list if self.k_list is not None else [self.k]

    def resolve_K(self, planted_k: int) -> int:
        if self.K_policy == "EqualsPlantedK":
            return max(1, planted_k)
        if self.K_policy == "Heuristic":
            return default_sparsity_order(self.m, self.N)
        if isinstance(self.K_policy, str):
            raise ValueError(f"unknown K_policy {self.K_policy!r}, not a name or an integer in [1, N)")
        return _check_int(self.K_policy, "K_policy", 1, self.N - 1)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """From a JSON object; ``ValueError`` names an unknown or mistyped key."""
        return cls(**_check_record(doc, _EXPERIMENT_SCHEMA, "config"))

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, encoding="ascii") as fh:
            return cls.from_dict(json.load(fh))


def _hint_schema(hint) -> dict:
    """The JSON-schema ``type`` list and ``items`` of a field type hint; a union joins its members'."""
    if typing.get_origin(hint) is list:
        return {"type": ["array"], "items": _hint_schema(*typing.get_args(hint))}
    parts = [_hint_schema(h) for h in typing.get_args(hint)] or [{"type": [_JSON_TYPE_NAMES[hint]]}]
    return {k: v for part in parts for k, v in part.items()} | {"type": [t for part in parts for t in part["type"]]}


#: ``ExperimentConfig`` as a JSON record; no key is required, as a missing one takes its default
_EXPERIMENT_SCHEMA = {"additionalProperties": False, "properties": {
    key: _hint_schema(hint) for key, hint in typing.get_type_hints(ExperimentConfig).items()}}


def method_tag(tau: float) -> str:
    return "tau1" if tau == 1.0 else f"hybrid-tau{tau:g}"


def file_suffix(tau: float) -> str:
    """The trace and ratio file-name suffix of a method, from its tag: ``hybrid-tau0.6`` gives ``tau0p6``."""
    return method_tag(tau).removeprefix("hybrid-").replace(".", "p")


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    success: bool
    iterations: int
    termination: str


@dataclass(frozen=True)
class PhaseCell:
    trials: int
    successes: int
    success_rate: float
    mean_iters: float


def _solver_config(cfg: ExperimentConfig, tau: float, k: int) -> IrlsConfig:
    return IrlsConfig(
        K=cfg.resolve_K(k),
        tau=tau,
        warmstart_iters=0 if tau == 1.0 else cfg.warmstart_iters,
        max_iters=cfg.max_iters,
        eps_floor=cfg.eps_floor,
        step_tol=cfg.step_tol,
    )


@lru_cache(maxsize=8)
def _cached_matrix(m: int, n: int, seed: int) -> SensingMatrix:
    return gen_gaussian_matrix(m, n, seed)


def _instance(cfg: ExperimentConfig, k: int, vector_key: tuple, gap_ratio: float | None = None, matrix_cell=()):
    """The seeded ``(phi, planted, y)`` of one run, its seeds derived from the master seed and the keys
    ``vector_key`` and ``("matrix", *matrix_cell)``; the default cell is the phase table's shared matrix."""
    phi = _cached_matrix(cfg.m, cfg.N, derive_seed(cfg.master_seed, "matrix", *matrix_cell))
    planted = gen_sparse_vector(cfg.N, k, derive_seed(cfg.master_seed, *vector_key), gap_ratio)
    return phi, planted, dgemv(1.0, phi.entries.T, planted, trans=1)


def rerun_trial(cfg: ExperimentConfig, k: int, tau: float, trial_index: int) -> TrialRecord:
    """Run one (k, method, trial) entry of a phase table.

    The only place trial seeds are derived: ``run_phase_transition`` maps
    this function over every key, so a rerun is the table's trial itself.
    It succeeds when its l1 error is at most ``success_tol * ||planted||_1``.
    """
    tag = method_tag(tau)
    cell = (k, tag, trial_index)
    phi, planted, y = _instance(cfg, k, ("trial", *cell), matrix_cell=cell if cfg.per_trial_matrix else ())
    result = irls_run(phi, y, _solver_config(cfg, tau, k))
    err = float(np.sum(np.abs(result.x_final - planted)))
    success = bool(err <= cfg.success_tol * np.sum(np.abs(planted)))
    return TrialRecord(trial_index, success, result.iterations, result.termination)


def run_phase_transition(
    cfg: ExperimentConfig, n_workers: int | None = None
) -> dict[tuple[int, str], PhaseCell]:
    """Success-rate cells of the ``(k, tau)`` grid, keyed ``(k, method_tag(tau))`` in grid order.

    Cell i is trials ``i * trials`` to ``(i + 1) * trials`` of the grid-ordered
    list, each a :func:`rerun_trial` call, so cells are reproducible in isolation.
    One measurement matrix per table by default (seeded from the master
    seed); ``per_trial_matrix=True`` regenerates it for every trial.
    """
    grid = [(k, tau) for k in cfg.k_sweep for tau in cfg.tau_list]
    trials = cfg.trials
    keys = [(k, tau, t) for k, tau in grid for t in range(trials)]
    trial = partial(rerun_trial, cfg)
    workers = n_workers if n_workers is not None else worker_count()
    if workers > 1 and len(keys) > 8:
        # pool.map pickles ``trial``, and with it the config, once per chunk
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(trial, *zip(*keys), chunksize=16))
    else:
        records = [trial(*key) for key in keys]
    rows = {}
    for i, (k, tau) in enumerate(grid):
        recs = records[i * trials:(i + 1) * trials]
        succ = sum(r.success for r in recs)
        rows[(k, method_tag(tau))] = PhaseCell(
            trials=trials,
            successes=succ,
            success_rate=succ / trials,
            mean_iters=float(np.mean([r.iterations for r in recs])),
        )
    return rows


def run_trace(cfg: ExperimentConfig, tau: float) -> RecoveryResult:
    """Run one seeded instance, on the phase table's shared matrix, and return the run.

    The planted vector (``cfg.gap_ratio`` aware) is the run's ``x_ref``, so
    ``rate_diagnostics(run)`` gives its rate ratios and ``run.trace`` its errors.
    """
    phi, planted, y = _instance(cfg, cfg.k, ("vector",), cfg.gap_ratio)
    return irls_run(phi, y, _solver_config(cfg, tau, cfg.k), x_ref=planted)


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
            writer.writerow(["%.17g" % v if isinstance(v, float) else v for v in row])


def _read_csv(path, columns: dict) -> list[dict]:
    """Rows as dicts of the ``columns`` cells, converted to their types.

    Other columns are ignored; a missing one or a row of another width raises ``SchemaMismatchError``.
    """
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaMismatchError(f"{path}: empty file")
        for col in columns:
            if col not in header:
                raise SchemaMismatchError(f"{path}: missing column '{col}'")
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise SchemaMismatchError(f"{path}: line {reader.line_num} has {len(row)} cells, not {len(header)}")
            rows.append(dict(zip(header, row)))
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


def write_phase_csv(cells: dict[tuple[int, str], PhaseCell], path) -> None:
    rows = [(k, tag, *astuple(cells[(k, tag)])) for k, tag in sorted(cells)]
    _write_csv(path, PHASE_CSV_COLUMNS, rows)


def read_phase_csv(path) -> list[dict]:
    return _read_csv(path, PHASE_CSV_COLUMNS)
