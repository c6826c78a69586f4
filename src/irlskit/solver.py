"""Iteratively re-weighted least squares for l1 and l-tau minimization.

The iteration alternates a weighted least-squares solve on the solution
set with a weight update derived from the current iterate and a smoothing
parameter ``eps`` that decreases adaptively:

    x_{n+1} = argmin_{Phi z = y} sum_j w_j z_j**2
    eps_{n+1} = min(eps_n, r(x_{n+1})_{K+1} / N)
    w_{n+1,j} = (x_{n+1,j}**2 + eps_{n+1}**2) ** (-(2 - tau) / 2)

with w_0 = (1, ..., 1) and eps_0 = 1.  For ``tau = 1`` the iteration
targets the minimum-l1 solution; for ``tau < 1`` it targets the
(non-convex) minimum sum-of-tau-powers solution, optionally after a
warm-start phase run at ``tau = 1``.

:func:`irls_run` is the one loop: it holds x, w, eps and n as locals,
resolves K once per run and calls the step functions defined here.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from importlib import resources

import numpy as np

from .errors import IllConditionedError, MissingReferenceError
from .linalg import SensingMatrix, weighted_ls_solve

RESULT_SCHEMA_VERSION = 1

#: termination reasons recorded on RecoveryResult
TERMINATIONS = (
    "EpsHitFloor",
    "StepBelowTol",
    "MaxIters",
    "ExactSparseStop",
    "IllConditioned",
)


def default_sparsity_order(m: int, n: int) -> int:
    """Heuristic K when no sparsity prior is given: floor(m / (2 ln(N/m))).

    Clamped to [1, m - 1].  This tracks the usual scaling for Gaussian
    measurement ensembles; it is a documented default, not a prescription.
    """
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < N, got m={m}, N={n}")
    k = math.floor(m / (2.0 * math.log(n / m)))
    return max(1, min(k, m - 1))


@dataclass(frozen=True)
class IrlsConfig:
    """Solver configuration.

    ``K`` is the sparsity order used by the eps update; ``None`` selects
    the heuristic default for the target matrix.  ``warmstart_iters``
    counts iterations run with ``tau = 1`` before switching to ``tau``;
    ``None`` selects 10 when ``tau < 1`` and 0 otherwise.  ``eps_floor``
    is the floating-point stand-in for "eps = 0"; ``step_tol`` terminates
    on a small relative l1 step even when eps stalls above the floor.
    """

    K: int | None = None
    tau: float = 1.0
    warmstart_iters: int | None = None
    max_iters: int = 2000
    eps_floor: float = 1e-10
    step_tol: float = 1e-9

    def __post_init__(self):
        if self.K is not None and self.K < 1:
            raise ValueError("K must be a positive integer")
        if not 0 < self.tau <= 1:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if self.warmstart_iters is not None and self.warmstart_iters < 0:
            raise ValueError("warmstart_iters must be non-negative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.eps_floor <= 0 or self.step_tol <= 0:
            raise ValueError("eps_floor and step_tol must be positive")

    @property
    def warmstart(self) -> int:
        if self.warmstart_iters is not None:
            return self.warmstart_iters
        return 10 if self.tau < 1 else 0

    def resolve_K(self, phi: SensingMatrix) -> int:
        m, n = phi.shape
        k = self.K if self.K is not None else default_sparsity_order(m, n)
        if not 1 <= k < n:
            raise ValueError(f"K must satisfy 1 <= K < N, got K={k}, N={n}")
        return k


@dataclass(frozen=True)
class IterationRecord:
    n: int
    surrogate: float
    eps: float
    step_l1: float
    ref_error_l1: float | None = None


@dataclass
class RecoveryResult:
    """Outcome of a solver run: final iterate, reason, per-iteration trace.

    ``a_bound`` is the surrogate value of the first iterate against the
    initial weights and smoothing parameter; it bounds every later iterate's
    l1 norm (tau-th-power norm for tau < 1).  ``iterates`` retains the full
    iterate history when requested (needed by tau < 1 rate diagnostics);
    it is never serialized.
    """

    x_final: np.ndarray
    termination: str
    trace: list[IterationRecord]
    a_bound: float
    config: IrlsConfig
    resolved_K: int
    iterates: list[np.ndarray] | None = None

    @property
    def iterations(self) -> int:
        return len(self.trace)


def surrogate_value(z: np.ndarray, w: np.ndarray, eps: float, tau: float = 1.0) -> float:
    """Joint surrogate functional of (z, w, eps) for exponent tau.

    (tau/2) * [sum z_j^2 w_j + sum (eps^2 w_j + ((2-tau)/tau) w_j^(-tau/(2-tau)))].
    At tau = 1 this is (1/2) [sum z_j^2 w_j + sum (eps^2 w_j + 1/w_j)].
    """
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    if not 0 < tau <= 1:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    quad = float(np.sum(z * z * w))
    reg = float(eps * eps * np.sum(w) + ((2.0 - tau) / tau) * np.sum(w ** (-tau / (2.0 - tau))))
    return 0.5 * tau * (quad + reg)


def smoothed_objective(z: np.ndarray, eps: float, tau: float = 1.0) -> float:
    """Smoothed objective ``sum_j (z_j^2 + eps^2)^(tau/2)``.

    Minimizing over w > 0 of the surrogate at fixed (z, eps) lands exactly
    here; at tau = 1, eps = 0 it is the l1 norm.
    """
    z = np.asarray(z, dtype=float)
    if eps < 0:
        raise ValueError("eps must be non-negative")
    if not 0 < tau <= 1:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    return float(np.sum((z * z + eps * eps) ** (0.5 * tau)))


def optimal_weights(x: np.ndarray, eps: float, tau: float = 1.0) -> np.ndarray:
    """Weights minimizing the surrogate at fixed (x, eps):
    ``w_j = (x_j^2 + eps^2) ** (-(2 - tau) / 2)``."""
    x = np.asarray(x, dtype=float)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not 0 < tau <= 1:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    return (x * x + eps * eps) ** (-0.5 * (2.0 - tau))


def epsilon_update(eps_prev: float, x_next: np.ndarray, k_order: int) -> float:
    """New smoothing parameter ``min(eps_prev, r(x_next)_{K+1} / N)``.

    ``r(x)_{K+1}``, the (K+1)-th largest magnitude, is read from a partial
    sort; it equals ``rearrangement(x_next)[K]`` without sorting all of x.
    """
    x_next = np.asarray(x_next, dtype=float)
    n = x_next.size
    if not 1 <= k_order < n:
        raise ValueError(f"need 1 <= K < N, got K={k_order}, N={n}")
    if eps_prev < 0:
        raise ValueError("eps_prev must be non-negative")
    kth = n - 1 - k_order
    return min(eps_prev, float(np.partition(np.abs(x_next), kth)[kth]) / n)


def irls_run(
    phi: SensingMatrix,
    y: np.ndarray,
    cfg: IrlsConfig,
    x_ref: np.ndarray | None = None,
    keep_iterates: bool = False,
) -> RecoveryResult:
    """Run the iteration from unit weights and eps = 1 until termination.

    Each pass solves, shrinks eps and, if the run goes on, re-weights with
    exponent 1 during the warm start and ``cfg.tau`` after it.

    Stops on: eps exactly zero (ExactSparseStop); eps at or below
    ``cfg.eps_floor`` (EpsHitFloor); relative l1 step at or below
    ``cfg.step_tol`` (StepBelowTol); ``cfg.max_iters`` iterations
    (MaxIters).  An ill-conditioned inner solve terminates the run with
    reason IllConditioned; the result up to that point is still returned.

    The iterate history is retained when ``keep_iterates`` is set or
    ``x_ref`` is given; with ``x_ref`` the per-iteration l1 reference
    errors are recorded as well.
    """
    y = np.asarray(y, dtype=float)
    k_order = cfg.resolve_K(phi)
    x, w, eps, n = np.zeros(phi.cols), np.ones(phi.cols), 1.0, 0
    trace: list[IterationRecord] = []
    iterates: list[np.ndarray] | None = [] if keep_iterates or x_ref is not None else None
    a_bound = math.nan
    while True:
        try:
            x_next = weighted_ls_solve(phi, y, w)
        except IllConditionedError:
            termination = "IllConditioned"
            break
        n += 1
        tau_n = 1.0 if n < cfg.warmstart else cfg.tau
        if n == 1:
            a_bound = surrogate_value(x_next, w, eps, tau_n)
        eps = epsilon_update(eps, x_next, k_order)
        step_l1 = float(np.sum(np.abs(x_next - x)))
        x = x_next
        ref_err = float(np.sum(np.abs(x - x_ref))) if x_ref is not None else None
        trace.append(IterationRecord(n, smoothed_objective(x, eps, tau_n), eps, step_l1, ref_err))
        if iterates is not None:
            iterates.append(x)
        if eps == 0.0:
            termination = "ExactSparseStop"
            break
        if eps <= cfg.eps_floor:
            termination = "EpsHitFloor"
            break
        if n >= 2 and step_l1 <= cfg.step_tol * max(float(np.sum(np.abs(x))), 1e-300):
            termination = "StepBelowTol"
            break
        if n >= cfg.max_iters:
            termination = "MaxIters"
            break
        w = optimal_weights(x, eps, tau_n)
    return RecoveryResult(
        x_final=x,
        termination=termination,
        trace=trace,
        a_bound=a_bound,
        config=cfg,
        resolved_K=k_order,
        iterates=iterates,
    )


def rate_diagnostics(
    result: RecoveryResult, x_ref: np.ndarray, tau: float = 1.0
) -> list[tuple[int, float, float]]:
    """Per-iteration contraction ratios against a reference vector.

    Errors are measured as ``E_n = sum_i |x_i^n - ref_i| ** tau``.  Returns
    ``(n, E_{n+1}/E_n, E_{n+1}/E_n**(2-tau))`` tuples; entries whose E_n is
    below ``1e3 * machine_eps * sum |ref_i|**tau`` are omitted.

    The run must have retained its iterates: :func:`irls_run` keeps them
    when given ``x_ref`` or ``keep_iterates=True``.
    """
    if not 0 < tau <= 1:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    if result.iterates is None:
        raise MissingReferenceError("need a run that retained its iterates")
    x_ref = np.asarray(x_ref, dtype=float)
    errors = [float(np.sum(np.abs(x - x_ref) ** tau)) for x in result.iterates]
    floor = 1e3 * np.finfo(float).eps * float(np.sum(np.abs(x_ref) ** tau))
    out = []
    for i in range(len(errors) - 1):
        if errors[i] <= floor:
            continue
        lin = errors[i + 1] / errors[i]
        sup = errors[i + 1] / errors[i] ** (2.0 - tau)
        out.append((result.trace[i].n, float(lin), float(sup)))
    return out


def theoretical_contraction_factor(
    gamma: float,
    rho: float,
    K: int,
    k: int,
    tau: float = 1.0,
    n_cols: int | None = None,
    r_k: float | None = None,
) -> float:
    """Theoretical local contraction constant for the error recursion.

    For ``tau = 1`` the error contracts linearly with factor

        mu = gamma (1 + gamma) / (1 - rho) * (1 + 1 / (K + 1 - k)),

    valid once the iterate is within ``rho * min_nonzero`` of a k-sparse
    limit.  For ``tau < 1`` the recursion is ``E_{n+1} <= mu E_n^(2-tau)``
    with

        mu = 2^(1-tau) gamma (1+gamma) A^tau (1 + (N^(1-tau)/(K+1-k))^(2-tau)),
        A = 1 / (r_k^(1-tau) (1-rho)^(2-tau)),

    where ``r_k`` is the smallest nonzero magnitude of the sparse limit.
    This estimate can be very pessimistic when ``r_k`` is small; treat it
    as a diagnostic, never as a convergence gate.
    """
    if not 0 < rho < 1:
        raise ValueError("rho must be in (0, 1)")
    if not 0 < gamma < 1:
        raise ValueError("gamma must be in (0, 1)")
    if k > K:
        raise ValueError("need k <= K")
    if not 0 < tau <= 1:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    if tau == 1.0:
        return gamma * (1.0 + gamma) / (1.0 - rho) * (1.0 + 1.0 / (K + 1 - k))
    if n_cols is None or r_k is None or r_k <= 0:
        raise ValueError("tau < 1 needs n_cols and positive r_k")
    a_const = 1.0 / (r_k ** (1.0 - tau) * (1.0 - rho) ** (2.0 - tau))
    return (
        2.0 ** (1.0 - tau)
        * gamma
        * (1.0 + gamma)
        * a_const**tau
        * (1.0 + (n_cols ** (1.0 - tau) / (K + 1 - k)) ** (2.0 - tau))
    )


# --- JSON serialization -----------------------------------------------------


def result_to_dict(result: RecoveryResult) -> dict:
    """Versioned JSON document for a RecoveryResult.

    Field names are fixed by ``schemas/recovery_result.schema.json``.  The
    config block records the K and warm start the run resolved.
    """
    cfg = result.config
    return {
        "schema_version": RESULT_SCHEMA_VERSION,
        "config": asdict(replace(cfg, K=result.resolved_K, warmstart_iters=cfg.warmstart)),
        "termination": result.termination,
        "a_bound": result.a_bound if math.isfinite(result.a_bound) else None,
        "x_final": [float(v) for v in result.x_final],
        "trace": [asdict(rec) for rec in result.trace],
    }


def save_result(result: RecoveryResult, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(result_to_dict(result), fh, indent=1)
        fh.write("\n")


def _from_json(cls, row: dict):
    """``cls(**row)``, where a missing field raises ``KeyError`` rather than taking its default."""
    for f in fields(cls):
        if f.name not in row:
            raise KeyError(f.name)
    return cls(**row)


def load_result(path) -> RecoveryResult:
    """Read a RecoveryResult JSON document back into memory."""
    with open(path, encoding="ascii") as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != RESULT_SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {doc.get('schema_version')!r}")
    cfg = _from_json(IrlsConfig, doc["config"])
    trace = [_from_json(IterationRecord, row) for row in doc["trace"]]
    a_bound = doc["a_bound"]
    return RecoveryResult(
        x_final=np.array(doc["x_final"], dtype=float),
        termination=doc["termination"],
        trace=trace,
        a_bound=math.nan if a_bound is None else a_bound,
        config=cfg,
        resolved_K=cfg.K,
    )


def result_schema() -> dict:
    """The JSON schema shipped with the package."""
    text = resources.files("irlskit").joinpath("schemas/recovery_result.schema.json").read_text()
    return json.loads(text)
