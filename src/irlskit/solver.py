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
resolves its config once per run and calls the step functions defined here.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, replace
from importlib import resources

import numpy as np

from .errors import IllConditionedError, MissingReferenceError
from .linalg import SensingMatrix, _as_float_vector, _check_int, _check_real, _check_shape, _check_tau, weighted_ls_solve


def result_schema() -> dict:
    """The JSON schema shipped with the package, read afresh on each call."""
    text = resources.files("irlskit").joinpath("schemas/recovery_result.schema.json").read_text()
    return json.loads(text)


#: the one statement of the result record, read once; ``result_schema()`` hands out copies
_SCHEMA = result_schema()
RESULT_SCHEMA_VERSION = _SCHEMA["properties"]["schema_version"]["const"]
TERMINATIONS = tuple(_SCHEMA["properties"]["termination"]["enum"])  #: reasons recorded on RecoveryResult
#: a config as built, whose ``K`` and ``warmstart_iters`` may be None until a run resolves them
_CONFIG = {**_SCHEMA["properties"]["config"], "properties": {
    key: {**spec, "type": [spec["type"], "null"]} if key in ("K", "warmstart_iters") else spec
    for key, spec in _SCHEMA["properties"]["config"]["properties"].items()}}


def default_sparsity_order(m: int, n: int) -> int:
    """Heuristic K when no sparsity prior is given: floor(m / (2 ln(N/m))).

    Clamped to [1, m - 1].  This tracks the usual scaling for Gaussian
    measurement ensembles; it is a documented default, not a prescription.
    """
    m, n = _check_shape(m, n)
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
    Fields meet the shipped schema's ``config`` block, but for the None values above.
    """

    K: int | None = None
    tau: float = 1.0
    warmstart_iters: int | None = None
    max_iters: int = 2000
    eps_floor: float = 1e-10
    step_tol: float = 1e-9

    def __post_init__(self):
        _check_record(vars(self), _CONFIG, "config")

    @property
    def warmstart(self) -> int:
        if self.warmstart_iters is not None:
            return self.warmstart_iters
        return 10 if self.tau < 1 else 0

    def resolve_K(self, phi: SensingMatrix) -> int:
        m, n = phi.shape
        return _check_int(self.K if self.K is not None else default_sparsity_order(m, n), "K", 1, n - 1)


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
    l1 norm (tau-th-power norm for tau < 1).  ``config`` is the config the
    run used, with ``K`` and ``warmstart_iters`` resolved.  A run given
    ``x_ref`` keeps it and its ``iterates`` history; neither is serialized.
    """

    x_final: np.ndarray
    termination: str
    trace: list[IterationRecord]
    a_bound: float
    config: IrlsConfig
    iterates: list[np.ndarray] | None = None
    x_ref: np.ndarray | None = None

    @property
    def iterations(self) -> int:
        return len(self.trace)


def surrogate_value(z: np.ndarray, w: np.ndarray, eps: float, tau: float = 1.0) -> float:
    """Joint surrogate functional of (z, w, eps) for exponent tau.

    (tau/2) * [sum z_j^2 w_j + sum (eps^2 w_j + ((2-tau)/tau) w_j^(-tau/(2-tau)))].
    At tau = 1 this is (1/2) [sum z_j^2 w_j + sum (eps^2 w_j + 1/w_j)].
    """
    z = _as_float_vector(z, "z")
    w = _as_float_vector(w, "w", z.size)
    if np.any(w <= 0):
        raise ValueError("w must be strictly positive")
    eps, tau = _check_real(eps, "eps", 0, math.inf), _check_tau(tau)
    quad = float(np.sum(z * z * w))
    reg = float(eps * eps * np.sum(w) + ((2.0 - tau) / tau) * np.sum(w ** (-tau / (2.0 - tau))))
    return 0.5 * tau * (quad + reg)


def smoothed_objective(z: np.ndarray, eps: float, tau: float = 1.0) -> float:
    """Smoothed objective ``sum_j (z_j^2 + eps^2)^(tau/2)``.

    Minimizing over w > 0 of the surrogate at fixed (z, eps) lands exactly
    here; at tau = 1, eps = 0 it is the l1 norm.
    """
    z = _as_float_vector(z, "z")
    eps, tau = _check_real(eps, "eps", 0, math.inf), _check_tau(tau)
    return float(np.sum((z * z + eps * eps) ** (0.5 * tau)))


def optimal_weights(x: np.ndarray, eps: float, tau: float = 1.0) -> np.ndarray:
    """Weights minimizing the surrogate at fixed (x, eps):
    ``w_j = (x_j^2 + eps^2) ** (-(2 - tau) / 2)``."""
    x = _as_float_vector(x, "x")
    eps, tau = _check_real(eps, "eps", 0, math.inf, open_lo=True, open_hi=True), _check_tau(tau)
    return (x * x + eps * eps) ** (-0.5 * (2.0 - tau))


def epsilon_update(eps_prev: float, x_next: np.ndarray, k_order: int) -> float:
    """New smoothing parameter ``min(eps_prev, r(x_next)_{K+1} / N)``.

    ``r(x)_{K+1}``, the (K+1)-th largest magnitude, is read from a partial
    sort; it equals ``rearrangement(x_next)[K]`` without sorting all of x.
    """
    x_next = _as_float_vector(x_next, "x_next")
    n = x_next.size
    k_order = _check_int(k_order, "K", 1, n - 1)
    eps_prev = _check_real(eps_prev, "eps_prev", 0, math.inf)
    kth = n - 1 - k_order
    return min(eps_prev, float(np.partition(np.abs(x_next), kth)[kth]) / n)


def irls_run(
    phi: SensingMatrix,
    y: np.ndarray,
    cfg: IrlsConfig,
    x_ref: np.ndarray | None = None,
) -> RecoveryResult:
    """Run the iteration from unit weights and eps = 1 until termination.

    Each pass solves, shrinks eps and, if the run goes on, re-weights with
    exponent 1 during the warm start and ``cfg.tau`` after it.

    Stops on: eps exactly zero (ExactSparseStop); eps at or below
    ``cfg.eps_floor`` (EpsHitFloor); relative l1 step at or below
    ``cfg.step_tol`` (StepBelowTol); ``cfg.max_iters`` iterations
    (MaxIters).  An ill-conditioned inner solve terminates the run with
    reason IllConditioned; the result up to that point is still returned.

    The result carries ``cfg`` with K and the warm start resolved.  Given
    a finite reference ``x_ref`` of shape (N,), the run records the
    per-iteration l1 reference errors and keeps it and its iterate history.
    """
    y = _as_float_vector(y, "y", phi.shape[0])
    cfg = replace(cfg, K=cfg.resolve_K(phi), warmstart_iters=cfg.warmstart)
    if x_ref is not None:
        x_ref = _as_float_vector(x_ref, "x_ref", phi.shape[1])
    x, w, eps, n = np.zeros(phi.shape[1]), np.ones(phi.shape[1]), 1.0, 0
    trace: list[IterationRecord] = []
    iterates: list[np.ndarray] | None = None if x_ref is None else []
    a_bound = math.nan
    while True:
        try:
            x_next = weighted_ls_solve(phi, y, w)
        except IllConditionedError:
            termination = "IllConditioned"
            break
        n += 1
        tau_n = 1.0 if n < cfg.warmstart_iters else cfg.tau
        if n == 1:
            a_bound = surrogate_value(x_next, w, eps, tau_n)
        eps = epsilon_update(eps, x_next, cfg.K)
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
        iterates=iterates,
        x_ref=x_ref,
    )


def rate_diagnostics(result: RecoveryResult) -> list[tuple[int, float, float]]:
    """Per-iteration contraction ratios against the run's own reference.

    Errors are ``E_n = sum_i |x_i^n - ref_i| ** tau`` with the run's tau and
    ``ref = result.x_ref``.  Returns ``(n, E_{n+1}/E_n, E_{n+1}/E_n**(2-tau))``
    tuples; entries whose E_n is below ``1e3 * machine_eps * sum |ref_i|**tau``
    are omitted.  The run must have been given ``x_ref`` by :func:`irls_run`.
    """
    if result.x_ref is None:
        raise MissingReferenceError("need a run given a reference x_ref")
    tau = result.config.tau
    errors = [float(np.sum(np.abs(x - result.x_ref) ** tau)) for x in result.iterates]
    floor = 1e3 * np.finfo(float).eps * float(np.sum(np.abs(result.x_ref) ** tau))
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
    rho = _check_real(rho, "rho", 0, 1, open_lo=True, open_hi=True)
    gamma = _check_real(gamma, "gamma", 0, 1, open_lo=True, open_hi=True)
    K = _check_int(K, "K", 1)
    k = _check_int(k, "k", 0, K)
    tau = _check_tau(tau)
    if tau == 1.0:
        return gamma * (1.0 + gamma) / (1.0 - rho) * (1.0 + 1.0 / (K + 1 - k))
    n_cols = _check_int(n_cols, "n_cols", 1)  # None too: tau < 1 needs it
    r_k = _check_real(r_k, "r_k", 0, math.inf, open_lo=True, open_hi=True)
    a_const = 1.0 / (r_k ** (1.0 - tau) * (1.0 - rho) ** (2.0 - tau))
    return (2.0 ** (1.0 - tau) * gamma * (1.0 + gamma) * a_const**tau
            * (1.0 + (n_cols ** (1.0 - tau) / (K + 1 - k)) ** (2.0 - tau)))


# --- JSON serialization -----------------------------------------------------


def result_to_dict(result: RecoveryResult) -> dict:
    """Versioned JSON document for a RecoveryResult.

    Field names are fixed by ``schemas/recovery_result.schema.json``.  The
    config block is the resolved config the run used.
    """
    return {
        "schema_version": RESULT_SCHEMA_VERSION,
        "config": asdict(result.config),
        "termination": result.termination,
        "a_bound": result.a_bound if math.isfinite(result.a_bound) else None,
        "x_final": [float(v) for v in result.x_final],
        "trace": [asdict(rec) for rec in result.trace],
    }


def save_result(result: RecoveryResult, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(result_to_dict(result), fh, indent=1)
        fh.write("\n")


#: a value's JSON-schema type, by the first type it is an instance of: an integer (and number) is an int, not a bool
_JSON_TYPE_NAMES = {bool: "boolean", int: "integer", float: "number", str: "string", type(None): "null",
                    list: "array", dict: "object"}


def _check_record(doc, schema: dict, what: str) -> dict:
    """``doc`` if it is a JSON object that meets the object schema ``schema``, else ``ValueError`` naming
    ``what`` and the key, or ``KeyError`` for a missing required key.  A record in a record is named by its
    key, one in an array ``"<key> row"``.  Stricter than JSON Schema: ``1.0`` is no integer, NaN meets no bound."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    if schema.get("additionalProperties") is False and (unknown := doc.keys() - schema["properties"].keys()):
        raise ValueError(f"unknown {what} key {min(unknown)!r}")
    for key, spec in schema["properties"].items():  # doc[key] raises KeyError for a missing required key
        if (key in doc or key in schema.get("required", ())) and (problem := _mismatch(doc[key], spec, key)):
            raise ValueError(f"{what} key {key!r}: {problem}")
    return doc


def _mismatch(value, schema: dict, key: str) -> str | None:  # why value, held by key, does not meet schema
    if "properties" in schema:  # a record, which raises for itself
        _check_record(value, schema, key)
    kind = next((name for t, name in _JSON_TYPE_NAMES.items() if isinstance(value, t)), None)
    types = [schema["type"]] if isinstance(schema.get("type"), str) else schema.get("type", [kind])
    if kind not in types and not (kind == "integer" and "number" in types):
        return f"{value!r} is not {' or '.join(types)}"
    choices = schema.get("enum", [schema["const"]] if "const" in schema else None)
    if choices is not None and not any(type(value) is type(c) and value == c for c in choices):
        return f"{value!r} is not one of {choices}"
    for bound, fits, word in (("minimum", operator.ge, "below"), ("exclusiveMinimum", operator.gt, "not above"),
                              ("maximum", operator.le, "above")):
        if bound in schema and kind in ("integer", "number") and not fits(value, schema[bound]):  # NaN fits none
            return f"{value!r} is {word} {schema[bound]}"
    for i, item in enumerate(value if "items" in schema and isinstance(value, list) else []):
        if problem := _mismatch(item, schema["items"], f"{key} row"):
            return f"entry {i}: {problem}"
    return None


def load_result(path) -> RecoveryResult:
    """Read a RecoveryResult JSON document back into memory."""
    with open(path, encoding="ascii") as fh:
        doc = json.load(fh)
    # a later schema is named by its version first; the record check rejects a non-object
    if isinstance(doc, dict) and doc.get("schema_version") != RESULT_SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {doc.get('schema_version')!r}")
    _check_record(doc, _SCHEMA, "result")  # and with it the config and each trace row
    return RecoveryResult(
        x_final=np.array(doc["x_final"], dtype=float),
        termination=doc["termination"],
        trace=[IterationRecord(**row) for row in doc["trace"]],
        a_bound=math.nan if doc["a_bound"] is None else doc["a_bound"],
        config=IrlsConfig(**doc["config"]),
    )
