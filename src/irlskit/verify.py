"""Ground-truth oracles and matrix-property checkers.

RIP constants come from exhaustive support enumeration, each support's
singular values from the eigenvalues of its k x k Gram.  An eigenvalue
errs by about u sigma_max^2, so sigma_min errs by about
u sigma_max^2/(2 sigma_min); supports with sigma_min < 1e-3 sigma_max
get an SVD instead, which keeps delta within 1e-12 max(1, delta) of an
all-SVD enumeration.  The l1 oracle's dual simplex runs without
presolve, which removes nothing from the dense split-variable program
yet costs more than the simplex itself.  Null-space property constants
are exact for small null spaces (dimension <= 4): the worst mass ratio
over the kernel is attained at a vertex of ``{c : ||Bc||_1 <= 1}``, and
every vertex direction is the kernel of some (d-1)-subset of rows of
the basis, so enumerating those subsets is an exact search.  Each
subset's kernel direction is its generalized cross product, built in
closed form; a rank-deficient subset defines no vertex and is skipped,
so the search stays exact.  Larger null spaces (or exponents tau < 1,
where the ratio is no longer piecewise linear) get a documented Monte
Carlo lower bound instead; honest reporting beats silent approximation.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import (
    BudgetExceededError,
    DimensionTooLargeError,
    InfeasibleError,
    IrlsKitError,
)
from .linalg import SensingMatrix, _as_float_array, null_space_basis

EXACT_NSP_MAX_DIM = 4
EXACT_NSP_MAX_COLS = 16
RIP_SUPPORT_BUDGET = 2_000_000
SPARSE_ORACLE_BUDGET = 1_000_000
L1_ORACLE_MAX_COLS = 2000

@dataclass(frozen=True)
class PropertyReport:
    """Result of a matrix-property computation.

    ``constant`` is delta (kind RIP) or gamma (kinds NSP / TauNSP).
    Monte Carlo reports are lower bounds on the true constant; exact
    reports have ``samples == 0``.
    """

    kind: str
    order: int
    constant: float
    tau: float
    method: str
    samples: int
    elapsed_seconds: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "order": self.order,
            "constant": self.constant,
            "tau": self.tau,
            "method": self.method,
            "samples": self.samples,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def summary(self) -> str:
        name = "delta" if self.kind == "RIP" else "gamma"
        tau_note = "" if self.kind != "TauNSP" else f", tau={self.tau:g}"
        return (
            f"{self.kind} order {self.order}{tau_note}: {name} = {self.constant:.6g} "
            f"({self.method}, samples={self.samples}, {self.elapsed_seconds:.3f}s)"
        )


def _support_chunks(n: int, k: int, chunk: int = 512):
    it = itertools.combinations(range(n), k)
    while True:
        block = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(it, chunk)), dtype=int
        )
        if not block.size:
            return
        yield block.reshape(-1, k)


def rip_constant(phi: SensingMatrix, order: int, budget: int = RIP_SUPPORT_BUDGET) -> PropertyReport:
    """Restricted-isometry constant of the given order by full enumeration.

    delta = max over column supports T with |T| = order of
    max(sigma_max(Phi_T) - 1, 1 - sigma_min(Phi_T)), i.e. the non-squared
    convention: (1 - delta) ||z|| <= ||Phi z|| <= (1 + delta) ||z|| for all
    order-sparse z.  (Squared-convention constants satisfy
    delta_sq = max(sigma_max^2 - 1, 1 - sigma_min^2).)
    """
    m, n = phi.shape
    if not 1 <= order <= m:
        raise ValueError(f"order must be in [1, m={m}], got {order}")
    n_supports = math.comb(n, order)
    if n_supports > budget:
        raise BudgetExceededError(
            f"C({n},{order}) = {n_supports} supports exceeds budget {budget}"
        )
    t0 = time.perf_counter()
    delta = 0.0
    for idx in _support_chunks(n, order):
        sub = np.moveaxis(phi.entries[:, idx], 1, 0)  # (b, m, order)
        lam = np.linalg.eigvalsh(sub.transpose(0, 2, 1) @ sub)  # ascending
        sv = np.sqrt(np.maximum(lam, 0.0))
        near = lam[:, 0] < 1e-6 * lam[:, -1]  # sigma_min < 1e-3 sigma_max
        if np.any(near):
            sv[near] = np.linalg.svd(sub[near], compute_uv=False)[:, ::-1]
        delta = max(delta, float(np.max(sv[:, -1] - 1.0)), float(np.max(1.0 - sv[:, 0])))
    return PropertyReport(
        kind="RIP",
        order=order,
        constant=delta,
        tau=1.0,
        method="ExactEnumeration",
        samples=0,
        elapsed_seconds=time.perf_counter() - t0,
    )


def rip_to_nsp_bound(delta: float, j: int, j_prime: int) -> float:
    """Null-space constant implied by a RIP constant of order j + j_prime:
    gamma_j <= (1 + delta) / (1 - delta) * sqrt(j / j_prime)."""
    if not 0 <= delta < 1:
        raise ValueError("delta must be in [0, 1)")
    if j < 1 or j_prime < 1:
        raise ValueError("j and j_prime must be >= 1")
    return (1.0 + delta) / (1.0 - delta) * math.sqrt(j / j_prime)


def _vertex_directions(rows: np.ndarray, dim: int) -> np.ndarray:
    """Candidate vertex directions of ``{c : ||rows @ c||_1 <= 1}``, dim <= 4.

    Every vertex of the polytope lies in the kernel of some (dim-1)-subset
    of the rows of full rank, so the kernels of all such subsets form a
    superset of the vertex directions; all of them are feasible directions,
    so evaluating a convex objective over them never overestimates its
    polytope maximum.  A subset's kernel direction is its generalized cross
    product (unnormalized): component j is (-1)^j times the minor without
    column j.  A rank-deficient subset gives the zero vector (exactly, when
    its first two rows are dependent) and exact zeros are dropped; any
    rounding remainder is still a feasible direction.
    """
    if dim == 1:
        return np.ones((1, 1))
    subs = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(rows.shape[0]), dim - 1)),
        dtype=int,
    ).reshape(-1, dim - 1)
    r = [rows[subs[:, i]] for i in range(dim - 1)]  # dim-1 arrays of (n_sub, dim)
    if dim == 2:
        dirs = np.stack([r[0][:, 1], -r[0][:, 0]], axis=1)
    elif dim == 3:
        dirs = np.cross(r[0], r[1])
    else:
        a, b, c = r
        p = {  # 2x2 minors of the first two rows on columns (i, j)
            (i, j): a[:, i] * b[:, j] - a[:, j] * b[:, i]
            for i, j in itertools.combinations(range(4), 2)
        }
        # third-row expansion of each 3x3 minor
        dirs = np.stack([
            c[:, 1] * p[2, 3] - c[:, 2] * p[1, 3] + c[:, 3] * p[1, 2],
            -(c[:, 0] * p[2, 3] - c[:, 2] * p[0, 3] + c[:, 3] * p[0, 2]),
            c[:, 0] * p[1, 3] - c[:, 1] * p[0, 3] + c[:, 3] * p[0, 1],
            -(c[:, 0] * p[1, 2] - c[:, 1] * p[0, 2] + c[:, 2] * p[0, 1]),
        ], axis=1)
    return dirs[np.any(dirs != 0.0, axis=1)]


def _exact_top_shares(basis: np.ndarray) -> np.ndarray:
    """Max over kernel vertices of the top-L l1 mass share, for L = 1..N."""
    n, dim = basis.shape
    dirs = _vertex_directions(basis, dim)
    etas = np.abs(dirs @ basis.T)
    etas /= etas.sum(axis=1, keepdims=True)
    etas.sort(axis=1)
    return np.cumsum(etas[:, ::-1], axis=1).max(axis=0)


def exact_nsp_profile(phi: SensingMatrix) -> np.ndarray:
    """Exact gamma_L for every order L = 1..N-1 (index L-1 in the result).

    Requires a null space of dimension at most ``EXACT_NSP_MAX_DIM`` and at
    most ``EXACT_NSP_MAX_COLS`` columns.  Returns ``inf`` where some
    L-sparse kernel vector makes the ratio unbounded.
    """
    m, n = phi.shape
    if n - m > EXACT_NSP_MAX_DIM or n > EXACT_NSP_MAX_COLS:
        raise DimensionTooLargeError(
            f"exact enumeration limited to null-space dim <= {EXACT_NSP_MAX_DIM} "
            f"and N <= {EXACT_NSP_MAX_COLS}; got dim {n - m}, N {n}"
        )
    shares = _exact_top_shares(null_space_basis(phi))[: n - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(shares < 1.0, shares / (1.0 - shares), np.inf)


def _mc_directions(basis: np.ndarray, samples: int, seed: int) -> np.ndarray:
    """Scan directions: ``samples`` Philox normals, normalised basis rows, identity."""
    dim = basis.shape[1]
    rng = np.random.Generator(np.random.Philox(key=seed))
    extremes = basis / np.maximum(np.linalg.norm(basis, axis=1, keepdims=True), 1e-300)
    return np.vstack([rng.normal(size=(samples, dim)), extremes, np.eye(dim)])


def _mc_gamma(basis: np.ndarray, order: int, tau: float, samples: int, seed: int) -> float:
    n = basis.shape[0]
    dirs = _mc_directions(basis, samples, seed)
    best = 0.0
    for block in np.array_split(dirs, max(1, len(dirs) // 4096)):
        a = np.abs(block @ basis.T)
        if tau != 1.0:
            a **= tau
        a.sort(axis=1)
        top = a[:, n - order :].sum(axis=1)
        rest = a[:, : n - order].sum(axis=1)
        ok = rest > 0
        if np.any(~ok):
            return math.inf
        best = max(best, float(np.max(top / rest)))
    return best


def nsp_constant(
    phi: SensingMatrix,
    order: int,
    tau: float = 1.0,
    method: str = "auto",
    samples: int = 100_000,
    seed: int = 0,
) -> PropertyReport:
    """Null-space constant gamma of the given order.

    gamma = sup over supports |T| <= order and kernel vectors eta != 0 of
    ``sum_T |eta_i|^tau / sum_{T^c} |eta_i|^tau``.  Exact enumeration is
    available for tau = 1 on small null spaces; otherwise a Monte Carlo
    scan of ``samples`` random kernel directions (plus all coordinate
    projections) yields a certified lower bound.  ``method`` is "exact",
    "montecarlo" or "auto", which picks exact enumeration where it applies.
    """
    m, n = phi.shape
    if not 1 <= order < n:
        raise ValueError(f"order must be in [1, N-1], got {order}")
    if not 0 < tau <= 1:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    if method not in ("auto", "exact", "montecarlo"):
        raise ValueError(f"unknown method {method!r}")
    small = n - m <= EXACT_NSP_MAX_DIM and n <= EXACT_NSP_MAX_COLS
    if method == "auto":
        method = "exact" if (tau == 1.0 and small) else "montecarlo"
    t0 = time.perf_counter()
    if method == "exact":
        if tau != 1.0:
            raise ValueError("exact enumeration supports tau = 1 only")
        gamma = float(exact_nsp_profile(phi)[order - 1])
        samples_used = 0
    else:
        gamma = _mc_gamma(null_space_basis(phi), order, tau, samples, seed)
        samples_used = samples
    return PropertyReport(
        kind="NSP" if tau == 1.0 else "TauNSP",
        order=order,
        constant=gamma,
        tau=tau,
        method="ExactEnumeration" if method == "exact" else "MonteCarloLowerBound",
        samples=samples_used,
        elapsed_seconds=time.perf_counter() - t0,
    )


def sparse_oracle(
    phi: SensingMatrix, y: np.ndarray, k: int, budget: int = SPARSE_ORACLE_BUDGET
) -> tuple[tuple[int, ...], np.ndarray, float]:
    """Best k-sparse least-squares fit by exhaustive support enumeration.

    Returns ``(support, x, residual)`` minimizing ``||Phi x - y||_2`` over
    all supports of size k.  Ties (within 1e-10 absolute) go to the
    lexicographically smallest support.  Support indices are zero-based.
    """
    m, n = phi.shape
    y = _as_float_array(y, "y")
    if y.shape != (m,):
        raise ValueError(f"y must have shape ({m},), got {y.shape}")
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    n_supports = math.comb(n, k)
    if n_supports > budget:
        raise BudgetExceededError(
            f"C({n},{k}) = {n_supports} supports exceeds budget {budget}"
        )
    if k == 0:
        return (), np.zeros(n), float(np.linalg.norm(y))
    tol = 1e-10
    best_res = math.inf
    best_support: tuple[int, ...] = ()
    best_coef: np.ndarray | None = None
    for idx in _support_chunks(n, k):
        sub = np.moveaxis(phi.entries[:, idx], 1, 0)  # (b, m, k)
        gram = sub.transpose(0, 2, 1) @ sub
        rhs = np.einsum("bmk,m->bk", sub, y)
        try:
            coef = np.linalg.solve(gram, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # sign 0 from slogdet (solve's LU) marks the exactly singular Grams
            sing = np.linalg.slogdet(gram)[0] == 0
            coef = np.empty_like(rhs)
            coef[~sing] = np.linalg.solve(gram[~sing], rhs[~sing, :, None])[..., 0]
            coef[sing] = [np.linalg.lstsq(s, y, rcond=None)[0] for s in sub[sing]]
        res = np.linalg.norm(y[None, :] - np.einsum("bmk,bk->bm", sub, coef), axis=1)
        # the first strict improvement after the previous one, in support
        # order: the sequential rule, ties included
        j = 0
        while (hits := np.flatnonzero(res[j:] < best_res - tol)).size:
            j += int(hits[0])
            best_res = float(res[j])
            best_support = tuple(int(i) for i in idx[j])
            best_coef = coef[j]
            j += 1
    x = np.zeros(n)
    x[list(best_support)] = best_coef
    return best_support, x, best_res


def l1_oracle(phi: SensingMatrix, y: np.ndarray, full_output: bool = False):
    """Minimum-l1-norm solution of ``Phi x = y`` by linear programming.

    Solves the split-variable program ``min sum(u + v)`` subject to
    ``Phi (u - v) = y``, ``u, v >= 0`` with a dual-simplex method
    (anti-cycling rules built in), so the returned point is a vertex of
    the solution polytope.  With ``full_output=True`` also returns a
    dict with the objective and a best-effort ``maybe_nonunique`` flag
    (zero reduced cost detected on a nonbasic variable; degeneracy can
    trip this flag, it is not a certificate).
    """
    m, n = phi.shape
    if n > L1_ORACLE_MAX_COLS:
        raise ValueError(f"l1 oracle limited to N <= {L1_ORACLE_MAX_COLS}")
    y = np.asarray(y, dtype=float)
    cost = np.ones(2 * n)
    a_eq = np.hstack([phi.entries, -phi.entries])
    res = linprog(cost, A_eq=a_eq, b_eq=y, bounds=(0, None), method="highs-ds",
                  options={"presolve": False})  # see the module docstring
    if res.status == 2:
        raise InfeasibleError("right-hand side outside the range of the matrix")
    if res.status != 0:
        raise IrlsKitError(f"LP solver failed: {res.message}")
    x = res.x[:n] - res.x[n:]
    if not full_output:
        return x
    lam = res.eqlin.marginals
    rc = phi.entries.T @ lam
    inactive = np.abs(x) < 1e-12
    maybe_nonunique = bool(
        np.any(inactive & ((np.abs(1.0 - rc) < 1e-10) | (np.abs(1.0 + rc) < 1e-10)))
    )
    return x, {"objective": float(res.fun), "maybe_nonunique": maybe_nonunique}


@dataclass(frozen=True)
class MinimalityCheck:
    """Outcome of the l1-minimality sign test.

    ``status`` is "Certified", "Violated", or "Inconclusive"; a violation
    carries a witness kernel vector.
    """

    status: str
    witness: np.ndarray | None = None

    @property
    def certified(self) -> bool:
        return self.status == "Certified"

    @property
    def violated(self) -> bool:
        return self.status == "Violated"


def _max_sign_functional(rows: np.ndarray, g: np.ndarray, lift: np.ndarray):
    """Max of |g . c| over ``{c : ||rows @ c||_1 <= 1}``; (value, witness).

    ``lift`` maps reduced coordinates back to kernel vectors for witness
    reporting.  A value of ``inf`` means the polytope is unbounded along a
    direction where the functional is nonzero.
    """
    dim = g.size
    if rows.shape[0] > 0:
        _, sv, vh = np.linalg.svd(rows, full_matrices=True)
        rank = int(np.count_nonzero(sv > 1e-12 * max(sv[0], 1.0))) if sv.size else 0
    else:
        rank = 0
        vh = np.eye(dim)
    if rank < dim:
        null_basis = vh[rank:].T
        gn = null_basis.T @ g
        if np.linalg.norm(gn) > 0:
            c0 = null_basis @ gn
            eta = lift @ c0
            if abs(float(g @ c0)) > 1e-10 * float(np.sum(np.abs(eta))):
                return math.inf, eta
        if rank == 0:
            return 0.0, None
        q = vh[:rank].T
        return _max_sign_functional(rows @ q, q.T @ g, lift @ q)
    dirs = _vertex_directions(rows, dim)
    scale = np.sum(np.abs(dirs @ rows.T), axis=1)
    vals = np.abs(dirs @ g) / scale
    j = int(np.argmax(vals))
    return float(vals[j]), lift @ (dirs[j] / scale[j])


def l1_minimality_check(
    x: np.ndarray,
    basis: np.ndarray,
    samples: int = 20_000,
    zero_tol: float | None = None,
    seed: int = 0,
) -> MinimalityCheck:
    """Test whether ``x`` has minimal l1 norm on its solution set.

    ``basis`` is the kernel basis from :func:`null_space_basis`.  ``x``
    minimizes the l1 norm over ``{z : Phi z = Phi x}`` if and only if
    ``|sum_{x_i != 0} sign(x_i) eta_i| <= sum_{x_i = 0} |eta_i|`` for every
    kernel vector ``eta`` (non-strict inequality suffices for minimality;
    strictness everywhere governs uniqueness).  The condition is positively
    homogeneous, so for null-space dimension <= 4 it is checked exactly on
    the extreme directions of the cross-section polytope; otherwise
    ``samples`` random directions are tested, giving either a concrete
    violation witness or an inconclusive report.
    """
    n, dim = basis.shape
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"x must have shape ({n},), got {x.shape}")
    if zero_tol is None:
        zero_tol = 1e-12 * max(1.0, float(np.max(np.abs(x))) if n else 1.0)
    support = np.abs(x) > zero_tol
    s = np.where(support, np.sign(x), 0.0)
    if dim <= EXACT_NSP_MAX_DIM:
        val, witness = _max_sign_functional(basis[~support], basis.T @ s, basis)
        if val <= 1.0 + 1e-9:
            return MinimalityCheck("Certified")
        return MinimalityCheck("Violated", witness)
    etas = _mc_directions(basis, samples, seed) @ basis.T
    lhs = np.abs(etas @ s)
    rhs = np.sum(np.abs(etas[:, ~support]), axis=1)
    bad = lhs > rhs * (1.0 + 1e-9) + 1e-12 * np.sum(np.abs(etas), axis=1)
    if np.any(bad):
        return MinimalityCheck("Violated", etas[int(np.argmax(bad))])
    return MinimalityCheck("Inconclusive")
