"""Ground-truth oracles and matrix-property checkers.

RIP constants and the sparse oracle enumerate supports in lex order,
each row unranked from its lex rank by one ``searchsorted`` per element,
and read what they need of each support's Gram from one ``Phi^T Phi``.
RIP skips a
support whose Gershgorin bounds cannot reach the running delta (less a
rounding margin) and that the SVD guard below could not take, which
saves work when columns are incoherent; the rest take their singular
values from the eigenvalues of directly formed Grams, so delta is
unchanged bit for bit.  A Gram eigenvalue errs by about u sigma_max^2,
so sigma_min errs by about u sigma_max^2/(2 sigma_min); supports with
sigma_min < 1e-3 sigma_max get an SVD instead, which keeps delta within
1e-12 max(1, delta) of an all-SVD enumeration.  The l1 oracle's dual simplex runs without
presolve, which removes nothing from the dense split-variable program
yet costs more than the simplex itself; scipy's LP stack is loaded on
the first LP.  Null-space property constants
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

import functools
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import svdvals
from scipy.linalg.blas import dgemm

from .errors import BudgetExceededError, DimensionTooLargeError, InfeasibleError, IrlsKitError
from .linalg import RANK_RTOL, SensingMatrix, _as_float_array, _as_float_vector, _check_int, _check_tau, make_rng, null_space_basis

EXACT_NSP_MAX_DIM = 4
EXACT_NSP_MAX_COLS = 16
RIP_SUPPORT_BUDGET = 2_000_000
SPARSE_ORACLE_BUDGET = 1_000_000
L1_ORACLE_MAX_COLS = 2000
_CHUNK = 512  # rows per block of enumerated supports
_MC_BLOCK = 1024  # rows per block of Monte Carlo directions

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

    def summary(self) -> str:
        name = "delta" if self.kind == "RIP" else "gamma"
        tau_note = "" if self.kind != "TauNSP" else f", tau={self.tau:g}"
        return (
            f"{self.kind} order {self.order}{tau_note}: {name} = {self.constant:.6g} "
            f"({self.method}, samples={self.samples}, {self.elapsed_seconds:.3f}s)"
        )


def _support_chunks(n: int, k: int):
    """The k-subsets of range(n) in lex order, in blocks of ``_CHUNK`` rows.

    Each row is unranked from its lex rank r alone (Buckles & Lybanon, ACM
    TOMS 3(2), 1977): from the co-rank c = C(n, k) - 1 - r, for s = k, ..., 1
    the largest x with C(x, s) <= c gives the element n - 1 - x, and c drops
    by C(x, s).
    """
    total = math.comb(n, k)
    # binom[s - 1, x] = C(x, s), capped at C(n, k) > c so that no entry overflows int64
    binom = np.array([[min(math.comb(x, s), total) for x in range(n)] for s in range(1, k + 1)], dtype=np.int64)
    step = _CHUNK * max(1, 2**14 // (_CHUNK * max(k, 1)))  # whole blocks, at most 2**14 indices a batch
    for start in range(0, total, step):
        c = total - 1 - np.arange(start, min(start + step, total), dtype=np.int64)
        rows = np.empty((len(c), k), dtype=int)
        for s in range(k, 0, -1):
            x = np.searchsorted(binom[s - 1], c, side="right") - 1
            rows[:, k - s] = n - 1 - x
            c -= binom[s - 1][x]
        for i in range(0, len(rows), _CHUNK):
            yield rows[i : i + _CHUNK]


def _budgeted_supports(n: int, k: int, budget: int):
    """``_support_chunks(n, k)``, after checking that C(n, k) is within ``budget``."""
    n_supports = math.comb(n, k)
    if n_supports > budget:
        raise BudgetExceededError(f"C({n},{k}) = {n_supports} supports exceeds budget {budget}")
    return _support_chunks(n, k)


def rip_constant(phi: SensingMatrix, order: int) -> PropertyReport:
    """Restricted-isometry constant of the given order by full enumeration.

    delta = max over column supports T with |T| = order of
    max(sigma_max(Phi_T) - 1, 1 - sigma_min(Phi_T)), i.e. the non-squared
    convention: (1 - delta) ||z|| <= ||Phi z|| <= (1 + delta) ||z|| for all
    order-sparse z.  (Squared-convention constants satisfy
    delta_sq = max(sigma_max^2 - 1, 1 - sigma_min^2).)
    """
    m, n = phi.shape
    order = _check_int(order, "order", 1, m)
    supports = _budgeted_supports(n, order, RIP_SUPPORT_BUDGET)
    t0 = time.perf_counter()
    delta = 0.0
    p = phi.entries
    sq = np.einsum("mi,mi->i", p, p)
    a = np.abs(p.T @ p).ravel() if order > 1 else None  # no N x N Gram at order 1
    floor = float(np.max(np.abs(np.sqrt(sq) - 1.0)))  # delta_1 <= delta
    for idx in supports:
        # Gershgorin, on contiguous (order, b) arrays: sigma_max^2 <= top = max_i sum_j |g_ij|
        # and sigma_min^2 >= low = min_i (2 g_ii - sum_j |g_ij|)
        t = np.ascontiguousarray(idx.T)
        d = sq[t]
        row = a[(t * n)[:, None] + t].sum(axis=1) if order > 1 else d
        top, low = row.max(axis=0), (2.0 * d - row).min(axis=0)
        thr = max(delta, floor)
        cut = thr - 1e-9 * max(1.0, thr)  # the margin covers rounding where sigma_min >= 1e-3 sigma_max
        # skip a support whose bounds stay under cut, unless the SVD guard below may take it
        idx = idx[~((top < (1.0 + cut) ** 2) & (low > max(1.0 - cut, 0.0) ** 2) & (low > 2e-6 * top))]
        sub = np.moveaxis(p[:, idx], 1, 0)  # (b, m, order)
        lam = np.linalg.eigvalsh(sub.transpose(0, 2, 1) @ sub)  # ascending
        sv = np.sqrt(np.maximum(lam, 0.0))
        near = lam[:, 0] < 1e-6 * lam[:, -1]  # sigma_min < 1e-3 sigma_max
        if np.any(near):
            sv[near] = np.linalg.svd(sub[near], compute_uv=False)
        delta = float(np.max(np.abs(sv - 1.0), initial=delta))  # idx may be empty
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
    j, j_prime = _check_int(j, "j", 1), _check_int(j_prime, "j_prime", 1)
    return (1.0 + delta) / (1.0 - delta) * math.sqrt(j / j_prime)


@functools.cache
def _subset_columns(n: int, k: int) -> np.ndarray:
    """Read-only columns of the k-subset table; exact NSP needs at most C(16, 3) = 560 rows."""
    cols = np.concatenate(list(_support_chunks(n, k))).T
    cols.flags.writeable = False
    return cols


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
    r = [rows[s] for s in _subset_columns(rows.shape[0], dim - 1)]  # dim-1 arrays of (n_sub, dim)
    if dim == 2:
        dirs = np.stack([r[0][:, 1], -r[0][:, 0]], axis=1)
    elif dim == 3:
        dirs = np.cross(r[0], r[1])
    else:
        a, b, c = r
        p = {  # 2x2 minors of the first two rows on columns (i, j)
            (i, j): a[:, i] * b[:, j] - a[:, j] * b[:, i]
            for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
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


def _exact_nsp_applies(m: int, n: int) -> bool:
    """Whether exact NSP enumeration takes an m-by-N matrix: a small kernel and few columns."""
    return n - m <= EXACT_NSP_MAX_DIM and n <= EXACT_NSP_MAX_COLS


def exact_nsp_profile(phi: SensingMatrix) -> np.ndarray:
    """Exact gamma_L for every order L = 1..N-1 (index L-1 in the result).

    Requires a null space of dimension at most ``EXACT_NSP_MAX_DIM`` and at
    most ``EXACT_NSP_MAX_COLS`` columns.  Returns ``inf`` where some
    L-sparse kernel vector makes the ratio unbounded.
    """
    m, n = phi.shape
    if not _exact_nsp_applies(m, n):
        raise DimensionTooLargeError(
            f"exact enumeration limited to null-space dim <= {EXACT_NSP_MAX_DIM} "
            f"and N <= {EXACT_NSP_MAX_COLS}; got dim {n - m}, N {n}"
        )
    shares = _exact_top_shares(null_space_basis(phi))[: n - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(shares < 1.0, shares / (1.0 - shares), np.inf)


def _mc_gamma(basis: np.ndarray, order: int, tau: float, samples: int, rng: np.random.Generator) -> float:
    """Largest top-``order`` mass ratio over ``samples`` normals from ``rng``, then over the
    normalised basis rows and the identity, built and scanned ``_MC_BLOCK`` rows at a time;
    a max over rows of one stream, so the block size cannot change it.  Each block and its
    product (scipy's ``dgemm``, the BLAS of ``null_space_basis``) are freed before the next."""
    n, dim = basis.shape
    norms = np.maximum(np.linalg.norm(basis, axis=1, keepdims=True), 1e-300)
    best = 0.0
    for block in itertools.chain(
        (rng.standard_normal((min(_MC_BLOCK, samples - i), dim)) for i in range(0, samples, _MC_BLOCK)),
        (basis[i : i + _MC_BLOCK] / norms[i : i + _MC_BLOCK] for i in range(0, n, _MC_BLOCK)),
        (np.eye(min(_MC_BLOCK, dim - i), dim, i) for i in range(0, dim, _MC_BLOCK)),
    ):
        a = dgemm(1.0, basis, block.T).T  # (b, N) C-ordered rows; no copy of an F-ordered basis
        np.abs(a, out=a)
        if tau != 1.0:
            a **= tau
        a.sort(axis=1)
        top = a[:, n - order :].sum(axis=1)
        rest = a[:, : n - order].sum(axis=1)
        if not np.all(rest > 0):
            return math.inf
        best = max(best, float(np.max(top / rest)))
        del block, a
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
    ``seed``, the Philox key of the scan, is an integer in [0, 2**128).
    """
    m, n = phi.shape
    order = _check_int(order, "order", 1, n - 1)
    _check_tau(tau)
    rng = make_rng(seed)
    if method not in ("auto", "exact", "montecarlo"):
        raise ValueError(f"unknown method {method!r}")
    samples = _check_int(samples, "samples", 0)
    if method == "auto":
        method = "exact" if (tau == 1.0 and _exact_nsp_applies(m, n)) else "montecarlo"
    t0 = time.perf_counter()
    if method == "exact":
        if tau != 1.0:
            raise ValueError("exact enumeration supports tau = 1 only")
        gamma = float(exact_nsp_profile(phi)[order - 1])
    else:
        gamma = _mc_gamma(null_space_basis(phi), order, tau, samples, rng)
    return PropertyReport(
        kind="NSP" if tau == 1.0 else "TauNSP",
        order=order,
        constant=gamma,
        tau=tau,
        method="ExactEnumeration" if method == "exact" else "MonteCarloLowerBound",
        samples=0 if method == "exact" else samples,
        elapsed_seconds=time.perf_counter() - t0,
    )


def sparse_oracle(
    phi: SensingMatrix, y: np.ndarray, k: int
) -> tuple[tuple[int, ...], np.ndarray, float]:
    """Best k-sparse least-squares fit by exhaustive support enumeration.

    Returns ``(support, x, residual)`` minimizing ``||Phi x - y||_2`` over
    all supports of size k.  Ties (within 1e-10 absolute) go to the
    lexicographically smallest support.  Support indices are zero-based.
    """
    m, n = phi.shape
    y = _as_float_vector(y, "y", m)
    k = _check_int(k, "k", 0, n)
    supports = _budgeted_supports(n, k, SPARSE_ORACLE_BUDGET)
    if k == 0:
        return (), np.zeros(n), float(np.linalg.norm(y))
    best_res = math.inf
    best_support: tuple[int, ...] = ()
    best_coef: np.ndarray | None = None
    g = phi.entries.T @ phi.entries if k > 1 else np.einsum("mi,mi->i", phi.entries, phi.entries)
    phi_y = phi.entries.T @ y
    for idx in supports:
        # Grams gathered from Phi^T Phi; at k = 1 squared column norms, no N x N Gram
        gram = g[idx[:, :, None], idx[:, None, :]] if k > 1 else g[idx][:, :, None]
        sub = np.moveaxis(phi.entries[:, idx], 1, 0)  # (b, m, k)
        rhs = phi_y[idx]
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
        while (hits := np.flatnonzero(res[j:] < best_res - 1e-10)).size:
            j += int(hits[0])
            best_res = float(res[j])
            best_support = tuple(int(i) for i in idx[j])
            best_coef = coef[j]
            j += 1
    x = np.zeros(n)
    x[list(best_support)] = best_coef
    return best_support, x, best_res


def _highs(cost: np.ndarray, **constraints):
    """Dual-simplex ``linprog`` without presolve (see the module docstring); ``None`` if infeasible."""
    from scipy.optimize import linprog  # the LP stack (about 240 modules) loads on the first LP
    res = linprog(cost, method="highs-ds", options={"presolve": False}, **constraints)
    if res.status not in (0, 2):
        raise IrlsKitError(f"LP solver failed: {res.message}")
    return res if res.status == 0 else None


def l1_oracle(phi: SensingMatrix, y: np.ndarray) -> np.ndarray:
    """Minimum-l1-norm solution of ``Phi x = y`` by linear programming.

    Solves the split-variable program ``min sum(u + v)`` subject to
    ``Phi (u - v) = y``, ``u, v >= 0`` with a dual-simplex method
    (anti-cycling rules built in), so the returned point is a vertex of
    the solution polytope.  Whether it is the only minimizer is answered
    by ``l1_minimality_check(x, null_space_basis(phi)).unique``.
    """
    m, n = phi.shape
    if n > L1_ORACLE_MAX_COLS:
        raise ValueError(f"l1 oracle limited to N <= {L1_ORACLE_MAX_COLS} columns of phi, got {n}")
    y = _as_float_vector(y, "y", m)
    cost = np.ones(2 * n)
    a_eq = np.hstack([phi.entries, -phi.entries])
    res = _highs(cost, A_eq=a_eq, b_eq=y, bounds=(0, None))
    if res is None:
        raise InfeasibleError("right-hand side outside the range of the matrix")
    return res.x[:n] - res.x[n:]


@dataclass(frozen=True)
class MinimalityCheck:
    """Outcome of the l1-minimality sign test.

    ``status`` is "Certified" or "Violated"; a violation carries a witness
    kernel vector that breaks the sign condition.  ``unique`` marks the only
    minimizer: Certified, LP optimum t* < 1 - 1e-9 and ``B_off`` of full
    column rank (details in :func:`l1_minimality_check`).
    """

    status: str
    witness: np.ndarray | None = None
    unique: bool = False


def l1_minimality_check(x: np.ndarray, basis: np.ndarray) -> MinimalityCheck:
    """Test whether ``x`` has minimal l1 norm on its solution set.

    ``basis`` is the kernel basis B from :func:`null_space_basis`.  ``x``
    minimizes the l1 norm over ``{z : Phi z = Phi x}`` if and only if
    ``|sum_{x_i != 0} sign(x_i) eta_i| <= sum_{x_i = 0} |eta_i|`` for every
    kernel vector ``eta``, that is if t* = ``max g . c`` over
    ``||B_off c||_1 <= 1``, with ``g = B^T sign(x)``, is at most 1 (certified
    when t* <= 1 + 1e-9).  One LP finds t* exactly in its dual-certificate
    form, ``min t`` subject to ``B_off^T u = g`` and ``|u_i| <= t`` (Fuchs,
    IEEE Trans. Inf. Theory 50(6), 2004).  A violation's witness is ``B c`` for
    the maximizing ``c``, the equality marginals; when the equality has no
    solution it is ``B r`` for its least-squares residual ``r``, with
    ``B_off r = 0`` and ``g . r = ||r||^2 > 0``.  Entries of ``x`` at most
    ``1e-12 max(1, max |x_i|)`` in magnitude count as zero.  ``x`` is the
    unique minimizer exactly when t* < 1 and ``B_off`` has full column rank
    (Zhang, Yin & Cheng, J. Optim. Theory Appl. 164, 2015); ``unique`` tests
    t* < 1 - 1e-9, the certification margin mirrored, then full rank: ``dim``
    singular values of ``B_off`` above ``RANK_RTOL`` ``||B||_F / sqrt(dim)``, so
    an empty ``B_off`` fails.  That scale is B's, sigma_max(B) for orthonormal
    B: a tie along a kernel vector held on the support leaves only rounding
    (about 1e-16) in ``B_off``, which has full rank on its own scale.
    """
    basis = _as_float_array(basis, "basis", 2)
    n, dim = basis.shape
    x = _as_float_vector(x, "x", n)
    zero_tol = 1e-12 * max(1.0, float(np.max(np.abs(x))) if n else 1.0)
    support = np.abs(x) > zero_tol
    g = basis.T @ np.where(support, np.sign(x), 0.0)
    off = basis[~support]
    p = off.shape[0]
    # variables (u, t): min t subject to off^T u = g and -t <= u_i <= t
    cost = np.append(np.zeros(p), 1.0)
    a_ub = np.block([[np.eye(p), -np.ones((p, 1))], [-np.eye(p), -np.ones((p, 1))]])
    a_eq = np.hstack([off.T, np.zeros((dim, 1))])
    res = _highs(cost, A_ub=a_ub, b_ub=np.zeros(2 * p), A_eq=a_eq, b_eq=g,
                 bounds=[(None, None)] * p + [(0, None)])
    if res is None:
        r = g - off.T @ np.linalg.lstsq(off.T, g, rcond=None)[0]
        return MinimalityCheck("Violated", basis @ r)
    if res.fun > 1.0 + 1e-9:
        return MinimalityCheck("Violated", basis @ res.eqlin.marginals)
    if res.fun >= 1.0 - 1e-9 or p < dim:
        return MinimalityCheck("Certified")
    # p >= dim, so B_off has dim singular values: full column rank when all exceed RANK_RTOL times B's scale
    top = np.linalg.norm(basis) / math.sqrt(max(dim, 1))
    return MinimalityCheck("Certified", unique=bool(np.all(svdvals(off, check_finite=False) > RANK_RTOL * top)))
