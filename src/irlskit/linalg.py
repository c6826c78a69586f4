"""Dense linear-algebra kernels for underdetermined systems.

Provides the sensing-matrix type, orthonormal null-space bases, weighted
least-squares solves on the affine solution set ``{z : Phi z = y}``, and
the plain-text matrix and vector readers.

A note on the weighting convention: for a strictly positive weight vector
``w`` the unique minimizer of ``sum_j w_j z_j**2`` over the solution set is

    x = D Phi^T (Phi D Phi^T)^{-1} y,   D = diag(1 / w_j).

The diagonal carries the *inverse* weights.  This is forced by the
orthogonality characterization of the weighted minimizer (``<x, eta>_w = 0``
for every null-space vector ``eta``), which is what the tests validate;
writing ``w_j`` itself on the diagonal would minimize the reciprocally
weighted norm instead.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh, svdvals
from scipy.linalg.blas import dgemv, dsyrk
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork, dormqr, dpocon, dpotrf, dpotrs

from .errors import IllConditionedError, RankDeficientError

# Singular values below RANK_RTOL * sigma_max count as zero.
RANK_RTOL = 1e-12
# Condition estimate above this aborts the weighted solve.
COND_LIMIT = 1e14
_FLOAT64 = np.dtype(float)


def _as_float_array(a, name: str, ndim: int) -> np.ndarray:
    if (arr := np.asarray(a)).dtype is not _FLOAT64:  # float64 input, the hot path, skips the dtype rule
        if arr.dtype.kind not in "fiu":  # real numbers only: no complex, bool, text or object entries
            raise ValueError(f"{name} must hold real numbers, got dtype {arr.dtype}")
        arr = arr.astype(float)
    if not np.isfinite(arr).all():  # the method, not np.all: less dispatch on the hot path
        raise ValueError(f"{name} must have finite entries")
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-d array, got shape {arr.shape}")
    return arr


def _as_float_vector(a, name: str, n: int | None = None) -> np.ndarray:
    """Finite 1-d float array, of length ``n`` when given."""
    arr = _as_float_array(a, name, 1)
    if n is not None and arr.size != n:
        raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
    return arr


def _check_tau(tau: float) -> None:
    if not 0 < tau <= 1:
        raise ValueError(f"tau must be in (0, 1], got {tau}")


def _check_int(value, name: str, lo: int | None, hi: int | None = None) -> int:
    """``int(value)`` for a Python or numpy integer, never a bool, in [lo, hi] (``hi=None``: no upper
    bound, ``lo=None``: none at all), else ``ValueError`` naming ``name`` and the range."""
    if type(value) is not int and isinstance(value, np.integer):  # type(True) is bool, not int
        value = int(value)
    if type(value) is int and (lo is None or lo <= value and (hi is None or value <= hi)):
        return value
    bounds = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
    raise ValueError(f"{name} must be an integer{bounds}, got {value!r}")


def _check_shape(m, n) -> tuple[int, int]:
    """``(m, N)`` as Python ints when they are integers with ``0 < m < N``."""
    n = _check_int(n, "N", 2)
    return _check_int(m, "m", 1, n - 1), n


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator keyed by ``seed``, a Python or numpy integer in [0, 2**128)."""
    return np.random.Generator(np.random.Philox(key=_check_int(seed, "seed", 0, 2**128 - 1)))


@dataclass(frozen=True)
class SensingMatrix:
    """Dense m-by-N measurement matrix with m < N and full row rank.

    Construction validates the shape, finiteness, and numerical row rank
    (singular values below ``RANK_RTOL * sigma_max`` count as zero).  Gram
    eigenvalues certify rank m when ``sigma_min >= 1e-3 sigma_max``; any
    other matrix gets the SVD rule.  Both run on scipy's LAPACK, so numpy's
    BLAS pool stays idle.  The entries are a frozen copy of the input.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.entries, "entries", 2)
        m, n = _check_shape(*arr.shape)
        arr = np.array(arr, order="C")  # a copy: freezing it leaves the caller's array alone
        try:  # a Gram that overflowed raises ValueError
            lam = eigvalsh(dsyrk(1.0, arr.T, trans=1), lower=False)
        except ValueError:
            lam = np.zeros(1)
        rank = m
        # Rounding is about u m lam_max, far below 1e-6 lam_max once lam_max
        # is normal, so this passes no matrix that the SVD rule rejects.
        if not (lam[-1] >= np.finfo(float).tiny and lam[0] >= 1e-6 * lam[-1]):
            sv = svdvals(arr, check_finite=False)
            rank = int(np.count_nonzero(sv > RANK_RTOL * sv[0])) if sv[0] > 0 else 0
        if rank < m:
            raise RankDeficientError(
                f"numerical row rank {rank} < m = {m} (rank tolerance {RANK_RTOL:g})"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    def fingerprint(self) -> str:
        """SHA-256 of the shape and raw entry bytes."""
        h = hashlib.sha256()
        h.update(repr(self.entries.shape).encode())
        h.update(self.entries.tobytes())
        return h.hexdigest()


def null_space_basis(phi: SensingMatrix) -> np.ndarray:
    """Orthonormal basis of the (N - m)-dimensional kernel of ``phi``.

    A read-only (N, N - m) Fortran-ordered array: the last N - m columns of Q in
    ``Phi^T = QR`` (scipy's ``dgeqrf``, then a blocked ``dormqr`` on ``[0; I]``).
    Each column's sign makes its largest-magnitude entry (first on ties) positive.
    """
    m, n = phi.shape
    qr, tau, _, _ = dgeqrf(phi.entries.T, lwork=int(dgeqrf_lwork(n, m)[0]))
    basis = np.zeros((n, n - m), order="F")
    basis.T.reshape(-1)[m :: n + 1] = 1.0  # [0; I], written in place: no N x N array
    lwork = int(dormqr("L", "N", qr, tau, basis, -1, overwrite_c=1)[1][0])  # workspace query
    basis, cols = dormqr("L", "N", qr, tau, basis, lwork, overwrite_c=1)[0], np.arange(n - m)
    hi, lo = np.argmax(basis, axis=0), np.argmin(basis, axis=0)  # along contiguous columns, no |B|
    top, bottom = basis[hi, cols], -basis[lo, cols]
    # the lead entry (largest magnitude, first index on ties) is negative where the minimum wins
    np.negative(basis, out=basis, where=(bottom > top) | ((bottom == top) & (lo < hi)))
    basis.flags.writeable = False
    return basis


def weighted_ls_solve(phi: SensingMatrix, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Minimizer of ``sum_j w_j z_j**2`` over ``{z : Phi z = y}``.

    ``w`` must be strictly positive.  With ``D = diag(1/w)`` the m-by-m
    system ``Phi D Phi^T v = y`` is solved by Cholesky and the result is
    ``D Phi^T v``; no inverse is formed.  Every BLAS and LAPACK call goes
    to scipy's bundled OpenBLAS: ``dsyrk`` writes the upper triangle of
    the Gram from ``Phi D^(1/2)``, then ``dpotrf``, ``dpocon``, ``dpotrs``
    and ``dgemv``.  numpy links a second OpenBLAS with its own thread
    pool; with both in the loop, the two pools took turns stealing each
    other's cores.  ``dsyrk`` halves the Gram flops and, unlike ``gemm``,
    gives the same bits with 1 and 2 BLAS threads, and for m < 128 so
    does the whole solve.  From m = 128 on OpenBLAS threads ``dpotrf``,
    and results can differ in the last bits between thread counts.

    Raises :class:`IllConditionedError` when the factorization meets a
    non-positive pivot or the LAPACK condition estimate of the system
    exceeds ``COND_LIMIT``.
    """
    m, n = phi.shape
    y = _as_float_vector(y, "y", m)
    w = _as_float_vector(w, "w", n)
    if np.any(w <= 0):
        raise ValueError("w must be strictly positive")
    d = 1.0 / w
    # (Phi D^(1/2))^T is an F-contiguous view, so dsyrk copies nothing.
    upper = dsyrk(1.0, (phi.entries * np.sqrt(d)).T, trans=1)
    # 1-norm of the symmetric matrix from its upper triangle (the strict
    # lower one is zero): column sums plus row sums, diagonal counted once.
    mag = np.abs(upper)
    anorm = float(np.max(mag.sum(axis=0) + mag.sum(axis=1) - np.diagonal(mag)))
    factor, info = dpotrf(upper, lower=0, clean=1, overwrite_a=1)
    if info > 0:
        raise IllConditionedError("weighted normal matrix is numerically singular")
    rcond, info = dpocon(factor, anorm)
    if info != 0 or rcond <= 0 or 1.0 / rcond > COND_LIMIT:
        est = np.inf if rcond <= 0 else 1.0 / rcond
        raise IllConditionedError(
            f"condition estimate {est:.3e} exceeds limit {COND_LIMIT:.1e}"
        )
    v, _ = dpotrs(factor, y)
    return d * dgemv(1.0, phi.entries.T, v)


# --- plain-text matrix/vector round-trip format -----------------------------
#
# Matrices: first line "m N", then m rows of N space-separated decimals.
# Vectors:  first line "N", then one row of N values.
# Input tokens are numpy's float syntax (scientific notation, nan, inf);
# output uses 17 significant digits.


def _write_rows(path, header: str, a: np.ndarray) -> None:
    line = " ".join(["%.17g"] * a.shape[1]) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for row in a:  # one row of Python floats at a time
            fh.write(line % tuple(row.tolist()))


def _read_rows(path, header_names: str) -> np.ndarray:
    """(m, N) array from a file whose first line holds the counts ``header_names``.

    Exactly the declared rows are streamed to numpy's parser and only
    whitespace may follow them.  Every ``ValueError`` names the file.
    """
    with open(path, encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != len(header_names.split()) or not all(tok.isdigit() for tok in header):
            raise ValueError(f"{path}: expected header '{header_names}'")
        counts = [int(tok) for tok in header]
        m, n = counts if len(counts) == 2 else (1, counts[0])
        rows = itertools.islice(fh, m)  # stops early at the end of a short file
        first = next((line for line in rows if line.strip()), None)
        if first is not None:
            try:
                arr = np.loadtxt(itertools.chain([first], rows), ndmin=2, comments=None)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
        else:  # no values at all (np.loadtxt would warn): fine only for an empty shape
            arr = np.empty((m, n) if m * n == 0 else (0, n))
        if fh.read().strip():
            raise ValueError(f"{path}: unexpected content after {m} rows")
    if arr.shape != (m, n):
        raise ValueError(f"{path}: expected {m} rows of {n} values, got shape {arr.shape}")
    return arr


def write_matrix(path, a: np.ndarray) -> None:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    _write_rows(path, f"{a.shape[0]} {a.shape[1]}", a)


def read_matrix(path) -> np.ndarray:
    return _read_rows(path, "m N")


def write_vector(path, v: np.ndarray) -> None:
    v = np.asarray(v, dtype=float).ravel()
    _write_rows(path, f"{v.size}", v[None, :])


def read_vector(path) -> np.ndarray:
    return _read_rows(path, "N")[0]
