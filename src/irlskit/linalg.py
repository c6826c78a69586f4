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
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh, svdvals
from scipy.linalg.blas import dgemv, dsyrk
from scipy.linalg.lapack import dpocon, dpotrf, dpotrs

from .errors import IllConditionedError, RankDeficientError

# Singular values below RANK_RTOL * sigma_max count as zero.
RANK_RTOL = 1e-12
# Condition estimate above this aborts the weighted solve.
COND_LIMIT = 1e14


def _as_float_array(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must have finite entries")
    return arr


@dataclass(frozen=True)
class SensingMatrix:
    """Dense m-by-N measurement matrix with m < N and full row rank.

    Construction validates the shape, finiteness, and numerical row rank
    (singular values below ``RANK_RTOL * sigma_max`` count as zero).  Gram
    eigenvalues certify rank m when ``sigma_min >= 1e-3 sigma_max``; any
    other matrix gets the SVD rule.  Both run on scipy's LAPACK, so numpy's
    BLAS pool stays idle.  The entry array is frozen after construction.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.entries, "entries")
        if arr.ndim != 2:
            raise ValueError("entries must be a 2-d array")
        m, n = arr.shape
        if not 0 < m < n:
            raise ValueError(f"need 0 < m < N, got shape {arr.shape}")
        arr = np.ascontiguousarray(arr)
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
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    def fingerprint(self) -> str:
        """SHA-256 of the shape and raw entry bytes."""
        h = hashlib.sha256()
        h.update(repr(self.entries.shape).encode())
        h.update(self.entries.tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class NullSpaceBasis:
    """Orthonormal basis of the kernel of a sensing matrix.

    ``matrix`` has shape (N, N - m); columns are pairwise orthonormal and
    annihilated by the generating matrix.  ``source_fingerprint`` ties the
    basis back to the matrix it was computed from.
    """

    matrix: np.ndarray
    source_fingerprint: str

    def __post_init__(self):
        arr = np.ascontiguousarray(_as_float_array(self.matrix, "matrix"))
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def null_space_basis(phi: SensingMatrix) -> NullSpaceBasis:
    """Orthonormal basis of the (N - m)-dimensional kernel of ``phi``.

    Deterministic for a fixed input: the basis comes from the SVD and each
    column's sign is fixed so its largest-magnitude entry (first index on
    ties) is positive.
    """
    m, n = phi.shape
    _, sv, vh = np.linalg.svd(phi.entries)
    if sv[0] > 0 and np.count_nonzero(sv > RANK_RTOL * sv[0]) < m:
        raise RankDeficientError("matrix lost full row rank")
    basis = vh[m:].T.copy()
    for j in range(basis.shape[1]):
        lead = int(np.argmax(np.abs(basis[:, j])))
        if basis[lead, j] < 0:
            basis[:, j] = -basis[:, j]
    return NullSpaceBasis(matrix=basis, source_fingerprint=phi.fingerprint())


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
    y = _as_float_array(y, "y")
    w = _as_float_array(w, "w")
    m, n = phi.shape
    if y.shape != (m,):
        raise ValueError(f"y must have shape ({m},), got {y.shape}")
    if w.shape != (n,):
        raise ValueError(f"w must have shape ({n},), got {w.shape}")
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
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
# Scientific notation is accepted on input; output uses 17 significant digits.


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _floats(path, tokens) -> list[float]:
    try:
        return [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_matrix(path, a: np.ndarray) -> None:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        for row in a:
            fh.write(" ".join(_fmt(v) for v in row) + "\n")


def read_matrix(path) -> np.ndarray:
    with open(path, encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 2 or not all(tok.isdigit() for tok in header):
            raise ValueError(f"{path}: expected header 'm N'")
        m, n = (int(tok) for tok in header)
        rows = []
        for i in range(m):
            vals = fh.readline().split()
            if len(vals) != n:
                raise ValueError(f"{path}: row {i} has {len(vals)} values, expected {n}")
            rows.append(_floats(path, vals))
        if fh.read().strip():
            raise ValueError(f"{path}: unexpected content after {m} rows")
    return np.array(rows, dtype=float)


def write_vector(path, v: np.ndarray) -> None:
    v = np.asarray(v, dtype=float).ravel()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{v.size}\n")
        fh.write(" ".join(_fmt(x) for x in v) + "\n")


def read_vector(path) -> np.ndarray:
    with open(path, encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 1 or not header[0].isdigit():
            raise ValueError(f"{path}: expected header 'N'")
        n = int(header[0])
        vals = fh.readline().split()
        if len(vals) != n:
            raise ValueError(f"{path}: got {len(vals)} values, expected {n}")
        if fh.read().strip():
            raise ValueError(f"{path}: unexpected content after the values")
    return np.array(_floats(path, vals))


def read_sensing_matrix(path) -> SensingMatrix:
    return SensingMatrix(read_matrix(path))
