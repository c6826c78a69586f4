"""Rearrangement and best-k-term approximation machinery.

Indexing convention: the i-th largest magnitude (1-based in the usual
mathematical notation) lives at zero-based index ``i - 1`` of the
rearrangement, so "the (K+1)-th largest value" is ``rearrangement(z)[K]``.
"""

from __future__ import annotations

import numpy as np

from .linalg import _as_float_vector, _check_int, _check_tau


def rearrangement(z: np.ndarray) -> np.ndarray:
    """Magnitudes of ``z`` sorted in non-increasing order.

    Ties are broken by original index (stable sort), so the result is
    deterministic.
    """
    mags = np.abs(_as_float_vector(z, "z"))
    return mags[np.argsort(-mags, kind="stable")]


def sigma_k(z: np.ndarray, k: int, tau: float = 1.0) -> float:
    """Best k-term approximation error ``sum_{i > k} r(z)_i ** tau``.

    For ``tau = 1`` this is the l1 tail; it vanishes exactly when ``z`` is
    k-sparse.
    """
    r = rearrangement(z)
    k = _check_int(k, "k", 0, r.size)
    _check_tau(tau)
    return float(np.sum(r[k:] ** tau))

