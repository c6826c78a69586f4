"""Rearrangement and best-k-term approximation machinery.

Indexing convention: the i-th largest magnitude (1-based in the usual
mathematical notation) lives at zero-based index ``i - 1`` of the
rearrangement, so "the (K+1)-th largest value" is ``rearrangement(z)[K]``.
"""

from __future__ import annotations

import numpy as np


def rearrangement(z: np.ndarray) -> np.ndarray:
    """Magnitudes of ``z`` sorted in non-increasing order.

    Ties are broken by original index (stable sort), so the result is
    deterministic.
    """
    z = np.asarray(z, dtype=float)
    order = np.argsort(-np.abs(z), kind="stable")
    return np.abs(z)[order]


def sigma_k(z: np.ndarray, k: int, tau: float = 1.0) -> float:
    """Best k-term approximation error ``sum_{i > k} r(z)_i ** tau``.

    For ``tau = 1`` this is the l1 tail; it vanishes exactly when ``z`` is
    k-sparse.
    """
    z = np.asarray(z, dtype=float)
    if not 0 <= k <= z.size:
        raise ValueError(f"k must be in [0, {z.size}], got {k}")
    if not 0 < tau <= 1:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    tail = rearrangement(z)[k:]
    if tau == 1.0:
        return float(np.sum(tail))
    return float(np.sum(tail**tau))

