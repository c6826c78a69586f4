import numpy as np
import pytest

from irlskit import rearrangement, sigma_k


def test_rearrangement_examples():
    assert np.array_equal(rearrangement([0.0, -3.0, 1.0, -0.5]), [3.0, 1.0, 0.5, 0.0])
    assert np.array_equal(rearrangement(np.zeros(4)), np.zeros(4))


def test_rearrangement_is_permutation_of_magnitudes():
    rng = np.random.default_rng(0)
    for _ in range(100):
        z = rng.normal(size=rng.integers(1, 30))
        r = rearrangement(z)
        assert np.all(np.diff(r) <= 0)
        assert np.array_equal(np.sort(r), np.sort(np.abs(z)))


def test_rearrangement_lipschitz():
    # ||r(z) - r(z')||_inf <= ||z - z'||_inf on 1000 random pairs
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = rng.integers(1, 20)
        z = rng.normal(size=n)
        zp = z + rng.normal(size=n) * rng.uniform(0, 2)
        lhs = np.max(np.abs(rearrangement(z) - rearrangement(zp)))
        assert lhs <= np.max(np.abs(z - zp)) + 1e-14


def test_sigma_k_examples():
    z = [3.0, -1.0, 0.5, 0.0]
    assert sigma_k(z, 1) == pytest.approx(1.5, abs=1e-14)
    assert sigma_k(z, 1, tau=0.5) == pytest.approx(1.0 + 0.5**0.5, abs=1e-12)
    assert sigma_k(z, 3) == 0.0


def test_sigma_k_edges():
    rng = np.random.default_rng(2)
    z = rng.normal(size=9)
    assert sigma_k(z, 9) == 0.0
    assert sigma_k(z, 0) == pytest.approx(np.sum(np.abs(z)), rel=1e-14)
    vals = [sigma_k(z, k) for k in range(10)]
    assert np.all(np.diff(vals) <= 1e-14)
    with pytest.raises(ValueError):
        sigma_k(z, 10)
    with pytest.raises(ValueError):
        sigma_k(z, 1, tau=0.0)


@pytest.mark.parametrize("tau", [1.0, 0.7, 0.5])
def test_sigma_k_stability(tau):
    # |sigma_j(z) - sigma_j(z')| <= sum |z_i - z'_i|^tau
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = rng.integers(2, 16)
        z = rng.normal(size=n)
        zp = z + rng.normal(size=n) * rng.uniform(0, 1.5)
        j = int(rng.integers(0, n + 1))
        lhs = abs(sigma_k(z, j, tau) - sigma_k(zp, j, tau))
        assert lhs <= np.sum(np.abs(z - zp) ** tau) + 1e-12


@pytest.mark.parametrize("tau", [1.0, 0.7, 0.5])
def test_tail_bound(tau):
    # (J - j) r(z)_J^tau <= sum |z_i - z'_i|^tau + sigma_j(z')
    rng = np.random.default_rng(4)
    for _ in range(300):
        n = int(rng.integers(3, 16))
        z = rng.normal(size=n)
        zp = z + rng.normal(size=n) * rng.uniform(0, 1.5)
        j = int(rng.integers(0, n - 1))
        big_j = int(rng.integers(j + 1, n + 1))
        lhs = (big_j - j) * rearrangement(z)[big_j - 1] ** tau
        assert lhs <= np.sum(np.abs(z - zp) ** tau) + sigma_k(zp, j, tau) + 1e-12


def test_tau_triangle_inequality():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = rng.integers(1, 20)
        tau = rng.uniform(0.05, 1.0)
        u = rng.normal(size=n)
        v = rng.normal(size=n)
        lhs = np.sum(np.abs(u + v) ** tau)
        assert lhs <= np.sum(np.abs(u) ** tau) + np.sum(np.abs(v) ** tau) + 1e-12


def test_quasi_norm_embedding():
    # ||u||_{tau2} <= ||u||_{tau1} for tau1 <= tau2
    rng = np.random.default_rng(6)
    for _ in range(200):
        u = rng.normal(size=rng.integers(1, 20))
        t1, t2 = sorted(rng.uniform(0.05, 1.0, size=2))
        q1 = np.sum(np.abs(u) ** t1) ** (1.0 / t1)
        q2 = np.sum(np.abs(u) ** t2) ** (1.0 / t2)
        assert q2 <= q1 * (1 + 1e-12)

