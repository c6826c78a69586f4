import dataclasses
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from irlskit import verify

from irlskit import (
    BudgetExceededError,
    DimensionTooLargeError,
    IrlsConfig,
    IrlsKitError,
    RankDeficientError,
    SensingMatrix,
    irls_run,
    l1_minimality_check,
    l1_oracle,
    nsp_constant,
    null_space_basis,
    rip_constant,
    rip_to_nsp_bound,
    sigma_k,
    sparse_oracle,
)
from irlskit.verify import _support_chunks, _vertex_directions, exact_nsp_profile

TINY = SensingMatrix([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])


def _gaussian(rng, m, n):
    return SensingMatrix(rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, n)))


# --- RIP ---------------------------------------------------------------------


def test_rip_order_one_unit_columns():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 9))
    a /= np.linalg.norm(a, axis=0)
    report = rip_constant(SensingMatrix(a), 1)
    assert report.constant == pytest.approx(0.0, abs=1e-12)
    assert report.kind == "RIP" and report.method == "ExactEnumeration"


def test_rip_tiny_hand_case():
    # columns (1,0), (0,1), (1,1)/sqrt(2): brute-force the three pairs
    phi = SensingMatrix(np.array([[1.0, 0.0, 1.0 / np.sqrt(2)], [0.0, 1.0, 1.0 / np.sqrt(2)]]))
    expected = 0.0
    for pair in itertools.combinations(range(3), 2):
        sv = np.linalg.svd(phi.entries[:, pair], compute_uv=False)
        expected = max(expected, sv[0] - 1.0, 1.0 - sv[-1])
    report = rip_constant(phi, 2)
    assert report.constant == pytest.approx(expected, abs=1e-12)
    assert report.constant == pytest.approx(1.0 - np.sqrt(1.0 - 1.0 / np.sqrt(2)), abs=1e-10)
    assert report.constant == pytest.approx(0.45880, abs=5e-6)


def test_rip_nondecreasing_in_order():
    rng = np.random.default_rng(1)
    phi = _gaussian(rng, 6, 10)
    deltas = [rip_constant(phi, ell).constant for ell in (1, 2, 3)]
    assert deltas[0] <= deltas[1] + 1e-12 <= deltas[2] + 2e-12


def _no_enumeration(n, k):
    raise AssertionError("enumerated supports past the budget")


def test_rip_budget(monkeypatch):
    rng = np.random.default_rng(2)
    phi = _gaussian(rng, 12, 60)  # C(60, 6) = 5.0e7 supports
    monkeypatch.setattr(verify, "_support_chunks", _no_enumeration)
    with pytest.raises(BudgetExceededError, match="exceeds budget 2000000"):
        rip_constant(phi, 6)


def _rip_svd_reference(phi, order):
    """Reference: the former body of ``rip_constant``, one batched SVD per chunk."""
    delta = 0.0
    for idx in _support_chunks(phi.shape[1], order):
        sv = np.linalg.svd(np.moveaxis(phi.entries[:, idx], 1, 0), compute_uv=False)
        delta = max(delta, float(np.max(sv[:, 0] - 1.0)), float(np.max(1.0 - sv[:, -1])))
    return delta


def _rip_unguarded_eigenvalues(phi, order):
    """Gram eigenvalues for every support, near-singular ones included."""
    delta = 0.0
    for idx in _support_chunks(phi.shape[1], order):
        sub = np.moveaxis(phi.entries[:, idx], 1, 0)
        sv = np.sqrt(np.maximum(np.linalg.eigvalsh(sub.transpose(0, 2, 1) @ sub), 0.0))
        delta = max(delta, float(np.max(sv[:, -1] - 1.0)), float(np.max(1.0 - sv[:, 0])))
    return delta


@st.composite
def _rip_instances(draw):
    """Gaussian m x n (n <= 24) with up to three duplicated, near-dependent,
    scaled-copy or rescaled columns, and an order in 1..4."""
    m = draw(st.integers(2, 16))
    n = draw(st.integers(m + 1, 24))
    order = draw(st.integers(1, min(4, m)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, n))
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        edit = draw(st.sampled_from(["duplicate", "near", "scaled", "rescale"]))
        if edit == "duplicate":
            p[:, j] = p[:, i]
        elif edit == "near":
            p[:, j] = p[:, i] + draw(st.sampled_from([1e-5, 1e-3, 3e-3, 1e-2])) * rng.normal(size=m)
        elif edit == "scaled":
            p[:, j] = p[:, i] * (1.0 + 1e-9)
        else:
            p[:, j] *= 10.0 ** draw(st.integers(-3, 3))
    try:
        return SensingMatrix(p), order
    except RankDeficientError:
        assume(False)


@settings(max_examples=80, deadline=None)
@given(_rip_instances())
def test_rip_matches_svd_reference(instance):
    phi, order = instance
    ref = _rip_svd_reference(phi, order)
    assert abs(rip_constant(phi, order).constant - ref) <= 1e-12 * max(1.0, ref)


def _rip_unscreened(phi, order):
    """Reference: the Gram-eigenvalue enumeration with its SVD guard on every
    support, without the Gershgorin screen."""
    delta = 0.0
    for idx in _support_chunks(phi.shape[1], order):
        sub = np.moveaxis(phi.entries[:, idx], 1, 0)
        lam = np.linalg.eigvalsh(sub.transpose(0, 2, 1) @ sub)
        sv = np.sqrt(np.maximum(lam, 0.0))
        near = lam[:, 0] < 1e-6 * lam[:, -1]
        if np.any(near):
            sv[near] = np.linalg.svd(sub[near], compute_uv=False)[:, ::-1]
        delta = max(delta, float(np.max(sv[:, -1] - 1.0)), float(np.max(1.0 - sv[:, 0])))
    return delta


@settings(max_examples=80, deadline=None)
@given(_rip_instances())
def test_rip_screen_matches_unscreened_enumeration(instance):
    phi, order = instance
    assert rip_constant(phi, order).constant == _rip_unscreened(phi, order)


def test_rip_screen_skips_most_supports(monkeypatch):
    phi = _gaussian(np.random.default_rng(41), 16, 30)
    rows = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        rows.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    delta = rip_constant(phi, 3).constant
    assert 0 < sum(rows) < math.comb(30, 3) / 2
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    assert delta == _rip_unscreened(phi, 3)


def test_rip_screen_exact_on_coherent_columns():
    # each column a shared random vector plus half as much noise, normalised:
    # Gershgorin row sums stay far above delta, so the screen skips almost nothing
    rng = np.random.default_rng(5)
    p = rng.normal(size=(16, 1)) + 0.5 * rng.normal(size=(16, 30))
    phi = SensingMatrix(p / np.linalg.norm(p, axis=0))
    assert rip_constant(phi, 3).constant == _rip_unscreened(phi, 3)


@pytest.mark.parametrize("seed", [10, 11, 33, 49])
def test_rip_screen_keeps_near_singular_supports(seed):
    # two equal-norm column pairs rotated by 5e-9 (columns 0, 1) and 1e-9
    # (columns 38, 39): the later pair sets delta, but the Gershgorin
    # lower bound on its sigma_min, from the rounded Gram, can come out
    # about 1e-8 above the true value, so the screen must leave the SVD
    # guard's supports alone
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(20, 40))
    p /= np.linalg.norm(p, axis=0)
    for cols, theta in (([0, 1], 5e-9), ([38, 39], 1e-9)):
        q = np.linalg.qr(rng.normal(size=(20, 2)))[0]
        p[:, cols] = np.stack([q[:, 0], np.cos(theta) * q[:, 0] + np.sin(theta) * q[:, 1]], axis=1)
    phi = SensingMatrix(p)
    delta = rip_constant(phi, 2).constant
    assert delta == _rip_unscreened(phi, 2)
    assert abs(delta - _rip_svd_reference(phi, 2)) <= 1e-12


def test_rip_order_near_n():
    # C(40, 38) = 780 supports; the enumeration holds one 512-row block
    phi = _gaussian(np.random.default_rng(43), 38, 40)
    delta = rip_constant(phi, 38).constant
    assert delta == _rip_unscreened(phi, 38)
    assert abs(delta - _rip_svd_reference(phi, 38)) <= 1e-12


def test_rip_svd_guard_catches_parallel_columns():
    # columns 0 and 1 are parallel, so sigma_min = 0 on their pair; from
    # the Gram eigenvalue alone it comes out near sqrt(u) instead
    rng = np.random.default_rng(6)
    p = rng.normal(size=(6, 8)) / np.sqrt(6)
    p[:, 1] = p[:, 0] * (1.0 + 1e-9)
    phi = SensingMatrix(p)
    ref = _rip_svd_reference(phi, 2)
    assert abs(_rip_unguarded_eigenvalues(phi, 2) - ref) > 1e-9
    assert abs(rip_constant(phi, 2).constant - ref) <= 1e-12 * max(1.0, ref)


def test_rip_to_nsp_bound_examples():
    assert rip_to_nsp_bound(0.0, 1, 4) == pytest.approx(0.5)
    assert rip_to_nsp_bound(1.0 / 3.0, 1, 9) == pytest.approx(2.0 / 3.0)
    assert rip_to_nsp_bound(0.0, 3, 3) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rip_to_nsp_bound(1.0, 1, 1)


# --- NSP ---------------------------------------------------------------------


def test_nsp_exact_tiny():
    r1 = nsp_constant(TINY, 1)
    assert r1.constant == pytest.approx(0.5, abs=1e-12)
    assert r1.method == "ExactEnumeration" and r1.samples == 0
    r2 = nsp_constant(TINY, 2)
    assert r2.constant == pytest.approx(2.0, abs=1e-12)


def test_nsp_exact_brute_force_cross_check():
    # for a one-dimensional null space the constant is a direct ratio
    rng = np.random.default_rng(3)
    for _ in range(10):
        phi = _gaussian(rng, 5, 6)
        eta = np.abs(null_space_basis(phi)[:, 0])
        eta = np.sort(eta)[::-1]
        for order in (1, 2, 3):
            expected = eta[:order].sum() / eta[order:].sum()
            assert nsp_constant(phi, order).constant == pytest.approx(expected, rel=1e-10)


def test_nsp_gaussian_8x12_orders_three_and_up_uncertifiable():
    # A 4-dim kernel in R^12 holds a vector vanishing on any 3 chosen rows.
    # Its top L of 9 remaining magnitudes carry at least L/9 of the mass, so
    # gamma_3 >= 1/2 and gamma_4 >= 4/5: the acceptance filter's margin
    # K - 2g/(1-g) > 1, i.e. g < (K-1)/(K+1), fails at every order K >= 3.
    rng = np.random.default_rng(18)
    for _ in range(20):
        phi = _gaussian(rng, 8, 12)
        basis = null_space_basis(phi)
        zeros = rng.choice(12, size=3, replace=False)
        eta = basis @ np.linalg.svd(basis[zeros])[2][-1]
        assert np.max(np.abs(eta[zeros])) <= 1e-12
        assert np.linalg.norm(phi.entries @ eta) <= 1e-12
        mags = np.sort(np.abs(eta))[::-1]
        profile = exact_nsp_profile(phi)
        for order, bound in ((3, 1 / 2), (4, 4 / 5)):
            witness = mags[:order].sum() / mags[order:].sum()
            assert witness >= bound - 1e-12
            assert profile[order - 1] >= witness - 1e-12
        for order in range(3, 8):
            assert profile[order - 1] >= (order - 1) / (order + 1) - 1e-12


# --- vertex directions ----------------------------------------------------------


def _svd_vertex_directions(rows, dim):
    """Reference: the kernel of each (dim-1)-row subset from a batched SVD."""
    if dim == 1:
        return np.ones((1, 1))
    subs = list(itertools.combinations(range(rows.shape[0]), dim - 1))
    sub_rows = rows[np.array(subs, dtype=int)]  # (n_sub, dim-1, dim)
    _, _, vh = np.linalg.svd(sub_rows)
    return vh[:, -1, :]  # last right singular vector: in the kernel


@st.composite
def _row_sets(draw):
    d = draw(st.integers(1, 4))
    entries = draw(st.lists(st.integers(-1000, 1000), min_size=(d - 1) * d, max_size=(d - 1) * d))
    scales = draw(st.lists(st.integers(-3, 3), min_size=d - 1, max_size=d - 1))
    rows = np.array(entries, dtype=float).reshape(d - 1, d) / 1000.0
    return rows * 10.0 ** np.array(scales, dtype=float)[:, None]


@settings(max_examples=300, deadline=None)
@given(_row_sets())
def test_vertex_direction_property(rows):
    # full rank d-1 rows: one direction, annihilated by the rows and parallel
    # to the SVD's last right singular vector
    d = rows.shape[1]
    sv = np.linalg.svd(rows, compute_uv=False)
    assume(sv.size == 0 or sv[-1] > 1e-3 * sv[0])
    dirs = _vertex_directions(rows, d)
    assert dirs.shape == (1, d)
    v = dirs[0]
    assert np.max(np.abs(rows @ v), initial=0.0) <= 1e-12 * np.linalg.norm(rows) * np.linalg.norm(v)
    u = np.linalg.svd(rows)[2][-1]
    v = v / np.linalg.norm(v)
    assert np.linalg.norm(v - np.sign(v @ u) * u) <= 1e-11
    if d >= 2:
        # a duplicated first row (a zero row when there is only one) defines
        # no vertex
        dup = rows.copy()
        dup[min(1, d - 2)] = dup[0] if d > 2 else 0.0
        assert _vertex_directions(dup, d).shape == (0, d)


def test_vertex_directions_skip_rank_deficient_subsets():
    rng = np.random.default_rng(21)
    rows = rng.normal(size=(6, 4))
    rows[3] = rows[1]
    dirs = _vertex_directions(rows, 4)
    # subsets (1, 3, 4) and (1, 3, 5) vanish exactly and are dropped;
    # (0, 1, 3) and (1, 2, 3) leave a rounding remainder
    assert dirs.shape == (math.comb(6, 3) - 2, 4)
    norms = np.sort(np.linalg.norm(dirs, axis=1))
    assert norms[1] <= 1e-14 * norms[-1] and norms[2] > 1e-3 * norms[-1]


def _nsp_instances():
    rng = np.random.default_rng(22)
    for m, n in ((8, 12), (6, 10), (9, 12)):
        yield _gaussian(rng, m, n)
    # a kernel basis with two equal rows
    b = rng.normal(size=(12, 4))
    b[7] = b[2]
    yield SensingMatrix(scipy.linalg.null_space(b.T).T)


@pytest.mark.parametrize("phi", list(_nsp_instances()), ids=["8x12", "6x10", "9x12", "equal-rows"])
def test_exact_nsp_profile_matches_svd_reference(phi, monkeypatch):
    basis = null_space_basis(phi)
    shares, profile = verify._exact_top_shares(basis), exact_nsp_profile(phi)
    monkeypatch.setattr(verify, "_vertex_directions", _svd_vertex_directions)
    ref_shares, ref_profile = verify._exact_top_shares(basis), exact_nsp_profile(phi)
    assert np.max(np.abs(shares - ref_shares)) <= 1e-15
    assert np.array_equal(np.isinf(profile), np.isinf(ref_profile))


def test_nsp_monte_carlo_below_exact():
    rng = np.random.default_rng(4)
    for seed in range(8):
        phi = _gaussian(rng, 8, 12)
        for order in (1, 2):
            exact = nsp_constant(phi, order).constant
            mc = nsp_constant(phi, order, method="montecarlo", samples=20000, seed=seed)
            assert mc.method == "MonteCarloLowerBound"
            assert mc.constant <= exact * (1 + 1e-12)
            assert mc.constant >= 0.3 * exact  # sanity: the bound is not vacuous


def test_nsp_tau_below_tau_one():
    # per-vector top-share is monotone in the exponent, so the tau < 1
    # constant never exceeds the tau = 1 constant
    rng = np.random.default_rng(5)
    phi = _gaussian(rng, 8, 12)
    exact = nsp_constant(phi, 2).constant
    for tau in (0.8, 0.5):
        mc = nsp_constant(phi, 2, tau=tau, method="montecarlo", samples=20000)
        assert mc.kind == "TauNSP"
        assert mc.constant <= exact * (1 + 1e-12)


def test_nsp_exact_dimension_guard():
    rng = np.random.default_rng(6)
    phi = _gaussian(rng, 4, 10)  # null-space dim 6
    with pytest.raises(DimensionTooLargeError):
        nsp_constant(phi, 2, method="exact")
    report = nsp_constant(phi, 2, samples=5000)  # auto falls back to Monte Carlo
    assert report.method == "MonteCarloLowerBound"
    with pytest.raises(ValueError):
        nsp_constant(TINY, 1, tau=0.5, method="exact")
    with pytest.raises(ValueError, match="samples"):
        nsp_constant(phi, 2, method="montecarlo", samples=-1)


def test_mc_scan_footprint_does_not_grow_with_samples():
    # the directions are drawn and scanned in bounded blocks, the tail included,
    # and each block with its product is released before the next is drawn
    basis = null_space_basis(_gaussian(np.random.default_rng(9), 50, 250))
    n, dim = basis.shape
    peaks = []
    for samples in (4000, 40000):
        tracemalloc.start()
        try:
            verify._mc_gamma(basis, 5, 1.0, samples, np.random.default_rng(1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.01 * peaks[0]
    assert max(peaks) <= verify._MC_BLOCK * (dim + n) * 8 + 1_000_000


@pytest.mark.parametrize("method", ["ExactEnumeration", "Monte-Carlo"])
def test_nsp_method_names_are_exact(method):
    with pytest.raises(ValueError, match="unknown method"):
        nsp_constant(TINY, 1, method=method)


@pytest.mark.parametrize("seed", [-1, 1.5, 2**128, True, "3"])
def test_nsp_seed_must_be_a_philox_key(seed):
    with pytest.raises(ValueError, match="seed"):
        nsp_constant(TINY, 1, method="montecarlo", samples=10, seed=seed)


def test_nsp_seed_takes_numpy_and_128_bit_integers():
    ref = nsp_constant(TINY, 1, method="montecarlo", samples=10, seed=3).constant
    assert nsp_constant(TINY, 1, method="montecarlo", samples=10, seed=np.int64(3)).constant == ref
    assert nsp_constant(TINY, 1, method="montecarlo", samples=10, seed=2**128 - 1).constant == pytest.approx(0.5)


def test_nsp_unbounded_ratio_is_inf():
    # the kernel is exactly e_3, a 1-sparse vector, so gamma_1 is unbounded
    phi = SensingMatrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert nsp_constant(phi, 1, method="montecarlo", samples=10).constant == math.inf
    assert exact_nsp_profile(phi)[0] == math.inf


def test_nsp_report_json_fields():
    report = nsp_constant(TINY, 1)
    doc = dataclasses.asdict(report)
    assert set(doc) == {"kind", "order", "constant", "tau", "method", "samples", "elapsed_seconds"}


# --- exhaustive sparse oracle --------------------------------------------------


def test_sparse_oracle_tiny():
    support, x, residual = sparse_oracle(TINY, np.array([1.0, 1.0]), 1)
    assert support == (2,)
    assert np.allclose(x, [0.0, 0.0, 1.0], atol=1e-12)
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_sparse_oracle_lex_tiebreak():
    support, x, residual = sparse_oracle(TINY, np.array([1.0, 1.0]), 2)
    assert support == (0, 1)
    assert np.allclose(x, [1.0, 1.0, 0.0], atol=1e-12)
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_sparse_oracle_zero_rhs():
    support, x, residual = sparse_oracle(TINY, np.zeros(2), 2)
    assert residual == 0.0 and np.allclose(x, 0.0)
    support, x, residual = sparse_oracle(TINY, np.zeros(2), 0)
    assert support == () and residual == 0.0


def test_sparse_oracle_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(5):
        phi = _gaussian(rng, 5, 9)
        y = rng.normal(size=5)
        support, x, residual = sparse_oracle(phi, y, 2)
        best = min(
            np.linalg.norm(
                phi.entries[:, list(t)]
                @ np.linalg.lstsq(phi.entries[:, list(t)], y, rcond=None)[0]
                - y
            )
            for t in itertools.combinations(range(9), 2)
        )
        assert residual == pytest.approx(best, abs=1e-10)
        assert np.linalg.norm(phi.entries @ x - y) == pytest.approx(residual, abs=1e-10)


def test_sparse_oracle_rejects_bad_rhs():
    for bad in ([1.0, np.nan], [np.inf, 1.0], [1.0, 1.0, 1.0]):
        with pytest.raises(ValueError, match="y must"):
            sparse_oracle(TINY, np.array(bad), 1)


def _sparse_oracle_loop(phi, y, k):
    """Reference: the per-support strict-improvement loop."""
    n = phi.shape[1]
    best_res, best_support, best_coef = math.inf, (), None
    for idx in _support_chunks(n, k):
        sub = np.moveaxis(phi.entries[:, idx], 1, 0)
        try:
            coef = np.linalg.solve(sub.transpose(0, 2, 1) @ sub, np.einsum("bmk,m->bk", sub, y)[..., None])[..., 0]
        except np.linalg.LinAlgError:  # a singular Gram: the whole chunk by lstsq
            coef = np.stack([np.linalg.lstsq(s, y, rcond=None)[0] for s in sub])
        res = np.linalg.norm(y[None, :] - np.einsum("bmk,bk->bm", sub, coef), axis=1)
        for j in range(len(idx)):
            if res[j] < best_res - 1e-10:
                best_res, best_support, best_coef = float(res[j]), tuple(int(i) for i in idx[j]), coef[j]
    x = np.zeros(n)
    x[list(best_support)] = best_coef
    return best_support, x, best_res


def test_sparse_oracle_near_tie_chain_matches_loop():
    # k = 1 with unit columns (cos t, sin t) and y = e1: support j has
    # residual |sin t_j|.  Residuals fall by 0.6e-10 per support from 490
    # to 539, across the 512-support chunk boundary, so under the 1e-10
    # tie rule every second support improves; 560.. repeat earlier values.
    n = 600
    rng = np.random.default_rng(23)
    r = 0.5 + 0.1 * rng.random(n)
    r[100:140] = 0.4 - 0.6e-10 * np.arange(40)
    r[490:540] = 0.3 - 0.6e-10 * np.arange(50)
    r[560:600] = r[500:540]
    t = np.arcsin(r)
    phi = SensingMatrix(np.vstack([np.cos(t), np.sin(t)]))
    y = np.array([1.0, 0.0])
    support, x, residual = sparse_oracle(phi, y, 1)
    ref_support, ref_x, ref_residual = _sparse_oracle_loop(phi, y, 1)
    assert support == ref_support and 512 <= support[0] < 540
    assert np.array_equal(x, ref_x) and residual == ref_residual


def test_sparse_oracle_singular_grams_match_loop():
    rng = np.random.default_rng(31)
    p = rng.normal(0.0, 0.25, size=(16, 32))
    p[:, 7] = p[:, 3]
    phi = SensingMatrix(p)
    sub = np.moveaxis(p[:, next(_support_chunks(32, 3))], 1, 0)
    with pytest.raises(np.linalg.LinAlgError):  # the first chunk holds (0, 3, 7)
        np.linalg.solve(sub.transpose(0, 2, 1) @ sub, np.ones((len(sub), 3, 1)))
    for y in (p[:, [1, 9, 20]] @ [1.0, -2.0, 0.5], rng.normal(size=16)):
        support, x, residual = sparse_oracle(phi, y, 3)
        ref_support, ref_x, ref_residual = _sparse_oracle_loop(phi, y, 3)
        assert support == ref_support
        assert np.max(np.abs(x - ref_x)) <= 1e-12
        assert abs(residual - ref_residual) <= 1e-12


def test_sparse_oracle_gaussian_matches_loop():
    rng = np.random.default_rng(37)
    for _ in range(3):
        phi = _gaussian(rng, 16, 32)
        x = np.zeros(32)
        x[rng.choice(32, size=3, replace=False)] = rng.normal(size=3)
        for y in (phi.entries @ x, rng.normal(size=16)):
            support, x_hat, residual = sparse_oracle(phi, y, 3)
            ref_support, ref_x, ref_residual = _sparse_oracle_loop(phi, y, 3)
            assert support == ref_support
            assert np.max(np.abs(x_hat - ref_x)) <= 1e-12
            assert abs(residual - ref_residual) <= 1e-12


@pytest.mark.parametrize("k", [39, 40])
def test_sparse_oracle_k_near_n(k):
    # every support of 39 or 40 columns spans R^20, so all residuals are
    # rounding-level ties and the first support wins
    rng = np.random.default_rng(47)
    phi = _gaussian(rng, 20, 40)
    y = rng.normal(size=20)
    support, x, residual = sparse_oracle(phi, y, k)
    assert support == _sparse_oracle_loop(phi, y, k)[0] == tuple(range(k))
    assert residual <= 1e-10 and np.linalg.norm(phi.entries @ x - y) <= 1e-10


@pytest.mark.parametrize(
    "n,k", [(5, 1), (600, 1), (8, 3), (12, 4), (20, 3), (30, 3), (32, 3), (16, 6), (7, 7)]
)
def test_support_chunks_follow_combinations_order(n, k):
    blocks = list(_support_chunks(n, k))
    assert [len(b) for b in blocks[:-1]] == [512] * (len(blocks) - 1)
    assert 1 <= len(blocks[-1]) <= 512
    assert all(b.shape[1] == k for b in blocks)
    assert np.vstack(blocks).tolist() == [list(c) for c in itertools.combinations(range(n), k)]


def test_sparse_oracle_budget(monkeypatch):
    rng = np.random.default_rng(8)
    phi = _gaussian(rng, 6, 40)  # C(40, 6) = 3.8e6 supports
    monkeypatch.setattr(verify, "_support_chunks", _no_enumeration)
    with pytest.raises(BudgetExceededError, match="exceeds budget 1000000"):
        sparse_oracle(phi, rng.normal(size=6), 6)


# --- LP l1 oracle --------------------------------------------------------------


def test_l1_oracle_tiny():
    x = l1_oracle(TINY, np.array([1.0, 1.0]))
    assert np.allclose(x, [0.0, 0.0, 1.0], atol=1e-10)


def test_l1_oracle_degenerate_tie():
    phi = SensingMatrix([[1.0, 1.0]])
    x = l1_oracle(phi, np.array([2.0]))
    assert np.sum(np.abs(x)) == pytest.approx(2.0, abs=1e-10)
    # a vertex: one of (2, 0) / (0, 2)
    assert np.min(np.abs(x)) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize(
    "y,message",
    [([np.nan], "y must have finite entries"), ([1.0, 2.0], r"y must have shape \(1,\)")],
    ids=["nan", "length"],
)
def test_l1_oracle_checks_y(y, message):
    with pytest.raises(ValueError, match=message):
        l1_oracle(SensingMatrix([[1.0, 1.0]]), np.array(y))


def test_l1_oracle_beats_dense_candidates():
    rng = np.random.default_rng(9)
    for _ in range(10):
        phi = _gaussian(rng, 5, 10)
        y = rng.normal(size=5)
        x = l1_oracle(phi, y)
        assert np.linalg.norm(phi.entries @ x - y) <= 1e-8 * max(np.linalg.norm(y), 1.0)
        basis = null_space_basis(phi)
        for _ in range(50):
            z = x + basis @ rng.normal(size=basis.shape[1])
            assert np.sum(np.abs(x)) <= np.sum(np.abs(z)) + 1e-9


def _l1_presolve_reference(phi, y):
    """Reference: the oracle's program through ``linprog`` with HiGHS presolve on."""
    n = phi.shape[1]
    res = scipy.optimize.linprog(
        np.ones(2 * n), A_eq=np.hstack([phi.entries, -phi.entries]), b_eq=y,
        bounds=(0, None), method="highs-ds",
    )
    return res.x[:n] - res.x[n:], res.fun


@pytest.mark.parametrize("m,n", [(8, 12), (20, 60), (50, 250)])
def test_l1_oracle_matches_presolve_reference(m, n):
    rng = np.random.default_rng(m)
    for trial in range(4):
        phi = _gaussian(rng, m, n)
        planted = np.zeros(n)
        planted[rng.choice(n, max(1, m // 8), replace=False)] = rng.normal(size=max(1, m // 8))
        y = phi.entries @ planted if trial % 2 else rng.normal(size=m)
        ref_x, _ = _l1_presolve_reference(phi, y)
        assert np.array_equal(l1_oracle(phi, y), ref_x)


def test_l1_oracle_duplicated_column_matches_presolve_objective():
    rng = np.random.default_rng(41)
    p = rng.normal(0.0, 1.0 / np.sqrt(20), size=(20, 60))
    p[:, 7] = p[:, 3]
    phi = SensingMatrix(p)
    for y in (p[:, [3, 10, 20]] @ [1.0, -0.5, 2.0], rng.normal(size=20)):
        x = l1_oracle(phi, y)
        _, ref_objective = _l1_presolve_reference(phi, y)
        assert np.sum(np.abs(x)) == pytest.approx(ref_objective, rel=1e-10)
        assert np.linalg.norm(p @ x - y) <= 1e-9 * np.linalg.norm(y)


# --- l1 minimality certificates -------------------------------------------------


def _sign_condition_gap(x, eta):
    """(lhs, rhs) of the sign condition for kernel vector ``eta`` at ``x``,
    with the check's default zero threshold."""
    support = np.abs(x) > 1e-12 * max(1.0, float(np.max(np.abs(x))))
    return abs(float(np.sign(x[support]) @ eta[support])), float(np.sum(np.abs(eta[~support])))


def _breaks_sign_condition(x, eta):
    lhs, rhs = _sign_condition_gap(x, eta)
    return lhs > rhs


def test_minimality_certified_tiny():
    basis = null_space_basis(TINY)
    assert l1_minimality_check(np.array([0.0, 0.0, 1.0]), basis).status == "Certified"


def test_minimality_violated_tiny():
    # the LP finds t = 2; the witness comes from its equality marginals,
    # which put unit l1 mass off the support
    x = np.array([1.0, 1.0, 0.0])
    check = l1_minimality_check(x, null_space_basis(TINY))
    assert check.status == "Violated"
    lhs, rhs = _sign_condition_gap(x, check.witness)
    assert lhs == pytest.approx(2.0, rel=1e-12) and rhs == pytest.approx(1.0, rel=1e-12)


def test_minimality_fully_supported_violated():
    # no off-support rows: the equality has no solution unless g = 0, and
    # the least-squares residual is the witness
    x = np.array([1.0, 1.0, 1.0])
    check = l1_minimality_check(x, null_space_basis(TINY))
    assert check.status == "Violated"
    lhs, rhs = _sign_condition_gap(x, check.witness)
    assert lhs > 0.0 and rhs == 0.0


@pytest.mark.parametrize(
    "call",
    [lambda: l1_oracle(TINY, [1.0, 1.0]), lambda: l1_minimality_check(np.zeros(3), null_space_basis(TINY))],
    ids=["l1_oracle", "l1_minimality_check"],
)
def test_lp_failure_other_than_infeasible_raises(monkeypatch, call):
    # status 4 is HiGHS's "numerical difficulties"; only status 2 (infeasible) has a fallback
    failed = SimpleNamespace(status=4, message="numerical difficulties")
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs: failed)
    with pytest.raises(IrlsKitError, match="LP solver failed: numerical difficulties"):
        call()


def test_minimality_zero_certified():
    assert l1_minimality_check(np.zeros(3), null_space_basis(TINY)).status == "Certified"


def test_minimality_equality_boundary_certified():
    # Phi = [1 -1]: kernel (1,1); x = (1, 0) achieves equality in the sign
    # condition and is a (non-unique) minimizer
    phi = SensingMatrix([[1.0, -1.0]])
    basis = null_space_basis(phi)
    assert l1_minimality_check(np.array([1.0, 0.0]), basis).status == "Certified"


@pytest.mark.parametrize(
    "x", [np.full(12, np.nan), np.where(np.arange(12) == 3, np.inf, 0.0)], ids=["all_nan", "one_inf"]
)
def test_minimality_rejects_nonfinite_x(x):
    basis = null_space_basis(_gaussian(np.random.default_rng(6), 6, 12))
    with pytest.raises(ValueError, match="x must have finite entries"):
        l1_minimality_check(x, basis)


@pytest.mark.parametrize("bad", ["nan", "1d"])
def test_minimality_checks_basis(bad):
    basis = null_space_basis(_gaussian(np.random.default_rng(6), 6, 12)).copy()
    x = np.where(np.arange(12) < 2, 1.0, 0.0)
    if bad == "nan":
        basis[4, 1] = np.nan
        message = "basis must have finite entries"
    else:
        basis = basis[:, 0]
        message = "basis must be a 2-d array"
    with pytest.raises(ValueError, match=message):
        l1_minimality_check(x, basis)


def test_minimality_exact_agrees_with_lp():
    rng = np.random.default_rng(10)
    for _ in range(15):
        phi = _gaussian(rng, 8, 12)
        y = rng.normal(size=8)
        basis = null_space_basis(phi)
        x_min = l1_oracle(phi, y)
        assert l1_minimality_check(x_min, basis).status == "Certified"
        x_other = np.linalg.pinv(phi.entries) @ y  # dense, not l1-minimal
        check = l1_minimality_check(x_other, basis)
        if np.sum(np.abs(x_other)) > np.sum(np.abs(x_min)) * (1 + 1e-9):
            assert check.status == "Violated" and _breaks_sign_condition(x_other, check.witness)


def test_minimality_large_kernel():
    # kernel dimension 8, beyond vertex enumeration: the LP still decides
    rng = np.random.default_rng(11)
    phi = _gaussian(rng, 4, 12)
    y = rng.normal(size=4)
    basis = null_space_basis(phi)
    assert l1_minimality_check(l1_oracle(phi, y), basis).status == "Certified"
    x_pinv = np.linalg.pinv(phi.entries) @ y
    bad = l1_minimality_check(x_pinv, basis)
    assert bad.status == "Violated" and _breaks_sign_condition(x_pinv, bad.witness)


def test_minimality_certifies_lp_oracle_50x250():
    rng = np.random.default_rng(19)
    phi = _gaussian(rng, 50, 250)  # kernel dimension 200
    x = l1_oracle(phi, rng.normal(size=50))
    assert l1_minimality_check(x, null_space_basis(phi)).status == "Certified"


def _max_sign_functional(rows, g, lift):
    """Reference: max of |g . c| over ``{c : ||rows @ c||_1 <= 1}``, kernel
    dimension <= 4, by recursive rank reduction and vertex enumeration;
    (value, witness), with ``lift`` mapping reduced coordinates back to
    kernel vectors.  ``inf`` means the polytope is unbounded along a
    direction where the functional is nonzero."""
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


@st.composite
def _minimality_instances(draw, tie=False):
    """A Gaussian matrix with kernel dimension 1-4 and an LP-oracle,
    pseudo-inverse or planted sparse point; with ``tie``, one column is a
    copy or the negation of another, so that minimizers may tie."""
    dim = draw(st.integers(1, 4))
    m = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi = _gaussian(rng, m, m + dim)
    if tie:
        i, j = rng.choice(m + dim, size=2, replace=False)
        entries = phi.entries.copy()
        entries[:, j] = rng.choice([-1.0, 1.0]) * entries[:, i]
        phi = SensingMatrix(entries)
    y = rng.normal(size=m)
    kind = draw(st.sampled_from(["lp", "pinv", "planted"]))
    if kind == "lp":
        return phi, l1_oracle(phi, y)
    if kind == "pinv":
        return phi, np.linalg.pinv(phi.entries) @ y
    x = np.zeros(m + dim)
    k = draw(st.integers(0, m))
    x[rng.choice(m + dim, size=k, replace=False)] = rng.normal(size=k)
    return phi, x


@settings(max_examples=150, deadline=None)
@given(_minimality_instances())
def test_minimality_lp_matches_vertex_reference(instance):
    phi, x = instance
    basis = null_space_basis(phi)
    support = np.abs(x) > 1e-12 * max(1.0, float(np.max(np.abs(x))))
    ref, _ = _max_sign_functional(basis[~support], basis.T @ np.where(support, np.sign(x), 0.0), basis)
    assume(abs(ref - (1.0 + 1e-9)) > 1e-10)
    check = l1_minimality_check(x, basis)
    assert (check.status == "Certified") == (ref <= 1.0 + 1e-9)
    if check.status == "Violated":
        assert _breaks_sign_condition(x, check.witness)


def _unique_by_optimal_face(phi, x):
    """Reference: whether ``x`` is the only l1 minimizer on ``{z : Phi z = Phi x}``.
    The optimal face of the split LP is one point exactly when the min and the
    max of every coordinate over it agree.  Both are attained at vertices of the
    face, and every vertex of the LP is a basic solution ``z_S = Phi_S^{-1} y``
    of a nonsingular m-column ``Phi_S``; enumerating all of them, with no LP
    tolerance, gives the face as the vertices of least l1 norm."""
    m, n = phi.shape
    subsets = np.array(list(itertools.combinations(range(n), m)))
    mats = np.moveaxis(phi.entries[:, subsets], 1, 0)  # (b, m, m)
    sv = np.linalg.svd(mats, compute_uv=False)
    keep = sv[:, -1] > 1e-10 * sv[:, 0]
    subsets, mats = subsets[keep], mats[keep]
    vertices = np.zeros((len(subsets), n))
    rhs = np.broadcast_to((phi.entries @ x)[:, None], (len(subsets), m, 1))
    np.put_along_axis(vertices, subsets, np.linalg.solve(mats, rhs)[..., 0], axis=1)
    norms = np.sum(np.abs(vertices), axis=1)
    tol = 1e-9 * max(1.0, float(norms.min()))
    face = vertices[norms <= norms.min() + tol]
    return bool(np.all(face.min(axis=0) >= x - tol) and np.all(face.max(axis=0) <= x + tol))


@settings(max_examples=150, deadline=None)
@given(st.booleans().flatmap(lambda tie: _minimality_instances(tie=tie)))
def test_minimality_unique_matches_optimal_face(instance):
    phi, x = instance
    check = l1_minimality_check(x, null_space_basis(phi))
    assert check.unique == _unique_by_optimal_face(phi, x)
    assert not check.unique or check.status == "Certified"


def test_minimality_tie_certified_not_unique():
    # [1 1] x = 2: (2, 0) ties with every (t, 2 - t), t in [0, 2]; t* rounds to 1 - 2.2e-16
    check = l1_minimality_check(np.array([2.0, 0.0]), null_space_basis(SensingMatrix([[1.0, 1.0]])))
    assert check.status == "Certified" and check.unique is False


def test_minimality_equal_columns_not_unique():
    # x = (1, 1, 0) has t* = 0, yet (2, 0, 0) has the same l1 norm: B_off is rank-deficient
    phi = SensingMatrix([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    check = l1_minimality_check(np.array([1.0, 1.0, 0.0]), null_space_basis(phi))
    assert check.status == "Certified" and check.unique is False


def test_minimality_tie_on_support_not_unique():
    # columns 0 and 1 are negatives of each other and x holds both with opposite
    # signs, so x + s (1, 1, 0, 0) keeps Phi x and the l1 norm for |s| < 1.  The
    # computed basis has rounding (about 1e-16) in the off-support rows: full rank
    # on the scale of B_off alone, rank 0 on the scale of B
    base = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    phi = SensingMatrix(np.random.default_rng(0).normal(size=(3, 3)) @ base)
    check = l1_minimality_check(np.array([-1.0, 1.0, 0.0, 0.0]), null_space_basis(phi))
    assert check.status == "Certified" and check.unique is False


def test_minimality_zero_unique():
    assert l1_minimality_check(np.zeros(3), null_space_basis(TINY)).unique is True


def test_minimality_fully_supported_balanced_not_unique():
    # [1 1] x = 2 at x = (1, 1): g = 0, so Certified, but B_off is empty (rank 0)
    check = l1_minimality_check(np.array([1.0, 1.0]), null_space_basis(SensingMatrix([[1.0, 1.0]])))
    assert check.status == "Certified" and check.unique is False


def test_minimality_sparse_lp_solution_unique():
    rng = np.random.default_rng(23)
    phi = _gaussian(rng, 20, 60)
    x_star = np.zeros(60)
    x_star[rng.choice(60, size=3, replace=False)] = rng.normal(size=3)
    x = l1_oracle(phi, phi.entries @ x_star)
    assert np.max(np.abs(x - x_star)) < 1e-10
    check = l1_minimality_check(x, null_space_basis(phi))
    assert check.status == "Certified" and check.unique is True


# --- oracle chain on certified tiny instances -----------------------------------


def _certified_instances(count, seed=0):
    """Tiny instances where the exact order-k constant certifies the planted
    vector as the unique l1 minimizer (k = 1 keeps the certificate common)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        phi = _gaussian(rng, 8, 12)
        gamma1 = float(exact_nsp_profile(phi)[0])
        if gamma1 >= 0.99:
            continue
        x_star = np.zeros(12)
        x_star[rng.integers(12)] = rng.normal()
        if abs(x_star).max() < 1e-3:
            continue
        out.append((phi, x_star, gamma1))
    return out


def test_oracle_chain_tiny_certified():
    for phi, x_star, gamma1 in _certified_instances(20, seed=12):
        y = phi.entries @ x_star
        support, x_sp, residual = sparse_oracle(phi, y, 1)
        x_lp = l1_oracle(phi, y)
        result = irls_run(phi, y, IrlsConfig(K=2))
        assert np.sum(np.abs(x_sp - x_star)) <= 1e-8
        assert np.sum(np.abs(x_lp - x_star)) <= 1e-6
        assert np.sum(np.abs(result.x_final - x_star)) <= 1e-6
        basis = null_space_basis(phi)
        assert l1_minimality_check(x_star, basis).status == "Certified"
        # the converged iterate is near-sparse; with the residual junk below
        # 1e-5 set to zero it passes the same certificate
        x_near = np.where(np.abs(result.x_final) > 1e-5, result.x_final, 0.0)
        assert l1_minimality_check(x_near, basis).status == "Certified"


def test_reverse_triangle_inequality():
    # ||z' - z||_tau^tau <= (1+g)/(1-g) (||z'||_tau^tau - ||z||_tau^tau
    #                                    + 2 sigma_K(z)) with exact order-K g,
    # when z is the minimizer; the tau = 1 constant also serves tau < 1
    rng = np.random.default_rng(13)
    for phi, x_star, gamma1 in _certified_instances(10, seed=14):
        basis = null_space_basis(phi)
        for tau in (1.0, 0.7):
            for _ in range(20):
                zp = x_star + basis @ rng.normal(size=basis.shape[1])
                lhs = np.sum(np.abs(zp - x_star) ** tau)
                gap = np.sum(np.abs(zp) ** tau) - np.sum(np.abs(x_star) ** tau)
                rhs = (1 + gamma1) / (1 - gamma1) * (gap + 2 * sigma_k(x_star, 1, tau))
                assert lhs <= rhs * (1 + 1e-9) + 1e-12


def test_sparse_recovery_error_bound():
    # ||v - x*||_1 <= 2 (1+g)/(1-g) sigma_L(v) for every solution v (L = 1)
    rng = np.random.default_rng(15)
    for phi, x_star, gamma1 in _certified_instances(10, seed=16):
        basis = null_space_basis(phi)
        c = 2 * (1 + gamma1) / (1 - gamma1)
        for _ in range(20):
            v = x_star + basis @ rng.normal(size=basis.shape[1])
            assert np.sum(np.abs(v - x_star)) <= c * sigma_k(v, 1) * (1 + 1e-9) + 1e-12


def test_rip_bound_dominates_exact_nsp():
    # gamma_J <= (1+delta)/(1-delta) sqrt(J/J') with delta at order J + J'
    rng = np.random.default_rng(17)
    applicable = 0
    for _ in range(10):
        phi = _gaussian(rng, 8, 12)
        profile = exact_nsp_profile(phi)
        for j, jp in ((1, 1), (1, 2)):
            delta = rip_constant(phi, j + jp).constant
            if delta >= 1.0:
                continue
            applicable += 1
            assert rip_to_nsp_bound(delta, j, jp) >= profile[j - 1] - 1e-12
    assert applicable > 0


@st.composite
def _binomials(draw):
    n = draw(st.integers(1, 40))
    return n, draw(st.sampled_from([k for k in range(n + 1) if math.comb(n, k) <= 100_000]))


@settings(max_examples=60, deadline=None)
@given(_binomials())
@example((7, 7)).via("k = n")
@example((40, 40)).via("k = n")
@example((40, 36)).via("k > n/2, several blocks")
@example((17, 9)).via("k > n/2, many blocks")
@example((40, 38)).via("k near n")
@example((60, 57)).via("k near n, many blocks")
@example((68, 66)).via("uncapped C(67, 33) > 2**63")
@example((5, 0)).via("k = 0: one empty row")
def test_support_chunks_match_combinations(nk):
    n, k = nk
    rows = itertools.combinations(range(n), k)
    for block in _support_chunks(n, k):
        assert block.dtype == np.dtype(int)
        assert block.tolist() == [list(c) for c in itertools.islice(rows, 512)]
    assert next(rows, None) is None


def test_support_chunks_of_size_zero():
    blocks = list(_support_chunks(5, 0))
    assert len(blocks) == 1 and blocks[0].shape == (1, 0) and blocks[0].dtype == np.dtype(int)


def test_support_chunks_hold_a_few_blocks():
    # C(60, 30) ~ 1.2e17 rows: the first blocks come without building the rest
    tracemalloc.start()
    try:
        blocks = _support_chunks(60, 30)
        first = [next(blocks) for _ in range(3)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    rows = itertools.combinations(range(60), 30)
    assert np.vstack(first).tolist() == [list(c) for c in itertools.islice(rows, 3 * 512)]
