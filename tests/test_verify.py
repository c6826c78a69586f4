import itertools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from irlskit import verify

from irlskit import (
    BudgetExceededError,
    DimensionTooLargeError,
    IrlsConfig,
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


def test_rip_budget():
    rng = np.random.default_rng(2)
    phi = _gaussian(rng, 6, 12)
    with pytest.raises(BudgetExceededError):
        rip_constant(phi, 3, budget=10)


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


@pytest.mark.parametrize("method", ["ExactEnumeration", "Monte-Carlo"])
def test_nsp_method_names_are_exact(method):
    with pytest.raises(ValueError, match="unknown method"):
        nsp_constant(TINY, 1, method=method)


def test_nsp_report_json_fields():
    report = nsp_constant(TINY, 1)
    doc = report.to_dict()
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


@pytest.mark.parametrize("n,k", [(5, 1), (600, 1), (8, 3), (12, 4), (20, 3)])
def test_support_chunks_follow_combinations_order(n, k):
    blocks = list(_support_chunks(n, k))
    assert [len(b) for b in blocks[:-1]] == [512] * (len(blocks) - 1)
    assert 1 <= len(blocks[-1]) <= 512
    assert all(b.shape[1] == k for b in blocks)
    assert np.vstack(blocks).tolist() == [list(c) for c in itertools.combinations(range(n), k)]


def test_sparse_oracle_budget():
    rng = np.random.default_rng(8)
    phi = _gaussian(rng, 6, 12)
    with pytest.raises(BudgetExceededError):
        sparse_oracle(phi, rng.normal(size=6), 3, budget=5)


# --- LP l1 oracle --------------------------------------------------------------


def test_l1_oracle_tiny():
    x = l1_oracle(TINY, np.array([1.0, 1.0]))
    assert np.allclose(x, [0.0, 0.0, 1.0], atol=1e-10)


def test_l1_oracle_degenerate_tie():
    phi = SensingMatrix([[1.0, 1.0]])
    x, details = l1_oracle(phi, np.array([2.0]), full_output=True)
    assert np.sum(np.abs(x)) == pytest.approx(2.0, abs=1e-10)
    # a vertex: one of (2, 0) / (0, 2)
    assert np.min(np.abs(x)) == pytest.approx(0.0, abs=1e-10)
    assert details["maybe_nonunique"] is True


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
        x, details = l1_oracle(phi, y, full_output=True)
        _, ref_objective = _l1_presolve_reference(phi, y)
        assert details["objective"] == pytest.approx(ref_objective, rel=1e-10)
        assert np.linalg.norm(p @ x - y) <= 1e-9 * np.linalg.norm(y)


# --- l1 minimality certificates -------------------------------------------------


def test_minimality_certified_tiny():
    basis = null_space_basis(TINY)
    assert l1_minimality_check(np.array([0.0, 0.0, 1.0]), basis).certified


def test_minimality_violated_tiny():
    basis = null_space_basis(TINY)
    check = l1_minimality_check(np.array([1.0, 1.0, 0.0]), basis)
    assert check.violated
    eta = check.witness
    support = np.array([True, True, False])
    lhs = abs(np.sum(np.sign([1.0, 1.0, 0.0])[support] * eta[support]))
    rhs = np.sum(np.abs(eta[~support]))
    assert lhs > rhs


def test_minimality_equality_boundary_certified():
    # Phi = [1 -1]: kernel (1,1); x = (1, 0) achieves equality in the sign
    # condition and is a (non-unique) minimizer
    phi = SensingMatrix([[1.0, -1.0]])
    basis = null_space_basis(phi)
    assert l1_minimality_check(np.array([1.0, 0.0]), basis).certified


def test_minimality_exact_agrees_with_lp():
    rng = np.random.default_rng(10)
    for _ in range(15):
        phi = _gaussian(rng, 8, 12)
        y = rng.normal(size=8)
        basis = null_space_basis(phi)
        x_min = l1_oracle(phi, y)
        assert l1_minimality_check(x_min, basis).certified
        x_other = np.linalg.pinv(phi.entries) @ y  # dense, not l1-minimal
        check = l1_minimality_check(x_other, basis)
        if np.sum(np.abs(x_other)) > np.sum(np.abs(x_min)) * (1 + 1e-9):
            assert check.violated


def test_minimality_sampled_mode():
    rng = np.random.default_rng(11)
    phi = _gaussian(rng, 4, 12)  # null-space dim 8: sampled mode
    y = rng.normal(size=4)
    basis = null_space_basis(phi)
    good = l1_minimality_check(l1_oracle(phi, y), basis, samples=5000)
    assert good.status == "Inconclusive"
    bad = l1_minimality_check(np.linalg.pinv(phi.entries) @ y, basis, samples=5000)
    assert bad.violated and bad.witness is not None


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
        assert l1_minimality_check(x_star, basis).certified
        # the converged iterate is near-sparse; with the residual junk below
        # the zero threshold it passes the same certificate
        assert l1_minimality_check(result.x_final, basis, zero_tol=1e-5).certified


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
