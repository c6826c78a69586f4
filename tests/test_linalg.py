import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irlskit import (
    IllConditionedError,
    RankDeficientError,
    SensingMatrix,
    null_space_basis,
    weighted_ls_solve,
)
from irlskit import linalg
from irlskit.linalg import (
    RANK_RTOL,
    read_matrix,
    read_vector,
    write_matrix,
    write_vector,
)


def test_construction_requires_wide_shape():
    with pytest.raises(ValueError):
        SensingMatrix(np.eye(3))
    with pytest.raises(ValueError):
        SensingMatrix(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        SensingMatrix(np.array([[1.0, np.nan, 0.0]]))


def test_construction_rejects_rank_deficient():
    with pytest.raises(RankDeficientError):
        SensingMatrix([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])


def _with_singular_values(sv, n, seed=0):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(len(sv), len(sv))))
    v, _ = np.linalg.qr(rng.normal(size=(n, len(sv))))
    return (u * np.asarray(sv)) @ v.T


def test_rank_check_paths(monkeypatch):
    calls = []
    svdvals = linalg.svdvals
    monkeypatch.setattr(linalg, "svdvals", lambda a, **kw: calls.append(1) or svdvals(a, **kw))
    # sigma_min / sigma_max = 1e-8 fails the Gram test and passes the SVD guard.
    SensingMatrix(_with_singular_values([1.0, 0.3, 1e-8], 6))
    assert len(calls) == 1
    for bad in (_with_singular_values([1.0, 0.3, 1e-13], 6), np.zeros((3, 6))):
        with pytest.raises(RankDeficientError):
            SensingMatrix(bad)
    assert len(calls) == 3

    def no_svd(*args, **kwargs):
        raise AssertionError("SVD guard reached")

    monkeypatch.setattr(linalg, "svdvals", no_svd)
    SensingMatrix(_with_singular_values([1.0, 0.3, 1e-2], 6))


@st.composite
def _rank_probes(draw):
    """Gaussian m x N matrices, some with row j replaced by c * row i plus
    d * noise: duplicated (c = 1, d = 0), rescaled (d = 0) or near-dependent
    (d > 0), at an overall scale whose Gram underflows, is normal, or
    overflows.  d keeps sigma_min / sigma_max at least a decade away from
    RANK_RTOL, where numpy's and scipy's SVDs could round differently."""
    n = draw(st.integers(3, 14))
    m = draw(st.integers(2, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(m, n))
    if draw(st.booleans()):
        i, j = draw(st.permutations(range(m)))[:2]
        c = draw(st.sampled_from([1.0, -1.0, 0.5, 4.0]))
        d = draw(st.sampled_from([0.0, 1e-15, 1e-9, 1e-6, 1e-3]))
        a[j] = c * a[i] + d * rng.normal(size=n)
    return a * draw(st.sampled_from([1e-160, 1.0, 1e160]))


@settings(max_examples=300, deadline=None)
@given(_rank_probes())
def test_rank_check_matches_svd_rule(a):
    sv = np.linalg.svd(a, compute_uv=False)
    full_rank = sv[0] > 0 and np.count_nonzero(sv > RANK_RTOL * sv[0]) == a.shape[0]
    try:
        SensingMatrix(a)
    except RankDeficientError:
        assert not full_rank
    else:
        assert full_rank


def test_entries_frozen():
    phi = SensingMatrix([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    with pytest.raises(ValueError):
        phi.entries[0, 0] = 5.0


def test_entries_are_a_copy_the_caller_cannot_change():
    # a C-contiguous float64 input used to become the entries and be frozen in place
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    phi = SensingMatrix(a)
    assert a.flags.writeable and not phi.entries.flags.writeable
    a[:] = 0.0
    assert np.array_equal(phi.entries, [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    assert weighted_ls_solve(phi, [1.0, 2.0], np.ones(3)).shape == (3,)


def test_null_space_basis_tiny():
    phi = SensingMatrix([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    basis = null_space_basis(phi)
    assert basis.shape == (3, 1)
    assert not basis.flags.writeable
    expected = np.array([1.0, 1.0, -1.0]) / np.sqrt(3)
    assert abs(abs(basis[:, 0] @ expected) - 1.0) < 1e-12


def test_null_space_basis_axis():
    phi = SensingMatrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    basis = null_space_basis(phi)
    assert np.allclose(np.abs(basis[:, 0]), [0.0, 0.0, 1.0], atol=1e-14)


def test_null_space_basis_random():
    rng = np.random.default_rng(0)
    phi = SensingMatrix(rng.normal(size=(8, 12)))
    basis = null_space_basis(phi)
    assert basis.shape == (12, 4)
    gram = basis.T @ basis
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12
    fro = np.linalg.norm(phi.entries)
    for j in range(4):
        assert np.linalg.norm(phi.entries @ basis[:, j]) <= 1e-10 * fro


def test_null_space_basis_deterministic():
    rng = np.random.default_rng(3)
    entries = rng.normal(size=(5, 9))
    b1 = null_space_basis(SensingMatrix(entries))
    b2 = null_space_basis(SensingMatrix(entries.copy()))
    assert np.array_equal(b1, b2)


def _signs_by_column(basis):
    """Reference: the per-column sign loop, largest magnitude (first on ties) made positive."""
    basis = basis.copy()
    for j in range(basis.shape[1]):
        lead = int(np.argmax(np.abs(basis[:, j])))
        if basis[lead, j] < 0:
            basis[:, j] = -basis[:, j]
    return basis


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_null_space_basis_signs_match_column_loop(m, extra, seed):
    entries = np.random.default_rng(seed).normal(size=(m, m + extra))
    applied, lapack_dormqr = [], linalg.dormqr  # copies of each result: the query's, then Q's unsigned kernel columns

    def dormqr(*args, **kwargs):
        out = lapack_dormqr(*args, **kwargs)
        applied.append(out[0].copy())
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "dormqr", dormqr)
        basis = null_space_basis(SensingMatrix(entries))
    assert np.array_equal(basis, _signs_by_column(applied[-1]))


def test_null_space_basis_signs_on_tied_magnitudes(monkeypatch):
    # kernel columns (rows 1-4 here) whose largest magnitudes tie between entries of opposite sign
    vh = np.array([
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [-0.5, 0.5, -0.5, 0.5, 0.0],
        [0.5, -0.5, 0.0, 0.5, -0.5],
        [0.0, -0.25, 0.25, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
    ])
    monkeypatch.setattr(linalg, "dormqr", lambda *args, **kwargs: (vh[1:].T.copy(order="F"), np.ones(1), 0))
    basis = null_space_basis(SensingMatrix([[1.0, 2.0, 3.0, 4.0, 5.0]]))
    assert np.array_equal(basis, _signs_by_column(vh[1:].T))
    assert basis.T.tolist() == [
        [0.5, -0.5, 0.5, -0.5, 0.0],  # the first of four tied entries was negative
        [0.5, -0.5, 0.0, 0.5, -0.5],
        [0.0, 0.25, -0.25, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
    ]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_null_space_basis_spans_the_svd_kernel(m, extra, seed):
    entries = np.random.default_rng(seed).normal(size=(m, m + extra))
    basis = null_space_basis(SensingMatrix(entries))
    kernel = np.linalg.svd(entries)[2][m:]
    assert np.max(np.abs(entries @ basis)) <= 1e-14 * np.linalg.norm(entries, 2)
    assert np.max(np.abs(basis.T @ basis - np.eye(extra))) <= 1e-13
    assert np.max(np.abs(basis @ basis.T - kernel.T @ kernel)) <= 1e-12


def test_null_space_basis_forms_no_square_array():
    # besides its N x (N - m) result, a call holds less than one N x N array of doubles
    phi = SensingMatrix(np.random.default_rng(11).normal(size=(100, 600)))
    tracemalloc.start()
    try:
        basis = null_space_basis(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - basis.nbytes < 600 * 600 * 8


def test_weighted_ls_symmetric():
    phi = SensingMatrix([[1.0, 1.0]])
    x = weighted_ls_solve(phi, np.array([2.0]), np.array([1.0, 1.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)


def test_weighted_ls_hand_case():
    # minimize z1^2 + 4 z2^2 subject to z1 + z2 = 2: stationarity gives
    # z1 = 8/5, z2 = 2/5, and <x, (1,-1)>_w = 8/5 - 8/5 = 0.
    phi = SensingMatrix([[1.0, 1.0]])
    w = np.array([1.0, 4.0])
    x = weighted_ls_solve(phi, np.array([2.0]), w)
    assert np.allclose(x, [1.6, 0.4], atol=1e-12)
    eta = np.array([1.0, -1.0])
    assert abs(np.sum(w * x * eta)) < 1e-12


def test_weighted_ls_unit_weights_match_pseudoinverse():
    rng = np.random.default_rng(1)
    for _ in range(10):
        phi = SensingMatrix(rng.normal(size=(4, 9)))
        y = rng.normal(size=4)
        x = weighted_ls_solve(phi, y, np.ones(9))
        assert np.allclose(x, np.linalg.pinv(phi.entries) @ y, atol=1e-10)


def test_weighted_ls_feasibility_and_orthogonality():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = rng.integers(4, 11)
        n = rng.integers(m + 2, 17)
        phi = SensingMatrix(rng.normal(size=(m, n)))
        y = rng.normal(size=m)
        w = rng.uniform(0.1, 10.0, size=n)
        x = weighted_ls_solve(phi, y, w)
        assert np.linalg.norm(phi.entries @ x - y) <= 1e-8 * np.linalg.norm(y)
        basis = null_space_basis(phi)
        xw = np.sqrt(np.sum(w * x * x))
        for j in range(basis.shape[1]):
            eta = basis[:, j]
            ew = np.sqrt(np.sum(w * eta * eta))
            assert abs(np.sum(w * x * eta)) <= 1e-8 * xw * ew


@st.composite
def _weighted_problems(draw):
    """Gaussian m x N matrix with m < N <= 40, a right-hand side, and
    weights in [1e-6, 1e6] with log-uniform magnitudes."""
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exps = draw(st.lists(st.floats(-6.0, 6.0), min_size=n, max_size=n))
    return rng.normal(size=(m, n)), rng.normal(size=m), 10.0 ** np.array(exps)


@settings(max_examples=200, deadline=None)
@given(_weighted_problems())
def test_weighted_ls_property(problem):
    a, y, w = problem
    phi = SensingMatrix(a)
    try:
        x = weighted_ls_solve(phi, y, w)
    except IllConditionedError:
        return
    d = 1.0 / w
    gram = (a * d) @ a.T
    # Both solves run on the same Gram, so their forward errors grow with
    # its condition number; a flat tolerance holds only while that is small.
    slack = 16.0 * np.finfo(float).eps * np.linalg.cond(gram)
    assert np.linalg.norm(a @ x - y) <= max(1e-9, slack) * np.linalg.norm(y)
    basis = null_space_basis(phi)
    assert np.max(np.abs(basis.T @ (w * x))) <= 1e-12 * np.linalg.norm(w * x)
    ref = d * (a.T @ np.linalg.solve(gram, y))
    assert np.linalg.norm(x - ref) <= max(1e-8, slack) * np.linalg.norm(ref)


def test_weighted_ls_scale_equivariance():
    rng = np.random.default_rng(4)
    phi = SensingMatrix(rng.normal(size=(5, 11)))
    y = rng.normal(size=5)
    w = rng.uniform(0.5, 2.0, size=11)
    x = weighted_ls_solve(phi, y, w)
    for c in (3.0, -0.25, 1e6):
        xc = weighted_ls_solve(phi, c * y, w)
        assert np.max(np.abs(xc - c * x)) <= 1e-12 * max(1.0, np.max(np.abs(c * x)))


def test_weighted_ls_weight_scale_invariance():
    rng = np.random.default_rng(5)
    phi = SensingMatrix(rng.normal(size=(5, 11)))
    y = rng.normal(size=5)
    w = rng.uniform(0.5, 2.0, size=11)
    x = weighted_ls_solve(phi, y, w)
    for c in (7.0, 1e-6, 1e8):
        xc = weighted_ls_solve(phi, y, c * w)
        assert np.max(np.abs(xc - x)) <= 1e-10 * max(1.0, np.max(np.abs(x)))


def test_weighted_ls_rejects_bad_weights():
    phi = SensingMatrix([[1.0, 1.0]])
    with pytest.raises(ValueError):
        weighted_ls_solve(phi, np.array([1.0]), np.array([1.0, 0.0]))


def test_weighted_ls_ill_conditioned():
    rng = np.random.default_rng(6)
    phi = SensingMatrix(rng.normal(size=(4, 8)))
    w = np.ones(8)
    w[0] = 1e-18  # one huge inverse weight makes the Gram matrix near rank one
    with pytest.raises(IllConditionedError):
        weighted_ls_solve(phi, rng.normal(size=4), w)


def test_matrix_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    a = rng.normal(size=(3, 7)) * 10.0 ** rng.integers(-8, 8, size=(3, 7))
    path = tmp_path / "a.mat"
    write_matrix(path, a)
    assert np.array_equal(read_matrix(path), a)


def test_vector_roundtrip(tmp_path):
    v = np.array([1.5e-300, -2.25, 0.0, 3e17])
    path = tmp_path / "v.vec"
    write_vector(path, v)
    assert np.array_equal(read_vector(path), v)


def test_text_io_streams_rows(tmp_path):
    # neither side holds the matrix as Python floats or lines of text
    a = np.random.default_rng(10).normal(size=(200, 1000))
    path = tmp_path / "big.mat"
    for call in (lambda: write_matrix(path, a), lambda: read_matrix(path)):
        tracemalloc.start()
        try:
            got = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= a.nbytes + 1_000_000
    assert np.array_equal(got, a)


def test_read_accepts_scientific_notation(tmp_path):
    path = tmp_path / "s.mat"
    path.write_text("1 3\n1e-3 -2.5E+2 .5\n")
    assert np.allclose(read_matrix(path), [[1e-3, -250.0, 0.5]])


def test_read_matrix_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("3\n1 2 3\n")
    with pytest.raises(ValueError):
        read_matrix(path)
    path.write_text("1000000000000 3\n1 2 3\n")  # read no further than the file
    with pytest.raises(ValueError, match="bad.mat"):
        read_matrix(path)


def test_read_matrix_rejects_trailing_rows(tmp_path):
    path = tmp_path / "extra.mat"
    path.write_text("2 3\n1 0 1\n0 1 1\n\n  \n")
    assert read_matrix(path).shape == (2, 3)  # trailing whitespace is fine
    path.write_text("2 3\n1 0 1\n0 1 1\n1 1 1\n")
    with pytest.raises(ValueError, match="extra.mat"):
        read_matrix(path)


def test_read_vector_rejects_trailing_lines(tmp_path):
    path = tmp_path / "extra.vec"
    path.write_text("2\n1 1\n\n")
    assert np.array_equal(read_vector(path), [1.0, 1.0])
    path.write_text("2\n1 1\n3 4\n")
    with pytest.raises(ValueError, match="extra.vec"):
        read_vector(path)


@pytest.mark.filterwarnings("error")
def test_readers_load_empty_arrays(tmp_path):
    path = tmp_path / "empty.vec"
    for text in ("0\n\n", "0\n"):
        path.write_text(text)
        got = read_vector(path)
        assert got.shape == (0,) and got.dtype == float
    path.write_text("2\n\n")
    with pytest.raises(ValueError, match="empty.vec"):
        read_vector(path)
    path = tmp_path / "empty.mat"
    path.write_text("2 0\n\n\n")
    assert read_matrix(path).shape == (2, 0)


_NONFINITE = ["nan", "inf", "-inf", "NaN", "Infinity"]


@st.composite
def _text_files(draw):
    """A matrix or vector file as lines of text, with one defect or none."""
    kind = draw(st.sampled_from(["matrix", "vector"]))
    m = draw(st.integers(1, 4)) if kind == "matrix" else 1
    n = draw(st.integers(1, 5))
    vals = [
        [draw(st.floats(-1e3, 1e3, allow_nan=False)) for _ in range(n)] for _ in range(m)
    ]
    rows = [[repr(v) for v in row] for row in vals]
    defect = draw(st.sampled_from(["none", "short", "missing", "extra", "token", "nonfinite"]))
    i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
    if defect == "short":
        del rows[i][j]
    elif defect == "missing":
        del rows[i]
    elif defect == "extra":
        rows.append([repr(v) for v in vals[i]])
    elif defect == "token":
        rows[i][j] = draw(st.sampled_from(["x", "1,5", "0x1p3", "--1", "1e", "nanx", "1_0"]))
    elif defect == "nonfinite":
        rows[i][j] = draw(st.sampled_from(_NONFINITE))
        vals[i][j] = float(rows[i][j])
    header = f"{m} {n}" if kind == "matrix" else f"{n}"
    text = "\n".join([header] + [" ".join(row) for row in rows]) + "\n"
    return kind, text, defect, np.array(vals)


@settings(max_examples=200, deadline=None)
@given(_text_files())
def test_readers_reject_malformed_text(case):
    # truncated, short, extra and non-numeric data raise ValueError naming
    # the file; nan and inf tokens load as they are
    kind, text, defect, expected = case
    reader = read_matrix if kind == "matrix" else read_vector
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"in.{kind}"
        path.write_text(text)
        if defect in ("none", "nonfinite"):
            got = reader(path)
            want = expected if kind == "matrix" else expected[0]
            assert np.array_equal(got, want, equal_nan=True)
        else:
            with pytest.raises(ValueError, match=re.escape(str(path))):
                reader(path)


def test_read_sensing_matrix(tmp_path):
    path = tmp_path / "phi.mat"
    write_matrix(path, [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    phi = SensingMatrix(read_matrix(path))
    assert phi.shape == (2, 3)
