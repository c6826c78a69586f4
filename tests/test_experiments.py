import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import irlskit
from irlskit import (
    ExperimentConfig,
    gen_gaussian_matrix,
    gen_sparse_vector,
    run_phase_transition,
    run_trace,
    sigma_k,
)
from irlskit.errors import SchemaMismatchError
from irlskit.experiments import (
    derive_seed,
    method_tag,
    read_phase_csv,
    read_ratios_csv,
    read_trace_csv,
    rerun_trial,
    worker_count,
    write_phase_csv,
    write_ratios_csv,
    write_trace_csv,
)
from irlskit.sparsity import rearrangement


def test_matrix_determinism():
    a = gen_gaussian_matrix(6, 15, seed=42)
    b = gen_gaussian_matrix(6, 15, seed=42)
    assert np.array_equal(a.entries, b.entries)
    c = gen_gaussian_matrix(6, 15, seed=43)
    assert not np.array_equal(a.entries, c.entries)


def test_matrix_statistics():
    m, n = 250, 1500
    phi = gen_gaussian_matrix(m, n, seed=7)
    entries = phi.entries
    assert abs(entries.mean()) <= 4.0 / np.sqrt(m * n)
    assert abs(entries.var() - 1.0 / m) <= 0.1 / m


def test_matrix_full_rank_at_experiment_scale():
    gen_gaussian_matrix(50, 250, seed=1)  # construction runs the rank check


def test_sparse_vector_basics():
    assert np.array_equal(gen_sparse_vector(10, 0, seed=0), np.zeros(10))
    dense = gen_sparse_vector(10, 10, seed=1)
    assert np.count_nonzero(np.abs(dense) > 0.0) == 10
    z = gen_sparse_vector(30, 4, seed=2)
    assert np.count_nonzero(np.abs(z) > 0.0) == 4
    assert np.array_equal(z, gen_sparse_vector(30, 4, seed=2))


def test_sparse_vector_gap_ratio():
    z = gen_sparse_vector(12, 3, seed=3, gap_ratio=10.0)
    r3 = rearrangement(z)[2]
    assert r3 / sigma_k(z, 3) == pytest.approx(10.0, rel=1e-12)
    assert np.count_nonzero(np.abs(z) > 0.0) == 12  # perturbation is fully supported
    with pytest.raises(ValueError):
        gen_sparse_vector(12, 0, seed=3, gap_ratio=10.0)
    with pytest.raises(ValueError):
        gen_sparse_vector(12, 3, seed=3, gap_ratio=-1.0)


def test_derive_seed_stability():
    s = derive_seed(123, "trial", 5, "tau1", 0)
    assert s == derive_seed(123, "trial", 5, "tau1", 0)
    assert s != derive_seed(123, "trial", 5, "tau1", 1)
    assert s != derive_seed(124, "trial", 5, "tau1", 0)


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("IRLS_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.delenv("IRLS_THREADS")
    assert worker_count() >= 1


def test_config_validation_and_json(tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(m=10, N=5, k=1)
    with pytest.raises(ValueError):
        ExperimentConfig(m=10, N=20, k=1, K_policy="Bogus")
    for key, value in (("trials", True), ("per_trial_matrix", "false")):
        with pytest.raises(ValueError, match=f"'{key}'"):
            ExperimentConfig(m=10, N=20, k=2, **{key: value})
    cfg = ExperimentConfig(m=10, N=20, k=2, tau_list=[1.0, 0.5], trials=3, master_seed=9)
    path = tmp_path / "cfg.json"
    path.write_text(__import__("json").dumps(cfg.to_dict()))
    loaded = ExperimentConfig.from_json_file(path)
    assert loaded == cfg
    assert cfg.resolve_K(2) == 2
    assert ExperimentConfig(m=10, N=20, k=2, K_policy="Heuristic").resolve_K(2) >= 1
    assert ExperimentConfig(m=10, N=20, k=2, K_policy=4).resolve_K(2) == 4


_NUMBER = (int, float)
# the JSON values each config field takes; a bool is never a number
_CONFIG_FITS = {
    "m": lambda v: type(v) is int,
    "N": lambda v: type(v) is int,
    "k": lambda v: type(v) is int,
    "tau_list": lambda v: type(v) is list and all(type(t) in _NUMBER for t in v),
    "trials": lambda v: type(v) is int,
    "master_seed": lambda v: type(v) is int,
    "success_tol": lambda v: type(v) in _NUMBER,
    "K_policy": lambda v: type(v) in (str, int),
    "gap_ratio": lambda v: v is None or type(v) in _NUMBER,
    "k_list": lambda v: v is None or (type(v) is list and all(type(t) is int for t in v)),
    "warmstart_iters": lambda v: type(v) is int,
    "max_iters": lambda v: type(v) is int,
    "eps_floor": lambda v: type(v) in _NUMBER,
    "step_tol": lambda v: type(v) in _NUMBER,
    "per_trial_matrix": lambda v: type(v) is bool,
}
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 30), st.floats(-2.0, 30.0), st.text(max_size=4),
    st.sampled_from(["false", "true", "1", "Heuristic"]),
)


def test_config_fields_cover_every_key():
    assert set(_CONFIG_FITS) == {f.name for f in dataclasses.fields(ExperimentConfig)}


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(_CONFIG_FITS)),
    st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=3)),
)
def test_config_json_types_checked_at_load(key, value):
    doc = json.loads(json.dumps({"m": 10, "N": 20, "k": 2, key: value}))
    value = doc[key]
    if not _CONFIG_FITS[key](value):
        with pytest.raises(ValueError, match=f"'{key}'"):
            ExperimentConfig.from_dict(doc)
        return
    # a well-typed value meets only the value checks of the constructor
    try:
        direct = ExperimentConfig(**doc)
    except ValueError:
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(doc)
        return
    assert ExperimentConfig.from_dict(doc) == direct


@given(st.text(min_size=1, max_size=8).filter(lambda s: s not in _CONFIG_FITS))
def test_config_unknown_key_rejected(key):
    with pytest.raises(ValueError, match="unknown config key"):
        ExperimentConfig.from_dict({"m": 10, "N": 20, "k": 2, key: 1})


@pytest.fixture(scope="module")
def small_phase_table():
    cfg = ExperimentConfig(
        m=10,
        N=20,
        k=2,
        k_list=[0, 2],
        tau_list=[1.0, 0.5],
        trials=5,
        master_seed=11,
        max_iters=150,
        warmstart_iters=8,
    )
    return cfg, run_phase_transition(cfg, n_workers=1)


def test_phase_table_shape(small_phase_table):
    cfg, table = small_phase_table
    assert set(table.rows) == {(0, "tau1"), (0, "hybrid-tau0.5"), (2, "tau1"), (2, "hybrid-tau0.5")}
    for cell in table.rows.values():
        assert cell.trials == 5
        assert cell.success_rate == cell.successes / cell.trials


def test_phase_zero_sparsity_always_succeeds(small_phase_table):
    cfg, table = small_phase_table
    assert table.rows[(0, "tau1")].success_rate == 1.0


def test_phase_determinism(small_phase_table):
    cfg, table = small_phase_table
    again = run_phase_transition(cfg, n_workers=1)
    assert again.rows == table.rows


@pytest.mark.parametrize(
    "per_trial_matrix", [False, True], ids=["shared_matrix", "per_trial_matrix"]
)
def test_phase_per_cell_reproducibility(small_phase_table, per_trial_matrix):
    cfg, table = small_phase_table
    if per_trial_matrix:
        cfg = dataclasses.replace(cfg, per_trial_matrix=True)
        table = run_phase_transition(cfg, n_workers=2)
    assert rerun_trial(cfg, 2, 1.0, 3) == rerun_trial(cfg, 2, 1.0, 3)
    rebuilt = {}
    for k in cfg.k_list:
        for tau in cfg.tau_list:
            records = [rerun_trial(cfg, k, tau, t) for t in range(cfg.trials)]
            rebuilt[(k, method_tag(tau))] = (
                sum(r.success for r in records),
                float(np.mean([r.iterations for r in records])),
            )
    assert rebuilt == {
        key: (cell.successes, cell.mean_iters) for key, cell in table.rows.items()
    }


def test_phase_parallel_matches_serial(small_phase_table):
    cfg, table = small_phase_table
    parallel = run_phase_transition(cfg, n_workers=2)
    assert parallel.rows == table.rows


def test_method_tags():
    assert method_tag(1.0) == "tau1"
    assert method_tag(0.5) == "hybrid-tau0.5"


def test_phase_csv_roundtrip(small_phase_table, tmp_path):
    cfg, table = small_phase_table
    path = tmp_path / "phase.csv"
    write_phase_csv(table, path)
    rows = read_phase_csv(path)
    assert len(rows) == 4
    byk = {(r["k"], r["method"]): r for r in rows}
    for key, cell in table.rows.items():
        assert byk[key]["successes"] == cell.successes
        assert byk[key]["success_rate"] == cell.success_rate
        assert byk[key]["mean_iters"] == cell.mean_iters


def test_trace_study_and_csv(tmp_path):
    cfg = ExperimentConfig(m=10, N=25, k=2, master_seed=5, max_iters=200)
    trace_path = tmp_path / "trace.csv"
    ratios_path = tmp_path / "ratios.csv"
    study = run_trace(cfg, tau=1.0, trace_csv=trace_path, ratios_csv=ratios_path)
    assert study.result.trace[-1].ref_error_l1 is not None
    rows = read_trace_csv(trace_path)
    assert len(rows) == study.result.iterations
    for rec, row in zip(study.result.trace, rows):
        assert row["n"] == rec.n
        assert row["surrogate"] == rec.surrogate  # 17 significant digits round-trip
        assert row["eps"] == rec.eps
        assert row["ref_error_l1"] == rec.ref_error_l1
    ratio_rows = read_ratios_csv(ratios_path)
    assert len(ratio_rows) == len(study.diagnostics)
    if ratio_rows:
        assert ratio_rows[0]["linear_ratio"] == study.diagnostics[0][1]


_TRACE_CHILD = """
import sys
from irlskit.experiments import ExperimentConfig, run_trace
cfg = ExperimentConfig(m=50, N=250, k=8, master_seed=1)
for tau in (1.0, 0.6):
    run_trace(cfg, tau, trace_csv=f"{sys.argv[1]}/trace-{tau}.csv")
"""


def _run_child(script, out, threads):
    # One child interpreter per BLAS thread count: OpenBLAS reads the
    # variable once, when it loads.
    src = str(Path(irlskit.__file__).resolve().parents[1])
    out.mkdir()
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True)


def test_trace_independent_of_blas_threads(tmp_path):
    for threads in ("1", "2"):
        _run_child(_TRACE_CHILD, tmp_path / threads, threads)
    for tau in (1.0, 0.6):
        name = f"trace-{tau}.csv"
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


_PHASE_CHILD = """
import sys
from irlskit.experiments import ExperimentConfig, run_phase_transition, write_phase_csv
cfg = ExperimentConfig(
    m=20, N=50, k=8, k_list=[0, 2, 4, 6, 8], tau_list=[1.0, 0.6], trials=10, master_seed=3
)
for workers in (1, 2):
    table = run_phase_transition(cfg, n_workers=workers)
    write_phase_csv(table, f"{sys.argv[1]}/phase-{workers}.csv")
"""


def test_phase_csv_independent_of_blas_threads_and_workers(tmp_path):
    tables = []
    for threads in ("1", "2"):
        _run_child(_PHASE_CHILD, tmp_path / threads, threads)
        tables += [(tmp_path / threads / f"phase-{w}.csv").read_bytes() for w in (1, 2)]
    assert len(set(tables)) == 1


def test_trace_zero_sparsity_stops_immediately(tmp_path):
    cfg = ExperimentConfig(m=10, N=25, k=0, master_seed=6)
    study = run_trace(cfg, tau=1.0)
    assert study.result.termination == "ExactSparseStop"
    assert study.result.iterations == 1
    assert np.allclose(study.result.x_final, 0.0)
    assert study.diagnostics == []


def test_trace_csv_schema_guard(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("n,surrogate,eps\n1,2,3\n")
    with pytest.raises(SchemaMismatchError, match="step_l1"):
        read_trace_csv(bad)
    bad2 = tmp_path / "bad2.csv"
    bad2.write_text("n,foo\n1,2\n")
    with pytest.raises(SchemaMismatchError, match="linear_ratio"):
        read_ratios_csv(bad2)
    bad2.write_text("n,linear_ratio\n1,0.5\n")
    with pytest.raises(SchemaMismatchError, match="superlinear_ratio"):
        read_ratios_csv(bad2)


def test_ratios_csv_roundtrip(tmp_path):
    path = tmp_path / "r.csv"
    diags = [(1, 0.5, 0.7), (2, 0.25, 0.35)]
    write_ratios_csv(diags, path)
    rows = read_ratios_csv(path)
    assert rows[1] == {"n": 2, "linear_ratio": 0.25, "superlinear_ratio": 0.35}
