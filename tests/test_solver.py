import copy
import dataclasses
import json
import math
import re

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import irlskit
from irlskit import (
    IrlsConfig,
    MissingReferenceError,
    RecoveryResult,
    SensingMatrix,
    default_sparsity_order,
    epsilon_update,
    irls_run,
    optimal_weights,
    rate_diagnostics,
    rearrangement,
    smoothed_objective,
    surrogate_value,
    theoretical_contraction_factor,
)
from irlskit.solver import (
    IterationRecord,
    load_result,
    result_schema,
    result_to_dict,
    save_result,
)


def test_public_names_resolve():
    names = irlskit.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(irlskit, name), name


def _random_instance(rng, m, n, k):
    phi = SensingMatrix(rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, n)))
    x = np.zeros(n)
    x[rng.choice(n, size=k, replace=False)] = rng.normal(size=k)
    return phi, x, phi.entries @ x


def test_surrogate_examples():
    n = 6
    val = surrogate_value(np.zeros(n), np.ones(n), 1.0, 1.0)
    assert val == pytest.approx(n, abs=1e-12)
    # with the minimizing weights the surrogate collapses to sum sqrt(z^2+eps^2)
    val = surrogate_value(np.array([3.0, 0.0]), np.array([0.2, 0.25]), 4.0, 1.0)
    assert val == pytest.approx(9.0, abs=1e-12)
    val = surrogate_value(np.zeros(1), np.ones(1), 0.0, 0.5)
    assert val == pytest.approx(0.75, abs=1e-12)


def test_smoothed_objective_examples():
    assert smoothed_objective(np.array([3.0, 4.0]), 0.0) == pytest.approx(7.0)
    assert smoothed_objective(np.array([3.0, 0.0]), 4.0) == pytest.approx(9.0)
    assert smoothed_objective(np.array([1.0, 1.0]), 0.0, tau=0.5) == pytest.approx(2.0)


def test_optimal_weights_examples():
    w = optimal_weights(np.array([3.0, 0.0]), 4.0)
    assert np.allclose(w, [0.2, 0.25], atol=1e-14)
    assert np.allclose(optimal_weights(np.zeros(3), 1.0, tau=0.7), np.ones(3))


def test_optimal_weights_minimize_surrogate():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = rng.integers(1, 10)
        x = rng.normal(size=n)
        eps = rng.uniform(0.01, 2.0)
        tau = rng.uniform(0.3, 1.0)
        w_star = optimal_weights(x, eps, tau)
        base = surrogate_value(x, w_star, eps, tau)
        for _ in range(100):
            w = w_star * rng.uniform(0.2, 5.0, size=n)
            assert base <= surrogate_value(x, w, eps, tau) + 1e-12 * abs(base)


def test_surrogate_weight_identity():
    # after a weight update the surrogate equals sum (x^2 + eps^2)^(tau/2)
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = rng.integers(1, 12)
        x = rng.normal(size=n)
        eps = rng.uniform(1e-6, 3.0)
        tau = rng.uniform(0.2, 1.0)
        lhs = surrogate_value(x, optimal_weights(x, eps, tau), eps, tau)
        rhs = smoothed_objective(x, eps, tau)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_epsilon_update_examples():
    assert epsilon_update(1.0, np.array([5.0, 0.3, 0.03]), 1) == pytest.approx(0.1)
    assert epsilon_update(0.7, np.array([2.0, 0.0, 0.0]), 1) == 0.0
    assert epsilon_update(0.001, np.array([5.0, 1.5, 0.0]), 1) == 0.001


def test_epsilon_update_matches_rearrangement():
    rng = np.random.default_rng(11)
    vectors = [
        np.zeros(6),
        np.array([0.0, -2.0, 2.0, 0.0, 1.0, -1.0]),
        np.array([3.0, 3.0, 3.0, -3.0]),
        np.array([-0.0, 0.0, 1e-300, -1e-300, 5.0]),
    ]
    for _ in range(30):
        n = int(rng.integers(2, 40))
        # Few distinct magnitudes, so most draws hold ties and zeros.
        vectors.append(rng.integers(-3, 4, size=n) * rng.choice([1.0, 0.5, 1e-9]))
    for x in vectors:
        n = x.size
        for k in range(1, n):
            assert epsilon_update(np.inf, x, k) == float(rearrangement(x)[k]) / n


def test_default_sparsity_order():
    assert default_sparsity_order(50, 250) == 15
    assert 1 <= default_sparsity_order(4, 250) <= 3
    assert default_sparsity_order(8, 12) == 7  # clamped to m - 1
    with pytest.raises(ValueError):
        default_sparsity_order(5, 5)


def test_config_validation():
    with pytest.raises(ValueError):
        IrlsConfig(tau=0.0)
    with pytest.raises(ValueError):
        IrlsConfig(K=0)
    assert IrlsConfig(tau=0.5).warmstart == 10
    assert IrlsConfig(tau=1.0).warmstart == 0
    assert IrlsConfig(tau=0.5, warmstart_iters=3).warmstart == 3


def test_irls_run_first_iteration_hand_computation():
    # Phi = [1 1], y = 2: the first iterate is (1, 1); with K = 1, N = 2 the
    # smoothing parameter drops to 1/2 and both weights become (5/4)^(-1/2).
    phi = SensingMatrix([[1.0, 1.0]])
    result = irls_run(phi, np.array([2.0]), IrlsConfig(K=1, max_iters=1))
    assert result.termination == "MaxIters"
    assert result.iterations == 1
    assert np.allclose(result.x_final, [1.0, 1.0], atol=1e-12)
    assert result.trace[0].eps == pytest.approx(0.5, abs=1e-12)
    # surrogate at (x_1, w = 1, eps = 1): (1/2) (2 + 2 + 2)
    assert result.a_bound == pytest.approx(3.0, abs=1e-12)
    w_next = optimal_weights(result.x_final, result.trace[0].eps)
    assert np.allclose(w_next, (1.0 + 0.25) ** -0.5, atol=1e-12)


def test_irls_run_sparse_first_iterate_stops():
    # min-l2 solution already 1-sparse: eps drops to exactly zero
    phi = SensingMatrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    result = irls_run(phi, np.array([1.0, 0.0]), IrlsConfig(K=1))
    assert result.termination == "ExactSparseStop"
    assert result.iterations == 1
    assert result.trace[0].eps == 0.0
    assert np.allclose(result.x_final, [1.0, 0.0, 0.0], atol=1e-12)


def test_irls_run_symmetric_instance():
    # all iterates equal (1, 1) by symmetry; eps stalls at 1/2 and the run
    # terminates on the step test; the limit minimizes the eps-smoothed
    # objective over the solution set (checked against a grid oracle).
    phi = SensingMatrix([[1.0, 1.0]])
    result = irls_run(phi, np.array([2.0]), IrlsConfig(K=1))
    assert result.termination == "StepBelowTol"
    assert np.allclose(result.x_final, [1.0, 1.0], atol=1e-10)
    for rec in result.trace:
        assert rec.eps == pytest.approx(0.5, abs=1e-12)
    limit_value = smoothed_objective(result.x_final, 0.5)
    for t in np.linspace(-3.0, 3.0, 2001):
        z = np.array([1.0 + t, 1.0 - t])
        assert limit_value <= smoothed_objective(z, 0.5) + 1e-12


def test_irls_run_zero_rhs():
    phi = SensingMatrix([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    result = irls_run(phi, np.zeros(2), IrlsConfig(K=1))
    assert result.termination == "ExactSparseStop"
    assert result.iterations == 1
    assert np.allclose(result.x_final, 0.0)


def test_irls_run_max_iters():
    phi = SensingMatrix([[1.0, 1.0]])
    result = irls_run(phi, np.array([2.0]), IrlsConfig(K=1, max_iters=1, step_tol=1e-30))
    assert result.termination == "MaxIters"
    assert result.iterations == 1


@pytest.mark.parametrize("tau", [1.0, 0.8, 0.5])
def test_irls_run_surrogate_monotone(tau):
    rng = np.random.default_rng(11)
    for _ in range(8):
        m = int(rng.integers(5, 12))
        n = int(rng.integers(m + 3, 25))
        k = int(rng.integers(1, max(2, m // 2)))
        phi, x_star, y = _random_instance(rng, m, n, k)
        cfg = IrlsConfig(K=k, tau=tau, warmstart_iters=0, max_iters=200)
        result = irls_run(phi, y, cfg)
        values = [rec.surrogate for rec in result.trace]
        for a, b in zip(values, values[1:]):
            assert b <= a * (1.0 + 1e-10)


def test_irls_run_eps_monotone_and_warmstart_switch():
    rng = np.random.default_rng(12)
    phi, x_star, y = _random_instance(rng, 10, 30, 3)
    cfg = IrlsConfig(K=3, tau=0.5, warmstart_iters=5, max_iters=60)
    result = irls_run(phi, y, cfg, x_ref=x_star)
    # the recorded surrogate is the smoothed objective at the exponent that
    # iteration re-weights with, so that exponent can be read back from it
    taus = []
    for rec, x in zip(result.trace, result.iterates):
        (tau,) = [t for t in (1.0, 0.5) if rec.surrogate == smoothed_objective(x, rec.eps, t)]
        taus.append(tau)
    eps_values = [1.0] + [rec.eps for rec in result.trace]
    assert all(b <= a for a, b in zip(eps_values, eps_values[1:]))
    switches = sum(1 for a, b in zip(taus, taus[1:]) if a != b)
    assert switches <= 1
    assert taus[0] == 1.0 and taus[-1] == 0.5


def test_irls_run_hybrid_segment_monotonicity():
    # the traced surrogate can jump where the exponent switches, but must be
    # non-increasing within each constant-exponent segment
    rng = np.random.default_rng(21)
    for _ in range(5):
        phi, x_star, y = _random_instance(rng, 12, 36, 3)
        cfg = IrlsConfig(K=3, tau=0.5, warmstart_iters=10, max_iters=120)
        result = irls_run(phi, y, cfg)
        values = [rec.surrogate for rec in result.trace]
        # iterate `warmstart` is the first whose weight update (and hence
        # recorded surrogate) uses the new exponent
        switch = cfg.warmstart - 1
        for seg in (values[:switch], values[switch:]):
            for a, b in zip(seg, seg[1:]):
                assert b <= a * (1.0 + 1e-10)


def test_irls_run_recovers_planted_sparse():
    rng = np.random.default_rng(13)
    phi, x_star, y = _random_instance(rng, 20, 60, 3)
    result = irls_run(phi, y, IrlsConfig(K=3), x_ref=x_star)
    assert np.sum(np.abs(result.x_final - x_star)) <= 1e-6
    assert result.trace[-1].ref_error_l1 <= 1e-6
    # boundedness along the run (tau = 1): l1 norms below A, weights above 1/A
    a_bound = result.a_bound
    for rec, x in zip(result.trace, result.iterates):
        assert np.sum(np.abs(x)) <= a_bound * (1 + 1e-9)
    # sandwich between the surrogate and the l1 norm
    n = phi.shape[1]
    for rec, x in zip(result.trace, result.iterates):
        l1 = np.sum(np.abs(x))
        assert rec.surrogate - n * rec.eps <= l1 + 1e-9 * rec.surrogate
        assert l1 <= rec.surrogate * (1 + 1e-12)


def test_rate_diagnostics_geometric():
    ref = np.zeros(4)
    iterates = [np.array([2.0**-n, 0.0, 0.0, 0.0]) for n in range(1, 12)]
    trace = [IterationRecord(n=i + 1, surrogate=1.0, eps=0.1, step_l1=0.0) for i in range(11)]
    result = RecoveryResult(
        x_final=iterates[-1],
        termination="MaxIters",
        trace=trace,
        a_bound=1.0,
        config=IrlsConfig(K=1, warmstart_iters=0),
        iterates=iterates,
        x_ref=ref,
    )
    diags = rate_diagnostics(result)
    assert len(diags) == 10
    for _, lin, sup in diags:
        assert lin == pytest.approx(0.5, rel=1e-12)


def test_rate_diagnostics_superlinear_exponent():
    # errors following E_{n+1} = E_n^(2 - tau) exactly give a constant
    # superlinear ratio of one while the linear ratio collapses
    tau = 0.5
    a = [0.5]
    for _ in range(6):
        a.append(a[-1] ** (2.0 - tau))
    iterates = [np.array([v ** (1.0 / tau)]) for v in a]  # so sum|x|^tau = v
    trace = [IterationRecord(n=i + 1, surrogate=1.0, eps=0.1, step_l1=0.0) for i in range(7)]
    result = RecoveryResult(
        x_final=iterates[-1],
        termination="MaxIters",
        trace=trace,
        a_bound=1.0,
        config=IrlsConfig(K=1, tau=tau, warmstart_iters=0),
        iterates=iterates,
        x_ref=np.zeros(1),
    )
    diags = rate_diagnostics(result)
    lins = [lin for _, lin, _ in diags]
    for _, _, sup in diags:
        assert sup == pytest.approx(1.0, rel=1e-9)
    assert all(b < a for a, b in zip(lins, lins[1:]))


def test_rate_diagnostics_omits_tiny_errors():
    ref = np.ones(3)
    iterates = [np.ones(3) + 1e-22 * (n + 1) for n in range(3)]
    trace = [IterationRecord(n=i + 1, surrogate=1.0, eps=0.1, step_l1=0.0) for i in range(3)]
    result = RecoveryResult(
        x_final=iterates[-1],
        termination="MaxIters",
        trace=trace,
        a_bound=1.0,
        config=IrlsConfig(K=1, warmstart_iters=0),
        iterates=iterates,
        x_ref=ref,
    )
    assert rate_diagnostics(result) == []


def test_rate_diagnostics_requires_reference():
    phi = SensingMatrix([[1.0, 1.0]])
    result = irls_run(phi, np.array([2.0]), IrlsConfig(K=1))
    with pytest.raises(MissingReferenceError):
        rate_diagnostics(result)


def test_rate_diagnostics_agree_with_trace_reference_errors():
    # at tau = 1 each linear ratio is the quotient of the trace's own reference errors
    rng = np.random.default_rng(24)
    phi, x_star, y = _random_instance(rng, 50, 250, 8)
    run = irls_run(phi, y, IrlsConfig(), x_ref=x_star)
    np.testing.assert_array_equal(run.x_ref, x_star)
    errors = {rec.n: rec.ref_error_l1 for rec in run.trace}
    diags = rate_diagnostics(run)
    assert len(diags) >= 10
    for n, lin, _ in diags:
        assert lin == errors[n + 1] / errors[n]


@pytest.mark.parametrize(
    "x_ref, match",
    [
        (np.array([0.0]), r"shape \(12,\)"),
        (np.full(12, np.nan), "finite"),
        (np.zeros((12, 1)), "shape"),
    ],
)
def test_irls_run_rejects_bad_reference(x_ref, match):
    rng = np.random.default_rng(16)
    phi, x_star, y = _random_instance(rng, 6, 12, 2)
    with pytest.raises(ValueError, match=match):
        irls_run(phi, y, IrlsConfig(K=2), x_ref=x_ref)


def test_theoretical_contraction_factor_linear():
    mu = theoretical_contraction_factor(0.1, 0.5, 10, 8)
    assert mu == pytest.approx(0.1 * 1.1 / 0.5 * (4.0 / 3.0), rel=1e-12)
    assert mu == pytest.approx(0.29333, abs=5e-6)
    # vanishes with gamma
    for g in (1e-2, 1e-4, 1e-6):
        assert theoretical_contraction_factor(g, 0.5, 10, 8) < 3 * g


def test_theoretical_contraction_factor_tau():
    import math

    gamma, rho, K, k, tau, n, r_k = 0.05, 0.5, 10, 8, 0.5, 12, 1.0
    mu = theoretical_contraction_factor(gamma, rho, K, k, tau=tau, n_cols=n, r_k=r_k)
    # independent re-evaluation through logs
    log_a = -((1 - tau) * math.log(r_k) + (2 - tau) * math.log(1 - rho))
    log_mu = (
        (1 - tau) * math.log(2)
        + math.log(gamma)
        + math.log1p(gamma)
        + tau * log_a
        + math.log1p(((n ** (1 - tau)) / (K + 1 - k)) ** (2 - tau))
    )
    assert mu == pytest.approx(math.exp(log_mu), rel=1e-12)
    with pytest.raises(ValueError):
        theoretical_contraction_factor(0.1, 0.5, 10, 8, tau=0.5)


def test_result_json_roundtrip(tmp_path):
    rng = np.random.default_rng(14)
    phi, x_star, y = _random_instance(rng, 6, 14, 2)
    result = irls_run(phi, y, IrlsConfig(K=2), x_ref=x_star)
    doc = result_to_dict(result)
    jsonschema.validate(doc, result_schema())
    path = tmp_path / "result.json"
    save_result(result, path)
    loaded = load_result(path)
    assert loaded.termination == result.termination
    assert np.allclose(loaded.x_final, result.x_final)
    assert len(loaded.trace) == len(result.trace)
    assert loaded.trace[-1].eps == result.trace[-1].eps
    assert json.loads(path.read_text())["schema_version"] == 1


def test_result_config_is_resolved_and_round_trips(tmp_path):
    rng = np.random.default_rng(15)
    phi, x_star, y = _random_instance(rng, 12, 40, 2)
    result = irls_run(phi, y, IrlsConfig(tau=0.6))
    assert result.config.K == default_sparsity_order(12, 40)
    assert result.config.warmstart_iters == 10
    path = tmp_path / "result.json"
    save_result(result, path)
    assert load_result(path).config == result.config


#: the name by which load_result's errors call each record of a result document
_RECORD_NAMES = {"doc": "result", "config": "config", "trace": "trace row"}


def _doc_with(block: str, change):
    """The result document of a small run with ``block`` (``doc``, ``config`` or
    the first trace row) replaced by ``change(block)``."""
    rng = np.random.default_rng(14)
    phi, x_star, y = _random_instance(rng, 6, 14, 2)
    doc = result_to_dict(irls_run(phi, y, IrlsConfig(K=2)))
    if block == "doc":
        return change(doc)
    if block == "config":
        doc["config"] = change(doc["config"])
    else:
        doc["trace"][0] = change(doc["trace"][0])
    return doc


def _load_rejected(tmp_path, doc, error, match):
    """``load_result`` of ``doc`` raises ``error`` matching ``match``, and the
    shipped schema rejects the document too."""
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, result_schema())
    path = tmp_path / "result.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(error, match=match):
        load_result(path)


def _toggle(record: dict, key: str) -> dict:
    """``record`` without ``key`` if it has one, else with ``key`` set to 1."""
    if key in record:
        del record[key]
    else:
        record[key] = 1
    return record


@pytest.mark.parametrize(
    "block, key, error",
    [
        ("config", "K", KeyError),
        ("trace", "ref_error_l1", KeyError),
        ("config", "extra", ValueError),
        ("trace", "extra", ValueError),
        ("doc", "extra", ValueError),
        # the record is replaced by a JSON value of this type, which is no object
        ("doc", list, ValueError),
        ("config", list, ValueError),
        ("trace", str, ValueError),
    ],
)
def test_load_result_rejects_missing_and_unknown_keys(tmp_path, block, key, error):
    if isinstance(key, type):
        _load_rejected(tmp_path, _doc_with(block, key), error, _RECORD_NAMES[block])
    else:
        _load_rejected(tmp_path, _doc_with(block, lambda record: _toggle(record, key)), error, key)


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("config", "eps_floor", True),
        ("config", "max_iters", 2000.5),
        ("trace", "n", 1.5),
        ("trace", "eps", "x"),
        ("doc", "termination", "Bogus"),
        ("doc", "a_bound", "a"),
        ("doc", "x_final", [True, 1.5]),
        ("doc", "x_final", [0.5, "1.5"]),
        ("doc", "x_final", 1.5),
        ("doc", "schema_version", 2),
        # a saved config is resolved, and trace rows meet the schema's minimums
        ("config", "K", None),
        ("config", "warmstart_iters", None),
        ("trace", "n", 0),
        ("trace", "eps", -1e-3),
        ("trace", "step_l1", -1.0),
        ("trace", "ref_error_l1", -1.0),
    ],
)
def test_load_result_rejects_mistyped_values(tmp_path, block, key, value):
    _load_rejected(tmp_path, _doc_with(block, lambda record: {**record, key: value}), ValueError, key)


_IRLS_FIELDS = [f.name for f in dataclasses.fields(IrlsConfig)]
_SETTING_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 11),
    st.integers(-3, 11).map(np.int64),
    st.floats(-2.0, 30.0),
    st.floats(-2.0, 30.0).map(np.float64),
    st.just(math.nan),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
)


@pytest.fixture(scope="module")
def roundtrip_instance():
    return _random_instance(np.random.default_rng(16), 6, 12, 2)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_IRLS_FIELDS), _SETTING_VALUES)
def test_irls_config_types_checked_or_round_trip(roundtrip_instance, tmp_path_factory, field, value):
    """A solver setting is rejected when built, naming its field, or runs and reads back equal."""
    try:
        cfg = IrlsConfig(**{"max_iters": 5, field: value})
    except ValueError as exc:
        assert re.search(rf"\b{field}\b", str(exc)), str(exc)
        return
    phi, _, y = roundtrip_instance
    run = irls_run(phi, y, cfg)
    path = tmp_path_factory.getbasetemp() / "roundtrip.json"
    save_result(run, path)
    assert load_result(path).config == run.config
    jsonschema.validate(result_to_dict(run), result_schema())


#: JSON values a mutation sets; integral floats and infinities have their own strategies, so each is drawn often
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 2**70),
    st.integers(-3, 3).map(float),
    st.floats(allow_nan=False),
    st.sampled_from([math.inf, -math.inf]),
    st.text(max_size=4),
)
_JSON_VALUES = st.one_of(
    _JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=3), st.dictionaries(st.text(max_size=3), _JSON_SCALARS, max_size=2)
)


@pytest.fixture(scope="module")
def saved_doc():
    return _doc_with("doc", lambda doc: doc)


def _is_integer_field(spec: dict) -> bool:
    return spec.get("type") == "integer" or type(spec.get("const")) is int


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(sorted(_RECORD_NAMES)), st.sampled_from(["delete", "unknown", "set"]), st.data())
def test_load_result_accepts_what_the_schema_accepts(saved_doc, tmp_path_factory, block, mutation, data):
    """A single-key mutation of a saved document loads exactly when ``jsonschema`` accepts it,
    but for an integral float in an integer field, which only ``load_result`` rejects."""
    doc = copy.deepcopy(saved_doc)
    record = {"doc": doc, "config": doc["config"], "trace": doc["trace"][0]}[block]
    known = data.draw(st.sampled_from(sorted(record)))
    value = None
    if mutation == "delete":
        del record[known]
    elif mutation == "unknown":
        record[data.draw(st.text(max_size=4).filter(lambda k: k not in record))] = data.draw(_JSON_VALUES)
    else:
        record[known] = value = data.draw(_JSON_VALUES)
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    doc = json.loads(path.read_text())  # the document as the loader reads it
    schema = result_schema()
    spec = {"doc": schema, "config": schema["properties"]["config"], "trace": schema["properties"]["trace"]["items"]}
    integral_in_integer = isinstance(value, float) and value.is_integer() and _is_integer_field(
        spec[block]["properties"][known]
    )
    try:
        load_result(path)
        loads = True
    except (KeyError, ValueError):
        loads = False
    assert loads == (jsonschema.Draft202012Validator(schema).is_valid(doc) and not integral_in_integer)


def test_result_schema_hands_out_copies(tmp_path):
    """Changing the dict ``result_schema()`` returns changes nothing ``load_result`` or ``IrlsConfig`` accept."""
    schema = result_schema()
    del schema["required"]
    del schema["properties"]["config"]["required"]
    schema["properties"]["config"]["properties"]["tau"]["maximum"] = 2
    schema["properties"]["termination"]["enum"].append("Bogus")
    with pytest.raises(ValueError, match="tau"):
        IrlsConfig(tau=1.5)
    _load_rejected(tmp_path, _doc_with("doc", lambda doc: _toggle(doc, "a_bound")), KeyError, "a_bound")
    _load_rejected(tmp_path, _doc_with("config", lambda cfg: _toggle(cfg, "K")), KeyError, "K")
    _load_rejected(tmp_path, _doc_with("doc", lambda doc: {**doc, "termination": "Bogus"}), ValueError, "termination")
    assert "required" in result_schema()
