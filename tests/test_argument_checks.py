"""Every argument rule of the public API raises its error and names the argument."""

import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from irlskit import (
    ExperimentConfig,
    IrlsConfig,
    SensingMatrix,
    default_sparsity_order,
    epsilon_update,
    gen_gaussian_matrix,
    gen_sparse_vector,
    irls_run,
    l1_oracle,
    nsp_constant,
    optimal_weights,
    rearrangement,
    rip_constant,
    rip_to_nsp_bound,
    sigma_k,
    smoothed_objective,
    sparse_oracle,
    surrogate_value,
    theoretical_contraction_factor,
    weighted_ls_solve,
)
from irlskit.experiments import derive_seed, run_phase_transition
from irlskit.linalg import write_matrix, write_vector
from irlskit.plotting import emit_plot

PHI = SensingMatrix([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
NAN4 = [np.nan, 1.0, 0.0, 2.0]
#: arrays that hold no real numbers, each of PHI's row count: complex, bool, text
NOT_REAL = {"complex": np.ones(2) + 1j, "bool": np.ones(2, dtype=bool), "text": ["1.0", "2.0"]}
#: scalars that are no real numbers; the bool of each case below lies in its interval, as 0 or 1
NOT_REAL_SCALARS = (1 + 0j, "0.5", None)
SCALARS = [  # (id, call of the scalar, its name, the values that are no real numbers)
    ("nsp_constant-tau", lambda v: nsp_constant(PHI, 1, tau=v), "tau", (True, *NOT_REAL_SCALARS)),
    ("sigma_k-tau", lambda v: sigma_k([1.0, 2.0], 1, tau=v), "tau", (True, *NOT_REAL_SCALARS)),
    ("surrogate_value-eps", lambda v: surrogate_value([1.0], [1.0], v), "eps", (True, *NOT_REAL_SCALARS)),
    ("smoothed_objective-eps", lambda v: smoothed_objective([1.0], v), "eps", (True, *NOT_REAL_SCALARS)),
    ("optimal_weights-eps", lambda v: optimal_weights([1.0], v), "eps", (True, *NOT_REAL_SCALARS)),
    ("epsilon_update-eps_prev", lambda v: epsilon_update(v, [1.0, 2.0, 3.0], 1), "eps_prev", (True, *NOT_REAL_SCALARS)),
    ("contraction-rho", lambda v: theoretical_contraction_factor(0.1, v, 3, 2), "rho", NOT_REAL_SCALARS),
    ("contraction-gamma", lambda v: theoretical_contraction_factor(v, 0.5, 3, 2), "gamma", NOT_REAL_SCALARS),
    ("contraction-r_k", lambda v: theoretical_contraction_factor(0.1, 0.5, 3, 2, tau=0.5, n_cols=10, r_k=v), "r_k",
     (True, *NOT_REAL_SCALARS)),
    ("rip_to_nsp_bound-delta", lambda v: rip_to_nsp_bound(v, 1, 1), "delta", (False, *NOT_REAL_SCALARS)),
    # None is the default, no gap ratio at all
    ("gen_sparse_vector-gap_ratio", lambda v: gen_sparse_vector(5, 2, 0, gap_ratio=v), "gap_ratio", (True, 1 + 0j, "0.5")),
]


def _config(**kw):
    return ExperimentConfig(**{"m": 10, "N": 20, "k": 2, **kw})


CASES = [
    # tau, one rule behind every entry point that takes it
    pytest.param(lambda: IrlsConfig(tau=1.5), "tau", id="IrlsConfig-tau"),
    pytest.param(lambda: surrogate_value([1.0], [1.0], 0.1, 0.0), "tau", id="surrogate_value-tau"),
    pytest.param(lambda: smoothed_objective([1.0], 0.1, -0.5), "tau", id="smoothed_objective-tau"),
    pytest.param(lambda: optimal_weights([1.0], 0.1, 2.0), "tau", id="optimal_weights-tau"),
    pytest.param(
        lambda: theoretical_contraction_factor(0.1, 0.5, 3, 2, tau=np.nan), "tau", id="contraction-tau"
    ),
    pytest.param(lambda: sigma_k([1.0, 2.0], 1, tau=1.01), "tau", id="sigma_k-tau"),
    pytest.param(lambda: nsp_constant(PHI, 1, tau=0.0), "tau", id="nsp_constant-tau"),
    # solver settings
    pytest.param(lambda: IrlsConfig(warmstart_iters=-1), "warmstart_iters", id="IrlsConfig-warmstart"),
    pytest.param(lambda: IrlsConfig(max_iters=0), "max_iters", id="IrlsConfig-max_iters"),
    pytest.param(lambda: IrlsConfig(eps_floor=0.0), "eps_floor", id="IrlsConfig-eps_floor"),
    pytest.param(lambda: IrlsConfig(step_tol=-1.0), "step_tol", id="IrlsConfig-step_tol"),
    pytest.param(lambda: IrlsConfig(eps_floor=np.nan), "eps_floor", id="IrlsConfig-eps_floor-nan"),
    pytest.param(lambda: IrlsConfig(step_tol=np.nan), "step_tol", id="IrlsConfig-step_tol-nan"),
    pytest.param(lambda: IrlsConfig(K=2.5), "K", id="IrlsConfig-K-float"),
    pytest.param(lambda: IrlsConfig(K=True), "K", id="IrlsConfig-K-bool"),
    pytest.param(lambda: IrlsConfig(K=np.int64(2)), "K", id="IrlsConfig-K-numpy-int"),
    pytest.param(lambda: IrlsConfig(max_iters=2.5), "max_iters", id="IrlsConfig-max_iters-float"),
    pytest.param(lambda: IrlsConfig(K=3).resolve_K(PHI), "K", id="resolve_K-K"),
    pytest.param(lambda: epsilon_update(1.0, [1.0, 2.0], 2), "K", id="epsilon_update-K"),
    pytest.param(lambda: epsilon_update(1.0, [1.0, 2.0, 3.0], True), "K", id="epsilon_update-K-bool"),
    pytest.param(lambda: epsilon_update(1.0, [1.0, 2.0, 3.0], 1.0), "K", id="epsilon_update-K-float"),
    pytest.param(lambda: epsilon_update(-1.0, [1.0, 2.0], 1), "eps_prev", id="epsilon_update-eps_prev"),
    pytest.param(lambda: epsilon_update(np.nan, [1.0, 2.0, 3.0], 1), "eps_prev", id="epsilon_update-eps_prev-nan"),
    pytest.param(lambda: smoothed_objective([1.0], -0.1), "eps", id="smoothed_objective-eps"),
    pytest.param(lambda: smoothed_objective([1.0, 2.0], np.nan), "eps", id="smoothed_objective-eps-nan"),
    pytest.param(lambda: optimal_weights([1.0], 0.0), "eps", id="optimal_weights-eps"),
    pytest.param(lambda: optimal_weights([1.0], np.nan), "eps", id="optimal_weights-eps-nan"),
    pytest.param(lambda: optimal_weights([1.0], np.inf), "eps", id="optimal_weights-eps-inf"),
    pytest.param(lambda: surrogate_value([1.0], [1.0], -1.0), "eps", id="surrogate_value-eps"),
    pytest.param(lambda: theoretical_contraction_factor(0.1, 1.0, 3, 2), "rho", id="contraction-rho"),
    pytest.param(lambda: theoretical_contraction_factor(0.0, 0.5, 3, 2), "gamma", id="contraction-gamma"),
    pytest.param(lambda: theoretical_contraction_factor(0.1, 0.5, 3, 4), "k", id="contraction-k"),
    pytest.param(lambda: theoretical_contraction_factor(0.1, 0.5, 0, -3), "K", id="contraction-K"),
    pytest.param(lambda: theoretical_contraction_factor(0.1, 0.5, 3, -1), "k", id="contraction-k-negative"),
    pytest.param(lambda: theoretical_contraction_factor(0.1, 0.5, True, False), "K", id="contraction-K-bool"),
    pytest.param(lambda: theoretical_contraction_factor(0.1, 0.5, 3.5, 2), "K", id="contraction-K-float"),
    pytest.param(lambda: theoretical_contraction_factor(0.1, 0.5, 3, True), "k", id="contraction-k-bool"),
    pytest.param(lambda: theoretical_contraction_factor(0.1, 0.5, 3, 1.5), "k", id="contraction-k-float"),
    pytest.param(
        lambda: theoretical_contraction_factor(0.1, 0.5, 3, 2, tau=0.5, n_cols=10.5, r_k=1.0), "n_cols",
        id="contraction-n_cols-float",
    ),
    pytest.param(
        lambda: theoretical_contraction_factor(0.1, 0.5, 3, 2, tau=0.5, n_cols=True, r_k=1.0), "n_cols",
        id="contraction-n_cols-bool",
    ),
    pytest.param(
        lambda: theoretical_contraction_factor(0.1, 0.5, 3, 2, tau=0.5, n_cols=-10, r_k=1.0), "n_cols",
        id="contraction-n_cols",
    ),
    pytest.param(
        lambda: theoretical_contraction_factor(0.1, 0.5, 3, 2, tau=0.5, n_cols=10, r_k=np.inf), "r_k",
        id="contraction-r_k-inf",
    ),
    pytest.param(
        lambda: theoretical_contraction_factor(0.1, 0.5, 3, 2, tau=0.5, n_cols=10, r_k=np.nan), "r_k",
        id="contraction-r_k-nan",
    ),
    # arrays
    pytest.param(lambda: surrogate_value([1.0, 2.0, 3.0], [1.0], 0.5), "w", id="surrogate_value-w-length"),
    pytest.param(lambda: surrogate_value(NAN4, np.ones(4), 0.5), "z", id="surrogate_value-z-nan"),
    pytest.param(lambda: surrogate_value([1.0], [0.0], 0.5), "w", id="surrogate_value-w-zero"),
    pytest.param(lambda: weighted_ls_solve(PHI, [1.0, 1.0], [1.0, -1.0, 1.0]), "w", id="weighted_ls_solve-w"),
    pytest.param(lambda: smoothed_objective(NAN4, 0.5), "z", id="smoothed_objective-z-nan"),
    pytest.param(lambda: smoothed_objective(np.ones((2, 2)), 0.5), "z", id="smoothed_objective-z-2d"),
    pytest.param(lambda: optimal_weights(NAN4, 0.5), "x", id="optimal_weights-x-nan"),
    pytest.param(lambda: epsilon_update(0.5, NAN4, 1), "x_next", id="epsilon_update-x_next-nan"),
    pytest.param(lambda: epsilon_update(0.5, np.ones((4, 1)), 1), "x_next", id="epsilon_update-x_next-2d"),
    pytest.param(lambda: rearrangement(NAN4), "z", id="rearrangement-z-nan"),
    pytest.param(lambda: sigma_k([np.inf, 1.0], 1), "z", id="sigma_k-z-inf"),
    pytest.param(lambda: irls_run(PHI, [1.0, 1.0, 1.0], IrlsConfig(K=1)), "y", id="irls_run-y-length"),
    pytest.param(lambda: irls_run(PHI, [np.nan, 1.0], IrlsConfig(K=1)), "y", id="irls_run-y-nan"),
    pytest.param(lambda: SensingMatrix([1.0, 2.0]), "entries", id="SensingMatrix-entries-1d"),
    *[pytest.param(lambda a=a: SensingMatrix([a, a[::-1], a]), "entries", id=f"SensingMatrix-entries-{kind}")
      for kind, a in NOT_REAL.items()],
    *[pytest.param(lambda a=a: weighted_ls_solve(PHI, [1.0, 1.0], [*a, a[0]]), "w", id=f"weighted_ls_solve-w-{kind}")
      for kind, a in NOT_REAL.items()],
    *[pytest.param(lambda a=a: irls_run(PHI, a, IrlsConfig(K=1)), "y", id=f"irls_run-y-{kind}")
      for kind, a in NOT_REAL.items()],
    pytest.param(lambda: sigma_k([1.0, 2.0], True), "k", id="sigma_k-k-bool"),
    pytest.param(lambda: sigma_k([1.0, 2.0], 1.5), "k", id="sigma_k-k-float"),
    pytest.param(lambda: default_sparsity_order(True, 5), "m", id="default_sparsity_order-m-bool"),
    pytest.param(lambda: default_sparsity_order(2, 5.0), "N", id="default_sparsity_order-N-float"),
    # verify
    pytest.param(lambda: rip_constant(PHI, 3), "order", id="rip_constant-order"),
    pytest.param(lambda: rip_constant(PHI, True), "order", id="rip_constant-order-bool"),
    pytest.param(lambda: rip_constant(PHI, 1.0), "order", id="rip_constant-order-float"),
    pytest.param(lambda: rip_to_nsp_bound(0.1, 0, 1), "j", id="rip_to_nsp_bound-j"),
    pytest.param(lambda: rip_to_nsp_bound(0.1, True, 1), "j", id="rip_to_nsp_bound-j-bool"),
    pytest.param(lambda: rip_to_nsp_bound(0.1, 1, 2.5), "j_prime", id="rip_to_nsp_bound-j_prime-float"),
    pytest.param(lambda: nsp_constant(PHI, 3), "order", id="nsp_constant-order"),
    pytest.param(lambda: nsp_constant(PHI, True), "order", id="nsp_constant-order-bool"),
    pytest.param(lambda: nsp_constant(PHI, 2.0), "order", id="nsp_constant-order-float"),
    pytest.param(lambda: nsp_constant(PHI, 1, method="montecarlo", samples=True), "samples", id="nsp_constant-samples-bool"),
    pytest.param(lambda: nsp_constant(PHI, 1, method="montecarlo", samples=10.0), "samples", id="nsp_constant-samples-float"),
    pytest.param(lambda: sparse_oracle(PHI, [1.0, 1.0], 4), "k", id="sparse_oracle-k"),
    pytest.param(lambda: sparse_oracle(PHI, [1.0, 1.0], True), "k", id="sparse_oracle-k-bool"),
    pytest.param(lambda: sparse_oracle(PHI, [1.0, 1.0], 1.0), "k", id="sparse_oracle-k-float"),
    pytest.param(lambda: l1_oracle(SensingMatrix(np.ones((1, 2001))), [1.0]), "phi", id="l1_oracle-N-cap"),
    # experiments and plotting
    pytest.param(lambda: gen_gaussian_matrix(5, 5, 0), "m", id="gen_gaussian_matrix-m"),
    pytest.param(lambda: gen_gaussian_matrix(0, 5, 0), "m", id="gen_gaussian_matrix-m-zero"),
    pytest.param(lambda: gen_gaussian_matrix(2.5, 5, 0), "m", id="gen_gaussian_matrix-m-float"),
    pytest.param(lambda: gen_sparse_vector(5, 6, 0), "k", id="gen_sparse_vector-k"),
    pytest.param(lambda: gen_sparse_vector(5, True, 0), "k", id="gen_sparse_vector-k-bool"),
    pytest.param(lambda: gen_sparse_vector(5.0, 2, 0), "n", id="gen_sparse_vector-n-float"),
    pytest.param(lambda: derive_seed(1.5, "x"), "master_seed", id="derive_seed-master_seed-float"),
    pytest.param(lambda: derive_seed(True, "x"), "master_seed", id="derive_seed-master_seed-bool"),
    pytest.param(lambda: ExperimentConfig(m=0, N=5, k=0), "m", id="ExperimentConfig-m-zero"),
    pytest.param(lambda: gen_sparse_vector(5, 2, 0, gap_ratio=np.nan), "gap_ratio", id="gen_sparse_vector-gap_ratio-nan"),
    pytest.param(lambda: gen_sparse_vector(5, 5, 0, gap_ratio=2.0), "gap_ratio", id="gen_sparse_vector-gap_ratio-k=N"),
    pytest.param(lambda: _config(trials=0), "trials", id="ExperimentConfig-trials"),
    pytest.param(lambda: _config(tau_list=[1.0, 1.5]), "tau", id="ExperimentConfig-tau_list"),
    pytest.param(lambda: _config(K_policy=20), "K_policy", id="ExperimentConfig-K_policy"),
    pytest.param(
        lambda: _config(tau_list=[1.0, 0.5], warmstart_iters=-1), "warmstart_iters",
        id="ExperimentConfig-warmstart_iters",
    ),
    pytest.param(lambda: _config(max_iters=0), "max_iters", id="ExperimentConfig-max_iters"),
    pytest.param(lambda: _config(step_tol=0.0), "step_tol", id="ExperimentConfig-step_tol"),
    pytest.param(lambda: _config(success_tol=-1.0), "success_tol", id="ExperimentConfig-success_tol"),
    pytest.param(lambda: _config(success_tol=np.nan), "success_tol", id="ExperimentConfig-success_tol-nan"),
    pytest.param(lambda: _config(gap_ratio=np.nan), "gap_ratio", id="ExperimentConfig-gap_ratio-nan"),
    pytest.param(lambda: _config(tau_list=[]), "tau_list", id="ExperimentConfig-tau_list-empty"),
    pytest.param(lambda: _config(k_list=[]), "k_list", id="ExperimentConfig-k_list-empty"),
    pytest.param(lambda: ExperimentConfig.from_dict([1]), "config", id="from_dict-not-object"),
    pytest.param(lambda: _config(k_list=[11]), "k_list", id="phase-k_list"),
    pytest.param(lambda: _config(k_list=[2, 2]), "k_list", id="ExperimentConfig-k_list-repeated"),
    pytest.param(lambda: _config(tau_list=[1.0, 1.0]), "tau_list", id="ExperimentConfig-tau_list-repeated"),
    pytest.param(lambda: _config(tau_list=[0.6, 0.6000001]), "tau_list", id="ExperimentConfig-tau_list-same-tag"),
    pytest.param(lambda: _config(tau_list=[1.0, 0.9999995]), "tau_list", id="ExperimentConfig-tau_list-same-file"),
    pytest.param(lambda: _config(success_tol=np.inf), "success_tol", id="ExperimentConfig-success_tol-inf"),
    pytest.param(lambda: emit_plot("unused.csv", "bogus", "unused.svg"), "kind", id="emit_plot-kind"),
    # real scalars: the type rule, and a finite gap_ratio
    *[pytest.param(lambda call=call, v=v: call(v), name, id=f"{case}-{type(v).__name__}")
      for case, call, name, values in SCALARS for v in values],
    pytest.param(lambda: gen_sparse_vector(5, 2, 0, gap_ratio=np.inf), "gap_ratio", id="gen_sparse_vector-gap_ratio-inf"),
    pytest.param(lambda: _config(gap_ratio=np.inf), "gap_ratio", id="ExperimentConfig-gap_ratio-inf"),
    *[pytest.param(lambda n=n: run_phase_transition(_config(trials=9), n_workers=n), "n_workers",
                   id=f"run_phase_transition-n_workers-{n}") for n in (2.5, True, 0)],
]


@pytest.mark.parametrize("call, name", CASES)
def test_argument_rule_names_its_argument(call, name):
    with pytest.raises(ValueError) as info:
        call()
    assert re.search(rf"\b{name}\b", str(info.value)), str(info.value)


def test_numpy_integers_are_accepted_as_python_ints():
    i = np.int64
    assert sigma_k([3.0, 1.0, 2.0], i(1)) == sigma_k([3.0, 1.0, 2.0], 1)
    assert epsilon_update(1.0, [3.0, 1.0, 2.0], i(1)) == epsilon_update(1.0, [3.0, 1.0, 2.0], 1)
    assert rip_to_nsp_bound(0.1, i(1), np.uint8(2)) == rip_to_nsp_bound(0.1, 1, 2)
    assert default_sparsity_order(i(5), i(20)) == default_sparsity_order(5, 20)
    assert derive_seed(i(7), "x") == derive_seed(7, "x")
    assert sparse_oracle(PHI, [1.0, 1.0], i(1))[0] == sparse_oracle(PHI, [1.0, 1.0], 1)[0]
    assert np.array_equal(gen_sparse_vector(i(6), i(2), i(3)), gen_sparse_vector(6, 2, 3))
    report = nsp_constant(PHI, i(2), method="montecarlo", samples=i(100))
    assert type(report.order) is int and type(report.samples) is int
    assert json.loads(json.dumps(asdict(report)))["samples"] == 100
    assert type(rip_constant(PHI, i(2)).order) is int


def test_numpy_floats_are_accepted_as_python_floats():
    report = nsp_constant(PHI, 1, tau=np.float32(0.5), method="montecarlo", samples=10)
    assert type(report.tau) is float and type(report.order) is int
    assert json.loads(json.dumps(asdict(report)))["tau"] == 0.5
    x = [3.0, -1.0, 0.5]
    assert optimal_weights(x, np.float64(0.1)).tobytes() == optimal_weights(x, 0.1).tobytes()
    assert epsilon_update(np.float32(0.5), x, 1) == epsilon_update(0.5, x, 1)


#: arrays a writer must refuse before it opens its file: not real numbers, or the wrong rank
WRITES = [
    *[pytest.param(write_matrix, [a, a], "a", id=f"write_matrix-{kind}") for kind, a in NOT_REAL.items()],
    pytest.param(write_matrix, np.ones((2, 2, 2)), "a", id="write_matrix-3d"),
    *[pytest.param(write_vector, a, "v", id=f"write_vector-{kind}") for kind, a in NOT_REAL.items()],
    pytest.param(write_vector, np.ones((2, 2)), "v", id="write_vector-2d"),
]


@pytest.mark.parametrize("write, a, name", WRITES)
def test_writer_rule_names_its_argument_and_writes_nothing(tmp_path, write, a, name):
    path = tmp_path / "out.txt"
    with pytest.raises(ValueError, match=rf"^{name} must "):
        write(path, a)
    assert not path.exists()
