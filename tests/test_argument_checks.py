"""Every argument rule of the public API raises its error and names the argument."""

import re

import numpy as np
import pytest

from irlskit import (
    ExperimentConfig,
    IrlsConfig,
    SensingMatrix,
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
from irlskit.plotting import emit_plot

PHI = SensingMatrix([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
NAN4 = [np.nan, 1.0, 0.0, 2.0]


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
    pytest.param(lambda: epsilon_update(-1.0, [1.0, 2.0], 1), "eps_prev", id="epsilon_update-eps_prev"),
    pytest.param(lambda: epsilon_update(np.nan, [1.0, 2.0, 3.0], 1), "eps_prev", id="epsilon_update-eps_prev-nan"),
    pytest.param(lambda: smoothed_objective([1.0], -0.1), "eps", id="smoothed_objective-eps"),
    pytest.param(lambda: smoothed_objective([1.0, 2.0], np.nan), "eps", id="smoothed_objective-eps-nan"),
    pytest.param(lambda: optimal_weights([1.0], 0.0), "eps", id="optimal_weights-eps"),
    pytest.param(lambda: optimal_weights([1.0], np.nan), "eps", id="optimal_weights-eps-nan"),
    pytest.param(lambda: surrogate_value([1.0], [1.0], -1.0), "eps", id="surrogate_value-eps"),
    pytest.param(lambda: theoretical_contraction_factor(0.1, 1.0, 3, 2), "rho", id="contraction-rho"),
    pytest.param(lambda: theoretical_contraction_factor(0.0, 0.5, 3, 2), "gamma", id="contraction-gamma"),
    pytest.param(lambda: theoretical_contraction_factor(0.1, 0.5, 3, 4), "k", id="contraction-k"),
    pytest.param(lambda: theoretical_contraction_factor(0.1, 0.5, 0, -3), "K", id="contraction-K"),
    pytest.param(lambda: theoretical_contraction_factor(0.1, 0.5, 3, -1), "k", id="contraction-k-negative"),
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
    # verify
    pytest.param(lambda: rip_constant(PHI, 3), "order", id="rip_constant-order"),
    pytest.param(lambda: rip_to_nsp_bound(0.1, 0, 1), "j", id="rip_to_nsp_bound-j"),
    pytest.param(lambda: nsp_constant(PHI, 3), "order", id="nsp_constant-order"),
    pytest.param(lambda: sparse_oracle(PHI, [1.0, 1.0], 4), "k", id="sparse_oracle-k"),
    pytest.param(lambda: l1_oracle(SensingMatrix(np.ones((1, 2001))), [1.0]), "phi", id="l1_oracle-N-cap"),
    # experiments and plotting
    pytest.param(lambda: gen_gaussian_matrix(5, 5, 0), "m", id="gen_gaussian_matrix-m"),
    pytest.param(lambda: gen_sparse_vector(5, 6, 0), "k", id="gen_sparse_vector-k"),
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
]


@pytest.mark.parametrize("call, name", CASES)
def test_argument_rule_names_its_argument(call, name):
    with pytest.raises(ValueError) as info:
        call()
    assert re.search(rf"\b{name}\b", str(info.value)), str(info.value)
