"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py -v` to see the per-criterion lines.
Criteria 4 and 5 run on instances that pass a certified-recovery filter:
exact NSP constant below one at the update order K, with margin
K - 2 gamma/(1 - gamma) > 1.  Random 8-by-12 Gaussian matrices never pass it
(see `test_nsp_gaussian_8x12_orders_three_and_up_uncertifiable` in
`tests/test_verify.py`), so the instances are 11-by-12 matrices with
orthonormal rows and a near-flat one-dimensional kernel, which the filter
certifies at order K = 2 for planted sparsity k = 1.
"""

import math
import time

import numpy as np
import pytest

from irlskit import (
    ExperimentConfig,
    IrlsConfig,
    SensingMatrix,
    gen_gaussian_matrix,
    gen_sparse_vector,
    irls_run,
    l1_oracle,
    null_space_basis,
    nsp_constant,
    rate_diagnostics,
    rip_constant,
    rip_to_nsp_bound,
    run_phase_transition,
    run_trace,
    sigma_k,
    sparse_oracle,
)
from irlskit.solver import optimal_weights
from irlskit.verify import exact_nsp_profile

SEED = 20250809


def _report(index, name, ok, detail=""):
    line = f"ACCEPTANCE {index:2d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line, flush=True)
    assert ok, line


# --- criteria 1-3: the 200-run random suite -----------------------------------


@pytest.fixture(scope="module")
def random_suite():
    """200 random instances across sizes and exponents; per-run checks are
    accumulated immediately so iterate histories never pile up in memory."""
    rng = np.random.default_rng(SEED)
    taus = [1.0, 0.8, 0.5]
    stats = {
        "runs": 0,
        "mono_violations": 0,
        "ortho_violations": 0,
        "bound_violations": 0,
        "regularity_violations": 0,
        "sandwich_violations": 0,
        "tau1_runs": 0,
        "worst_ortho": 0.0,
        "run_seconds": 0.0,
    }
    for i in range(200):
        m = int(rng.integers(4, 51))
        n = int(rng.integers(max(m + 2, 8), 251))
        k = 1 + int(rng.integers(0, max(1, m // 3)))
        tau = taus[i % 3]
        phi = SensingMatrix(rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, n)))
        x_star = np.zeros(n)
        x_star[rng.choice(n, size=k, replace=False)] = rng.normal(size=k)
        y = phi.entries @ x_star
        cfg = IrlsConfig(K=k, tau=tau, warmstart_iters=0, max_iters=250)
        t0 = time.perf_counter()
        result = irls_run(phi, y, cfg, keep_iterates=True)
        values = [rec.surrogate for rec in result.trace]
        stats["mono_violations"] += sum(
            1 for a, b in zip(values, values[1:]) if b > a * (1.0 + 1e-10)
        )
        stats["run_seconds"] += time.perf_counter() - t0
        stats["runs"] += 1

        basis = null_space_basis(phi)
        iterates = result.iterates
        eps_list = [rec.eps for rec in result.trace]
        w_mins = []
        for idx, x in enumerate(iterates):
            if idx == 0:
                w = np.ones(n)
            else:
                w = optimal_weights(iterates[idx - 1], eps_list[idx - 1], tau)
                w_mins.append(float(np.min(optimal_weights(x, eps_list[idx], tau))))
            xw = math.sqrt(float(np.sum(w * x * x)))
            ew = np.sqrt(np.sum(w[:, None] * basis * basis, axis=0))
            inner = np.abs(basis.T @ (w * x))
            rel = float(np.max(inner / np.maximum(xw * ew, 1e-300)))
            stats["worst_ortho"] = max(stats["worst_ortho"], rel)
            if np.any(inner > 1e-8 * xw * ew):
                stats["ortho_violations"] += 1

        if tau == 1.0:
            stats["tau1_runs"] += 1
            a_bound = result.a_bound
            slack = 1.0 + 1e-9
            for idx, (x, rec) in enumerate(zip(iterates, result.trace)):
                l1 = float(np.sum(np.abs(x)))
                if l1 > a_bound * slack:
                    stats["bound_violations"] += 1
                if not (rec.surrogate - n * rec.eps <= l1 * slack + 1e-12):
                    stats["sandwich_violations"] += 1
                if not (l1 <= rec.surrogate * slack):
                    stats["sandwich_violations"] += 1
            if any(w < (1.0 / a_bound) / slack for w in w_mins):
                stats["bound_violations"] += 1
            sq_steps = sum(
                float(np.sum((b - a) ** 2)) for a, b in zip(iterates[1:], iterates[2:])
            )
            if sq_steps > 2.0 * a_bound**2 * slack:
                stats["regularity_violations"] += 1
    return stats


def test_acceptance_1_surrogate_monotonicity(random_suite):
    s = random_suite
    ok = s["runs"] == 200 and s["mono_violations"] == 0 and s["run_seconds"] < 60.0
    _report(
        1,
        "surrogate monotonicity",
        ok,
        f"{s['runs']} runs, {s['mono_violations']} violations, "
        f"{s['run_seconds']:.1f}s solver time",
    )


def test_acceptance_2_orthogonality(random_suite):
    s = random_suite
    _report(
        2,
        "weighted-solve orthogonality",
        s["ortho_violations"] == 0,
        f"worst relative inner product {s['worst_ortho']:.2e} (tolerance 1e-8)",
    )


def test_acceptance_3_bounds_and_regularity(random_suite):
    s = random_suite
    ok = (
        s["tau1_runs"] > 0
        and s["bound_violations"] == 0
        and s["regularity_violations"] == 0
        and s["sandwich_violations"] == 0
    )
    _report(
        3,
        "boundedness and regularity",
        ok,
        f"{s['tau1_runs']} tau=1 runs; violations: bounds {s['bound_violations']}, "
        f"regularity {s['regularity_violations']}, sandwich {s['sandwich_violations']}",
    )


# --- criteria 4-5: certified tiny instances ------------------------------------


@pytest.fixture(scope="module")
def certified_tiny_scan():
    """Scan random 11x12 instances for the certified-recovery filter:
    exact gamma_K < 1 at the update order K with margin k < K - 2g/(1-g)
    for some planted sparsity k >= 1.  Returns the qualifying instances
    plus scan statistics.

    Each instance has the kernel vector eta = s + 0.1 g (s Rademacher, g
    standard normal), whose near-flat magnitudes keep gamma_2 below the
    1/3 the filter needs at K = 2; the filter stops at the first qualifying
    order, so every instance is certified at K = 2 with k = 1.  Phi = Q U^T,
    with U an orthonormal basis of the complement of eta and Q Haar-random
    orthogonal, so the rows are orthonormal and the weighted solves stay
    far from the condition gate.  The instance set depends on the seed
    alone."""
    rng = np.random.default_rng(SEED + 1)
    qualifying = []
    attempts = 0
    min_gammas = np.full(7, np.inf)
    while attempts < 4000 and len(qualifying) < 50:
        attempts += 1
        eta = rng.choice([-1.0, 1.0], size=12) + 0.1 * rng.normal(size=12)
        u = null_space_basis(SensingMatrix(eta[None, :]))
        q, r = np.linalg.qr(rng.normal(size=(11, 11)))
        phi = SensingMatrix((q * np.sign(np.diag(r))) @ u.T)
        profile = exact_nsp_profile(phi)
        min_gammas = np.minimum(min_gammas, profile[:7])
        for order in range(2, 8):
            gamma = float(profile[order - 1])
            if gamma >= 1.0:
                continue
            margin = order - 2.0 * gamma / (1.0 - gamma)
            if margin > 1.0:
                k = min(int(math.ceil(margin - 1e-9)) - 1, order)
                qualifying.append((phi, order, gamma, max(1, k)))
                break
    return {"qualifying": qualifying, "attempts": attempts, "min_gammas": min_gammas}


def _scan_detail(scan):
    g = scan["min_gammas"]
    # margin K - 2g/(1-g) > 1 holds exactly when g < (K-1)/(K+1)
    seen = ", ".join(
        f"gamma_{order}={g[order - 1]:.3f} (need < {order - 1}/{order + 1})"
        for order in (2, 3, 4)
    )
    return (
        f"{len(scan['qualifying'])}/{scan['attempts']} instances passed the filter; "
        f"smallest exact constants seen: {seen}"
    )


def test_acceptance_4_oracle_equivalence(certified_tiny_scan):
    scan = certified_tiny_scan
    if len(scan["qualifying"]) < 50:
        _report(4, "oracle equivalence on certified instances", False, _scan_detail(scan))
    rng = np.random.default_rng(SEED + 2)
    failures = 0
    for phi, order, gamma, k in scan["qualifying"][:50]:
        x_star = np.zeros(12)
        x_star[rng.choice(12, size=k, replace=False)] = rng.normal(size=k)
        y = phi.entries @ x_star
        x_irls = irls_run(phi, y, IrlsConfig(K=order)).x_final
        x_lp = l1_oracle(phi, y)
        x_sp = sparse_oracle(phi, y, k)[1]
        for candidate in (x_irls, x_lp, x_sp):
            if np.sum(np.abs(candidate - x_star)) > 1e-6:
                failures += 1
    _report(4, "oracle equivalence on certified instances", failures == 0,
            f"{failures} disagreements over {len(scan['qualifying'][:50])} instances")


def test_acceptance_5_error_bound(certified_tiny_scan):
    scan = certified_tiny_scan
    if len(scan["qualifying"]) < 50:
        _report(5, "sparse-approximation error bound", False, _scan_detail(scan))
    rng = np.random.default_rng(SEED + 3)
    violations = 0
    for phi, order, gamma, k in scan["qualifying"][:50]:
        x_star = np.zeros(12)
        x_star[rng.choice(12, size=k, replace=False)] = rng.normal(size=k)
        y = phi.entries @ x_star
        x_bar = irls_run(phi, y, IrlsConfig(K=order)).x_final
        basis = null_space_basis(phi)
        c = 2.0 * (1.0 + gamma) / (1.0 - gamma)
        for _ in range(10):
            z = x_star + basis @ rng.normal(size=basis.shape[1])
            if np.sum(np.abs(z - x_bar)) > c * sigma_k(z, k) * (1.0 + 1e-9):
                violations += 1
    _report(5, "sparse-approximation error bound", violations == 0,
            f"{violations} violations")


# --- criteria 6-7: large-instance convergence rates --------------------------------


@pytest.fixture(scope="module")
def large_instance_runs():
    phi = gen_gaussian_matrix(250, 1500, seed=SEED + 4)
    x_star = gen_sparse_vector(1500, 45, seed=SEED + 5)
    y = phi.entries @ x_star
    run_l1 = irls_run(
        phi, y, IrlsConfig(K=45, tau=1.0, eps_floor=1e-13, max_iters=2000), x_ref=x_star
    )
    run_hybrid = irls_run(
        phi,
        y,
        IrlsConfig(K=45, tau=0.6, warmstart_iters=10, eps_floor=1e-13, max_iters=2000),
        x_ref=x_star,
    )
    return phi, x_star, run_l1, run_hybrid


def _first_below(result, tol):
    for rec in result.trace:
        if rec.ref_error_l1 is not None and rec.ref_error_l1 <= tol:
            return rec.n
    return None


def test_acceptance_6_linear_rate(large_instance_runs):
    _, x_star, run_l1, _ = large_instance_runs
    hit = _first_below(run_l1, 1e-6)
    diags = rate_diagnostics(run_l1, x_star, tau=1.0)
    last20 = [lin for _, lin, _ in diags[-20:]]
    cv = float(np.std(last20) / np.mean(last20)) if len(last20) == 20 else np.inf
    ok = hit is not None and cv <= 0.5
    _report(
        6,
        "linear rate at 250x1500",
        ok,
        f"error<=1e-6 at n={hit}, last-20 ratio CV={cv:.3f} "
        f"(mean ratio {np.mean(last20):.3f})",
    )


def test_acceptance_7_superlinear_rate(large_instance_runs):
    _, x_star, run_l1, run_hybrid = large_instance_runs
    hit_l1 = _first_below(run_l1, 1e-6)
    hit_h = _first_below(run_hybrid, 1e-6)
    post_warm = None if hit_h is None else hit_h - 10
    diags = rate_diagnostics(run_hybrid, x_star, tau=0.6)
    last5 = [lin for _, lin, _ in diags[-5:]]
    decreasing = len(last5) == 5 and all(b < a for a, b in zip(last5, last5[1:]))
    ok = (
        hit_l1 is not None
        and post_warm is not None
        and post_warm < hit_l1
        and decreasing
    )
    _report(
        7,
        "superlinear rate with warm start",
        ok,
        f"tau=0.6 reached 1e-6 in {post_warm} post-warm-start iterations "
        f"vs {hit_l1} for tau=1; final ratios {np.round(last5, 4).tolist()}",
    )


# --- criterion 8: phase transition ----------------------------------------------


def test_acceptance_8_phase_transition():
    cfg = ExperimentConfig(
        m=50,
        N=250,
        k=25,
        k_list=[5, 10, 15, 20, 25],
        tau_list=[1.0, 0.5],
        trials=200,
        master_seed=SEED + 6,
        success_tol=1e-4,
        K_policy="EqualsPlantedK",
        warmstart_iters=40,
        max_iters=500,
    )
    table = run_phase_transition(cfg)
    r1 = {k: table.rows[(k, "tau1")].success_rate for k in cfg.k_list}
    rh = {k: table.rows[(k, "hybrid-tau0.5")].success_rate for k in cfg.k_list}
    dominance = True
    for k in cfg.k_list:
        se = math.sqrt(
            (r1[k] * (1 - r1[k]) + rh[k] * (1 - rh[k])) / cfg.trials
        )
        if rh[k] < r1[k] - 2.0 * se:
            dominance = False
    ok = r1[5] >= 0.95 and r1[25] <= 0.05 and dominance
    _report(
        8,
        "phase transition at 50x250",
        ok,
        f"tau1: {[round(r1[k], 3) for k in cfg.k_list]}, "
        f"hybrid: {[round(rh[k], 3) for k in cfg.k_list]}",
    )


# --- criterion 9: noisy-sparse plateau -------------------------------------------


def test_acceptance_9_noisy_sparse_plateau():
    cfg = ExperimentConfig(
        m=50,
        N=250,
        k=5,
        gap_ratio=100.0,
        master_seed=SEED + 7,
        K_policy="EqualsPlantedK",
        max_iters=600,
    )
    study = run_trace(cfg, tau=1.0)
    z = study.planted
    tail = sigma_k(z, 5)
    errors = [rec.ref_error_l1 for rec in study.result.trace]
    plateau = errors[-1]
    plateau_ok = plateau <= 30.0 * tail
    ratios = [
        (errors[i + 1] / errors[i], errors[i] > 10.0 * plateau)
        for i in range(len(errors) - 1)
    ]
    best_run = run = 0
    for ratio, pre_plateau in ratios:
        run = run + 1 if (pre_plateau and ratio <= 0.9) else 0
        best_run = max(best_run, run)
    ok = plateau_ok and best_run >= 5
    _report(
        9,
        "noisy-sparse plateau",
        ok,
        f"plateau {plateau:.3e} vs 30*sigma_k {30 * tail:.3e}; "
        f"{best_run} consecutive pre-plateau contractions <= 0.9",
    )


# --- criterion 10: checker cross-validation --------------------------------------


def test_acceptance_10_checker_cross_validation():
    rng = np.random.default_rng(SEED + 8)
    mc_violations = 0
    rip_violations = 0
    applicable = 0
    for i in range(50):
        phi = SensingMatrix(rng.normal(0.0, 1.0 / np.sqrt(8), size=(8, 12)))
        profile = exact_nsp_profile(phi)
        for order in (1, 2):
            mc = nsp_constant(phi, order, method="montecarlo", samples=100_000, seed=i)
            if mc.constant > profile[order - 1] * (1.0 + 1e-12):
                mc_violations += 1
        for j, jp in ((1, 1), (1, 2)):
            delta = rip_constant(phi, j + jp).constant
            if delta < 1.0:
                applicable += 1
                if rip_to_nsp_bound(delta, j, jp) < profile[j - 1] - 1e-12:
                    rip_violations += 1
    ok = mc_violations == 0 and rip_violations == 0 and applicable >= 10
    _report(
        10,
        "checker cross-validation",
        ok,
        f"MC violations {mc_violations}, RIP-bound violations {rip_violations} "
        f"({applicable} applicable splits)",
    )
