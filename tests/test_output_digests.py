"""Numeric identity of written outputs, pinned by SHA-256 per numpy/scipy build.

Each group runs in a child interpreter at one BLAS thread.  ``trace``:
``irlskit trace`` on a fixed 50x250 config, one digest per CSV it writes,
and on the same config with an approximately sparse planted vector
(``gap_ratio``), its files under ``gap_ratio/``.
``verify``: the 17g text of RIP constants, sparse-oracle fits and exact NSP
profiles on seeded Gaussian matrices, on both sides of k = N/2; each
sparse-oracle right-hand side lies in the span of fewer than k columns, so
many supports tie and the lex-first one must win.  ``montecarlo``: the 17g
Monte Carlo NSP lower bounds at orders 1-3, tau 1 and 0.6, and sample
counts that are multiples of no block size.  ``recover``: the result JSON
of ``irlskit recover`` on the 250x1500 acceptance 6/7 instance, at the
heuristic K and at K = 45, tau 0.6.  ``phase``: ``irlskit phase`` on a
small table of more than 8 trials, so that 2 workers take the process
pool, once on one shared matrix (``phase.csv``) and once with a matrix per
trial (``phase_per_trial_matrix.csv``); the serial and the pooled table
must match one digest.
Exact NSP profiles must also give equal bytes at 1 and 2 BLAS threads.
Every digest must equal the one recorded in
``tests/data/output_digests.json`` for the running build.  The build key
names the numpy and scipy versions and the BLAS each was built against.
On a build with no recorded digests the test fails and prints the key and
the digests it computed, ready to be recorded once checked.  A change that
alters output bits on purpose updates the table with it.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

import irlskit

DIGESTS = Path(__file__).parent / "data" / "output_digests.json"
TRACE_CONFIG = {"m": 50, "N": 250, "k": 8, "tau_list": [1.0, 0.6], "master_seed": 7}
GAP_TRACE_CONFIG = {**TRACE_CONFIG, "gap_ratio": 100.0, "max_iters": 600}
VERIFY_SCRIPT = """
from irlskit.experiments import gen_gaussian_matrix, gen_sparse_vector
from irlskit.verify import exact_nsp_profile, rip_constant, sparse_oracle

def text(values):
    return " ".join(f"{float(v):.17g}" for v in values)

for (m, n, seed), orders in (((16, 30, 1), (1, 2, 3)), ((10, 12, 2), (8,))):
    phi = gen_gaussian_matrix(m, n, seed)
    for order in orders:
        print(f"rip {m}x{n} order {order}: {text([rip_constant(phi, order).constant])}")
for m, n, k, planted, seed in ((16, 32, 3, 2, 3), (9, 12, 7, 5, 4)):
    phi = gen_gaussian_matrix(m, n, seed)
    y = phi.entries @ gen_sparse_vector(n, planted, seed)
    support, x, residual = sparse_oracle(phi, y, k)
    print(f"sparse {m}x{n} k {k}: {support} {text(x)} {text([residual])}")
for m, n, seed in ((8, 12, 5), (1, 5, 6)):
    print(f"nsp {m}x{n}: {text(exact_nsp_profile(gen_gaussian_matrix(m, n, seed)))}")
"""
EXACT_NSP_SCRIPT = """
from irlskit.experiments import gen_gaussian_matrix
from irlskit.verify import exact_nsp_profile

for m, n in ((8, 12), (11, 12), (12, 16)):
    for seed in range(5):
        print(exact_nsp_profile(gen_gaussian_matrix(m, n, seed)).tobytes().hex())
"""
MONTECARLO_SCRIPT = """
from irlskit.experiments import gen_gaussian_matrix
from irlskit.verify import nsp_constant

for m, n, seed in ((8, 12, 7), (30, 60, 8), (10, 20, 5)):
    phi = gen_gaussian_matrix(m, n, seed)
    for order in (1, 2, 3):
        for tau in (1.0, 0.6):
            for samples in (4097, 5000):
                gamma = nsp_constant(phi, order, tau, "montecarlo", samples, seed=order).constant
                print(f"mc {m}x{n} order {order} tau {tau:g} samples {samples}: {gamma:.17g}")
"""
RECOVER_SCRIPT = """
import sys
from irlskit.cli import main
from irlskit.experiments import gen_gaussian_matrix, gen_sparse_vector
from irlskit.linalg import write_matrix, write_vector

out = sys.argv[1]
phi = gen_gaussian_matrix(250, 1500, 20250809 + 4)
write_matrix(f"{out}/phi.txt", phi.entries)
write_vector(f"{out}/y.txt", phi.entries @ gen_sparse_vector(1500, 45, 20250809 + 5))
files = ["--matrix", f"{out}/phi.txt", "--rhs", f"{out}/y.txt"]
main(["recover", *files, "--out", f"{out}/heuristic.json"])
main(["recover", *files, "--K", "45", "--tau", "0.6", "--warmstart", "10", "--eps-floor", "1e-13",
      "--out", f"{out}/tau0p6.json"])
"""
PHASE_CONFIG = {
    "m": 20,
    "N": 50,
    "k": 3,
    "k_list": [2, 6, 10],
    "tau_list": [1.0, 0.6],
    "trials": 4,
    "max_iters": 200,
    "master_seed": 3,
}
PHASE_TABLES = {"phase.csv": PHASE_CONFIG, "phase_per_trial_matrix.csv": {**PHASE_CONFIG, "per_trial_matrix": True}}


def build_key() -> str:
    parts = []
    for module in (np, scipy):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        parts.append(f"{module.__name__} {module.__version__} ({blas['name']} {blas['version']})")
    return ", ".join(parts)


def run_child(*args: str, threads: str = "1", **variables: str) -> bytes:
    """stdout of ``python *args`` at ``threads`` BLAS threads and the given environment
    ``variables``, with this irlskit importable."""
    src = str(Path(irlskit.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, **variables)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, check=True, capture_output=True).stdout


def check_digests(group: str, got: dict) -> None:
    recorded = json.loads(DIGESTS.read_text()).get(build_key(), {}).get(group)
    assert recorded is not None, f"no {group} digests recorded for build {build_key()!r}; computed {got}"
    assert got == recorded


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_trace_csv_digests(tmp_path):
    got = {}
    for prefix, cfg in (("", TRACE_CONFIG), ("gap_ratio/", GAP_TRACE_CONFIG)):
        config = tmp_path / f"config{len(got)}.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / f"out{len(got)}"
        run_child("-m", "irlskit.cli", "trace", "--config", str(config), "--out", str(out))
        got.update({prefix + p.name: _sha256(p) for p in sorted(out.iterdir())})
    check_digests("trace", got)


def test_verify_result_digests():
    check_digests("verify", {"results.txt": hashlib.sha256(run_child("-c", VERIFY_SCRIPT)).hexdigest()})


def test_montecarlo_nsp_digests():
    check_digests("montecarlo", {"results.txt": hashlib.sha256(run_child("-c", MONTECARLO_SCRIPT)).hexdigest()})


def test_recover_result_digests(tmp_path):
    run_child("-c", RECOVER_SCRIPT, str(tmp_path))
    check_digests("recover", {name: _sha256(tmp_path / name) for name in ("heuristic.json", "tau0p6.json")})


def test_phase_csv_digest_serial_and_pooled(tmp_path):
    for workers in ("1", "2"):
        got = {}
        for name, cfg in PHASE_TABLES.items():
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(cfg))
            out = tmp_path / f"workers{workers}-{name}"
            run_child("-m", "irlskit.cli", "phase", "--config", str(config), "--out", str(out), IRLS_THREADS=workers)
            got[name] = _sha256(out / "phase.csv")
        check_digests("phase", got)


def test_exact_nsp_profiles_independent_of_blas_threads():
    # exact-NSP shapes (N <= 16) are too small for OpenBLAS to thread the QR behind the kernel basis
    assert run_child("-c", EXACT_NSP_SCRIPT, threads="1") == run_child("-c", EXACT_NSP_SCRIPT, threads="2")
