"""Numeric identity of written outputs, pinned by SHA-256 per numpy/scipy build.

``irlskit trace`` runs in a child interpreter at one BLAS thread on a fixed
50x250 config, and the SHA-256 of every CSV it writes must equal the digest
recorded in ``tests/data/output_digests.json`` for the running build.  The
build key names the numpy and scipy versions and the BLAS each was built
against.  On a build with no recorded digests the test fails and prints the
key and the digests it computed, ready to be recorded once checked.  A
change that alters output bits on purpose updates the table with it.
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


def build_key() -> str:
    parts = []
    for module in (np, scipy):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        parts.append(f"{module.__name__} {module.__version__} ({blas['name']} {blas['version']})")
    return ", ".join(parts)


def test_trace_csv_digests(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TRACE_CONFIG))
    out = tmp_path / "out"
    src = str(Path(irlskit.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "irlskit.cli", "trace", "--config", str(config), "--out", str(out)]
    subprocess.run(argv, env=env, check=True, capture_output=True)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    recorded = json.loads(DIGESTS.read_text()).get(build_key())
    assert recorded is not None, f"no digests recorded for build {build_key()!r}; computed {got}"
    assert got == recorded["trace"]
