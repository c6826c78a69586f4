"""Byte-for-byte checks of every file format the package writes.

Each writer runs on the fixed inputs below and must reproduce the file of
the same name in ``tests/data/golden/`` exactly; each reader must load
that file back to the inputs.  The inputs are spelled out rather than
computed, so the expected bytes depend on no BLAS build or random stream.
"""

from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from irlskit.experiments import (
    ExperimentConfig,
    PhaseCell,
    PhaseTransitionTable,
    read_phase_csv,
    read_ratios_csv,
    read_trace_csv,
    write_phase_csv,
    write_ratios_csv,
    write_trace_csv,
)
from irlskit.linalg import read_matrix, read_vector, write_matrix, write_vector
from irlskit.solver import IrlsConfig, IterationRecord, RecoveryResult, load_result, save_result

GOLDEN = Path(__file__).parent / "data" / "golden"

# 17 significant digits, signed zeros, the subnormal and overflow ends of
# float64, and integral values, which print without a decimal point.
VALUES = [0.1, -2.5, 1e-300, 3e17, 0.0, -0.0, 1 / 3, 5.0, 2.0**-1074, 1.7976931348623157e308,
          -7.25e-5, 123456789.125]
MATRIX = np.array(VALUES).reshape(3, 4)
VECTOR = np.array(VALUES[:6] + [np.inf, -np.inf, np.nan])

TRACE = [
    IterationRecord(1, 12.5, 0.1, 3.0000000000000004, None),
    IterationRecord(2, 1 / 3, 1e-3, 2.0**-30, 0.25),
    IterationRecord(3, 7.0, 1e-11, 0.0, 1e-17),
]
RESULT = RecoveryResult(
    x_final=np.array(VALUES[:6]),
    termination="EpsHitFloor",
    trace=TRACE,
    a_bound=17.75,
    config=IrlsConfig(tau=0.6),
    resolved_K=3,
)
ILL_RESULT = RecoveryResult(
    x_final=np.zeros(3),
    termination="IllConditioned",
    trace=[],
    a_bound=float("nan"),
    config=IrlsConfig(K=2, max_iters=50, eps_floor=1e-13),
    resolved_K=2,
)
RATIOS = [(1, 0.5, 0.7), (2, 1 / 3, 2.0**-40), (3, 1e-5, 123.0)]
PHASE = PhaseTransitionTable(
    rows={
        (4, "tau1"): PhaseCell(10, 3, 0.3, 41.7),
        (0, "hybrid-tau0.6"): PhaseCell(10, 10, 1.0, 1.0),
        (4, "hybrid-tau0.6"): PhaseCell(10, 0, 0.0, 2000.0),
        (0, "tau1"): PhaseCell(10, 10, 1.0, 1 / 3),
    },
    config=ExperimentConfig(m=20, N=50, k=4),
)

WRITERS = {
    "phi.mat": lambda path: write_matrix(path, MATRIX),
    "y.vec": lambda path: write_vector(path, VECTOR),
    "trace.csv": lambda path: write_trace_csv(RESULT, path),
    "ratios.csv": lambda path: write_ratios_csv(RATIOS, path),
    "phase.csv": lambda path: write_phase_csv(PHASE, path),
    "recover.json": lambda path: save_result(RESULT, path),
    "recover_ill.json": lambda path: save_result(ILL_RESULT, path),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_written_bytes_match_golden(name, tmp_path):
    WRITERS[name](tmp_path / name)
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_golden_files_read_back():
    assert np.array_equal(read_matrix(GOLDEN / "phi.mat"), MATRIX)
    assert np.array_equal(read_vector(GOLDEN / "y.vec"), VECTOR, equal_nan=True)
    assert read_trace_csv(GOLDEN / "trace.csv") == [asdict(rec) for rec in TRACE]
    assert [tuple(row.values()) for row in read_ratios_csv(GOLDEN / "ratios.csv")] == RATIOS
    assert [row["mean_iters"] for row in read_phase_csv(GOLDEN / "phase.csv")] == [
        1.0, 1 / 3, 2000.0, 41.7,
    ]
    loaded = load_result(GOLDEN / "recover.json")
    assert loaded.trace == TRACE
    assert loaded.config == IrlsConfig(K=3, tau=0.6, warmstart_iters=10)
    assert np.array_equal(loaded.x_final, RESULT.x_final)
