import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import irlskit
from irlskit import SensingMatrix, l1_minimality_check, null_space_basis
from irlskit.cli import build_parser, main
from irlskit.linalg import write_matrix, write_vector
from irlskit.plotting import emit_plot
from irlskit.solver import load_result, result_schema

DATA = Path(__file__).parent / "data"

TINY = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])


@pytest.fixture
def tiny_files(tmp_path):
    matrix = tmp_path / "phi.mat"
    rhs = tmp_path / "y.vec"
    write_matrix(matrix, TINY)
    write_vector(rhs, [1.0, 1.0])
    return str(matrix), str(rhs)


def test_recover_roundtrip(tiny_files, tmp_path, capsys):
    matrix, rhs = tiny_files
    out = str(tmp_path / "result.json")
    code = main(["recover", "--matrix", matrix, "--rhs", rhs, "--K", "1", "--out", out])
    captured = capsys.readouterr()
    assert code == 0
    assert "termination:" in captured.out
    doc = json.loads(Path(out).read_text())
    jsonschema.validate(doc, result_schema())
    result = load_result(out)
    assert np.sum(np.abs(result.x_final - np.array([0.0, 0.0, 1.0]))) <= 1e-6


def test_recover_heuristic_default_printed(tiny_files, tmp_path, capsys):
    matrix, rhs = tiny_files
    out = str(tmp_path / "result.json")
    code = main(["recover", "--matrix", matrix, "--rhs", rhs, "--out", out])
    captured = capsys.readouterr()
    assert code == 0
    assert "heuristic default" in captured.out
    assert re.search(r"K = \d+", captured.out)


def test_recover_rejects_trailing_matrix_rows(tiny_files, tmp_path, capsys):
    matrix, rhs = tiny_files
    with open(matrix, "a", encoding="ascii") as fh:
        fh.write("1 1 1\n")
    out = tmp_path / "result.json"
    code = main(["recover", "--matrix", matrix, "--rhs", rhs, "--out", str(out)])
    assert code == 2
    assert "phi.mat" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "body,message",
    [
        ("1 0 1\n\n0 1 1\n", "unexpected content after 2 rows"),  # a blank line between rows
        ("\n\n", "expected 2 rows of 3 values, got shape (0, 3)"),
        ("1 0 1\n", "expected 2 rows of 3 values, got shape (1, 3)"),
        ("1 0 1\n0 1 1\n1 1 1\n", "unexpected content after 2 rows"),
        ("1 0 x\n0 1 1\n", "could not convert string 'x' to float64 at row 0, column 3"),
        ("1 0 x\n0 1 1\n1 1 1\n", "could not convert string 'x'"),  # the bad token reports first
    ],
    ids=["blank-between-rows", "all-blank", "short", "trailing", "bad-token", "bad-token-and-trailing"],
)
def test_recover_rejects_malformed_matrix_text(tiny_files, tmp_path, capsys, body, message):
    matrix, rhs = tiny_files
    Path(matrix).write_text("2 3\n" + body)
    out = tmp_path / "result.json"
    code = main(["recover", "--matrix", matrix, "--rhs", rhs, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{matrix}: {message}" in err
    assert not out.exists()


LP_PROBE = """
import contextlib, io, json, sys
import irlskit, irlskit.cli
loaded = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert irlskit.cli.main(argv) == 0, argv
    loaded.append("scipy.optimize" in sys.modules)
print(json.dumps(loaded))
"""


def test_lp_stack_loads_only_for_an_lp(tiny_files, tmp_path):
    matrix, rhs = tiny_files
    config = tmp_path / "trace.json"
    config.write_text(json.dumps({"m": 10, "N": 30, "k": 2, "tau_list": [1.0], "master_seed": 1}))
    commands = [
        ["recover", "--matrix", matrix, "--rhs", rhs, "--out", str(tmp_path / "r.json")],
        ["trace", "--config", str(config), "--out", str(tmp_path / "trace")],
        ["check", "--matrix", matrix, "--rip", "2"],
        ["oracle", "--matrix", matrix, "--rhs", rhs, "--l1"],
    ]
    src = str(Path(irlskit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", LP_PROBE, json.dumps(commands)],
                          env=env, capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == [False, False, False, True]


JSONSCHEMA_PROBE = """
import sys
import numpy as np
import irlskit.cli
from irlskit import IrlsConfig, SensingMatrix, irls_run
from irlskit.solver import load_result, save_result
run = irls_run(SensingMatrix(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])), np.array([1.0, 1.0]), IrlsConfig(K=1))
save_result(run, sys.argv[1])
assert load_result(sys.argv[1]).config == run.config
assert "jsonschema" not in sys.modules, "jsonschema was imported"
"""


def test_results_are_checked_without_jsonschema(tmp_path):
    src = str(Path(irlskit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", JSONSCHEMA_PROBE, str(tmp_path / "r.json")], env=env, check=True)


def test_check_nsp_tiny(tiny_files, capsys):
    matrix, _ = tiny_files
    code = main(["check", "--matrix", matrix, "--nsp", "1"])
    captured = capsys.readouterr()
    assert code == 0
    summary, payload = captured.out.strip().split("\n")
    assert "ExactEnumeration" in summary
    doc = json.loads(payload)
    assert doc["kind"] == "NSP" and doc["order"] == 1
    assert doc["constant"] == pytest.approx(0.5, abs=1e-12)


def test_check_rip(tmp_path, capsys):
    matrix = tmp_path / "phi.mat"
    write_matrix(matrix, np.array([[1.0, 0.0, 2.0**-0.5], [0.0, 1.0, 2.0**-0.5]]))
    code = main(["check", "--matrix", str(matrix), "--rip", "2"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out.strip().split("\n")[1])
    assert doc["constant"] == pytest.approx(0.45880, abs=5e-6)


def test_oracle_sparse_and_l1(tiny_files, capsys):
    matrix, rhs = tiny_files
    assert main(["oracle", "--matrix", matrix, "--rhs", rhs, "--k", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["support"] == [2]
    assert doc["residual"] == pytest.approx(0.0, abs=1e-12)
    assert main(["oracle", "--matrix", matrix, "--rhs", rhs, "--l1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert np.allclose(doc["x"], [0.0, 0.0, 1.0], atol=1e-9)
    assert doc["l1_norm"] == pytest.approx(1.0, abs=1e-9)


def test_oracle_l1_reports_tie(tmp_path, capsys):
    # [1 1] x = 2: every (t, 2 - t) with t in [0, 2] has l1 norm 2
    matrix, rhs = tmp_path / "phi.mat", tmp_path / "y.vec"
    write_matrix(matrix, [[1.0, 1.0]])
    write_vector(rhs, [2.0])
    assert main(["oracle", "--matrix", str(matrix), "--rhs", str(rhs), "--l1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"x", "l1_norm"}
    assert doc["l1_norm"] == 2.0
    phi = SensingMatrix([[1.0, 1.0]])
    assert l1_minimality_check(np.array(doc["x"]), null_space_basis(phi)).unique is False


@pytest.mark.parametrize(
    "body,message",
    [("2\n1 nan\n", "y must have finite entries"), ("3\n1 1 1\n", "y must have shape (2,)")],
    ids=["nan", "length"],
)
def test_oracle_l1_rejects_bad_rhs(tiny_files, capsys, body, message):
    matrix, rhs = tiny_files
    Path(rhs).write_text(body)
    assert main(["oracle", "--matrix", matrix, "--rhs", rhs, "--l1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_oracle_rejects_nonfinite_rhs(tiny_files, capsys):
    matrix, rhs = tiny_files
    Path(rhs).write_text("2\n1 nan\n")
    assert main(["oracle", "--matrix", matrix, "--rhs", rhs, "--k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "y must have finite entries" in captured.err


_COMMANDS = {
    "recover": ["recover", "--matrix", "{m}", "--rhs", "{y}", "--K", "1", "--out", "{out}"],
    "check-rip": ["check", "--matrix", "{m}", "--rip", "1"],
    "check-nsp": ["check", "--matrix", "{m}", "--nsp", "1"],
    "oracle-k": ["oracle", "--matrix", "{m}", "--rhs", "{y}", "--k", "1"],
    "oracle-l1": ["oracle", "--matrix", "{m}", "--rhs", "{y}", "--l1"],
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(_COMMANDS)),
    st.sampled_from(["matrix", "rhs"]),
    st.sampled_from(["nan", "inf", "-inf"]),
    st.integers(0, 5),
)
def test_nonfinite_inputs_exit_2(command, target, token, pos):
    if command.startswith("check"):
        target = "matrix"
    entries = [[repr(float(v)) for v in row] for row in TINY]
    rhs = ["1.0", "1.0"]
    if target == "matrix":
        entries[pos // 3][pos % 3] = token
    else:
        rhs[pos % 2] = token
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"m": f"{tmp}/phi.mat", "y": f"{tmp}/y.vec", "out": f"{tmp}/r.json"}
        Path(paths["m"]).write_text("2 3\n" + "\n".join(" ".join(r) for r in entries) + "\n")
        Path(paths["y"]).write_text("2\n" + " ".join(rhs) + "\n")
        argv = [arg.format(**paths) for arg in _COMMANDS[command]]
        assert main(argv) == 2
        assert not Path(paths["out"]).exists()


def test_oracle_agrees_with_recover(tiny_files, tmp_path, capsys):
    matrix, rhs = tiny_files
    main(["oracle", "--matrix", matrix, "--rhs", rhs, "--l1"])
    x_lp = np.array(json.loads(capsys.readouterr().out)["x"])
    out = str(tmp_path / "r.json")
    main(["recover", "--matrix", matrix, "--rhs", rhs, "--K", "1", "--out", out])
    capsys.readouterr()
    x_irls = np.array(load_result(out).x_final)
    assert np.sum(np.abs(x_irls - x_lp)) <= 1e-6


def test_trace_and_phase_commands(tmp_path, capsys):
    cfg = {
        "m": 10,
        "N": 20,
        "k": 2,
        "tau_list": [1.0],
        "trials": 3,
        "master_seed": 4,
        "k_list": [0, 2],
        "max_iters": 150,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    assert main(["trace", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert (out_dir / "trace_tau1.csv").exists()
    assert (out_dir / "ratios_tau1.csv").exists()
    assert main(["phase", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    captured = capsys.readouterr()
    assert "k=0 tau1" in captured.out
    phase_csv = out_dir / "phase.csv"
    assert phase_csv.exists()
    header = phase_csv.read_text().splitlines()[0]
    assert header == "k,method,trials,successes,success_rate,mean_iters"
    # round trip: the written file is readable by the plot command
    svg = tmp_path / "phase.svg"
    assert main(["plot", "--csv", str(phase_csv), "--kind", "phase", "--out", str(svg)]) == 0


@pytest.mark.parametrize("command", ["trace", "phase"])
@pytest.mark.parametrize("key,value", [("per_trial_matrix", "false"), ("trials", True)])
def test_mistyped_config_exit_2(tmp_path, capsys, command, key, value):
    # "false" is a truthy string and True counts as 1: both used to run
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"m": 10, "N": 20, "k": 2, "max_iters": 150, key: value}))
    out_dir = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out_dir)]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "command, fields, key",
    [
        ("trace", {"tau_list": [1.0, 0.5], "warmstart_iters": -1}, "warmstart_iters"),
        ("phase", {"max_iters": 0}, "max_iters"),
        ("phase", {"m": 20, "N": 50, "K_policy": 60}, "K_policy"),
        ("phase", {"tau_list": []}, "tau_list"),
        ("phase", {"k_list": []}, "k_list"),
        ("trace", {"tau_list": []}, "tau_list"),
        ("phase", {"k_list": [15]}, "k_list"),
        ("trace", {"k": 0, "gap_ratio": 10.0}, "gap_ratio"),
        ("phase", {"tau_list": [1.0, 1.0]}, "tau_list"),
        ("trace", {"tau_list": [1.0, 1.0]}, "tau_list"),
        ("trace", {"tau_list": [1.0, 0.9999995]}, "tau_list"),
        ("phase", {"m": 0, "N": 5, "k": 0}, "m"),
        ("trace", {"m": 0, "N": 5, "k": 0}, "m"),
    ],
    ids=[
        "trace-warmstart_iters", "phase-max_iters", "phase-K_policy",
        "phase-tau_list-empty", "phase-k_list-empty", "trace-tau_list-empty", "phase-k_list-range",
        "trace-gap_ratio-k0", "phase-tau_list-repeated", "trace-tau_list-repeated", "trace-tau_list-same-file",
        "phase-m-zero", "trace-m-zero",
    ],
)
def test_config_meets_solver_rules_before_any_trial(tmp_path, capsys, command, fields, key):
    # each fails when the config loads: before any trial runs or any file is written
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"m": 10, "N": 20, "k": 2, "trials": 2, **fields}))
    out_dir = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and key in captured.err
    assert not out_dir.exists()


def test_phase_rejects_bad_irls_threads(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("IRLS_THREADS", "abc")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"m": 10, "N": 20, "k": 2, "trials": 2}))
    out_dir = tmp_path / "out"
    assert main(["phase", "--config", str(cfg_path), "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "IRLS_THREADS" in captured.err and "'abc'" in captured.err
    assert not out_dir.exists()


def test_check_nsp_rejects_bad_seed(tiny_files, capsys):
    matrix, _ = tiny_files
    argv = ["check", "--matrix", matrix, "--nsp", "1", "--method", "montecarlo", "--seed", "-1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "seed" in captured.err


def test_plot_trace_structure(tmp_path):
    csv = tmp_path / "t.csv"
    csv.write_text(
        "n,surrogate,eps,step_l1,ref_error_l1\n"
        "1,5,0.5,1,0.1\n2,4,0.25,0.5,0.01\n3,3,0.1,0.2,0.001\n"
    )
    svg_path = tmp_path / "t.svg"
    emit_plot(csv, "trace", svg_path)
    svg = svg_path.read_text()
    assert svg.count("<polyline") == 1
    points = re.search(r'points="([^"]+)"', svg).group(1).split()
    assert len(points) == 3
    assert "log10 error" in svg and "iteration n" in svg


def test_plot_phase_structure(tmp_path):
    csv = tmp_path / "p.csv"
    csv.write_text(
        "k,method,trials,successes,success_rate,mean_iters\n"
        "5,tau1,10,10,1.0,12\n10,tau1,10,5,0.5,30\n"
        "5,hybrid-tau0.5,10,10,1.0,11\n10,hybrid-tau0.5,10,7,0.7,25\n"
    )
    svg_path = tmp_path / "p.svg"
    emit_plot(csv, "phase", svg_path)
    svg = svg_path.read_text()
    assert svg.count("<polyline") == 2
    assert svg.count('class="legend-label"') == 2


def test_plot_ratios_flat_for_geometric(tmp_path):
    # a geometric error sequence has constant ratios; assert on the data
    errors = [2.0**-n for n in range(1, 8)]
    ratios = [(n + 1, errors[n + 1] / errors[n], 0.0) for n in range(len(errors) - 1)]
    assert all(r[1] == pytest.approx(0.5) for r in ratios)
    csv = tmp_path / "r.csv"
    csv.write_text(
        "n,linear_ratio,superlinear_ratio\n"
        + "".join(f"{n},{lin},{sup}\n" for n, lin, sup in ratios)
    )
    svg_path = tmp_path / "r.svg"
    emit_plot(csv, "ratios", svg_path)
    assert svg_path.read_text().count("<polyline") == 2


def test_plot_schema_mismatch(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_text("n,surrogate\n1,2\n")
    code = main(["plot", "--csv", str(csv), "--kind", "trace", "--out", str(tmp_path / "x.svg")])
    captured = capsys.readouterr()
    assert code == 1
    assert "SchemaMismatch" in captured.err
    assert "missing column 'eps'" in captured.err


@pytest.mark.parametrize("cells", ["2,tau1,4,4,1", "2,tau1,4,4,1,12.75,7"], ids=["short", "long"])
def test_plot_rejects_csv_row_of_wrong_width(tmp_path, capsys, cells):
    csv = tmp_path / "phase.csv"
    csv.write_text(f"k,method,trials,successes,success_rate,mean_iters\n2,tau1,4,4,1,12.75\n{cells}\n")
    svg = tmp_path / "phase.svg"
    code = main(["plot", "--csv", str(csv), "--kind", "phase", "--out", str(svg)])
    captured = capsys.readouterr()
    assert code == 1
    assert "SchemaMismatch" in captured.err and "line 3" in captured.err
    assert not svg.exists()


def test_unknown_flag_rejected(capsys):
    assert main(["recover", "--bogus"]) == 2


def test_missing_file_exit_code(tmp_path, capsys):
    code = main(["check", "--matrix", str(tmp_path / "nope.mat"), "--nsp", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_budget_error_exit_code(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(0)
    matrix = tmp_path / "m.mat"
    write_matrix(matrix, rng.normal(size=(6, 40)))
    rhs = tmp_path / "y.vec"
    write_vector(rhs, rng.normal(size=6))
    code = main(["oracle", "--matrix", str(matrix), "--rhs", str(rhs), "--k", "6"])
    captured = capsys.readouterr()
    assert code == 1
    assert "BudgetExceeded" in captured.err

    code = main(["check", "--matrix", str(matrix), "--nsp", "1", "--method", "exact"])
    captured = capsys.readouterr()
    assert code == 1
    assert "DimensionTooLarge" in captured.err

    # Full row rank puts every y in the range, so real input never makes the
    # LP infeasible; a stub solver reporting status 2 stands in for it.
    monkeypatch.setattr(
        "scipy.optimize.linprog", lambda *args, **kwargs: SimpleNamespace(status=2)
    )
    code = main(["oracle", "--matrix", str(matrix), "--rhs", str(rhs), "--l1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Infeasible" in captured.err

    entries = rng.normal(size=(6, 40))
    entries[1] = entries[0]
    write_matrix(matrix, entries)
    code = main(["recover", "--matrix", str(matrix), "--rhs", str(rhs)])
    captured = capsys.readouterr()
    assert code == 1
    assert "RankDeficient" in captured.err


def test_help_golden_files(capsys):
    parser = build_parser()
    assert parser.format_help() == (DATA / "help_main.txt").read_text()
    for sub in ("recover", "check", "oracle", "trace", "phase", "plot"):
        with pytest.raises(SystemExit):
            parser.parse_args([sub, "--help"])
        captured = capsys.readouterr()
        assert captured.out == (DATA / f"help_{sub}.txt").read_text(), sub


def test_help_lists_defaults():
    text = (DATA / "help_recover.txt").read_text()
    for flag in ("--matrix", "--rhs", "--K", "--tau", "--warmstart", "--out"):
        assert flag in text
    assert "default:" in text
