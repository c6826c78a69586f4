"""The benchmark's workloads run against the package as it is.

``perfbench/workloads.py`` drives irlskit only through its public API, so a
change to that API could otherwise surface only when the benchmark runs.
Each workload is built at seed 7, warmed up, run for one round and
checked, in this process; the module is imported without writing bytecode,
so nothing is written under ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_workload_runs_one_checked_round(tmp_path, monkeypatch):
    before = sorted(PERFBENCH.rglob("*"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    for name, workload in workloads.WORKLOADS.items():
        tmpdir = tmp_path / name
        tmpdir.mkdir()
        wl = workload(7, str(tmpdir))
        wl.warm_up()
        calls = wl.round()
        calls += wl.check([calls])
        assert calls, name
        assert [(name, c.kind, c.key, c.error) for c in calls if c.failed] == []
    assert sorted(PERFBENCH.rglob("*")) == before
