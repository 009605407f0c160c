"""Smoke test of the benchmark itself, at the tiny size.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py

Runs each workload in-process for a fraction of a second, traced and
untraced, and checks the printed metrics against BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import run, workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
COMMON = ("setup_s", "wall_s", "ops_per_s", "peak_rss_mb", "failed_frac")
PER_WORKLOAD = {
    "mc_fresh": ("mc_path_steps_per_s",),
    "mc_paired": ("mc_path_steps_per_s", "evals_per_s"),
    "oracle_ladder": ("fd_ladder_s", "qvi_s"),
    "cli_sweep": ("cli_runs_per_s",),
}


@pytest.fixture(autouse=True)
def _env(monkeypatch):
    # run.main sets these; let monkeypatch put them back afterwards
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.delenv("ADK_LOG", raising=False)


def _bench(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0.5",
                     "--trace", str(trace), "--size", "tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    return json.loads(lines[-1]), printed, lines


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", sorted(PER_WORKLOAD))
def test_every_metric_is_printed_with_its_unit(capsys, workload):
    assert workload in [w["name"] for w in BENCH["workloads"]]
    res, printed, _ = _bench(capsys, workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert _units(res["metrics"]) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    for name in COMMON + PER_WORKLOAD[workload]:
        assert printed[name][1], name

    res, printed, lines = _bench(capsys, workload, 1)
    assert res["correct"]
    assert _units(res["metrics"]) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for name in res["metrics"]:
        assert printed[name][1] == res["metrics"][name]["unit"]
    assert any(line.startswith("trace overhead:") for line in lines)


def test_corrupted_reference_shows_as_failed_ops(capsys, monkeypatch):
    build = workloads.McFresh.__init__

    def corrupted(self, *args):
        build(self, *args)
        self.ref += 1.0

    monkeypatch.setattr(workloads.McFresh, "__init__", corrupted)
    res, printed, _ = _bench(capsys, "mc_fresh", 0)
    assert not res["correct"] and res["failed"] > 0
    assert printed["failed_frac"][0] > 0


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_fresh", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
