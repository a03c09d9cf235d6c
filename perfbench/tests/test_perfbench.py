"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    python3 -m pytest perfbench/tests -q

The smoke runs use toy sizes and take about a minute in total.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import illiq  # noqa: E402
import illiq.cli  # noqa: E402,F401 -- the package does not import its CLI
import tracing  # noqa: E402


def _run(*args, python=(sys.executable,)):
    return subprocess.run([*python, str(RUN), *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--trace", str(trace), "--smoke",
                python=(sys.executable, "-X", "importtime"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)  # smoke times one flow
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: entry["unit"] for name, entry in result["metrics"].items()}
    for m in wanted:
        assert f"{m['name']} = " in proc.stdout
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert ("tracing" in imported) == bool(trace)


def test_end_to_end_metrics_are_never_zero():
    proc = _run("--workload", "fd_call", "--seed", "1", "--smoke")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert all(entry["value"] > 0 for entry in metrics.values())


@pytest.fixture()
def tracer():
    t = tracing.Tracer()
    yield t
    t.uninstall()


def test_missing_public_name_is_reported_absent(monkeypatch, tracer):
    for mod in (illiq, illiq.pdesolve, illiq.cli):
        monkeypatch.delattr(mod, "residual")
    tracer.install(illiq)
    metrics = tracer.metrics(1.0)
    assert "pdesolve.residual.self_s" not in metrics
    assert "pdesolve.residual.calls" not in metrics
    assert metrics["pdesolve.solve_fd.calls"] == 0
    assert metrics["pdesolve.n_t_used"] == 0


def test_missing_meta_field_is_reported_absent(monkeypatch, tracer):
    def solve_fd(game, grid):
        return SimpleNamespace(meta={})

    solve_fd.__module__ = "illiq.pdesolve"
    monkeypatch.setattr(illiq.pdesolve, "solve_fd", solve_fd)
    tracer.install(illiq)
    illiq.pdesolve.solve_fd(None, None)
    metrics = tracer.metrics(1.0)
    assert metrics["pdesolve.solve_fd.calls"] == 1
    assert "pdesolve.n_t_used" not in metrics


def test_uninstall_restores_every_binding(tracer):
    before = (illiq.cli.solve_fd, illiq.pdesolve.solve_banded, illiq.LinearCost.slope)
    tracer.install(illiq)
    assert illiq.cli.solve_fd is illiq.pdesolve.solve_fd is not before[0]
    tracer.uninstall()
    assert (illiq.cli.solve_fd, illiq.pdesolve.solve_banded, illiq.LinearCost.slope) == before


def test_phi_evaluations_are_counted_per_root(tracer):
    tracer.install(illiq)
    cost = illiq.LinearCost(0.01)
    illiq.speeds.aggregate_speed_many(cost, 1, [0.0, 0.005], 0.005)
    cost.slope(1.0)  # outside a root span: not a phi evaluation
    metrics = tracer.metrics(1.0)
    assert metrics["speeds.aggregate_speed_many.calls"] == 1
    assert metrics["speeds.phi_evals_max"] == metrics["speeds.phi_evals_per_root"] >= 2


def test_without_the_package_source_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fd_call",
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
