import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import illiq.pdesolve
from illiq.cli import main
from illiq.manifest import file_sha256

BASE = {
    "market": {"sigma": 1.0, "lambda": 0.01, "T": 1.0, "p0": 100.0},
    "cost": {"kind": "linear", "kappa": 0.01},
    "players": [
        {"utility": {"kind": "risk_neutral"}, "payoff": {"kind": "smoothed_call", "K": 100.0}}
    ],
    "grid": {"p_min": 94.0, "p_max": 106.0, "n_p": 101, "n_t": 101, "quad_nodes": 64},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(BASE))
    return path


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_check_ok(config_path, capsys):
    assert main(["check", "--config", str(config_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"]
    assert report["eps_floor"] == pytest.approx(0.0099)
    assert report["speed_bound"] == pytest.approx(1.0101, rel=1e-3)


def test_check_missing_file(tmp_path):
    assert main(["check", "--config", str(tmp_path / "nope.json")]) == 1


def test_check_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    assert main(["check", "--config", str(path)]) == 1


@pytest.mark.parametrize("section, key, value", [
    ("market", "sigma", "abc"), ("grid", "n_p", "abc"),
    ("market", "sigma", True), ("grid", "n_p", 81.9),
], ids=["market-sigma", "grid-n_p", "bool_sigma", "fractional_n_p"])
def test_check_non_numeric_value_reports_key(tmp_path, capsys, section, key, value):
    doc = json.loads(json.dumps(BASE))
    doc[section][key] = value
    path = _write(tmp_path, "bad.json", doc)
    assert main(["check", "--config", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert f"{section}.{key}" in report["error"]


@pytest.mark.parametrize("section, value, key", [
    ("players", [{"utility": {"kind": "risk_neutral"},
                  "payoff": {"kind": "custom_grid", "grid": {"p": "1234", "values": "5678"}}}],
     "payoff.grid.p"),
    ("grid", {**BASE["grid"], "quad_nodes": 371}, "quad_nodes"),
], ids=["string_samples", "quad_nodes"])
def test_check_reports_rejected_input(tmp_path, capsys, section, value, key):
    doc = {**BASE, section: value}
    path = _write(tmp_path, "bad.json", doc)
    assert main(["check", "--config", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert key in report["error"]


def test_check_certification_failure(tmp_path):
    z = np.linspace(-100.0, 100.0, 801)
    doc = dict(BASE)
    doc["cost"] = {"kind": "custom_table",
                   "table": {"z": list(z), "g": list(np.arctan(z))}}
    path = _write(tmp_path, "table.json", doc)
    assert main(["check", "--config", str(path)]) == 2


def test_solve_closed_and_fd_agree(config_path, tmp_path, capsys):
    out_c = tmp_path / "closed"
    out_f = tmp_path / "fd"
    assert main(["solve", "--config", str(config_path), "--out", str(out_c),
                 "--method", "closed"]) == 0
    assert main(["solve", "--config", str(config_path), "--out", str(out_f),
                 "--method", "fd"]) == 0
    a = np.loadtxt(out_c / "solution.csv", delimiter=",", skiprows=1)
    b = np.loadtxt(out_f / "solution.csv", delimiter=",", skiprows=1)
    v_a, v_b = a[:, 2], b[:, 2]
    assert np.max(np.abs(v_a - v_b) / (1.0 + np.abs(v_a))) <= 1e-2
    for out in (out_c, out_f):
        assert (out / "surplus.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"]
        assert "solution.csv" in manifest["outputs"]
    header = (out_c / "solution.csv").read_text().splitlines()[0]
    assert header == "t,p,v_1,grad_1,speed_1,agg_speed"


def test_solve_speed_bound_failure_exit_4(config_path, tmp_path, monkeypatch, capsys):
    # a bound below the solved speeds fails the check; outputs are still written
    monkeypatch.setattr(illiq.pdesolve, "apriori_speed_bound", lambda game, cert: 1e-3)
    out = tmp_path / "fd"
    assert main(["solve", "--config", str(config_path), "--out", str(out),
                 "--method", "fd", "--grid", "41,41"]) == 4
    printed = capsys.readouterr().out
    assert "vs bound 0.001 -> FAIL" in printed
    # the layer line names the first (earliest) time layer over the bound
    sol = illiq.pdesolve.read_solution_npz(out / "solution.npz", illiq.GridSpec(94, 106, 41, 41))
    layer_max = np.abs(sol.speeds).max(axis=(0, 2))
    k = int(np.flatnonzero(layer_max > 1e-3 + 1e-6)[0])
    assert (f"speed bound first exceeded at time layer {k} (t = {sol.times[k]:.6g}): "
            f"max |speed| = {layer_max[k]:.6g}; ") in printed
    for name in ("solution.csv", "solution.npz", "surplus.csv", "manifest.json"):
        assert (out / name).is_file()


def test_manifests_record_thread_cap(config_path, tmp_path, monkeypatch):
    out = tmp_path / "sol"
    assert main(["solve", "--config", str(config_path), "--out", str(out),
                 "--grid", "41,41"]) == 0
    assert json.loads((out / "manifest.json").read_text())["threads"] == 1
    monkeypatch.setenv("ILLIQ_THREADS", "3")
    sim, sweep = tmp_path / "sim", tmp_path / "sweep"
    assert main(["simulate", "--config", str(config_path), "--solution",
                 str(out / "solution.csv"), "--paths", "50", "--seed", "1",
                 "--out", str(sim)]) == 0
    assert main(["sweep", "--config", str(config_path), "--out", str(sweep),
                 "--study", "split", "--N", "1,2"]) == 0
    for run in (sim, sweep):
        assert json.loads((run / "manifest.json").read_text())["threads"] == 3


def test_solve_picard_method(config_path, tmp_path):
    doc = dict(BASE)
    doc["market"] = {"sigma": 1.0, "lambda": 0.01, "T": 0.1, "p0": 100.0}
    doc["grid"] = {"p_min": 98.0, "p_max": 102.0, "n_p": 81, "n_t": 81, "quad_nodes": 48}
    path = _write(tmp_path, "short.json", doc)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "pic"),
                 "--method", "picard"]) == 0


CARA_PAIR = {
    "market": {"sigma": 2.0, "lambda": 0.01, "T": 1.0, "p0": 100.0},
    "grid": {"p_min": 88.0, "p_max": 112.0, "n_p": 101, "n_t": 101, "quad_nodes": 64},
    "players": [
        {"utility": {"kind": "cara", "alpha": 0.01},
         "payoff": {"kind": "smoothed_call", "K": 100.0}},
        {"utility": {"kind": "cara", "alpha": 0.01},
         "payoff": {"kind": "negated", "inner": {"kind": "smoothed_call", "K": 100.0}}},
    ],
}
SPREAD_COST = {"cost": {"kind": "smoothed_spread", "kappa": 0.01, "s": 0.002, "C": 100.0}}


@pytest.mark.parametrize("change", [CARA_PAIR, SPREAD_COST], ids=["cara_pair", "spread_cost"])
def test_solve_method_mismatch_exit_3(tmp_path, change):
    path = _write(tmp_path, "game.json", {**BASE, **change})
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "x"),
                 "--method", "closed"]) == 3


def test_simulate_zero_game(tmp_path, capsys):
    doc = dict(BASE)
    doc["players"] = [
        {"utility": {"kind": "risk_neutral"},
         "payoff": {"kind": "scaled", "factor": 0.0,
                    "inner": {"kind": "smoothed_call", "K": 100.0}}}
    ]
    path = _write(tmp_path, "zero.json", doc)
    out = tmp_path / "sol"
    assert main(["solve", "--config", str(path), "--out", str(out), "--method", "fd"]) == 0
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", str(path), "--solution", str(out / "solution.csv"),
                 "--paths", "200", "--seed", "3", "--out", str(sim_out)]) == 0
    summary = json.loads((sim_out / "summary.json").read_text())
    assert summary["players"][0]["z"] == 0.0
    data = np.loadtxt(sim_out / "paths.csv", delimiter=",", skiprows=1)
    assert np.all(data[:, 3] == 0.0)  # inventories identically zero


@pytest.mark.parametrize("paths", ["0", "-3", "1"])
def test_simulate_needs_two_paths(config_path, tmp_path, capsys, paths):
    # one path has no standard error, so summary.json would hold NaN
    assert main(["simulate", "--config", str(config_path), "--solution",
                 str(tmp_path / "solution.csv"), "--paths", paths, "--seed", "1",
                 "--out", str(tmp_path / "sim")]) == 1
    assert "--paths" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_simulate_rejects_seed_outside_philox_range(config_path, tmp_path, capsys, seed):
    # checked before the solution is read, so none is needed
    assert main(["simulate", "--config", str(config_path), "--solution",
                 str(tmp_path / "solution.csv"), "--paths", "10", "--seed", seed,
                 "--out", str(tmp_path / "sim")]) == 1
    assert "--seed" in capsys.readouterr().err


def test_simulate_hash_mismatch_exit_5(config_path, tmp_path):
    out = tmp_path / "sol"
    assert main(["solve", "--config", str(config_path), "--out", str(out),
                 "--method", "fd"]) == 0
    other = dict(BASE)
    other["market"] = {"sigma": 1.0, "lambda": 0.02, "T": 1.0, "p0": 100.0}
    other_path = _write(tmp_path, "other.json", other)
    assert main(["simulate", "--config", str(other_path),
                 "--solution", str(out / "solution.csv"),
                 "--paths", "100", "--seed", "1", "--out", str(tmp_path / "sim")]) == 5


def _solve_and_simulate(config_path, tmp_path):
    out = tmp_path / "sol"
    assert main(["solve", "--config", str(config_path), "--out", str(out),
                 "--grid", "41,41"]) == 0
    return out, ["simulate", "--config", str(config_path), "--solution",
                 str(out / "solution.csv"), "--paths", "50", "--seed", "1",
                 "--out", str(tmp_path / "sim")]


def test_simulate_refuses_edited_solution_exit_5(config_path, tmp_path, capsys):
    out, simulate = _solve_and_simulate(config_path, tmp_path)
    assert main(simulate) == 0
    npz = out / "solution.npz"
    data = bytearray(npz.read_bytes())
    data[len(data) // 2] ^= 1
    npz.write_bytes(bytes(data))
    assert main(simulate) == 5
    assert "solution.npz" in capsys.readouterr().err


def test_simulate_without_npz_exit_1(config_path, tmp_path, capsys):
    out, simulate = _solve_and_simulate(config_path, tmp_path)
    (out / "solution.npz").unlink()
    assert main(simulate) == 1
    assert "solution.npz" in capsys.readouterr().err


def test_manifests_record_digests_and_stage_timings(config_path, tmp_path):
    out, simulate = _solve_and_simulate(config_path, tmp_path)
    assert main(simulate) == 0
    expected = {
        out: ["solve", "residual", "surplus", "write solution.csv", "write solution.npz",
              "write surplus.csv", "sha256"],
        tmp_path / "sim": ["verify solution.npz", "load", "simulate_paths", "mc_consistency",
                           "write paths.csv", "sha256"],
    }
    for run, stages in expected.items():
        manifest = json.loads((run / "manifest.json").read_text())
        assert sorted(manifest["timings_s"]) == sorted(stages)
        assert all(isinstance(v, float) and v >= 0.0 for v in manifest["timings_s"].values())
        assert list(manifest["output_sha256"]) == manifest["outputs"]
        for name, sha in manifest["output_sha256"].items():
            assert sha == file_sha256(run / name)


def test_commands_load_no_scipy_submodule_they_do_not_use(config_path, tmp_path):
    # a fresh interpreter: importing the package and running check and
    # simulate on a linear-cost call leave the three heavy submodules unloaded
    out, simulate = _solve_and_simulate(config_path, tmp_path)
    code = (
        "import json, sys\n"
        "import illiq, illiq.cli\n"
        "heavy = ('scipy.fft', 'scipy.linalg', 'scipy.interpolate')\n"
        "loaded = lambda: [m for m in heavy if m in sys.modules]\n"
        "report = {'import': loaded()}\n"
        f"report['check'] = [illiq.cli.main(['check', '--config', {str(config_path)!r}]), loaded()]\n"
        f"report['simulate'] = [illiq.cli.main({simulate!r}), loaded()]\n"
        "print(json.dumps(report))\n"
    )
    src = str(Path(illiq.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"import": [], "check": [0, []], "simulate": [0, []]}


def test_sweep_split_passes(config_path, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config_path), "--out", str(out),
                 "--study", "split", "--N", "1,10,100"]) == 0
    report = json.loads((out / "assertions.json").read_text())
    assert report["passed"]
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "param,value,metric,metric_value"
    assert len(rows) == 4


def test_sweep_spread_passes(tmp_path):
    doc = dict(BASE)
    doc["grid"] = {"p_min": 94.0, "p_max": 106.0, "n_p": 101, "n_t": 160, "quad_nodes": 48}
    path = _write(tmp_path, "spread.json", doc)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(path), "--out", str(out),
                 "--study", "spread", "--s", "0,0.002,0.004"]) == 0


def test_sweep_zero_sum_non_offsetting_exit_6(tmp_path):
    doc = dict(BASE)
    doc["players"] = BASE["players"] * 2  # two identical long calls
    path = _write(tmp_path, "nonzero.json", doc)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(path), "--out", str(out),
                 "--study", "zero_sum"]) == 6
    report = json.loads((out / "assertions.json").read_text())
    assert "offsetting_payoffs" in report["failing"]


def test_sweep_zero_sum_passes(tmp_path):
    doc = dict(BASE)
    doc["players"] = [
        BASE["players"][0],
        {"utility": {"kind": "risk_neutral"},
         "payoff": {"kind": "negated", "inner": {"kind": "smoothed_call", "K": 100.0}}},
    ]
    path = _write(tmp_path, "zs.json", doc)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "s"),
                 "--study", "zero_sum"]) == 0
    manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
    assert manifest["outputs"] == ["sweep.csv", "assertions.json"]
    rows = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
    assert rows[0] == "param,value,metric,metric_value"
    assert [r.rsplit(",", 1)[0] for r in rows[1:]] == [
        "study,zero_sum,max_aggregate_speed",
        "study,zero_sum,max_value_sum",
        "study,zero_sum,max_payoff_sum",
    ]


def test_sweep_figure_study(config_path, tmp_path):
    out = tmp_path / "fig"
    assert main(["sweep", "--config", str(config_path), "--out", str(out),
                 "--study", "figure:fig1", "--grid", "61,21"]) == 0
    # only the files written are listed: two long t,p,<name> lattices
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["fig1_speed.csv", "fig1_surplus.csv", "assertions.json"]
    for name in ("speed", "surplus"):
        rows = (out / f"fig1_{name}.csv").read_text().splitlines()
        assert rows[0] == f"t,p,{name}"
        assert len(rows) == 1 + 21 * 61


def test_sweep_fig5_spans_its_own_market(config_path, tmp_path):
    # fig5's market has sigma = 2: it keeps the given grid's sizes and spans
    # p0 +/- 6 sigma sqrt(T) of its own market
    out = tmp_path / "fig5"
    assert main(["sweep", "--config", str(config_path), "--out", str(out),
                 "--study", "figure:fig5", "--grid", "41,21"]) == 0
    rows = np.loadtxt(out / "fig5_plain_grids.csv", delimiter=",", skiprows=1)
    assert rows.shape[0] == 41
    assert (rows[0, 0], rows[-1, 0]) == (88.0, 112.0)


@pytest.mark.parametrize("study, figure, prefix", [
    ("spread", "fig3", "fig3"), ("split", "fig6", "fig6_call")])
def test_sweep_defaults_match_figures(config_path, tmp_path, study, figure, prefix):
    # the config's game is the benchmark call, so a study on its defaults
    # (no --N, no --s) writes the same bytes as the figure built on that game
    def run(name, stem):
        out = tmp_path / name.replace(":", "_")
        assert main(["sweep", "--config", str(config_path), "--out", str(out),
                     "--study", name, "--grid", "61,40"]) == 0
        files = [(out / f"{stem}{suffix}").read_bytes() for suffix in (".csv", "_grids.csv")]
        return files, json.loads((out / "assertions.json").read_text())

    study_files, study_report = run(study, "sweep")
    figure_files, figure_report = run(f"figure:{figure}", prefix)
    assert study_files == figure_files
    if figure == "fig3":  # fig6 holds two results, so its report names no one game
        assert study_report["game_hash"] == figure_report["game_hash"]


CARA_ONE = {**BASE, "players": [{"utility": {"kind": "cara", "alpha": 0.5},
                                 "payoff": {"kind": "smoothed_call", "K": 100.0}}]}


@pytest.mark.parametrize("doc, argv, code, message", [
    (CARA_ONE, ["--study", "zero_sum"], 3, "requires risk-neutral players"),
    (BASE, ["--study", "figure:fig9"], 1, "unknown figure id 'fig9'"),
    (BASE, ["--study", "predator", "--N", "a"], 1, "--N expects"),
    (BASE, ["--study", "spread", "--s", "0,x"], 1, "--s expects"),
    (BASE, ["--study", "predator", "--N", "0,1"], 1, "N >= 1"),
    (BASE, ["--study", "split", "--N", "0,1"], 1, "N >= 1"),
    (BASE, ["--study", "spread", "--s", "0.001,0.0010000001"], 1,
     "swept values 0.001 and 0.0010000001 share the grid column suffix 's0.001'"),
    (BASE, ["--study", "split", "--N", "1,1"], 1, "swept values 1 and 1 share"),
], ids=["study_game_mismatch", "unknown_figure", "N_not_int", "s_not_float",
        "predator_N0", "split_N0", "s_shared_column", "N_repeated"])
def test_sweep_input_errors(tmp_path, capsys, doc, argv, code, message):
    path = _write(tmp_path, "game.json", doc)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "x"), *argv]) == code
    assert message in capsys.readouterr().err


def test_sweep_unknown_study(config_path, tmp_path):
    assert main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "x"),
                 "--study", "bogus"]) == 1


def test_bad_grid_flag(config_path, tmp_path):
    assert main(["solve", "--config", str(config_path), "--out", str(tmp_path / "x"),
                 "--grid", "nope"]) == 1


def test_invalid_thread_env(config_path, monkeypatch):
    monkeypatch.setenv("ILLIQ_THREADS", "zero")
    assert main(["check", "--config", str(config_path)]) == 1
    monkeypatch.setenv("ILLIQ_THREADS", "2")
    assert main(["check", "--config", str(config_path)]) == 0
