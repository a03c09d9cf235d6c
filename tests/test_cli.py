import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import illiq.cli
import illiq.pdesolve
from illiq.cli import main
from illiq.manifest import file_sha256
from illiq.pdesolve import SOLUTION_ARRAYS
from illiq.simulate import simulate_paths

FIGURES = Path(__file__).resolve().parent.parent / "demos" / "figures"

BASE = {
    "market": {"sigma": 1.0, "lambda": 0.01, "T": 1.0, "p0": 100.0},
    "cost": {"kind": "linear", "kappa": 0.01},
    "players": [
        {"utility": {"kind": "risk_neutral"}, "payoff": {"kind": "smoothed_call", "K": 100.0}}
    ],
    "grid": {"p_min": 94.0, "p_max": 106.0, "n_p": 101, "n_t": 101, "quad_nodes": 64},
}
CARA_CALL = {"utility": {"kind": "cara", "alpha": 0.5},
             "payoff": {"kind": "smoothed_call", "K": 100.0}}
# the game of the cara2 study: a CARA call holder against its CARA issuer
CARA2_GAME = {**BASE, "players": [
    CARA_CALL, {**CARA_CALL, "payoff": {"kind": "negated", "inner": CARA_CALL["payoff"]}}]}


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


@pytest.mark.parametrize("command", ["check", "solve"])
def test_config_that_is_a_directory_exits_1(tmp_path, capsys, command):
    # a file-system error is one line and exit 1, not a traceback: check
    # reports it in its JSON on stdout, the other commands on stderr
    argv = [command, "--config", str(tmp_path)] + (
        ["--out", str(tmp_path / "x")] if command == "solve" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    if command == "check":
        report = json.loads(captured.out)
        assert report["ok"] is False and "Is a directory" in report["error"]
    else:
        assert captured.err.startswith("error: ") and "Is a directory" in captured.err
        assert captured.err.count("\n") == 1


def test_solve_out_that_is_a_file_exits_1(config_path, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory")
    assert main(["solve", "--config", str(config_path), "--out", str(out),
                 "--grid", "41,41"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "File exists" in err
    assert err.count("\n") == 1
    assert out.read_text() == "not a directory"


def test_solve_out_under_a_file_exits_1_before_solving(config_path, tmp_path, monkeypatch,
                                                       capsys):
    # refused as making the directory would refuse it, and before the solve
    (tmp_path / "taken").write_text("not a directory")
    monkeypatch.setattr(illiq.cli, "solve_fd", None)  # a solve would fail otherwise
    out = tmp_path / "taken" / "run"
    assert main(["solve", "--config", str(config_path), "--out", str(out),
                 "--grid", "41,41"]) == 1
    assert capsys.readouterr().err == f"error: [Errno 20] Not a directory: '{out}'\n"


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


@pytest.mark.parametrize("section, key, value, message", [
    ("market", "sigma", float("nan"), "sigma must be finite, got nan"),
    ("cost", "kappa", float("inf"), "kappa must be finite, got inf"),
], ids=["nan_sigma", "inf_kappa"])
def test_check_names_non_finite_value(tmp_path, capsys, section, key, value, message):
    # json writes and reads these as NaN and Infinity, which fail every range check
    doc = json.loads(json.dumps(BASE))
    doc[section][key] = value
    assert main(["check", "--config", str(_write(tmp_path, "bad.json", doc))]) == 1
    assert json.loads(capsys.readouterr().out) == {"ok": False, "error": message}


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


_ARCTAN_Z = np.linspace(-100.0, 100.0, 801)
ARCTAN_COST = {**BASE, "cost": {"kind": "custom_table", "table": {
    "z": list(_ARCTAN_Z), "g": list(np.arctan(_ARCTAN_Z))}}}  # a cost that fails certification


def test_check_certification_failure(tmp_path):
    path = _write(tmp_path, "table.json", ARCTAN_COST)
    assert main(["check", "--config", str(path)]) == 2


@pytest.mark.parametrize("doc, message", [
    ({k: v for k, v in BASE.items() if k != "cost"}, "missing key 'cost' in config"),
    ({**BASE, "cost": 5}, "cost must be an object"),
    ({**BASE, "cost": {"kind": "quadratic"}}, "unknown cost kind 'quadratic'"),
    ({**BASE, "cost": {"kind": "custom_table", "table": [1, 2]}},
     "cost.table must be an object with keys 'z' and 'g'"),
    ({**BASE, "players": [{"utility": {"kind": "risk_neutral"},
                           "payoff": {"kind": "sum", "terms": []}}]},
     "payoff.terms must be a non-empty list"),
    ([1], "config root must be a JSON object"),
    ({**BASE, "market": 1}, "market must be an object"),
    ({**BASE, "players": []}, "players must be a non-empty list"),
    ({**BASE, "players": [1]}, "players[0] must be an object"),
    ({**BASE, "grid": [1]}, "grid must be an object"),
], ids=["missing_key", "section_not_object", "unknown_kind", "samples_not_object", "empty_sum",
        "root_not_object", "market_not_object", "no_players", "player_not_object",
        "grid_not_object"])
def test_check_rejects_config_shape(tmp_path, capsys, doc, message):
    assert main(["check", "--config", str(_write(tmp_path, "bad.json", doc))]) == 1
    assert json.loads(capsys.readouterr().out) == {"ok": False, "error": message}


def test_usage_error_exits_1(capsys):
    # argparse would exit 2, the code of a certification failure
    assert main(["solve", "--out", "x"]) == 1
    assert "--config" in capsys.readouterr().err


def test_solve_certification_failure_exit_2(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["solve", "--config", str(_write(tmp_path, "table.json", ARCTAN_COST)),
                 "--out", str(out)]) == 2
    assert "certification failure" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_table_cost_end_to_end(tmp_path, capsys):
    # a certifiable table, g = 0.01 z + 0.001 z^3 on [-3, 3]: the bounded-cost
    # branch of certify_for_game feeds check, both lattice solvers and simulate
    z = np.linspace(-3.0, 3.0, 41)
    doc = {**BASE, "cost": {"kind": "custom_table",
                            "table": {"z": list(z), "g": list(0.01 * z + 0.001 * z**3)}}}
    path = str(_write(tmp_path, "table.json", doc))
    assert main(["check", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["working_interval"] == [-3.0, 3.0]
    for method in ("fd", "picard"):
        assert main(["solve", "--config", path, "--out", str(tmp_path / method),
                     "--method", method, "--grid", "81,60"]) == 0
        assert "-> PASS" in capsys.readouterr().out
    assert main(["simulate", "--config", path, "--solution", str(tmp_path / "fd" / "solution.csv"),
                 "--paths", "2000", "--out", str(tmp_path / "sim")]) == 0
    (player,) = json.loads((tmp_path / "sim" / "summary.json").read_text())["players"]
    assert abs(player["z"]) <= 4.0


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
    certify = illiq.pdesolve.certify_for_game
    monkeypatch.setattr(illiq.pdesolve, "certify_for_game", lambda game: (certify(game)[0], 1e-3))
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


def test_surplus_thins_the_time_axis(config_path, tmp_path):
    # more than 201 layers: surplus.csv keeps 201 of them, first and last
    # included, while solution.csv keeps every layer
    out = tmp_path / "fd"
    assert main(["solve", "--config", str(config_path), "--out", str(out),
                 "--grid", "41,450"]) == 0
    surplus_t = np.unique(np.loadtxt(out / "surplus.csv", delimiter=",", skiprows=1)[:, 0])
    assert (surplus_t.size, surplus_t[0], surplus_t[-1]) == (201, 0.0, BASE["market"]["T"])
    solution_t = np.unique(np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)[:, 0])
    assert solution_t.size == 450
    assert np.all(np.isin(surplus_t, solution_t))


def test_manifests_record_output_options(config_path, tmp_path):
    # command names every option that shapes the outputs, paths aside, so runs
    # that differ only in --grid or --paths are told apart; grid_hash still
    # digests the config's grid, before --grid
    def manifest(name, *argv):
        out = tmp_path / name
        assert main([*argv, "--config", str(config_path), "--out", str(out)]) == 0
        return json.loads((out / "manifest.json").read_text())

    coarse = manifest("coarse", "solve", "--grid", "41,41")
    fine = manifest("fine", "solve", "--grid", "61,41")
    assert coarse["command"] == "solve --method fd --grid 41,41"
    assert fine["command"] == "solve --method fd --grid 61,41"
    assert coarse["grid_hash"] == fine["grid_hash"]
    solution = str(tmp_path / "coarse" / "solution.csv")
    assert manifest("sim50", "simulate", "--solution", solution,
                    "--paths", "50")["command"] == "simulate --paths 50 --seed 0"
    assert manifest("sim60", "simulate", "--solution", solution, "--paths", "60",
                    "--seed", "1")["command"] == "simulate --paths 60 --seed 1"
    assert manifest("sweep", "sweep", "--study", "split", "--N", "1,2", "--grid",
                    "41,41")["command"] == "sweep --study split --N 1,2 --grid 41,41"


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def test_manifests_record_what_the_solver_did(config_path, tmp_path):
    # solve copies the plain numbers of Solution.meta, and the spread and
    # cara2 studies those of their march, into the manifest's meta
    def meta(name, *argv, config=config_path):
        out = tmp_path / name
        assert main([*argv, "--config", str(config), "--out", str(out)]) == 0
        return json.loads((out / "manifest.json").read_text())["meta"]

    fd = meta("fd", "solve", "--grid", "41,41")
    for key in ("speed_bound", "root_tol", "n_t_requested", "n_t_used"):
        assert _is_number(fd[key]), key
    assert set(fd["root_sweeps"]) == {"max", "mean"}
    assert all(_is_number(v) for v in fd["root_sweeps"].values())
    with np.load(tmp_path / "fd" / "solution.npz") as npz:
        solved = json.loads(npz["meta"].item())
    assert {k: solved[k] for k in fd} == fd
    doc = {**BASE, "market": {**BASE["market"], "T": 0.1},
           "grid": {"p_min": 98.0, "p_max": 102.0, "n_p": 41, "n_t": 41, "quad_nodes": 48}}
    picard = meta("picard", "solve", "--method", "picard", config=_write(tmp_path, "p.json", doc))
    for key in ("speed_bound", "root_tol", "tau", "tau_halvings", "n_t_used"):
        assert _is_number(picard[key]), key
    # Picard writes 20 steps of 8 sub-layers whatever the grid's 41 layers
    assert picard["n_t_used"] == 161
    assert set(picard["iterations"]) == {"max", "mean"}
    assert 1 <= picard["iterations"]["mean"] <= picard["iterations"]["max"]
    assert isinstance(picard["iterations"]["max"], int)
    sweep = meta("sweep", "sweep", "--study", "spread", "--s", "0,0.004", "--grid", "41,41")
    assert _is_number(sweep["n_t_used"]) and sweep["root_sweeps"]["max"] > 0
    assert all(_is_number(v) for v in sweep["root_sweeps"].values())
    cara = meta("cara2", "sweep", "--study", "cara2", "--grid", "41,41",
                config=_write(tmp_path, "cara2.json", CARA2_GAME))
    assert set(cara) >= {"n_t_used", "marches", "root_sweeps"}
    assert cara["n_t_used"] >= 41 and cara["marches"] == 1
    assert set(cara["root_sweeps"]) == {"max", "mean"}


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


def _manifest_edit(change):
    """A manifest edit: the recorded manifest, as a dict, changed in place."""

    def edit(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)

    return edit


@pytest.mark.parametrize("edit, message", [
    (None, "no manifest next to"),
    (lambda text: "{oops", "cannot read"),
    (lambda text: "[1]", "holds no output_sha256 object"),
    (_manifest_edit(lambda doc: doc.update(output_sha256=list(doc["output_sha256"]))),
     "holds no output_sha256 object"),
    (_manifest_edit(lambda doc: doc["output_sha256"].pop("solution.npz")),
     "records no sha256 for solution.npz"),
], ids=["missing", "not_json", "not_object", "sha_list", "no_npz_sha"])
def test_simulate_unreadable_manifest_exit_5(config_path, tmp_path, capsys, edit, message):
    # the manifest is outside input: one simulate cannot read is a provenance
    # failure, named in the error, not a traceback
    out, simulate = _solve_and_simulate(config_path, tmp_path)
    manifest = out / "manifest.json"
    if edit is None:
        manifest.unlink()
    else:
        manifest.write_text(edit(manifest.read_text()))
    assert main(simulate) == 5
    err = capsys.readouterr().err
    assert message in err
    assert "manifest" in err


def test_simulate_solution_names_its_run(config_path, tmp_path, monkeypatch):
    # --solution names a run: a directory is the run itself and a file names
    # the directory that holds it; another run's files in the working
    # directory never stand in for it
    monkeypatch.chdir(tmp_path)

    def simulate(solution, out):
        assert main(["simulate", "--config", str(config_path), "--solution", solution,
                     "--paths", "50", "--seed", "1", "--out", out]) == 0
        return (tmp_path / out / "paths.csv").read_bytes()

    assert main(["solve", "--config", str(config_path), "--out", "run", "--grid", "41,41"]) == 0
    by_file = simulate("run/solution.csv", "by_file")
    assert simulate("run", "by_dir") == by_file
    assert main(["solve", "--config", str(config_path), "--out", ".", "--grid", "61,41"]) == 0
    assert simulate("run", "by_dir_again") == by_file
    assert simulate("solution.csv", "other") != by_file


@pytest.mark.parametrize("solution", ["no_such_run", "no_such_run/solution.csv"])
def test_simulate_solution_that_names_nothing_exits_1(config_path, tmp_path, monkeypatch, capsys,
                                                      solution):
    # a --solution that is neither a directory nor a file is a missing file,
    # named as given, even where the working directory holds a run of the config
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--config", str(config_path), "--out", ".", "--grid", "41,41"]) == 0
    capsys.readouterr()
    assert main(["simulate", "--config", str(config_path), "--solution", solution,
                 "--paths", "50", "--seed", "1", "--out", "sim"]) == 1
    assert capsys.readouterr().err == f"error: missing file: {solution}\n"
    assert not (tmp_path / "sim").exists()


def test_simulate_without_npz_exit_1(config_path, tmp_path, capsys):
    out, simulate = _solve_and_simulate(config_path, tmp_path)
    (out / "solution.npz").unlink()
    assert main(simulate) == 1
    assert "solution.npz" in capsys.readouterr().err


def test_simulate_drops_the_npz_bytes_once_loaded(config_path, tmp_path, monkeypatch):
    # the npz is hashed and loaded from one read of its bytes; once loaded,
    # the solution's arrays are all simulate holds of it, so the traced
    # memory when the paths start stays under them plus slack, well short of
    # them plus the npz (about as large again: 1.3 MB at 201 x 200)
    out = tmp_path / "sol"
    assert main(["solve", "--config", str(config_path), "--out", str(out),
                 "--grid", "201,200"]) == 0
    npz_bytes = (out / "solution.npz").stat().st_size
    held = []

    def recorded(sol, *args):
        held.append((tracemalloc.get_traced_memory()[0],
                     sum(getattr(sol, name).nbytes for name in SOLUTION_ARRAYS)))
        return simulate_paths(sol, *args)

    monkeypatch.setattr(illiq.cli, "simulate_paths", recorded)
    tracemalloc.start()
    try:
        assert main(["simulate", "--config", str(config_path), "--solution",
                     str(out / "solution.csv"), "--paths", "50", "--seed", "1",
                     "--out", str(tmp_path / "sim")]) == 0
    finally:
        tracemalloc.stop()
    (traced, arrays), = held
    assert npz_bytes > arrays > 1_000_000
    assert traced <= arrays + 256 * 1024


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
        # the minor page faults of the same stages, where the platform counts them
        if importlib.util.find_spec("resource"):
            assert sorted(manifest["page_faults"]) == sorted(stages)
            assert all(type(v) is int and v >= 0 for v in manifest["page_faults"].values())
        else:
            assert "page_faults" not in manifest
        assert list(manifest["output_sha256"]) == manifest["outputs"]
        for name, sha in manifest["output_sha256"].items():
            assert sha == file_sha256(run / name)
    # simulate also records its clamp fraction and path-steps, as plain numbers
    meta = json.loads((tmp_path / "sim" / "manifest.json").read_text())["meta"]
    summary = json.loads((tmp_path / "sim" / "summary.json").read_text())
    assert isinstance(meta["clamped_fraction"], float)
    assert meta["clamped_fraction"] == summary["clamped_fraction"]
    assert type(meta["path_steps"]) is int
    assert meta["path_steps"] == summary["n_paths"] * summary["n_steps"] == 50 * 500


def test_commands_load_no_scipy_submodule_they_do_not_use(config_path, tmp_path):
    # a fresh interpreter: importing the package and running check, simulate
    # and the closed and Picard solves on a linear-cost call leave the three
    # heavy submodules unloaded; the FD solve then loads scipy.linalg alone
    out, simulate = _solve_and_simulate(config_path, tmp_path)

    def solve(method):
        return ["solve", "--config", str(config_path), "--out", str(tmp_path / method),
                "--method", method, "--grid", "41,41"]

    code = (
        "import json, sys\n"
        "import illiq, illiq.cli\n"
        "heavy = ('scipy.fft', 'scipy.linalg', 'scipy.interpolate')\n"
        "loaded = lambda: [m for m in heavy if m in sys.modules]\n"
        "report = {'import': loaded()}\n"
        f"report['check'] = [illiq.cli.main(['check', '--config', {str(config_path)!r}]), loaded()]\n"
        f"report['simulate'] = [illiq.cli.main({simulate!r}), loaded()]\n"
        + "".join(f"report[{method!r}] = [illiq.cli.main({solve(method)!r}), loaded()]\n"
                  for method in ("closed", "picard", "fd"))
        + "print(json.dumps(report))\n"
    )
    src = str(Path(illiq.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"import": [], "check": [0, []], "simulate": [0, []], "closed": [0, []],
                      "picard": [0, []], "fd": [0, ["scipy.linalg"]]}


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


def test_sweep_cara2_passes(tmp_path):
    out = tmp_path / "cara2"
    path = _write(tmp_path, "cara2.json", CARA2_GAME)
    assert main(["sweep", "--config", str(path), "--out", str(out),
                 "--study", "cara2", "--grid", "81,60"]) == 0
    report = json.loads((out / "assertions.json").read_text())
    assert report["passed"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["sweep.csv", "sweep_grids.csv", "assertions.json"]
    assert report["game_hash"] == manifest["config_hash"]  # the game configured is solved


def test_sweep_fig5_spans_its_own_market(tmp_path):
    # fig5's config has sigma = 2: its grid spans p0 +/- 6 sigma sqrt(T) of
    # its own market, and --grid keeps that span
    out = tmp_path / "fig5"
    assert main(["sweep", "--config", str(FIGURES / "cara_plain.json"), "--out", str(out),
                 "--study", "cara2", "--grid", "41,21"]) == 0
    rows = np.loadtxt(out / "sweep_grids.csv", delimiter=",", skiprows=1)
    assert rows.shape[0] == 41
    assert (rows[0, 0], rows[-1, 0]) == (88.0, 112.0)


@pytest.mark.parametrize("study, values", [
    ("spread", ["0.0", "0.001", "0.002", "0.003", "0.004"]), ("split", ["1", "10", "100"])],
    ids=["spread", "split"])
def test_sweep_defaults_are_the_figures_values(config_path, tmp_path, study, values):
    # without --s or --N, the spread and split studies sweep the spreads of
    # fig3/fig4 and the player counts of fig6
    out = tmp_path / study
    assert main(["sweep", "--config", str(config_path), "--out", str(out),
                 "--study", study, "--grid", "41,21"]) == 0
    rows = [row.split(",") for row in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert list(dict.fromkeys(row[1] for row in rows)) == values


CARA_ONE = {**BASE, "players": [CARA_CALL]}
# a risk-neutral call holder against its risk-neutral issuer
RN_PAIR = {**BASE, "players": [
    BASE["players"][0], {**BASE["players"][0], "payoff": {"kind": "negated",
                                                          "inner": BASE["players"][0]["payoff"]}}]}
# cara2 solves CARA2_GAME: a third player, or an issuer of another payoff,
# is a game the study does not fit
CARA_THIRD = {**BASE, "players": [
    {"utility": {"kind": "risk_neutral"}, "payoff": {"kind": "smoothed_digital", "K": 100.0}},
    *CARA2_GAME["players"]]}
CARA_OTHER = {**BASE, "players": [
    CARA_CALL, {**CARA_CALL, "payoff": {"kind": "smoothed_digital", "K": 100.0}}]}


@pytest.mark.parametrize("doc, argv, code, message", [
    (CARA_ONE, ["--study", "zero_sum"], 3, "requires risk-neutral players"),
    (BASE, ["--study", "cara2"], 3, "exactly two CARA players"),
    (CARA_THIRD, ["--study", "cara2", "--grid", "81,60"], 3, "exactly two CARA players"),
    (CARA_OTHER, ["--study", "cara2", "--grid", "81,60"], 3, "exactly two CARA players"),
    # the paper's figures are configs under demos/figures, not studies
    (BASE, ["--study", "figure:fig9"], 1, "unknown study 'figure:fig9'; the studies are "
     "zero_sum, predator, split, spread, cara2"),
    (BASE, ["--study", "predator", "--N", "a"], 1, "--N expects"),
    (BASE, ["--study", "spread", "--s", "0,x"], 1, "--s expects"),
    # an empty list is a list with one empty entry, not a flag left out
    (BASE, ["--study", "split", "--N", ""], 1, "--N expects"),
    (BASE, ["--study", "spread", "--s", ""], 1, "--s expects"),
    (BASE, ["--study", "zero_sum", "--N", ""], 1, "--N expects"),
    (BASE, ["--study", "zero_sum", "--grid", "81,60,3"], 1, "--grid expects 'np,nt'"),
    (BASE, ["--study", "predator", "--N", "0,1"], 1, "N >= 1"),
    (BASE, ["--study", "split", "--N", "0,1"], 1, "N >= 1"),
    (BASE, ["--study", "spread", "--s", "0.001,0.0010000001"], 1,
     "swept values 0.001 and 0.0010000001 share the grid column suffix 's0.001'"),
    (BASE, ["--study", "split", "--N", "1,1"], 1, "swept values 1 and 1 share"),
    (BASE, ["--study", "spread", "--s", "0,nan"], 1, "s must be finite, got nan"),
    (BASE, ["--study", "spread", "--s", "inf"], 1, "s must be finite, got inf"),
    # a flag the study does not read is refused, not recorded as shaping its files
    (BASE, ["--study", "spread", "--N", "5,6", "--grid", "41,30"], 1, "--N sets the player "
     "counts of predator and split, not of 'spread'"),
    (BASE, ["--study", "predator", "--s", "0.1"], 1, "--s sets the spreads of the spread "
     "study, not of 'predator'"),
    # an unknown study is named as one before any flag it would not read
    (BASE, ["--study", "figure:fig1", "--N", "3"], 1, "unknown study 'figure:fig1'"),
    # predator and split solve risk-neutral games built from player 0's payoff
    (CARA_ONE, ["--study", "predator", "--N", "1,2", "--grid", "81,60"], 3,
     "predator study requires a risk-neutral player 0"),
    (CARA_ONE, ["--study", "split", "--N", "1,2", "--grid", "81,60"], 3,
     "split study requires a risk-neutral player 0"),
    # ... and would drop every other player of the config
    (RN_PAIR, ["--study", "predator", "--grid", "81,60"], 3,
     "predator study requires a single player, got 2"),
    (RN_PAIR, ["--study", "split", "--N", "1,2", "--grid", "81,60"], 3,
     "split study requires a single player, got 2"),
], ids=["study_game_mismatch", "cara2_no_cara_pair", "cara2_third_player",
        "cara2_other_payoff", "unknown_figure", "N_not_int", "s_not_float",
        "split_N_empty", "spread_s_empty", "zero_sum_N_empty", "grid_three_entries",
        "predator_N0", "split_N0", "s_shared_column", "N_repeated", "s_nan", "s_inf",
        "spread_N", "predator_s", "figure_N", "predator_cara", "split_cara",
        "predator_pair", "split_pair"])
def test_sweep_input_errors(tmp_path, capsys, doc, argv, code, message):
    path = _write(tmp_path, "game.json", doc)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "x"), *argv]) == code
    assert message in capsys.readouterr().err


def test_refused_sweep_names_the_study_not_the_method(tmp_path, capsys):
    # sweep takes no --method: a study that does not fit the game is a
    # study/game mismatch, with the exit code of a method/game one
    path = _write(tmp_path, "game.json", RN_PAIR)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "x"),
                 "--study", "predator", "--grid", "81,60"]) == 3
    assert capsys.readouterr().err.startswith(
        "study/game mismatch: predator study requires a single player, got 2")
    path = _write(tmp_path, "spread.json", {**BASE, **SPREAD_COST})
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "y"),
                 "--method", "closed"]) == 3
    assert capsys.readouterr().err.startswith("method/game mismatch: ")


def test_sweep_unknown_study(config_path, tmp_path):
    assert main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "x"),
                 "--study", "bogus"]) == 1


@pytest.mark.parametrize("flag", ["41,4", "3,60"])
def test_solve_rejects_grid_under_5x5(config_path, tmp_path, capsys, flag):
    out = tmp_path / "x"
    assert main(["solve", "--config", str(config_path), "--out", str(out), "--grid", flag]) == 1
    assert "at least a 5 x 5 grid" in capsys.readouterr().err
    assert not out.exists()


def test_bad_grid_flag(config_path, tmp_path):
    assert main(["solve", "--config", str(config_path), "--out", str(tmp_path / "x"),
                 "--grid", "nope"]) == 1


# one row per failure a command reports: the error raised, the exit code and
# the lead of the message, which check prints alone as its JSON "error"
FAILURES = [
    (FileNotFoundError("gone.json"), 1, "error: ", "missing file: gone.json"),
    (illiq.ConfigError("bad key"), 1, "error: ", "bad key"),
    (illiq.ValidationError("out of range"), 1, "error: ", "out of range"),
    (IsADirectoryError("a directory"), 1, "error: ", "a directory"),
    (illiq.CertificationError("slope"), 2, "certification failure: ", "slope"),
    (illiq.ClosedFormError("no closed form"), 3, "method/game mismatch: ", "no closed form"),
    (illiq.ExperimentError("no study"), 3, "study/game mismatch: ", "no study"),
    (illiq.cli.HashMismatch("other run"), 5, "hash mismatch: ", "other run"),
    (illiq.SolverError("diverged"), 4, "solver error: ", "diverged"),
    (illiq.SpeedSolverError("no root"), 4, "solver error: ", "no root"),
    (illiq.SimulationError("off the grid"), 4, "solver error: ", "off the grid"),
]


@pytest.mark.parametrize("error, code, lead, message", FAILURES,
                         ids=[type(row[0]).__name__ for row in FAILURES])
def test_every_failure_has_one_code_and_message(config_path, tmp_path, monkeypatch, capsys,
                                                error, code, lead, message):
    def fail(*args):
        raise error

    monkeypatch.setattr(illiq.cli, "solve_fd", fail)
    monkeypatch.setattr(illiq.cli, "certify_for_game", fail)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(config_path), "--out", str(out), "--grid", "41,41"]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"{lead}{message}\n")
    assert not out.exists()
    assert main(["check", "--config", str(config_path)]) == code
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"ok": False, "error": message}
    assert captured.err == ""


def test_a_fault_outside_the_failure_table_is_raised(config_path, tmp_path, monkeypatch):
    # a program fault is no input failure: it keeps its traceback
    def fail(*args):
        raise KeyError("fault")

    monkeypatch.setattr(illiq.cli, "solve_fd", fail)
    with pytest.raises(KeyError, match="fault"):
        main(["solve", "--config", str(config_path), "--out", str(tmp_path / "run"),
              "--grid", "41,41"])


def _refuse_simulate(monkeypatch):
    def refuse(*args):
        raise illiq.SimulationError("5.00% of path-steps left the price grid")

    monkeypatch.setattr(illiq.cli, "simulate_paths", refuse)


@pytest.mark.parametrize("doc, argv, code, patch", [
    ({**BASE, **SPREAD_COST}, ["solve", "--method", "closed", "--grid", "41,41"], 3, None),
    (RN_PAIR, ["sweep", "--study", "predator", "--grid", "41,41"], 3, None),
    (BASE, ["sweep", "--study", "bogus"], 1, None),
    (BASE, ["simulate", "--paths", "50"], 4, _refuse_simulate),
], ids=["closed_spread_cost", "predator_pair", "unknown_study", "simulate_refused"])
def test_refused_command_leaves_no_out_directory(tmp_path, monkeypatch, doc, argv, code, patch):
    # --out is made on a command's first write, so a refused one leaves none
    path = str(_write(tmp_path, "game.json", doc))
    if argv[0] == "simulate":
        assert main(["solve", "--config", path, "--out", str(tmp_path / "sol"),
                     "--grid", "41,41"]) == 0
        argv = [*argv, "--solution", str(tmp_path / "sol")]
    if patch is not None:
        patch(monkeypatch)
    out = tmp_path / "x"
    assert main([*argv, "--config", path, "--out", str(out)]) == code
    assert not out.exists()
