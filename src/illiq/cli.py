"""Command-line entry point.

Subcommands
    check      validate a config and certify its cost function
    solve      solve a game (fd, picard or closed form) and dump CSV grids,
               plus the solution in binary (solution.npz)
    simulate   Monte-Carlo paths under a previously solved strategy field,
               loaded from the solution.npz next to --solution
    sweep      run one of the scripted studies and assert its claims

Exit codes: 0 ok, 1 parse/missing input, 2 certification failure,
3 method/game or study/game mismatch, 4 solver error (including a solve
whose speeds exceed the a-priori bound; its outputs are still written),
5 solution/config hash mismatch (or a solution.npz whose SHA-256 differs
from its manifest's), 6 sweep assertion failure.

Every manifest.json records the validated ILLIQ_THREADS cap as ``threads``,
the SHA-256 of each output it lists as ``output_sha256`` and the seconds of
each stage as ``timings_s``.
Numeric CSVs go through ``pdesolve._write_table`` or ``_write_lattice_csv``;
only the sweep metrics table, whose value column mixes numbers and empty
cells, is written by hand, its numbers in ``pdesolve.CSV_FLOAT``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .closedform import ClosedFormError
from .experiments import (
    PLAYER_COUNTS,
    SHARPNESS,
    SPREADS,
    ExperimentError,
    SweepResult,
    cara_two_player_study,
    figure_grids,
    predator_sweep,
    split_sweep,
    spread_sweep,
    zero_sum_report,
)
from .manifest import RunManifest, digest, file_sha256, read_manifest, write_manifest
from .model import (
    ConfigError,
    GameSpec,
    GridSpec,
    SmoothedSpreadCost,
    ValidationError,
    game_to_dict,
    grid_to_dict,
    load_config,
)
from .pdesolve import (
    CSV_FLOAT,
    SolverError,
    _write_lattice_csv,
    _write_table,
    read_solution_npz,
    residual,
    solve_closed,
    solve_fd,
    solve_picard,
    surplus,
    write_solution_csv,
    write_solution_npz,
)
from .simulate import (
    SEED_LIMIT,
    SimulationError,
    mc_consistency,
    realized_objectives,
    simulate_paths,
    write_paths_csv,
)
from .speeds import CertificationError, SpeedSolverError, apriori_speed_bound, certify_for_game

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CERTIFICATION = 2
EXIT_METHOD = 3
EXIT_SOLVER = 4
EXIT_HASH = 5
EXIT_ASSERTION = 6

DEFAULT_SIM_STEPS = 500
SURPLUS_MAX_LAYERS = 201  # surplus.csv thins the time axis to at most this many layers
SOLUTION_NPZ = "solution.npz"  # what simulate loads, next to the --solution it is given


class MethodMismatch(RuntimeError):
    pass


class HashMismatch(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2), which collides with cert failures
        raise ConfigError(message)


def worker_cap() -> int:
    """Worker count cap from ILLIQ_THREADS (the library itself runs
    sequentially for determinism, so any positive cap is honored)."""
    raw = os.environ.get("ILLIQ_THREADS")
    if raw is None:
        return 1
    try:
        cap = int(raw)
    except ValueError as err:
        raise ConfigError(f"ILLIQ_THREADS must be an integer, got {raw!r}") from err
    if cap < 1:
        raise ConfigError("ILLIQ_THREADS must be >= 1")
    return cap


def _read_config(path: str) -> tuple[GameSpec, GridSpec, str, str]:
    text = Path(path).read_text()
    game, grid = load_config(text)
    return game, grid, digest(game_to_dict(game)), digest(grid_to_dict(grid))


def _apply_grid_flag(grid: GridSpec, flag: str | None) -> GridSpec:
    if flag is None:
        return grid
    try:
        n_p, n_t = (int(v) for v in flag.split(","))
    except Exception as err:
        raise ConfigError("--grid expects 'np,nt'") from err
    return replace(grid, n_p=n_p, n_t=n_t)


@contextmanager
def _timed(timings: dict, stage: str):
    """Record the seconds the block takes as ``timings[stage]``."""
    t0 = time.perf_counter()
    yield
    timings[stage] = time.perf_counter() - t0


def _write_run_manifest(out: Path, command: str, config_hash: str, grid_hash: str, seed,
                        t0: float, outputs, timings: dict) -> Path:
    """``out/manifest.json`` for the files ``outputs`` in ``out``, each with its
    SHA-256; hashing them is timed as the stage ``sha256``."""
    with _timed(timings, "sha256"):
        sha = {str(name): file_sha256(out / name) for name in outputs}
    path = out / "manifest.json"
    write_manifest(RunManifest(
        command=command,
        config_hash=config_hash,
        grid_hash=grid_hash,
        seed=seed,
        tool_version=__version__,
        wall_time_s=time.time() - t0,
        outputs=tuple(sha),
        threads=worker_cap(),
        output_sha256=sha,
        timings_s=timings,
    ), path)
    return path


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    try:
        game, grid, config_hash, grid_hash = _read_config(args.config)
    except FileNotFoundError as err:
        print(json.dumps({"ok": False, "error": f"missing file: {err}"}))
        return EXIT_PARSE
    except (ConfigError, ValidationError) as err:
        print(json.dumps({"ok": False, "error": str(err)}))
        return EXIT_PARSE
    try:
        cert = certify_for_game(game)
        bound = apriori_speed_bound(game, cert)
    except CertificationError as err:
        print(json.dumps({"ok": False, "error": str(err)}))
        return EXIT_CERTIFICATION
    report = {
        "ok": True,
        "config_hash": config_hash,
        "grid_hash": grid_hash,
        "n_players": game.n_players,
        "eps_floor": cert.eps_floor,
        "marginal_monotone": cert.marginal_monotone,
        "working_interval": [cert.z_lo, cert.z_hi],
        "speed_bound": bound,
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _surplus_time_indices(n_t: int):
    if n_t <= SURPLUS_MAX_LAYERS:
        return list(range(n_t))
    return sorted(set(np.linspace(0, n_t - 1, SURPLUS_MAX_LAYERS).round().astype(int).tolist()))


def cmd_solve(args) -> int:
    t0 = time.time()
    game, grid, config_hash, grid_hash = _read_config(args.config)
    grid = _apply_grid_flag(grid, args.grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    solve = {"fd": solve_fd, "picard": solve_picard, "closed": solve_closed}[args.method]
    timings: dict = {}
    with _timed(timings, "solve"):
        sol = solve(game, grid)

    bound = sol.meta["speed_bound"]
    with _timed(timings, "residual"):
        rep = residual(sol, game)
    layer_max = np.max(np.abs(sol.speeds), axis=(0, 2))
    max_speed = float(np.max(layer_max))
    bound_ok = max_speed <= bound + 1e-6

    sol_path, npz_path, surp_path = out / "solution.csv", out / SOLUTION_NPZ, out / "surplus.csv"
    with _timed(timings, f"write {sol_path.name}"):
        write_solution_csv(sol, sol_path)
    with _timed(timings, f"write {npz_path.name}"):
        write_solution_npz(sol, npz_path)
    idx = _surplus_time_indices(sol.times.size)
    with _timed(timings, "surplus"):
        surp = surplus(sol, game, time_indices=idx)
    with _timed(timings, f"write {surp_path.name}"):
        _write_lattice_csv(surp_path, ("t", sol.times[idx]), ("p", sol.prices),
                           {f"surplus_{j+1}": surp[j] for j in range(sol.n_players)})
    manifest_path = _write_run_manifest(
        out, f"solve --method {args.method}", config_hash, grid_hash, None, t0,
        [sol_path.name, npz_path.name, surp_path.name], timings)
    print(f"max interior residual: {rep.overall:.6g}")
    print(f"speed bound check: max |speed| = {max_speed:.6g} vs bound {bound:.6g} "
          f"-> {'PASS' if bound_ok else 'FAIL'}")
    if not bound_ok:
        over = np.flatnonzero(~(layer_max <= bound + 1e-6))
        k = int(over[0])
        print(f"speed bound first exceeded at time layer {k} (t = {sol.times[k]:.6g}): "
              f"max |speed| = {layer_max[k]:.6g}; {over.size} of {layer_max.size} layers exceed it")
    print(f"wrote {sol_path} {npz_path} {surp_path} {manifest_path}")
    return EXIT_OK if bound_ok else EXIT_SOLVER


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    t0 = time.time()
    if args.paths < 2:
        raise ConfigError(f"--paths must be >= 2 for a standard error, got {args.paths}")
    if not 0 <= args.seed < SEED_LIMIT:
        raise ConfigError(f"--seed must be in [0, 2**128), the Philox key range, got {args.seed}")
    game, grid, config_hash, grid_hash = _read_config(args.config)
    sol_path = Path(args.solution)
    npz_path = sol_path.parent / SOLUTION_NPZ
    if not npz_path.is_file():
        raise FileNotFoundError(f"{npz_path} (written by illiq solve)")
    manifest_path = sol_path.parent / "manifest.json"
    if not manifest_path.exists():
        raise HashMismatch(f"no manifest next to {sol_path}; cannot verify provenance")
    recorded = read_manifest(manifest_path)
    if recorded.get("config_hash") != config_hash or recorded.get("grid_hash") != grid_hash:
        raise HashMismatch("solution manifest hashes do not match the config")
    timings: dict = {}
    with _timed(timings, f"verify {SOLUTION_NPZ}"):
        expected = recorded.get("output_sha256", {}).get(SOLUTION_NPZ)
        if expected is None:
            raise HashMismatch(f"{manifest_path} records no sha256 for {SOLUTION_NPZ}")
        data = npz_path.read_bytes()  # hashed and loaded from the same bytes
        if hashlib.sha256(data).hexdigest() != expected:
            raise HashMismatch(f"{npz_path} differs from the sha256 its manifest records")
    with _timed(timings, "load"):
        sol = read_solution_npz(io.BytesIO(data), grid)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with _timed(timings, "simulate_paths"):
        bundle = simulate_paths(sol, game, args.paths, args.seed, DEFAULT_SIM_STEPS)
    means, ses = realized_objectives(bundle)
    with _timed(timings, "mc_consistency"):
        z = mc_consistency(bundle, sol)
    paths_path = out / "paths.csv"
    with _timed(timings, f"write {paths_path.name}"):
        write_paths_csv(bundle, paths_path)
    summary = {
        "n_paths": bundle.n_paths,
        "n_steps": DEFAULT_SIM_STEPS,
        "seed": args.seed,
        "clamped_fraction": bundle.clamped_fraction,
        "players": [
            {"mean": float(means[j]), "se": float(ses[j]), "z": float(z[j])}
            for j in range(bundle.n_players)
        ],
    }
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    _write_run_manifest(out, "simulate", config_hash, grid_hash, args.seed, t0,
                        [paths_path.name, summary_path.name], timings)
    print(json.dumps(summary["players"]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _csv_list(raw: str, cast, flag: str):
    try:
        return tuple(cast(v) for v in raw.split(","))
    except ValueError as err:
        raise ConfigError(f"{flag} expects comma-separated {cast.__name__} values, "
                          f"got {raw!r}") from err


def _write_sweep_csv(result: SweepResult, path) -> None:
    lines = ["param,value,metric,metric_value"]
    for name, arr in result.metrics.items():
        vals = np.atleast_1d(arr)
        if vals.size == len(result.values):
            for v, m in zip(result.values, vals):
                lines.append(f"{result.param},{v},{name},{CSV_FLOAT % m}")
        else:
            for m in vals:
                lines.append(f"{result.param},,{name},{CSV_FLOAT % m}")
    Path(path).write_text("\n".join(lines) + "\n")


def _sweep_outputs(result: SweepResult, out: Path, prefix: str) -> list:
    """Write one study's files and return the names of those written:
    ``<prefix>.csv`` for the metrics, ``<prefix>_grids.csv`` for the 1-D grids
    (when any besides the price axis) and ``<prefix>_<name>.csv`` in long
    ``<param>,p,<name>`` form for each 2-D grid."""
    written = []
    if result.metrics:
        _write_sweep_csv(result, out / f"{prefix}.csv")
        written.append(f"{prefix}.csv")
    one_d = {k: np.asarray(v) for k, v in result.grids.items() if np.ndim(v) == 1}
    if set(one_d) - {"prices"}:
        _write_table(out / f"{prefix}_grids.csv", list(one_d),
                     [np.column_stack(list(one_d.values()))])
        written.append(f"{prefix}_grids.csv")
    for name, arr in result.grids.items():
        if np.ndim(arr) == 2:
            _write_lattice_csv(out / f"{prefix}_{name}.csv", (result.param, result.values),
                               ("p", result.grids["prices"]), {name: arr})
            written.append(f"{prefix}_{name}.csv")
    return written


def _run_study(study: str, game: GameSpec, grid: GridSpec, args):
    """One SweepResult, or several keyed by name (fig5, fig6)."""
    if study == "zero_sum":
        return zero_sum_report(game, grid)
    if study in ("predator", "split"):
        ns = _csv_list(args.n_list, int, "--N") if args.n_list else PLAYER_COUNTS
        fn = predator_sweep if study == "predator" else split_sweep
        return fn(game.players[0].endowment, ns, game, grid)
    if study == "spread":
        spreads = _csv_list(args.s_list, float, "--s") if args.s_list else SPREADS
        sharpness = game.cost.sharpness if isinstance(game.cost, SmoothedSpreadCost) else SHARPNESS
        return spread_sweep(game, spreads, sharpness, grid)
    if study == "cara2":
        alphas = [a for a in game.alphas if a > 0.0]
        if len(alphas) != 2:
            raise MethodMismatch("cara2 study needs a config with exactly two CARA players")
        return cara_two_player_study(alphas, game, grid)
    if study.startswith("figure:"):
        try:
            return figure_grids(study.split(":", 1)[1], grid)
        except ExperimentError as err:  # figures build their own games: a bad figure id
            raise ConfigError(str(err)) from err
    raise ConfigError(f"unknown study '{study}'")


def cmd_sweep(args) -> int:
    t0 = time.time()
    game, grid, config_hash, grid_hash = _read_config(args.config)
    grid = _apply_grid_flag(grid, args.grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    study = args.study
    timings: dict = {}
    with _timed(timings, "study"):
        data = _run_study(study, game, grid, args)
    results = data if isinstance(data, dict) else {"": data}
    prefix = study.split(":", 1)[1] if study.startswith("figure:") else "sweep"

    outputs: list = []
    assertions: dict = {}
    for key, result in results.items():
        outputs += _sweep_outputs(result, out, f"{prefix}_{key}" if key else prefix)
        assertions.update({f"{key}.{k}" if key else k: ok for k, ok in result.assertions.items()})
    report = {"assertions": assertions, "passed": all(assertions.values()),
              "failing": [k for k, ok in assertions.items() if not ok]}
    if len(results) == 1:
        (result,) = results.values()
        report.update(game_hash=result.game_hash, grid_hash=result.grid_hash)

    report_path = out / "assertions.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    outputs.append(report_path.name)
    _write_run_manifest(out, f"sweep --study {study}", config_hash, grid_hash, None, t0,
                        outputs, timings)
    if not report["passed"]:
        print(f"sweep assertions failed: {', '.join(report['failing'])}", file=sys.stderr)
        return EXIT_ASSERTION
    print(f"sweep '{study}' passed; outputs in {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="illiq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", description="validate a config and certify its cost")
    p_check.add_argument("--config", required=True)

    p_solve = sub.add_parser("solve", description="solve a game and write CSV grids")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", required=True)
    p_solve.add_argument("--method", choices=("fd", "picard", "closed"), default="fd")
    p_solve.add_argument("--grid", default=None, metavar="np,nt")

    p_sim = sub.add_parser("simulate", description="Monte-Carlo paths under a solved strategy")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--solution", required=True)
    p_sim.add_argument("--paths", type=int, default=10000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)

    p_sweep = sub.add_parser("sweep", description="run a scripted study")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--study", required=True)
    p_sweep.add_argument("--N", dest="n_list", default=None, metavar="CSVLIST")
    p_sweep.add_argument("--s", dest="s_list", default=None, metavar="CSVLIST")
    p_sweep.add_argument("--grid", default=None, metavar="np,nt")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        worker_cap()  # validate the env var early
        if args.command == "check":
            return cmd_check(args)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        return cmd_sweep(args)
    except FileNotFoundError as err:
        print(f"error: missing file: {err}", file=sys.stderr)
        return EXIT_PARSE
    except (ConfigError, ValidationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except CertificationError as err:
        print(f"certification failure: {err}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except (MethodMismatch, ClosedFormError, ExperimentError) as err:
        print(f"method/game mismatch: {err}", file=sys.stderr)
        return EXIT_METHOD
    except HashMismatch as err:
        print(f"hash mismatch: {err}", file=sys.stderr)
        return EXIT_HASH
    except (SolverError, SpeedSolverError, SimulationError) as err:
        print(f"solver error: {err}", file=sys.stderr)
        return EXIT_SOLVER


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
