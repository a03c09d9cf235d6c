"""Command-line entry point.

Subcommands
    check      validate a config and certify its cost function
    solve      solve a game (fd, picard or closed form) and dump CSV grids,
               plus the solution in binary (solution.npz)
    simulate   Monte-Carlo paths under a previously solved strategy field,
               loaded from the solution.npz of the run --solution names:
               that directory, or the one holding the file it names (a
               --solution that is neither is a missing file)
    sweep      run one of the scripted studies and assert its claims; the
               study, its inputs and the games it fits are ``run_study``'s;
               every study writes sweep.csv, sweep_grids.csv (when it has
               rows over the price grid) and assertions.json

Exit codes: 0 ok; 4 also for a solve whose speeds exceed the a-priori bound
(its outputs are still written); 6 a sweep assertion failure.  Every other
failure takes its code and the lead of its one-line message from
``_FAILURES``: 1 parse/missing input (also a usage error, an empty list
flag, a file-system error such as an --out that is a file, and a solve grid
under 5 x 5), 2 certification failure, 3 method/game or study/game
mismatch, 4 solver error, 5 solution/config hash mismatch (or a
solution.npz whose SHA-256 differs from its manifest's, or a manifest
simulate cannot read).  ``check`` prints the message as the "error" of its
{"ok": false} JSON report on stdout, the other commands on stderr.  A
command makes its --out directory on its first write, so a refused command
leaves none.

Each command's manifest.json is the plain dict its ``_Run`` builds: as
``command`` the subcommand with every option that shapes its outputs (all
but the --config, --solution and --out paths), the SHA-256 of each output
it lists as ``output_sha256``, the seconds of each stage as ``timings_s``
(and, where the ``resource`` module exists, the minor page faults of each
as ``page_faults``) and other measurements as ``meta``: for solve the plain
numbers of the solution's ``meta`` (``speed_bound``, ``root_tol``; fd's
``n_t_requested``, ``n_t_used`` and ``root_sweeps``; Picard's ``tau``,
``tau_halvings``, ``sublayers``, ``n_t_used`` and ``iterations`` per
step), for a sweep its result's ``meta`` (the spread and cara2 studies
their march's ``n_t_used``, ``marches`` and ``root_sweeps``), for simulate
its ``clamped_fraction`` and the ``path_steps`` it ran.
Every CSV goes through ``manifest``: ``write_csv`` for the lattices and
grids, ``write_sweep_csv`` for a study's metrics table.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import numpy as np

from . import __version__
from .closedform import ClosedFormError
from .experiments import ExperimentError, SweepResult, run_study
from .manifest import digest, file_sha256, write_csv, write_manifest, write_sweep_csv
from .model import (
    ConfigError,
    GameSpec,
    GridSpec,
    ValidationError,
    game_to_dict,
    grid_to_dict,
    load_config,
)
from .pdesolve import (
    SolverError,
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
from .speeds import CertificationError, SpeedSolverError, certify_for_game

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


class HashMismatch(RuntimeError):
    pass


# every failure a command reports, matched in order: its exit code, the lead
# of its stderr line and the lead of the message itself, which is all check
# prints as the "error" of its {"ok": false} report
_FAILURES = (
    (FileNotFoundError, EXIT_PARSE, "error", "missing file: "),
    ((ConfigError, ValidationError, OSError), EXIT_PARSE, "error", ""),
    (CertificationError, EXIT_CERTIFICATION, "certification failure", ""),
    (ClosedFormError, EXIT_METHOD, "method/game mismatch", ""),
    (ExperimentError, EXIT_METHOD, "study/game mismatch", ""),
    (HashMismatch, EXIT_HASH, "hash mismatch", ""),
    ((SolverError, SpeedSolverError, SimulationError), EXIT_SOLVER, "solver error", ""),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2), which collides with cert failures
        raise ConfigError(message)


class _Run:
    """One command's record, made on its first line: the seconds of each stage
    (``timed``) and what else it measured (``meta``), as plain numbers.
    ``path`` names each file the command writes in ``--out``, and ``finish``
    hashes them and writes the record as ``manifest.json``."""

    def __init__(self, args):
        self.args, self.start = args, time.time()
        self.out = Path(args.out) if vars(args).get("out") is not None else None
        if self.out is not None:
            # the error making --out would raise, raised before the command's work
            taken = next(p for p in (self.out, *self.out.parents) if p.exists())
            if not taken.is_dir():
                code = errno.EEXIST if taken == self.out else errno.ENOTDIR
                raise OSError(code, os.strerror(code), str(self.out))
        self.hashes: dict = {}
        self.timings_s: dict = {}
        self.page_faults: dict = {}
        self.meta: dict = {}

    def read_config(self) -> tuple[GameSpec, GridSpec]:
        """The config's game and grid, with ``--grid`` applied where the command
        has it.  The hashes digest the grid the config gives, so ``simulate``
        matches its own config against a solve run with ``--grid``."""
        game, grid = load_config(Path(self.args.config).read_text())
        self.hashes = {"config_hash": digest(game_to_dict(game)),
                       "grid_hash": digest(grid_to_dict(grid))}
        flag = vars(self.args).get("grid")
        if flag is None:
            return game, grid
        size = _csv_list(flag, int, "--grid")
        if len(size) != 2:
            raise ConfigError(f"--grid expects 'np,nt', got {flag!r}")
        return game, replace(grid, n_p=size[0], n_t=size[1])

    def path(self, name: str) -> Path:
        """``name`` in ``--out``, which is made here, on the command's first
        write, so a refused command leaves no directory behind."""
        self.out.mkdir(parents=True, exist_ok=True)
        return self.out / name

    @contextmanager
    def timed(self, stage: str):
        """Record the seconds the block takes as the stage ``stage``, and the
        minor page faults it takes where ``resource`` counts them."""
        faults = _minor_faults()
        t0 = time.perf_counter()
        yield
        self.timings_s[stage] = time.perf_counter() - t0
        if faults is not None:
            self.page_faults[stage] = _minor_faults() - faults

    def finish(self, outputs) -> Path:
        """``manifest.json`` in ``--out`` for the files ``outputs`` there, each
        with its SHA-256; hashing is timed as the stage ``sha256``."""
        with self.timed("sha256"):
            sha = {name: file_sha256(self.out / name) for name in outputs}
        # the subcommand and each option it was given or defaulted, as typed,
        # but for the paths, which say where files are rather than what they hold
        options = [f"--{dest} {value}" for dest, value in vars(self.args).items()
                   if dest not in ("command", "config", "solution", "out") and value is not None]
        path = self.path("manifest.json")
        write_manifest({"command": " ".join([self.args.command, *options]), **self.hashes,
                        "seed": vars(self.args).get("seed"), "tool_version": __version__,
                        "wall_time_s": time.time() - self.start, "outputs": list(sha),
                        "output_sha256": sha, "timings_s": self.timings_s,
                        **({"page_faults": self.page_faults} if resource else {}),
                        "meta": self.meta}, path)
        return path


def _csv_list(raw: str, cast, flag: str):
    try:
        return tuple(cast(v) for v in raw.split(","))
    except ValueError as err:
        raise ConfigError(f"{flag} expects comma-separated {cast.__name__} values, "
                          f"got {raw!r}") from err


def _minor_faults() -> int | None:
    """The process's minor page faults so far; None where ``resource`` is missing."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt if resource else None


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    run = _Run(args)
    game, _ = run.read_config()
    cert, bound = certify_for_game(game)
    report = {
        "ok": True,
        **run.hashes,
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


def _plain_numbers(meta: dict) -> dict:
    """The entries of a solver's ``meta`` that are numbers or dicts of numbers
    (``root_sweeps``), for the run manifest."""
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    return {k: v for k, v in meta.items()
            if number(v) or (isinstance(v, dict) and v and all(map(number, v.values())))}


def cmd_solve(args) -> int:
    run = _Run(args)
    game, grid = run.read_config()
    if grid.n_p < 5 or grid.n_t < 5:  # the residual's central differences need them
        raise ConfigError(f"solve needs at least a 5 x 5 grid, "
                          f"got {grid.n_p} x {grid.n_t} (np x nt)")

    solve = {"fd": solve_fd, "picard": solve_picard, "closed": solve_closed}[args.method]
    with run.timed("solve"):
        sol = solve(game, grid)

    run.meta.update(_plain_numbers(sol.meta))
    bound = sol.meta["speed_bound"]
    with run.timed("residual"):
        rep = residual(sol, game)
    layer_max = np.max(np.abs(sol.speeds), axis=(0, 2))
    max_speed = float(np.max(layer_max))
    bound_ok = max_speed <= bound + 1e-6

    sol_path, npz_path, surp_path = map(run.path, ("solution.csv", SOLUTION_NPZ, "surplus.csv"))
    with run.timed(f"write {sol_path.name}"):
        write_solution_csv(sol, sol_path)
    with run.timed(f"write {npz_path.name}"):
        write_solution_npz(sol, npz_path)
    idx = _surplus_time_indices(sol.times.size)
    with run.timed("surplus"):
        surp = surplus(sol, game, time_indices=idx)
    with run.timed(f"write {surp_path.name}"):
        write_csv(surp_path, (("t", sol.times[idx]), ("p", sol.prices)),
                  {f"surplus_{j+1}": surp[j] for j in range(sol.n_players)})
    manifest_path = run.finish([sol_path.name, npz_path.name, surp_path.name])
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
    run = _Run(args)
    if args.paths < 2:
        raise ConfigError(f"--paths must be >= 2 for a standard error, got {args.paths}")
    if not 0 <= args.seed < SEED_LIMIT:
        raise ConfigError(f"--seed must be in [0, 2**128), the Philox key range, got {args.seed}")
    game, grid = run.read_config()
    run_dir = Path(args.solution)  # a run directory, or a file in one
    if not run_dir.exists():
        raise FileNotFoundError(args.solution)
    if not run_dir.is_dir():
        run_dir = run_dir.parent
    npz_path, manifest_path = run_dir / SOLUTION_NPZ, run_dir / "manifest.json"
    if not npz_path.is_file():
        raise FileNotFoundError(f"{npz_path} (written by illiq solve)")
    if not manifest_path.is_file():
        raise HashMismatch(f"no manifest next to {npz_path}; cannot verify provenance")
    try:
        recorded = json.loads(manifest_path.read_text())
    except ValueError as err:  # not JSON, or not UTF-8
        raise HashMismatch(f"cannot read {manifest_path}: {err}") from err
    sha = recorded.get("output_sha256", {}) if isinstance(recorded, dict) else None
    if not isinstance(sha, dict):
        raise HashMismatch(f"{manifest_path} is no run manifest: it holds no output_sha256 object")
    if any(recorded.get(key) != value for key, value in run.hashes.items()):
        raise HashMismatch("solution manifest hashes do not match the config")
    with run.timed(f"verify {SOLUTION_NPZ}"):
        expected = sha.get(SOLUTION_NPZ)
        if expected is None:
            raise HashMismatch(f"{manifest_path} records no sha256 for {SOLUTION_NPZ}")
        data = npz_path.read_bytes()  # hashed and loaded from the same bytes
        if hashlib.sha256(data).hexdigest() != expected:
            raise HashMismatch(f"{npz_path} differs from the sha256 its manifest records")
    with run.timed("load"):
        sol = read_solution_npz(data, grid)  # views into the bytes hashed

    with run.timed("simulate_paths"):
        bundle = simulate_paths(sol, game, args.paths, args.seed, DEFAULT_SIM_STEPS)
    means, ses = realized_objectives(bundle)
    with run.timed("mc_consistency"):
        z = mc_consistency(bundle, sol)
    paths_path = run.path("paths.csv")
    with run.timed(f"write {paths_path.name}"):
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
    summary_path = run.path("summary.json")
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    run.meta.update(clamped_fraction=bundle.clamped_fraction,
                    path_steps=bundle.n_paths * DEFAULT_SIM_STEPS)
    run.finish([paths_path.name, summary_path.name])
    print(json.dumps(summary["players"]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_outputs(result: SweepResult, run: _Run) -> list:
    """Write a study's files and return the names of those written:
    ``sweep.csv`` for the metrics and, when the study has rows over the price
    grid, ``sweep_grids.csv`` for them."""
    write_sweep_csv(run.path("sweep.csv"), result.param, result.values, result.metrics)
    rows = {k: v for k, v in result.grids.items() if k != "prices"}
    if not rows:
        return ["sweep.csv"]
    write_csv(run.path("sweep_grids.csv"), (("prices", result.grids["prices"]),), rows)
    return ["sweep.csv", "sweep_grids.csv"]


def cmd_sweep(args) -> int:
    run = _Run(args)
    game, grid = run.read_config()
    ns = _csv_list(args.N, int, "--N") if args.N is not None else None
    spreads = _csv_list(args.s, float, "--s") if args.s is not None else None
    with run.timed("study"):
        result = run_study(args.study, game, grid, ns, spreads)
    outputs = _sweep_outputs(result, run)
    run.meta.update(result.meta)
    failing = [k for k, ok in result.assertions.items() if not ok]
    report = {"assertions": result.assertions, "passed": result.passed, "failing": failing,
              "game_hash": result.game_hash, "grid_hash": result.grid_hash}

    report_path = run.path("assertions.json")
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    outputs.append(report_path.name)
    run.finish(outputs)
    if not result.passed:
        print(f"sweep assertions failed: {', '.join(failing)}", file=sys.stderr)
        return EXIT_ASSERTION
    print(f"sweep '{args.study}' passed; outputs in {run.out}")
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
    p_sweep.add_argument("--N", default=None, metavar="CSVLIST")
    p_sweep.add_argument("--s", default=None, metavar="CSVLIST")
    p_sweep.add_argument("--grid", default=None, metavar="np,nt")
    return parser


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        # looked up by name at each call, so a patched cmd_<command> is the one run
        return globals()[f"cmd_{args.command}"](args)
    except Exception as err:
        row = next((row for row in _FAILURES if isinstance(err, row[0])), None)
        if row is None:  # a fault of the program, not a failure it reports
            raise
        _, code, lead, detail = row
        if args is not None and args.command == "check":
            print(json.dumps({"ok": False, "error": f"{detail}{err}"}))
        else:
            print(f"{lead}: {detail}{err}", file=sys.stderr)
        return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
