"""The four benchmark workloads: inputs, the timed flow, and the output checks.

Each workload is a user flow that loads a different layer of ``illiq``:

* ``fd_call``       ``illiq solve --method fd`` on the README's config (the
                    paper's benchmark call) at 201 x 1100: the linear-cost speed
                    root and the solution CSV.
* ``spread_sweep``  ``illiq sweep --study spread`` at 401 x 150: five FD solves
                    whose nonlinear speed roots do almost all the work, with no
                    residual and no large CSV.
* ``n2_oracles``    ``illiq solve --method closed`` then ``--method picard`` on
                    the two-player predator game at 121 x 161: heat-kernel
                    quadrature (Duhamel sum and Picard convolutions).
* ``call_mc``       ``simulate_paths`` plus ``mc_consistency`` at 20 000 paths x
                    500 steps on a solved benchmark call: the Monte-Carlo loop.

A workload's ``flow`` is what is timed.  ``check`` runs afterwards, untimed,
and compares the outputs with an oracle; its references are not part of
set-up either.  Flows call the package through module attributes
(``cli.main``, ``simulate.simulate_paths``) so that the traced run sees the
wrapped names.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np

import illiq
from illiq import cli, simulate
from illiq.closedform import central_gradient

# c01 and c09 gate these figures at 1e-2; Monte Carlo fails beyond 4 standard
# errors or when more than 1% of path-steps leave the price grid
ORACLE_GATE = 1e-2
MC_Z_GATE = 4.0
MC_CLAMP_GATE = 0.01

_BOUND_FAIL = re.compile(r"^speed bound check: .*-> FAIL$", re.MULTILINE)
_BOUND_PASS = re.compile(r"^speed bound check: .*-> PASS$", re.MULTILINE)

_MARKET = {"sigma": 1.0, "lambda": 0.01, "T": 1.0, "p0": 100.0}
_RN = {"kind": "risk_neutral"}
# smoke runs smooth the call's kink more, so that toy lattices resolve it
_WIDTH = {False: 0.05, True: 0.4}


def _call(smoke: bool) -> dict:
    """The README's call; cap and width default to 10 and 0.05 at sigma = T = 1."""
    return {"kind": "smoothed_call", "K": 100.0, **({"width": _WIDTH[True]} if smoke else {})}


def _config(cost: dict, players: list, grid: dict | None = None) -> dict:
    """The README's config, with another cost, players or grid section."""
    return {
        "market": dict(_MARKET),
        "cost": cost,
        "players": players,
        "grid": grid or {"p_min": 94.0, "p_max": 106.0, "n_p": 401, "n_t": 2000,
                         "quad_nodes": 128},
    }


def _cli(argv: list) -> tuple[int, str, str]:
    """Run the ``illiq`` command in-process, capturing what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _solve_notes(stdout: str, outdir: Path) -> list:
    """Checks on one ``illiq solve``: a solve that prints a failed
    speed-bound check still exits 0, so the line is read."""
    notes = [f"{name} missing" for name in ("solution.csv", "surplus.csv", "manifest.json")
             if not (outdir / name).is_file()]
    if _BOUND_FAIL.search(stdout):
        notes.append("speed bound check FAIL")
    elif not _BOUND_PASS.search(stdout):
        notes.append("no speed bound check line printed")
    return notes


def _read_csv_rows(path: Path, keep) -> tuple[list, np.ndarray]:
    """Header and the data rows whose 0-based index satisfies ``keep``."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        lines = [line for i, line in enumerate(fh) if keep(i)]
    return header, np.loadtxt(lines, delimiter=",", ndmin=2)


def _call_game(smoke: bool) -> illiq.GameSpec:
    """The README's game: one risk-neutral call holder, linear cost."""
    market = illiq.MarketParams(sigma=1.0, lam=0.01, maturity=1.0, p0=100.0)
    call = illiq.SmoothedCall(strike=100.0, cap=10.0, width=_WIDTH[smoke])
    return illiq.GameSpec(market, illiq.LinearCost(0.01),
                          (illiq.PlayerSpec(illiq.RiskNeutral(), call),))


class Result:
    """Outcome of one checked flow."""

    def __init__(self, notes: list, oracle_err: float = math.nan, info: str = ""):
        self.notes = notes
        self.oracle_err = oracle_err
        self.info = info

    @property
    def ok(self) -> bool:
        return not self.notes


class CliWorkload:
    """A flow of ``illiq`` commands on a config written at set-up."""

    name = ""

    def config(self, smoke: bool) -> dict:
        raise NotImplementedError

    def setup(self, workdir: Path, seed: int, smoke: bool) -> dict:
        cfg_path = workdir / f"{self.name}.json"
        cfg_path.write_text(json.dumps(self.config(smoke)))
        return {"config": str(cfg_path), "smoke": smoke}

    def flow(self, inputs: dict, outdir: Path):
        raise NotImplementedError

    def check(self, inputs: dict, raw, outdir: Path) -> Result:
        raise NotImplementedError


class FdCall(CliWorkload):
    name = "fd_call"
    # The phi evaluations per linear-cost root jump between about 11 and 50 with
    # the lattice (about 12 at 401 x 500, 1000 or 1300 and at 201 x 400 to 800;
    # 46-53 at 401 x 1100, 1200, 1400, 1800 and the default 2000).  201 x 1100
    # keeps the default's slow path (37 per root, about 63% of the flow) at
    # about 5 s a flow.
    lattice = {False: (201, 1100), True: (81, 100)}

    def config(self, smoke):
        return _config({"kind": "linear", "kappa": 0.01},
                       [{"utility": _RN, "payoff": _call(smoke)}])

    def flow(self, inputs, outdir):
        return _cli(["solve", "--config", inputs["config"], "--out", str(outdir),
                     "--method", "fd", "--grid", "{},{}".format(*self.lattice[inputs["smoke"]])])

    def check(self, inputs, raw, outdir):
        code, stdout, stderr = raw
        if code != 0:
            return Result([f"exit code {code}: {stderr.strip()}"])
        notes = _solve_notes(stdout, outdir)
        if notes:
            return Result(notes)
        n_p, n_t = self.lattice[inputs["smoke"]]
        # t = 0 plus 21 interior layers; the c01 error peaks at the first layers
        layers = {0, *np.linspace(1, n_t - 2, 21).round().astype(int).tolist()}
        header, rows = _read_csv_rows(outdir / "solution.csv", lambda i: i // n_p in layers)
        if rows.shape[0] != len(layers) * n_p:
            return Result(notes + [f"solution.csv holds {rows.shape[0]} of the "
                                   f"{len(layers) * n_p} rows expected"])
        times = rows[::n_p, 0]
        prices = rows[:n_p, 1]
        fd = rows[:, header.index("v_1")].reshape(-1, n_p)
        game = _call_game(inputs["smoke"])
        rule = illiq.QuadratureRule.gauss_hermite(128)
        cf = np.array([illiq.rn_aggregate_value(game, float(t), prices, rule) for t in times])
        rel = np.abs(fd - cf) / (1.0 + np.abs(cf))
        err = float(rel[:, 1:-1].max())
        if not err <= ORACLE_GATE:
            notes.append(f"c01 sup rel diff {err:.3g} > {ORACLE_GATE:g}")
        return Result(notes, err)


class SpreadSweep(CliWorkload):
    name = "spread_sweep"
    lattice = {False: (401, 150), True: (81, 100)}

    def config(self, smoke):
        return _config({"kind": "smoothed_spread", "kappa": 0.01, "s": 0.004, "C": 100.0},
                       [{"utility": _RN, "payoff": _call(smoke)}])

    def flow(self, inputs, outdir):
        return _cli(["sweep", "--config", inputs["config"], "--out", str(outdir),
                     "--study", "spread", "--grid", "{},{}".format(*self.lattice[inputs["smoke"]])])

    def check(self, inputs, raw, outdir):
        code, stdout, stderr = raw
        if code != 0:
            return Result([f"exit code {code}: {stderr.strip()}"])
        report = json.loads((outdir / "assertions.json").read_text())
        notes = [] if report.get("passed") is True else [f"assertions failed: {report}"]
        header, rows = _read_csv_rows(outdir / "sweep_grids.csv", lambda i: True)
        prices = rows[:, header.index("prices")]
        fd_speed = rows[:, header.index("speed_s0")]
        # at s = 0 the cost is linear and the speed is lambda v_p / (2 kappa)
        game = _call_game(inputs["smoke"])
        rule = illiq.QuadratureRule.gauss_hermite(128)
        v0 = illiq.rn_aggregate_value(game, 0.0, prices, rule)
        cf_speed = 0.01 / (2.0 * 0.01) * central_gradient(v0, prices[1] - prices[0])
        err = float(np.max(np.abs(fd_speed - cf_speed)))
        if not err <= ORACLE_GATE:
            notes.append(f"s=0 speed gap {err:.3g} > {ORACLE_GATE:g}")
        return Result(notes, err)


class N2Oracles(CliWorkload):
    name = "n2_oracles"
    # Picard marches 20 x 8 sublayers, so both methods share the 161 layers.
    # 121 prices and 96 nodes keep the Picard/closed gap at 7.0e-3, inside
    # its gate (101 prices miss it), with heat_convolve_grid alone at about
    # 72-74% of the flow (69% with 64 nodes, where the CSV and the speed roots
    # weigh more).
    lattice = {False: (121, 161), True: (121, 161)}

    def config(self, smoke):
        n_p, n_t = self.lattice[smoke]
        competitor = {"kind": "scaled", "factor": 0.0, "inner": _call(smoke)}
        grid = {"p_min": 94.0, "p_max": 106.0, "n_p": n_p, "n_t": n_t, "quad_nodes": 96}
        return _config({"kind": "linear", "kappa": 0.01},
                       [{"utility": _RN, "payoff": _call(smoke)},
                        {"utility": _RN, "payoff": competitor}], grid)

    def flow(self, inputs, outdir):
        return [_cli(["solve", "--config", inputs["config"], "--out", str(outdir / method),
                      "--method", method])
                for method in ("closed", "picard")]

    def check(self, inputs, raw, outdir):
        notes = []
        for method, (code, stdout, stderr) in zip(("closed", "picard"), raw):
            if code != 0:
                notes.append(f"{method}: exit code {code}: {stderr.strip()}")
            else:
                notes += [f"{method}: {n}" for n in _solve_notes(stdout, outdir / method)]
        if notes:
            return Result(notes)
        lattices = []
        for method in ("closed", "picard"):
            header, rows = _read_csv_rows(outdir / method / "solution.csv", lambda i: True)
            lattices.append(rows[:, [header.index("v_1"), header.index("v_2")]])
        closed, picard = lattices
        if closed.shape != picard.shape:
            return Result([f"lattices differ: closed {closed.shape}, picard {picard.shape}"])
        err = float(np.max(np.abs(picard - closed)))
        if not err <= ORACLE_GATE:
            notes.append(f"c09 sup gap {err:.3g} > {ORACLE_GATE:g}")
        return Result(notes, err)


class CallMc:
    name = "call_mc"
    lattice = {False: (401, 500), True: (81, 100)}
    paths = {False: (20_000, 500), True: (200, 50)}

    def setup(self, workdir, seed, smoke):
        game = _call_game(smoke)
        n_p, n_t = self.lattice[smoke]
        sol = illiq.solve_fd(game, illiq.GridSpec(94.0, 106.0, n_p, n_t, 128))
        n_paths, n_steps = self.paths[smoke]
        return {"game": game, "solution": sol, "seed": seed,
                "n_paths": n_paths, "n_steps": n_steps}

    def flow(self, inputs, outdir):
        bundle = simulate.simulate_paths(inputs["solution"], inputs["game"],
                                         inputs["n_paths"], inputs["seed"], inputs["n_steps"])
        return bundle, simulate.mc_consistency(bundle, inputs["solution"])

    def check(self, inputs, raw, outdir):
        bundle, z = raw
        obj = bundle.objectives[0]
        se = float(obj.std(ddof=1) / math.sqrt(obj.size))
        notes = []
        if not abs(float(z[0])) <= MC_Z_GATE:
            notes.append(f"|z| = {abs(float(z[0])):.3g} > {MC_Z_GATE:g}")
        if not bundle.clamped_fraction <= MC_CLAMP_GATE:
            notes.append(f"clamp fraction {bundle.clamped_fraction:.3g} > {MC_CLAMP_GATE:g}")
        return Result(notes, se, f"z {float(z[0]):+.3f}, clamped {bundle.clamped_fraction:.2g}")


WORKLOADS = {w.name: w for w in (FdCall(), SpreadSweep(), N2Oracles(), CallMc())}
