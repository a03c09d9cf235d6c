"""Numerical solution of the coupled equilibrium value equations.

Three routes build a ``Solution`` of the system

    0 = v^j_t + sigma^2/2 v^j_pp - sigma^2 alpha^j / 2 (v^j_p)^2
        + lambda Xdot* v^j_p - Xdot^j g(Xdot*),        v^j(T, .) = H^j,

where the speeds at each point come from the speeds module (the quadratic
term is absent for risk-neutral players; exponential-utility players are
solved entirely in the log-transformed variable, whose terminal data is the
raw payoff as well):

* ``solve_fd``     backward march, implicit in the diffusion term
                   (one tridiagonal solve per player per layer) and explicit
                   in the nonlinear terms taken from the previous layer;
* ``solve_picard`` fixed-point iteration of the mild (integral) form
                   v = e^{tL} H + int e^{(t-s)L} F(v_p(s)) ds on short
                   subintervals, the semigroup applied by the cosine-transform
                   multiplier of ``heat_convolve_grid`` and the integral by
                   the trapezoid recursion ``duhamel_trapezoid`` that the
                   closed form shares.  Serves as an independent oracle for
                   the finite-difference route;
* ``solve_closed`` the lattice that ``closedform.closed_form_values`` builds
                   for the games it covers (linear cost with risk-neutral
                   players or one exponential-utility player).

Each route validates the grid, certifies the cost once and records the
certificate, the a-priori speed bound and the speed-root tolerance in
``Solution.meta``; terminal data comes from ``GameSpec.payoff_layer``.
``_write_table`` and ``_write_lattice_csv`` write every numeric table the
package writes, in one dialect whose number format is ``CSV_FLOAT``;
``read_solution_csv`` reloads a ``solution.csv``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_banded

from .closedform import (
    central_gradient,
    closed_form_values,
    duhamel_trapezoid,
    heat_convolve_grid,
    heat_convolve_payoff,
)
from .model import GameSpec, GridSpec
from .speeds import ROOT_TOL, apriori_speed_bound, certify_for_game, equilibrium_fields

__all__ = [
    "SolverError",
    "Solution",
    "ResidualReport",
    "solve_fd",
    "solve_picard",
    "solve_closed",
    "residual",
    "surplus",
    "write_solution_csv",
    "read_solution_csv",
]


class SolverError(RuntimeError):
    pass


class _NonContraction(SolverError):
    pass


# Picard iteration: first contraction step as a share of the horizon, the
# sup-norm fixed-point tolerance, iterations per step, quadrature sub-layers
# per step and how often a non-contracting step may be halved
PICARD_TAU_FRACTION = 0.05
PICARD_TOL = 1e-10
PICARD_MAX_ITER = 60
PICARD_SUBLAYERS = 8
PICARD_MAX_HALVINGS = 3


@dataclass(frozen=True)
class Solution:
    """Per-player value, gradient and speed lattices plus solver metadata.

    For exponential-utility players ``values`` holds the log-transformed
    value; the raw value is -exp(-alpha * values).  ``grid`` is the given
    grid with its ``n_t`` and ``n_p`` set from ``times`` and ``prices``."""

    grid: GridSpec
    times: np.ndarray
    prices: np.ndarray
    values: np.ndarray
    gradients: np.ndarray
    speeds: np.ndarray
    aggregate_speed: np.ndarray
    meta: dict

    def __post_init__(self):
        object.__setattr__(self, "grid", replace(self.grid, n_t=self.times.size,
                                                 n_p=self.prices.size))
        for name in ("times", "prices", "values", "gradients", "speeds", "aggregate_speed"):
            getattr(self, name).setflags(write=False)

    @property
    def n_players(self) -> int:
        return self.values.shape[0]

    def value_at(self, player: int, t: float, p: float) -> float:
        """Bilinear interpolation of one player's value surface."""
        row = _time_blend(self.values[player], *_time_weight(self.times, t))
        return float(np.interp(p, self.prices, row))


def _time_weight(times: np.ndarray, t: float) -> tuple:
    """The layer k and weight w that interpolate linearly in time at t,
    clamped to the time axis: the blend is (1 - w) layers[k] + w layers[k + 1]."""
    t = float(np.clip(t, times[0], times[-1]))
    k = int(np.searchsorted(times, t, side="right") - 1)
    k = min(max(k, 0), times.size - 2)
    return k, (t - times[k]) / (times[k + 1] - times[k])


def _time_blend(layers: np.ndarray, k: int, w: float) -> np.ndarray:
    return (1.0 - w) * layers[k] + w * layers[k + 1]


@dataclass(frozen=True)
class ResidualReport:
    per_player: np.ndarray
    overall: float


# ---------------------------------------------------------------------------
# shared per-layer helpers
# ---------------------------------------------------------------------------


def _meta(scheme: str, cert, bound: float, **extra) -> dict:
    """The metadata every route records, then the route's own keys."""
    return {"scheme": scheme, "certificate": cert, "speed_bound": bound,
            "root_tol": ROOT_TOL, **extra}


def _lattice_solution(game: GameSpec, grid: GridSpec, cert, times: np.ndarray,
                      values: np.ndarray, meta: dict) -> Solution:
    """A Solution whose fields come from one whole-lattice equilibrium_fields call."""
    grads = central_gradient(values, grid.dp)
    speeds, agg, _ = equilibrium_fields(game, cert.eps_floor, grads)
    return Solution(grid, times, grid.prices, values, grads, speeds, agg, meta)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def solve_fd(game: GameSpec, grid: GridSpec) -> Solution:
    """Backward finite-difference solution of the coupled value system.

    Implicit Euler handles the diffusion unconditionally; the advection,
    cost and exponential-utility terms are explicit, which imposes
    dt <= dp / (2 (lambda N B + sigma^2 max_j alpha_j max_j sup|H^j_p|)) with
    B the a-priori speed bound.  The time grid is refined automatically if
    the requested one violates that bound.  Boundary rows impose a zero
    second derivative (payoffs are flat or linear six standard deviations
    from the spot).
    """
    market = game.market
    grid.validate_for(market)
    cert = certify_for_game(game)
    bound = apriori_speed_bound(game, cert)
    n = game.n_players

    prices = grid.prices
    dp = grid.dp
    drift_cap = 2.0 * (market.lam * n * bound
                       + market.sigma**2 * float(np.max(game.alphas)) * game.max_payoff_slope())
    dt_cap = dp / drift_cap if drift_cap > 0 else math.inf
    n_t = grid.n_t
    if market.maturity / (n_t - 1) > dt_cap:
        n_t = int(math.ceil(market.maturity / dt_cap)) + 1
    times = np.linspace(0.0, market.maturity, n_t)
    dt = times[1] - times[0]

    values = np.empty((n, n_t, prices.size))
    values[:, -1] = game.payoff_layer(prices)
    grads = np.empty_like(values)
    speeds = np.empty_like(values)
    agg = np.empty((n_t, prices.size))

    # (I - dt sigma^2/2 D2) with identity boundary rows, banded storage
    c = dt * market.sigma**2 / (2.0 * dp**2)
    ab = np.zeros((3, prices.size))
    ab[0, 2:] = -c
    ab[1, :] = 1.0 + 2.0 * c
    ab[1, 0] = ab[1, -1] = 1.0
    ab[2, :-2] = -c

    # layer k's fields are stored and drive the step to layer k - 1
    for k in range(n_t - 1, -1, -1):
        grads[:, k] = central_gradient(values[:, k], dp)
        speeds[:, k], agg[k], source = equilibrium_fields(game, cert.eps_floor, grads[:, k])
        if k > 0:
            rhs = values[:, k] + dt * source
            if not np.all(np.isfinite(rhs)):
                raise SolverError(f"the march overflowed stepping back from time layer {k} "
                                  f"of {n_t}; the explicit step is unstable on this grid")
            values[:, k - 1] = solve_banded((1, 1), ab, rhs.T).T

    meta = _meta("fd-implicit-euler", cert, bound, n_t_requested=grid.n_t, n_t_used=n_t)
    return Solution(grid, times, prices, values, grads, speeds, agg, meta)


# ---------------------------------------------------------------------------
# Picard / semigroup
# ---------------------------------------------------------------------------


def solve_picard(game: GameSpec, grid: GridSpec) -> Solution:
    """Fixed-point solution of the mild form on subintervals of length tau.

    Within each subinterval, split into ``PICARD_SUBLAYERS`` quadrature
    sub-layers, the map v -> e^{tL} h + int e^{(t-s)L} F(v_p) ds is iterated
    until the sup-change is at most ``PICARD_TOL``, for at most
    ``PICARD_MAX_ITER`` iterations; the subinterval solutions are
    concatenated.  tau starts at ``PICARD_TAU_FRACTION`` times the horizon.
    If the sup-change grows two iterations in a row the step is declared
    non-contracting and tau is halved, at most ``PICARD_MAX_HALVINGS`` times
    (a uniform contraction step exists, but its size is problem dependent).
    """
    market = game.market
    grid.validate_for(market)
    cert = certify_for_game(game)
    bound = apriori_speed_bound(game, cert)
    tau = PICARD_TAU_FRACTION * market.maturity

    last_err: Exception | None = None
    for halving in range(PICARD_MAX_HALVINGS + 1):
        try:
            values, times, log = _picard_march(game, grid, cert, tau)
            break
        except _NonContraction as err:
            last_err = err
            tau *= 0.5
    else:
        raise SolverError(f"Picard iteration kept diverging: {last_err}")

    meta = _meta("picard-semigroup", cert, bound, tau=tau, tau_halvings=halving,
                 sublayers=PICARD_SUBLAYERS, iteration_changes=log)
    return _lattice_solution(game, grid, cert, times, values, meta)


def _picard_march(game, grid, cert, tau):
    market = game.market
    horizon = market.maturity
    sig2 = market.sigma**2
    prices = grid.prices
    n = game.n_players
    m_sub = PICARD_SUBLAYERS
    n_tau = max(1, int(math.ceil(horizon / tau - 1e-12)))
    h = horizon / (n_tau * m_sub)  # sub-layer spacing in time to maturity

    n_lay = n_tau * m_sub + 1
    v_tau = np.empty((n, n_lay, prices.size))  # indexed by time to maturity
    v_tau[:, 0] = game.payoff_layer(prices)
    log: list[list[float]] = []

    for step in range(n_tau):
        base = step * m_sub
        h0 = v_tau[:, base]
        seed = np.stack([heat_convolve_grid(h0, prices, sig2 * m * h)
                         for m in range(m_sub + 1)])
        cur = seed

        changes: list[float] = []
        for _ in range(PICARD_MAX_ITER):
            # one call on the (player, sub-layer, price) stack; roots are per entry
            grads = central_gradient(np.ascontiguousarray(np.swapaxes(cur, 0, 1)), grid.dp)
            source = np.swapaxes(equilibrium_fields(game, cert.eps_floor, grads)[2], 0, 1)
            new = seed + duhamel_trapezoid(source, h, sig2, prices)
            change = float(np.max(np.abs(new - cur)))
            changes.append(change)
            cur = new
            if change <= PICARD_TOL:
                break
            if len(changes) >= 3 and changes[-1] > changes[-2] > changes[-3]:
                log.append(changes)
                raise _NonContraction(
                    f"sup-change grew two iterations in a row at step {step}: {changes[-3:]}"
                )
        else:
            raise SolverError(
                f"Picard step {step} did not reach {PICARD_TOL:g} "
                f"in {PICARD_MAX_ITER} iterations (last change {changes[-1]:g})"
            )
        log.append(changes)
        v_tau[:, base + 1 : base + m_sub + 1] = np.swapaxes(cur[1:], 0, 1)

    values = v_tau[:, ::-1]  # reindex from time-to-maturity to calendar time
    times = np.linspace(0.0, horizon, n_lay)
    return np.ascontiguousarray(values), times, log


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------


def solve_closed(game: GameSpec, grid: GridSpec) -> Solution:
    """Closed-form values on the lattice, from ``closedform.closed_form_values``:
    per-player Duhamel values for two or more risk-neutral players, otherwise
    the Cole-Hopf value of the one risk-neutral or exponential-utility player.

    ``closedform`` decides which games it covers; any other game raises its
    ClosedFormError before the cost is certified.
    """
    grid.validate_for(game.market)
    values = closed_form_values(game, grid)
    times = grid.times(game.market.maturity)
    cert = certify_for_game(game)
    bound = apriori_speed_bound(game, cert)
    meta = _meta("closed-form", cert, bound)
    return _lattice_solution(game, grid, cert, times, values, meta)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def residual(sol: Solution, game: GameSpec) -> ResidualReport:
    """Max absolute interior residual of the value system, all derivative
    terms recomputed with central differences from the stored values."""
    v = sol.values
    _, n_t, n_p = v.shape
    if n_t < 5 or n_p < 5:
        raise ValueError("residual needs at least a 5x5 grid")
    dt = sol.times[1] - sol.times[0]
    dp = sol.prices[1] - sol.prices[0]
    cert = sol.meta.get("certificate") or certify_for_game(game)

    inner = slice(1, -1)
    v_t = (v[:, 2:, :] - v[:, :-2, :]) / (2.0 * dt)
    v_pp = (v[:, :, 2:] - 2.0 * v[:, :, 1:-1] + v[:, :, :-2]) / dp**2
    grads = central_gradient(v, dp)[..., inner]
    _, _, source = equilibrium_fields(game, cert.eps_floor, grads)
    sig2 = game.market.sigma**2
    res = v_t[:, :, inner] + 0.5 * sig2 * v_pp[:, inner, :] + source[:, inner, :]
    per_player = np.max(np.abs(res), axis=(1, 2))
    return ResidualReport(per_player=per_player, overall=float(np.max(per_player)))


def surplus(sol: Solution, game: GameSpec, time_indices=None) -> np.ndarray:
    """Edge over never trading: v^j(t,p) minus the pure-diffusion expected
    (utility of the) payoff, variance sigma^2 (T - t), from
    ``heat_convolve_payoff``.  Both sides are on the utility scale: each
    player's utility maps the stored value, which is the identity for
    risk-neutral players."""
    rows = np.arange(sol.times.size) if time_indices is None else list(time_indices)
    variances = game.market.sigma**2 * (game.market.maturity - sol.times[rows])
    out = np.empty((sol.n_players, variances.size, sol.prices.size))
    for i, pl in enumerate(game.players):
        u, payoff = pl.utility, pl.endowment.value
        expected = heat_convolve_payoff(lambda x: u(payoff(x)), sol.prices, variances)
        out[i] = u(sol.values[i, rows]) - expected
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


CSV_FLOAT = "%.17g"  # every number a CSV holds, in full double precision
CSV_BLOCK_ROWS = 1024  # about this many lines are formatted per string operation


def _write_table(path, header, blocks) -> None:
    """The package's one CSV dialect: a header row of column names, comma
    delimiters, no comment prefix and every number in ``CSV_FLOAT``.
    ``blocks`` yields 2-D arrays of rows; each is formatted with one ``%``."""
    row = ",".join([CSV_FLOAT] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _write_lattice_csv(path, rows, cols, fields: dict) -> None:
    """Long form of lattices over two axes, row-major, in the dialect of
    ``_write_table``: one line per (row, col) pair holding both axis values,
    then one column per field.  ``rows`` and ``cols`` are (name, axis) pairs;
    each field has shape (rows, cols).  Each axis value is formatted once; a
    few axis rows at a time become one template that only the field values
    fill, so memory stays flat."""
    (row_name, row_axis), (col_name, col_axis) = rows, cols
    values = [np.asarray(field, dtype=float) for field in fields.values()]
    rest = ",".join([CSV_FLOAT] * len(values)) + "\n"
    heads = [CSV_FLOAT % x + "," for x in np.asarray(row_axis, dtype=float).tolist()]
    tails = [CSV_FLOAT % x + "," + rest for x in np.asarray(col_axis, dtype=float).tolist()]
    step = max(1, CSV_BLOCK_ROWS // len(tails))
    with open(path, "w") as fh:
        fh.write(",".join([row_name, col_name, *fields]) + "\n")
        for r in range(0, len(heads), step):
            template = "".join(head + head.join(tails) for head in heads[r:r + step])
            block = np.stack([field[r:r + step] for field in values], axis=-1)
            fh.write(template % tuple(block.ravel().tolist()))


def write_solution_csv(sol: Solution, path) -> None:
    """Row-major (t, p) dump in full double precision."""
    n = sol.n_players
    fields = {
        **{f"v_{j+1}": sol.values[j] for j in range(n)},
        **{f"grad_{j+1}": sol.gradients[j] for j in range(n)},
        **{f"speed_{j+1}": sol.speeds[j] for j in range(n)},
        "agg_speed": sol.aggregate_speed,
    }
    _write_lattice_csv(path, ("t", sol.times), ("p", sol.prices), fields)


def read_solution_csv(path, grid: GridSpec) -> Solution:
    """Rebuild a Solution, with empty ``meta``, from the CSV that
    ``write_solution_csv`` wrote; the grid comes from the config that produced it."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    n = sum(1 for c in header if c.startswith("v_"))
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    times = np.unique(data[:, 0])
    prices = np.unique(data[:, 1])
    n_t, n_p = times.size, prices.size
    if n_t * n_p != data.shape[0]:
        raise ValueError("solution CSV is not a complete (t, p) lattice")
    values = np.stack([data[:, 2 + j].reshape(n_t, n_p) for j in range(n)])
    grads = np.stack([data[:, 2 + n + j].reshape(n_t, n_p) for j in range(n)])
    speeds = np.stack([data[:, 2 + 2 * n + j].reshape(n_t, n_p) for j in range(n)])
    agg = data[:, -1].reshape(n_t, n_p)
    return Solution(grid, times, prices, values, grads, speeds, agg, {})
