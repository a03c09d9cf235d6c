"""Monte-Carlo simulation of equilibrium price paths.

Paths follow the Euler-Maruyama discretization of

    dP = lambda * sum_j Xdot^j(t, P) dt + sigma dB,
    dX^j = Xdot^j(t, P) dt,
    dR^j = Xdot^j(t, P) g(sum_i Xdot^i(t, P)) dt,

with the feedback speed fields interpolated bilinearly from a solved
lattice.  Noise comes from a counter-based generator (Philox keyed by the
seed) drawn step-major: step k takes normals k * n_paths to
(k + 1) * n_paths - 1 of the stream, one per path in path order.  Results
are bitwise reproducible for fixed (seed, n_paths, n_steps); a path's noise
depends on n_paths, so a run with more paths does not extend one with fewer.

Before any path is stepped, the solution must hold one speed lattice per
player of the game, and every speed, price node and time layer of it must be
finite; the first that is not is named (player, time layer, price), since
one NaN speed would otherwise send paths off the grid and read as too small
a domain.  Every step's time layer and weight are found once, before the
first step.  All paths are stepped together and carry only their current
state.  Each step blends the speed rows in time (``pdesolve._time_blend``,
as ``Solution.value_at`` does), finds every path's price cell once and
reads all N players' speeds from it in one gather into buffers the lookup
owns.  It then updates the inventories, costs and prices in place, the
prices in the operation order of
p + (lambda sum_j Xdot^j) dt + (sigma sqrt(dt)) dB with the step's noise
drawn for every path into one buffer and scaled by sigma sqrt(dt), so each
is bitwise that expression's value.  The price axis must be uniform (to
within a quarter cell, as the FD stencils assume), so the cell is an
arithmetic index with one correction against the stored nodes, and each
speed is bitwise what ``np.interp`` would return.  The first
``SAMPLE_PATHS`` paths are recorded at every step.  The paths therefore take
O(N * (n_paths + n_p + S * n_steps)) memory, S = min(n_paths,
SAMPLE_PATHS): not O(N * n_paths * n_steps) for whole paths nor
O(n_steps * N * n_p) for speed rows precomputed per step.  Each player's
utility maps terminal wealth and solved values to one scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .manifest import write_csv
from .model import GameSpec
from .pdesolve import Solution, _time_blend, _time_weight

__all__ = [
    "SimulationError",
    "PathBundle",
    "PhysicalDeliveryResult",
    "simulate_paths",
    "realized_objectives",
    "mc_consistency",
    "physical_delivery_value",
    "write_paths_csv",
]

CLAMP_LIMIT = 0.01  # largest share of path-steps allowed to leave the price grid
SAMPLE_PATHS = 100  # leading paths kept in full, for paths.csv and plots
SEED_LIMIT = 2**128  # Philox keys are 128-bit: seeds lie in [0, SEED_LIMIT)


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class PathBundle:
    """Terminal state of every path, the first ``SAMPLE_PATHS`` paths in full
    and per-player accounting for one Monte-Carlo run."""

    seed: int
    n_paths: int
    p0: float                          # the price every path starts from
    times: np.ndarray                  # (n_steps + 1,)
    terminal_prices: np.ndarray        # (n_paths,)
    terminal_inventories: np.ndarray   # (N, n_paths)
    terminal_costs: np.ndarray         # (N, n_paths)
    sample_prices: np.ndarray          # (S, n_steps + 1), S = min(n_paths, SAMPLE_PATHS)
    sample_inventories: np.ndarray     # (N, S, n_steps + 1)
    sample_costs: np.ndarray           # (N, S, n_steps + 1)
    objectives: np.ndarray             # (N, n_paths), utility applied
    utilities: tuple                   # each player's utility, which maps wealth to objectives
    clamped_fraction: float

    @property
    def n_players(self) -> int:
        return self.terminal_inventories.shape[0]


def simulate_paths(
    sol: Solution,
    game: GameSpec,
    n_paths: int,
    seed: int,
    n_steps: int,
) -> PathBundle:
    """Euler-Maruyama paths under the solved feedback strategies.

    Price lookups outside the solution's price range are clamped to the
    boundary columns and counted; if more than ``CLAMP_LIMIT`` of all
    path-steps clamp, the grid was too small and an error is raised, as it
    is for a price axis that is not uniform, for a speed, price or time in
    the solution that is not finite and for a solution solved for another
    number of players than the game has.  At least two paths are needed for a
    standard error, and the seed must be an integer in [0, ``SEED_LIMIT``).
    """
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    if n_steps < 10:
        raise ValueError("n_steps must be >= 10")
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < SEED_LIMIT):
        raise ValueError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    market = game.market
    n = game.n_players
    if sol.speeds.shape[0] != n:
        raise SimulationError(
            f"the game has N = {n} players but the solution holds speeds for "
            f"N = {sol.speeds.shape[0]}"
        )
    _require_finite(sol)
    horizon = market.maturity
    dt = horizon / n_steps
    times = np.linspace(0.0, horizon, n_steps + 1)
    kick = market.sigma * math.sqrt(dt)  # the noise's scale, sigma sqrt(dt)
    p_lo, p_hi = sol.prices[0], sol.prices[-1]
    speeds_at = _SharedInterp(sol.prices, n, n_paths)
    speeds_by_time = sol.speeds.swapaxes(0, 1)
    layer, weight = _time_weight(sol.times, times[:-1])  # per step

    rng = np.random.Generator(np.random.Philox(key=seed))
    s = min(n_paths, SAMPLE_PATHS)
    sample_prices = np.empty((s, n_steps + 1))
    sample_inventories = np.zeros((n, s, n_steps + 1))
    sample_costs = np.zeros((n, s, n_steps + 1))
    sample_prices[:, 0] = market.p0
    p = np.full(n_paths, market.p0)
    x = np.zeros((n, n_paths))
    r = np.zeros((n, n_paths))
    spd = np.empty((n, n_paths))
    work = np.empty((n, n_paths))
    agg = np.empty(n_paths)  # the aggregate speed, then the step's noise
    clamped = 0
    for k in range(n_steps):
        if p_lo <= p.min() and p.max() <= p_hi:  # False for any NaN
            p_look = p
        else:
            p_look = np.clip(p, p_lo, p_hi)
            clamped += int(np.count_nonzero(p_look != p))
        speeds_at(p_look, _time_blend(speeds_by_time, layer[k], weight[k]), out=spd)
        spd.sum(axis=0, out=agg)
        np.multiply(spd, dt, out=work)
        x += work
        np.multiply(spd, game.cost.value(agg), out=work)
        work *= dt
        r += work
        agg *= market.lam
        agg *= dt
        p += agg
        rng.standard_normal(out=agg)
        agg *= kick
        p += agg
        sample_prices[:, k + 1] = p[:s]
        sample_inventories[:, :, k + 1] = x[:, :s]
        sample_costs[:, :, k + 1] = r[:, :s]
    del speeds_at, spd, work, agg  # before the payoff's path-sized temporaries

    frac = clamped / float(n_paths * n_steps)
    if frac > CLAMP_LIMIT:
        raise SimulationError(
            f"{100 * frac:.2f}% of path-steps left the price grid (limit "
            f"{100 * CLAMP_LIMIT:.0f}%); enlarge the solution domain"
        )

    raw = -r + game.payoff_layer(p)
    utilities = tuple(pl.utility for pl in game.players)
    objectives = np.stack([u(raw[j]) for j, u in enumerate(utilities)])
    return PathBundle(
        seed=seed,
        n_paths=n_paths,
        p0=float(market.p0),
        times=times,
        terminal_prices=p,
        terminal_inventories=x,
        terminal_costs=r,
        sample_prices=sample_prices,
        sample_inventories=sample_inventories,
        sample_costs=sample_costs,
        objectives=objectives,
        utilities=utilities,
        clamped_fraction=frac,
    )


def _require_finite(sol: Solution) -> None:
    """Raise if a price node, time layer or speed of ``sol`` is not finite,
    naming the first such entry: one NaN speed would otherwise send paths off
    the price grid and be reported as too small a domain."""
    for name, axis in (("price node", sol.prices), ("time layer", sol.times)):
        bad = np.flatnonzero(~np.isfinite(axis))
        if bad.size:
            i = int(bad[0])
            raise SimulationError(f"the solution's {name} {i} is {axis[i]}")
    bad = np.argwhere(~np.isfinite(sol.speeds))
    if bad.size:
        j, k, i = (int(v) for v in bad[0])
        raise SimulationError(
            f"player {j + 1}'s solved speed is {sol.speeds[j, k, i]} at time layer {k} "
            f"(t = {sol.times[k]:.6g}) and price {sol.prices[i]:.6g}; the paths need a "
            f"finite speed lattice"
        )


class _SharedInterp:
    """``lookup(p, rows)``: ``np.interp(p, prices, rows[j])`` for every row j,
    bitwise, from one cell search shared by all rows.

    ``p`` must hold ``width`` prices in [prices[0], prices[-1]].  The cell is
    the arithmetic index on the uniform axis, corrected once in each
    direction against the stored nodes; one correction suffices because no
    node lies more than a quarter cell from its uniform position, which is
    checked here.  The speed is ``np.interp``'s own slope * (p - node) +
    value, with a zero slope past the last node so that the last node
    returns its value exactly.  The lookup owns its (n_rows, n_p) slope
    buffer, which each call overwrites, and its (n_rows, width) scratch; the
    rows come blended in time from ``pdesolve._time_blend``.
    """

    def __init__(self, prices: np.ndarray, n_rows: int, width: int):
        n_p = prices.size
        p_lo, p_hi = prices[0], prices[-1]
        dp = (p_hi - p_lo) / (n_p - 1)
        drift = np.abs(prices - (p_lo + dp * np.arange(n_p)))
        off = np.flatnonzero(~(drift <= 0.25 * dp))
        if off.size:
            i = int(off[0])
            raise SimulationError(
                f"the price axis is not uniform: node {i} lies {drift[i] / dp:.3g} cells "
                f"from p_0 + {i} dp; the speed lookup needs a uniform axis"
            )
        self.prices = prices
        self.p_lo = p_lo
        self.scale = (n_p - 1) / (p_hi - p_lo)
        self.next_nodes = np.append(prices[1:], np.inf)
        self.spacing = np.diff(prices)
        self.slopes = np.zeros((n_rows, n_p))
        self.cell = np.empty(width, dtype=np.intp)
        self.node = np.empty(width)
        self.below = np.empty(width, dtype=bool)
        self.values = np.empty((n_rows, width))

    def __call__(self, p: np.ndarray, rows: np.ndarray, out: np.ndarray | None = None):
        prices, slopes, cell, node, below = self.prices, self.slopes, self.cell, self.node, self.below
        # every take clips the cell to [0, n_p - 1]; only a NaN price leaves it
        np.subtract(p, self.p_lo, out=node)
        node *= self.scale
        np.copyto(cell, node, casting="unsafe")  # truncates, as astype(np.intp) does
        prices.take(cell, mode="clip", out=node)
        np.less(p, node, out=below)
        np.subtract(cell, below, out=cell, casting="unsafe")
        self.next_nodes.take(cell, mode="clip", out=node)
        np.greater_equal(p, node, out=below)
        np.add(cell, below, out=cell, casting="unsafe")
        np.subtract(rows[:, 1:], rows[:, :-1], out=slopes[:, :-1])
        slopes[:, :-1] /= self.spacing
        out = slopes.take(cell, axis=1, mode="clip", out=out)
        prices.take(cell, mode="clip", out=node)
        np.subtract(p, node, out=node)
        out *= node
        out += rows.take(cell, axis=1, mode="clip", out=self.values)
        return out


def realized_objectives(bundle: PathBundle):
    """Per-player sample mean and standard error of the realized objective."""
    means = bundle.objectives.mean(axis=1)
    ses = bundle.objectives.std(axis=1, ddof=1) / math.sqrt(bundle.n_paths)
    return means, ses


def mc_consistency(bundle: PathBundle, sol: Solution) -> np.ndarray:
    """z-scores of the realized objective means against the solved values
    at (t=0, p0), each mapped to the utility scale by its player's utility."""
    p0 = bundle.p0
    means, ses = realized_objectives(bundle)
    z = np.empty(bundle.n_players)
    for j, u in enumerate(bundle.utilities):
        v0 = float(u(sol.value_at(j, 0.0, p0)))
        if ses[j] == 0.0:
            z[j] = 0.0 if means[j] == v0 else math.inf
        else:
            z[j] = (means[j] - v0) / ses[j]
    return z


@dataclass(frozen=True)
class PhysicalDeliveryResult:
    mean_value: float
    theta_star: np.ndarray
    values: np.ndarray
    trading_contribution: float  # identically zero: the problem separates


def physical_delivery_value(theta_cap: float, strike: float, lam: float,
                            terminal_prices) -> PhysicalDeliveryResult:
    """Optimal exercise of physically delivered calls at maturity.

    Per sample the exercise value theta (P_T - lam theta / 2) - theta K is a
    concave quadratic, so the optimum is the unconstrained vertex
    (P_T - K) / lam clipped to [0, theta_cap].  The trading part of the
    objective separates off and is maximized by not trading at all, hence
    the zero trading contribution.
    """
    if theta_cap < 0:
        raise ValueError("theta_cap must be >= 0")
    p_t = np.atleast_1d(np.asarray(terminal_prices, dtype=float))
    theta = np.clip((p_t - strike) / lam, 0.0, theta_cap)
    values = theta * (p_t - 0.5 * lam * theta) - theta * strike
    return PhysicalDeliveryResult(
        mean_value=float(values.mean()),
        theta_star=theta,
        values=values,
        trading_contribution=0.0,
    )


def write_paths_csv(bundle: PathBundle, path) -> None:
    """The sample paths (the run's first ``SAMPLE_PATHS``), one row per
    (path, time), row-major: path,t,P,X_1..X_N,R_1..R_N, in the CSV dialect
    of ``write_solution_csv``."""
    n = bundle.n_players
    fields = {
        "P": bundle.sample_prices,
        **{f"X_{j+1}": bundle.sample_inventories[j] for j in range(n)},
        **{f"R_{j+1}": bundle.sample_costs[j] for j in range(n)},
    }
    n_sample = bundle.sample_prices.shape[0]
    write_csv(path, (("path", np.arange(n_sample)), ("t", bundle.times)), fields)
