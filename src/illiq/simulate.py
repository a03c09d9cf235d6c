"""Monte-Carlo simulation of equilibrium price paths.

Paths follow the Euler-Maruyama discretization of

    dP = lambda * sum_j Xdot^j(t, P) dt + sigma dB,
    dX^j = Xdot^j(t, P) dt,
    dR^j = Xdot^j(t, P) g(sum_i Xdot^i(t, P)) dt,

with the feedback speed fields interpolated bilinearly from a solved
lattice.  Noise comes from a counter-based generator (Philox keyed by the
seed, consumed in path-major order), so results are bitwise reproducible
for fixed (seed, n_paths, n_steps) and independent of chunking.  Paths are
stepped ``CHUNK_PATHS`` at a time, carrying only their current state: every
path keeps its terminal price, inventories and costs, and only the first
``SAMPLE_PATHS`` paths are kept in full.

Each step interpolates the speed rows in time once, then finds every path's
price cell once and reads all N players' speeds from it in one gather.  The
price axis must be uniform (to within a quarter cell, as the FD stencils
assume), so the cell is an arithmetic index with one correction against the
stored nodes, and each speed is bitwise what ``np.interp`` would return.  The
paths therefore take O(CHUNK_PATHS * n_steps + N * n_paths + N * n_p) memory,
not O(N * n_paths * n_steps) for whole paths nor O(n_steps * N * n_p) for
speed rows precomputed per step.  Each player's utility maps terminal wealth
and solved values to one scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GameSpec
from .pdesolve import Solution, _time_interp, _write_lattice_csv

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
CHUNK_PATHS = 4096  # paths per block of noise: 16 MB of normals at 500 steps
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
    is for a price axis that is not uniform.  At least two paths are needed
    for a standard error, and the seed must be an integer in
    [0, ``SEED_LIMIT``).
    """
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    if n_steps < 10:
        raise ValueError("n_steps must be >= 10")
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < SEED_LIMIT):
        raise ValueError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    market = game.market
    n = game.n_players
    horizon = market.maturity
    dt = horizon / n_steps
    times = np.linspace(0.0, horizon, n_steps + 1)
    sqrt_dt = math.sqrt(dt)
    p_grid = sol.prices
    speeds_at = _shared_interp(p_grid)
    speeds_by_time = sol.speeds.swapaxes(0, 1)

    rng = np.random.Generator(np.random.Philox(key=seed))
    n_sample = min(n_paths, SAMPLE_PATHS)
    terminal_prices = np.empty(n_paths)
    terminal_inventories = np.empty((n, n_paths))
    terminal_costs = np.empty((n, n_paths))
    sample_prices = np.empty((n_sample, n_steps + 1))
    sample_inventories = np.zeros((n, n_sample, n_steps + 1))
    sample_costs = np.zeros((n, n_sample, n_steps + 1))
    sample_prices[:, 0] = market.p0
    block = np.empty((min(CHUNK_PATHS, n_paths), n_steps))  # one noise buffer for all chunks
    clamped = 0
    for row in range(0, n_paths, CHUNK_PATHS):
        m = min(CHUNK_PATHS, n_paths - row)
        s = max(0, min(n_sample - row, m))  # sample paths in this chunk
        noise = rng.standard_normal(out=block[:m])
        p = np.full(m, market.p0)
        x = np.zeros((n, m))
        r = np.zeros((n, m))
        for k in range(n_steps):
            p_look = np.clip(p, p_grid[0], p_grid[-1])
            clamped += int(np.count_nonzero(p_look != p))
            spd = speeds_at(p_look, _time_interp(sol.times, speeds_by_time, times[k]))
            agg = spd.sum(axis=0)
            g_agg = np.asarray(game.cost.value(agg), dtype=float)
            p = p + market.lam * agg * dt + market.sigma * sqrt_dt * noise[:, k]
            x = x + spd * dt
            r = r + spd * g_agg * dt
            if s:
                sample_prices[row : row + s, k + 1] = p[:s]
                sample_inventories[:, row : row + s, k + 1] = x[:, :s]
                sample_costs[:, row : row + s, k + 1] = r[:, :s]
        terminal_prices[row : row + m] = p
        terminal_inventories[:, row : row + m] = x
        terminal_costs[:, row : row + m] = r

    frac = clamped / float(n_paths * n_steps)
    if frac > CLAMP_LIMIT:
        raise SimulationError(
            f"{100 * frac:.2f}% of path-steps left the price grid (limit "
            f"{100 * CLAMP_LIMIT:.0f}%); enlarge the solution domain"
        )

    raw = -terminal_costs + game.payoff_layer(terminal_prices)
    utilities = tuple(pl.utility for pl in game.players)
    objectives = np.stack([u(raw[j]) for j, u in enumerate(utilities)])
    return PathBundle(
        seed=seed,
        n_paths=n_paths,
        p0=float(market.p0),
        times=times,
        terminal_prices=terminal_prices,
        terminal_inventories=terminal_inventories,
        terminal_costs=terminal_costs,
        sample_prices=sample_prices,
        sample_inventories=sample_inventories,
        sample_costs=sample_costs,
        objectives=objectives,
        utilities=utilities,
        clamped_fraction=frac,
    )


def _shared_interp(prices: np.ndarray):
    """``interp(p, rows)``: ``np.interp(p, prices, rows[j])`` for every row j,
    bitwise, from one cell search shared by all rows.

    ``p`` must lie in [prices[0], prices[-1]].  The cell is the arithmetic
    index on the uniform axis, corrected once in each direction against the
    stored nodes; one correction suffices because no node lies more than a
    quarter cell from its uniform position, which is checked here.  The speed
    is ``np.interp``'s own slope * (p - node) + value, with a zero slope past
    the last node so that the last node returns its value exactly.
    """
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
    scale = (n_p - 1) / (p_hi - p_lo)
    next_nodes = np.append(prices[1:], np.inf)
    spacing = np.diff(prices)

    def interp(p: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # every take clips the cell to [0, n_p - 1]; only a NaN price leaves it
        cell = ((p - p_lo) * scale).astype(np.intp)
        cell -= p < prices.take(cell, mode="clip")
        cell += p >= next_nodes.take(cell, mode="clip")
        slopes = np.zeros_like(rows)
        np.divide(np.diff(rows, axis=1), spacing, out=slopes[:, :-1])
        return (slopes.take(cell, axis=1, mode="clip") * (p - prices.take(cell, mode="clip"))
                + rows.take(cell, axis=1, mode="clip"))

    return interp


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
    _write_lattice_csv(path, ("path", np.arange(n_sample)), ("t", bundle.times), fields)
