"""Scripted studies: zero-sum cancellation, predator and split scaling,
spread-crossing sweeps, the two-player exponential-utility study and the
benchmark figure grids.

Each study returns a SweepResult carrying its scalar metrics, any grids a
plot would need (1-D rows over the price grid, or (n_t, n_p) lattices when
the swept parameter is the time ``t``), the pass/fail state of its
assertions and provenance hashes of the game and grid that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closedform import QuadratureRule, central_gradient, rn_aggregate_value
from .manifest import digest
from .model import (
    CARA,
    GameSpec,
    GridSpec,
    LinearCost,
    MarketParams,
    Negated,
    Payoff,
    PlayerSpec,
    RiskNeutral,
    Scaled,
    SmoothedCall,
    SmoothedDigital,
    SmoothedSpreadCost,
    ValidationError,
    game_to_dict,
    grid_to_dict,
)
from .pdesolve import solve_closed, solve_fd, surplus
from .speeds import aggregate_speed_many, certify_for_game

__all__ = [
    "ExperimentError",
    "SweepResult",
    "zero_sum_report",
    "predator_sweep",
    "split_sweep",
    "spread_sweep",
    "cara_two_player_study",
    "figure_grids",
]


class ExperimentError(ValueError):
    """A study was asked of a game or template it does not fit."""


# slack of the monotonicity claims: split_sweep's pointwise rows, spread_sweep's maxima
SPLIT_MONOTONE_TOL = 1e-8
SPREAD_MONOTONE_TOL = 1e-6
# cara_two_player_study: slack of the speed-sign claims, and the half-width of
# the band around p0 on which they are checked
SIGN_TOL = 1e-6
BAND_HALF_WIDTH = 5.0


@dataclass(frozen=True)
class SweepResult:
    param: str
    values: tuple
    metrics: dict
    grids: dict
    assertions: dict
    game_hash: str
    grid_hash: str

    @property
    def passed(self) -> bool:
        return all(self.assertions.values())


def _hashes(game: GameSpec, grid: GridSpec):
    return digest(game_to_dict(game)), digest(grid_to_dict(grid))


def _non_increasing(values: np.ndarray, tol: float) -> bool:
    return bool(np.all(np.diff(values) <= tol))


def zero_sum_report(game: GameSpec, grid: GridSpec) -> SweepResult:
    """Solve a configured game (a holder of h against the writer of h, say)
    and report how close the aggregate speed and the value sum are to zero;
    the payoffs are checked for offsetting."""
    if not game.all_risk_neutral:
        raise ExperimentError("zero-sum study requires risk-neutral players")
    payoff_sum = game.payoff_layer(grid.prices).sum(axis=0)
    max_payoff_sum = float(np.max(np.abs(payoff_sum)))
    sol = solve_fd(game, grid)
    max_agg = float(np.max(np.abs(sol.aggregate_speed)))
    max_vsum = float(np.max(np.abs(sol.values.sum(axis=0))))
    scale = max(1.0, max(pl.endowment.bound for pl in game.players))
    game_hash, grid_hash = _hashes(game, grid)
    return SweepResult(
        param="study",
        values=("zero_sum",),
        metrics={
            "max_aggregate_speed": np.array([max_agg]),
            "max_value_sum": np.array([max_vsum]),
            "max_payoff_sum": np.array([max_payoff_sum]),
        },
        grids={},
        assertions={
            "offsetting_payoffs": max_payoff_sum <= 1e-9 * scale,
            "aggregate_speed_cancels": max_agg <= 10.0 * sol.meta["root_tol"],
        },
        game_hash=game_hash,
        grid_hash=grid_hash,
    )


def _rn_linear_template(template: GameSpec, what: str) -> None:
    if not isinstance(template.cost, LinearCost):
        raise ExperimentError(f"{what} requires a linear cost template")


def _predator_game(h1: Payoff, n: int, template: GameSpec) -> GameSpec:
    players = [PlayerSpec(RiskNeutral(), h1)]
    players += [PlayerSpec(RiskNeutral(), Scaled(h1, 0.0)) for _ in range(n - 1)]
    return GameSpec(template.market, template.cost, tuple(players))


def _split_game(h: Payoff, n: int, template: GameSpec) -> GameSpec:
    players = tuple(PlayerSpec(RiskNeutral(), Scaled(h, 1.0 / n)) for _ in range(n))
    return GameSpec(template.market, template.cost, players)


def _closed_speed_rows(make_game, h: Payoff, ns, template: GameSpec, grid: GridSpec) -> dict:
    """Time-zero aggregate speed per N: the speed root at lambda times the
    price gradient of the closed-form aggregate value."""
    rule = QuadratureRule.gauss_hermite(grid.quad_nodes)
    rows = {}
    for n in ns:
        if n < 1:
            raise ValidationError(f"a sweep over player counts needs N >= 1, got N = {n}")
        game = make_game(h, n, template)
        v0 = rn_aggregate_value(game, 0.0, grid.prices, rule)
        v_p = central_gradient(np.asarray(v0), grid.dp)
        eps = certify_for_game(game).eps_floor
        rows[n] = aggregate_speed_many(game.cost, n, game.market.lam * v_p, eps)
    return rows


def predator_sweep(h1: Payoff, ns, template: GameSpec, grid: GridSpec) -> SweepResult:
    """One option holder against N-1 endowment-free competitors: the more
    competitors, the smaller the aggregate manipulation."""
    _rn_linear_template(template, "predator_sweep")
    ns = tuple(int(n) for n in ns)
    rows = _closed_speed_rows(_predator_game, h1, ns, template, grid)
    max_abs = np.array([float(np.max(np.abs(rows[n]))) for n in ns])
    assertions = {"max_speed_decreasing": _non_increasing(max_abs, 0.0)}
    if len(ns) >= 2:
        # 1/(N+1) rate with 10% slack for the value's own N dependence
        rate = (ns[0] + 1) / (ns[-1] + 1)
        assertions["rate_bound"] = bool(max_abs[-1] <= rate * 1.1 * max_abs[0])
    game_hash, grid_hash = _hashes(_predator_game(h1, ns[0], template), grid)
    return SweepResult(
        param="N",
        values=ns,
        metrics={"max_abs_aggregate_speed": max_abs},
        grids={"prices": grid.prices, **{f"agg_speed_N{n}": rows[n] for n in ns}},
        assertions=assertions,
        game_hash=game_hash,
        grid_hash=grid_hash,
    )


def split_sweep(h: Payoff, ns, template: GameSpec, grid: GridSpec) -> SweepResult:
    """The endowment h split equally over N holders: |aggregate speed| is
    pointwise non-increasing in N and decays toward zero."""
    _rn_linear_template(template, "split_sweep")
    ns = tuple(int(n) for n in ns)
    rows = {n: np.abs(row)
            for n, row in _closed_speed_rows(_split_game, h, ns, template, grid).items()}
    max_abs = np.array([float(np.max(rows[n])) for n in ns])
    pointwise = all(
        bool(np.all(rows[ns[i + 1]] <= rows[ns[i]] + SPLIT_MONOTONE_TOL))
        for i in range(len(ns) - 1)
    )
    assertions = {"pointwise_non_increasing": pointwise}
    if len(ns) >= 2:
        rate = (ns[0] + 1) / (ns[-1] + 1)
        assertions["decays_toward_zero"] = bool(max_abs[-1] <= rate * 1.1 * max_abs[0])
    game_hash, grid_hash = _hashes(_split_game(h, ns[0], template), grid)
    return SweepResult(
        param="N",
        values=ns,
        metrics={"max_abs_aggregate_speed": max_abs},
        grids={"prices": grid.prices, **{f"abs_agg_speed_N{n}": rows[n] for n in ns}},
        assertions=assertions,
        game_hash=game_hash,
        grid_hash=grid_hash,
    )


def spread_sweep(base_game: GameSpec, spreads, sharpness: float, grid: GridSpec) -> SweepResult:
    """Single risk-neutral holder under increasing spread-crossing costs:
    both the time-zero speed and the surplus shrink as the spread grows."""
    if base_game.n_players != 1 or not base_game.all_risk_neutral:
        raise ExperimentError("spread_sweep requires a single risk-neutral player")
    if not isinstance(base_game.cost, (SmoothedSpreadCost, LinearCost)):
        raise ExperimentError("spread_sweep requires a linear or smoothed-spread cost")
    kappa = base_game.cost.kappa
    spreads = tuple(float(s) for s in spreads)
    speed_rows, surplus_rows = {}, {}
    for s in spreads:
        cost = SmoothedSpreadCost(kappa=kappa, spread=s, sharpness=sharpness)
        game_s = GameSpec(base_game.market, cost, base_game.players)
        sol = solve_fd(game_s, grid)
        speed_rows[s] = sol.speeds[0, 0].copy()
        surplus_rows[s] = surplus(sol, game_s, time_indices=[0])[0, 0]
    max_speed = np.array([float(np.max(np.abs(speed_rows[s]))) for s in spreads])
    max_surplus = np.array([float(np.max(surplus_rows[s])) for s in spreads])
    assertions = {
        "max_speed_non_increasing": _non_increasing(max_speed, SPREAD_MONOTONE_TOL),
        "max_surplus_non_increasing": _non_increasing(max_surplus, SPREAD_MONOTONE_TOL),
    }
    game_hash, grid_hash = _hashes(base_game, grid)
    return SweepResult(
        param="s",
        values=spreads,
        metrics={"max_abs_speed": max_speed, "max_surplus": max_surplus},
        grids={
            "prices": grid.prices,
            **{f"speed_s{s:g}": speed_rows[s] for s in spreads},
            **{f"surplus_s{s:g}": surplus_rows[s] for s in spreads},
        },
        assertions=assertions,
        game_hash=game_hash,
        grid_hash=grid_hash,
    )


def cara_two_player_study(alphas, base_game: GameSpec, grid: GridSpec) -> SweepResult:
    """Long call holder (player 1) versus its issuer (player 2), both with
    exponential utility: the holder buys and the issuer sells on the band
    p0 +/- ``BAND_HALF_WIDTH``."""
    h = base_game.players[0].endowment
    game = GameSpec(
        market=base_game.market,
        cost=base_game.cost,
        players=(
            PlayerSpec(CARA(float(alphas[0])), h),
            PlayerSpec(CARA(float(alphas[1])), Negated(h)),
        ),
    )
    sol = solve_fd(game, grid)
    prices = grid.prices
    p0 = game.market.p0
    mask = (prices >= p0 - BAND_HALF_WIDTH) & (prices <= p0 + BAND_HALF_WIDTH)
    writer_speed = sol.speeds[0, 0]
    issuer_speed = sol.speeds[1, 0]
    surp = surplus(sol, game, time_indices=[0])[:, 0, :]
    assertions = {
        "writer_buys": bool(np.min(writer_speed[mask]) >= -SIGN_TOL),
        "issuer_sells": bool(np.max(issuer_speed[mask]) <= SIGN_TOL),
    }
    game_hash, grid_hash = _hashes(game, grid)
    return SweepResult(
        param="alpha",
        values=(float(alphas[0]), float(alphas[1])),
        metrics={
            "min_writer_speed_on_band": np.array([float(np.min(writer_speed[mask]))]),
            "max_issuer_speed_on_band": np.array([float(np.max(issuer_speed[mask]))]),
        },
        grids={
            "prices": prices,
            "writer_speed": writer_speed,
            "issuer_speed": issuer_speed,
            "aggregate_speed": sol.aggregate_speed[0].copy(),
            "writer_surplus": surp[0],
            "issuer_surplus": surp[1],
        },
        assertions=assertions,
        game_hash=game_hash,
        grid_hash=grid_hash,
    )


# ---------------------------------------------------------------------------
# benchmark figure grids
# ---------------------------------------------------------------------------


def _benchmark_market(sigma: float = 1.0) -> MarketParams:
    return MarketParams(sigma=sigma, lam=0.01, maturity=1.0, p0=100.0)


def _benchmark_payoff(kind: str, market: MarketParams) -> Payoff:
    scale = market.scale
    if kind == "call":
        return SmoothedCall(strike=100.0, cap=10.0 * scale, width=0.05 * scale)
    if kind == "digital":
        return SmoothedDigital(strike=100.0, width=0.05 * scale)
    raise ExperimentError(f"unknown payoff kind '{kind}'")


def _speed_surplus_grid(kind: str, grid: GridSpec | None) -> SweepResult:
    """Time-price grids of the single-holder speed and surplus under the
    benchmark parameters (K=100, T=1, sigma=1, lambda=kappa=0.01), swept
    over the time axis."""
    market = _benchmark_market()
    game = GameSpec(market, LinearCost(0.01),
                    (PlayerSpec(RiskNeutral(), _benchmark_payoff(kind, market)),))
    grid = grid or GridSpec.for_market(market, n_p=241, n_t=101)
    sol = solve_closed(game, grid)
    game_hash, grid_hash = _hashes(game, grid)
    return SweepResult(
        param="t",
        values=tuple(sol.times.tolist()),
        metrics={},
        grids={"prices": sol.prices, "speed": sol.aggregate_speed,
               "surplus": surplus(sol, game)[0]},
        assertions={},
        game_hash=game_hash,
        grid_hash=grid_hash,
    )


def figure_grids(which: str, grid: GridSpec | None = None):
    """Tabular data behind the benchmark figures.

    fig1/fig2: single-holder speed and surplus grids (call / digital);
    fig3/fig4: spread sweeps (call / digital); fig5: the two-player
    exponential-utility study; fig6: the split sweep for N in {1, 10, 100}.
    fig5 spans its own sigma = 2 market, keeping only a given grid's sizes.
    """
    market = _benchmark_market()
    if which in ("fig1", "fig2"):
        return _speed_surplus_grid("call" if which == "fig1" else "digital", grid)
    if which in ("fig3", "fig4"):
        kind = "call" if which == "fig3" else "digital"
        game = GameSpec(market, LinearCost(0.01),
                        (PlayerSpec(RiskNeutral(), _benchmark_payoff(kind, market)),))
        grid = grid or GridSpec.for_market(market, n_p=401, n_t=1000)
        return spread_sweep(game, (0.0, 0.001, 0.002, 0.003, 0.004), 100.0, grid)
    if which == "fig5":
        market2 = _benchmark_market(sigma=2.0)
        game = GameSpec(market2, LinearCost(0.01),
                        (PlayerSpec(RiskNeutral(), _benchmark_payoff("call", market2)),))
        sizes = (grid.n_p, grid.n_t, grid.quad_nodes) if grid else (401, 1000, 128)
        grid = GridSpec.for_market(market2, *sizes)
        return {
            "plain": cara_two_player_study((0.01, 0.01), game, grid),
            "dashed": cara_two_player_study((0.001, 0.1), game, grid),
        }
    if which == "fig6":
        game = GameSpec(market, LinearCost(0.01),
                        (PlayerSpec(RiskNeutral(), _benchmark_payoff("call", market)),))
        grid = grid or GridSpec.for_market(market, n_p=401, n_t=101)
        return {
            "call": split_sweep(_benchmark_payoff("call", market), (1, 10, 100), game, grid),
            "digital": split_sweep(_benchmark_payoff("digital", market), (1, 10, 100), game, grid),
        }
    raise ExperimentError(f"unknown figure id '{which}'")
