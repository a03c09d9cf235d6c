import numpy as np
import pytest

import illiq.pdesolve
from illiq import (
    CARA,
    ClosedFormError,
    GameSpec,
    GridSpec,
    LinearCost,
    MarketParams,
    Negated,
    PlayerSpec,
    RiskNeutral,
    Scaled,
    SmoothedCall,
    SmoothedSpreadCost,
    Solution,
    equilibrium_fields,
    heat_convolve,
    read_solution_csv,
    residual,
    rn_aggregate_grid,
    solve_closed,
    solve_fd,
    solve_picard,
    surplus,
    write_solution_csv,
)
from illiq.closedform import central_gradient


def _zero_game(market):
    return GameSpec(market, LinearCost(0.01),
                    (PlayerSpec(RiskNeutral(), Scaled(SmoothedCall(100.0, 10.0, 0.05), 0.0)),))


def _cara_pair(market, cost, call):
    return GameSpec(market, cost, (PlayerSpec(CARA(0.01), call),
                                   PlayerSpec(CARA(0.1), Negated(call))))


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def test_zero_endowment_solves_to_zero(market):
    sol = solve_fd(_zero_game(market), GridSpec(94.0, 106.0, 101, 50))
    assert np.all(sol.values == 0.0)
    assert np.all(sol.speeds == 0.0)
    assert np.all(sol.aggregate_speed == 0.0)


def test_fd_matches_closed_form(call_game, call_solution, coarse_grid):
    cf = rn_aggregate_grid(call_game, coarse_grid)
    rel = np.abs(call_solution.values[0] - cf) / (1.0 + np.abs(cf))
    assert rel[1:-1, 1:-1].max() <= 1e-2


def test_fd_zero_sum_cancels(zero_sum_game, coarse_grid):
    sol = solve_fd(zero_sum_game, coarse_grid)
    assert np.abs(sol.aggregate_speed).max() <= 10 * sol.meta["root_tol"]
    assert np.abs(sol.values.sum(axis=0)).max() <= 1e-12


def test_terminal_layer_is_bitwise_payoff(call_game, call_solution):
    expected = call_game.players[0].endowment.value(call_solution.prices)
    assert np.array_equal(call_solution.values[0, -1], expected)


def test_speed_bound_holds_everywhere(call_solution):
    bound = call_solution.meta["speed_bound"]
    assert np.abs(call_solution.speeds).max() <= bound + 1e-6


def test_speed_sum_matches_aggregate(zero_sum_game, coarse_grid):
    sol = solve_fd(zero_sum_game, coarse_grid)
    gap = np.abs(sol.speeds.sum(axis=0) - sol.aggregate_speed).max()
    assert gap <= 2 * sol.meta["root_tol"]


def test_fd_convergence_order(call_game):
    # halving both steps shrinks the closed-form error by at least 1.5x
    errs = []
    for n_p, n_t in [(101, 100), (201, 200), (401, 400)]:
        grid = GridSpec(94.0, 106.0, n_p, n_t, quad_nodes=96)
        sol = solve_fd(call_game, grid)
        cf = rn_aggregate_grid(call_game, grid)
        rel = np.abs(sol.values[0] - cf) / (1.0 + np.abs(cf))
        errs.append(rel[1:-1, 1:-1].max())
    assert errs[1] <= errs[0] / 1.5
    assert errs[2] <= errs[1] / 1.5


def test_cara_small_alpha_matches_risk_neutral_solve(market, linear_cost, call, coarse_grid, call_solution):
    cara_game = GameSpec(market, linear_cost, (PlayerSpec(CARA(1e-8), call),))
    sol = solve_fd(cara_game, coarse_grid)
    assert np.abs(sol.values - call_solution.values).max() <= 1e-4


def test_cfl_refines_time_grid(linear_cost, call):
    # strong impact forces a finer march than requested
    market = MarketParams(sigma=1.0, lam=0.5, maturity=1.0, p0=100.0)
    game = GameSpec(market, linear_cost, (PlayerSpec(RiskNeutral(), call),))
    grid = GridSpec(94.0, 106.0, 101, 10)
    sol = solve_fd(game, grid)
    assert sol.times.size > 10
    assert sol.meta["n_t_requested"] == 10
    assert sol.grid.n_t == sol.times.size


def test_fd_overflow_names_the_layer(call_game, monkeypatch):
    # a step that goes non-finite must fail as a solver error naming its
    # layer, not inside the banded solve
    fields = illiq.pdesolve.equilibrium_fields
    calls = []

    def poisoned(game, eps_floor, grads):
        speeds, agg, source = fields(game, eps_floor, grads)
        calls.append(1)
        if len(calls) == 3:  # the march visits layers 19, 18, 17, ...
            source = np.where(np.arange(source.shape[-1]) == 5, np.inf, source)
        return speeds, agg, source

    monkeypatch.setattr(illiq.pdesolve, "equilibrium_fields", poisoned)
    with pytest.raises(illiq.pdesolve.SolverError, match="time layer 17 of 20"):
        solve_fd(call_game, GridSpec(94.0, 106.0, 51, 20))


def test_fd_cara_cap_keeps_speeds_inside_bound():
    # two strongly risk-averse players: the explicit CARA term
    # -sigma^2 alpha / 2 v_p^2 takes its share of the dt cap,
    # dt <= dp / (2 (lambda N B + sigma^2 alpha sup|H_p|)) = 0.06 / 80.08;
    # without it this march overflowed at time layer 170 of 200
    market = MarketParams(sigma=2.0, lam=0.01, maturity=1.0, p0=100.0)
    call = SmoothedCall(100.0, 20.0, 0.1)
    game = GameSpec(market, LinearCost(0.01),
                    (PlayerSpec(CARA(10.0), call), PlayerSpec(CARA(10.0), Negated(call))))
    sol = solve_fd(game, GridSpec.for_market(market, n_p=401, n_t=200))
    assert sol.meta["n_t_used"] == 1336
    assert np.all(np.isfinite(sol.values))
    assert np.abs(sol.speeds).max() <= sol.meta["speed_bound"]


@pytest.mark.parametrize("which", ["call", "cara_pair"])
def test_fd_stored_fields_match_per_layer_recomputation(which, call_game, call_solution,
                                                        market, linear_cost, call):
    # the march stores each layer's fields before stepping to the previous
    # layer; an off-by-one layer would pair fields with the wrong values
    if which == "call":
        game, sol = call_game, call_solution
    else:
        game = _cara_pair(market, linear_cost, call)
        sol = solve_fd(game, GridSpec(94.0, 106.0, 101, 100))
    eps = sol.meta["certificate"].eps_floor
    for k in range(sol.times.size):
        grads = central_gradient(sol.values[:, k], sol.grid.dp)
        speeds, agg, _ = equilibrium_fields(game, eps, grads)
        assert np.array_equal(sol.gradients[:, k], grads)
        assert np.array_equal(sol.speeds[:, k], speeds)
        assert np.array_equal(sol.aggregate_speed[k], agg)


def test_solution_value_interpolation(call_solution):
    exact = call_solution.values[0, 0, 100]
    p = call_solution.prices[100]
    assert call_solution.value_at(0, 0.0, float(p)) == pytest.approx(float(exact))


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------


def test_closed_solution_matches_closed_form(call_game, coarse_grid):
    sol = solve_closed(call_game, coarse_grid)
    cf = rn_aggregate_grid(call_game, coarse_grid)
    assert np.array_equal(sol.values[0], cf)
    assert {"certificate", "speed_bound", "root_tol"} <= set(sol.meta)


@pytest.mark.parametrize("which", ["cara_pair", "spread_cost"])
def test_closed_rejects_uncovered_games_before_certifying(which, market, linear_cost, call,
                                                          monkeypatch):
    if which == "cara_pair":
        game = _cara_pair(market, linear_cost, call)
    else:
        spread = SmoothedSpreadCost(kappa=0.01, spread=0.002, sharpness=100.0)
        game = GameSpec(market, spread, (PlayerSpec(RiskNeutral(), call),))

    def certify(game):
        raise AssertionError("certified a game without a closed form")

    monkeypatch.setattr(illiq.pdesolve, "certify_for_game", certify)
    with pytest.raises(ClosedFormError):
        solve_closed(game, GridSpec(94.0, 106.0, 51, 20))


# ---------------------------------------------------------------------------
# Picard
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def short_game(linear_cost, call):
    market = MarketParams(sigma=1.0, lam=0.01, maturity=0.1, p0=100.0)
    return GameSpec(market, linear_cost, (PlayerSpec(RiskNeutral(), call),))


@pytest.fixture(scope="module")
def short_grid():
    return GridSpec(98.0, 102.0, n_p=161, n_t=161, quad_nodes=96)


def test_picard_pure_semigroup(short_grid, linear_cost, call, rule):
    # negligible impact: the fixed point is the heat semigroup itself
    market = MarketParams(sigma=1.0, lam=1e-300, maturity=0.1, p0=100.0)
    game = GameSpec(market, linear_cost, (PlayerSpec(RiskNeutral(), call),))
    sol = solve_picard(game, short_grid)
    # error budget: 20 semigroup applications, each composed through the
    # grid interpolation, not the fixed-point iteration itself
    for k in (0, 40, 120):
        var = market.sigma**2 * (market.maturity - sol.times[k])
        heat = heat_convolve(call, var, sol.prices, rule)
        interior = slice(10, -10)
        assert np.abs(sol.values[0, k] - heat)[interior].max() <= 2e-3


def test_picard_first_iteration_is_first_order_duhamel(short_game, short_grid, monkeypatch):
    # with the iteration capped at one sweep, the output is the seed plus
    # one Duhamel integral of F evaluated on the seed
    from illiq.closedform import central_gradient, heat_convolve_grid
    from illiq.speeds import certify_for_game, equilibrium_fields

    # one step spanning the whole horizon, two sub-layers, one sweep
    monkeypatch.setattr(illiq.pdesolve, "PICARD_TAU_FRACTION", 1.0)
    monkeypatch.setattr(illiq.pdesolve, "PICARD_SUBLAYERS", 2)
    monkeypatch.setattr(illiq.pdesolve, "PICARD_MAX_ITER", 1)
    monkeypatch.setattr(illiq.pdesolve, "PICARD_TOL", 1e30)
    sol = solve_picard(short_game, short_grid)

    market = short_game.market
    prices = short_grid.prices
    cert = certify_for_game(short_game)
    h0 = short_game.payoff_layer(prices)
    step = market.maturity / 2
    sig2 = market.sigma**2

    seed = [h0,
            np.stack([heat_convolve_grid(h0[0], prices, sig2 * step)]),
            np.stack([heat_convolve_grid(h0[0], prices, sig2 * 2 * step)])]
    f = [equilibrium_fields(short_game, cert.eps_floor, central_gradient(s, short_grid.dp))[2]
         for s in seed]
    conv_f0 = np.stack([heat_convolve_grid(f[0][0], prices, sig2 * step)])
    expected_mid = seed[1] + 0.5 * step * (conv_f0 + f[1])
    got_mid = sol.values[:, sol.times.size - 2]  # one sub-layer before maturity
    assert np.abs(got_mid - expected_mid).max() <= 1e-12


def test_picard_agrees_with_fd(short_game, short_grid):
    psol = solve_picard(short_game, short_grid)
    fsol = solve_fd(short_game, short_grid)
    assert psol.times.size == fsol.times.size
    assert np.abs(psol.values - fsol.values).max() <= 1e-2


def test_picard_agrees_with_two_player_closed_form(market, linear_cost, call):
    # the call holder against an endowment-free competitor: both routes apply
    # the same heat operator, so only the fixed point separates them
    game = GameSpec(market, linear_cost, (PlayerSpec(RiskNeutral(), call),
                                          PlayerSpec(RiskNeutral(), Scaled(call, 0.0))))
    grid = GridSpec(94.0, 106.0, n_p=121, n_t=161, quad_nodes=96)
    psol, csol = solve_picard(game, grid), solve_closed(game, grid)
    assert np.array_equal(psol.times, csol.times)
    assert np.abs(psol.values - csol.values).max() <= 1e-4


def test_picard_contracts(short_game, short_grid):
    sol = solve_picard(short_game, short_grid)
    for changes in sol.meta["iteration_changes"]:
        for a, b in zip(changes[1:], changes[2:]):
            assert b < a


def test_picard_halves_tau_after_a_non_contracting_step(short_game, monkeypatch):
    march = illiq.pdesolve._picard_march
    taus = []

    def diverge_once(game, grid, cert, tau):
        taus.append(tau)
        if len(taus) == 1:
            raise illiq.pdesolve._NonContraction("forced")
        return march(game, grid, cert, tau)

    monkeypatch.setattr(illiq.pdesolve, "_picard_march", diverge_once)
    sol = solve_picard(short_game, GridSpec(98.0, 102.0, 41, 41, quad_nodes=32))
    tau0 = illiq.pdesolve.PICARD_TAU_FRACTION * short_game.market.maturity
    assert taus == [tau0, 0.5 * tau0]
    assert sol.meta["tau_halvings"] == 1
    assert sol.meta["tau"] == 0.5 * tau0


def test_picard_gives_up_when_halving_never_contracts(short_game, monkeypatch):
    taus = []

    def diverge(game, grid, cert, tau):
        taus.append(tau)
        raise illiq.pdesolve._NonContraction("forced")

    monkeypatch.setattr(illiq.pdesolve, "_picard_march", diverge)
    with pytest.raises(illiq.pdesolve.SolverError, match="kept diverging: forced"):
        solve_picard(short_game, GridSpec(98.0, 102.0, 41, 41, quad_nodes=32))
    assert len(taus) == illiq.pdesolve.PICARD_MAX_HALVINGS + 1


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------


def test_residual_of_sampled_closed_form(market, linear_cost):
    # a smooth payoff sampled from the closed form satisfies the equation
    # at the 1e-3 scale of its own quadratic term
    call = SmoothedCall(100.0, 10.0, 0.4)
    game = GameSpec(market, linear_cost, (PlayerSpec(RiskNeutral(), call),))
    grid = GridSpec(94.0, 106.0, 201, 201, quad_nodes=128)
    cf = rn_aggregate_grid(game, grid)
    sol = Solution(grid, grid.times(1.0), grid.prices, cf[None], np.zeros_like(cf[None]),
                   np.zeros_like(cf[None]), np.zeros_like(cf), {})
    rep = residual(sol, game)
    grads = np.gradient(cf, grid.dp, axis=1)
    scale = 1.0 + 2 * market.lam**2 / (4 * 0.01) * float(np.max(grads**2))
    assert rep.overall <= 1e-3 * scale


def test_residual_zero_game(market):
    game = _zero_game(market)
    sol = solve_fd(game, GridSpec(94.0, 106.0, 101, 50))
    rep = residual(sol, game)
    assert rep.overall == 0.0


def test_residual_localizes_perturbation(market, call_game, call_solution):
    values = call_solution.values.copy()
    k, i = 200, 100
    values[0, k, i] += 1.0
    sol = Solution(call_solution.grid, call_solution.times, call_solution.prices,
                   values, call_solution.gradients, call_solution.speeds,
                   call_solution.aggregate_speed, dict(call_solution.meta))
    rep = residual(sol, call_game)
    base = residual(call_solution, call_game)
    assert rep.overall > 1e3 * max(base.overall, 1e-6)
    # the spike is near the perturbed node: zero out its stencil and the
    # residual falls back to the unperturbed scale
    dt = sol.times[1] - sol.times[0]
    dp = sol.prices[1] - sol.prices[0]
    v = values.copy()
    v[0, k, i] -= 1.0
    sol2 = Solution(sol.grid, sol.times, sol.prices, v, sol.gradients, sol.speeds,
                    sol.aggregate_speed, dict(sol.meta))
    assert residual(sol2, call_game).overall == pytest.approx(base.overall)


# ---------------------------------------------------------------------------
# surplus
# ---------------------------------------------------------------------------


def test_surplus_vanishes_without_impact(linear_cost):
    market = MarketParams(sigma=1.0, lam=1e-300, maturity=1.0, p0=100.0)
    call = SmoothedCall(100.0, 10.0, 0.3)
    game = GameSpec(market, linear_cost, (PlayerSpec(RiskNeutral(), call),))
    sol = solve_fd(game, GridSpec(94.0, 106.0, 201, 400))
    surp = surplus(sol, game, time_indices=[0])
    assert np.abs(surp).max() <= 1e-3


def test_call_surplus_nonnegative_and_grows_with_horizon(call_game, call_solution):
    times = call_solution.times
    idx = [int(np.argmin(np.abs(times - t))) for t in (0.0, 0.25, 0.5, 0.75)]
    surp = surplus(call_solution, call_game, time_indices=idx)
    # nonnegative up to the finite-difference error of the coarse lattice
    assert surp.min() >= -5e-4
    at_strike = surp[0, :, int(np.argmin(np.abs(call_solution.prices - 100.0)))]
    # surplus shrinks as maturity approaches
    assert np.all(np.diff(at_strike) < 0)


def test_digital_surplus_far_from_strike_near_maturity(market, linear_cost, digital):
    game = GameSpec(market, linear_cost, (PlayerSpec(RiskNeutral(), digital),))
    grid = GridSpec(94.0, 106.0, 201, 401)
    sol = solve_fd(game, grid)
    k = int(np.argmin(np.abs(sol.times - 0.99)))
    surp = surplus(sol, game, time_indices=[k])
    i = int(np.argmin(np.abs(sol.prices - 90.0)))
    assert abs(surp[0, 0, i]) <= 1e-3


def test_cara_surplus_uses_utility_scale(market, linear_cost, call):
    game = GameSpec(market, linear_cost, (PlayerSpec(CARA(0.5), call),))
    sol = solve_fd(game, GridSpec(94.0, 106.0, 101, 200))
    surp = surplus(sol, game, time_indices=[0])
    # trading beats never trading on the utility scale, up to lattice error
    assert surp.min() >= -3e-4
    assert surp.max() > 1e-4


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_solution_csv_roundtrip(tmp_path, call_solution):
    path = tmp_path / "solution.csv"
    write_solution_csv(call_solution, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,p,v_1,grad_1,speed_1,agg_speed"
    back = read_solution_csv(path, call_solution.grid)
    assert back.grid == call_solution.grid
    assert np.array_equal(back.values, call_solution.values)
    assert np.array_equal(back.gradients, call_solution.gradients)
    assert np.array_equal(back.speeds, call_solution.speeds)
    assert np.array_equal(back.aggregate_speed, call_solution.aggregate_speed)


def test_read_solution_grid_follows_the_file(tmp_path, call_game):
    # a solve on a lattice other than the config's: the read-back grid
    # describes the file's prices and layers, not the config's sizes
    config_grid = GridSpec(94.0, 106.0, 81, 100, quad_nodes=64)
    sol = solve_fd(call_game, GridSpec(94.0, 106.0, 41, 100, quad_nodes=64))
    path = tmp_path / "solution.csv"
    write_solution_csv(sol, path)
    back = read_solution_csv(path, config_grid)
    assert (back.grid.n_p, back.grid.n_t) == (41, sol.times.size)
    assert back.grid.dp == pytest.approx(0.3)
    assert np.array_equal(back.grid.prices, back.prices)
