import io
import zipfile
from dataclasses import replace

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
    SpeedSolverError,
    certify_for_game,
    equilibrium_fields,
    heat_convolve,
    read_solution_npz,
    residual,
    rn_aggregate_grid,
    solve_closed,
    solve_fd,
    solve_fd_initial,
    solve_picard,
    surplus,
    surplus_at,
    write_solution_csv,
    write_solution_npz,
)
from illiq.closedform import central_gradient, closed_form_values


def _zero_game(market):
    return GameSpec(market, LinearCost(0.01),
                    (PlayerSpec(RiskNeutral(), Scaled(SmoothedCall(100.0, 10.0, 0.05), 0.0)),))


def _cara_pair(market, cost, call):
    return GameSpec(market, cost, (PlayerSpec(CARA(0.01), call),
                                   PlayerSpec(CARA(0.1), Negated(call))))


def _n2_game(market, call):
    return GameSpec(market, LinearCost(0.01), (PlayerSpec(RiskNeutral(), call),
                                               PlayerSpec(RiskNeutral(), Scaled(call, 0.0))))


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

    def poisoned(game, eps_floor, grads, start=None, sweeps=None):
        speeds, agg, source = fields(game, eps_floor, grads, start, sweeps)
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


@pytest.mark.parametrize("which", ["call", "cara_pair", "spread"])
def test_fd_stored_fields_match_per_layer_recomputation(which, call_game, call_solution,
                                                        market, linear_cost, call):
    # the march stores each layer's fields before stepping to the previous
    # layer; an off-by-one layer would pair fields with the wrong values.
    # Each layer is recomputed from the march's own root start, the time
    # extrapolation of the two stored layers above it
    if which == "call":
        game, sol = call_game, call_solution
    else:
        cost = SmoothedSpreadCost(0.01, 0.004, 100.0) if which == "spread" else linear_cost
        game = (_cara_pair(market, cost, call) if which == "cara_pair"
                else GameSpec(market, cost, (PlayerSpec(RiskNeutral(), call),)))
        sol = solve_fd(game, GridSpec(94.0, 106.0, 101, 100))
    eps = sol.meta["certificate"].eps_floor
    agg_stored = sol.aggregate_speed
    n_t = sol.times.size
    for k in range(n_t):
        grads = central_gradient(sol.values[:, k], sol.grid.dp)
        start = (None if k == n_t - 1 else agg_stored[k + 1] if k == n_t - 2
                 else 2.0 * agg_stored[k + 1] - agg_stored[k + 2])
        speeds, agg, _ = equilibrium_fields(game, eps, grads, start)
        assert np.array_equal(sol.gradients[:, k], grads)
        assert np.array_equal(sol.speeds[:, k], speeds)
        assert np.array_equal(agg_stored[k], agg)
    # every stored root passes the speed root's residual test
    cost, n = game.cost, game.n_players
    phi = n * cost.value(agg_stored) + agg_stored * cost.slope(agg_stored) \
        - game.market.lam * sol.gradients.sum(axis=0)
    assert np.abs(phi).max() <= n * eps * sol.meta["root_tol"]
    sweeps = sol.meta["root_sweeps"]
    assert (sweeps["max"] > 0) == (which == "spread")
    assert 0.0 <= sweeps["mean"] <= sweeps["max"]


def _spread_costs(*spreads):
    return [SmoothedSpreadCost(0.01, s, 100.0) for s in spreads]


def _stack(game, costs):
    return [replace(game, cost=cost) for cost in costs]


def _assert_initial_layers_match(games, grid):
    """The stack's t = 0 layers are each game's own solve_fd, bit for bit."""
    initial = solve_fd_initial(games, grid)
    sols = [solve_fd(g, grid) for g in games]
    for b, sol in enumerate(sols):
        assert np.array_equal(initial.values[:, b], sol.values[:, 0])
        assert np.array_equal(initial.gradients[:, b], sol.gradients[:, 0])
        assert np.array_equal(initial.speeds[:, b], sol.speeds[:, 0])
        assert np.array_equal(initial.aggregate_speed[b], sol.aggregate_speed[0])
    assert initial.meta["n_t_used"] == max(sol.meta["n_t_used"] for sol in sols)
    assert initial.meta["root_sweeps"]["max"] == max(sol.meta["root_sweeps"]["max"]
                                                     for sol in sols)
    return initial


@pytest.mark.parametrize("which", ["spreads", "linear", "two_rn", "cara_pair"])
def test_stack_matches_one_game_solves(which, market, call, call_game):
    # every game of a stack has its own cost, so a stack that read one game's
    # cost, slope floor or layer for another would not match that game alone
    grid = GridSpec(94.0, 106.0, 101, 80)
    if which == "spreads":
        games = _stack(call_game, _spread_costs(0.004, 0.0, 0.001, 0.002))
    elif which == "linear":
        games = _stack(call_game, [LinearCost(k) for k in (0.01, 0.02, 0.005)])
    elif which == "two_rn":
        pair = GameSpec(market, LinearCost(0.01), (PlayerSpec(RiskNeutral(), call),
                                                   PlayerSpec(RiskNeutral(), Scaled(call, 0.5))))
        games = _stack(pair, _spread_costs(0.0, 0.003, 0.001))
    else:
        games = _stack(_cara_pair(market, LinearCost(0.01), call), _spread_costs(0.002, 0.0))
    initial = _assert_initial_layers_match(games, grid)
    assert initial.meta["marches"] == 1
    assert initial.values.shape == (games[0].n_players, len(games), grid.n_p)


def test_stack_marches_each_time_grid_apart(call_game):
    # on 5 layers the explicit step's bound refines the time grid by kappa:
    # the two games of one refined grid (their spreads differ) march as one
    # stack, the third alone
    grid = GridSpec(94.0, 106.0, 61, 5)
    market = replace(call_game.market, lam=0.5)
    costs = [SmoothedSpreadCost(k, s, 100.0) for k, s in ((0.01, 0.0), (0.02, 0.001),
                                                          (0.01, 0.002))]
    games = [replace(call_game, market=market, cost=cost) for cost in costs]
    layers = [solve_fd(g, grid).meta["n_t_used"] for g in games]
    assert layers[0] == layers[2] != layers[1] and min(layers) > grid.n_t
    assert _assert_initial_layers_match(games, grid).meta["marches"] == 2


def test_stack_needs_shared_market_and_players(call_game, zero_sum_game):
    with pytest.raises(illiq.pdesolve.SolverError, match="shares its market and players"):
        solve_fd_initial([call_game, zero_sum_game], GridSpec(94.0, 106.0, 61, 20))


def test_stack_needs_a_game():
    with pytest.raises(illiq.pdesolve.SolverError, match="the stack is empty"):
        solve_fd_initial([], GridSpec(94.0, 106.0, 61, 20))


def test_surplus_at_one_time_matches_surplus(call_game):
    # the t = 0 surplus of a stack's layers, from one no-trade term, is each
    # game's surplus on its own solution
    grid = GridSpec(94.0, 106.0, 101, 60)
    games = _stack(call_game, _spread_costs(0.0, 0.004))
    initial = solve_fd_initial(games, grid)
    got = surplus_at(call_game, initial.values, 0.0, grid.prices)
    for b, game in enumerate(games):
        assert np.array_equal(got[:, b], surplus(solve_fd(game, grid), game, [0])[:, 0])


@pytest.mark.parametrize("n_p", [51, 401])
@pytest.mark.parametrize("n_rhs", [1, 2, 3])
def test_factored_solve_matches_scipy_banded_solve(n_p, n_rhs, market):
    # the march's once-factored solve gives the bits of solve_banded on its
    # matrix (I - dt sigma^2/2 D2) with identity boundary rows
    from scipy.linalg import solve_banded

    grid = GridSpec(94.0, 106.0, n_p, 200)
    dt = market.maturity / (grid.n_t - 1)
    c = dt * market.sigma**2 / (2.0 * grid.dp**2)
    ab = np.zeros((3, n_p))
    ab[0, 2:] = -c
    ab[1, :] = 1.0 + 2.0 * c
    ab[1, 0] = ab[1, -1] = 1.0
    ab[2, :-2] = -c
    factors = illiq.pdesolve._factor_tridiagonal(ab)
    b = np.random.default_rng(n_p + n_rhs).standard_normal((n_rhs, n_p))
    got = illiq.pdesolve.solve_banded(factors, b.T).T
    assert np.array_equal(got, solve_banded((1, 1), ab, b.T).T)


def test_singular_diffusion_matrix_raises():
    ab = np.zeros((3, 5))
    ab[1, :] = 1.0
    ab[1, 2] = 0.0
    with pytest.raises(illiq.pdesolve.SolverError, match="singular"):
        illiq.pdesolve._factor_tridiagonal(ab)


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
    cert, _ = certify_for_game(short_game)
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


def test_picard_takes_one_transform_pair_per_step_and_iteration(short_game, short_grid,
                                                                  transform_calls):
    # a step's seeds K(m h sigma^2) h0 for every sub-layer m come from one
    # transform pair, and each iteration's Duhamel sum over the step's
    # PICARD_SUBLAYERS + 1 layers (one block) from one more; meta counts the
    # layers written and the iterations per step
    sol = solve_picard(short_game, short_grid)
    steps = [len(changes) for changes in sol.meta["iteration_changes"]]
    assert sol.meta["tau_halvings"] == 0
    assert transform_calls == {"dct": len(steps) + sum(steps), "idct": len(steps) + sum(steps)}
    assert sol.meta["n_t_used"] == sol.times.size
    assert sol.times.size == len(steps) * illiq.pdesolve.PICARD_SUBLAYERS + 1
    assert sol.meta["iterations"] == {"max": max(steps), "mean": sum(steps) / len(steps)}


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


def test_picard_step_short_of_its_tolerance_names_the_step(short_game, monkeypatch):
    # one iteration moves the call's value by far more than PICARD_TOL
    monkeypatch.setattr(illiq.pdesolve, "PICARD_MAX_ITER", 1)
    with pytest.raises(illiq.pdesolve.SolverError,
                       match=r"^Picard step 0 did not reach .* in 1 iterations \(last change "):
        solve_picard(short_game, GridSpec(98.0, 102.0, 41, 41, quad_nodes=32))


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


def test_residual_roots_start_from_the_stored_speeds(market, call, monkeypatch):
    # the stored roots start Newton and only that: zeroing them (a cold
    # start) leaves the residual unchanged to root accuracy
    game = GameSpec(market, SmoothedSpreadCost(0.01, 0.004, 100.0),
                    (PlayerSpec(RiskNeutral(), call),))
    sol = solve_fd(game, GridSpec(94.0, 106.0, 101, 60))
    fields, starts = illiq.pdesolve.equilibrium_fields, []

    def recorded(game, eps_floor, grads, start=None, sweeps=None):
        starts.append(start)
        return fields(game, eps_floor, grads, start, sweeps)

    monkeypatch.setattr(illiq.pdesolve, "equilibrium_fields", recorded)
    warm = residual(sol, game).overall
    # one call per block of layers; in order they start from every stored root
    assert len(starts) > 1
    assert np.array_equal(np.concatenate(starts), sol.aggregate_speed)
    cold = replace(sol, aggregate_speed=np.zeros_like(sol.aggregate_speed))
    assert abs(warm - residual(cold, game).overall) <= 1e-10


def test_residual_takes_gradients_with_the_solver_step(call_game, monkeypatch):
    # on the README lattice prices[1] - prices[0] is 0.030000000000001137, not
    # the grid's dp = 0.03 that every route divides by; residual takes the
    # latter, so the gradients it passes on are the solution's, bit for bit
    sol = solve_fd(call_game, GridSpec(94.0, 106.0, 401, 60))
    assert sol.prices[1] - sol.prices[0] != sol.grid.dp
    fields, passed = illiq.pdesolve.equilibrium_fields, []

    def recorded(game, eps_floor, grads, start=None, sweeps=None):
        passed.append(grads)
        return fields(game, eps_floor, grads, start, sweeps)

    monkeypatch.setattr(illiq.pdesolve, "equilibrium_fields", recorded)
    residual(sol, call_game)
    assert len(passed) > 1
    assert np.array_equal(np.concatenate(passed, axis=1), sol.gradients)


def _whole_lattice_residual(sol, game):
    """The residual's max per player from one pass over the whole lattice."""
    v, dt, dp = sol.values, sol.times[1] - sol.times[0], sol.grid.dp
    inner = slice(1, -1)
    v_t = (v[:, 2:, :] - v[:, :-2, :]) / (2.0 * dt)
    v_pp = (v[:, :, 2:] - 2.0 * v[:, :, 1:-1] + v[:, :, :-2]) / dp**2
    grads = central_gradient(v, dp)[..., inner]
    _, _, source = equilibrium_fields(game, sol.meta["certificate"].eps_floor, grads,
                                      sol.aggregate_speed[:, inner])
    res = v_t[:, :, inner] + 0.5 * game.market.sigma**2 * v_pp[:, inner, :] + source[:, inner, :]
    return np.max(np.abs(res), axis=(1, 2))


@pytest.mark.parametrize("case", ["fd_partial_block", "fd_cara_spread", "picard_n2", "closed_n2"])
def test_blocked_residual_is_the_whole_lattice_formula(market, call, case):
    # the blocks run the whole-lattice formula on their own layers, bit for
    # bit; 97 layers of 101 prices end on a block of 17 of the 40 layers
    if case == "fd_partial_block":
        grid = GridSpec(94.0, 106.0, 101, 97)
        assert grid.n_t % (illiq.pdesolve._BLOCK_POINTS // grid.n_p) != 0
        game = GameSpec(market, LinearCost(0.01), (PlayerSpec(RiskNeutral(), call),))
        sol = solve_fd(game, grid)
    elif case == "fd_cara_spread":
        game = _cara_pair(market, SmoothedSpreadCost(0.01, 0.002, 100.0), call)
        sol = solve_fd(game, GridSpec(94.0, 106.0, 101, 150))
    else:
        game = _n2_game(market, call)
        solve = solve_picard if case == "picard_n2" else solve_closed
        sol = solve(game, GridSpec(94.0, 106.0, 61, 161, quad_nodes=64))
    assert sol.times.size > illiq.pdesolve._BLOCK_POINTS // sol.prices.size
    rep = residual(sol, game)
    assert rep.per_player.tobytes() == _whole_lattice_residual(sol, game).tobytes()
    assert rep.overall == float(np.max(rep.per_player))


def _whole_lattice_fields(sol, game):
    """The gradient, speed and aggregate lattices from one equilibrium_fields
    call over the whole lattice."""
    grads = central_gradient(sol.values, sol.grid.dp)
    speeds, agg, _ = equilibrium_fields(game, sol.meta["certificate"].eps_floor, grads)
    return grads, speeds, agg


@pytest.mark.parametrize("case", ["closed_n1", "closed_n2", "picard_n2"])
def test_lattice_fields_are_the_whole_lattice_formula(market, call, case):
    # the closed and Picard fields come in blocks of layers, bit for bit those
    # of one call; 101 prices take 40 layers a block, so closed's 97 layers
    # end on a block of 17 and Picard's 161 on a block of 1
    if case == "closed_n1":
        game = GameSpec(market, LinearCost(0.01), (PlayerSpec(RiskNeutral(), call),))
    else:
        game = _n2_game(market, call)
    solve = solve_picard if case == "picard_n2" else solve_closed
    sol = solve(game, GridSpec(94.0, 106.0, 101, 97, quad_nodes=64))
    rows = illiq.pdesolve._BLOCK_POINTS // sol.prices.size
    assert sol.times.size > rows and sol.times.size % rows != 0
    grads, speeds, agg = _whole_lattice_fields(sol, game)
    assert np.array_equal(sol.gradients, grads)
    assert np.array_equal(sol.speeds, speeds)
    assert np.array_equal(sol.aggregate_speed, agg)


def test_lattice_fields_memory_is_flat_in_n_t(market, call, traced_peak):
    # beyond the gradient, speed and aggregate lattices it returns, the field
    # pass holds one block's temporaries; one call over the whole lattice
    # grew that excess by 7.2 MB from 100 to 400 layers.  The closed-form
    # values are taken before tracing, so their own memory stays out
    game = _n2_game(market, call)
    cert = certify_for_game(game)[0]

    def excess(n_t):
        grid = GridSpec(94.0, 106.0, 201, n_t)
        values = closed_form_values(game, grid)
        peak = traced_peak(illiq.pdesolve._lattice_solution, game, grid, cert,
                           grid.times(market.maturity), values, {})
        return peak - (2 * values.nbytes + values[0].nbytes)

    excess(20)  # lazy imports before measuring
    assert abs(excess(400) - excess(100)) <= 0.1e6


def test_residual_memory_is_flat_in_n_t(call_game, traced_peak):
    # the pass holds one block of layers at a time: 4x the layers leave its
    # peak flat, where whole-lattice temporaries would grow it 4x
    def peak(n_t):
        sol = solve_fd(call_game, GridSpec(94.0, 106.0, 401, n_t))
        return traced_peak(residual, sol, call_game)

    assert peak(400) < 1.25 * peak(100)


@pytest.mark.parametrize("layer", [0, -1])
def test_residual_guards_see_the_end_layers(call_game, layer):
    # layers 0 and n_t - 1 have no residual of their own, but their
    # gradients still go through the root's guards
    sol = solve_fd(call_game, GridSpec(94.0, 106.0, 101, 60))
    values = sol.values.copy()
    values[0, layer, 50] = np.nan
    with pytest.raises(SpeedSolverError, match="gradient sums must be finite"):
        residual(replace(sol, values=values), call_game)


@pytest.mark.parametrize("n_p, n_t", [(41, 4), (3, 41)])
def test_residual_needs_a_5x5_lattice(call_game, n_p, n_t):
    sol = solve_closed(call_game, GridSpec(94.0, 106.0, n_p, n_t))
    with pytest.raises(ValueError, match="residual needs at least a 5x5 grid"):
        residual(sol, call_game)


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


def test_surplus_of_no_layers_is_empty(call_game, call_solution):
    surp = surplus(call_solution, call_game, time_indices=[])
    assert surp.shape == (call_game.n_players, 0, call_solution.prices.size)


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
    # %.17g round-trips every double, so the CSV parses back to the lattices
    path = tmp_path / "solution.csv"
    write_solution_csv(call_solution, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,p,v_1,grad_1,speed_1,agg_speed"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    n_t, n_p = call_solution.values.shape[1:]
    assert np.array_equal(data[::n_p, 0], call_solution.times)
    assert np.array_equal(data[:n_p, 1], call_solution.prices)
    for col, field in enumerate((call_solution.values[0], call_solution.gradients[0],
                                 call_solution.speeds[0], call_solution.aggregate_speed), 2):
        assert np.array_equal(data[:, col].reshape(n_t, n_p), field)


@pytest.mark.parametrize("solver", [solve_fd, solve_picard], ids=["fd", "picard"])
def test_solution_npz_roundtrip(tmp_path, zero_sum_game, solver):
    sol = solver(zero_sum_game, GridSpec(94.0, 106.0, 41, 41, quad_nodes=64))
    path = tmp_path / "solution.npz"
    write_solution_npz(sol, path)
    back = read_solution_npz(path, sol.grid)
    assert back.grid == sol.grid
    for name in ("times", "prices", "values", "gradients", "speeds", "aggregate_speed"):
        assert np.array_equal(getattr(back, name), getattr(sol, name)), name
    # the certificate comes back as the object residual reads, and the rest as JSON values
    assert back.meta == sol.meta
    assert isinstance(back.meta["certificate"], illiq.CostCertificate)
    assert np.array_equal(residual(back, zero_sum_game).per_player,
                          residual(sol, zero_sum_game).per_player)


def test_solution_npz_writes_no_lattice_copy(tmp_path, traced_peak):
    # np.savez copies each lattice whole through tobytes (2.1 MB here); the
    # writer hands the file slices of views, so its peak stays below one lattice
    grid = GridSpec(94.0, 106.0, 201, 1300)
    lattice = np.random.default_rng(3).standard_normal((1, grid.n_t, grid.n_p))
    sol = Solution(grid, np.linspace(0.0, 1.0, grid.n_t), grid.prices, lattice, 2 * lattice,
                   3 * lattice, lattice[0], {"speed_bound": 1.0})
    path = tmp_path / "solution.npz"
    assert traced_peak(write_solution_npz, sol, path) < lattice.nbytes
    back = read_solution_npz(path, grid)
    for name in illiq.pdesolve.SOLUTION_ARRAYS:
        assert np.array_equal(getattr(back, name), getattr(sol, name)), name
    assert back.meta == sol.meta


def test_solution_npz_loads_views_of_the_bytes_read(tmp_path, traced_peak):
    # the members are stored, so the arrays are read-only views into the
    # bytes read: reading a file and loading it, as simulate does, holds the
    # file once, where copies held it twice
    grid = GridSpec(94.0, 106.0, 201, 1300)
    lattice = np.random.default_rng(4).standard_normal((1, grid.n_t, grid.n_p))
    sol = Solution(grid, np.linspace(0.0, 1.0, grid.n_t), grid.prices, lattice, 2 * lattice,
                   3 * lattice, lattice[0], {"speed_bound": 1.0})
    path = tmp_path / "solution.npz"
    write_solution_npz(sol, path)
    def load():
        return read_solution_npz(io.BytesIO(path.read_bytes()), grid)

    assert traced_peak(load) <= path.stat().st_size + (1 << 20)
    assert traced_peak(read_solution_npz, path, grid) <= path.stat().st_size + (1 << 20)
    data = path.read_bytes()
    for back in (read_solution_npz(data, grid), read_solution_npz(io.BytesIO(data), grid)):
        for name in illiq.pdesolve.SOLUTION_ARRAYS:
            array = getattr(back, name)
            assert np.array_equal(array, getattr(sol, name)), name
            assert not array.flags.writeable and not array.flags.owndata, name
        assert back.meta == sol.meta


def test_solution_npz_refuses_compressed_or_short_members(tmp_path, call_solution):
    path = tmp_path / "solution.npz"
    write_solution_npz(call_solution, path)
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    with zipfile.ZipFile(tmp_path / "deflated.npz", "w", zipfile.ZIP_DEFLATED) as archive:
        for name, data in members.items():
            archive.writestr(name, data)
    with pytest.raises(ValueError, match="meta.npy is compressed"):
        read_solution_npz(tmp_path / "deflated.npz", call_solution.grid)
    with zipfile.ZipFile(tmp_path / "short.npz", "w") as archive:
        for name, data in members.items():
            archive.writestr(name, data[:-8] if name == "speeds.npy" else data)
    with pytest.raises(ValueError, match="speeds.npy holds"):
        read_solution_npz(tmp_path / "short.npz", call_solution.grid)


def test_read_solution_grid_follows_the_file(tmp_path, call_game):
    # a solve on a lattice other than the config's: the read-back grid
    # describes the file's prices and layers, not the config's sizes
    config_grid = GridSpec(94.0, 106.0, 81, 100, quad_nodes=64)
    sol = solve_fd(call_game, GridSpec(94.0, 106.0, 41, 100, quad_nodes=64))
    path = tmp_path / "solution.npz"
    write_solution_npz(sol, path)
    back = read_solution_npz(path, config_grid)
    assert (back.grid.n_p, back.grid.n_t) == (41, sol.times.size)
    assert back.grid.dp == pytest.approx(0.3)
    assert np.array_equal(back.grid.prices, back.prices)
