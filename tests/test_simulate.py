import math
import tracemalloc

import numpy as np
import pytest

import illiq.simulate
from illiq import (
    CARA,
    GameSpec,
    GridSpec,
    LinearCost,
    MarketParams,
    Negated,
    PlayerSpec,
    RiskNeutral,
    Scaled,
    SimulationError,
    SmoothedCall,
    SmoothedSpreadCost,
    Solution,
    heat_convolve,
    mc_consistency,
    physical_delivery_value,
    read_solution_csv,
    realized_objectives,
    simulate_paths,
    solve_fd,
    write_paths_csv,
    write_solution_csv,
)
from illiq.pdesolve import _time_blend, _time_weight


def _zero_payoff():
    return Scaled(SmoothedCall(100.0, 10.0, 0.05), 0.0)


def _synthetic_solution(prices, n_players, speed=0.0):
    """A solution with zero values and the given constant speed on an 11-layer
    lattice over ``prices``, built without a solve."""
    times = np.linspace(0.0, 1.0, 11)
    shape = (n_players, times.size, prices.size)
    grid = GridSpec(94.0, 106.0, prices.size, times.size)
    return Solution(grid, times, prices, np.zeros(shape), np.zeros(shape),
                    np.full(shape, speed), np.full(shape[1:], n_players * speed),
                    {"speed_bound": abs(speed)})


@pytest.fixture(scope="module")
def zero_solution(market):
    game = GameSpec(market, LinearCost(0.01), (PlayerSpec(RiskNeutral(), _zero_payoff()),))
    sol = solve_fd(game, GridSpec(94.0, 106.0, 101, 50))
    return game, sol


def test_zero_game_is_driftless_brownian(zero_solution):
    game, sol = zero_solution
    bundle = simulate_paths(sol, game, n_paths=4000, seed=3, n_steps=50)
    assert np.all(bundle.terminal_inventories == 0.0)
    assert np.all(bundle.terminal_costs == 0.0)
    assert np.all(bundle.sample_inventories == 0.0)
    assert np.all(bundle.sample_costs == 0.0)
    assert np.all(bundle.objectives == 0.0)
    sigma_t = game.market.sigma * math.sqrt(game.market.maturity)
    drift = bundle.terminal_prices.mean() - game.market.p0
    assert abs(drift) <= 3 * sigma_t / math.sqrt(bundle.n_paths)
    assert np.all(bundle.sample_prices[:, 0] == game.market.p0)
    assert mc_consistency(bundle, sol)[0] == 0.0


def test_zero_sum_game_price_is_martingale(zero_sum_game, coarse_grid):
    sol = solve_fd(zero_sum_game, coarse_grid)
    bundle = simulate_paths(sol, zero_sum_game, n_paths=4000, seed=5, n_steps=100)
    se = bundle.terminal_prices.std() / math.sqrt(bundle.n_paths)
    assert abs(bundle.terminal_prices.mean() - 100.0) <= 3 * se


def test_strong_impact_call_pushes_price_up(linear_cost, call):
    market = MarketParams(sigma=1.0, lam=0.08, maturity=1.0, p0=100.0)
    game = GameSpec(market, linear_cost, (PlayerSpec(RiskNeutral(), call),))
    sol = solve_fd(game, GridSpec(94.0, 106.0, 201, 400))
    bundle = simulate_paths(sol, game, n_paths=4000, seed=9, n_steps=200)
    terminal = bundle.terminal_prices
    se = terminal.std() / math.sqrt(bundle.n_paths)
    assert terminal.mean() - 100.0 >= 3 * se


def test_realized_objective_matches_plain_expectation(linear_cost, rule):
    # negligible impact: mean realized payoff is the diffusion expectation
    market = MarketParams(sigma=1.0, lam=1e-12, maturity=1.0, p0=100.0)
    call = SmoothedCall(100.0, 10.0, 0.3)
    game = GameSpec(market, linear_cost, (PlayerSpec(RiskNeutral(), call),))
    sol = solve_fd(game, GridSpec(94.0, 106.0, 201, 200))
    bundle = simulate_paths(sol, game, n_paths=20000, seed=21, n_steps=100)
    means, ses = realized_objectives(bundle)
    expected = heat_convolve(call, 1.0, 100.0, rule)
    assert abs(means[0] - expected) <= 3 * ses[0]


def test_cara_objectives_strictly_negative(market, linear_cost, call):
    game = GameSpec(market, linear_cost, (PlayerSpec(CARA(0.1), call),))
    sol = solve_fd(game, GridSpec(94.0, 106.0, 101, 200))
    bundle = simulate_paths(sol, game, n_paths=500, seed=2, n_steps=50)
    assert np.all(bundle.objectives < 0.0)


def test_mc_consistency_flags_corrupted_solution(call_game, call_solution):
    bundle = simulate_paths(call_solution, call_game, n_paths=20000, seed=17, n_steps=200)
    z_good = mc_consistency(bundle, call_solution)
    assert abs(z_good[0]) <= 3.5
    corrupted = Solution(
        call_solution.grid, call_solution.times, call_solution.prices,
        call_solution.values + 0.1, call_solution.gradients, call_solution.speeds,
        call_solution.aggregate_speed, dict(call_solution.meta),
    )
    z_bad = mc_consistency(bundle, corrupted)
    assert abs(z_bad[0]) >= 5.0


_STREAMED = ("objectives", "terminal_prices", "terminal_inventories", "terminal_costs",
             "sample_prices", "sample_inventories", "sample_costs", "clamped_fraction")


def _assert_same_run(a, b):
    for name in _STREAMED:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_bitwise_determinism(call_game, call_solution, monkeypatch):
    a = simulate_paths(call_solution, call_game, n_paths=512, seed=41, n_steps=64)
    b = simulate_paths(call_solution, call_game, n_paths=512, seed=41, n_steps=64)
    _assert_same_run(a, b)
    # chunking must not change the stream, also when chunks do not divide
    # the paths and the sample paths span several chunks
    for chunk in (100, 7):
        monkeypatch.setattr(illiq.simulate, "CHUNK_PATHS", chunk)
        c = simulate_paths(call_solution, call_game, n_paths=512, seed=41, n_steps=64)
        _assert_same_run(a, c)


def test_sample_paths_end_at_terminal_state(call_game, call_solution):
    bundle = simulate_paths(call_solution, call_game, n_paths=300, seed=43, n_steps=40)
    s = illiq.simulate.SAMPLE_PATHS
    assert bundle.sample_prices.shape == (s, 41)
    assert bundle.sample_inventories.shape == bundle.sample_costs.shape == (1, s, 41)
    assert np.array_equal(bundle.sample_prices[:, -1], bundle.terminal_prices[:s])
    assert np.array_equal(bundle.sample_inventories[:, :, -1], bundle.terminal_inventories[:, :s])
    assert np.array_equal(bundle.sample_costs[:, :, -1], bundle.terminal_costs[:, :s])
    assert np.all(bundle.sample_prices[:, 0] == call_game.market.p0)


def test_memory_grows_with_output_not_path_steps(call_game, call_solution, monkeypatch):
    # 8x the paths may add their terminal price, inventory, cost and objective
    # (8 B each per player and path) plus the slack below; keeping whole paths
    # would add 3 * 7 * 64 * 201 * 8 B = 2.2 MB here.  The sample is fixed
    # below one chunk so both runs keep the same full paths.
    chunk, n_steps = 64, 200
    monkeypatch.setattr(illiq.simulate, "CHUNK_PATHS", chunk)
    monkeypatch.setattr(illiq.simulate, "SAMPLE_PATHS", 16)

    def peak(n_paths):
        tracemalloc.start()
        try:
            simulate_paths(call_solution, call_game, n_paths=n_paths, seed=3, n_steps=n_steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    n = call_game.n_players
    output = 7 * chunk * 8 * (1 + 3 * n)
    # the payoff and utility build path-sized temporaries from the terminal
    # prices (62 kB at 448 extra paths on the call); 32 kB of allocator noise
    slack = 4 * output + 32 * 1024
    assert peak(8 * chunk) - peak(chunk) <= output + slack


def test_memory_does_not_grow_with_steps_times_players(monkeypatch):
    # 4x the steps may add the noise block (chunk * 8 B per extra step), the
    # sample paths ((1 + 2N) * S * 8 B per extra step) and slack; speed rows
    # precomputed per step would add 2 * 300 * 10 * 401 * 8 B = 19 MB here
    chunk, n_sample, n = 64, 16, 10
    monkeypatch.setattr(illiq.simulate, "CHUNK_PATHS", chunk)
    monkeypatch.setattr(illiq.simulate, "SAMPLE_PATHS", n_sample)
    market = MarketParams(sigma=1.0, lam=0.01, maturity=1.0, p0=100.0)
    players = tuple(PlayerSpec(RiskNeutral(), _zero_payoff()) for _ in range(n))
    game = GameSpec(market, LinearCost(0.01), players)
    sol = _synthetic_solution(np.linspace(94.0, 106.0, 401), n, speed=0.01)

    def peak(n_steps):
        tracemalloc.start()
        try:
            simulate_paths(sol, game, n_paths=2 * chunk, seed=3, n_steps=n_steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    extra_steps = 300
    grown = extra_steps * 8 * (chunk + (1 + 2 * n) * n_sample + 1)
    assert peak(400) - peak(100) <= grown + 256 * 1024


def _reference_paths(sol, game, n_paths, seed, n_steps):
    """The per-player ``np.interp`` step loop over whole paths, with the speed
    rows interpolated in time for every step up front: the lookup the shared
    cell search must reproduce bitwise.  Also counts clamps at each end."""
    market, n = game.market, game.n_players
    dt = market.maturity / n_steps
    times = np.linspace(0.0, market.maturity, n_steps + 1)
    speeds_by_time = sol.speeds.swapaxes(0, 1)
    rows = np.stack([_time_blend(speeds_by_time, *_time_weight(sol.times, t)) for t in times[:-1]])
    noise = np.random.Generator(np.random.Philox(key=seed)).standard_normal((n_paths, n_steps))
    prices = np.full((n_paths, n_steps + 1), market.p0)
    x = np.zeros((n, n_paths, n_steps + 1))
    r = np.zeros((n, n_paths, n_steps + 1))
    low = high = 0
    for k in range(n_steps):
        p = prices[:, k]
        low += int(np.count_nonzero(p < sol.prices[0]))
        high += int(np.count_nonzero(p > sol.prices[-1]))
        p_look = np.clip(p, sol.prices[0], sol.prices[-1])
        spd = np.stack([np.interp(p_look, sol.prices, rows[k, j]) for j in range(n)])
        agg = spd.sum(axis=0)
        g_agg = np.asarray(game.cost.value(agg), dtype=float)
        prices[:, k + 1] = p + market.lam * agg * dt + market.sigma * math.sqrt(dt) * noise[:, k]
        x[:, :, k + 1] = x[:, :, k] + spd * dt
        r[:, :, k + 1] = r[:, :, k] + spd * g_agg * dt
    raw = -r[:, :, -1] + game.payoff_layer(prices[:, -1])
    s = min(n_paths, illiq.simulate.SAMPLE_PATHS)
    run = {
        "objectives": np.stack([pl.utility(raw[j]) for j, pl in enumerate(game.players)]),
        "terminal_prices": prices[:, -1],
        "terminal_inventories": x[:, :, -1],
        "terminal_costs": r[:, :, -1],
        "sample_prices": prices[:s],
        "sample_inventories": x[:, :s],
        "sample_costs": r[:, :s],
        "clamped_fraction": (low + high) / float(n_paths * n_steps),
    }
    return run, low, high


@pytest.fixture(scope="module")
def spread_trio(tmp_path_factory):
    # three players under the spread cost, solved at sigma = 0.5 and driven
    # at sigma = 1.3, so that some paths clamp at each end of the price axis
    call = SmoothedCall(100.0, 10.0, 0.05)
    players = (PlayerSpec(RiskNeutral(), call), PlayerSpec(CARA(0.1), Negated(call)),
               PlayerSpec(RiskNeutral(), Scaled(call, 0.5)))
    cost = SmoothedSpreadCost(0.01, 0.004, 100.0)
    solved = GameSpec(MarketParams(sigma=0.5, lam=0.01, maturity=1.0, p0=100.0), cost, players)
    grid = GridSpec(97.0, 103.0, 81, 100)
    sol = solve_fd(solved, grid)
    path = tmp_path_factory.mktemp("trio") / "solution.csv"
    write_solution_csv(sol, path)
    driven = GameSpec(MarketParams(sigma=1.3, lam=0.01, maturity=1.0, p0=100.0), cost, players)
    return driven, sol, read_solution_csv(path, grid)


@pytest.mark.parametrize("reloaded", [False, True])
def test_shared_cell_search_is_per_player_interp(spread_trio, reloaded, monkeypatch):
    game, solved, read_back = spread_trio
    sol = read_back if reloaded else solved
    # p0 is a node, so every path's first lookup lands exactly on one
    assert game.market.p0 in sol.prices
    monkeypatch.setattr(illiq.simulate, "CHUNK_PATHS", 700)  # two chunks, the second partial
    bundle = simulate_paths(sol, game, n_paths=1200, seed=31, n_steps=60)
    ref, low, high = _reference_paths(sol, game, n_paths=1200, seed=31, n_steps=60)
    assert low > 0 and high > 0
    for name in _STREAMED:
        assert np.array_equal(getattr(bundle, name), ref[name]), name


def test_cell_search_matches_interp_near_every_node():
    # nodes, their floating-point neighbours, cell midpoints and both ends, on
    # the uniform axis and on axes whose nodes sit up to 0.2 cells off it
    rng = np.random.default_rng(5)
    uniform = np.linspace(94.0, 106.0, 41)
    dp = uniform[1] - uniform[0]
    inner = rng.uniform(-0.2, 0.2, uniform.size) * dp
    inner[[0, -1]] = 0.0
    rows = rng.standard_normal((3, uniform.size))
    for prices in (uniform, uniform + inner, uniform * (1 + 1e-15)):
        p = np.concatenate([prices, np.nextafter(prices, -np.inf), np.nextafter(prices, np.inf),
                            0.5 * (prices[1:] + prices[:-1]), rng.uniform(94.0, 106.0, 500)])
        p = np.clip(p, prices[0], prices[-1])
        expected = np.stack([np.interp(p, prices, row) for row in rows])
        assert np.array_equal(illiq.simulate._shared_interp(prices)(p, rows), expected)


def test_non_uniform_price_axis_rejected(market):
    game = GameSpec(market, LinearCost(0.01), (PlayerSpec(RiskNeutral(), _zero_payoff()),))
    prices = np.linspace(94.0, 106.0, 41)
    prices[20] += 0.3 * (prices[1] - prices[0])
    with pytest.raises(SimulationError, match="node 20 lies 0.3 cells"):
        simulate_paths(_synthetic_solution(prices, 1), game, n_paths=10, seed=1, n_steps=10)


def test_doubling_steps_moves_mean_within_noise(call_game, call_solution):
    coarse = simulate_paths(call_solution, call_game, n_paths=20000, seed=29, n_steps=250)
    fine = simulate_paths(call_solution, call_game, n_paths=20000, seed=29, n_steps=500)
    m_c, se_c = realized_objectives(coarse)
    m_f, se_f = realized_objectives(fine)
    assert abs(m_f[0] - m_c[0]) <= 2 * max(se_c[0], se_f[0])


def test_inventory_bounded_by_speed_bound(call_game, call_solution):
    bundle = simulate_paths(call_solution, call_game, n_paths=1000, seed=13, n_steps=100)
    bound = call_solution.meta["speed_bound"]
    horizon = call_game.market.maturity
    assert np.max(np.abs(bundle.terminal_inventories)) <= bound * horizon + 1e-9


@pytest.mark.parametrize("n_paths", [-3, 0, 1])
def test_fewer_than_two_paths_rejected(zero_solution, n_paths):
    game, sol = zero_solution
    with pytest.raises(ValueError, match="n_paths must be >= 2"):
        simulate_paths(sol, game, n_paths=n_paths, seed=0, n_steps=10)


def test_excessive_clamping_raises(market):
    # a synthetic solution on a sliver of the price axis: paths leave at once
    game = GameSpec(market, LinearCost(0.01), (PlayerSpec(RiskNeutral(), _zero_payoff()),))
    sol = _synthetic_solution(np.linspace(99.9, 100.1, 5), 1)
    with pytest.raises(SimulationError, match="left the price grid"):
        simulate_paths(sol, game, n_paths=500, seed=1, n_steps=50)


def test_paths_csv_layout(tmp_path, zero_solution):
    game, sol = zero_solution
    path = tmp_path / "paths.csv"
    for n_paths in (4, illiq.simulate.SAMPLE_PATHS + 5):
        bundle = simulate_paths(sol, game, n_paths=n_paths, seed=1, n_steps=10)
        write_paths_csv(bundle, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "path,t,P,X_1,R_1"
        assert len(lines) == 1 + min(n_paths, illiq.simulate.SAMPLE_PATHS) * 11


@pytest.mark.parametrize("seed", [-1, 2**128, 1.5])
def test_seed_outside_philox_range_rejected(zero_solution, seed):
    game, sol = zero_solution
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*128\)"):
        simulate_paths(sol, game, n_paths=10, seed=seed, n_steps=10)


# ---------------------------------------------------------------------------
# physical delivery
# ---------------------------------------------------------------------------


def test_physical_delivery_zero_cap():
    res = physical_delivery_value(0.0, 100.0, 0.01, [105.0, 95.0])
    assert res.mean_value == 0.0
    assert np.all(res.theta_star == 0.0)


def test_physical_delivery_worked_example():
    res = physical_delivery_value(50.0, 100.0, 0.01, [101.0])
    assert res.theta_star[0] == pytest.approx(50.0)
    assert res.values[0] == pytest.approx(37.5)
    assert res.trading_contribution == 0.0


def test_physical_delivery_out_of_the_money():
    res = physical_delivery_value(50.0, 100.0, 0.01, [99.0, 100.0])
    assert np.all(res.theta_star == 0.0)
    assert np.all(res.values == 0.0)


def test_physical_delivery_matches_grid_scan():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p_t = rng.uniform(80.0, 130.0)
        strike = rng.uniform(90.0, 110.0)
        lam = rng.uniform(0.005, 0.05)
        cap = rng.uniform(0.0, 20.0)
        res = physical_delivery_value(cap, strike, lam, [p_t])
        thetas = np.linspace(0.0, cap, 20001)
        scan = np.max(thetas * (p_t - 0.5 * lam * thetas) - thetas * strike)
        assert abs(res.values[0] - scan) <= 1e-8


def test_physical_delivery_monotone():
    caps = np.linspace(0.0, 30.0, 16)
    vals = [physical_delivery_value(c, 100.0, 0.01, [104.0]).mean_value for c in caps]
    assert np.all(np.diff(vals) >= 0.0)
    pts = np.linspace(90.0, 120.0, 31)
    res = physical_delivery_value(25.0, 100.0, 0.01, pts)
    assert np.all(np.diff(res.values) >= 0.0)
