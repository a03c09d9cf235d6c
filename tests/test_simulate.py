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
    PlayerSpec,
    RiskNeutral,
    Scaled,
    SimulationError,
    SmoothedCall,
    Solution,
    heat_convolve,
    mc_consistency,
    physical_delivery_value,
    realized_objectives,
    simulate_paths,
    solve_fd,
    write_paths_csv,
)


def _zero_payoff():
    return Scaled(SmoothedCall(100.0, 10.0, 0.05), 0.0)


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
    times = np.linspace(0.0, 1.0, 11)
    prices = np.linspace(99.9, 100.1, 5)
    shape = (1, 11, 5)
    sol = Solution(
        GridSpec(94.0, 106.0, 5, 11), times, prices, np.zeros(shape), np.zeros(shape),
        np.zeros(shape), np.zeros((11, 5)), {"speed_bound": 0.0},
    )
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
