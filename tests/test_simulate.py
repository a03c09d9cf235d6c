import dataclasses
import math
import sys
import threading
import time

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
    read_solution_npz,
    realized_objectives,
    simulate_paths,
    solve_fd,
    write_paths_csv,
    write_solution_npz,
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


def test_bitwise_determinism(call_game, call_solution):
    a = simulate_paths(call_solution, call_game, n_paths=512, seed=41, n_steps=64)
    b = simulate_paths(call_solution, call_game, n_paths=512, seed=41, n_steps=64)
    _assert_same_run(a, b)


def test_sample_paths_end_at_terminal_state(call_game, call_solution):
    bundle = simulate_paths(call_solution, call_game, n_paths=300, seed=43, n_steps=40)
    s = illiq.simulate.SAMPLE_PATHS
    assert bundle.sample_prices.shape == (s, 41)
    assert bundle.sample_inventories.shape == bundle.sample_costs.shape == (1, s, 41)
    assert np.array_equal(bundle.sample_prices[:, -1], bundle.terminal_prices[:s])
    assert np.array_equal(bundle.sample_inventories[:, :, -1], bundle.terminal_inventories[:, :s])
    assert np.array_equal(bundle.sample_costs[:, :, -1], bundle.terminal_costs[:, :s])
    assert np.all(bundle.sample_prices[:, 0] == call_game.market.p0)


def test_memory_grows_with_output_not_path_steps(call_game, call_solution, monkeypatch,
                                                 traced_peak):
    # 8x the paths may add their terminal price, inventory, cost and objective
    # (8 B each per player and path) plus the slack below; keeping whole paths
    # would add 3 * 7 * 64 * 201 * 8 B = 2.2 MB here.  The sample is fixed
    # below the smaller run's paths so both runs keep the same full paths.
    base, n_steps = 64, 200
    monkeypatch.setattr(illiq.simulate, "SAMPLE_PATHS", 16)

    def peak(n_paths):
        return traced_peak(simulate_paths, call_solution, call_game, n_paths=n_paths, seed=3,
                           n_steps=n_steps)

    n = call_game.n_players
    output = 7 * base * 8 * (1 + 3 * n)
    # the payoff and utility build path-sized temporaries from the terminal
    # prices (62 kB at 448 extra paths on the call), after the step buffers
    # are dropped; 32 kB of allocator noise
    slack = 4 * output + 32 * 1024
    assert peak(8 * base) - peak(base) <= output + slack


def test_memory_does_not_grow_with_steps_times_players(monkeypatch, traced_peak):
    # 4x the steps may add the sample paths ((1 + 2N) * S * 8 B per extra
    # step), the times and slack; speed rows precomputed per step would add
    # 2 * 300 * 10 * 401 * 8 B = 19 MB here
    n_paths, n_sample, n = 128, 16, 10
    monkeypatch.setattr(illiq.simulate, "SAMPLE_PATHS", n_sample)
    market = MarketParams(sigma=1.0, lam=0.01, maturity=1.0, p0=100.0)
    players = tuple(PlayerSpec(RiskNeutral(), _zero_payoff()) for _ in range(n))
    game = GameSpec(market, LinearCost(0.01), players)
    sol = _synthetic_solution(np.linspace(94.0, 106.0, 401), n, speed=0.01)

    def peak(n_steps):
        return traced_peak(simulate_paths, sol, game, n_paths=n_paths, seed=3, n_steps=n_steps)

    extra_steps = 300
    grown = extra_steps * 8 * ((1 + 2 * n) * n_sample + 1)
    assert peak(400) - peak(100) <= grown + 256 * 1024


def test_memory_per_step_is_the_sample_paths(call_game, call_solution, traced_peak):
    # 4x the steps at 2000 paths may add the sample paths ((1 + 2N) * S * 8 B
    # per extra step) and 64 kB; a (paths, steps) block of noise would add
    # 2000 * 300 * 8 B = 4.8 MB here
    n_paths, extra_steps = 2000, 300

    def peak(n_steps):
        return traced_peak(simulate_paths, call_solution, call_game, n_paths=n_paths, seed=3,
                           n_steps=n_steps)

    sample = extra_steps * 8 * (1 + 2 * call_game.n_players) * illiq.simulate.SAMPLE_PATHS
    assert peak(400) - peak(100) <= sample + 64 * 1024


def _scalar_time_weight(times, t):
    """One step's layer and weight, the lookup ``_time_weight`` does for every step at once."""
    t = float(np.clip(t, times[0], times[-1]))
    k = int(np.searchsorted(times, t, side="right") - 1)
    k = min(max(k, 0), times.size - 2)
    return k, (t - times[k]) / (times[k + 1] - times[k])


@pytest.mark.parametrize("n_t", [2, 3, 97, 500, 1100, 2000])
def test_time_weights_match_the_scalar_lookup_bitwise(n_t):
    times = np.linspace(0.0, 1.0, n_t)
    for n_steps in (10, 37, 400, 500, 1999):
        # every step's start, and times either side of the axis, which clamp
        steps = np.concatenate([np.linspace(0.0, 1.0, n_steps + 1)[:-1], [-0.5, 1.0, 1.5]])
        layer, weight = _time_weight(times, steps)
        expected = [_scalar_time_weight(times, t) for t in steps]
        assert layer.tolist() == [k for k, _ in expected]
        assert weight.tobytes() == np.array([w for _, w in expected]).tobytes()


def _reference_paths(sol, game, n_paths, seed, n_steps):
    """The per-player ``np.interp`` step loop over whole paths, with the speed
    rows interpolated in time for every step up front: the lookup the shared
    cell search must reproduce bitwise.  Also counts clamps at each end."""
    market, n = game.market, game.n_players
    dt = market.maturity / n_steps
    times = np.linspace(0.0, market.maturity, n_steps + 1)
    speeds_by_time = sol.speeds.swapaxes(0, 1)
    layer, weight = _time_weight(sol.times, times[:-1])
    rows = np.stack([_time_blend(speeds_by_time, k, w) for k, w in zip(layer, weight)])
    noise = np.random.Generator(np.random.Philox(key=seed)).standard_normal((n_steps, n_paths)).T
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
    path = tmp_path_factory.mktemp("trio") / "solution.npz"
    write_solution_npz(sol, path)
    driven = GameSpec(MarketParams(sigma=1.3, lam=0.01, maturity=1.0, p0=100.0), cost, players)
    return driven, sol, read_solution_npz(path, grid)


@pytest.mark.parametrize("reloaded", [False, True])
def test_shared_cell_search_is_per_player_interp(spread_trio, reloaded):
    game, solved, read_back = spread_trio
    sol = read_back if reloaded else solved
    # p0 is a node, so every path's first lookup lands exactly on one
    assert game.market.p0 in sol.prices
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
        lookup = illiq.simulate._SharedInterp(prices, len(rows), p.size)
        assert np.array_equal(lookup(p, rows), expected)


def test_non_uniform_price_axis_rejected(market):
    game = GameSpec(market, LinearCost(0.01), (PlayerSpec(RiskNeutral(), _zero_payoff()),))
    prices = np.linspace(94.0, 106.0, 41)
    prices[20] += 0.3 * (prices[1] - prices[0])
    with pytest.raises(SimulationError, match="node 20 lies 0.3 cells"):
        simulate_paths(_synthetic_solution(prices, 1), game, n_paths=10, seed=1, n_steps=10)


def test_non_finite_speed_is_named(market):
    # one NaN speed used to send the paths off the grid, reported as too
    # small a domain ("32.01% of path-steps left the price grid")
    game = GameSpec(market, LinearCost(0.01), (PlayerSpec(RiskNeutral(), _zero_payoff()),))
    sol = _synthetic_solution(np.linspace(94.0, 106.0, 41), 1)
    speeds = sol.speeds.copy()
    speeds[0, 5, 20] = np.nan
    sol = dataclasses.replace(sol, speeds=speeds)
    with pytest.raises(SimulationError, match=r"player 1's solved speed is nan at time layer 5 "
                                              r"\(t = 0.5\) and price 100"):
        simulate_paths(sol, game, 1000, 1, 50)


@pytest.mark.parametrize("solved_for, simulated", [(1, 2), (2, 1)])
def test_player_count_mismatch_rejected(market, solved_for, simulated):
    # a 1-player solution used to drive both players of a 2-player game with
    # player 1's speeds, and then fail in mc_consistency with an IndexError
    sol = _synthetic_solution(np.linspace(94.0, 106.0, 41), solved_for)
    players = tuple(PlayerSpec(RiskNeutral(), _zero_payoff()) for _ in range(simulated))
    game = GameSpec(market, LinearCost(0.01), players)
    with pytest.raises(SimulationError, match=f"the game has N = {simulated} players but the "
                                              f"solution holds speeds for N = {solved_for}"):
        simulate_paths(sol, game, n_paths=10, seed=1, n_steps=10)


@pytest.mark.parametrize("axis, name", [("prices", "price node 3"), ("times", "time layer 3")])
def test_non_finite_axis_is_named(market, axis, name):
    game = GameSpec(market, LinearCost(0.01), (PlayerSpec(RiskNeutral(), _zero_payoff()),))
    sol = _synthetic_solution(np.linspace(94.0, 106.0, 41), 1)
    poisoned = getattr(sol, axis).copy()
    poisoned[3] = np.inf
    sol = dataclasses.replace(sol, **{axis: poisoned})
    with pytest.raises(SimulationError, match=f"the solution's {name} is inf"):
        simulate_paths(sol, game, 100, 1, 10)


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


@pytest.mark.parametrize("n_steps", [0, 9])
def test_fewer_than_ten_steps_rejected(zero_solution, n_steps):
    game, sol = zero_solution
    with pytest.raises(ValueError, match="n_steps must be >= 10"):
        simulate_paths(sol, game, n_paths=10, seed=0, n_steps=n_steps)


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
# the noise ring
# ---------------------------------------------------------------------------

JOIN_TIMEOUT = 120.0  # seconds a call may take before it counts as deadlocked


def _bounded(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` on a thread joined within ``JOIN_TIMEOUT``, so
    that a deadlock fails the test instead of hanging the suite.  Checks that
    the call left no thread behind, then returns its result or raises its
    exception."""
    before = threading.active_count()
    outcome = {}

    def run():
        try:
            outcome["value"] = fn(*args, **kwargs)
        except BaseException as exc:  # raised again in the test's thread below
            outcome["error"] = exc

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(JOIN_TIMEOUT)
    assert not runner.is_alive(), f"the call did not return within {JOIN_TIMEOUT} s"
    assert threading.active_count() == before
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def _use_cpus(monkeypatch, cpus):
    """Make the noise ring see ``cpus`` usable CPUs: 1 draws inline, more
    draw on the helper thread."""
    monkeypatch.setattr(illiq.simulate, "_usable_cpus", lambda: cpus)


@pytest.fixture(params=[1, 2], ids=["inline", "threaded"])
def cpus(request, monkeypatch):
    _use_cpus(monkeypatch, request.param)
    return request.param


def test_no_thread_outlives_a_run(call_game, call_solution, cpus):
    bundle = _bounded(simulate_paths, call_solution, call_game, n_paths=4096, seed=5, n_steps=20)
    assert bundle.terminal_prices.shape == (4096,)


def test_step_loop_error_reaches_the_caller_and_no_thread_outlives_it(
        call_game, call_solution, cpus, monkeypatch):
    # 4096 paths draw 4 steps a block: the cost fails at step 9, in block 3.
    # Each draw is slowed, so that the noise thread is still drawing when the
    # step loop fails and only a join ends it before the call returns.
    threads_seen = []
    value, fill = LinearCost.value, illiq.simulate._NoiseRing._fill

    def slow_fill(self, k, slot):
        time.sleep(0.02)
        fill(self, k, slot)

    def failing(self, z):
        threads_seen.append(threading.active_count())
        if len(threads_seen) == 10:
            raise ArithmeticError("cost failed at step 9")
        return value(self, z)

    monkeypatch.setattr(LinearCost, "value", failing)
    monkeypatch.setattr(illiq.simulate._NoiseRing, "_fill", slow_fill)
    with pytest.raises(ArithmeticError, match="^cost failed at step 9$") as info:
        _bounded(simulate_paths, call_solution, call_game, n_paths=4096, seed=5, n_steps=20)
    assert type(info.value) is ArithmeticError
    assert len(threads_seen) == 10
    # the test's thread and the bounded call's, and the noise thread if threaded
    assert set(threads_seen) == {threading.active_count() + 1 + (cpus > 1)}


def test_noise_draw_error_reaches_the_caller_and_no_thread_outlives_it(
        call_game, call_solution, cpus, monkeypatch):
    fill = illiq.simulate._NoiseRing._fill

    def failing(self, k, slot):
        if k > 0:
            raise RuntimeError(f"noise draw failed at step {k}")
        fill(self, k, slot)

    monkeypatch.setattr(illiq.simulate._NoiseRing, "_fill", failing)
    with pytest.raises(RuntimeError, match="^noise draw failed at step 4$") as info:
        _bounded(simulate_paths, call_solution, call_game, n_paths=4096, seed=5, n_steps=20)
    assert type(info.value) is RuntimeError


@pytest.mark.parametrize("n_paths, n_steps, block", [(16384, 12, 1), (4096, 20, 4), (3000, 23, 5)],
                         ids=["one-step-blocks", "whole-blocks", "partial-last-block"])
def test_inline_and_threaded_draws_give_the_reference_paths(spread_trio, monkeypatch, n_paths,
                                                            n_steps, block):
    # the reference draws all (n_steps, n_paths) normals in one call
    assert max(1, illiq.simulate.NOISE_BLOCK // n_paths) == block
    game, sol, _ = spread_trio
    ref, _, _ = _reference_paths(sol, game, n_paths=n_paths, seed=37, n_steps=n_steps)
    for cpus in (1, 2):
        _use_cpus(monkeypatch, cpus)
        bundle = _bounded(simulate_paths, sol, game, n_paths=n_paths, seed=37, n_steps=n_steps)
        for name in _STREAMED:
            assert np.array_equal(getattr(bundle, name), ref[name]), (cpus, name)


def test_concurrent_runs_match_their_solo_runs(call_game, call_solution, monkeypatch):
    # two callers and their two noise threads on a host of at most two CPUs,
    # switching threads every 10 us
    _use_cpus(monkeypatch, 2)
    seeds = (3, 5)

    def run(seed):
        return simulate_paths(call_solution, call_game, n_paths=3000, seed=seed, n_steps=100)

    solo = {seed: run(seed) for seed in seeds}
    together = {}
    start = threading.Barrier(len(seeds), timeout=JOIN_TIMEOUT)

    def caller(seed):
        start.wait()
        together[seed] = run(seed)

    before = threading.active_count()
    callers = [threading.Thread(target=caller, args=(seed,), daemon=True) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for c in callers:
            c.start()
        for c in callers:
            c.join(JOIN_TIMEOUT)
    finally:
        sys.setswitchinterval(interval)
    assert not any(c.is_alive() for c in callers)
    assert threading.active_count() == before
    for seed in seeds:
        _assert_same_run(together[seed], solo[seed])


# ---------------------------------------------------------------------------
# physical delivery
# ---------------------------------------------------------------------------


def test_physical_delivery_zero_cap():
    res = physical_delivery_value(0.0, 100.0, 0.01, [105.0, 95.0])
    assert res.mean_value == 0.0
    assert np.all(res.theta_star == 0.0)


def test_physical_delivery_rejects_a_negative_cap():
    with pytest.raises(ValueError, match="theta_cap must be >= 0"):
        physical_delivery_value(-1.0, 100.0, 0.01, [105.0])


@pytest.mark.parametrize("theta_cap, strike, lam, prices, message", [
    (math.nan, 100.0, 0.01, [105.0], "theta_cap must be finite, got nan"),
    (math.inf, 100.0, 0.01, [105.0], "theta_cap must be finite, got inf"),
    (10.0, math.inf, 0.01, [105.0], "strike must be finite, got inf"),
    (10.0, 100.0, math.nan, [105.0], "lam must be finite, got nan"),
    (10.0, 100.0, 0.0, [105.0], "lam must be > 0, got 0.0"),
    (10.0, 100.0, -0.01, [105.0], "lam must be > 0, got -0.01"),
    (10.0, 100.0, 0.01, [105.0, math.nan], r"terminal_prices\[1\] must be finite, got nan"),
    (10.0, 100.0, 0.01, [-math.inf], r"terminal_prices\[0\] must be finite, got -inf"),
], ids=["nan-cap", "infinite-cap", "infinite-strike", "nan-impact", "zero-impact",
        "negative-impact", "nan-terminal-price", "infinite-terminal-price"])
def test_physical_delivery_refuses_what_it_cannot_value(theta_cap, strike, lam, prices, message):
    # each used to return nan, or 0.0 for the negative impact, whose exercise
    # value is convex, so that the clipped vertex is its minimum
    with pytest.raises(ValueError, match=f"^{message}$"):
        physical_delivery_value(theta_cap, strike, lam, prices)


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
