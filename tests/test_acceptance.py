"""Release gate: one test per acceptance criterion, each printing a
PASS/FAIL line with the measured figure (run with ``pytest -s`` to see
them).  Heavy solves are shared through session fixtures.
"""

import math
import time

import numpy as np
import pytest

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
    SmoothedCall,
    SmoothedDigital,
    apriori_speed_bound,
    cara_two_player_study,
    mc_consistency,
    physical_delivery_value,
    predator_sweep,
    realized_objectives,
    rn_aggregate_grid,
    simulate_paths,
    solve_fd,
    solve_picard,
    split_sweep,
    spread_sweep,
)

ROOT_TOL = 1e-12


def _report(num: int, claim: str, passed: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'}: {claim} ({detail})"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# shared heavy fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def bench_market():
    return MarketParams(sigma=1.0, lam=0.01, maturity=1.0, p0=100.0)


@pytest.fixture(scope="session")
def bench_call(bench_market):
    s = bench_market.scale
    return SmoothedCall(strike=100.0, cap=10.0 * s, width=0.05 * s)


@pytest.fixture(scope="session")
def bench_digital(bench_market):
    return SmoothedDigital(strike=100.0, width=0.05 * bench_market.scale)


@pytest.fixture(scope="session")
def bench_grid():
    return GridSpec(94.0, 106.0, n_p=401, n_t=2000, quad_nodes=128)


@pytest.fixture(scope="session")
def bench_game(bench_market, bench_call):
    return GameSpec(bench_market, LinearCost(0.01), (PlayerSpec(RiskNeutral(), bench_call),))


@pytest.fixture(scope="session")
def bench_solution(bench_game, bench_grid):
    t0 = time.perf_counter()
    sol = solve_fd(bench_game, bench_grid)
    return sol, time.perf_counter() - t0


@pytest.fixture(scope="session")
def digital_game(bench_market, bench_digital):
    return GameSpec(bench_market, LinearCost(0.01), (PlayerSpec(RiskNeutral(), bench_digital),))


@pytest.fixture(scope="session")
def digital_solution(digital_game, bench_grid):
    return solve_fd(digital_game, bench_grid)


@pytest.fixture(scope="session")
def zero_sum_solution(bench_market, bench_call, bench_grid):
    game = GameSpec(
        bench_market, LinearCost(0.01),
        (PlayerSpec(RiskNeutral(), bench_call), PlayerSpec(RiskNeutral(), Negated(bench_call))),
    )
    return game, solve_fd(game, bench_grid)


@pytest.fixture(scope="session")
def cara_market():
    return MarketParams(sigma=2.0, lam=0.01, maturity=1.0, p0=100.0)


@pytest.fixture(scope="session")
def cara_grid():
    return GridSpec(88.0, 112.0, n_p=401, n_t=2000, quad_nodes=128)


@pytest.fixture(scope="session")
def cara_studies(cara_market, cara_grid):
    s = cara_market.scale
    call = SmoothedCall(100.0, 10.0 * s, 0.05 * s)
    base = GameSpec(cara_market, LinearCost(0.01), (PlayerSpec(RiskNeutral(), call),))
    return {
        alphas: cara_two_player_study(alphas, base, cara_grid)
        for alphas in ((0.01, 0.01), (0.001, 0.1))
    }


@pytest.fixture(scope="session")
def cara_eps_solution(bench_market, bench_call, bench_grid):
    game = GameSpec(bench_market, LinearCost(0.01), (PlayerSpec(CARA(1e-8), bench_call),))
    return game, solve_fd(game, bench_grid)


@pytest.fixture(scope="session")
def picard_pair(bench_call):
    market = MarketParams(sigma=1.0, lam=0.01, maturity=0.1, p0=100.0)
    game = GameSpec(market, LinearCost(0.01), (PlayerSpec(RiskNeutral(), bench_call),))
    grid = GridSpec(98.0, 102.0, n_p=201, n_t=161, quad_nodes=96)
    psol = solve_picard(game, grid)
    fsol = solve_fd(game, grid)
    return game, psol, fsol


@pytest.fixture(scope="session")
def solved_games(bench_game, bench_solution, digital_game, digital_solution,
                 zero_sum_solution, cara_studies, cara_eps_solution, picard_pair):
    games = [
        (bench_game, bench_solution[0]),
        (digital_game, digital_solution),
        (zero_sum_solution[0], zero_sum_solution[1]),
        (cara_eps_solution[0], cara_eps_solution[1]),
        (picard_pair[0], picard_pair[1]),
        (picard_pair[0], picard_pair[2]),
    ]
    return games


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_c01_closed_form_vs_fd(bench_game, bench_grid, bench_solution):
    sol, seconds = bench_solution
    cf = rn_aggregate_grid(bench_game, bench_grid)
    rel = np.abs(sol.values[0] - cf) / (1.0 + np.abs(cf))
    worst = float(rel[1:-1, 1:-1].max())
    _report(
        1,
        "finite differences match the Burgers closed form on the benchmark call",
        worst <= 1e-2 and seconds <= 60.0,
        f"sup rel diff {worst:.2e} <= 1e-2, solve {seconds:.1f}s <= 60s",
    )


def test_c02_apriori_speed_bound(solved_games):
    worst_excess = -math.inf
    violations = 0
    for game, sol in solved_games:
        cert = sol.meta["certificate"]
        bound = apriori_speed_bound(game, cert)
        excess = float(np.abs(sol.speeds).max() - bound)
        worst_excess = max(worst_excess, excess)
        violations += int(excess > 1e-6)
    _report(
        2,
        "every solved game respects the a-priori speed bound",
        violations == 0,
        f"{len(solved_games)} games, worst excess over bound {worst_excess:.2e} <= 1e-6",
    )


def test_c03_zero_sum_cancellation(zero_sum_solution):
    _, sol = zero_sum_solution
    worst = float(np.abs(sol.aggregate_speed).max())
    _report(
        3,
        "call vs written call: aggregate trading speed cancels",
        worst <= 10 * ROOT_TOL,
        f"max |aggregate speed| {worst:.2e} <= {10 * ROOT_TOL:.0e}",
    )


def test_c04_split_scaling(bench_call, bench_digital, bench_game):
    grid = GridSpec(94.0, 106.0, n_p=401, n_t=101, quad_nodes=128)
    ns = (1, 2, 5, 10, 100)
    ok = True
    details = []
    for name, h in (("call", bench_call), ("digital", bench_digital)):
        res = split_sweep(h, ns, bench_game, grid)
        m = res.metrics["max_abs_aggregate_speed"]
        ratio = m[-1] / m[0]
        ok = ok and res.assertions["pointwise_non_increasing"] and ratio <= 0.05
        details.append(f"{name}: pointwise {res.assertions['pointwise_non_increasing']}, "
                       f"N=100/N=1 ratio {ratio:.4f} <= 0.05")
    _report(4, "splitting the endowment damps aggregate speed", ok, "; ".join(details))


def test_c05_predator_scaling(bench_call, bench_game):
    grid = GridSpec(94.0, 106.0, n_p=401, n_t=101, quad_nodes=128)
    res = predator_sweep(bench_call, (1, 100), bench_game, grid)
    m = res.metrics["max_abs_aggregate_speed"]
    limit = (2.0 / 101.0) * 1.1
    _report(
        5,
        "endowment-free competitors damp aggregate speed at the 1/(N+1) rate",
        m[-1] <= limit * m[0],
        f"N=100/N=1 ratio {m[-1] / m[0]:.4f} <= {limit:.4f}",
    )


def test_c06_spread_monotonicity(bench_game, digital_game):
    grid = GridSpec(94.0, 106.0, n_p=401, n_t=1000, quad_nodes=128)
    spreads = (0.0, 0.001, 0.002, 0.003, 0.004)
    t0 = time.perf_counter()
    ok = True
    details = []
    for name, game in (("call", bench_game), ("digital", digital_game)):
        res = spread_sweep(game, spreads, 100.0, grid)
        ok = ok and res.passed
        details.append(
            f"{name}: speed {res.metrics['max_abs_speed'].round(4).tolist()}, "
            f"surplus decreasing {res.assertions['max_surplus_non_increasing']}"
        )
    seconds = time.perf_counter() - t0
    ok = ok and seconds <= 600.0
    _report(6, "wider spreads shrink both trading speed and surplus", ok,
            "; ".join(details) + f"; total {seconds:.0f}s <= 600s")


def test_c07_cara_two_player_signs(cara_studies):
    ok = True
    details = []
    for alphas, res in cara_studies.items():
        ok = ok and res.assertions["writer_buys"] and res.assertions["issuer_sells"]
        details.append(
            f"alpha={alphas}: writer min {res.metrics['min_writer_speed_on_band'][0]:.2e} "
            f">= -1e-6, issuer max {res.metrics['max_issuer_speed_on_band'][0]:.2e} <= 1e-6"
        )
    _report(7, "option holder buys and issuer sells on the [95,105] band", ok,
            "; ".join(details))


def test_c08_cara_risk_neutral_continuity(bench_solution, cara_eps_solution):
    rn_sol, _ = bench_solution
    _, cara_sol = cara_eps_solution
    gap = float(np.abs(rn_sol.values - cara_sol.values).max())
    _report(8, "vanishing risk aversion recovers the risk-neutral solution",
            gap <= 1e-4, f"sup diff {gap:.2e} <= 1e-4")


def test_c09_picard_oracle(picard_pair):
    _, psol, fsol = picard_pair
    gap = float(np.abs(psol.values - fsol.values).max())
    contracting = True
    for changes in psol.meta["iteration_changes"]:
        for a, b in zip(changes[1:], changes[2:]):
            contracting = contracting and (b < a)
    _report(
        9,
        "Picard fixed point agrees with finite differences and contracts",
        gap <= 1e-2 and contracting,
        f"sup diff {gap:.2e} <= 1e-2, sup-changes strictly decreasing after iteration 2: "
        f"{contracting}",
    )


def test_c10_monte_carlo_consistency(bench_game, bench_solution):
    sol, _ = bench_solution
    t0 = time.perf_counter()
    bundle = simulate_paths(sol, bench_game, n_paths=100_000, seed=2024, n_steps=500)
    seconds = time.perf_counter() - t0
    z = mc_consistency(bundle, sol)
    means, ses = realized_objectives(bundle)
    _report(
        10,
        "realized Monte-Carlo objective matches the solved value at (0, p0)",
        abs(z[0]) <= 3.0 and seconds <= 120.0,
        f"mean {means[0]:.5f} vs v(0,100) {sol.value_at(0, 0.0, 100.0):.5f}, "
        f"|z| = {abs(z[0]):.2f} <= 3, {seconds:.0f}s <= 120s",
    )


def test_c11_physical_delivery(bench_market):
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        p_t = rng.uniform(80.0, 130.0)
        strike = rng.uniform(90.0, 110.0)
        lam = rng.uniform(0.005, 0.05)
        cap = rng.uniform(0.0, 20.0)
        res = physical_delivery_value(cap, strike, lam, [p_t])
        thetas = np.linspace(0.0, cap, 20001)
        scan = float(np.max(thetas * (p_t - 0.5 * lam * thetas) - thetas * strike))
        worst = max(worst, abs(res.values[0] - scan))
    # the trading part separates off: the equivalent zero-endowment game
    # solves to an identically zero strategy
    zero_game = GameSpec(bench_market, LinearCost(0.01),
                         (PlayerSpec(RiskNeutral(), Scaled(SmoothedCall(100.0, 10.0, 0.05), 0.0)),))
    zsol = solve_fd(zero_game, GridSpec(94.0, 106.0, 101, 50))
    no_trading = float(np.abs(zsol.speeds).max()) == 0.0
    res0 = physical_delivery_value(10.0, 100.0, 0.01, [105.0])
    _report(
        11,
        "clipped-quadratic exercise matches the scan oracle; no trading incentive",
        worst <= 1e-8 and no_trading and res0.trading_contribution == 0.0,
        f"worst value diff {worst:.2e} <= 1e-8 over 1000 draws, solver strategy == 0: "
        f"{no_trading}",
    )


def test_c12_burgers_residual(bench_market):
    # smoothing at 0.4 sigma sqrt(T): the coarsest mollification the pinned
    # 401 x 400 lattice resolves near maturity (sharper steps would alias)
    grid = GridSpec(94.0, 106.0, n_p=401, n_t=400, quad_nodes=128)
    width = 0.4 * bench_market.scale
    ok = True
    details = []
    for name, h in (("call", SmoothedCall(100.0, 10.0, width)),
                    ("digital", SmoothedDigital(100.0, width))):
        game = GameSpec(bench_market, LinearCost(0.01), (PlayerSpec(RiskNeutral(), h),))
        v = rn_aggregate_grid(game, grid)
        quad_coef = 2.0 * bench_market.lam**2 / (0.01 * 4.0)
        dt = grid.times(1.0)[1]
        dp = grid.dp
        v_t = (v[2:, :] - v[:-2, :]) / (2 * dt)
        v_pp = (v[:, 2:] - 2 * v[:, 1:-1] + v[:, :-2]) / dp**2
        v_p = (v[:, 2:] - v[:, :-2]) / (2 * dp)
        res = 2 * v_t[:, 1:-1] + v_pp[1:-1, :] + quad_coef * v_p[1:-1, :] ** 2
        tol = 1e-3 * (1.0 + quad_coef * float(np.max(v_p**2)))
        worst = float(np.abs(res).max())
        ok = ok and worst <= tol
        details.append(f"{name}: {worst:.2e} <= {tol:.2e}")
    _report(12, "sampled closed form satisfies the aggregate value equation", ok,
            "; ".join(details))
