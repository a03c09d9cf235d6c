import math

import numpy as np
import pytest
from scipy import integrate

from illiq import (
    BurgersProblem,
    ClosedFormError,
    GameSpec,
    LinearCost,
    MarketParams,
    Negated,
    PlayerSpec,
    QuadratureRule,
    RiskNeutral,
    CARA,
    Scaled,
    GridSpec,
    SmoothedCall,
    burgers_value,
    cara_single_value,
    certify_for_game,
    equilibrium_fields,
    heat_convolve,
    heat_convolve_grid,
    rn_aggregate_grid,
    rn_aggregate_value,
    rn_individual_values,
    Solution,
    surplus,
)
from illiq.closedform import (
    SPREAD_LIMIT,
    closed_form_values,
    duhamel_trapezoid,
    heat_convolve_payoff,
)
from illiq.model import MAX_QUAD_NODES
from illiq.speeds import ROOT_TOL

# ---------------------------------------------------------------------------
# quadrature and heat kernel
# ---------------------------------------------------------------------------


def test_quadrature_weights_normalized(rule):
    assert np.all(rule.w > 0)
    assert float(rule.w.sum()) == pytest.approx(1.0, abs=1e-12)


def test_heat_convolve_constant(rule):
    assert heat_convolve(lambda x: np.full_like(x, 3.25), 2.0, 100.0, rule) == pytest.approx(3.25)


def test_heat_convolve_identity(rule):
    # zero-mean increment: E[p + sqrt(v) Z] = p
    assert heat_convolve(lambda x: x, 5.0, 7.0, rule) == pytest.approx(7.0, abs=1e-12)


def test_heat_convolve_square(rule):
    # E[(3 + 2Z)^2] = 9 + 4; Gauss-Hermite is exact on polynomials
    got = heat_convolve(lambda x: x**2, 4.0, 3.0, rule)
    assert got == pytest.approx(13.0, abs=1e-9)
    # Monte-Carlo confirmation of the oracle
    rng = np.random.default_rng(123)
    samples = (3.0 + 2.0 * rng.standard_normal(10_000_000)) ** 2
    se = samples.std() / np.sqrt(samples.size)
    assert abs(samples.mean() - got) < 4 * se


def test_heat_convolve_zero_variance(rule):
    assert heat_convolve(lambda x: x**3, 0.0, 2.0, rule) == pytest.approx(8.0)


# ---------------------------------------------------------------------------
# lattice heat operator and Duhamel sum
# ---------------------------------------------------------------------------


def _reference_duhamel(src, step, diff_coef, p_grid):
    """Double loop over (m, s) of the trapezoid sum for src of shape (L, N, n_p)."""
    out = np.zeros_like(src)
    for m in range(1, src.shape[0]):
        for s in range(m + 1):
            weight = 0.5 * step if s in (0, m) else step
            out[m] += weight * heat_convolve_grid(src[s], p_grid, diff_coef * (m - s) * step)
    return out


_P_SMALL = np.linspace(-1.0, 1.0, 21)
_P_WIDE = np.linspace(-12.0, 12.0, 241)


@pytest.mark.parametrize("variance", [0.0, 1e-4, 0.05, 4.0])
def test_heat_grid_matches_gaussian_closed_form(variance):
    # a Gaussian bump plus a line: E[f(p + sqrt(v) Z)] is known in closed form,
    # and the bump is flat to e^-72 at the ends, where the line continues
    bump = lambda p, s2: np.sqrt(0.5 / s2) * np.exp(-p**2 / (2.0 * s2))
    values = bump(_P_WIDE, 0.5) + 2.0 - 3.0 * _P_WIDE
    got = heat_convolve_grid(values, _P_WIDE, variance)
    want = bump(_P_WIDE, 0.5 + variance) + 2.0 - 3.0 * _P_WIDE
    if variance == 0.0:
        assert np.array_equal(got, values)
    else:
        assert np.abs(got - want).max() <= 1e-12


def test_heat_grid_reaches_past_both_ends():
    # the widest variance above has a standard deviation as wide as the grid
    variance = 4.0
    assert np.sqrt(variance) >= _P_SMALL[-1] - _P_SMALL[0]
    # the linear extension makes the operator exact on linear functions
    line = 2.0 - 3.0 * _P_SMALL
    assert np.abs(heat_convolve_grid(line, _P_SMALL, variance) - line).max() <= 1e-13


def test_heat_grid_stack_matches_rows():
    stack = np.random.default_rng(7).standard_normal((5, 3, _P_SMALL.size))
    got = heat_convolve_grid(stack, _P_SMALL, 0.05)
    assert got.shape == stack.shape
    for idx in np.ndindex(stack.shape[:-1]):
        row = heat_convolve_grid(stack[idx], _P_SMALL, 0.05)
        assert np.abs(got[idx] - row).max() <= 1e-14


def test_heat_grid_is_a_semigroup():
    # K(a) K(b) = K(a + b): a capped call whose kinks sit 8 standard
    # deviations inside the grid, so each result is linear at both ends
    values = SmoothedCall(-1.0, 2.0, 0.3).value(_P_WIDE)
    a, b = 0.3, 0.5
    twice = heat_convolve_grid(heat_convolve_grid(values, _P_WIDE, b), _P_WIDE, a)
    assert np.abs(twice - heat_convolve_grid(values, _P_WIDE, a + b)).max() <= 1e-13


def test_duhamel_trapezoid_matches_double_loop():
    # sources the lattice resolves: random bumps inside, random lines at the ends
    c = np.random.default_rng(11).random((4, 7, 2, 1))
    src = c[0] * np.exp(-(_P_WIDE - 6.0 * c[1] + 3.0) ** 2) + c[2] + c[3] * _P_WIDE
    got = duhamel_trapezoid(src, 0.02, 1.5, _P_WIDE)
    want = _reference_duhamel(src, 0.02, 1.5, _P_WIDE)
    assert np.all(got[0] == 0.0)
    assert np.abs(got - want).max() <= 1e-14


# ---------------------------------------------------------------------------
# lattice routes against adaptive quadrature
# ---------------------------------------------------------------------------

_TRUTH_GRID = GridSpec(94.0, 106.0, n_p=201, n_t=11, quad_nodes=128)
_TRUTH_LAYERS = (0, 5, 9)  # tau = 1, 0.5 and 0.1
_TRUTH_PRICES = (0, 60, 95, 100, 110, 150, 200)


def _truth(fn, variance, p, kinks=(100.0, 110.0)):
    """E[fn(p + sqrt(variance) Z)] by adaptive quadrature, split at the kinks
    of the benchmark call."""
    sd = math.sqrt(variance)
    breaks = sorted(z for z in ((k - p) / sd for k in kinks) if abs(z) < 12.0)
    density = lambda z: fn(p + sd * z) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return integrate.quad(density, -14.0, 14.0, points=breaks or None, limit=500,
                          epsabs=1e-15, epsrel=1e-14)[0]


def _cole_hopf_truth(payoff, a, b, variance, p):
    return (a / b) * math.log(_truth(lambda x: math.exp((b / a) * float(payoff.value(x))),
                                     variance, p))


def _assert_truth(lattice, want):
    """``want(tau, p)`` at the truth points of a (n_t, n_p) lattice in calendar time."""
    times = _TRUTH_GRID.times(1.0)
    for k in _TRUTH_LAYERS:
        for i in _TRUTH_PRICES:
            truth = want(1.0 - times[k], _TRUTH_GRID.prices[i])
            assert abs(lattice[k, i] - truth) <= 1e-6, (k, i, lattice[k, i], truth)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_aggregate_grid_matches_quadrature(call_game, call):
    market = call_game.market
    a, b = market.sigma**2, 2.0 * market.lam**2 / (0.01 * 4)
    _assert_truth(rn_aggregate_grid(call_game, _TRUTH_GRID),
                  lambda tau, p: _cole_hopf_truth(call, a, b, a * tau, p))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_payoff_heat_matches_quadrature(call):
    # the heat terms of rn_individual_values, one row per variance
    taus = 1.0 - _TRUTH_GRID.times(1.0)
    _assert_truth(heat_convolve_payoff(call, _TRUTH_GRID.prices, taus),
                  lambda tau, p: _truth(lambda x: float(call.value(x)), tau, p))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_surplus_payoff_matches_quadrature(market, linear_cost, call):
    # with a zero value lattice the surplus is u(0) minus the expected utility
    game = GameSpec(market, linear_cost, (PlayerSpec(CARA(1.0), call),))
    zeros = np.zeros((1, _TRUTH_GRID.n_t, _TRUTH_GRID.n_p))
    sol = Solution(_TRUTH_GRID, _TRUTH_GRID.times(1.0), _TRUTH_GRID.prices, zeros, zeros,
                   zeros, zeros[0], {})
    u = game.players[0].utility
    _assert_truth(u(0.0) - surplus(sol, game)[0],
                  lambda tau, p: _truth(lambda x: float(u(call.value(x))), tau, p))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_cara_single_grid_matches_quadrature(market, linear_cost, call, alpha):
    # exponent spreads of about 10 and 20, both on the spectral route
    game = GameSpec(market, linear_cost, (PlayerSpec(CARA(alpha), call),))
    a, b = market.sigma**2, market.lam**2 / (2 * 0.01) - market.sigma**2 * alpha
    _assert_truth(closed_form_values(game, _TRUTH_GRID)[0],
                  lambda tau, p: _cole_hopf_truth(call, a, b, a * tau, p))


@pytest.mark.parametrize("alpha", [3.0, 10.0])
def test_cara_large_alpha_takes_gauss_hermite(market, linear_cost, call, alpha):
    # alpha spreads the exponent (B/A) G over about 30 or 100 > SPREAD_LIMIT,
    # so the lattice is the grid's Gauss-Hermite rule, layer by layer
    game = GameSpec(market, linear_cost, (PlayerSpec(CARA(alpha), call),))
    assert (alpha - market.lam**2 / (2 * 0.01)) * call.cap > SPREAD_LIMIT
    rule = QuadratureRule.gauss_hermite(_TRUTH_GRID.quad_nodes)
    want = np.stack([cara_single_value(game, float(t), _TRUTH_GRID.prices, rule)
                     for t in _TRUTH_GRID.times(1.0)])
    assert np.array_equal(closed_form_values(game, _TRUTH_GRID)[0], want)


# ---------------------------------------------------------------------------
# Burgers / Cole-Hopf
# ---------------------------------------------------------------------------


def test_burgers_constant_terminal(rule):
    prob = BurgersProblem(1.0, 2.0, lambda x: np.full_like(x, -1.5), 1.0)
    for t in (0.0, 0.5):
        assert burgers_value(prob, t, 103.0, rule) == pytest.approx(-1.5, abs=1e-12)


def test_burgers_terminal_layer(rule, call):
    prob = BurgersProblem(1.0, 2.0, call, 1.0)
    assert burgers_value(prob, 1.0, 103.0, rule) == pytest.approx(float(call.value(103.0)))


def test_burgers_linear_ramp_identity(rule):
    # G = a p gives v = a p + B a^2 (T - t) / 2 from the Gaussian mgf
    a, A, B, T = 0.7, 1.3, 2.0, 1.0
    prob = BurgersProblem(A, B, lambda x: a * x, T)
    for t, p in [(0.0, 1.0), (0.4, -2.0)]:
        expected = a * p + 0.5 * B * a**2 * (T - t)
        assert burgers_value(prob, t, p, rule) == pytest.approx(expected, rel=1e-10)
    # residual check by finite differences
    t, p, h = 0.3, 0.5, 1e-4
    v_t = (burgers_value(prob, t + h, p, rule) - burgers_value(prob, t - h, p, rule)) / (2 * h)
    v_pp = (
        burgers_value(prob, t, p + h, rule)
        - 2 * burgers_value(prob, t, p, rule)
        + burgers_value(prob, t, p - h, rule)
    ) / h**2
    v_p = (burgers_value(prob, t, p + h, rule) - burgers_value(prob, t, p - h, rule)) / (2 * h)
    assert abs(2 * v_t + A * v_pp + B * v_p**2) < 1e-6


def test_burgers_zero_quad_coef_is_heat(rule, call):
    prob = BurgersProblem(1.0, 0.0, call, 1.0)
    got = burgers_value(prob, 0.0, 100.0, rule)
    assert got == pytest.approx(heat_convolve(call, 1.0, 100.0, rule), abs=1e-14)


def test_gauss_hermite_builds_up_to_max_nodes():
    # the grid's node cap is the largest rule numpy's hermgauss can build
    assert QuadratureRule.gauss_hermite(MAX_QUAD_NODES).n == MAX_QUAD_NODES
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="weights"):
        QuadratureRule.gauss_hermite(MAX_QUAD_NODES + 1)


def test_quadrature_convergence_doubling():
    # doubling the rule from 32 to 64 nodes moves a smooth bounded value
    # by less than 1e-8
    prob = BurgersProblem(1.0, 0.5, lambda x: np.tanh((x - 100.0) / 2.0), 1.0)
    v32 = burgers_value(prob, 0.0, 100.7, QuadratureRule.gauss_hermite(32))
    v64 = burgers_value(prob, 0.0, 100.7, QuadratureRule.gauss_hermite(64))
    assert abs(v64 - v32) <= 1e-8


def test_burgers_residual_scaled_for_coefficient_sweep(rule):
    # central-difference residual of 2 v_t + A v_pp + B v_p^2 stays below
    # 1e-3 (1 + |B| max v_p^2) for a smooth bounded terminal
    terminal = lambda x: np.tanh((x - 0.5) / 3.0) + 0.3 * np.tanh((x + 2.0) / 4.0)
    for A in (0.25, 1.0, 4.0):
        for B in (-0.5, 0.5, 2.0):
            prob = BurgersProblem(A, B, terminal, 1.0)
            ts = np.linspace(0.0, 1.0, 121)
            ps = np.linspace(-8.0, 8.0, 241)
            v = np.stack([burgers_value(prob, float(t), ps, rule) for t in ts])
            dt, dp = ts[1] - ts[0], ps[1] - ps[0]
            v_t = (v[2:, :] - v[:-2, :]) / (2 * dt)
            v_pp = (v[:, 2:] - 2 * v[:, 1:-1] + v[:, :-2]) / dp**2
            v_p = (v[:, 2:] - v[:, :-2]) / (2 * dp)
            res = 2 * v_t[:, 1:-1] + A * v_pp[1:-1, :] + B * v_p[1:-1, :] ** 2
            tol = 1e-3 * (1.0 + abs(B) * float(np.max(v_p**2)))
            assert np.max(np.abs(res)) <= tol, (A, B, np.max(np.abs(res)), tol)


# ---------------------------------------------------------------------------
# risk-neutral closed forms
# ---------------------------------------------------------------------------


def test_rn_aggregate_zero_sum_vanishes(market, linear_cost, call, rule):
    game = GameSpec(
        market, linear_cost,
        (PlayerSpec(RiskNeutral(), call), PlayerSpec(RiskNeutral(), Negated(call))),
    )
    ps = np.linspace(94.0, 106.0, 11)
    assert np.all(rn_aggregate_value(game, 0.0, ps, rule) == 0.0)


def test_rn_aggregate_vanishing_impact_is_heat(linear_cost, call, rule):
    market = MarketParams(1.0, 1e-300, 1.0, 100.0)
    game = GameSpec(market, linear_cost, (PlayerSpec(RiskNeutral(), call),))
    got = rn_aggregate_value(game, 0.0, 100.0, rule)
    assert got == pytest.approx(heat_convolve(call, 1.0, 100.0, rule), abs=1e-10)


def test_rn_aggregate_positive_surplus(call_game, rule):
    # trading is optional, so the impacted value strictly dominates the
    # plain expectation for a non-constant payoff (Jensen)
    v = rn_aggregate_value(call_game, 0.0, 100.0, rule)
    plain = heat_convolve(call_game.players[0].endowment, 1.0, 100.0, rule)
    assert v > plain + 1e-5


def test_rn_aggregate_requires_rn_linear(market, call):
    from illiq import SmoothedSpreadCost

    bad_cost = GameSpec(market, SmoothedSpreadCost(0.01, 0.001, 100.0),
                        (PlayerSpec(RiskNeutral(), call),))
    with pytest.raises(ClosedFormError):
        rn_aggregate_value(bad_cost, 0.0, 100.0, QuadratureRule.gauss_hermite(16))
    cara = GameSpec(market, LinearCost(0.01), (PlayerSpec(CARA(0.1), call),))
    with pytest.raises(ClosedFormError):
        rn_aggregate_value(cara, 0.0, 100.0, QuadratureRule.gauss_hermite(16))


def _small_grid():
    return GridSpec(94.0, 106.0, n_p=201, n_t=41, quad_nodes=128)


def test_rn_individual_symmetric_split(market, linear_cost, call):
    n = 3
    players = tuple(PlayerSpec(RiskNeutral(), Scaled(call, 1.0 / n)) for _ in range(n))
    game = GameSpec(market, linear_cost, players)
    grid = _small_grid()
    vals = rn_individual_values(game, grid)
    # identical endowments: all players coincide, each one third of the total
    assert np.allclose(vals[0], vals[1], atol=1e-14)
    agg = rn_aggregate_grid(game, grid)
    assert np.max(np.abs(vals.sum(axis=0) - agg)) < 2e-3
    assert np.max(np.abs(vals[0] - agg / n)) < 1e-3


def test_rn_individual_single_player_matches_burgers(call_game):
    grid = _small_grid()
    vals = rn_individual_values(call_game, grid)
    agg = rn_aggregate_grid(call_game, grid)
    assert np.max(np.abs(vals[0, 1:-1, 1:-1] - agg[1:-1, 1:-1])) <= 1e-3


def test_rn_individual_predator_value_nonnegative(market, linear_cost, call):
    game = GameSpec(
        market, linear_cost,
        (PlayerSpec(RiskNeutral(), call), PlayerSpec(RiskNeutral(), Scaled(call, 0.0))),
    )
    vals = rn_individual_values(game, _small_grid())
    # the endowment-free player only collects the nonnegative source term
    assert np.min(vals[1]) >= 0.0


def test_monotone_surplus_on_grid(call_game, rule):
    grid = _small_grid()
    prices = grid.prices
    v0 = rn_aggregate_value(call_game, 0.0, prices, rule)
    plain = heat_convolve(call_game.players[0].endowment, 1.0, prices, rule)
    assert np.min(v0 - plain) >= -1e-10


# ---------------------------------------------------------------------------
# CARA closed form
# ---------------------------------------------------------------------------


def test_cara_small_alpha_matches_risk_neutral(market, linear_cost, call, rule, call_game):
    game = GameSpec(market, linear_cost, (PlayerSpec(CARA(1e-8), call),))
    ps = np.linspace(96.0, 104.0, 17)
    cara_v = cara_single_value(game, 0.0, ps, rule)
    rn_v = rn_aggregate_value(call_game, 0.0, ps, rule)
    assert np.max(np.abs(cara_v - rn_v)) <= 1e-6


def test_cara_critical_alpha_is_heat(market, linear_cost, call, rule):
    # alpha = lambda^2 / (2 kappa sigma^2) kills the quadratic term
    alpha = market.lam**2 / (2 * 0.01 * market.sigma**2)
    game = GameSpec(market, linear_cost, (PlayerSpec(CARA(alpha), call),))
    got = cara_single_value(game, 0.25, 101.0, rule)
    plain = heat_convolve(call, market.sigma**2 * 0.75, 101.0, rule)
    assert got == pytest.approx(plain, abs=1e-12)


def test_cara_terminal_condition(market, linear_cost, call, rule):
    game = GameSpec(market, linear_cost, (PlayerSpec(CARA(0.05), call),))
    assert cara_single_value(game, 1.0, 102.0, rule) == pytest.approx(float(call.value(102.0)))


def test_cara_requires_single_player(market, linear_cost, call, rule):
    game = GameSpec(market, linear_cost,
                    (PlayerSpec(CARA(0.1), call), PlayerSpec(CARA(0.1), Negated(call))))
    with pytest.raises(ClosedFormError):
        cara_single_value(game, 0.0, 100.0, rule)


# ---------------------------------------------------------------------------
# speed fields under linear cost
# ---------------------------------------------------------------------------


def _fields(game, grads):
    speeds, agg, _ = equilibrium_fields(game, certify_for_game(game).eps_floor, grads)
    return speeds, agg


def test_closed_speed_single_player(call_game):
    grads = np.array([[0.2, 0.5, 1.0]])
    speeds, agg = _fields(call_game, grads)
    assert np.allclose(speeds[0], (0.01 / (2 * 0.01)) * grads[0])
    # the aggregate is the root, which the speeds re-sum to within N root_tol
    assert np.abs(agg - speeds[0]).max() <= 1 * ROOT_TOL


def test_closed_speed_symmetric_players(market, linear_cost, call):
    game = GameSpec(market, linear_cost,
                    (PlayerSpec(RiskNeutral(), call), PlayerSpec(RiskNeutral(), call)))
    grads = np.array([[0.3, -0.2], [0.3, -0.2]])
    speeds, agg = _fields(game, grads)
    assert np.allclose(speeds[0], speeds[1])
    assert np.allclose(speeds[0], agg / 2)


def test_closed_speed_offsetting_players(zero_sum_game):
    grads = np.array([[0.4, -0.1], [-0.4, 0.1]])
    speeds, agg = _fields(zero_sum_game, grads)
    assert np.all(agg == 0.0)
    assert np.allclose(speeds[0], (0.01 / 0.01) * grads[0])
    # cross-check against the linear-cost closed form
    # speed_j = (lambda/kappa) (grad_j - sum_i grad_i / (N+1))
    explicit = (0.01 / 0.01) * (grads - grads.sum(axis=0) / 3)
    assert np.allclose(speeds, explicit, atol=1e-10)
