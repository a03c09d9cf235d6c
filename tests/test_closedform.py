import numpy as np
import pytest

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
)
from illiq.closedform import duhamel_trapezoid
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
# lattice heat operator and Duhamel sum, against the loops they replaced
# ---------------------------------------------------------------------------


def _reference_heat_grid(values, p_grid, variance, rule):
    """One row at a time: np.interp inside the grid, the end slopes carried
    on outside it."""
    if variance == 0.0:
        q, w = p_grid[:, None], np.array([1.0])
    else:
        q, w = p_grid[:, None] + np.sqrt(variance) * rule.z[None, :], rule.w
    base = np.interp(q, p_grid, values)
    slope_l = (values[1] - values[0]) / (p_grid[1] - p_grid[0])
    slope_r = (values[-1] - values[-2]) / (p_grid[-1] - p_grid[-2])
    base = base + np.where(q < p_grid[0], (q - p_grid[0]) * slope_l, 0.0)
    base = base + np.where(q > p_grid[-1], (q - p_grid[-1]) * slope_r, 0.0)
    return base @ w


def _reference_duhamel(src, step, diff_coef, p_grid, rule):
    """Double loop over (m, s) of the trapezoid sum for src of shape (L, N, n_p)."""
    out = np.zeros_like(src)
    for m in range(1, src.shape[0]):
        for s in range(m + 1):
            weight = 0.5 * step if s in (0, m) else step
            for j in range(src.shape[1]):
                out[m, j] += weight * _reference_heat_grid(src[s, j], p_grid,
                                                           diff_coef * (m - s) * step, rule)
    return out


_P_SMALL = np.linspace(-1.0, 1.0, 21)


@pytest.mark.parametrize("variance", [0.0, 1e-4, 0.05, 4.0])
def test_heat_grid_matches_interp_reference(variance):
    rule = QuadratureRule.gauss_hermite(16)
    values = np.maximum(_P_SMALL - 0.1, 0.0) + 0.3 * _P_SMALL**2
    got = heat_convolve_grid(values, _P_SMALL, variance, rule)
    want = _reference_heat_grid(values, _P_SMALL, variance, rule)
    if variance == 0.0:
        assert np.array_equal(got, values) and np.array_equal(want, values)
    else:
        assert np.abs(got - want).max() <= 1e-14


def test_heat_grid_reaches_past_both_ends():
    # the widest variance above sends nodes from every price past both ends
    rule = QuadratureRule.gauss_hermite(16)
    variance = 4.0
    assert _P_SMALL[-1] + np.sqrt(variance) * rule.z.min() < _P_SMALL[0]
    assert _P_SMALL[0] + np.sqrt(variance) * rule.z.max() > _P_SMALL[-1]
    # the linear extension makes the operator exact on linear functions
    line = 2.0 - 3.0 * _P_SMALL
    assert np.abs(heat_convolve_grid(line, _P_SMALL, variance, rule) - line).max() <= 1e-13


def test_heat_grid_stack_matches_rows():
    rule = QuadratureRule.gauss_hermite(16)
    stack = np.random.default_rng(7).standard_normal((5, 3, _P_SMALL.size))
    got = heat_convolve_grid(stack, _P_SMALL, 0.05, rule)
    assert got.shape == stack.shape
    for idx in np.ndindex(stack.shape[:-1]):
        row = heat_convolve_grid(stack[idx], _P_SMALL, 0.05, rule)
        assert np.abs(got[idx] - row).max() <= 1e-14


def test_duhamel_trapezoid_matches_double_loop():
    rule = QuadratureRule.gauss_hermite(16)
    src = np.random.default_rng(11).random((7, 2, _P_SMALL.size))
    got = duhamel_trapezoid(src, 0.02, 1.5, _P_SMALL, rule)
    want = _reference_duhamel(src, 0.02, 1.5, _P_SMALL, rule)
    assert np.all(got[0] == 0.0)
    assert np.abs(got - want).max() <= 1e-14


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
