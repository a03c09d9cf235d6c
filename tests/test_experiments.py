import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illiq import (
    ExperimentError,
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
    SumPayoff,
    ValidationError,
    cara_two_player_study,
    figure_grids,
    predator_sweep,
    solve_fd,
    split_sweep,
    spread_sweep,
    zero_sum_report,
)
from illiq.manifest import digest
from illiq.model import game_to_dict
from illiq.speeds import ROOT_TOL

SMALL_GRID = GridSpec(94.0, 106.0, n_p=101, n_t=120, quad_nodes=64)
ZERO_SUM_TOL = 10.0 * ROOT_TOL


def _holder_vs_writer(h, template):
    """Two risk-neutral players holding h and its negation."""
    players = (PlayerSpec(RiskNeutral(), h), PlayerSpec(RiskNeutral(), Negated(h)))
    return GameSpec(template.market, template.cost, players)


# ---------------------------------------------------------------------------
# zero sum
# ---------------------------------------------------------------------------


def test_zero_sum_call_vs_written_call(call, call_game):
    report = zero_sum_report(_holder_vs_writer(call, call_game), SMALL_GRID)
    assert report.assertions["offsetting_payoffs"]
    assert report.metrics["max_aggregate_speed"][0] <= ZERO_SUM_TOL
    assert report.passed


def test_zero_sum_trivial_zero_payoffs(call_game):
    h = Scaled(SmoothedCall(100.0, 10.0, 0.05), 0.0)
    report = zero_sum_report(_holder_vs_writer(h, call_game), SMALL_GRID)
    assert report.metrics["max_aggregate_speed"][0] == 0.0
    assert report.metrics["max_value_sum"][0] == 0.0


def test_zero_sum_three_players(market, linear_cost, call, digital):
    # H, H', and the negated sum still cancel in aggregate
    players = (
        PlayerSpec(RiskNeutral(), call),
        PlayerSpec(RiskNeutral(), digital),
        PlayerSpec(RiskNeutral(), Negated(SumPayoff((call, digital)))),
    )
    game = GameSpec(market, linear_cost, players)
    sol = solve_fd(game, SMALL_GRID)
    assert np.abs(sol.aggregate_speed).max() <= 10 * sol.meta["root_tol"]


def test_zero_sum_report_flags_non_offsetting(market, linear_cost, call):
    game = GameSpec(market, linear_cost,
                    (PlayerSpec(RiskNeutral(), call), PlayerSpec(RiskNeutral(), call)))
    report = zero_sum_report(game, SMALL_GRID)
    assert not report.assertions["offsetting_payoffs"]
    assert not report.passed


@settings(max_examples=5, deadline=None)
@given(
    strike=st.floats(97.0, 103.0),
    width=st.floats(0.05, 0.5),
    factor=st.floats(0.2, 3.0),
    digital_mix=st.booleans(),
)
def test_zero_sum_randomized_payoffs(call_game, strike, width, factor, digital_mix):
    inner = SmoothedDigital(strike, width) if digital_mix else SmoothedCall(strike, 10.0, width)
    h = Scaled(inner, factor)
    report = zero_sum_report(_holder_vs_writer(h, call_game),
                             GridSpec(94.0, 106.0, 61, 40, quad_nodes=32))
    assert report.passed


# ---------------------------------------------------------------------------
# predator and split scaling
# ---------------------------------------------------------------------------


def test_predator_sweep_decreasing(call, call_game):
    res = predator_sweep(call, (1, 10, 100), call_game, SMALL_GRID)
    m = res.metrics["max_abs_aggregate_speed"]
    assert np.all(np.diff(m) < 0)
    assert res.assertions["rate_bound"]
    # explicit ratio check with the 10% slack for the value's N dependence
    assert m[-1] <= (2.0 / 101.0) * 1.1 * m[0]


def test_predator_sweep_zero_endowment(call, call_game):
    res = predator_sweep(Scaled(call, 0.0), (1, 10), call_game, SMALL_GRID)
    assert np.all(res.metrics["max_abs_aggregate_speed"] == 0.0)


def test_split_sweep_call_and_digital(call, digital, call_game):
    for h in (call, digital):
        res = split_sweep(h, (1, 10, 100), call_game, SMALL_GRID)
        assert res.assertions["pointwise_non_increasing"]
        assert res.assertions["decays_toward_zero"]


def test_split_sweep_zero_payoff(call, call_game):
    res = split_sweep(Scaled(call, 0.0), (1, 10), call_game, SMALL_GRID)
    assert np.all(res.metrics["max_abs_aggregate_speed"] == 0.0)


def test_split_sweep_closed_form_matches_fd(call, call_game, market, linear_cost):
    # the sweep's closed-form time-zero speeds agree with the full solver
    grid = GridSpec(94.0, 106.0, 201, 400, quad_nodes=96)
    res = split_sweep(call, (2,), call_game, grid)
    closed = res.grids["abs_agg_speed_N2"]
    players = tuple(PlayerSpec(RiskNeutral(), Scaled(call, 0.5)) for _ in range(2))
    sol = solve_fd(GameSpec(market, linear_cost, players), grid)
    fd_row = np.abs(sol.aggregate_speed[0])
    assert np.max(np.abs(closed - fd_row)) <= 1e-2


# ---------------------------------------------------------------------------
# spread study
# ---------------------------------------------------------------------------


def test_spread_sweep_monotone(call_game):
    grid = GridSpec(94.0, 106.0, 201, 300, quad_nodes=96)
    res = spread_sweep(call_game, (0.0, 0.002, 0.004), 100.0, grid)
    assert res.assertions["max_speed_non_increasing"]
    assert res.assertions["max_surplus_non_increasing"]
    assert np.all(np.diff(res.metrics["max_abs_speed"]) < -1e-3)


def test_spread_sweep_zero_spread_matches_closed_form(call_game, rule):
    from illiq.closedform import central_gradient, rn_aggregate_value

    grid = GridSpec(94.0, 106.0, 201, 400, quad_nodes=96)
    res = spread_sweep(call_game, (0.0,), 100.0, grid)
    speed_fd = res.grids["speed_s0"]
    v0 = rn_aggregate_value(call_game, 0.0, grid.prices, rule)
    speed_cf = 0.01 / (2 * 0.01) * central_gradient(np.asarray(v0), grid.dp)
    assert np.max(np.abs(speed_fd - speed_cf)) <= 1e-2


def test_spread_sweep_requires_single_rn_player(zero_sum_game):
    with pytest.raises(ExperimentError):
        spread_sweep(zero_sum_game, (0.0,), 100.0, SMALL_GRID)


# ---------------------------------------------------------------------------
# CARA two-player study
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cara_base():
    market = MarketParams(sigma=2.0, lam=0.01, maturity=1.0, p0=100.0)
    call = SmoothedCall(100.0, 10.0 * market.scale, 0.05 * market.scale)
    return GameSpec(market, LinearCost(0.01), (PlayerSpec(RiskNeutral(), call),))


CARA_GRID = GridSpec(88.0, 112.0, n_p=121, n_t=240, quad_nodes=64)


@pytest.mark.parametrize("alphas", [(0.01, 0.01), (0.001, 0.1)])
def test_cara_two_player_sign_pattern(cara_base, alphas):
    res = cara_two_player_study(alphas, cara_base, CARA_GRID)
    assert res.assertions["writer_buys"]
    assert res.assertions["issuer_sells"]


def test_cara_two_player_band_follows_p0():
    # p0 = 50: the sign claims are checked on p0 +/- 5, wherever p0 sits
    market = MarketParams(sigma=2.0, lam=0.01, maturity=1.0, p0=50.0)
    call = SmoothedCall(50.0, 10.0 * market.scale, 0.05 * market.scale)
    base = GameSpec(market, LinearCost(0.01), (PlayerSpec(RiskNeutral(), call),))
    grid = GridSpec.for_market(market, n_p=121, n_t=240, quad_nodes=64)
    res = cara_two_player_study((0.01, 0.01), base, grid)
    band = (grid.prices >= 45.0) & (grid.prices <= 55.0)
    assert np.count_nonzero(band) > 0
    assert res.metrics["min_writer_speed_on_band"][0] == np.min(res.grids["writer_speed"][band])
    assert res.metrics["max_issuer_speed_on_band"][0] == np.max(res.grids["issuer_speed"][band])
    assert res.passed


def test_cara_two_player_zero_payoff(cara_base):
    base = GameSpec(cara_base.market, cara_base.cost,
                    (PlayerSpec(RiskNeutral(), Scaled(cara_base.players[0].endowment, 0.0)),))
    res = cara_two_player_study((0.01, 0.01), base, CARA_GRID)
    assert np.all(res.grids["writer_speed"] == 0.0)
    assert np.all(res.grids["issuer_speed"] == 0.0)


# ---------------------------------------------------------------------------
# figure grids
# ---------------------------------------------------------------------------


def _benchmark_game_hash(payoff):
    """Digest of the benchmark game: K=100, T=1, sigma=1, lambda=kappa=0.01."""
    market = MarketParams(sigma=1.0, lam=0.01, maturity=1.0, p0=100.0)
    game = GameSpec(market, LinearCost(0.01), (PlayerSpec(RiskNeutral(), payoff),))
    return digest(game_to_dict(game))


def test_figure_grid_call_parameters():
    grid = GridSpec(94.0, 106.0, 121, 41, quad_nodes=64)
    data = figure_grids("fig1", grid)
    assert data.game_hash == _benchmark_game_hash(SmoothedCall(100.0, 10.0, 0.05))
    assert data.param == "t"
    assert len(data.values) == 41
    assert data.grids["speed"].shape == (41, 121)
    # speed of a long call is nonnegative and the surplus positive at strike
    assert data.grids["speed"].min() >= -1e-12
    assert data.grids["surplus"][0, 60] > 0


def test_figure_grid_digital(call_game):
    grid = GridSpec(94.0, 106.0, 121, 41, quad_nodes=64)
    data = figure_grids("fig2", grid)
    assert data.game_hash == _benchmark_game_hash(SmoothedDigital(100.0, 0.05))


def test_figure_grids_reproducible():
    grid = GridSpec(94.0, 106.0, 61, 21, quad_nodes=32)
    a = figure_grids("fig1", grid)
    b = figure_grids("fig1", grid)
    assert np.array_equal(a.grids["speed"], b.grids["speed"])
    assert a.game_hash == b.game_hash


def test_figure_grid_split_study():
    grid = GridSpec(94.0, 106.0, 101, 41, quad_nodes=64)
    data = figure_grids("fig6", grid)
    assert set(data) == {"call", "digital"}
    assert data["call"].values == (1, 10, 100)
    assert data["call"].passed


def test_figure_grid_unknown_id():
    with pytest.raises(ExperimentError, match="unknown figure id"):
        figure_grids("fig99")


@pytest.mark.parametrize("sweep, values", [
    (lambda values, game: spread_sweep(game, values, 100.0, SMALL_GRID), (0.001, 0.0010000001)),
    (lambda values, game: predator_sweep(game.players[0].endowment, values, game, SMALL_GRID),
     (1, 10, 1)),
    (lambda values, game: split_sweep(game.players[0].endowment, values, game, SMALL_GRID),
     (2, 2)),
], ids=["spread", "predator", "split"])
def test_sweep_values_sharing_a_grid_column_are_rejected(call_game, sweep, values):
    # a later value would overwrite an earlier one's grid columns
    with pytest.raises(ValidationError, match="share the grid column"):
        sweep(values, call_game)


def test_sweep_provenance_hashes(call, call_game):
    a = split_sweep(call, (1, 2), call_game, SMALL_GRID)
    b = split_sweep(call, (1, 2), call_game, SMALL_GRID)
    assert a.game_hash == b.game_hash
    assert a.grid_hash == b.grid_hash
    assert np.array_equal(a.metrics["max_abs_aggregate_speed"],
                          b.metrics["max_abs_aggregate_speed"])
