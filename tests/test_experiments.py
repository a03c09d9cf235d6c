from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import illiq.pdesolve
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
    SmoothedSpreadCost,
    SumPayoff,
    TableCost,
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


@pytest.mark.parametrize("sweep, counts", [(predator_sweep, (100, 10, 1)),
                                           (split_sweep, (10, 100, 1))])
def test_player_count_sweeps_sort_their_counts(call, call_game, sweep, counts):
    # the claims compare neighbours in N order, whatever order N is given in:
    # at (100, 10, 1) the predator sweep would call its falling speeds rising
    # and its rate bound (101/2) would hold vacuously
    res, ref = (sweep(call, ns, call_game, SMALL_GRID) for ns in (counts, sorted(counts)))
    assert res.values == ref.values == (1, 10, 100)
    assert res.assertions == ref.assertions and res.passed
    np.testing.assert_array_equal(res.metrics["max_abs_aggregate_speed"],
                                  ref.metrics["max_abs_aggregate_speed"])


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


def test_spread_sweep_sorts_its_spreads(call_game):
    # the claims compare neighbours in spread order, whatever order the
    # spreads are given in, and the grid columns follow that order
    res = spread_sweep(call_game, (0.004, 0.0, 0.002), 100.0, SMALL_GRID)
    ref = spread_sweep(call_game, (0.0, 0.002, 0.004), 100.0, SMALL_GRID)
    assert res.values == ref.values == (0.0, 0.002, 0.004)
    assert res.assertions == ref.assertions and res.passed
    assert list(res.grids) == list(ref.grids)
    for key in res.grids:
        np.testing.assert_array_equal(res.grids[key], ref.grids[key])


def test_spread_sweep_zero_spread_matches_closed_form(call_game, rule):
    from illiq.closedform import central_gradient, rn_aggregate_value

    grid = GridSpec(94.0, 106.0, 201, 400, quad_nodes=96)
    res = spread_sweep(call_game, (0.0,), 100.0, grid)
    speed_fd = res.grids["speed_s0"]
    v0 = rn_aggregate_value(call_game, 0.0, grid.prices, rule)
    speed_cf = 0.01 / (2 * 0.01) * central_gradient(np.asarray(v0), grid.dp)
    assert np.max(np.abs(speed_fd - speed_cf)) <= 1e-2


def _spread_sweep_peak(traced_peak, game, n_t: int) -> int:
    grid = GridSpec(94.0, 106.0, 401, n_t)
    return traced_peak(spread_sweep, game, (0.0, 0.002, 0.004), 100.0, grid)


def test_spread_sweep_memory_is_flat_in_n_t(call_game, traced_peak):
    # the sweep keeps each game's t = 0 layer, not its lattice: a value,
    # gradient and speed lattice per spread would add 3 * 3 * 300 * 401 * 8 B
    # = 8.7 MB at 400 layers over 100 (the peak is about 0.4 MB at both)
    _spread_sweep_peak(traced_peak, call_game, 20)  # lazy imports and tables before measuring
    small, large = (_spread_sweep_peak(traced_peak, call_game, n_t) for n_t in (100, 400))
    assert large < 1.25 * small


def test_spread_sweep_takes_the_no_trade_term_once(call_game, monkeypatch):
    # the spreads share players and market, so one heat_convolve_payoff
    # call serves every surplus row; the march's numbers go to meta
    calls = []
    heat = illiq.pdesolve.heat_convolve_payoff
    monkeypatch.setattr(illiq.pdesolve, "heat_convolve_payoff",
                        lambda *args: calls.append(args) or heat(*args))
    res = spread_sweep(call_game, (0.0, 0.002, 0.004), 100.0, SMALL_GRID)
    assert len(calls) == 1
    assert res.meta["n_t_used"] == solve_fd(replace(call_game, cost=SmoothedSpreadCost(
        0.01, 0.004, 100.0)), SMALL_GRID).meta["n_t_used"]
    assert res.meta["marches"] == 1 and res.meta["root_sweeps"]["max"] > 0


def test_spread_sweep_requires_single_rn_player(zero_sum_game):
    with pytest.raises(ExperimentError):
        spread_sweep(zero_sum_game, (0.0,), 100.0, SMALL_GRID)


@pytest.mark.parametrize("study, cost, message", [
    ("predator", SmoothedSpreadCost(0.01, 0.002, 100.0),
     "predator_sweep requires a linear cost template"),
    ("spread", TableCost((-2.0, -1.0, 0.0, 1.0, 2.0), (-0.02, -0.01, 0.0, 0.01, 0.02)),
     "spread_sweep requires a linear or smoothed-spread cost"),
], ids=["predator_spread_template", "spread_table_cost"])
def test_sweeps_refuse_a_cost_they_do_not_sweep(call, call_game, study, cost, message):
    game = GameSpec(call_game.market, cost, call_game.players)
    with pytest.raises(ExperimentError, match=message):
        if study == "predator":
            predator_sweep(call, (1, 2), game, SMALL_GRID)
        else:
            spread_sweep(game, (0.0,), 100.0, SMALL_GRID)


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


def _cara_study_peak(traced_peak, base, n_t: int) -> int:
    grid = GridSpec(88.0, 112.0, 401, n_t)

    def study():
        res = cara_two_player_study((0.01, 0.01), base, grid)
        assert res.meta["n_t_used"] == n_t  # no refined time grid evens the sizes out

    return traced_peak(study)


def test_cara_two_player_memory_is_flat_in_n_t(cara_base, traced_peak):
    # the study reads only t = 0: a value, gradient and speed lattice per
    # player would add 2 * 3 * 300 * 401 * 8 B = 5.8 MB at 400 layers over
    # 100 (the peak is about 0.3 MB at both)
    _cara_study_peak(traced_peak, cara_base, 20)  # lazy imports and tables before measuring
    small, large = (_cara_study_peak(traced_peak, cara_base, n_t) for n_t in (100, 400))
    assert large < 1.25 * small


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
