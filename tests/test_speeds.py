import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illiq import (
    CARA,
    CertificationError,
    CostCertificate,
    GameSpec,
    LinearCost,
    MarketParams,
    Negated,
    PlayerSpec,
    RiskNeutral,
    SmoothedCall,
    SmoothedDigital,
    SmoothedSpreadCost,
    SpeedSolverError,
    TableCost,
    aggregate_speed_many,
    apriori_speed_bound,
    certify_cost,
    equilibrium_fields,
    stack_costs,
)
from illiq.speeds import ROOT_TOL


def _speeds_and_root(cost, effective_gradients, eps):
    """Speeds and aggregate root from effective gradients (lambda = 1 makes
    the gradients effective ones)."""
    e = np.asarray(effective_gradients, dtype=float)
    market = MarketParams(1.0, 1.0, 1.0, 100.0)
    players = tuple(PlayerSpec(RiskNeutral(), SmoothedCall(100.0, 10.0, 0.05)) for _ in e)
    speeds, z, _ = equilibrium_fields(GameSpec(market, cost, players), eps, e)
    return speeds, float(z[0])


# ---------------------------------------------------------------------------
# cost curves
# ---------------------------------------------------------------------------


def test_linear_cost_value():
    assert LinearCost(0.01).value(0.5) == pytest.approx(0.005, rel=1e-15)


def test_cost_normalized_at_zero():
    for cost in (LinearCost(0.01), SmoothedSpreadCost(0.01, 0.002, 100.0)):
        assert cost.value(0.0) == 0.0


def test_spread_cost_value_closed_form():
    cost = SmoothedSpreadCost(0.01, 0.002, 100.0)
    expected = 0.1 + 0.002 * (2.0 / math.pi) * math.atan(1000.0)
    got = float(cost.value(10.0))
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(0.101999, abs=5e-7)


def test_spread_cost_slope_at_zero_and_tails():
    kappa, s, c = 0.01, 0.002, 100.0
    cost = SmoothedSpreadCost(kappa, s, c)
    assert float(cost.slope(0.0)) == pytest.approx(kappa + 2 * s * c / math.pi, rel=1e-14)
    assert float(cost.slope(1e9)) == pytest.approx(kappa, rel=1e-9)
    assert float(cost.slope(-1e9)) == pytest.approx(kappa, rel=1e-9)
    # finite-difference confirmation of the analytic derivative
    step = 1e-7
    fd = (cost.value(0.3 + step) - cost.value(0.3 - step)) / (2 * step)
    assert float(fd) == pytest.approx(float(cost.slope(0.3)), rel=1e-7)


def _tanh_table():
    """A table cost with a spread-like kink, whose g'' jumps at every knot."""
    z = np.linspace(-3.0, 3.0, 61)
    return TableCost(tuple(z), tuple(0.01 * z + 0.004 * np.tanh(5.0 * z)))


@pytest.mark.parametrize("cost", [LinearCost(0.01), SmoothedSpreadCost(0.01, 0.002, 100.0),
                                  _tanh_table()], ids=["linear", "spread", "table"])
def test_curvature_matches_central_difference_of_slope(cost):
    # off the table's knots, where its second derivative is continuous
    z = np.array([-2.43, -0.71, -0.012, 0.0037, 0.29, 1.57])
    step = 1e-6
    fd = (cost.slope(z + step) - cost.slope(z - step)) / (2 * step)
    np.testing.assert_allclose(cost.curvature(z), fd, rtol=1e-6, atol=1e-9)


def test_table_cost_out_of_domain():
    z = np.linspace(-2.0, 2.0, 41)
    cost = TableCost(tuple(z), tuple(0.01 * z))
    with pytest.raises(Exception, match="table domain"):
        cost.value(5.0)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def test_certify_linear():
    cert = certify_cost(LinearCost(0.01), (-100.0, 100.0))
    assert cert.eps_floor == pytest.approx(0.0099, rel=1e-12)
    assert cert.marginal_monotone


def test_certify_spread():
    cert = certify_cost(SmoothedSpreadCost(0.01, 0.002, 100.0), (-100.0, 100.0))
    assert cert.eps_floor == pytest.approx(0.0099, rel=1e-4)


def test_certify_rejects_vanishing_slope_table():
    # g = arctan has slope 1/(1+z^2) ~ 1e-4 at |z| = 100, below the
    # declared admissibility floor of a table cost
    z = np.linspace(-100.0, 100.0, 4001)
    cost = TableCost(tuple(z), tuple(np.arctan(z)))
    with pytest.raises(CertificationError, match="eps_floor"):
        certify_cost(cost, cost.domain)


def test_certify_rejects_nonmonotone_marginal_cost():
    # strong concave bump: g' stays above the floor but g + z g' dips
    z = np.linspace(-2.0, 2.0, 801)
    g = 0.05 * z + 0.8 * np.sign(z) * (1.0 - np.exp(-5.0 * np.abs(z)))
    cost = TableCost(tuple(z), tuple(g))
    with pytest.raises(CertificationError, match="strictly increasing"):
        certify_cost(cost, cost.domain)


# a table whose last segment is flat: the monotone cubic keeps it flat, so g' = 0 on [1, 2]
FLAT_TAIL = TableCost((-2.0, -1.0, 0.0, 1.0, 2.0), (-2.0, -1.0, 0.0, 1.0, 1.0))


@pytest.mark.parametrize("cost, interval, error, message", [
    (LinearCost(0.01), (0.5, 2.0), ValueError, "working interval must contain 0"),
    (LinearCost(0.01), (-2.0, 0.0), ValueError, "working interval must contain 0"),
    (FLAT_TAIL, FLAT_TAIL.domain, CertificationError, r"g' reaches 0 <= 0 on \[-2, 2\]"),
], ids=["right_of_zero", "ends_at_zero", "flat_table"])
def test_certify_refuses(cost, interval, error, message):
    with pytest.raises(error, match=message):
        certify_cost(cost, interval)


# ---------------------------------------------------------------------------
# a-priori bound
# ---------------------------------------------------------------------------


def _game(payoff, n=1, lam=0.01):
    from illiq import MarketParams

    market = MarketParams(1.0, lam, 1.0, 100.0)
    return GameSpec(market, LinearCost(0.01), tuple(PlayerSpec(RiskNeutral(), payoff) for _ in range(n)))


def _cert(eps, reach=1e6):
    return CostCertificate(eps_floor=eps, marginal_monotone=True, z_lo=-reach, z_hi=reach, samples=2001)


def test_apriori_bound_unit_slope():
    game = _game(SmoothedCall(100.0, 50.0, 1e-9))
    assert apriori_speed_bound(game, _cert(0.01)) == pytest.approx(1.0)


def test_apriori_bound_two_players():
    game = _game(SmoothedCall(100.0, 50.0, 1e-9), n=2)
    assert apriori_speed_bound(game, _cert(0.01)) == pytest.approx(2.0)


def test_apriori_bound_digital():
    game = _game(SmoothedDigital(100.0, 0.05))
    # 1 * (0.01 / 0.01) * 1/(4*0.05)
    assert apriori_speed_bound(game, _cert(0.01)) == pytest.approx(5.0)


def test_apriori_bound_requires_coverage():
    game = _game(SmoothedDigital(100.0, 0.05))
    with pytest.raises(CertificationError, match="does not cover"):
        apriori_speed_bound(game, _cert(0.01, reach=1.0))


# ---------------------------------------------------------------------------
# aggregate root
# ---------------------------------------------------------------------------


def test_aggregate_speed_linear_closed_form():
    cost = LinearCost(0.01)
    eps = 0.0099
    assert aggregate_speed_many(cost, 1, [0.01], eps)[0] == pytest.approx(0.5, abs=1e-12)
    for n, kappa, s in [(1, 0.01, 0.01), (3, 0.02, -0.5), (7, 0.005, 0.9)]:
        c = LinearCost(kappa)
        got = aggregate_speed_many(c, n, [s], 0.99 * kappa)[0]
        assert got == pytest.approx(s / ((n + 1) * kappa), abs=1e-12)


def test_linear_root_is_exact():
    cost = LinearCost(0.013)
    s = np.random.default_rng(3).uniform(-1.0, 1.0, 100)
    for n in (1, 4, 9):
        assert np.array_equal(cost.exact_speed_root(n, s), s / ((n + 1) * 0.013))
        assert np.array_equal(aggregate_speed_many(cost, n, s, 0.99 * 0.013),
                              s / ((n + 1) * 0.013))


def test_aggregate_speed_zero_gradient():
    for cost in (LinearCost(0.01), SmoothedSpreadCost(0.01, 0.002, 100.0)):
        assert aggregate_speed_many(cost, 3, [0.0], 0.009)[0] == 0.0


def test_aggregate_speed_spread_matches_dense_scan():
    cost = SmoothedSpreadCost(0.01, 0.002, 100.0)
    cert = certify_cost(cost, (-10.0, 10.0))
    got = aggregate_speed_many(cost, 1, [0.01], cert.eps_floor)[0]
    # dense-scan oracle: sign change of Phi over [-1, 1] at step 1e-6
    z = np.arange(-1.0, 1.0, 1e-6)
    phi = cost.value(z) + z * cost.slope(z) - 0.01
    scan_root = z[np.argmin(np.abs(phi))]
    assert abs(got - scan_root) <= 1.5e-6
    # and the residual at the returned root is tiny
    assert abs(cost.value(got) + got * cost.slope(got) - 0.01) <= cert.eps_floor * ROOT_TOL


def test_aggregate_speed_table_matches_dense_scan():
    cost = _tanh_table()
    cert = certify_cost(cost, cost.domain)
    got = aggregate_speed_many(cost, 2, [0.01], cert.eps_floor)[0]
    # dense-scan oracle: sign change of Phi over [-1, 1] at step 1e-6
    z = np.arange(-1.0, 1.0, 1e-6)
    phi = 2 * cost.value(z) + z * cost.slope(z) - 0.01
    scan_root = z[np.argmin(np.abs(phi))]
    assert abs(got - scan_root) <= 1.5e-6
    assert abs(2 * cost.value(got) + got * cost.slope(got) - 0.01) <= cert.eps_floor * ROOT_TOL


@pytest.mark.parametrize("cost", [SmoothedSpreadCost(0.01, 0.002, 100.0), _tanh_table()],
                         ids=["spread", "table"])
def test_aggregate_speed_independent_of_neighbours(cost):
    # one call over many gradient sums gives, bit for bit, the roots of one
    # call per sum: an entry's iteration does not depend on the others
    eps = certify_cost(cost, (-3.0, 3.0)).eps_floor
    s = np.random.default_rng(9).uniform(-0.02, 0.02, 1000)
    s[::50] = 0.0
    whole = aggregate_speed_many(cost, 3, s, eps)
    one_by_one = np.array([aggregate_speed_many(cost, 3, [x], eps)[0] for x in s])
    assert np.array_equal(whole, one_by_one)


def test_aggregate_speed_bracket_failure():
    # an eps floor far above the true slope makes the bracket too small
    with pytest.raises(SpeedSolverError, match="bracket"):
        aggregate_speed_many(LinearCost(0.01), 1, [1.0], 10.0)


@pytest.mark.parametrize("cost", [LinearCost(0.01), SmoothedSpreadCost(0.01, 0.002, 100.0)],
                         ids=["linear", "spread"])
def test_aggregate_speed_rejects_non_finite_sums(cost):
    for bad in (np.nan, np.inf):
        with pytest.raises(SpeedSolverError, match="finite"):
            aggregate_speed_many(cost, 2, [0.01, bad], 0.0099)


@pytest.mark.parametrize("cost", [SmoothedSpreadCost(0.01, 0.002, 100.0), _tanh_table()],
                         ids=["spread", "table"])
def test_aggregate_speed_rejects_non_finite_start(cost):
    # np.clip keeps NaN and |NaN| > tol is False: a NaN start would pass as a root
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(SpeedSolverError, match="start must be finite"):
            aggregate_speed_many(cost, 2, [0.01, 0.0], 0.0099, start=[0.0, bad])


def test_aggregate_speed_records_sweeps():
    sweeps = []
    aggregate_speed_many(LinearCost(0.01), 2, [0.01], 0.0099, sweeps=sweeps)
    cost = SmoothedSpreadCost(0.01, 0.002, 100.0)
    z = aggregate_speed_many(cost, 2, [0.01, -0.003], 0.0099, sweeps=sweeps)
    aggregate_speed_many(cost, 2, [0.01, -0.003], 0.0099, start=z, sweeps=sweeps)
    assert sweeps[0] == 0 and sweeps[1] > 0 and sweeps[2] == 0


def test_far_start_does_not_cycle():
    # Newton alone, kept inside the bracket, swings across the kink of this
    # cost from the bracket's end for 197 sweeps before it converges
    cost = SmoothedSpreadCost(0.0152, 0.0042, 79.0)
    eps = certify_cost(cost, (-3.0, 3.0)).eps_floor
    sweeps = []
    z = aggregate_speed_many(cost, 7, [-0.022], eps, start=[-1.0], sweeps=sweeps)
    assert abs(7 * cost.value(z[0]) + z[0] * cost.slope(z[0]) + 0.022) <= 7 * eps * ROOT_TOL
    assert sweeps[0] <= 12


# the far-start cost above, a spread-free one, and a C whose cube numpy's
# vectorized power rounds otherwise than Python's
STACKED_SPREADS = (SmoothedSpreadCost(0.0152, 0.0042, 79.0), SmoothedSpreadCost(0.01, 0.0, 100.0),
                   SmoothedSpreadCost(0.013, 0.0031, 3.3), SmoothedSpreadCost(0.01, 0.002, 100.0))


def test_stacked_cost_evaluates_each_row_as_its_own_cost():
    costs = STACKED_SPREADS
    stacked = stack_costs(costs)
    z = np.random.default_rng(4).uniform(-0.5, 0.5, (len(costs), 257))
    for name in ("value", "slope", "curvature"):
        rows = np.array([getattr(c, name)(z[b]) for b, c in enumerate(costs)])
        assert np.array_equal(getattr(stacked, name)(z), rows), name


@pytest.mark.parametrize("cost", [LinearCost(0.01), *STACKED_SPREADS,
                                  stack_costs(STACKED_SPREADS), _tanh_table()],
                         ids=["linear", "spread0", "spread1", "spread2", "spread3", "stacked",
                              "table"])
def test_evaluate_equals_the_three_methods(cost):
    # one call gives g, g' and g'' bit for bit as value, slope and curvature
    zs = np.random.default_rng(6).uniform(-2.9, 2.9, (len(STACKED_SPREADS), 257))
    zs[:, :3] = 0.0, -1e-3, 2.0e-5
    for z in (zs, 0.37):
        got = cost.evaluate(z)
        assert len(got) == 3
        for name, part in zip(("value", "slope", "curvature"), got):
            assert np.array_equal(part, getattr(cost, name)(z)), name


@pytest.mark.parametrize("cost", STACKED_SPREADS, ids=["spread0", "spread1", "spread2", "spread3"])
def test_spread_evaluate_keeps_the_formulas_bits(cost):
    # g, g' and g'' written out term by term, C^3 as Python's scalar power:
    # the prefixes and the shared C z and 1 + (C z)^2 change no bit
    z = np.random.default_rng(7).uniform(-0.5, 0.5, 257)
    k, s, c = cost.kappa, cost.spread, cost.sharpness
    want = (k * z + s * (2.0 / np.pi) * np.arctan(c * z),
            k + 2.0 * s * c / (np.pi * (1.0 + (c * z) ** 2)),
            -4.0 * s * c**3 * z / (np.pi * (1.0 + (c * z) ** 2) ** 2))
    for name, got, ref in zip(("g", "g'", "g''"), cost.evaluate(z), want):
        assert np.array_equal(got, ref), name


def test_stacked_prefixes_are_each_rows_own():
    # the spread cost's constant prefixes are set from its scalar fields, and
    # a stack takes each row's from that row's cost
    stacked = stack_costs(STACKED_SPREADS)
    prefixes = [f.name for f in dataclasses.fields(SmoothedSpreadCost) if not f.init]
    assert len(prefixes) == 3
    for name in prefixes:
        column = getattr(stacked, name)
        assert column.shape == (len(STACKED_SPREADS), 1)
        assert column[:, 0].tolist() == [getattr(c, name) for c in STACKED_SPREADS], name


def test_stack_costs_rejects_mixed_or_table_costs():
    assert stack_costs([_tanh_table()]) == _tanh_table()  # one cost stacks alone
    for costs in ([LinearCost(0.01), SmoothedSpreadCost(0.01, 0.0, 100.0)],
                  [_tanh_table(), _tanh_table()]):
        with pytest.raises(ValueError, match="stack"):
            stack_costs(costs)


def _stacked_and_per_row(costs, n, s, start=None):
    """Roots and sweeps of one call on the stack and of one call per row."""
    eps = np.array([certify_cost(c, (-3.0, 3.0)).eps_floor for c in costs])
    swept, per_row = [], []
    whole = aggregate_speed_many(stack_costs(costs), n, s, eps[:, None], start, swept)
    rows = np.array([aggregate_speed_many(c, n, s[b], eps[b],
                                          None if start is None else start[b], per_row)
                     for b, c in enumerate(costs)])
    return whole, rows, swept, per_row


def test_stacked_roots_equal_per_row_roots():
    # the far-start root of row 0 takes its rtsafe sweeps inside a stack whose
    # other rows are solved sooner; each row keeps its own root, bit for bit,
    # and the stack takes as many sweeps as its slowest row
    s = np.random.default_rng(11).uniform(-0.03, 0.03, (len(STACKED_SPREADS), 64))
    s[0, 0], s[:, 1] = -0.022, 0.0
    start = np.zeros_like(s)
    start[0, 0] = -1.0  # beyond the bracket: clipped to its end
    for begin in (None, start):
        whole, rows, swept, per_row = _stacked_and_per_row(STACKED_SPREADS, 7, s, begin)
        assert np.array_equal(whole, rows)
        assert swept == [max(per_row)] and max(per_row) > 0


def test_stacked_linear_roots_are_exact():
    costs = (LinearCost(0.01), LinearCost(0.013), LinearCost(0.0071))
    s = np.random.default_rng(12).uniform(-1.0, 1.0, (3, 50))
    whole, rows, swept, per_row = _stacked_and_per_row(costs, 4, s)
    assert np.array_equal(whole, rows)
    assert np.array_equal(whole, s / (5 * np.array([0.01, 0.013, 0.0071]))[:, None])
    assert swept == [0] and per_row == [0, 0, 0]


def test_stacked_roots_reject_non_finite_start():
    s = np.full((len(STACKED_SPREADS), 3), 0.01)
    start = np.zeros_like(s)
    start[2, 1] = np.nan
    with pytest.raises(SpeedSolverError, match="start must be finite"):
        _stacked_and_per_row(STACKED_SPREADS, 2, s, start)


def test_aggregate_speed_monotone_in_gradient():
    cost = SmoothedSpreadCost(0.02, 0.001, 50.0)
    cert = certify_cost(cost, (-50.0, 50.0))
    s_values = np.sort(np.random.default_rng(5).uniform(-1.0, 1.0, 64))
    roots = aggregate_speed_many(cost, 4, s_values, cert.eps_floor)
    assert np.all(np.diff(roots) > 0)
    assert np.all(np.sign(roots) == np.sign(s_values))


# ---------------------------------------------------------------------------
# player speeds
# ---------------------------------------------------------------------------


def _reference_fields(game, eps, grads, start):
    """The fields from ``aggregate_speed_many`` and separate value and slope
    calls at its root: what ``equilibrium_fields`` must give bit for bit."""
    eff = game.market.lam * grads
    z = aggregate_speed_many(game.cost, game.n_players, eff.sum(axis=0), eps, start)
    g, gp = game.cost.value(z), game.cost.slope(z)
    speeds = (eff - g) / gp
    source = z * eff - speeds * g
    alphas = np.array([pl.utility.alpha for pl in game.players])
    if np.any(alphas != 0.0):
        shape = (-1,) + (1,) * (grads.ndim - 1)
        source = source - 0.5 * game.market.sigma**2 * alphas.reshape(shape) * grads**2
    return speeds, z, source


_CALL = SmoothedCall(100.0, 10.0, 0.05)
_FIELD_COSTS = {"linear": LinearCost(0.01), "spread": SmoothedSpreadCost(0.01, 0.002, 100.0),
                "table": _tanh_table(), "cara_pair": SmoothedSpreadCost(0.01, 0.002, 37.3)}


@pytest.mark.parametrize("case,n", [(c, n) for c in ("linear", "spread", "table") for n in (1, 3)]
                         + [("cara_pair", 2)])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_equilibrium_fields_match_the_reference(case, n, warm):
    cost = _FIELD_COSTS[case]
    if case == "cara_pair":  # a call holder and its writer
        players = (PlayerSpec(CARA(0.5), _CALL), PlayerSpec(CARA(0.5), Negated(_CALL)))
    else:
        players = tuple(PlayerSpec(RiskNeutral(), _CALL) for _ in range(n))
    game = GameSpec(MarketParams(1.0, 0.01, 1.0, 100.0), cost, players)
    domain = cost.domain if isinstance(cost, TableCost) else (-3.0, 3.0)
    eps = certify_cost(cost, domain).eps_floor
    rng = np.random.default_rng(len(case) + 10 * n)
    grads = rng.uniform(-1.0, 1.0, (game.n_players, 7, 33))
    grads[:, 0] = 0.0
    start = rng.uniform(-0.5, 0.5, (7, 33)) if warm else None
    got = equilibrium_fields(game, eps, grads, start)
    want = _reference_fields(game, eps, grads, start)
    for name, a, b in zip(("speeds", "z*", "source"), got, want):
        assert np.array_equal(a, b), name


class _CountedSpread(SmoothedSpreadCost):
    """A spread cost that logs each evaluation by the shape it is given,
    and each lone value, slope or curvature call by name."""

    def evaluate(self, z):
        self.log.append(np.shape(z))
        return super().evaluate(z)

    def value(self, z):
        self.log.append("value")
        return super().value(z)

    def slope(self, z):
        self.log.append("slope")
        return super().slope(z)

    def curvature(self, z):
        self.log.append("curvature")
        return super().curvature(z)


def test_the_root_evaluates_the_cost_once_per_sweep():
    # one evaluation for both bracket ends, one per Newton sweep and none
    # after the root: sweeps + 2 on the Newton path, from a cold start and
    # from a start at the root (no sweep)
    cost = _CountedSpread(0.01, 0.002, 100.0)
    object.__setattr__(cost, "log", [])
    eps = certify_cost(cost, (-3.0, 3.0)).eps_floor
    game = GameSpec(MarketParams(1.0, 0.01, 1.0, 100.0), cost,
                    tuple(PlayerSpec(RiskNeutral(), _CALL) for _ in range(3)))
    grads = np.random.default_rng(8).uniform(-1.0, 1.0, (3, 5, 21))
    sweeps, start = [], None
    for _ in range(2):
        object.__setattr__(cost, "log", [])
        _, start, _ = equilibrium_fields(game, eps, grads, start, sweeps)
        assert cost.log == [(2, 5, 21)] + [(5, 21)] * (sweeps[-1] + 1)
        assert len(cost.log) == sweeps[-1] + 2
    assert sweeps[0] > 0 and sweeps[1] == 0


def test_player_speeds_two_player_linear():
    cost = LinearCost(0.01)
    grads = np.array([0.01, -0.01])
    speeds, z = _speeds_and_root(cost, grads, 0.0099)
    assert z == 0.0
    assert speeds == pytest.approx([1.0, -1.0], abs=1e-12)


def test_player_speeds_zero_gradients():
    speeds, _ = _speeds_and_root(LinearCost(0.01), np.zeros(4), 0.0099)
    assert np.all(speeds == 0.0)


def test_single_player_speed_equals_aggregate():
    cost = LinearCost(0.01)
    speeds, z = _speeds_and_root(cost, np.array([0.01]), 0.0099)
    assert speeds[0] == pytest.approx(z, abs=1e-12)
    assert z == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

spread_strategy = st.builds(
    SmoothedSpreadCost,
    kappa=st.floats(1e-3, 0.1),
    spread=st.floats(0.0, 0.005),
    sharpness=st.floats(1.0, 200.0),
)
cost_strategy = st.one_of(st.builds(LinearCost, kappa=st.floats(1e-3, 0.1)), spread_strategy)


def test_root_consistency_thousand_draws():
    # 1000 random (cost, N, S) triples: player speeds re-sum to the root
    rng = np.random.default_rng(2718)
    costs = [LinearCost(float(k)) for k in rng.uniform(1e-3, 0.1, 10)]
    costs += [
        SmoothedSpreadCost(float(k), float(s), float(c))
        for k, s, c in zip(rng.uniform(1e-3, 0.1, 10), rng.uniform(0.0, 0.005, 10),
                           rng.uniform(1.0, 200.0, 10))
    ]
    certs = {id(c): certify_cost(c, (-200.0, 200.0)) for c in costs}
    for _ in range(50):
        for cost in costs:
            n = int(rng.integers(1, 11))
            grads = rng.uniform(-1.0 / n, 1.0 / n, n)
            speeds, z = _speeds_and_root(cost, grads, certs[id(cost)].eps_floor)
            assert abs(float(speeds.sum()) - z) <= n * ROOT_TOL


@settings(max_examples=150, deadline=None)
@given(cost=cost_strategy, n=st.integers(1, 10), data=st.data())
def test_root_consistency_property(cost, n, data):
    grads = np.array(
        data.draw(st.lists(st.floats(-0.1, 0.1), min_size=n, max_size=n))
    )
    cert = certify_cost(cost, (-200.0, 200.0))
    speeds, z = _speeds_and_root(cost, grads, cert.eps_floor)
    assert abs(speeds.sum() - z) <= n * ROOT_TOL


@settings(max_examples=150, deadline=None)
@given(cost=cost_strategy, n=st.integers(1, 10), data=st.data())
def test_speed_bound_property(cost, n, data):
    # Lemma-style bound: effective gradients capped by lam * h keep every
    # player's speed within N (lam / eps) h
    lam, h = 0.01, 1.0
    grads = lam * np.array(
        data.draw(st.lists(st.floats(-h, h), min_size=n, max_size=n))
    )
    cert = certify_cost(cost, (-200.0, 200.0))
    speeds, z = _speeds_and_root(cost, grads, cert.eps_floor)
    bound = n * (lam / cert.eps_floor) * h
    assert np.all(np.abs(speeds) <= bound + ROOT_TOL)


@settings(max_examples=100, deadline=None)
@given(
    kappa=st.floats(1e-3, 0.1),
    n=st.integers(1, 10),
    s=st.floats(-1.0, 1.0),
)
def test_linear_closed_form_property(kappa, n, s):
    got = aggregate_speed_many(LinearCost(kappa), n, [s], 0.99 * kappa)[0]
    assert got == pytest.approx(s / ((n + 1) * kappa), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(cost=cost_strategy, n=st.integers(1, 10), s=st.floats(-1.0, 1.0))
def test_sign_property(cost, n, s):
    cert = certify_cost(cost, (-200.0, 200.0))
    z = aggregate_speed_many(cost, n, [s], cert.eps_floor)[0]
    if s == 0.0:
        assert z == 0.0
    else:
        assert z * s >= 0.0


@settings(max_examples=100, deadline=None)
@given(cost=st.one_of(spread_strategy, st.just(_tanh_table())), n=st.integers(1, 10),
       data=st.data())
def test_warm_start_reaches_the_cold_root(cost, n, data):
    # Newton from a start inside the bracket, outside it or at the root it
    # finds from 0: the root passes the residual test within 1e-12 of the
    # cold one, and a start at the cold root returns it bit for bit
    if isinstance(cost, TableCost):
        scale, cert = 0.02, certify_cost(cost, cost.domain)
    else:
        scale, cert = 1.0, certify_cost(cost, (-200.0, 200.0))
    m = data.draw(st.integers(1, 8))
    floats = st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)
    s = scale * np.array(data.draw(floats))
    cold = aggregate_speed_many(cost, n, s, cert.eps_floor)
    # offsets up to three bracket half-widths, plus 0.1, from the cold root
    half = np.abs(s) / ((n + 1) * cert.eps_floor) + 0.1
    start = cold + 3.0 * half * np.array(data.draw(floats))
    warm = aggregate_speed_many(cost, n, s, cert.eps_floor, start=start)
    phi = n * cost.value(warm) + warm * cost.slope(warm) - s
    assert np.all(np.abs(phi) <= n * cert.eps_floor * ROOT_TOL)
    assert np.all(np.abs(warm - cold) <= 1e-12)
    assert np.array_equal(aggregate_speed_many(cost, n, s, cert.eps_floor, start=cold), cold)
