import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illiq import (
    CARA,
    ConfigError,
    GridPayoff,
    GridSpec,
    LinearCost,
    MarketParams,
    Negated,
    RiskNeutral,
    Scaled,
    SmoothedCall,
    SmoothedDigital,
    SmoothedSpreadCost,
    SumPayoff,
    ValidationError,
    load_config,
    load_game,
    load_grid,
)
from illiq.model import MAX_QUAD_NODES, Payoff, game_to_dict

BASE_CONFIG = {
    "market": {"sigma": 1.0, "lambda": 0.01, "T": 1.0, "p0": 100.0},
    "cost": {"kind": "linear", "kappa": 0.01},
    "players": [
        {"utility": {"kind": "risk_neutral"}, "payoff": {"kind": "smoothed_call", "K": 100.0}}
    ],
}


def _config(**overrides):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc.update(overrides)
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# load_game
# ---------------------------------------------------------------------------


def test_load_game_single_risk_neutral_call():
    game = load_game(_config())
    assert game.n_players == 1
    assert game.market.sigma == 1.0
    assert game.market.lam == 0.01
    assert game.cost.kappa == 0.01
    assert isinstance(game.players[0].utility, RiskNeutral)
    assert isinstance(game.players[0].endowment, SmoothedCall)


def test_load_game_rejects_zero_sigma():
    bad = _config(market={"sigma": 0, "lambda": 0.01, "T": 1.0, "p0": 100.0})
    with pytest.raises(ValidationError, match="sigma must be > 0"):
        load_game(bad)


def test_load_game_two_cara_players():
    players = [
        {"utility": {"kind": "cara", "alpha": 0.01},
         "payoff": {"kind": "smoothed_call", "K": 100.0}},
        {"utility": {"kind": "cara", "alpha": 0.01},
         "payoff": {"kind": "negated", "inner": {"kind": "smoothed_call", "K": 100.0}}},
    ]
    game = load_game(_config(
        market={"sigma": 2.0, "lambda": 0.01, "T": 1.0, "p0": 100.0},
        players=players,
    ))
    assert game.n_players == 2
    assert all(isinstance(pl.utility, CARA) for pl in game.players)
    assert game.players[0].utility.alpha == 0.01
    # the risk-aversion vector is built once, read-only, for every caller
    assert game.alphas is game.alphas and not game.alphas.flags.writeable
    assert game.alphas.tolist() == [0.01, 0.01]


def test_load_game_rejects_unknown_keys():
    doc = json.loads(_config())
    doc["market"]["drift"] = 0.1
    with pytest.raises(ConfigError, match="unknown key"):
        load_game(json.dumps(doc))
    doc = json.loads(_config())
    doc["extra"] = {}
    with pytest.raises(ConfigError, match="unknown key"):
        load_game(json.dumps(doc))


_CALL = {"kind": "smoothed_call", "K": 100.0}


@pytest.mark.parametrize("section, obj", [
    ("cost", {"kind": "linear", "kappa": 0.01, "s": 0.5, "C": 3}),
    ("cost", {"kind": "custom_table", "table": {"z": [-1, 0, 1, 2], "g": [-1, 0, 1, 2]},
              "kappa": 0.01}),
    ("payoff", {"kind": "smoothed_digital", "K": 100.0, "cap": 5}),
    ("payoff", {"kind": "negated", "inner": _CALL, "factor": 2.0}),
    ("utility", {"kind": "risk_neutral", "alpha": 0.1}),
], ids=["linear+spread", "table+kappa", "digital+cap", "negated+factor", "rn+alpha"])
def test_load_game_rejects_keys_of_another_kind(section, obj):
    # each key is valid for some kind of the section, but not for this one
    if section == "cost":
        text = _config(cost=obj)
    else:
        player = {"utility": {"kind": "risk_neutral"}, "payoff": _CALL, section: obj}
        text = _config(players=[player])
    with pytest.raises(ConfigError, match=f"unknown key.* in {section} of kind"):
        load_game(text)


@pytest.mark.parametrize("overrides, key", [
    ({"market": {"sigma": "abc", "lambda": 0.01, "T": 1.0, "p0": 100.0}}, "market.sigma"),
    ({"cost": {"kind": "linear", "kappa": None}}, "cost.kappa"),
    ({"cost": {"kind": "custom_table", "table": {"z": [-1, 0, "x", 2], "g": [0, 0, 0, 0]}}},
     "cost.table.z"),
    ({"players": [{"utility": {"kind": "cara", "alpha": [1]}, "payoff": _CALL}]}, "utility.alpha"),
    ({"players": [{"utility": {"kind": "risk_neutral"},
                   "payoff": {"kind": "smoothed_call", "K": 100.0, "cap": {}}}]}, "payoff.cap"),
    ({"grid": {"n_p": "abc"}}, "grid.n_p"),
    ({"grid": {"p_min": "low"}}, "grid.p_min"),
    ({"market": {"sigma": True, "lambda": 0.01, "T": 1.0, "p0": 100.0}}, "market.sigma"),
    ({"grid": {"n_p": 81.9}}, "grid.n_p"),
    ({"grid": {"quad_nodes": False}}, "grid.quad_nodes"),
    ({"cost": {"kind": "custom_table", "table": {"z": [-1, 0, True, 2], "g": [0, 0, 0, 0]}}},
     "cost.table.z"),
], ids=["sigma", "kappa", "table", "alpha", "cap", "n_p", "p_min", "bool_sigma",
        "fractional_n_p", "bool_quad_nodes", "bool_table"])
def test_load_config_non_numeric_value_names_key(overrides, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_config(_config(**overrides))


@pytest.mark.parametrize("overrides, key", [
    ({"cost": {"kind": "custom_table", "table": {"z": "0123", "g": [0, 0, 0, 0]}}},
     "cost.table.z"),
    ({"players": [{"utility": {"kind": "risk_neutral"},
                   "payoff": {"kind": "custom_grid", "grid": {"p": "1234", "values": "5678"}}}]},
     "payoff.grid.p"),
], ids=["table", "grid"])
def test_load_game_rejects_string_as_sample_list(overrides, key):
    # a string is iterable, but its characters are not samples
    with pytest.raises(ConfigError, match=re.escape(key) + " must be a list"):
        load_game(_config(**overrides))


def test_load_config_casts_as_before():
    # numeric strings and integers parse to the same floats and ints as before
    text = _config(market={"sigma": "1", "lambda": 0.01, "T": 1, "p0": 100},
                   grid={"n_p": 201.0, "n_t": "300"})
    game, grid = load_config(text)
    assert game.market == MarketParams(1.0, 0.01, 1.0, 100.0)
    assert (grid.n_p, grid.n_t) == (201, 300)
    assert isinstance(grid.n_p, int) and isinstance(grid.n_t, int)


def test_load_game_rejects_malformed_text():
    with pytest.raises(ConfigError, match="malformed"):
        load_game("{not json")


def test_load_game_is_deterministic():
    text = _config()
    assert load_game(text) == load_game(text)


def test_load_game_fills_market_scaled_payoff_defaults():
    game = load_game(_config())
    h = game.players[0].endowment
    # defaults: cap = 10 sigma sqrt(T), width = 0.05 sigma sqrt(T)
    assert h.cap == pytest.approx(10.0)
    assert h.width == pytest.approx(0.05)


# configs drawn over every cost, payoff (nested to depth 2) and utility kind
_finite_floats = st.floats(-1e3, 1e3, allow_nan=False)
_positive = st.floats(1e-3, 1e3)
_samples = st.integers(4, 7).flatmap(lambda n: st.tuples(
    st.lists(_finite_floats, min_size=n, max_size=n, unique=True).map(sorted),
    st.lists(_finite_floats, min_size=n, max_size=n)))
_cost_docs = st.one_of(
    st.fixed_dictionaries({"kind": st.just("linear"), "kappa": _positive}),
    st.fixed_dictionaries({"kind": st.just("smoothed_spread"), "kappa": _positive,
                           "s": st.floats(0.0, 1.0), "C": _positive}),
    st.tuples(st.lists(st.floats(-10.0, -1e-3), min_size=1, max_size=3, unique=True),
              st.lists(st.floats(1e-3, 10.0), min_size=2, max_size=3, unique=True),
              st.floats(1e-3, 1.0)).map(lambda t: {
                  "kind": "custom_table",
                  "table": {"z": sorted(t[0]) + [0.0] + sorted(t[1]),
                            "g": [t[2] * z for z in sorted(t[0])] + [0.0]
                            + [t[2] * z for z in sorted(t[1])]}}),
)
_leaf_payoffs = st.one_of(
    st.fixed_dictionaries({"kind": st.just("smoothed_call"), "K": _finite_floats},
                          optional={"cap": _positive, "width": _positive}),
    st.fixed_dictionaries({"kind": st.just("smoothed_digital"), "K": _finite_floats},
                          optional={"width": _positive}),
    _samples.map(lambda pv: {"kind": "custom_grid", "grid": {"p": pv[0], "values": pv[1]}}),
)


def _wrapped(inner):
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just("scaled"), "factor": _finite_floats,
                               "inner": inner}),
        st.fixed_dictionaries({"kind": st.just("negated"), "inner": inner}),
        st.fixed_dictionaries({"kind": st.just("sum"),
                               "terms": st.lists(inner, min_size=1, max_size=3)}),
    )


_payoff_docs = st.one_of(_leaf_payoffs, _wrapped(st.one_of(_leaf_payoffs, _wrapped(_leaf_payoffs))))
_utility_docs = st.one_of(st.just({"kind": "risk_neutral"}),
                          st.fixed_dictionaries({"kind": st.just("cara"), "alpha": _positive}))
_game_docs = st.fixed_dictionaries({
    "market": st.fixed_dictionaries({"sigma": _positive, "lambda": _positive,
                                     "T": _positive, "p0": _finite_floats}),
    "cost": _cost_docs,
    "players": st.lists(st.fixed_dictionaries({"utility": _utility_docs, "payoff": _payoff_docs}),
                        min_size=1, max_size=3),
})


@settings(max_examples=150, deadline=None)
@given(_game_docs)
def test_game_to_dict_loads_back_to_the_same_game(doc):
    # every config_hash and game_hash digests game_to_dict, so it must name
    # the game that load_game built, defaulted cap and width included
    game = load_game(json.dumps(doc))
    assert load_game(json.dumps(game_to_dict(game))) == game


def test_game_to_dict_rejects_an_object_of_no_config_kind():
    class Ramp(Payoff):  # a user's own payoff, which no config kind names
        pass

    game = load_game(_config())
    game = replace(game, players=(replace(game.players[0], endowment=Ramp()),))
    with pytest.raises(TypeError, match="Ramp"):
        game_to_dict(game)


def test_load_grid_defaults_cover_six_sigmas():
    game = load_game(_config())
    grid = load_grid(_config(), game.market)
    assert grid.p_min == pytest.approx(94.0)
    assert grid.p_max == pytest.approx(106.0)
    assert grid.n_p % 2 == 1


@pytest.mark.parametrize("partial", [{"n_t": 300}, {"n_p": 201, "quad_nodes": 64}])
def test_load_grid_partial_section_overrides_market_defaults(partial):
    market = {"sigma": 2.0, "lambda": 0.01, "T": 0.5, "p0": 50.0}
    game = load_game(_config(market=market))
    grid = load_grid(_config(market=market, grid=partial), game.market)
    assert grid == replace(GridSpec.for_market(game.market), **partial)


def test_load_config_rejects_undersized_grid():
    bad = _config(grid={"p_min": 98.0, "p_max": 102.0, "n_p": 101, "n_t": 100})
    with pytest.raises(ValidationError, match="6 sigma"):
        load_config(bad)


# ---------------------------------------------------------------------------
# payoff values and slopes
# ---------------------------------------------------------------------------


def test_call_intrinsic_value_below_cap():
    h = SmoothedCall(strike=100.0, cap=50.0, width=1e-9)
    assert h.value(110.0) == pytest.approx(10.0, abs=1e-8)


def test_digital_deep_out_of_the_money():
    h = SmoothedDigital(strike=100.0, width=1e-9)
    assert h.value(90.0) == pytest.approx(0.0, abs=1e-12)


def test_negated_call_value():
    h = Negated(SmoothedCall(strike=100.0, cap=50.0, width=1e-9))
    assert h.value(110.0) == pytest.approx(-10.0, abs=1e-8)


def test_call_slope_plateaus():
    h = SmoothedCall(strike=100.0, cap=50.0, width=0.05)
    assert h.slope(120.0) == pytest.approx(1.0, abs=1e-12)
    assert h.slope(80.0) == pytest.approx(0.0, abs=1e-12)


def test_digital_slope_peak_is_quarter_width():
    # logistic step: slope h(1-h)/w peaks at the strike with value 1/(4w),
    # confirmed against a central difference
    w = 0.05
    h = SmoothedDigital(strike=100.0, width=w)
    peak = h.slope(100.0)
    assert peak == pytest.approx(1.0 / (4.0 * w), rel=1e-12)
    step = 1e-6
    fd = (h.value(100.0 + step) - h.value(100.0 - step)) / (2 * step)
    assert fd == pytest.approx(peak, rel=1e-7)


def test_sup_slope_call_tends_to_one():
    assert SmoothedCall(100.0, 50.0, 1e-6).slope_bound == pytest.approx(1.0)


def test_sup_slope_sum_triangle():
    a = SmoothedCall(100.0, 10.0, 0.05)
    b = SmoothedCall(105.0, 10.0, 0.05)
    s = SumPayoff((a, b))
    assert s.slope_bound <= 2.0
    assert s.slope_bound == pytest.approx(a.slope_bound + b.slope_bound)


def test_sup_slope_digital():
    assert SmoothedDigital(100.0, 0.05).slope_bound == pytest.approx(5.0)


def _builtin_payoffs():
    call = SmoothedCall(100.0, 10.0, 0.05)
    dig = SmoothedDigital(100.0, 0.05)
    pgrid = np.linspace(94.0, 106.0, 25)
    custom = GridPayoff(tuple(pgrid), tuple(np.tanh((pgrid - 100.0) / 2.0)))
    return [
        call,
        dig,
        Scaled(call, -2.5),
        Negated(dig),
        SumPayoff((call, Negated(dig))),
        custom,
    ]


def test_payoff_bounds_hold_on_random_prices():
    rng = np.random.default_rng(42)
    ps = rng.uniform(94.0, 106.0, 1000)
    for h in _builtin_payoffs():
        vals = h.value(ps)
        slopes = h.slope(ps)
        assert np.all(np.abs(vals) <= h.bound + 1e-12)
        assert np.all(np.abs(slopes) <= h.slope_bound + 1e-12)


def test_payoff_slope_matches_central_difference():
    rng = np.random.default_rng(7)
    ps = rng.uniform(94.0, 106.0, 200)
    step = 1e-5 * 12.0
    for h in _builtin_payoffs():
        fd = (h.value(ps + step) - h.value(ps - step)) / (2 * step)
        slopes = h.slope(ps)
        # relative tolerance 1e-4 with a small absolute floor where the
        # slope underflows the difference quotient entirely
        assert np.all(np.abs(fd - slopes) <= 1e-4 * (1e-6 + np.abs(slopes)))


def test_grid_payoff_flattens_continuously():
    pgrid = np.linspace(95.0, 105.0, 21)
    h = GridPayoff(tuple(pgrid), tuple((pgrid - 100.0) ** 2 / 10.0))
    assert h.slope(94.0) == 0.0
    assert h.slope(120.0) == 0.0
    assert h.value(50.0) == h.value(94.0)
    # slope approaches zero continuously at the padded knot
    pad_edge = 94.5
    assert abs(h.slope(pad_edge + 1e-9) - h.slope(pad_edge - 1e-9)) < 1e-6


def test_payoffs_vectorized():
    h = SmoothedCall(100.0, 10.0, 0.05)
    ps = np.array([90.0, 100.0, 110.0])
    assert h.value(ps).shape == (3,)
    assert h.slope(ps).shape == (3,)


# ---------------------------------------------------------------------------
# type invariants
# ---------------------------------------------------------------------------


def test_market_validation():
    with pytest.raises(ValidationError, match="lambda must be > 0"):
        MarketParams(1.0, 0.0, 1.0, 100.0)
    with pytest.raises(ValidationError, match="T must be > 0"):
        MarketParams(1.0, 0.01, -1.0, 100.0)
    with pytest.raises(ValidationError, match="p0 must be finite"):
        MarketParams(1.0, 0.01, 1.0, float("nan"))


_NON_FINITE_FIELDS = {
    "sigma": lambda v: MarketParams(v, 0.01, 1.0, 100.0),
    "lambda": lambda v: MarketParams(1.0, v, 1.0, 100.0),
    "T": lambda v: MarketParams(1.0, 0.01, v, 100.0),
    "p0": lambda v: MarketParams(1.0, 0.01, 1.0, v),
    "kappa": lambda v: LinearCost(v),
    "s": lambda v: SmoothedSpreadCost(0.01, v, 100.0),
    "C": lambda v: SmoothedSpreadCost(0.01, 0.001, v),
    "K": lambda v: SmoothedCall(v, 10.0, 0.05),
    "cap": lambda v: SmoothedCall(100.0, v, 0.05),
    "width": lambda v: SmoothedDigital(100.0, v),
    "factor": lambda v: Scaled(SmoothedCall(100.0, 10.0, 0.05), v),
    "alpha": lambda v: CARA(v),
    "p_min": lambda v: GridSpec(v, 106.0),
    "p_max": lambda v: GridSpec(94.0, v),
}


@pytest.mark.parametrize("name", list(_NON_FINITE_FIELDS))
def test_non_finite_field_is_named_before_its_range(name):
    # a NaN fails every range comparison, so it must not be reported as out of range
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match=f"^{re.escape(name)} must be finite, got {value}$"):
            _NON_FINITE_FIELDS[name](value)


def test_cara_requires_positive_alpha():
    with pytest.raises(ValidationError, match="alpha must be > 0"):
        CARA(alpha=0.0)


def test_grid_spec_validation(market):
    with pytest.raises(ValidationError, match="n_p must be odd"):
        GridSpec(94.0, 106.0, n_p=100, n_t=10)
    with pytest.raises(ValidationError, match="p_min must be < p_max"):
        GridSpec(106.0, 94.0, n_p=101, n_t=10)
    grid = GridSpec(94.0, 106.0, n_p=101, n_t=10)
    grid.validate_for(market)
    GridSpec(94.0, 106.0, n_p=101, n_t=10, quad_nodes=MAX_QUAD_NODES)
    with pytest.raises(ValidationError, match=f"quad_nodes must be <= {MAX_QUAD_NODES}"):
        GridSpec(94.0, 106.0, n_p=101, n_t=10, quad_nodes=MAX_QUAD_NODES + 1)
    off_center = GridSpec(101.0, 120.0, n_p=101, n_t=10)
    with pytest.raises(ValidationError, match="contain p0"):
        off_center.validate_for(market)
