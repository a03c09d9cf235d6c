"""Problem definitions: market parameters, liquidity cost curves, terminal
payoffs, player preferences, grids and JSON configuration loading.  The tables
``_COSTS``, ``_PAYOFFS``, ``_UTILITIES`` and ``_MARKET`` are the config schema:
``load_game`` reads a config through them and ``game_to_dict`` writes one back.

Everything in this module is an immutable value object.  Construction
validates the invariants that the solvers rely on (positive volatility,
bounded payoff slopes, marginal trading costs that increase), so downstream
code can assume a well-formed problem instance.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import namedtuple
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from typing import ClassVar
import numpy as np

__all__ = [
    "ConfigError",
    "ValidationError",
    "MarketParams",
    "CostFunction",
    "LinearCost",
    "SmoothedSpreadCost",
    "TableCost",
    "stack_costs",
    "Payoff",
    "SmoothedCall",
    "SmoothedDigital",
    "Scaled",
    "Negated",
    "SumPayoff",
    "GridPayoff",
    "RiskNeutral",
    "CARA",
    "PlayerSpec",
    "GameSpec",
    "GridSpec",
    "load_game",
    "load_grid",
    "load_config",
    "game_to_dict",
    "grid_to_dict",
]


class ConfigError(ValueError):
    """Raised when configuration text cannot be parsed against the schema."""


class ValidationError(ValueError):
    """Raised when a parsed object violates a model invariant."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _pchip(x, y):
    """Monotone cubic interpolant of samples (x, y); ``scipy.interpolate`` is
    imported only by the table cost and the gridded payoff that need it."""
    from scipy.interpolate import PchipInterpolator

    return PchipInterpolator(x, y)


def _finite(name: str, x) -> bool:
    """True for a finite number ``x``, else a ValidationError naming ``name``:
    the check that comes before a range check on ``x``."""
    _require(isinstance(x, (int, float)) and math.isfinite(x), f"{name} must be finite, got {x}")
    return True


# ---------------------------------------------------------------------------
# market
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarketParams:
    """Volatility, permanent impact per share, horizon and initial price."""

    sigma: float
    lam: float
    maturity: float
    p0: float

    def __post_init__(self):
        _require(_finite("sigma", self.sigma) and self.sigma > 0, "sigma must be > 0")
        _require(_finite("lambda", self.lam) and self.lam > 0, "lambda must be > 0")
        _require(_finite("T", self.maturity) and self.maturity > 0, "T must be > 0 and finite")
        _finite("p0", self.p0)

    @property
    def scale(self) -> float:
        """Terminal price dispersion sigma * sqrt(T), the natural price unit."""
        return self.sigma * math.sqrt(self.maturity)


# ---------------------------------------------------------------------------
# liquidity cost functions
# ---------------------------------------------------------------------------


class CostFunction:
    """Liquidity premium g applied to the aggregate trading speed.

    Subclasses provide ``value`` (g), ``slope`` (g') and ``curvature`` (g''),
    all vectorized.  ``evaluate`` returns all three from one call, bit for bit
    as the three methods: the speed root evaluates the cost once per Newton
    sweep through it (and once for both bracket ends), and the equilibrium
    fields reuse g(z*) and g'(z*) from the root's last sweep.  A cost whose
    three formulas share work (the smoothed spread's C z and 1 + (C z)^2)
    overrides it; the others fall back to the three methods.
    ``SLOPE_FLOOR``, declared per kind, is the floor the certification scan
    checks g' against (0 where g' >= kappa > 0 holds by construction), not
    the measured minimum.  ``domain`` is the interval where g is defined,
    unbounded for analytic costs.
    """

    SLOPE_FLOOR: ClassVar[float] = 0.0
    domain = (-math.inf, math.inf)

    def value(self, z):
        raise NotImplementedError

    def slope(self, z):
        raise NotImplementedError

    def curvature(self, z):
        raise NotImplementedError

    def evaluate(self, z):
        """(g, g', g'') at ``z``."""
        return self.value(z), self.slope(z), self.curvature(z)

    def exact_speed_root(self, n_players: int, s):
        """The root z of N g(z) + z g'(z) = s when it has a closed form, else None."""
        return None


@dataclass(frozen=True)
class LinearCost(CostFunction):
    """g(z) = kappa * z, the block-shaped book without a spread."""

    kappa: float

    def __post_init__(self):
        _require(_finite("kappa", self.kappa) and self.kappa > 0, "kappa must be > 0")

    def value(self, z):
        return self.kappa * np.asarray(z, dtype=float)

    def slope(self, z):
        return np.full_like(np.asarray(z, dtype=float), self.kappa)

    def curvature(self, z):
        return np.zeros_like(np.asarray(z, dtype=float))

    def exact_speed_root(self, n_players: int, s):
        # N kappa z + kappa z = s
        return s / ((n_players + 1) * self.kappa)


@dataclass(frozen=True)
class SmoothedSpreadCost(CostFunction):
    """g(z) = kappa*z + s*(2/pi)*arctan(C*z).

    Smooth stand-in for a half-spread s crossed whenever the net order flow
    changes sign; C controls how fast the spread term saturates.
    """

    kappa: float
    spread: float
    sharpness: float
    # the constant prefixes s 2/pi, 2 s C and -4 s C^3 of g, g' and g'', taken
    # once from the scalar fields: numpy's vectorized power can differ from
    # Python's C^3 in the last bit, and a stacked cost must not
    _arc_coef: float = dataclasses.field(init=False, repr=False, compare=False)
    _slope_coef: float = dataclasses.field(init=False, repr=False, compare=False)
    _curv_coef: float = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require(_finite("kappa", self.kappa) and self.kappa > 0, "kappa must be > 0")
        _require(_finite("s", self.spread) and self.spread >= 0, "s must be >= 0")
        _require(_finite("C", self.sharpness) and self.sharpness > 0, "C must be > 0")
        object.__setattr__(self, "_arc_coef", self.spread * (2.0 / np.pi))
        object.__setattr__(self, "_slope_coef", 2.0 * self.spread * self.sharpness)
        object.__setattr__(self, "_curv_coef", -4.0 * self.spread * self.sharpness**3)

    def _value(self, z, cz):
        return self.kappa * z + self._arc_coef * np.arctan(cz)

    def value(self, z):
        # g alone skips g' and g'': the Monte-Carlo step loop prices each step with it
        z = np.asarray(z, dtype=float)
        return self._value(z, self.sharpness * z)

    def slope(self, z):
        return self.evaluate(z)[1]

    def curvature(self, z):
        return self.evaluate(z)[2]

    def evaluate(self, z):
        z = np.asarray(z, dtype=float)
        cz = self.sharpness * z
        bell = 1.0 + cz**2
        return (self._value(z, cz), self.kappa + self._slope_coef / (np.pi * bell),
                self._curv_coef * z / (np.pi * bell**2))


@dataclass(frozen=True)
class TableCost(CostFunction):
    """Cost curve given as samples (z_k, g_k), monotone-cubic interpolated.

    Queries outside the sampled interval raise, since no admissibility
    statement can be made there.
    """

    SLOPE_FLOOR: ClassVar[float] = 1e-3

    z_values: tuple
    g_values: tuple

    def __post_init__(self):
        z = np.asarray(self.z_values, dtype=float)
        g = np.asarray(self.g_values, dtype=float)
        _require(z.ndim == 1 and z.size >= 4, "table needs at least 4 samples")
        _require(g.shape == z.shape, "table z and g lengths must match")
        _require(bool(np.all(np.diff(z) > 0)), "table z values must be strictly increasing")
        _require(z[0] < 0.0 < z[-1], "table must bracket z = 0")
        _require(np.all(np.isfinite(z)) and np.all(np.isfinite(g)), "table values must be finite")
        interp = _pchip(z, g)
        _require(abs(float(interp(0.0))) < 1e-12, "g(0) must be 0")
        object.__setattr__(self, "z_values", tuple(float(v) for v in z))
        object.__setattr__(self, "g_values", tuple(float(v) for v in g))

    @cached_property
    def _interp(self):
        return _pchip(np.asarray(self.z_values), np.asarray(self.g_values))

    @cached_property
    def _deriv(self):
        return self._interp.derivative()

    @cached_property
    def _deriv2(self):
        return self._interp.derivative(2)

    def _check_domain(self, z):
        z = np.asarray(z, dtype=float)
        if np.any(z < self.z_values[0]) or np.any(z > self.z_values[-1]):
            raise ValidationError(
                f"z outside table domain [{self.z_values[0]}, {self.z_values[-1]}]"
            )
        return z

    def value(self, z):
        return self._interp(self._check_domain(z))

    def slope(self, z):
        return self._deriv(self._check_domain(z))

    def curvature(self, z):
        return self._deriv2(self._check_domain(z))

    @property
    def domain(self) -> tuple:
        return (self.z_values[0], self.z_values[-1])


def stack_costs(costs) -> CostFunction:
    """One cost for a stack of games: the fields of the already-validated
    ``costs``, all linear or all smoothed-spread, as (B, 1) columns, so that
    one call on a (B, ...) array evaluates game b's cost on row b, bit for
    bit as that game's own cost would (the methods only multiply, add and
    divide the fields, and take their constant prefixes, such as the spread
    cost's -4 s C^3, from each cost's scalar ones).  A
    single cost is returned as it is, so any cost stacks alone."""
    costs = tuple(costs)
    if len(costs) == 1:
        return costs[0]
    kind = type(costs[0])
    _require(kind in (LinearCost, SmoothedSpreadCost) and all(type(c) is kind for c in costs),
             "only linear costs, or smoothed-spread costs, stack with one another")
    stacked = object.__new__(kind)
    for f in dataclasses.fields(kind):
        column = np.array([getattr(c, f.name) for c in costs], dtype=float)[:, None]
        object.__setattr__(stacked, f.name, column)
    return stacked


# ---------------------------------------------------------------------------
# payoffs
# ---------------------------------------------------------------------------


def _softplus(x, width):
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0) + width * np.log1p(np.exp(-np.abs(x) / width))


def _sigmoid(x):
    """Numerically safe logistic function; the exp argument is always <= 0."""
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class Payoff:
    """Bounded smooth terminal claim with a bounded slope.

    ``bound`` and ``slope_bound`` are certified: |value| <= bound and
    |slope| <= slope_bound hold for every price.
    """

    def value(self, p):
        raise NotImplementedError

    def slope(self, p):
        raise NotImplementedError

    @property
    def bound(self) -> float:
        raise NotImplementedError

    @property
    def slope_bound(self) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class SmoothedCall(Payoff):
    """Mollified capped call: a softplus ramp opening at the strike and a
    second one closing it ``cap`` above, so the payoff is bounded by ``cap``."""

    strike: float
    cap: float
    width: float

    def __post_init__(self):
        _finite("K", self.strike)
        _require(_finite("cap", self.cap) and self.cap > 0, "cap must be > 0")
        _require(_finite("width", self.width) and self.width > 0, "width must be > 0")

    def value(self, p):
        p = np.asarray(p, dtype=float)
        return _softplus(p - self.strike, self.width) - _softplus(p - self.strike - self.cap, self.width)

    def slope(self, p):
        p = np.asarray(p, dtype=float)
        return _sigmoid((p - self.strike) / self.width) - _sigmoid((p - self.strike - self.cap) / self.width)

    @property
    def bound(self) -> float:
        return self.cap

    @property
    def slope_bound(self) -> float:
        # max_p [sigmoid(x) - sigmoid(x - cap/width)] attained midway
        return float(math.tanh(self.cap / (4.0 * self.width)))


@dataclass(frozen=True)
class SmoothedDigital(Payoff):
    """Logistic step of the given width replacing the indicator at the strike."""

    strike: float
    width: float

    def __post_init__(self):
        _finite("K", self.strike)
        _require(_finite("width", self.width) and self.width > 0, "width must be > 0")

    def value(self, p):
        p = np.asarray(p, dtype=float)
        return _sigmoid((p - self.strike) / self.width)

    def slope(self, p):
        v = self.value(p)
        return v * (1.0 - v) / self.width

    @property
    def bound(self) -> float:
        return 1.0

    @property
    def slope_bound(self) -> float:
        return 1.0 / (4.0 * self.width)


@dataclass(frozen=True)
class Scaled(Payoff):
    inner: Payoff
    factor: float

    def __post_init__(self):
        _finite("factor", self.factor)

    def value(self, p):
        return self.factor * self.inner.value(p)

    def slope(self, p):
        return self.factor * self.inner.slope(p)

    @property
    def bound(self) -> float:
        return abs(self.factor) * self.inner.bound

    @property
    def slope_bound(self) -> float:
        return abs(self.factor) * self.inner.slope_bound


@dataclass(frozen=True)
class Negated(Payoff):
    """Exact sign flip, used for written (short) positions."""

    inner: Payoff

    def value(self, p):
        return -self.inner.value(p)

    def slope(self, p):
        return -self.inner.slope(p)

    @property
    def bound(self) -> float:
        return self.inner.bound

    @property
    def slope_bound(self) -> float:
        return self.inner.slope_bound


@dataclass(frozen=True)
class SumPayoff(Payoff):
    terms: tuple

    def __post_init__(self):
        _require(len(self.terms) >= 1, "sum needs at least one term")
        object.__setattr__(self, "terms", tuple(self.terms))

    def value(self, p):
        out = self.terms[0].value(p)
        for t in self.terms[1:]:
            out = out + t.value(p)
        return out

    def slope(self, p):
        out = self.terms[0].slope(p)
        for t in self.terms[1:]:
            out = out + t.slope(p)
        return out

    @property
    def bound(self) -> float:
        return sum(t.bound for t in self.terms)

    @property
    def slope_bound(self) -> float:
        return sum(t.slope_bound for t in self.terms)


@dataclass(frozen=True)
class GridPayoff(Payoff):
    """Payoff given by samples, monotone-cubic interpolated and held flat
    beyond the sampled prices (one padding knot each side keeps the slope
    continuous where the flat extension begins)."""

    p_values: tuple
    values: tuple

    def __post_init__(self):
        p = np.asarray(self.p_values, dtype=float)
        v = np.asarray(self.values, dtype=float)
        _require(p.ndim == 1 and p.size >= 4, "payoff grid needs at least 4 samples")
        _require(v.shape == p.shape, "payoff grid p and value lengths must match")
        _require(bool(np.all(np.diff(p) > 0)), "payoff grid prices must be strictly increasing")
        _require(np.all(np.isfinite(p)) and np.all(np.isfinite(v)), "payoff grid values must be finite")
        object.__setattr__(self, "p_values", tuple(float(x) for x in p))
        object.__setattr__(self, "values", tuple(float(x) for x in v))

    @cached_property
    def _aug(self):
        p = np.asarray(self.p_values)
        v = np.asarray(self.values)
        pad = float(np.median(np.diff(p)))
        p_aug = np.concatenate(([p[0] - pad], p, [p[-1] + pad]))
        v_aug = np.concatenate(([v[0]], v, [v[-1]]))
        interp = _pchip(p_aug, v_aug)
        return p_aug, interp, interp.derivative()

    def value(self, p):
        p_aug, interp, _ = self._aug
        q = np.clip(np.asarray(p, dtype=float), p_aug[0], p_aug[-1])
        return interp(q)

    def slope(self, p):
        p_aug, _, deriv = self._aug
        p = np.asarray(p, dtype=float)
        inside = (p > p_aug[0]) & (p < p_aug[-1])
        q = np.clip(p, p_aug[0], p_aug[-1])
        return np.where(inside, deriv(q), 0.0)

    @cached_property
    def _scan(self):
        p_aug, interp, deriv = self._aug
        qs = np.linspace(p_aug[0], p_aug[-1], max(2001, 20 * len(self.p_values)))
        return float(np.max(np.abs(interp(qs)))), float(np.max(np.abs(deriv(qs))))

    @property
    def bound(self) -> float:
        return max(self._scan[0], float(np.max(np.abs(self.values))))

    @property
    def slope_bound(self) -> float:
        # 1% headroom over the densely scanned interpolant slope
        return 1.01 * self._scan[1]


# ---------------------------------------------------------------------------
# preferences and the game
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RiskNeutral:
    """Linear utility u(z) = z, with zero risk aversion."""

    alpha: ClassVar[float] = 0.0

    def __call__(self, z):
        return z


@dataclass(frozen=True)
class CARA:
    """Exponential utility u(z) = -exp(-alpha z) with absolute risk aversion alpha."""

    alpha: float

    def __post_init__(self):
        _require(_finite("alpha", self.alpha) and self.alpha > 0, "alpha must be > 0")

    def __call__(self, z):
        return -np.exp(-self.alpha * z)


Utility = RiskNeutral | CARA


@dataclass(frozen=True)
class PlayerSpec:
    utility: Utility
    endowment: Payoff


@dataclass(frozen=True)
class GameSpec:
    """A complete problem instance: market, common cost curve and N players."""

    market: MarketParams
    cost: CostFunction
    players: tuple

    def __post_init__(self):
        _require(len(self.players) >= 1, "N must be >= 1")
        object.__setattr__(self, "players", tuple(self.players))

    @property
    def n_players(self) -> int:
        return len(self.players)

    @property
    def all_risk_neutral(self) -> bool:
        return all(isinstance(pl.utility, RiskNeutral) for pl in self.players)

    @cached_property
    def alphas(self) -> np.ndarray:
        """Risk-aversion vector, read-only and built once; zero entries mark
        risk-neutral players."""
        alphas = np.array([pl.utility.alpha for pl in self.players], dtype=float)
        alphas.setflags(write=False)
        return alphas

    def payoff_layer(self, prices) -> np.ndarray:
        """Every player's payoff at ``prices``, stacked: the terminal layer
        (N, *prices.shape) of every solver and of the simulated paths."""
        return np.array([np.asarray(pl.endowment.value(prices), dtype=float)
                         for pl in self.players])

    def max_payoff_slope(self) -> float:
        return max(pl.endowment.slope_bound for pl in self.players)


SPAN_SIGMAS = 6.0  # a grid reaches p0 +/- SPAN_SIGMAS sigma sqrt(T)
# numpy's hermgauss weights underflow to zero beyond this many nodes
MAX_QUAD_NODES = 370


@dataclass(frozen=True)
class GridSpec:
    """Uniform (time, price) lattice.  ``quad_nodes`` sizes the one
    Gauss-Hermite rule a lattice route still uses: the closed form of a
    Cole-Hopf exponent that spreads too widely for the spectral heat operator
    (``closedform.SPREAD_LIMIT``; a strongly risk-averse player)."""

    p_min: float
    p_max: float
    n_p: int = 401
    n_t: int = 2000
    quad_nodes: int = 128

    def __post_init__(self):
        _require(_finite("p_min", self.p_min) and _finite("p_max", self.p_max)
                 and self.p_min < self.p_max, "p_min must be < p_max")
        _require(self.n_p >= 3, "n_p must be >= 3")
        _require(self.n_p % 2 == 1, "n_p must be odd")
        _require(self.n_t >= 2, "n_t must be >= 2")
        _require(self.quad_nodes >= 8, "quad_nodes must be >= 8")
        _require(self.quad_nodes <= MAX_QUAD_NODES,
                 f"quad_nodes must be <= {MAX_QUAD_NODES}: Gauss-Hermite weights "
                 "underflow beyond it")

    def validate_for(self, market: MarketParams) -> None:
        _require(self.p_min < market.p0 < self.p_max, "grid must contain p0 strictly inside")
        span = SPAN_SIGMAS * market.scale
        _require(
            self.p_min <= market.p0 - span + 1e-12 and self.p_max >= market.p0 + span - 1e-12,
            f"grid must cover at least p0 +/- {SPAN_SIGMAS:g} sigma sqrt(T)",
        )

    @property
    def prices(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.n_p)

    def times(self, maturity: float) -> np.ndarray:
        return np.linspace(0.0, maturity, self.n_t)

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / (self.n_p - 1)

    @staticmethod
    def for_market(market: MarketParams, **sizes) -> "GridSpec":
        """The grid over p0 +/- ``SPAN_SIGMAS`` sigma sqrt(T), with the sizes
        (``n_p``, ``n_t``, ``quad_nodes``) given by keyword and the class's
        defaults for the rest."""
        span = SPAN_SIGMAS * market.scale
        return GridSpec(market.p0 - span, market.p0 + span, **sizes)


# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------

# A config key: the field it fills and its reading, "number" (``default``, in
# units of sigma sqrt(T), stands in for an absent key), "payoff", "payoffs" (a
# non-empty list) or "samples" (an object of sample lists; ``field`` maps their
# keys to fields).  Each kind gives the class it builds and its keys besides
# "kind", read in order: a config's first fault in that order is reported.
_Key = namedtuple("_Key", "field reading default", defaults=("number", None))
_COSTS = {
    "linear": (LinearCost, {"kappa": _Key("kappa")}),
    "smoothed_spread": (SmoothedSpreadCost, {"kappa": _Key("kappa"), "s": _Key("spread"),
                                             "C": _Key("sharpness")}),
    "custom_table": (TableCost, {"table": _Key({"z": "z_values", "g": "g_values"}, "samples")}),
}
_PAYOFFS = {
    "smoothed_call": (SmoothedCall, {"K": _Key("strike"), "cap": _Key("cap", default=10.0),
                                     "width": _Key("width", default=0.05)}),
    "smoothed_digital": (SmoothedDigital, {"K": _Key("strike"),
                                           "width": _Key("width", default=0.05)}),
    "scaled": (Scaled, {"inner": _Key("inner", "payoff"), "factor": _Key("factor")}),
    "negated": (Negated, {"inner": _Key("inner", "payoff")}),
    "sum": (SumPayoff, {"terms": _Key("terms", "payoffs")}),
    "custom_grid": (GridPayoff, {"grid": _Key({"p": "p_values", "values": "values"}, "samples")}),
}
_UTILITIES = {"risk_neutral": (RiskNeutral, {}), "cara": (CARA, {"alpha": _Key("alpha")})}
_KINDS = {"cost": _COSTS, "payoff": _PAYOFFS, "utility": _UTILITIES}
_MARKET = {"sigma": "sigma", "lambda": "lam", "T": "maturity", "p0": "p0"}  # key -> field
_PLAYER_KEYS = {"utility", "payoff"}
_GRID_CASTS = {"p_min": float, "p_max": float, "n_p": int, "n_t": int, "quad_nodes": int}
_TOP_KEYS = {"market", "cost", "players", "grid"}


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _get(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"missing key '{key}' in {where}")
    return obj[key]


def _number(obj: dict, key: str, where: str, default=None, cast=float):
    """``cast(obj[key])``; ``default``, when given, stands in for an absent key.
    A JSON boolean is not a number, and an int is not read from a fraction."""
    value = default if default is not None and key not in obj else _get(obj, key, where)
    if isinstance(value, bool):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    if cast is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}") from err


def _samples(values, where: str) -> tuple:
    if not isinstance(values, list) or any(isinstance(v, bool) for v in values):
        raise ConfigError(f"{where} must be a list of numbers, got {values!r}")
    try:
        return tuple(float(v) for v in values)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{where} must be a list of numbers") from err


def _parse(obj, where: str, market: MarketParams):
    """The cost, payoff or utility (``where``) that a config object describes."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    kind = _get(obj, "kind", where)
    if not isinstance(kind, str) or kind not in _KINDS[where]:
        raise ConfigError(f"unknown {where} kind '{kind}'")
    cls, keys = _KINDS[where][kind]
    _check_keys(obj, {"kind", *keys}, f"{where} of kind '{kind}'")
    fields = {}
    for key, (field, reading, default) in keys.items():
        if reading == "number":
            scaled = None if default is None else default * market.scale
            fields[field] = _number(obj, key, where, default=scaled)
            continue
        value = _get(obj, key, where)
        if reading == "samples":
            if not isinstance(value, dict) or set(value) != set(field):
                names = " and ".join(f"'{k}'" for k in field)
                raise ConfigError(f"{where}.{key} must be an object with keys {names}")
            fields.update({f: _samples(value[k], f"{where}.{key}.{k}") for k, f in field.items()})
        elif reading == "payoffs":
            if not isinstance(value, list) or not value:
                raise ConfigError(f"{where}.{key} must be a non-empty list")
            fields[field] = tuple(_parse(v, "payoff", market) for v in value)
        else:
            fields[field] = _parse(value, reading, market)
    return cls(**fields)


def _unparse(obj, where: str) -> dict:
    """The config object that ``_parse`` reads back as ``obj``."""
    kind = next((k for k, (cls, _) in _KINDS[where].items() if isinstance(obj, cls)), None)
    if kind is None:
        raise TypeError(f"{type(obj).__name__} is no {where} kind of the config schema")
    out = {"kind": kind}
    for key, (field, reading, _) in _KINDS[where][kind][1].items():
        if reading == "samples":
            out[key] = {k: list(getattr(obj, f)) for k, f in field.items()}
        elif reading == "payoffs":
            out[key] = [_unparse(v, "payoff") for v in getattr(obj, field)]
        else:
            value = getattr(obj, field)
            out[key] = value if reading == "number" else _unparse(value, reading)
    return out


def _parse_document(config_text: str) -> dict:
    try:
        doc = json.loads(config_text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"malformed config: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "config")
    return doc


def load_game(config_text: str) -> GameSpec:
    """Parse and validate a JSON problem description into a GameSpec."""
    doc = _parse_document(config_text)
    market_obj = _get(doc, "market", "config")
    if not isinstance(market_obj, dict):
        raise ConfigError("market must be an object")
    _check_keys(market_obj, set(_MARKET), "market")
    market = MarketParams(**{field: _number(market_obj, key, "market")
                             for key, field in _MARKET.items()})
    cost = _parse(_get(doc, "cost", "config"), "cost", market)
    players_obj = _get(doc, "players", "config")
    if not isinstance(players_obj, list) or not players_obj:
        raise ConfigError("players must be a non-empty list")
    players = []
    for i, pobj in enumerate(players_obj):
        if not isinstance(pobj, dict):
            raise ConfigError(f"players[{i}] must be an object")
        _check_keys(pobj, _PLAYER_KEYS, f"players[{i}]")
        players.append(PlayerSpec(
            utility=_parse(_get(pobj, "utility", f"players[{i}]"), "utility", market),
            endowment=_parse(_get(pobj, "payoff", f"players[{i}]"), "payoff", market),
        ))
    return GameSpec(market=market, cost=cost, players=tuple(players))


def load_grid(config_text: str, market: MarketParams) -> GridSpec:
    """Grid section of the config: the keys it gives override
    ``GridSpec.for_market(market)``."""
    doc = _parse_document(config_text)
    obj = doc.get("grid")
    grid = GridSpec.for_market(market)
    if obj is not None:
        if not isinstance(obj, dict):
            raise ConfigError("grid must be an object")
        _check_keys(obj, set(_GRID_CASTS), "grid")
        grid = replace(grid, **{key: _number(obj, key, "grid", cast=cast)
                                for key, cast in _GRID_CASTS.items() if key in obj})
    grid.validate_for(market)
    return grid


def load_config(config_text: str) -> tuple[GameSpec, GridSpec]:
    game = load_game(config_text)
    return game, load_grid(config_text, game.market)


def game_to_dict(game: GameSpec) -> dict:
    """Canonical dict form of a game, used for hashing and manifests."""
    return {
        "market": {key: getattr(game.market, field) for key, field in _MARKET.items()},
        "cost": _unparse(game.cost, "cost"),
        "players": [{"utility": _unparse(pl.utility, "utility"),
                     "payoff": _unparse(pl.endowment, "payoff")} for pl in game.players],
    }


def grid_to_dict(grid: GridSpec) -> dict:
    """The grid's fields, for hashing and manifests."""
    return asdict(grid)
