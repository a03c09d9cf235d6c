"""Analytic solutions built on the Cole-Hopf representation.

The quadratic-gradient equation  2 v_t + A v_pp + B v_p^2 = 0  with terminal
data G is solved by exponentiating into a heat equation:

    v(t, p) = (A/B) log E[ exp( (B/A) G(p + sqrt(A (T-t)) Z) ) ],   Z ~ N(0,1).

Risk-neutral players with a linear cost reduce to this equation for the
aggregate value (A = sigma^2, B = 2 lambda^2 N / (kappa (N+1)^2)); a single
exponential-utility player reduces to it after the log transform
(B = lambda^2 / (2 kappa) - sigma^2 alpha).  Individual risk-neutral values
then follow from a nonhomogeneous heat equation solved by a Duhamel
integral over the aggregate gradient squared.

``closed_form_values`` picks the closed form that covers a game and builds
its lattice, by the per-layer loop that ``rn_aggregate_grid`` also uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GameSpec, GridSpec, LinearCost, Payoff, SumPayoff

__all__ = [
    "ClosedFormError",
    "QuadratureRule",
    "BurgersProblem",
    "heat_convolve",
    "heat_convolve_grid",
    "duhamel_trapezoid",
    "burgers_value",
    "rn_aggregate_value",
    "rn_aggregate_grid",
    "rn_individual_values",
    "cara_single_value",
    "closed_form_values",
    "central_gradient",
]


class ClosedFormError(ValueError):
    """A closed form was requested outside the game family it covers."""


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite rule rewritten for standard-normal expectations:
    E[f(Z)] ~ sum_i w_i f(z_i) with positive weights summing to one."""

    z: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        if np.any(self.w <= 0):
            raise ValueError("quadrature weights must be positive")
        if abs(float(np.sum(self.w)) - 1.0) > 1e-10:
            raise ValueError("quadrature weights must sum to 1")

    @property
    def n(self) -> int:
        return self.z.size

    @staticmethod
    def gauss_hermite(n: int) -> "QuadratureRule":
        if n < 8:
            raise ValueError("quad_nodes must be >= 8")
        x, w = np.polynomial.hermite.hermgauss(n)
        return QuadratureRule(z=np.sqrt(2.0) * x, w=w / math.sqrt(math.pi))


def _terminal_fn(g):
    if isinstance(g, Payoff):
        return g.value
    if callable(g):
        return g
    raise TypeError("terminal data must be a Payoff or a callable")


@dataclass(frozen=True)
class BurgersProblem:
    """2 v_t + A v_pp + B v_p^2 = 0 with v(T, .) = G."""

    diff_coef: float
    quad_coef: float
    terminal: object
    maturity: float

    def __post_init__(self):
        if not self.diff_coef > 0:
            raise ValueError("diffusion coefficient A must be > 0")
        _terminal_fn(self.terminal)


def heat_convolve(f, variance: float, p, rule: QuadratureRule):
    """E[f(p + sqrt(variance) Z)] for a globally defined f, by quadrature."""
    if variance < 0:
        raise ValueError("variance must be >= 0")
    fn = _terminal_fn(f)
    p_arr = np.atleast_1d(np.asarray(p, dtype=float))
    if variance == 0.0:
        out = np.asarray(fn(p_arr), dtype=float)
    else:
        pts = p_arr[:, None] + math.sqrt(variance) * rule.z[None, :]
        out = np.asarray(fn(pts), dtype=float) @ rule.w
    return float(out[0]) if np.isscalar(p) or np.ndim(p) == 0 else out


def heat_convolve_grid(values, p_grid, variance: float, rule: QuadratureRule):
    """Heat smoothing of gridded functions on their own grid, along the last
    axis of ``values``, extended linearly beyond the grid (matching the
    zero-second-derivative boundary of the solvers).

    Each quadrature point interpolates within its grid cell, the end cells
    carrying on past the grid, so the operator is one (n_p, n_p) matrix of
    node weights applied to the whole stack by one matmul."""
    values = np.asarray(values, dtype=float)
    p_grid = np.asarray(p_grid, dtype=float)
    if variance < 0:
        raise ValueError("variance must be >= 0")
    if variance == 0.0:
        return values.copy()
    n_p = p_grid.size
    q = p_grid[:, None] + math.sqrt(variance) * rule.z[None, :]
    k = np.clip(np.searchsorted(p_grid, q, side="right") - 1, 0, n_p - 2)
    theta = (q - p_grid[k]) / (p_grid[k + 1] - p_grid[k])
    cell = (np.arange(n_p)[:, None] * n_p + k).ravel()
    weights = np.bincount(np.concatenate([cell, cell + 1]),
                          np.concatenate([((1.0 - theta) * rule.w).ravel(),
                                          (theta * rule.w).ravel()]),
                          minlength=n_p * n_p).reshape(n_p, n_p)
    return (values.reshape(-1, n_p) @ weights.T).reshape(values.shape)


def duhamel_trapezoid(src, step, diff_coef: float, p_grid, rule: QuadratureRule):
    """Trapezoid Duhamel sums  int_0^tau heat(src(s), diff_coef (tau - s)) ds
    at every layer tau = m * step, where ``src[m]`` (first axis) holds the
    source at s = m * step and the heat kernel is ``heat_convolve_grid``.
    Layer 0 is zero.  One stacked heat call per lag m - s, so the cost grows
    as the square of the number of layers."""
    src = np.asarray(src, dtype=float)
    out = np.zeros_like(src)
    out[1:] = 0.5 * step * src[1:]
    for lag in range(1, src.shape[0]):
        conv = heat_convolve_grid(src[:-lag], p_grid, diff_coef * lag * step, rule)
        conv[0] *= 0.5  # s = 0 is an end point of every sum
        out[lag:] += step * conv
    return out


def _log_mean_exp(x, w):
    """log(sum_i w_i exp(x_i)), stable in both regimes.

    Nearly constant exponents (the vanishing-impact limit, where the result
    must stay accurate relative to its own tiny size) go through an
    expm1/log1p form; spread-out exponents go through the usual shift by
    max(x + log w), which keeps precision when the largest x sits on a
    node of negligible Gaussian weight."""
    spread = np.max(x, axis=-1) - np.min(x, axis=-1)
    with np.errstate(divide="ignore"):
        log_w = np.log(w)
    shifted = x + log_w
    m_big = np.max(shifted, axis=-1, keepdims=True)
    big = m_big[..., 0] + np.log(np.sum(np.exp(shifted - m_big), axis=-1))
    m_small = np.max(x, axis=-1, keepdims=True)
    resid = np.sum(w * np.expm1(x - m_small), axis=-1) + (float(np.sum(w)) - 1.0)
    small = m_small[..., 0] + np.log1p(resid)
    return np.where(spread < 1e-3, small, big)


def burgers_value(prob: BurgersProblem, t: float, p, rule: QuadratureRule):
    """Cole-Hopf evaluation of the quadratic-gradient equation at (t, p)."""
    if t > prob.maturity + 1e-12:
        raise ValueError("t must be <= maturity")
    fn = _terminal_fn(prob.terminal)
    a, b = prob.diff_coef, prob.quad_coef
    variance = a * max(prob.maturity - t, 0.0)
    if variance == 0.0 or b == 0.0:
        return heat_convolve(fn, variance, p, rule)
    p_arr = np.atleast_1d(np.asarray(p, dtype=float))
    pts = p_arr[:, None] + math.sqrt(variance) * rule.z[None, :]
    x = (b / a) * np.asarray(fn(pts), dtype=float)
    out = (a / b) * _log_mean_exp(x, rule.w)
    return float(out[0]) if np.isscalar(p) or np.ndim(p) == 0 else out


# ---------------------------------------------------------------------------
# game-specific closed forms
# ---------------------------------------------------------------------------


def _require_rn_linear(game: GameSpec, what: str) -> None:
    if not game.all_risk_neutral:
        raise ClosedFormError(f"{what} requires all players risk neutral")
    if not isinstance(game.cost, LinearCost):
        raise ClosedFormError(f"{what} requires a linear cost function")


def rn_aggregate_value(game: GameSpec, t: float, p, rule: QuadratureRule):
    """Representative-agent value v = sum_j v^j for risk-neutral linear-cost
    games; solves v_t + sigma^2/2 v_pp + (lambda^2 N / (kappa (N+1)^2)) v_p^2 = 0."""
    _require_rn_linear(game, "rn_aggregate_value")
    n, lam, kappa = game.n_players, game.market.lam, game.cost.kappa
    prob = BurgersProblem(
        diff_coef=game.market.sigma**2,
        quad_coef=2.0 * lam**2 * n / (kappa * (n + 1) ** 2),
        terminal=SumPayoff(tuple(pl.endowment for pl in game.players)),
        maturity=game.market.maturity,
    )
    return burgers_value(prob, t, p, rule)


def _layers(value, game: GameSpec, grid: GridSpec) -> np.ndarray:
    """The (n_t, n_p) lattice of a closed form ``value(game, t, p, rule)``,
    one time layer at a time, by the grid's own quadrature rule."""
    rule = QuadratureRule.gauss_hermite(grid.quad_nodes)
    return np.stack([value(game, float(t), grid.prices, rule)
                     for t in grid.times(game.market.maturity)])


def rn_aggregate_grid(game: GameSpec, grid: GridSpec) -> np.ndarray:
    """Aggregate closed-form value on the full (n_t, n_p) lattice, by the
    grid's own quadrature rule."""
    _require_rn_linear(game, "rn_aggregate_grid")
    return _layers(rn_aggregate_value, game, grid)


def central_gradient(values: np.ndarray, dp: float) -> np.ndarray:
    """d/dp along the last axis: central interior, one-sided at the ends."""
    grad = np.empty_like(values)
    grad[..., 1:-1] = (values[..., 2:] - values[..., :-2]) / (2.0 * dp)
    grad[..., 0] = (values[..., 1] - values[..., 0]) / dp
    grad[..., -1] = (values[..., -1] - values[..., -2]) / dp
    return grad


def rn_individual_values(game: GameSpec, grid: GridSpec) -> np.ndarray:
    """Per-player closed-form values (N, n_t, n_p) for risk-neutral linear
    cost, via the Duhamel formula

        v^j(tau) = heat(H^j, sigma^2 tau)
                   + lambda^2/(kappa (N+1)^2) int_0^tau heat(v_p^2(s), sigma^2 (tau-s)) ds

    with tau the time to maturity and v the aggregate Cole-Hopf value.
    The time integral uses the grid's own layers (composite trapezoid,
    ``duhamel_trapezoid``), so cost grows as n_t^2: about 7 s at 401 x 400
    and 32 s at 401 x 2000 for N = 2 on a 2-core machine.  The heat kernel is
    applied by the grid's own quadrature rule.
    """
    _require_rn_linear(game, "rn_individual_values")
    rule = QuadratureRule.gauss_hermite(grid.quad_nodes)
    market = game.market
    coef = market.lam**2 / (game.cost.kappa * (game.n_players + 1) ** 2)
    times = grid.times(market.maturity)
    sig2 = market.sigma**2

    # aggregate value and its squared gradient, indexed by time to maturity
    v = rn_aggregate_grid(game, grid)
    src_tau = central_gradient(v, grid.dp)[::-1] ** 2  # src_tau[m] at tau = m*dtau
    # shared Duhamel integral (players differ only in the heat term)
    duhamel = coef * duhamel_trapezoid(src_tau, times[1] - times[0], sig2, grid.prices, rule)

    heat = np.array([[heat_convolve(pl.endowment, sig2 * tau, grid.prices, rule)
                      for tau in times] for pl in game.players])
    return np.ascontiguousarray((heat + duhamel)[:, ::-1])


def cara_single_value(game: GameSpec, t: float, p, rule: QuadratureRule):
    """Transformed value for one exponential-utility player under linear
    cost; the untransformed value is -exp(-alpha * result)."""
    if game.n_players != 1 or game.all_risk_neutral:
        raise ClosedFormError("cara_single_value requires a single CARA player")
    if not isinstance(game.cost, LinearCost):
        raise ClosedFormError("cara_single_value requires a linear cost function")
    alpha = float(game.alphas[0])
    lam, kappa, sigma = game.market.lam, game.cost.kappa, game.market.sigma
    prob = BurgersProblem(
        diff_coef=sigma**2,
        quad_coef=lam**2 / (2.0 * kappa) - sigma**2 * alpha,
        terminal=game.players[0].endowment,
        maturity=game.market.maturity,
    )
    return burgers_value(prob, t, p, rule)


def closed_form_values(game: GameSpec, grid: GridSpec) -> np.ndarray:
    """Per-player closed-form values (N, n_t, n_p): ``rn_individual_values``
    for two or more players, else the Cole-Hopf value of the one risk-neutral
    or exponential-utility player.  Other games raise ClosedFormError."""
    if game.n_players >= 2:
        return rn_individual_values(game, grid)
    value = rn_aggregate_value if game.all_risk_neutral else cara_single_value
    return _layers(value, game, grid)[None]
