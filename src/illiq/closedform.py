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

Pointwise, ``heat_convolve`` and ``burgers_value`` take the expectations by
a Gauss-Hermite rule; they are the reference for the lattice routes.  On a
lattice the heat semigroup is one operator, the cosine-transform multiplier
K(v) f = idct(exp(-v w^2 / 2) dct(f)) on an axis padded by ``PAD_SIGMAS``
standard deviations past both ends.  It composes exactly, K(a) K(b) = K(a + b),
so the trapezoid Duhamel sum is a one-step recursion.  Lattice layers are
continued linearly into the padding; a payoff is sampled on an axis ``REFINE``
times finer and cropped back.  ``closed_form_values`` picks the closed form
that covers a game and builds its lattice.  ``scipy.fft`` is imported by the
functions that transform, so importing this module loads none of scipy.
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
    "heat_convolve_payoff",
    "duhamel_trapezoid",
    "burgers_value",
    "rn_aggregate_value",
    "rn_aggregate_grid",
    "rn_individual_values",
    "cara_single_value",
    "closed_form_values",
    "central_gradient",
]

# the lattice heat operator: padding in standard deviations of the largest
# variance, the refinement of the axis a payoff is sampled on, and the number
# of rows one block of multipliers transforms at a time.  A Cole-Hopf exponent
# that spreads over s loses about e^s ulps in the transform: on the benchmark
# call and an 86-114 lattice the worst point is 5e-8 off at s = 20 and 8e-4
# off at s = 30, so past SPREAD_LIMIT the Gauss-Hermite rule takes over.
PAD_SIGMAS = 8.0
REFINE = 4
SPREAD_LIMIT = 20.0
HEAT_BLOCK = 64


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


def _spacing(p_grid: np.ndarray) -> float:
    return float(p_grid[-1] - p_grid[0]) / (p_grid.size - 1)


def _heat(ext: np.ndarray, step: float, variance) -> np.ndarray:
    """K(variance) along the last axis of ``ext``, whose spacing is ``step``:
    exp(-v w_k^2 / 2) times the DCT-II (ortho norm) coefficients of ext less
    the quadratic ramp that carries its end slopes, plus the ramp's exact heat
    flow.  Less the ramp, a row that is linear near its ends reflects evenly
    into a smooth row.  ``variance`` is a scalar or a column, one per row.
    The ramp, the multipliers, the coefficients and the result are each
    built in one array and updated in place (``out=``, ``overwrite_x``), in
    the order of operations of the plain expression and so to the same bits;
    a column's multipliers take the product, a scalar's the coefficients."""
    from scipy.fft import dct, idct

    n = ext.shape[-1]
    j = np.arange(n)
    s_l = ext[..., 1:2] - ext[..., :1]
    a = (ext[..., -1:] - ext[..., -2:-1] - s_l) / (2.0 * n)
    ramp = a * j  # (a j + s_l + a) j: slopes s_l and s_r half a cell past the ends
    ramp += s_l
    ramp += a
    ramp *= j
    mult = np.pi * j
    mult /= n * step
    mult **= 2
    coef = dct(ext - ramp, norm="ortho", overwrite_x=True)
    if np.ndim(variance):  # a column: the product takes the multipliers' rows
        mult = np.multiply(-0.5 * variance, mult)
        np.exp(mult, out=mult)
        mult *= coef
        coef = mult
    else:
        mult *= -0.5 * variance
        np.exp(mult, out=mult)
        coef *= mult
    smooth = idct(coef, norm="ortho", overwrite_x=True)
    smooth += ramp
    smooth += a * (variance / step**2)
    return smooth


def _extend(values: np.ndarray, step: float, variance: float):
    """``values`` continued linearly past both ends of the last axis by at
    least ``PAD_SIGMAS`` sqrt(variance), on an axis of spacing ``step``, to a
    length the transforms take fast; and the number of cells put in front."""
    from scipy.fft import next_fast_len

    n = values.shape[-1]
    pad = math.ceil(PAD_SIGMAS * math.sqrt(variance) / step)
    cells = np.arange(1.0, next_fast_len(n + 2 * pad, real=True) - n + 1)
    left = values[..., :1] + (values[..., :1] - values[..., 1:2]) * cells[:pad][::-1]
    right = values[..., -1:] + (values[..., -1:] - values[..., -2:-1]) * cells[:cells.size - pad]
    return np.concatenate([left, values, right], axis=-1), pad


def heat_convolve_grid(values, p_grid, variance: float):
    """Heat smoothing K(variance) of gridded functions on their own uniform
    grid, along the last axis of ``values``, continued linearly beyond the
    grid (matching the zero-second-derivative boundary of the solvers)."""
    values = np.asarray(values, dtype=float)
    p_grid = np.asarray(p_grid, dtype=float)
    if variance < 0:
        raise ValueError("variance must be >= 0")
    if variance == 0.0:
        return values.copy()
    step = _spacing(p_grid)
    ext, pad = _extend(values, step, variance)
    return _heat(ext, step, variance)[..., pad:pad + p_grid.size]


def duhamel_trapezoid(src, step, diff_coef: float, p_grid):
    """Trapezoid Duhamel sums  int_0^tau K(diff_coef (tau - s)) src(s) ds  at
    every layer tau = m * step, where ``src[m]`` (first axis) holds the source
    at s = m * step.  Layer 0 is zero.  K is a semigroup, so the sums obey
    D[m] = K(diff_coef step) (D[m-1] + step/2 src[m-1]) + step/2 src[m]: one
    transform pair per layer, on an axis padded for the longest lag."""
    src = np.asarray(src, dtype=float)
    dp, n_p = _spacing(np.asarray(p_grid, dtype=float)), src.shape[-1]
    variance = diff_coef * step
    longest = variance * (src.shape[0] - 1)
    out = np.zeros_like(src)
    prev, pad = _extend(0.5 * step * src[0], dp, longest)
    acc = np.zeros_like(prev)
    for m in range(1, src.shape[0]):
        cur = _extend(0.5 * step * src[m], dp, longest)[0]
        acc = _heat(acc + prev, dp, variance) + cur
        out[m] = acc[..., pad:pad + n_p]
        prev = cur
    return out


def _refined_axis(p_grid: np.ndarray, variance: float):
    """The axis ``REFINE`` times finer than ``p_grid``, padded by at least
    ``PAD_SIGMAS`` sqrt(variance) past both ends to a length the transforms
    take fast: its nodes, its spacing and the slice that crops it back to the
    nodes of ``p_grid``."""
    from scipy.fft import next_fast_len

    dp = _spacing(p_grid)
    pad = REFINE * math.ceil(PAD_SIGMAS * math.sqrt(variance) / dp)
    last = REFINE * (p_grid.size - 1)
    nodes = np.arange(-pad, next_fast_len(last + 2 * pad + 1, real=True) - pad)
    return p_grid[0] + dp / REFINE * nodes, dp / REFINE, slice(pad, pad + last + 1, REFINE)


def heat_convolve_payoff(f, p_grid, variances) -> np.ndarray:
    """E[f(p + sqrt(v) Z)] at the nodes p of the uniform grid ``p_grid``, one
    row per variance v: K(v) applied to the globally defined f (a Payoff or a
    callable) sampled on the refined padded axis, then cropped.  Rows are
    transformed ``HEAT_BLOCK`` at a time, so memory stays within a few rows
    of the refined axis."""
    fn = _terminal_fn(f)
    p_grid = np.asarray(p_grid, dtype=float)
    variances = np.atleast_1d(np.asarray(variances, dtype=float))
    if np.any(variances < 0):
        raise ValueError("variance must be >= 0")
    axis, step, crop = _refined_axis(p_grid, float(np.max(variances)))
    samples = np.asarray(fn(axis), dtype=float)
    out = np.empty((variances.size, p_grid.size))
    for i in range(0, variances.size, HEAT_BLOCK):
        block = variances[i:i + HEAT_BLOCK, None]
        out[i:i + HEAT_BLOCK] = _heat(samples, step, block)[:, crop]
    out[variances == 0.0] = fn(p_grid)
    return out


def _log_mean_exp(x, w):
    """log(sum_i w_i exp(x_i)), stable in both regimes.

    Nearly constant exponents (the vanishing-impact limit, where the result
    must stay accurate relative to its own tiny size) go through an
    expm1/log1p form; spread-out exponents go through the usual shift by
    max(x + log w), which keeps precision when the largest x sits on a
    node of negligible Gaussian weight."""
    spread = np.max(x, axis=-1) - np.min(x, axis=-1)
    with np.errstate(divide="ignore"):  # log of an underflowed weight, or of the unused branch
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


def _cole_hopf_layers(prob: BurgersProblem, grid: GridSpec, times) -> np.ndarray:
    """``prob``'s value at the calendar ``times`` on the grid's prices:
    (A/B) (m + log1p(K(A (T - t)) expm1(x - m))) with the exponent
    x = (B/A) G sampled on the refined padded axis and m its largest value.
    Past an exponent spread of ``SPREAD_LIMIT`` that form loses too much to
    round-off, and the grid's Gauss-Hermite rule takes one layer at a time."""
    a, b, fn = prob.diff_coef, prob.quad_coef, _terminal_fn(prob.terminal)
    variances = a * np.maximum(prob.maturity - np.asarray(times, dtype=float), 0.0)
    if b == 0.0:
        return heat_convolve_payoff(fn, grid.prices, variances)
    axis = _refined_axis(grid.prices, float(np.max(variances)))[0]
    x = (b / a) * np.asarray(fn(axis), dtype=float)
    top = float(np.max(x))
    if top - float(np.min(x)) > SPREAD_LIMIT:
        rule = QuadratureRule.gauss_hermite(grid.quad_nodes)
        return np.stack([burgers_value(prob, float(t), grid.prices, rule) for t in times])

    def shifted(q):
        return np.expm1((b / a) * np.asarray(fn(q), dtype=float) - top)

    out = (a / b) * (top + np.log1p(heat_convolve_payoff(shifted, grid.prices, variances)))
    out[variances == 0.0] = fn(grid.prices)
    return out


# ---------------------------------------------------------------------------
# game-specific closed forms
# ---------------------------------------------------------------------------


def _cole_hopf_problem(game: GameSpec, what: str, risk_neutral: bool = True) -> BurgersProblem:
    """The Cole-Hopf problem of a linear-cost game: the aggregate value
    v = sum_j v^j of risk-neutral players or, with ``risk_neutral`` False, the
    transformed value of one exponential-utility player.  Any other game
    raises ClosedFormError naming ``what``."""
    if risk_neutral != game.all_risk_neutral or not (risk_neutral or game.n_players == 1):
        family = "all players risk neutral" if risk_neutral else "a single CARA player"
        raise ClosedFormError(f"{what} requires {family}")
    if not isinstance(game.cost, LinearCost):
        raise ClosedFormError(f"{what} requires a linear cost function")
    n, lam, kappa, sigma = game.n_players, game.market.lam, game.cost.kappa, game.market.sigma
    if risk_neutral:
        quad_coef = 2.0 * lam**2 * n / (kappa * (n + 1) ** 2)
        terminal = SumPayoff(tuple(pl.endowment for pl in game.players))
    else:
        quad_coef = lam**2 / (2.0 * kappa) - sigma**2 * float(game.alphas[0])
        terminal = game.players[0].endowment
    return BurgersProblem(sigma**2, quad_coef, terminal, game.market.maturity)


def rn_aggregate_value(game: GameSpec, t: float, p, rule: QuadratureRule):
    """Representative-agent value v = sum_j v^j for risk-neutral linear-cost
    games at (t, p), by quadrature."""
    return burgers_value(_cole_hopf_problem(game, "rn_aggregate_value"), t, p, rule)


def cara_single_value(game: GameSpec, t: float, p, rule: QuadratureRule):
    """Transformed value for one exponential-utility player under linear
    cost, by quadrature; the untransformed value is -exp(-alpha * result)."""
    return burgers_value(_cole_hopf_problem(game, "cara_single_value", False), t, p, rule)


def rn_aggregate_grid(game: GameSpec, grid: GridSpec) -> np.ndarray:
    """Aggregate closed-form value on the full (n_t, n_p) lattice."""
    prob = _cole_hopf_problem(game, "rn_aggregate_grid")
    return _cole_hopf_layers(prob, grid, grid.times(game.market.maturity))


def central_gradient(values: np.ndarray, dp: float, out=None) -> np.ndarray:
    """d/dp along the last axis: central interior, one-sided at the ends;
    written into ``out`` when given (an array of the values' shape)."""
    grad = np.empty_like(values) if out is None else out
    inner = grad[..., 1:-1]
    np.divide(np.subtract(values[..., 2:], values[..., :-2], out=inner), 2.0 * dp, out=inner)
    grad[..., 0] = (values[..., 1] - values[..., 0]) / dp
    grad[..., -1] = (values[..., -1] - values[..., -2]) / dp
    return grad


def rn_individual_values(game: GameSpec, grid: GridSpec) -> np.ndarray:
    """Per-player closed-form values (N, n_t, n_p) for risk-neutral linear
    cost, via the Duhamel formula

        v^j(tau) = heat(H^j, sigma^2 tau)
                   + lambda^2/(kappa (N+1)^2) int_0^tau heat(v_p^2(s), sigma^2 (tau-s)) ds

    with tau the time to maturity and v the aggregate Cole-Hopf value.  The
    heat terms come from ``heat_convolve_payoff`` and the time integral from
    the trapezoid recursion of ``duhamel_trapezoid`` on the grid's own layers,
    so cost grows as n_t: about 1 s at 401 x 2000 for N = 2 on a 2-core machine.
    """
    prob = _cole_hopf_problem(game, "rn_individual_values")
    market = game.market
    coef = market.lam**2 / (game.cost.kappa * (game.n_players + 1) ** 2)
    times = grid.times(market.maturity)  # read backwards: tau_m = times[m]
    sig2 = market.sigma**2
    # squared gradient of the aggregate value, indexed by time to maturity
    src_tau = central_gradient(_cole_hopf_layers(prob, grid, times), grid.dp)[::-1]
    src_tau **= 2
    # shared Duhamel integral (players differ only in the heat term); the
    # integral of a square is nonnegative, so only round-off falls below zero
    duhamel = duhamel_trapezoid(src_tau, times[1] - times[0], sig2, grid.prices)
    np.maximum(duhamel, 0.0, out=duhamel)
    duhamel *= coef
    out = np.empty((game.n_players, times.size, grid.n_p))
    for j, pl in enumerate(game.players):  # out[j, ::-1] is indexed by time to maturity
        np.add(heat_convolve_payoff(pl.endowment, grid.prices, sig2 * times), duhamel,
               out=out[j, ::-1])
    return out


def closed_form_values(game: GameSpec, grid: GridSpec) -> np.ndarray:
    """Per-player closed-form values (N, n_t, n_p): ``rn_individual_values``
    for two or more players, else the Cole-Hopf value of the one risk-neutral
    or exponential-utility player.  Other games raise ClosedFormError."""
    if game.n_players >= 2:
        return rn_individual_values(game, grid)
    rn = game.all_risk_neutral
    prob = _cole_hopf_problem(game, "rn_aggregate_grid" if rn else "cara_single_value", rn)
    return _cole_hopf_layers(prob, grid, grid.times(game.market.maturity))[None]
