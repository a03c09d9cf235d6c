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
standard deviations past both ends.  One function, ``_heat``, applies it:
``heat_convolve_grid`` continues lattice layers linearly into the padding,
``heat_convolve_payoff`` and the Cole-Hopf lattices sample a payoff on an
axis ``REFINE`` times finer, and ``_heat`` transforms those rows once, flows
them ``HEAT_BLOCK`` variances at a time and crops them back.  K composes
exactly, K(a) K(b) = K(a + b), on the cosine coefficients, so the trapezoid
Duhamel sum is a one-step recursion on them, with one transform pair per
block of ``HEAT_BLOCK`` layers.
``closed_form_values`` picks the closed form that covers a game and builds
its lattice.  The cosine transforms ``dct`` and ``idct`` are each one real
FFT of numpy's after Makhoul's even/odd reordering, so neither importing this
module nor running its closed forms loads any of scipy.
"""

from __future__ import annotations

import functools
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
# the spectrum entries ``idct`` takes per block of rows: its scratch (a 256 kB
# spectrum and a 128 kB row block) is reused from block to block and stays in
# cache, where one spectrum for a whole (64, 1875) array is a fresh 0.96 MB,
# paged in anew at every call
FFT_BLOCK = 16384


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


def _ramp(ext: np.ndarray):
    """The quadratic ramp (a j + s + a) j along the last axis of ``ext``, whose
    slopes half a cell past the ends, s and s + 2 a n, are each row's end
    differences; and its coefficients s and a, one per row.  Less its ramp,
    a row that is linear near its ends reflects evenly into a smooth row."""
    n = ext.shape[-1]
    j = np.arange(n)
    s_l = ext[..., 1:2] - ext[..., :1]
    a = (ext[..., -1:] - ext[..., -2:-1] - s_l) / (2.0 * n)
    ramp = a * j
    ramp += s_l
    ramp += a
    ramp *= j
    return ramp, s_l, a


def _rates(n: int, step: float) -> np.ndarray:
    """w_k^2 for the DCT-II modes of an axis of ``n`` nodes spaced ``step``:
    K(v) multiplies mode k by exp(-v w_k^2 / 2)."""
    mult = np.pi * np.arange(n)
    mult /= n * step
    mult **= 2
    return mult


@functools.cache
def _twiddles(n: int):
    """The forward and inverse twiddles of the length-``n`` transforms, read
    only: mode k of the DCT-II (ortho norm) is Re(f_k V_k) of the real FFT V
    of the reordered row, f_k = c_k exp(-i pi k / 2n) with c_0 = 1/sqrt(n)
    and c_k = sqrt(2/n) after it; the inverse takes 1 / (n f_k)."""
    k = np.arange(n // 2 + 1)
    scale = np.full(k.size, math.sqrt(2.0 / n))
    scale[0] = math.sqrt(1.0 / n)
    rot = np.exp(-0.5j * np.pi / n * k)
    forward, inverse = rot * scale, rot.conj() / (n * scale)
    forward.setflags(write=False)
    inverse.setflags(write=False)
    return forward, inverse


def dct(x) -> np.ndarray:
    """The orthonormal DCT-II of ``x`` along its last axis, for any leading
    shape, by one real FFT (J. Makhoul, IEEE Trans. ASSP 28(1), 1980): the
    row reordered as its even entries then its odd entries reversed has the
    FFT V, and mode k is Re(f_k V_k) for k <= n/2 and -Im(f_{n-k} V_{n-k})
    past it.  ``x`` is left as it is."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    half = n // 2 + 1
    out = np.empty(x.shape)
    out[..., :(n + 1) // 2] = x[..., ::2]
    out[..., (n + 1) // 2:] = x[..., 1::2][..., ::-1]
    spec = np.fft.rfft(out)
    spec *= _twiddles(n)[0]
    out[..., :half] = spec.real
    np.negative(spec.imag[..., n - half:0:-1], out=out[..., half:])
    return out


def idct(y: np.ndarray) -> np.ndarray:
    """The orthonormal DCT-III of the C-contiguous float array ``y`` along
    its last axis, the inverse of ``dct``, in place: per row the spectrum
    V_k = (y_k - i y_{n-k}) / f_k (y_n = 0), one inverse real FFT, and the
    reordering undone.  Rows go ``FFT_BLOCK`` spectrum entries at a time
    through one scratch spectrum and row; ``y`` is overwritten with the
    result and returned."""
    if not y.flags.c_contiguous:
        raise ValueError("idct works in place on a C-contiguous array")
    n = y.shape[-1]
    half = n // 2 + 1
    rows = y.reshape(-1, n)
    step = max(1, FFT_BLOCK // half)
    scratch = np.empty((min(step, len(rows)), half), complex)
    scratch_row = np.empty((len(scratch), n))
    inverse = _twiddles(n)[1]
    for i in range(0, len(rows), step):
        block = rows[i:i + step]
        spec, row = scratch[:len(block)], scratch_row[:len(block)]
        spec.real = block[:, :half]
        spec.imag[:, 0] = 0.0
        np.negative(block[:, n - 1:n - half:-1], out=spec.imag[:, 1:])
        spec *= inverse
        np.fft.irfft(spec, n, norm="forward", out=row)
        block[:, ::2] = row[:, :(n + 1) // 2]
        block[:, 1::2] = row[:, (n + 1) // 2:][:, ::-1]
    return y


def _next_fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length the real FFT takes fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _heat(rows: np.ndarray, step: float, crop, variances: np.ndarray, exact: np.ndarray):
    """K(v) of ``rows`` on a padded axis spaced ``step``, cropped by ``crop``
    to a grid, for each v of the array ``variances``, in the shape
    ``variances.shape + exact.shape``; a zero variance gives ``exact``, the
    rows on the grid.  The rows less their ``_ramp`` are transformed once, and
    ``HEAT_BLOCK`` variances at a time flow through one reused buffer:
    exp(-v w_k^2 / 2) times the coefficients, ``idct`` in place, plus the
    ramp's exact flow ramp + a v / step^2.  No positive variance, no transform;
    a negative one raises ValueError."""
    if np.any(variances < 0):
        raise ValueError("variance must be >= 0")
    if not np.any(variances > 0.0):
        return np.broadcast_to(exact, variances.shape + exact.shape).copy()
    ramp, _, a = _ramp(rows)
    coef = dct(rows - ramp)
    rates = _rates(rows.shape[-1], step)
    flat = variances.reshape((-1,) + (1,) * rows.ndim)
    out = np.empty(flat.shape[:1] + exact.shape)
    buffer = np.empty((min(HEAT_BLOCK, len(flat)),) + coef.shape)
    for i in range(0, len(flat), HEAT_BLOCK):
        v = flat[i:i + HEAT_BLOCK]
        mult = np.multiply(-0.5 * v, rates, out=buffer[:len(v)])
        np.exp(mult, out=mult)
        mult *= coef
        idct(mult)
        mult += ramp
        mult += a * (v / step**2)
        out[i:i + len(v)] = mult[..., crop]
    out[flat.ravel() == 0.0] = exact
    return out.reshape(variances.shape + exact.shape)


def _padding(n: int, step: float, variance: float, refine: int = 1):
    """The nodes put in front of an axis of ``n`` nodes spaced ``step``,
    refined ``refine`` times, that is padded by at least ``PAD_SIGMAS``
    sqrt(variance) past both ends, in whole cells of ``step``; and the padded
    length, one the transforms take fast."""
    pad = refine * math.ceil(PAD_SIGMAS * math.sqrt(variance) / step)
    return pad, _next_fast_len(refine * (n - 1) + 1 + 2 * pad)


def _extend(values: np.ndarray, step: float, variance: float):
    """``values`` continued linearly past both ends of the last axis onto the
    axis ``_padding`` gives; and the number of cells put in front."""
    n = values.shape[-1]
    pad, length = _padding(n, step, variance)
    cells = np.arange(1.0, length - n + 1)
    left = values[..., :1] + (values[..., :1] - values[..., 1:2]) * cells[:pad][::-1]
    right = values[..., -1:] + (values[..., -1:] - values[..., -2:-1]) * cells[:cells.size - pad]
    return np.concatenate([left, values, right], axis=-1), pad


def heat_convolve_grid(values, p_grid, variance):
    """Heat smoothing K(variance) of gridded functions on their own uniform
    grid, along the last axis of ``values``, continued linearly beyond the
    grid (matching the zero-second-derivative boundary of the solvers).  An
    array of variances stacks one result per variance on new leading axes,
    all from one forward transform on the axis padded for the largest; a
    zero variance gives an exact copy."""
    values = np.asarray(values, dtype=float)
    variances = np.asarray(variance, dtype=float)
    step = _spacing(np.asarray(p_grid, dtype=float))
    ext, pad = _extend(values, step, float(np.max(variances, initial=0.0)))
    return _heat(ext, step, slice(pad, pad + values.shape[-1]), variances, values)


def duhamel_trapezoid(src, step, diff_coef: float, p_grid):
    """Trapezoid Duhamel sums  int_0^tau K(diff_coef (tau - s)) src(s) ds  at
    every layer tau = m * step, where ``src[m]`` (first axis) holds the source
    at s = m * step.  Layer 0 is zero; with v = diff_coef step and
    Y_k = step/2 src[k], layer m is

        D[m] = Y_m + sum_{k<m} c_k K((m - k) v) Y_k,    c_0 = 1, c_k = 2.

    Each Y_k is continued onto the axis padded for the longest lag and split
    as ``_heat`` splits its rows: its ``_ramp`` R_k (coefficients s_k, a_k)
    and the DCT coefficients Z_k of the rest.  K composes exactly on the
    coefficients, so the smooth part of the sum is idct(C_m), with
    C_m = E (C_{m-1} + c_{m-1} Z_{m-1}) and E = exp(-v w^2 / 2).  Each ramp
    flows exactly, R_k + a_k (m - k) v / dp^2, and the weighted ramps sum to
    the ramp of the summed coefficients.  Layers go ``HEAT_BLOCK`` at a time,
    one dct and one idct per block, with C and the running sums carried from
    block to block."""
    src = np.asarray(src, dtype=float)
    dp, n_p = _spacing(np.asarray(p_grid, dtype=float)), src.shape[-1]
    variance = diff_coef * step
    longest = variance * (src.shape[0] - 1)
    # every block is extended onto the one axis padded for the longest lag,
    # so E and the cropped nodes j are the same for all of them
    pad, length = _padding(n_p, dp, longest)
    decay = np.exp(-0.5 * variance * _rates(length, dp))
    j = np.arange(pad, pad + n_p)
    out = np.empty_like(src)
    weights = np.full(src.shape[:1] + (1,) * (src.ndim - 1), 2.0)  # c_k
    weights[0] = 1.0
    # C_m at the block's first layer m, and the sums over k < m of c_k s_k,
    # c_k a_k and c_k a_k (m - k)
    carry = 0.0
    slope_sum = curv_sum = flow_sum = np.zeros((1,) + src.shape[1:-1] + (1,))
    for k0 in range(0, src.shape[0], HEAT_BLOCK):
        half = 0.5 * step * src[k0:k0 + HEAT_BLOCK]
        w = weights[k0:k0 + HEAT_BLOCK]
        ext, _ = _extend(half, dp, longest)
        ramp, slope, curv = _ramp(ext)
        ext -= ramp
        coef = dct(ext)
        coef *= w
        for i in range(half.shape[0]):  # row i becomes C_m, carry C_{m+1}
            nxt = coef[i] + carry
            nxt *= decay
            coef[i] = carry
            carry = nxt
        # the sums for the block's layers, then the next block's first
        slopes = np.cumsum(np.concatenate([slope_sum, w * slope]), axis=0)
        curvs = np.cumsum(np.concatenate([curv_sum, w * curv]), axis=0)
        flows = np.cumsum(np.concatenate([flow_sum, curvs[1:]]), axis=0)
        slope_sum, curv_sum, flow_sum = slopes[-1:], curvs[-1:], flows[-1:]
        block = out[k0:k0 + half.shape[0]]
        np.add(idct(coef)[..., pad:pad + n_p], half, out=block)
        block += (curvs[:-1] * j + slopes[:-1] + curvs[:-1]) * j
        block += flows[:-1] * (variance / dp**2)
    out[0] = 0.0
    return out


def _refined_axis(p_grid: np.ndarray, variance: float):
    """The axis ``REFINE`` times finer than ``p_grid``, padded as ``_padding``
    pads it: its nodes, its spacing and the slice that crops it back to the
    nodes of ``p_grid``."""
    dp = _spacing(p_grid)
    pad, length = _padding(p_grid.size, dp, variance, REFINE)
    nodes = np.arange(-pad, length - pad)
    return (p_grid[0] + dp / REFINE * nodes, dp / REFINE,
            slice(pad, pad + REFINE * (p_grid.size - 1) + 1, REFINE))


def heat_convolve_payoff(f, p_grid, variances) -> np.ndarray:
    """E[f(p + sqrt(v) Z)] at the nodes p of the uniform grid ``p_grid``, one
    row per variance v: K(v) applied to the globally defined f (a Payoff or a
    callable) sampled on the refined padded axis, then cropped, so memory
    stays within a block of rows of the refined axis."""
    fn = _terminal_fn(f)
    p_grid = np.asarray(p_grid, dtype=float)
    variances = np.atleast_1d(np.asarray(variances, dtype=float))
    axis, step, crop = _refined_axis(p_grid, float(np.max(variances, initial=0.0)))
    return _heat(np.asarray(fn(axis), dtype=float), step, crop, variances,
                 np.asarray(fn(p_grid), dtype=float))


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
    The payoff is sampled once there and once on the grid.  Past an exponent
    spread of ``SPREAD_LIMIT`` that form loses too much to round-off, and the
    grid's Gauss-Hermite rule takes one layer at a time."""
    a, b, fn = prob.diff_coef, prob.quad_coef, _terminal_fn(prob.terminal)
    variances = a * np.maximum(prob.maturity - np.asarray(times, dtype=float), 0.0)
    axis, step, crop = _refined_axis(grid.prices, float(np.max(variances)))
    payoff, exact = (np.asarray(fn(q), dtype=float) for q in (axis, grid.prices))
    if b == 0.0:
        return _heat(payoff, step, crop, variances, exact)
    x = (b / a) * payoff
    top = float(np.max(x))
    if top - float(np.min(x)) > SPREAD_LIMIT:
        rule = QuadratureRule.gauss_hermite(grid.quad_nodes)
        return np.stack([burgers_value(prob, float(t), grid.prices, rule) for t in times])
    # zero variances take the shifted payoff, which log1p reads, then the payoff
    heat = _heat(np.expm1(x - top), step, crop, variances, np.expm1((b / a) * exact - top))
    out = (a / b) * (top + np.log1p(heat))
    out[variances == 0.0] = exact
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


def rn_aggregate_grid(game: GameSpec, grid: GridSpec, times=None) -> np.ndarray:
    """Aggregate closed-form value on the grid's prices at the calendar
    ``times``, one row each (by default the grid's, the full lattice)."""
    prob = _cole_hopf_problem(game, "rn_aggregate_grid")
    times = grid.times(game.market.maturity) if times is None else times
    return _cole_hopf_layers(prob, grid, times)


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
    so cost grows as n_t: about 0.55 s and a 28 MB peak traced allocation at
    401 x 2000 for N = 2 on a 2-core machine.  The source is freed once the
    sum is taken, so beyond the output the peak holds two more lattices.
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
    del src_tau  # freed before the players' lattices are built
    np.maximum(duhamel, 0.0, out=duhamel)
    duhamel *= coef
    out = np.empty((game.n_players, times.size, grid.n_p))
    for j, pl in enumerate(game.players):  # out[j, ::-1] is indexed by time to maturity
        np.add(heat_convolve_payoff(pl.endowment, grid.prices, sig2 * times), duhamel,
               out=out[j, ::-1])
    return out


def closed_form_values(game: GameSpec, grid: GridSpec) -> np.ndarray:
    """Per-player closed-form values (N, n_t, n_p) of a linear-cost game of
    risk-neutral players or of one exponential-utility player:
    ``rn_individual_values`` for two or more players, else the Cole-Hopf
    value of the one player.  Other games raise ClosedFormError."""
    prob = _cole_hopf_problem(game, "the closed form", game.all_risk_neutral)
    if game.n_players >= 2:
        return rn_individual_values(game, grid)
    return _cole_hopf_layers(prob, grid, grid.times(game.market.maturity))[None]
