"""Numerical solution of the coupled equilibrium value equations.

Three routes build a ``Solution`` of the system

    0 = v^j_t + sigma^2/2 v^j_pp - sigma^2 alpha^j / 2 (v^j_p)^2
        + lambda Xdot* v^j_p - Xdot^j g(Xdot*),        v^j(T, .) = H^j,

where the speeds at each point come from the speeds module (the quadratic
term is absent for risk-neutral players; exponential-utility players are
solved entirely in the log-transformed variable, whose terminal data is the
raw payoff as well):

* ``solve_fd``     backward march, implicit in the diffusion term (one
                   constant tridiagonal matrix, factored once per solve and
                   applied to every player's layer) and explicit in the
                   nonlinear terms taken from the previous layer, whose speed
                   roots start from the roots of the layers before;
* ``solve_picard`` fixed-point iteration of the mild (integral) form
                   v = e^{tL} H + int e^{(t-s)L} F(v_p(s)) ds on short
                   subintervals, the semigroup applied by the cosine-transform
                   multiplier of ``heat_convolve_grid`` and the integral by
                   the trapezoid recursion ``duhamel_trapezoid`` that the
                   closed form shares.  Serves as an independent oracle for
                   the finite-difference route;
* ``solve_closed`` the lattice that ``closedform.closed_form_values`` builds
                   for the games it covers (linear cost with risk-neutral
                   players or one exponential-utility player).

Each route validates the grid, certifies the cost once and records the
certificate, the a-priori speed bound and the speed-root tolerance in
``Solution.meta``; terminal data comes from ``GameSpec.payoff_layer``.
``_write_table`` and ``_write_lattice_csv`` write every numeric table the
package writes, in one dialect whose number format is ``CSV_FLOAT``; the
numpy kernel ``_g17`` gives the bytes of ``CSV_FLOAT % x`` for whole blocks.
``write_solution_npz`` stores a ``Solution`` in binary and
``read_solution_npz`` loads it back, exactly and without pickling.

scipy is imported where it is used: ``scipy.linalg`` when ``solve_fd``
factors its matrix, so importing this module loads none of scipy.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .closedform import (
    central_gradient,
    closed_form_values,
    duhamel_trapezoid,
    heat_convolve_grid,
    heat_convolve_payoff,
)
from .model import GameSpec, GridSpec
from .speeds import (
    ROOT_TOL,
    CostCertificate,
    apriori_speed_bound,
    certify_for_game,
    equilibrium_fields,
)

__all__ = [
    "SolverError",
    "Solution",
    "ResidualReport",
    "solve_fd",
    "solve_picard",
    "solve_closed",
    "residual",
    "surplus",
    "write_solution_csv",
    "write_solution_npz",
    "read_solution_npz",
]


class SolverError(RuntimeError):
    pass


class _NonContraction(SolverError):
    pass


# Picard iteration: first contraction step as a share of the horizon, the
# sup-norm fixed-point tolerance, iterations per step, quadrature sub-layers
# per step and how often a non-contracting step may be halved
PICARD_TAU_FRACTION = 0.05
PICARD_TOL = 1e-10
PICARD_MAX_ITER = 60
PICARD_SUBLAYERS = 8
PICARD_MAX_HALVINGS = 3


@dataclass(frozen=True)
class Solution:
    """Per-player value, gradient and speed lattices plus solver metadata.

    For exponential-utility players ``values`` holds the log-transformed
    value; the raw value is -exp(-alpha * values).  ``grid`` is the given
    grid with its ``n_t`` and ``n_p`` set from ``times`` and ``prices``."""

    grid: GridSpec
    times: np.ndarray
    prices: np.ndarray
    values: np.ndarray
    gradients: np.ndarray
    speeds: np.ndarray
    aggregate_speed: np.ndarray
    meta: dict

    def __post_init__(self):
        object.__setattr__(self, "grid", replace(self.grid, n_t=self.times.size,
                                                 n_p=self.prices.size))
        for name in ("times", "prices", "values", "gradients", "speeds", "aggregate_speed"):
            getattr(self, name).setflags(write=False)

    @property
    def n_players(self) -> int:
        return self.values.shape[0]

    def value_at(self, player: int, t: float, p: float) -> float:
        """Bilinear interpolation of one player's value surface."""
        row = _time_blend(self.values[player], *_time_weight(self.times, t))
        return float(np.interp(p, self.prices, row))


def _time_weight(times: np.ndarray, t: float) -> tuple:
    """The layer k and weight w that interpolate linearly in time at t,
    clamped to the time axis: the blend is (1 - w) layers[k] + w layers[k + 1]."""
    t = float(np.clip(t, times[0], times[-1]))
    k = int(np.searchsorted(times, t, side="right") - 1)
    k = min(max(k, 0), times.size - 2)
    return k, (t - times[k]) / (times[k + 1] - times[k])


def _time_blend(layers: np.ndarray, k: int, w: float) -> np.ndarray:
    return (1.0 - w) * layers[k] + w * layers[k + 1]


@dataclass(frozen=True)
class ResidualReport:
    per_player: np.ndarray
    overall: float


# ---------------------------------------------------------------------------
# shared per-layer helpers
# ---------------------------------------------------------------------------


def _meta(scheme: str, cert, bound: float, **extra) -> dict:
    """The metadata every route records, then the route's own keys."""
    return {"scheme": scheme, "certificate": cert, "speed_bound": bound,
            "root_tol": ROOT_TOL, **extra}


def _lattice_solution(game: GameSpec, grid: GridSpec, cert, times: np.ndarray,
                      values: np.ndarray, meta: dict) -> Solution:
    """A Solution whose fields come from one whole-lattice equilibrium_fields call."""
    grads = central_gradient(values, grid.dp)
    speeds, agg, _ = equilibrium_fields(game, cert.eps_floor, grads)
    return Solution(grid, times, grid.prices, values, grads, speeds, agg, meta)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def _factor_tridiagonal(ab) -> list:
    """LAPACK ``dgttrf`` of the tridiagonal matrix in (1, 1)-banded storage
    ``ab``: the factors that ``solve_banded`` takes."""
    from scipy.linalg.lapack import dgttrf

    *factors, info = dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
    if info != 0:
        raise SolverError(f"the diffusion matrix is singular (dgttrf info {info})")
    return factors


def solve_banded(factors, b):
    """Solve with the factors of ``_factor_tridiagonal`` (LAPACK ``dgttrs``)
    for each column of ``b``.  Same bits as ``scipy.linalg.solve_banded((1, 1),
    ab, b)``, which hands a tridiagonal system to ``dgtsv``: both run the same
    partially pivoted elimination."""
    from scipy.linalg.lapack import dgttrs

    return dgttrs(*factors, b)[0]


def solve_fd(game: GameSpec, grid: GridSpec) -> Solution:
    """Backward finite-difference solution of the coupled value system.

    Implicit Euler handles the diffusion unconditionally; the advection,
    cost and exponential-utility terms are explicit, which imposes
    dt <= dp / (2 (lambda N B + sigma^2 max_j alpha_j max_j sup|H^j_p|)) with
    B the a-priori speed bound.  The time grid is refined automatically if
    the requested one violates that bound.  Boundary rows impose a zero
    second derivative (payoffs are flat or linear six standard deviations
    from the spot).  The diffusion matrix is the same on every layer, so it
    is factored once.  Each layer's speed root starts from the time
    extrapolation 2 z[k+1] - z[k+2] of the roots already stored (from z[k+1]
    on the layer below maturity); ``meta["root_sweeps"]`` records the Newton
    sweeps per layer, its max and mean (0 for an exact root).
    """
    market = game.market
    grid.validate_for(market)
    cert = certify_for_game(game)
    bound = apriori_speed_bound(game, cert)
    n = game.n_players

    prices = grid.prices
    dp = grid.dp
    drift_cap = 2.0 * (market.lam * n * bound
                       + market.sigma**2 * float(np.max(game.alphas)) * game.max_payoff_slope())
    dt_cap = dp / drift_cap if drift_cap > 0 else math.inf
    n_t = grid.n_t
    if market.maturity / (n_t - 1) > dt_cap:
        n_t = int(math.ceil(market.maturity / dt_cap)) + 1
    times = np.linspace(0.0, market.maturity, n_t)
    dt = times[1] - times[0]

    values = np.empty((n, n_t, prices.size))
    values[:, -1] = game.payoff_layer(prices)
    grads = np.empty_like(values)
    speeds = np.empty_like(values)
    agg = np.empty((n_t, prices.size))

    # (I - dt sigma^2/2 D2) with identity boundary rows, banded storage
    c = dt * market.sigma**2 / (2.0 * dp**2)
    ab = np.zeros((3, prices.size))
    ab[0, 2:] = -c
    ab[1, :] = 1.0 + 2.0 * c
    ab[1, 0] = ab[1, -1] = 1.0
    ab[2, :-2] = -c
    factors = _factor_tridiagonal(ab)

    # layer k's fields are stored and drive the step to layer k - 1
    sweeps: list = []
    for k in range(n_t - 1, -1, -1):
        grads[:, k] = central_gradient(values[:, k], dp)
        if k == n_t - 1:
            start = None
        elif k == n_t - 2:
            start = agg[k + 1]
        else:
            start = 2.0 * agg[k + 1] - agg[k + 2]
        speeds[:, k], agg[k], source = equilibrium_fields(game, cert.eps_floor, grads[:, k],
                                                          start, sweeps)
        if k > 0:
            rhs = values[:, k] + dt * source
            if not np.all(np.isfinite(rhs)):
                raise SolverError(f"the march overflowed stepping back from time layer {k} "
                                  f"of {n_t}; the explicit step is unstable on this grid")
            values[:, k - 1] = solve_banded(factors, rhs.T).T

    meta = _meta("fd-implicit-euler", cert, bound, n_t_requested=grid.n_t, n_t_used=n_t,
                 root_sweeps={"max": max(sweeps), "mean": sum(sweeps) / len(sweeps)})
    return Solution(grid, times, prices, values, grads, speeds, agg, meta)


# ---------------------------------------------------------------------------
# Picard / semigroup
# ---------------------------------------------------------------------------


def solve_picard(game: GameSpec, grid: GridSpec) -> Solution:
    """Fixed-point solution of the mild form on subintervals of length tau.

    Within each subinterval, split into ``PICARD_SUBLAYERS`` quadrature
    sub-layers, the map v -> e^{tL} h + int e^{(t-s)L} F(v_p) ds is iterated
    until the sup-change is at most ``PICARD_TOL``, for at most
    ``PICARD_MAX_ITER`` iterations; the subinterval solutions are
    concatenated.  tau starts at ``PICARD_TAU_FRACTION`` times the horizon.
    If the sup-change grows two iterations in a row the step is declared
    non-contracting and tau is halved, at most ``PICARD_MAX_HALVINGS`` times
    (a uniform contraction step exists, but its size is problem dependent).
    """
    market = game.market
    grid.validate_for(market)
    cert = certify_for_game(game)
    bound = apriori_speed_bound(game, cert)
    tau = PICARD_TAU_FRACTION * market.maturity

    last_err: Exception | None = None
    for halving in range(PICARD_MAX_HALVINGS + 1):
        try:
            values, times, log = _picard_march(game, grid, cert, tau)
            break
        except _NonContraction as err:
            last_err = err
            tau *= 0.5
    else:
        raise SolverError(f"Picard iteration kept diverging: {last_err}")

    meta = _meta("picard-semigroup", cert, bound, tau=tau, tau_halvings=halving,
                 sublayers=PICARD_SUBLAYERS, iteration_changes=log)
    return _lattice_solution(game, grid, cert, times, values, meta)


def _picard_march(game, grid, cert, tau):
    market = game.market
    horizon = market.maturity
    sig2 = market.sigma**2
    prices = grid.prices
    n = game.n_players
    m_sub = PICARD_SUBLAYERS
    n_tau = max(1, int(math.ceil(horizon / tau - 1e-12)))
    h = horizon / (n_tau * m_sub)  # sub-layer spacing in time to maturity

    n_lay = n_tau * m_sub + 1
    v_tau = np.empty((n, n_lay, prices.size))  # indexed by time to maturity
    v_tau[:, 0] = game.payoff_layer(prices)
    log: list[list[float]] = []

    for step in range(n_tau):
        base = step * m_sub
        h0 = v_tau[:, base]
        seed = np.stack([heat_convolve_grid(h0, prices, sig2 * m * h)
                         for m in range(m_sub + 1)])
        cur = seed

        changes: list[float] = []
        for _ in range(PICARD_MAX_ITER):
            # one call on the (player, sub-layer, price) stack; roots are per entry
            grads = central_gradient(np.ascontiguousarray(np.swapaxes(cur, 0, 1)), grid.dp)
            source = np.swapaxes(equilibrium_fields(game, cert.eps_floor, grads)[2], 0, 1)
            new = seed + duhamel_trapezoid(source, h, sig2, prices)
            change = float(np.max(np.abs(new - cur)))
            changes.append(change)
            cur = new
            if change <= PICARD_TOL:
                break
            if len(changes) >= 3 and changes[-1] > changes[-2] > changes[-3]:
                log.append(changes)
                raise _NonContraction(
                    f"sup-change grew two iterations in a row at step {step}: {changes[-3:]}"
                )
        else:
            raise SolverError(
                f"Picard step {step} did not reach {PICARD_TOL:g} "
                f"in {PICARD_MAX_ITER} iterations (last change {changes[-1]:g})"
            )
        log.append(changes)
        v_tau[:, base + 1 : base + m_sub + 1] = np.swapaxes(cur[1:], 0, 1)

    values = v_tau[:, ::-1]  # reindex from time-to-maturity to calendar time
    times = np.linspace(0.0, horizon, n_lay)
    return np.ascontiguousarray(values), times, log


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------


def solve_closed(game: GameSpec, grid: GridSpec) -> Solution:
    """Closed-form values on the lattice, from ``closedform.closed_form_values``:
    per-player Duhamel values for two or more risk-neutral players, otherwise
    the Cole-Hopf value of the one risk-neutral or exponential-utility player.

    ``closedform`` decides which games it covers; any other game raises its
    ClosedFormError before the cost is certified.
    """
    grid.validate_for(game.market)
    values = closed_form_values(game, grid)
    times = grid.times(game.market.maturity)
    cert = certify_for_game(game)
    bound = apriori_speed_bound(game, cert)
    meta = _meta("closed-form", cert, bound)
    return _lattice_solution(game, grid, cert, times, values, meta)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def residual(sol: Solution, game: GameSpec) -> ResidualReport:
    """Max absolute interior residual of the value system, all derivative
    terms recomputed with central differences from the stored values."""
    v = sol.values
    _, n_t, n_p = v.shape
    if n_t < 5 or n_p < 5:
        raise ValueError("residual needs at least a 5x5 grid")
    dt = sol.times[1] - sol.times[0]
    dp = sol.grid.dp  # the step every route takes its gradients with
    cert = sol.meta.get("certificate") or certify_for_game(game)

    inner = slice(1, -1)
    v_t = (v[:, 2:, :] - v[:, :-2, :]) / (2.0 * dt)
    v_pp = (v[:, :, 2:] - 2.0 * v[:, :, 1:-1] + v[:, :, :-2]) / dp**2
    grads = central_gradient(v, dp)[..., inner]
    # the stored roots start Newton; each root still passes the residual test
    _, _, source = equilibrium_fields(game, cert.eps_floor, grads,
                                      sol.aggregate_speed[:, inner])
    sig2 = game.market.sigma**2
    res = v_t[:, :, inner] + 0.5 * sig2 * v_pp[:, inner, :] + source[:, inner, :]
    per_player = np.max(np.abs(res), axis=(1, 2))
    return ResidualReport(per_player=per_player, overall=float(np.max(per_player)))


def surplus(sol: Solution, game: GameSpec, time_indices=None) -> np.ndarray:
    """Edge over never trading: v^j(t,p) minus the pure-diffusion expected
    (utility of the) payoff, variance sigma^2 (T - t), from
    ``heat_convolve_payoff``.  Both sides are on the utility scale: each
    player's utility maps the stored value, which is the identity for
    risk-neutral players."""
    rows = np.arange(sol.times.size) if time_indices is None else list(time_indices)
    variances = game.market.sigma**2 * (game.market.maturity - sol.times[rows])
    out = np.empty((sol.n_players, variances.size, sol.prices.size))
    for i, pl in enumerate(game.players):
        u, payoff = pl.utility, pl.endowment.value
        expected = heat_convolve_payoff(lambda x: u(payoff(x)), sol.prices, variances)
        out[i] = u(sol.values[i, rows]) - expected
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


CSV_FLOAT = "%.17g"  # every number a CSV holds, in full double precision
CSV_BLOCK_ROWS = 4096  # about this many lines are assembled per block

# ``_g17`` writes the bytes of ``CSV_FLOAT % x`` for a whole array.  A finite
# x != 0 with E = floor(log10|x|) has the 17 significant digits
# D = round(y), y = |x| 10^(16 - E) in [10^16, 10^17); D = 10^17 carries into
# the next power of ten.  y, as |x| times the double-double 10^(16 - E) =
# hi + lo with Dekker's exact two-product for |x| hi (Numer. Math. 18, 1971),
# is within about 1e-14 of its exact value, so D is exact unless y lies within
# ``_G17_TIE`` of a rounding tie.  Those entries, non-finite ones and those
# with |E| > ``_G17_EXP`` are formatted with ``%`` one at a time.  A y just
# under 10^16 (by at most 0.01) keeps E: at E - 1 it would carry back to
# D = 10^16.
_G17_EXP = 280  # the largest |E| the power table serves
_G17_WIDTH = 24  # the longest result, "-1.2345678901234567e-308"
_G17_TIE = 1e-6  # in units of the 17th digit
_G17_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter

# Byte offsets in the 24-byte source row of one number: the 16 digits after
# the leading one, NUL where %g strips them; the leading digit, the point
# (NUL when no digit follows it), '0' and the sign (NUL when positive); NULs.
_G17_LEAD, _G17_POINT, _G17_ZERO, _G17_SIGN, _G17_NUL = 16, 17, 18, 19, 20
_G17_DIGITS = (_G17_LEAD, *range(16))


@functools.cache
def _g17_tables() -> dict:
    """The tables ``_g17`` reads, built on first use.  For E in
    [-_G17_EXP - 1, _G17_EXP + 1]: 10^(16 - E) as hi + lo, hi also split into
    Dekker's head + tail, and the exponent bytes ("e+05", "e-308").  For
    0..9999: the ASCII of the four digits and the count of trailing zeros.
    For 0..8: the mask that keeps that many bytes of a uint64.  One
    layout template per class, fixed notation with X = -4..16 or exponent
    notation: the source-row byte of each output byte (the exponent is not in
    the source row)."""
    exps = range(-_G17_EXP - 1, _G17_EXP + 2)
    hi, lo = [], []
    for e in exps:
        # int -> float and int / int are correctly rounded in Python
        if e <= 16:
            power = 10 ** (16 - e)
            hi.append(float(power))
            lo.append(float(power - int(hi[-1])))
        else:
            den = 10 ** (e - 16)
            hi.append(1 / den)
            num, hi_den = hi[-1].as_integer_ratio()
            lo.append((hi_den - num * den) / (hi_den * den))
    hi = np.array(hi)
    split = _G17_SPLIT * hi
    head = split - (split - hi)

    quads = np.arange(10_000)
    ascii4 = np.stack([quads // 1000, quads // 100 % 10, quads // 10 % 10, quads % 10], axis=1)
    zeros4 = sum((quads % 10**k == 0).astype(np.int64) for k in range(1, 5))

    exponent = np.zeros((len(exps), 5), np.uint8)
    for i, e in enumerate(exps):
        text = b"e%+03d" % e
        exponent[i, :len(text)] = list(text)
    keep = np.array([(1 << 8 * n) - 1 for n in range(9)], np.uint64)

    templates = np.full((22, _G17_WIDTH), _G17_NUL, np.intp)
    digits = _G17_DIGITS
    for cls in range(22):
        if cls == 21:  # d.ddde+XX
            body = [digits[0], _G17_POINT, *digits[1:]]
        elif cls >= 4:  # X = cls - 4 >= 0: X + 1 digits before the point
            body = [*digits[:cls - 3], _G17_POINT, *digits[cls - 3:]]
        else:  # X = cls - 4 < 0: 0.000ddd
            body = [_G17_ZERO, _G17_POINT, *[_G17_ZERO] * (3 - cls), *digits]
        templates[cls, :len(body) + 1] = [_G17_SIGN, *body]

    tables = {
        "hi": hi, "head": head, "tail": hi - head, "lo": np.array(lo),
        "ascii4": (ascii4 + ord("0")).astype(np.uint8).view("<u4").ravel(), "zeros4": zeros4,
        "keep": keep, "exponent": exponent, "templates": templates,
    }
    for table in tables.values():
        table.setflags(write=False)  # shared by every call
    return tables


def _g17_scaled(a: np.ndarray, e: np.ndarray):
    """|x| 10^(16 - e) as p + t: p = fl(a hi) and t its rounding error, which
    Dekker's two-product gives exactly, plus a lo."""
    tab = _g17_tables()
    i = e + (_G17_EXP + 1)
    hi, head, tail = tab["hi"][i], tab["head"][i], tab["tail"][i]
    split = _G17_SPLIT * a
    a_head = split - (split - a)
    a_tail = a - a_head
    p = a * hi
    err = ((a_head * head - p) + a_head * tail + a_tail * head) + a_tail * tail
    return p, err + a * tab["lo"][i]


def _g17_digits(x: np.ndarray):
    """The 17 significant digits D of each entry as an int64 (0 for zeros),
    its decimal exponent E after rounding, and the mask of the entries left
    to ``%``, on which D and E are 0."""
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    fast = np.abs(e) <= _G17_EXP  # False for zeros, infinities and nan
    a = np.where(fast, a, 1.0)
    e = np.where(fast, e, 0.0).astype(np.int64)
    p, t = _g17_scaled(a, e)
    # log10 can round across a power of ten; p - 10^k is exact near 10^k
    off = ((p - 1e17) + t >= 0).astype(np.int64) - ((p - 1e16) + t < -0.01)
    redo = np.flatnonzero(off)
    if redo.size:
        e[redo] += off[redo]
        p[redo], t[redo] = _g17_scaled(a[redo], e[redo])
    whole = np.floor(t)
    frac = t - whole
    digits = p.astype(np.int64) + whole.astype(np.int64) + (frac >= 0.5)
    carry = digits == 10**17  # rounded up to the next power of ten
    digits[carry] = 10**16
    e += carry
    ok = fast & (digits >= 10**16) & (digits < 10**17) & (np.abs(frac - 0.5) >= _G17_TIE)
    return np.where(ok, digits, 0), np.where(ok, e, 0), ~ok & (x != 0)


def _g17(x: np.ndarray) -> np.ndarray:
    """``CSV_FLOAT % v`` for every entry v of the float array x, as rows of
    ``_G17_WIDTH`` ASCII bytes padded with NULs, in the order of ``x.ravel()``.
    The %g rules: fixed notation for -4 <= X <= 16, else d.ddde+XX; trailing
    zeros of the fraction and a point with no digit after it are dropped."""
    x = np.ravel(x)
    tab = _g17_tables()
    digits, e, slow = _g17_digits(x)
    lead = digits // 10**16
    rest = digits - lead * 10**16
    upper = rest // 10**8
    lower = rest - upper * 10**8
    quads = (upper // 10**4, upper % 10**4, lower // 10**4, lower % 10**4)
    zeros4 = tab["zeros4"]
    zeros = zeros4[quads[3]]
    left = np.flatnonzero(quads[3] == 0)  # the last four digits are zeros: look further left
    if left.size:
        q1, q2, q3 = (quad[left] for quad in quads[:3])
        zeros[left] += np.where(q3 > 0, zeros4[q3], 4 + np.where(
            q2 > 0, zeros4[q2], 4 + zeros4[q1]))
    fixed = (e >= -4) & (e <= 16)
    point = np.where(fixed, np.maximum(e + 1, 0), 1)  # digits before the point
    shown = np.maximum(17 - zeros, point)  # digits printed

    src = np.zeros((x.size, _G17_WIDTH // 4), np.uint32)
    for col, quad in enumerate(quads):
        src[:, col] = tab["ascii4"][quad]
    src[:, 4] = (lead + (ord("0") | ord("0") << 16) + (shown > point) * (ord(".") << 8)
                 + np.signbit(x) * (ord("-") << 24))
    after = shown - 1  # digits shown after the leading one, 8 per uint64
    src64 = src.view(np.uint64)
    src64[:, 0] &= tab["keep"][np.minimum(after, 8)]
    src64[:, 1] &= tab["keep"][np.clip(after - 8, 0, 8)]
    src = src.view(np.uint8)

    cls = np.where(fixed, e + 4, 21)
    out = np.empty((x.size, _G17_WIDTH), np.uint8)
    templates = tab["templates"]
    for k in np.flatnonzero(np.bincount(cls, minlength=len(templates))):
        rows = np.flatnonzero(cls == k)
        out[rows] = src[rows][:, templates[k]]
    rows = np.flatnonzero(~fixed)
    out[rows, -5:] = tab["exponent"][e[rows] + (_G17_EXP + 1)]
    for i in np.flatnonzero(slow):
        text = (CSV_FLOAT % float(x[i])).encode()
        out[i] = 0
        out[i, :len(text)] = list(text)
    return out


def _csv_lines(cells: np.ndarray) -> bytes:
    """The CSV lines of ``cells``, (lines, columns, _G17_WIDTH + 1) bytes whose
    first ``_G17_WIDTH`` bytes per cell hold a number from ``_g17``; the last
    byte becomes the delimiter or the line end, and the NULs are dropped."""
    cells[..., -1] = ord(",")
    cells[:, -1, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0")


def _write_table(path, header, blocks) -> None:
    """The package's one CSV dialect: a header row of column names, comma
    delimiters, no comment prefix and every number in ``CSV_FLOAT``, written
    by ``_g17``.  ``blocks`` yields 2-D arrays of rows."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for block in blocks:
            block = np.asarray(block, dtype=float)
            for r in range(0, len(block), CSV_BLOCK_ROWS):
                part = block[r:r + CSV_BLOCK_ROWS]
                cells = np.empty((*part.shape, _G17_WIDTH + 1), np.uint8)
                cells[..., :-1] = _g17(part).reshape(*part.shape, _G17_WIDTH)
                fh.write(_csv_lines(cells))


def _write_lattice_csv(path, rows, cols, fields: dict) -> None:
    """Long form of lattices over two axes, row-major, in the dialect of
    ``_write_table``: one line per (row, col) pair holding both axis values,
    then one column per field.  ``rows`` and ``cols`` are (name, axis) pairs;
    each field has shape (rows, cols).  Each axis value is formatted once, and
    a few axis rows at a time are assembled into lines, so memory stays flat."""
    (row_name, row_axis), (col_name, col_axis) = rows, cols
    values = [np.asarray(field, dtype=float) for field in fields.values()]
    row_text = _g17(np.asarray(row_axis, dtype=float))
    col_text = _g17(np.asarray(col_axis, dtype=float))
    n_cols, width = len(col_text), 2 + len(values)
    step = max(1, CSV_BLOCK_ROWS // n_cols)
    with open(path, "wb") as fh:
        fh.write((",".join([row_name, col_name, *fields]) + "\n").encode())
        for r in range(0, len(row_text), step):
            block = np.stack([field[r:r + step] for field in values], axis=-1)
            cells = np.empty((len(block), n_cols, width, _G17_WIDTH + 1), np.uint8)
            cells[:, :, 0, :-1] = row_text[r:r + step, None]
            cells[:, :, 1, :-1] = col_text
            cells[:, :, 2:, :-1] = _g17(block).reshape(*block.shape, _G17_WIDTH)
            fh.write(_csv_lines(cells.reshape(-1, width, _G17_WIDTH + 1)))


def write_solution_csv(sol: Solution, path) -> None:
    """Row-major (t, p) dump in full double precision."""
    n = sol.n_players
    fields = {
        **{f"v_{j+1}": sol.values[j] for j in range(n)},
        **{f"grad_{j+1}": sol.gradients[j] for j in range(n)},
        **{f"speed_{j+1}": sol.speeds[j] for j in range(n)},
        "agg_speed": sol.aggregate_speed,
    }
    _write_lattice_csv(path, ("t", sol.times), ("p", sol.prices), fields)


SOLUTION_ARRAYS = ("times", "prices", "values", "gradients", "speeds", "aggregate_speed")


def write_solution_npz(sol: Solution, path) -> None:
    """The solution's arrays, uncompressed, and its ``meta`` as one JSON
    string (the certificate as a plain dict), so loading unpickles nothing."""
    meta = json.dumps(sol.meta, default=asdict, sort_keys=True)
    np.savez(path, meta=np.array(meta), **{name: getattr(sol, name) for name in SOLUTION_ARRAYS})


def read_solution_npz(file, grid: GridSpec) -> Solution:
    """Load what ``write_solution_npz`` wrote, from a path or a binary file
    object; the grid comes from the config that produced it and takes its
    sizes from the arrays.  ``meta["certificate"]`` is a ``CostCertificate``
    again."""
    with np.load(file, allow_pickle=False) as data:
        arrays = [data[name] for name in SOLUTION_ARRAYS]
        meta = json.loads(data["meta"].item())
    if "certificate" in meta:
        meta["certificate"] = CostCertificate(**meta["certificate"])
    return Solution(grid, *arrays, meta)
