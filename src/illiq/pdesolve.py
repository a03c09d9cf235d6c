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
                   multiplier of ``heat_convolve_grid`` (one transform pair
                   for a step's seeds at every sub-layer) and the integral by
                   the trapezoid recursion ``duhamel_trapezoid`` on cosine
                   coefficients that the closed form shares (one pair per
                   iteration).  Serves as an independent oracle for the
                   finite-difference route;
* ``solve_closed`` the lattice that ``closedform.closed_form_values`` builds
                   for the games it covers (linear cost with risk-neutral
                   players or one exponential-utility player).

Each route validates the grid, certifies the cost once and records the
certificate, the a-priori speed bound and the speed-root tolerance in
``Solution.meta``; terminal data comes from ``GameSpec.payoff_layer``.

The package has one march, ``_march``: it steps a stack of games that share
market, players and time grid, each with its own cost (linear or smoothed
spread, stacked by ``model.stack_costs``), laid out (players, games, prices)
so that one ``equilibrium_fields`` call and one banded solve serve the whole
stack, bit for bit as each game alone.  ``solve_fd`` is the stack of one
that keeps every layer; ``solve_fd_initial`` marches many games as one
stack per refined time grid and keeps only the three layers each step
reads, returning each game's t = 0 layer (``InitialLayers``), so its memory
does not grow with n_t.  ``solve_picard`` and ``solve_closed`` take their
lattice's fields, and ``residual`` its source terms, from one pass over
blocks of time layers, ``_field_blocks``, whose temporaries do not grow
with n_t either.  ``surplus`` and ``surplus_at`` share one formula.
A ``Solution`` has its own files: ``write_solution_csv`` hands its lattices
to ``manifest.write_csv``, which writes every numeric CSV of the package;
``write_solution_npz`` stores it in binary and
``read_solution_npz`` loads it back, exactly and without pickling, as
read-only views into the bytes it reads.

scipy is imported where it is used: ``scipy.linalg`` when ``_march``
factors its matrix (for ``solve_fd`` and ``solve_fd_initial`` alike), so
importing this module loads none of scipy.
"""

from __future__ import annotations

import io
import json
import math
import struct
import zipfile
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .closedform import (
    central_gradient,
    closed_form_values,
    duhamel_trapezoid,
    heat_convolve_grid,
    heat_convolve_payoff,
)
from .manifest import write_csv
from .model import GameSpec, GridSpec, stack_costs
from .speeds import (
    ROOT_TOL,
    CostCertificate,
    certify_for_game,
    equilibrium_fields,
)

__all__ = [
    "SolverError",
    "Solution",
    "ResidualReport",
    "InitialLayers",
    "solve_fd",
    "solve_fd_initial",
    "solve_picard",
    "solve_closed",
    "residual",
    "surplus",
    "surplus_at",
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

# lattice points per player in one block of the field pass: 32 kB per
# temporary, so a block's temporaries stay in cache
_BLOCK_POINTS = 4096


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
        (k,), (w,) = _time_weight(self.times, [t])
        return float(np.interp(p, self.prices, _time_blend(self.values[player], k, w)))


def _time_weight(times: np.ndarray, t) -> tuple:
    """The layers k and weights w that interpolate linearly in time at each
    of the times t, clamped to the time axis: the blend at t[i] is
    (1 - w[i]) layers[k[i]] + w[i] layers[k[i] + 1]."""
    t = np.clip(np.asarray(t, dtype=float), times[0], times[-1])
    k = np.clip(np.searchsorted(times, t, side="right") - 1, 0, times.size - 2)
    return k, (t - times[k]) / (times[k + 1] - times[k])


def _time_blend(layers: np.ndarray, k: int, w: float) -> np.ndarray:
    """The blend in time of ``value_at`` and of each Monte-Carlo step."""
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


def _field_blocks(game: GameSpec, eps, values: np.ndarray, dp: float, start=None):
    """The one pass that takes a value lattice's (N, n_t, n_p) fields, a
    block of ``max(1, _BLOCK_POINTS // n_p)`` time layers at a time: each
    block's layer slice, its ``central_gradient`` on the full price width
    and its ``equilibrium_fields`` (speeds, aggregate speed, source), the
    roots started from ``start[rows]`` when a start is given.  Every root
    iterates on its own, so the fields are bit for bit those of one call
    over the whole lattice, while the temporaries are one block's."""
    n_t, n_p = values.shape[1:]
    size = max(1, _BLOCK_POINTS // n_p)
    for k0 in range(0, n_t, size):
        rows = slice(k0, min(k0 + size, n_t))
        g = central_gradient(values[:, rows], dp)
        yield rows, g, equilibrium_fields(game, eps, g, None if start is None else start[rows])


def _lattice_solution(game: GameSpec, grid: GridSpec, cert, times: np.ndarray,
                      values: np.ndarray, meta: dict) -> Solution:
    """A Solution whose gradient, speed and aggregate lattices ``_field_blocks`` fills."""
    grads, speeds, agg = np.empty_like(values), np.empty_like(values), np.empty(values.shape[1:])
    for rows, g, (sp, z, _) in _field_blocks(game, cert.eps_floor, values, grid.dp):
        grads[:, rows], speeds[:, rows], agg[rows] = g, sp, z
    return Solution(grid, times, grid.prices, values, grads, speeds, agg, meta)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def _factor_tridiagonal(ab):
    """LAPACK ``dgttrf`` of the tridiagonal matrix in (1, 1)-banded storage
    ``ab``: the factors that ``solve_banded`` takes, with ``dgttrs`` bound to
    them once."""
    from scipy.linalg.lapack import dgttrf, dgttrs

    *factors, info = dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
    if info != 0:
        raise SolverError(f"the diffusion matrix is singular (dgttrf info {info})")
    return partial(dgttrs, *factors)


def solve_banded(factors, b):
    """Solve with the factors of ``_factor_tridiagonal`` (LAPACK ``dgttrs``)
    for each column of ``b``.  Same bits as ``scipy.linalg.solve_banded((1, 1),
    ab, b)``, which hands a tridiagonal system to ``dgtsv``: both run the same
    partially pivoted elimination."""
    return factors(b)[0]


def _fd_layers(game: GameSpec, grid: GridSpec, bound: float) -> int:
    """The time layers the march takes: the grid's ``n_t``, or more when its
    step breaks the explicit terms' bound (see ``solve_fd``)."""
    market = game.market
    drift_cap = 2.0 * (market.lam * game.n_players * bound
                       + market.sigma**2 * float(np.max(game.alphas)) * game.max_payoff_slope())
    dt_cap = grid.dp / drift_cap if drift_cap > 0 else math.inf
    n_t = grid.n_t
    if market.maturity / (n_t - 1) > dt_cap:
        n_t = int(math.ceil(market.maturity / dt_cap)) + 1
    return n_t


def _march(games, certs, grid: GridSpec, n_t: int, depth: int):
    """The backward march of a stack of B games that share market, players
    and the time grid of ``n_t`` layers, each with its own cost and
    certificate.  Every field is laid out (players, layer, game, price), so
    one ``equilibrium_fields`` call takes a layer's (N, B, P) gradients with
    the cost of ``stack_costs`` and the certificates' (B, 1) slope floors,
    and one ``solve_banded`` call steps its N * B columns; each game's
    numbers are bit for bit those of a march of that game alone.  Layer k is
    kept in slot k % ``depth``: ``depth = n_t`` keeps every layer, and
    ``depth = 3`` only the three that each step reads, the last of which is
    t = 0 (slot 0).  Returns the times, the value, gradient, speed and
    aggregate-speed slots, and the Newton sweeps of each layer's roots."""
    game = games[0]
    market = game.market
    n, b = game.n_players, len(games)
    stack = replace(game, cost=stack_costs([g.cost for g in games]))
    eps = np.array([cert.eps_floor for cert in certs])[:, None]

    prices = grid.prices
    dp = grid.dp
    times = np.linspace(0.0, market.maturity, n_t)
    dt = times[1] - times[0]

    values = np.empty((n, depth, b, prices.size))
    values[:, (n_t - 1) % depth] = game.payoff_layer(prices)[:, None]
    grads = np.empty_like(values)
    speeds = np.empty_like(values)
    agg = np.empty((depth, b, prices.size))

    # (I - dt sigma^2/2 D2) with identity boundary rows, banded storage
    c = dt * market.sigma**2 / (2.0 * dp**2)
    ab = np.zeros((3, prices.size))
    ab[0, 2:] = -c
    ab[1, :] = 1.0 + 2.0 * c
    ab[1, 0] = ab[1, -1] = 1.0
    ab[2, :-2] = -c
    factors = _factor_tridiagonal(ab)

    # layer k's fields are stored and drive the step to layer k - 1; its warm
    # start and right-hand side go into buffers that every layer reuses
    sweeps: list = []
    extrapolated = np.empty((b, prices.size))
    rhs = np.empty((n, b, prices.size))
    for k in range(n_t - 1, -1, -1):
        i = k % depth
        central_gradient(values[:, i], dp, out=grads[:, i])
        if k == n_t - 1:
            start = None
        elif k == n_t - 2:
            start = agg[(k + 1) % depth]
        else:
            start = np.subtract(np.multiply(agg[(k + 1) % depth], 2.0, out=extrapolated),
                                agg[(k + 2) % depth], out=extrapolated)
        speeds[:, i], agg[i], source = equilibrium_fields(stack, eps, grads[:, i], start, sweeps)
        if k > 0:
            np.add(values[:, i], np.multiply(source, dt, out=rhs), out=rhs)
            if not np.isfinite(rhs).all():
                raise SolverError(f"the march overflowed stepping back from time layer {k} "
                                  f"of {n_t}; the explicit step is unstable on this grid")
            columns = solve_banded(factors, rhs.reshape(n * b, -1).T)
            values[:, (k - 1) % depth] = columns.T.reshape(n, b, -1)
    return times, values, grads, speeds, agg, sweeps


def _max_mean(sweeps) -> dict:
    return {"max": max(sweeps), "mean": sum(sweeps) / len(sweeps)}


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
    sweeps per layer, its max and mean (0 for an exact root).  The march is
    ``_march`` on a stack of one game that keeps every layer.
    """
    grid.validate_for(game.market)
    cert, bound = certify_for_game(game)
    n_t = _fd_layers(game, grid, bound)
    times, values, grads, speeds, agg, sweeps = _march([game], [cert], grid, n_t, n_t)
    meta = _meta("fd-implicit-euler", cert, bound, n_t_requested=grid.n_t, n_t_used=n_t,
                 root_sweeps=_max_mean(sweeps))
    return Solution(grid, times, grid.prices, values[:, :, 0], grads[:, :, 0],
                    speeds[:, :, 0], agg[:, 0], meta)


@dataclass(frozen=True)
class InitialLayers:
    """The t = 0 layer of ``solve_fd`` for each game of a stack, in the
    order given: ``values``, ``gradients`` and ``speeds`` are (N, B, n_p),
    ``aggregate_speed`` is (B, n_p).  ``meta`` holds the plain numbers of
    the marches: the most layers a game took as ``n_t_used``, the number of
    ``marches`` (one per refined time grid) and the Newton sweeps per layer
    over all of them as ``root_sweeps`` (max and mean)."""

    values: np.ndarray
    gradients: np.ndarray
    speeds: np.ndarray
    aggregate_speed: np.ndarray
    meta: dict


def solve_fd_initial(games, grid: GridSpec) -> InitialLayers:
    """The t = 0 layers of ``solve_fd`` for games that share market and
    players and whose costs are all linear or all smoothed-spread, bit for
    bit, from one ``_march`` per refined time grid: the games whose
    certificates give the same ``n_t`` march as one stack that keeps only
    the layers each step reads, so memory does not grow with ``n_t``."""
    games = tuple(games)
    if not games:
        raise SolverError("solve_fd_initial needs at least one game; the stack is empty")
    game = games[0]
    for other in games[1:]:
        if other.market != game.market or other.players != game.players:
            raise SolverError("a stack of games shares its market and players")
    grid.validate_for(game.market)
    certs, bounds = zip(*(certify_for_game(g) for g in games))
    layers = [_fd_layers(g, grid, bound) for g, bound in zip(games, bounds)]
    n, b, n_p = game.n_players, len(games), grid.n_p
    values, grads, speeds = (np.empty((n, b, n_p)) for _ in range(3))
    agg = np.empty((b, n_p))
    sweeps: list = []
    groups = {n_t: [j for j in range(b) if layers[j] == n_t] for n_t in layers}
    for n_t, rows in groups.items():
        _, v, g, sp, z, sw = _march([games[j] for j in rows], [certs[j] for j in rows], grid,
                                    n_t, 3)
        values[:, rows], grads[:, rows], speeds[:, rows], agg[rows] = v[:, 0], g[:, 0], sp[:, 0], z[0]
        sweeps += sw
    meta = {"n_t_used": max(layers), "marches": len(groups), "root_sweeps": _max_mean(sweeps)}
    return InitialLayers(values, grads, speeds, agg, meta)


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
    ``meta`` records the layers written as ``n_t_used`` (PICARD_SUBLAYERS per
    step, whatever the grid's n_t), the iterations per step as
    ``iterations`` (max and mean) and each step's sup-changes as
    ``iteration_changes``.
    """
    market = game.market
    grid.validate_for(market)
    cert, bound = certify_for_game(game)
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

    iterations = [len(changes) for changes in log]
    meta = _meta("picard-semigroup", cert, bound, tau=tau, tau_halvings=halving,
                 sublayers=PICARD_SUBLAYERS, n_t_used=times.size,
                 iterations=_max_mean(iterations), iteration_changes=log)
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
        seed = heat_convolve_grid(h0, prices, sig2 * np.arange(m_sub + 1) * h)
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
    cert, bound = certify_for_game(game)
    meta = _meta("closed-form", cert, bound)
    return _lattice_solution(game, grid, cert, times, values, meta)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def residual(sol: Solution, game: GameSpec) -> ResidualReport:
    """Max absolute interior residual of the value system, all derivative
    terms recomputed with central differences from the stored values.

    One pass over the blocks of ``_field_blocks``, its roots started from the
    stored aggregate speed, keeps a running max per player.  The blocks
    cover every layer and price once, the ends included, so every root and
    every guard sees the entries of one whole-lattice call; the source is
    cropped to the interior.  Memory does not grow with n_t."""
    v = sol.values
    n, n_t, n_p = v.shape
    if n_t < 5 or n_p < 5:
        raise ValueError("residual needs at least a 5x5 grid")
    dt = sol.times[1] - sol.times[0]
    dp = sol.grid.dp  # the step every route takes its gradients with
    cert = sol.meta.get("certificate") or certify_for_game(game)[0]
    half_sig2 = 0.5 * game.market.sigma**2
    per_player = np.zeros(n)
    # the stored roots start Newton; each root still passes the residual test
    for rows, _, (_, _, source) in _field_blocks(game, cert.eps_floor, v, dp, sol.aggregate_speed):
        lo, hi = max(rows.start, 1), min(rows.stop, n_t - 1)  # the block's interior layers
        if lo == hi:
            continue
        v_t = (v[:, lo + 1:hi + 1, 1:-1] - v[:, lo - 1:hi - 1, 1:-1]) / (2.0 * dt)
        u = v[:, lo:hi]
        v_pp = (u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]) / dp**2
        res = v_t + half_sig2 * v_pp + source[:, lo - rows.start:hi - rows.start, 1:-1]
        np.maximum(per_player, np.max(np.abs(res), axis=(1, 2)), out=per_player)
    return ResidualReport(per_player=per_player, overall=float(np.max(per_player)))


def surplus(sol: Solution, game: GameSpec, time_indices=None) -> np.ndarray:
    """Edge over never trading: v^j(t,p) minus the pure-diffusion expected
    (utility of the) payoff, variance sigma^2 (T - t), on the solution's
    layers ``time_indices`` (all of them by default); ``surplus_at`` gives
    the formula."""
    rows = np.arange(sol.times.size) if time_indices is None else list(time_indices)
    return surplus_at(game, sol.values[:, rows], sol.times[rows], sol.prices)


def surplus_at(game: GameSpec, values, times, prices) -> np.ndarray:
    """The surplus of value layers ``values`` (N, m, P) at ``times`` (m
    times, or one time that all m layers share, such as the t = 0 layers of
    a stack of games): u_j(v^j) minus E[u_j(H^j(p + sigma sqrt(T - t) Z))]
    from ``heat_convolve_payoff``, one call per player.  Both sides are on
    the utility scale: each player's utility maps the stored value, which is
    the identity for risk-neutral players."""
    variances = game.market.sigma**2 * (game.market.maturity - np.asarray(times))
    out = np.empty(np.shape(values))
    for i, pl in enumerate(game.players):
        u, payoff = pl.utility, pl.endowment.value
        expected = heat_convolve_payoff(lambda x: u(payoff(x)), prices, variances)
        out[i] = u(values[i]) - expected
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def write_solution_csv(sol: Solution, path) -> None:
    """Row-major (t, p) dump in full double precision."""
    n = sol.n_players
    fields = {
        **{f"v_{j+1}": sol.values[j] for j in range(n)},
        **{f"grad_{j+1}": sol.gradients[j] for j in range(n)},
        **{f"speed_{j+1}": sol.speeds[j] for j in range(n)},
        "agg_speed": sol.aggregate_speed,
    }
    write_csv(path, (("t", sol.times), ("p", sol.prices)), fields)


SOLUTION_ARRAYS = ("times", "prices", "values", "gradients", "speeds", "aggregate_speed")


def write_solution_npz(sol: Solution, path) -> None:
    """The solution's arrays, uncompressed, and its ``meta`` as one JSON
    string (the certificate as a plain dict), so loading unpickles nothing.

    Each member holds the bytes ``np.savez`` would write, but the array's
    data goes out in 1 MB slices of a view of it, where ``np.savez`` copies
    each lattice whole through ``tobytes``."""
    meta = json.dumps(sol.meta, default=asdict, sort_keys=True)
    members = {"meta": np.array(meta), **{name: getattr(sol, name) for name in SOLUTION_ARRAYS}}
    piece = 1 << 20
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
        for name, array in members.items():
            header = np.lib.format.header_data_from_array_1_0(array)
            # the bytes in the member's order; a view unless the array is
            # neither C- nor Fortran-contiguous
            ordered = array.T if header["fortran_order"] else array
            data = memoryview(np.ascontiguousarray(ordered.reshape(-1)).view(np.uint8))
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(member, header)
                for start in range(0, len(data), piece):
                    member.write(data[start : start + piece])


def read_solution_npz(file, grid: GridSpec) -> Solution:
    """Load what ``write_solution_npz`` wrote, from a path, a binary file
    object or the file's bytes; the grid comes from the config that produced
    it and takes its sizes from the arrays.  ``meta["certificate"]`` is a
    ``CostCertificate`` again.  The writer stores every member uncompressed,
    so each array is a read-only view into the bytes read, which the load
    holds once; a compressed or truncated member raises ValueError."""
    if not isinstance(file, bytes):
        file = file.read() if hasattr(file, "read") else Path(file).read_bytes()
    arrays = {}
    with zipfile.ZipFile(io.BytesIO(file)) as archive:
        for name in ("meta", *SOLUTION_ARRAYS):
            info = archive.getinfo(f"{name}.npy")
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(f"{name}.npy is compressed; the solution writer stores it")
            with archive.open(info) as member:
                np.lib.format.read_magic(member)
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(member)
                header = member.tell()
            count = math.prod(shape)
            if header + count * dtype.itemsize != info.file_size:
                raise ValueError(f"{name}.npy holds {info.file_size - header} bytes of data, "
                                 f"not the {count * dtype.itemsize} its header describes")
            # the member's data follow its local header: 30 bytes, then its
            # file name and extra field, whose lengths end those 30 bytes
            names, extra = struct.unpack_from("<HH", file, info.header_offset + 26)
            start = info.header_offset + 30 + names + extra + header
            flat = np.frombuffer(file, dtype, count, start)
            arrays[name] = flat.reshape(shape, order="F" if fortran else "C")
    meta = json.loads(arrays.pop("meta").item())
    if "certificate" in meta:
        meta["certificate"] = CostCertificate(**meta["certificate"])
    return Solution(grid, *arrays.values(), meta)
