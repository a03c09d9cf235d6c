"""Equilibrium trading-speed algebra.

The aggregate speed is the root of the first-order condition

    N g(z) + z g'(z) = S,

where S sums the players' effective value gradients (lambda * v_p for
risk-neutral players, lambda * transformed v_p for exponential utility).
Monotonicity of z -> N g(z) + z g'(z) makes the root unique, and the slope
floor g' > eps gives an analytic bracket |z| <= |S| / ((N+1) eps).  The
bracket's sign change is checked first, whatever the cost.  A cost whose
root has a closed form supplies it (the linear cost: z = S / ((N+1) kappa));
every other cost supplies g'', and Newton steps, with derivative
(N+1) g' + z g'', run inside the shrinking bracket, bisecting whenever a
step would leave it or would not be shorter than half the step before last
(the guard of Numerical Recipes' rtsafe, without which Newton can cycle on a
kinked cost from a start far from the root).  Newton starts at 0, or at a
caller's guess clipped into the bracket (the finite-difference march passes
the root extrapolated from the layers before); every entry iterates on its
own either way, and the guess only changes how many steps it takes.  A
Newton sweep runs over the whole array and updates only the entries whose
residual has not passed, so the roots of a stack of games (a cost from
``model.stack_costs`` and one slope floor per game, as (B, 1) columns) come
from one call per layer, each game's on its own row and bit for bit as in a
call of its own.  The root evaluates the cost through ``cost.evaluate``,
which returns g, g' and g'' from one call: once for both bracket ends,
stacked, and once per Newton sweep.  Each player's speed and the PDE source
term follow pointwise from the root (``equilibrium_fields``, the one place
every solver takes them from), with the g(z*) and g'(z*) of the root's last
sweep, not evaluated again.

``certify_for_game`` certifies eps by sampling (g' above its cost kind's
``SLOPE_FLOOR``, increasing marginal cost) and returns the certificate with
the a-priori speed bound N (lambda / eps) max_j sup|H^j_p| the solvers use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CostFunction, GameSpec

__all__ = [
    "CertificationError",
    "SpeedSolverError",
    "CostCertificate",
    "certify_cost",
    "certify_for_game",
    "apriori_speed_bound",
    "aggregate_speed_many",
    "equilibrium_fields",
]


class CertificationError(RuntimeError):
    """The cost function failed its admissibility scan."""


class SpeedSolverError(RuntimeError):
    """Root bracketing or iteration failure in the speed equation."""


@dataclass(frozen=True)
class CostCertificate:
    """Result of scanning g' and the marginal cost over a working interval."""

    eps_floor: float
    marginal_monotone: bool
    z_lo: float
    z_hi: float
    samples: int

    def covers(self, z_abs: float) -> bool:
        return self.z_lo <= -z_abs and self.z_hi >= z_abs


ROOT_TOL = 1e-12  # bracket width and residual scale of the speed root
MAX_ITER = 200
CERT_SAMPLES = 2001  # uniform sample size of the cost scan


def certify_cost(cost: CostFunction, interval) -> CostCertificate:
    """Scan g' and g + z g' over ``CERT_SAMPLES`` uniform points of the
    working interval.

    Returns a certificate whose ``eps_floor`` is the scanned minimum of g'
    shaved by 1% (the safety margin absorbs sampling error).  Raises
    CertificationError when the scan finds a nonpositive slope, a slope
    below the ``SLOPE_FLOOR`` its cost kind declares, or a non-increasing
    marginal cost.
    """
    z_lo, z_hi = float(interval[0]), float(interval[1])
    if not z_lo < 0.0 < z_hi:
        raise ValueError("working interval must contain 0")
    zs = np.linspace(z_lo, z_hi, CERT_SAMPLES)
    values, slopes, _ = cost.evaluate(zs)
    slopes = np.asarray(slopes, dtype=float)
    min_slope = float(np.min(slopes))
    if min_slope <= 0.0:
        raise CertificationError(
            f"g' reaches {min_slope:.3g} <= 0 on [{z_lo:g}, {z_hi:g}]; cost is inadmissible"
        )
    eps = 0.99 * min_slope
    if eps < cost.SLOPE_FLOOR:
        raise CertificationError(
            f"certified slope floor {eps:.3g} falls below the declared eps_floor "
            f"{cost.SLOPE_FLOOR:.3g} on [{z_lo:g}, {z_hi:g}]"
        )
    marginal = np.asarray(values, dtype=float) + zs * slopes
    if not bool(np.all(np.diff(marginal) > 0.0)):
        raise CertificationError(
            f"z -> g(z) + z g'(z) is not strictly increasing on [{z_lo:g}, {z_hi:g}]"
        )
    return CostCertificate(
        eps_floor=eps, marginal_monotone=True, z_lo=z_lo, z_hi=z_hi, samples=CERT_SAMPLES
    )


def certify_for_game(game: GameSpec) -> tuple[CostCertificate, float]:
    """The certificate of the game's cost and the a-priori speed bound it
    covers: a table is certified on its domain, which must cover the bound,
    any other cost on an interval grown until it does."""
    cost = game.cost
    if all(math.isfinite(d) for d in cost.domain):
        cert = certify_cost(cost, cost.domain)
        return cert, apriori_speed_bound(game, cert)
    interval = (-1.0, 1.0)
    for _ in range(4):
        cert = certify_cost(cost, interval)
        bound = _speed_bound(game, cert.eps_floor)
        if cert.covers(bound):
            return cert, bound
        reach = 1.05 * bound + 1.0
        interval = (-reach, reach)
    raise CertificationError("could not certify an interval covering the speed bound")


def _speed_bound(game: GameSpec, eps: float) -> float:
    return game.n_players * (game.market.lam / eps) * game.max_payoff_slope()


def apriori_speed_bound(game: GameSpec, cert: CostCertificate) -> float:
    """Uniform equilibrium speed bound N (lambda / eps) max_j sup|H^j_p|;
    raises CertificationError when the certificate's interval does not cover it."""
    bound = _speed_bound(game, cert.eps_floor)
    if not cert.covers(bound):
        raise CertificationError(
            f"working interval [{cert.z_lo:g}, {cert.z_hi:g}] does not cover the "
            f"a-priori speed range +/-{bound:g}"
        )
    return bound


def aggregate_speed_many(cost: CostFunction, n_players: int, grad_sums, eps_floor,
                         start=None, sweeps: list | None = None):
    """Vectorized root of N g(z) + z g'(z) = S for an array of S values.

    The returned z solves the equation to |residual| <= N * eps * ROOT_TOL,
    so it sits within that residual over the slope (N+1) g' + z g'' of the
    exact root.  Newton starts from ``start`` (an array of S's shape, which
    must be finite) clipped into the bracket, or from 0 without one; an exact
    root ignores it.  Each entry iterates on its own from its own start until
    its residual passes: a sweep evaluates the whole array and updates only
    the entries not yet solved, so a root does not depend on the others in
    the call.  ``eps_floor`` may be an array that broadcasts against S, with
    a cost from ``model.stack_costs``: the (B, 1) columns of a stack of games,
    each game's roots on its own row of a (B, P) array of sums.  When
    ``sweeps`` is a list, the number of Newton sweeps the call took is
    appended to it (0 for an exact root; on a stack, the sweeps its slowest
    entry took).
    """
    return _speed_root(cost, n_players, grad_sums, eps_floor, start, sweeps)[0]


def _speed_root(cost: CostFunction, n_players: int, grad_sums, eps_floor, start, sweeps):
    """``aggregate_speed_many``'s root z with g(z) and g'(z), from one
    ``cost.evaluate`` call for both bracket ends and one per Newton sweep;
    the last sweep's g and g' are returned, not evaluated again (an exact
    root is evaluated once)."""
    s = np.atleast_1d(np.asarray(grad_sums, dtype=float))
    if not np.isfinite(s).all():
        raise SpeedSolverError("gradient sums must be finite")
    half = np.abs(s) / ((n_players + 1) * eps_floor) + ROOT_TOL
    d_lo, d_hi = cost.domain
    # both ends in one evaluation; lo and hi stay views of it and narrow in place
    ends = np.empty((2,) + half.shape)
    lo = np.maximum(np.negative(half, out=ends[0]), d_lo, out=ends[0])
    hi = np.minimum(half, d_hi, out=ends[1])
    g, gp, _ = cost.evaluate(ends)
    phi = n_players * g + ends * gp - s
    if (phi[0] > 0.0).any() or (phi[1] < 0.0).any():
        raise SpeedSolverError(
            "root bracket does not straddle a sign change; cost certificate invalid"
        )
    exact = cost.exact_speed_root(n_players, s)
    if exact is not None:
        if sweeps is not None:
            sweeps.append(0)
        g, gp, _ = cost.evaluate(exact)
        return exact, g, gp
    f_tol = n_players * eps_floor * ROOT_TOL
    if start is None:
        z = np.zeros(half.shape)  # every bracket holds 0
    else:
        z = np.broadcast_to(np.asarray(start, dtype=float), s.shape)
        # checked before np.clip, which keeps NaN (and |NaN| > f_tol is
        # False, so NaN would pass as a root) and turns +-inf into an end
        if not np.isfinite(z).all():
            raise SpeedSolverError("the root's start must be finite")
        z = np.clip(z, lo, hi)
    # each entry's last two step lengths, for the rtsafe guard, and its next z
    last = np.full(half.shape, np.inf)
    before = np.full(half.shape, np.inf)
    z_new = np.empty(half.shape)
    for sweep in range(MAX_ITER):
        g, gp, gpp = cost.evaluate(z)
        f = n_players * g + z * gp - s
        unsolved = np.abs(f) > f_tol
        if not unsolved.any():
            break
        # a solved entry's bracket, step and step lengths are updated too but
        # never read: its z is kept, so its residual keeps passing.  A
        # comparison with NaN is False, so a failed step bisects
        np.copyto(lo, z, where=f < 0.0)
        np.copyto(hi, z, where=f > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = z - f / ((n_players + 1) * gp + z * gpp)
            newton = (step > lo) & (step < hi) & (np.abs(step - z) < 0.5 * before)
        np.multiply(np.add(lo, hi, out=z_new), 0.5, out=z_new)
        np.copyto(z_new, step, where=newton)
        # the step length goes into the buffer of the one before last, which is spent
        np.abs(np.subtract(z_new, z, out=before), out=before)
        before, last = last, before
        np.copyto(z, z_new, where=unsolved)
    else:
        raise SpeedSolverError(f"speed root did not converge in {MAX_ITER} iterations")
    if sweeps is not None:
        sweeps.append(sweep)
    return z, g, gp


def equilibrium_fields(game: GameSpec, eps_floor, gradients, start=None,
                       sweeps: list | None = None):
    """Per-player gradients (N, ...) -> speeds (N, ...), aggregate speed and
    the nonlinear source term (N, ...) of the value equations.  ``eps_floor``
    (a number, or a stack's (B, 1) column), ``start`` and ``sweeps`` mean
    what they do in ``aggregate_speed_many``, whose root this takes together
    with the g(z*) and g'(z*) of its last sweep.

    The aggregate speed z* is the root of N g(z) + z g'(z) = lambda sum_j v^j_p;
    player j trades at (lambda v^j_p - g(z*)) / g'(z*), well defined because
    g' >= eps > 0, and the speeds sum back to z* up to N * ROOT_TOL.  The source
    is z* lambda v^j_p - speed_j g(z*), minus sigma^2 alpha_j / 2 (v^j_p)^2 for
    exponential-utility players.
    """
    grads = np.asarray(gradients, dtype=float)
    eff = game.market.lam * grads
    z_star, g_z, gp_z = _speed_root(game.cost, game.n_players, eff.sum(axis=0), eps_floor,
                                    start, sweeps)
    speeds = (eff - g_z) / gp_z
    source = z_star * eff - speeds * g_z
    alphas = game.alphas
    if alphas.any():
        sig2 = game.market.sigma**2
        source = source - 0.5 * sig2 * alphas.reshape((-1,) + (1,) * (grads.ndim - 1)) * grads**2
    return speeds, z_star, source
