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
step would leave it.  Each player's speed and the PDE source term follow
pointwise from the root (``equilibrium_fields``, the one place every solver
takes them from).
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


def certify_cost(cost: CostFunction, interval=None) -> CostCertificate:
    """Scan g' and g + z g' over ``CERT_SAMPLES`` uniform points of the
    working interval.

    Returns a certificate whose ``eps_floor`` is the scanned minimum of g'
    shaved by 1% (the safety margin absorbs sampling error).  Raises
    CertificationError when the scan finds a nonpositive slope, a slope
    below the cost function's declared ``eps_floor``, or a non-increasing
    marginal cost.
    """
    if interval is None:
        interval = cost.domain if _bounded(cost) else (-100.0, 100.0)
    z_lo, z_hi = float(interval[0]), float(interval[1])
    if not z_lo < 0.0 < z_hi:
        raise ValueError("working interval must contain 0")
    zs = np.linspace(z_lo, z_hi, CERT_SAMPLES)
    slopes = np.asarray(cost.slope(zs), dtype=float)
    min_slope = float(np.min(slopes))
    if min_slope <= 0.0:
        raise CertificationError(
            f"g' reaches {min_slope:.3g} <= 0 on [{z_lo:g}, {z_hi:g}]; cost is inadmissible"
        )
    eps = 0.99 * min_slope
    if eps < cost.eps_floor:
        raise CertificationError(
            f"certified slope floor {eps:.3g} falls below the declared eps_floor "
            f"{cost.eps_floor:.3g} on [{z_lo:g}, {z_hi:g}]"
        )
    marginal = np.asarray(cost.value(zs), dtype=float) + zs * slopes
    if not bool(np.all(np.diff(marginal) > 0.0)):
        raise CertificationError(
            f"z -> g(z) + z g'(z) is not strictly increasing on [{z_lo:g}, {z_hi:g}]"
        )
    return CostCertificate(
        eps_floor=eps, marginal_monotone=True, z_lo=z_lo, z_hi=z_hi, samples=CERT_SAMPLES
    )


def certify_for_game(game: GameSpec) -> CostCertificate:
    """Certify the game's cost on an interval wide enough for its own
    equilibrium speed range, growing the interval until it self-covers."""
    cost = game.cost
    if _bounded(cost):
        cert = certify_cost(cost, cost.domain)
        apriori_speed_bound(game, cert)  # the table's domain must cover the bound
        return cert
    interval = (-1.0, 1.0)
    for _ in range(4):
        cert = certify_cost(cost, interval)
        bound = _speed_bound(game, cert.eps_floor)
        if cert.covers(bound):
            return cert
        reach = 1.05 * bound + 1.0
        interval = (-reach, reach)
    raise CertificationError("could not certify an interval covering the speed bound")


def _bounded(cost: CostFunction) -> bool:
    """Whether the cost is only defined on a finite interval (a table)."""
    return all(math.isfinite(d) for d in cost.domain)


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


def _phi(cost: CostFunction, n: int, z, s):
    return n * cost.value(z) + z * cost.slope(z) - s


def aggregate_speed_many(cost: CostFunction, n_players: int, grad_sums, eps_floor: float):
    """Vectorized root of N g(z) + z g'(z) = S for an array of S values.

    The returned z solves the equation to |residual| <= N * eps * ROOT_TOL,
    so it sits within that residual over the slope (N+1) g' + z g'' of the
    exact root.  Each entry iterates on its own until its residual passes,
    so a root does not depend on the others in the call.
    """
    s = np.atleast_1d(np.asarray(grad_sums, dtype=float))
    if not np.all(np.isfinite(s)):
        raise SpeedSolverError("gradient sums must be finite")
    half = np.abs(s) / ((n_players + 1) * eps_floor) + ROOT_TOL
    d_lo, d_hi = cost.domain
    lo = np.maximum(-half, d_lo)
    hi = np.minimum(half, d_hi)
    if np.any(_phi(cost, n_players, lo, s) > 0.0) or np.any(_phi(cost, n_players, hi, s) < 0.0):
        raise SpeedSolverError(
            "root bracket does not straddle a sign change; cost certificate invalid"
        )
    exact = cost.exact_speed_root(n_players, s)
    if exact is not None:
        return exact
    f_tol = n_players * eps_floor * ROOT_TOL
    shape = s.shape
    s, lo, hi = s.ravel(), lo.ravel(), hi.ravel()
    z = np.zeros_like(s)  # every bracket holds 0
    todo = np.arange(s.size)
    for _ in range(MAX_ITER):
        zt = z[todo]
        gp = cost.slope(zt)
        f = n_players * cost.value(zt) + zt * gp - s[todo]
        unsolved = np.abs(f) > f_tol
        if not unsolved.any():
            break
        todo, zt, gp, f = todo[unsolved], zt[unsolved], gp[unsolved], f[unsolved]
        lo_t = np.where(f < 0.0, zt, lo[todo])
        hi_t = np.where(f > 0.0, zt, hi[todo])
        lo[todo], hi[todo] = lo_t, hi_t
        with np.errstate(divide="ignore", invalid="ignore"):
            step = zt - f / ((n_players + 1) * gp + zt * cost.curvature(zt))
        # a comparison with NaN is False, so a failed step bisects too
        z[todo] = np.where((step > lo_t) & (step < hi_t), step, 0.5 * (lo_t + hi_t))
    else:
        raise SpeedSolverError(f"speed root did not converge in {MAX_ITER} iterations")
    return z.reshape(shape)


def equilibrium_fields(game: GameSpec, eps_floor: float, gradients):
    """Per-player gradients (N, ...) -> speeds (N, ...), aggregate speed and
    the nonlinear source term (N, ...) of the value equations.

    The aggregate speed z* is the root of N g(z) + z g'(z) = lambda sum_j v^j_p;
    player j trades at (lambda v^j_p - g(z*)) / g'(z*), well defined because
    g' >= eps > 0, and the speeds sum back to z* up to N * ROOT_TOL.  The source
    is z* lambda v^j_p - speed_j g(z*), minus sigma^2 alpha_j / 2 (v^j_p)^2 for
    exponential-utility players.
    """
    grads = np.asarray(gradients, dtype=float)
    cost = game.cost
    eff = game.market.lam * grads
    z_star = aggregate_speed_many(cost, game.n_players, eff.sum(axis=0), eps_floor)
    g_z = cost.value(z_star)
    gp_z = cost.slope(z_star)
    speeds = (eff - g_z) / gp_z
    source = z_star * eff - speeds * g_z
    alphas = game.alphas
    if np.any(alphas != 0.0):
        sig2 = game.market.sigma**2
        source = source - 0.5 * sig2 * alphas.reshape((-1,) + (1,) * (grads.ndim - 1)) * grads**2
    return speeds, z_star, source
