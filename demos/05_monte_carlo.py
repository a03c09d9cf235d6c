"""Simulating the equilibrium and checking it against the solved value.

Paths of the impacted price follow  dP = lambda * Xdot(t, P) dt + sigma dB
with the feedback strategy read off the solved lattice.  The sample mean
of the realized objective  -R_T + H(P_T)  must agree with the value
surface at (t=0, p0) to statistical accuracy: a z-score within +/-3.

The last section prices a physically delivered call: exercising theta
units moves the price against the holder, so the optimal exercise is the
clipped vertex of a concave quadratic, and manipulation brings nothing
(the optimal trading strategy is to not trade at all).
"""

import numpy as np

from illiq import (
    GameSpec,
    GridSpec,
    LinearCost,
    MarketParams,
    PlayerSpec,
    RiskNeutral,
    SmoothedCall,
    mc_consistency,
    physical_delivery_value,
    realized_objectives,
    simulate_paths,
    solve_fd,
)

market = MarketParams(sigma=1.0, lam=0.01, maturity=1.0, p0=100.0)
call = SmoothedCall(strike=100.0, cap=10.0, width=0.05)
game = GameSpec(market, LinearCost(0.01), (PlayerSpec(RiskNeutral(), call),))
grid = GridSpec(94.0, 106.0, n_p=401, n_t=1000, quad_nodes=128)

print("solving, then simulating 20000 paths under the feedback strategy ...")
sol = solve_fd(game, grid)
bundle = simulate_paths(sol, game, n_paths=20000, seed=7, n_steps=400)
means, ses = realized_objectives(bundle)
z = mc_consistency(bundle, sol)

print(f"  solved value v(0, 100):        {sol.value_at(0, 0.0, 100.0):.5f}")
print(f"  mean realized objective:       {means[0]:.5f}  (se {ses[0]:.5f})")
print(f"  z-score:                       {z[0]:+.2f}")
drift = bundle.terminal_prices.mean() - market.p0
print(f"  mean terminal price drift:     {drift:+.4f}"
      "  (tiny at lambda = 0.01; the buying shows up in inventory)")
print(f"  mean terminal inventory:       {bundle.terminal_inventories[0].mean():+.4f}")
print(f"  path-steps clamped at grid edge: {100 * bundle.clamped_fraction:.3f}%")

print("\nphysical delivery removes the incentive entirely:")
p_t = bundle.terminal_prices
res = physical_delivery_value(theta_cap=10.0, strike=100.0, lam=market.lam,
                              terminal_prices=p_t)
print(f"  mean exercise value for 10 deliverable calls: {res.mean_value:.4f}")
print(f"  trading contribution of the optimal strategy: {res.trading_contribution}")
print(f"  sample optimal exercise at P_T = {p_t[0]:.2f}: theta* = {res.theta_star[0]:.2f}")
