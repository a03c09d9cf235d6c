"""How an issuer can defuse manipulation: sell to many hands.

Three experiments with risk-neutral players and linear costs.

* Zero-sum: a call holder against the call's writer, solved by finite
  differences.  Their pushing cancels exactly; the aggregate trading speed
  is identically zero.
* Predators: one holder against N-1 players with no endowment.  The
  informed free-riders supply liquidity and the aggregate speed decays
  like 1/(N+1).
* Splitting: the same claim divided equally over N holders.  Aggregate
  manipulation is pointwise decreasing in N, so the issuer should sell
  to as many counterparties as possible.

The predator and splitting studies use the Cole-Hopf closed form.
"""

import numpy as np

from illiq import (
    GameSpec,
    GridSpec,
    LinearCost,
    MarketParams,
    Negated,
    PlayerSpec,
    RiskNeutral,
    SmoothedCall,
    predator_sweep,
    split_sweep,
    zero_sum_report,
)

market = MarketParams(sigma=1.0, lam=0.01, maturity=1.0, p0=100.0)
call = SmoothedCall(strike=100.0, cap=10.0, width=0.05)
template = GameSpec(market, LinearCost(0.01), (PlayerSpec(RiskNeutral(), call),))
grid = GridSpec(94.0, 106.0, n_p=241, n_t=120, quad_nodes=96)

print("zero-sum: holder vs writer of the same call")
holder_vs_writer = GameSpec(market, template.cost, (PlayerSpec(RiskNeutral(), call),
                                                    PlayerSpec(RiskNeutral(), Negated(call))))
report = zero_sum_report(holder_vs_writer, grid)
print(f"  max |aggregate speed| = {report.metrics['max_aggregate_speed'][0]:.2e}"
      f"  (cancels: {report.assertions['aggregate_speed_cancels']})")
print(f"  max |v1 + v2|         = {report.metrics['max_value_sum'][0]:.2e}")

print("\npredators: one holder, N-1 endowment-free competitors")
res = predator_sweep(call, (1, 10, 100), template, grid)
for n, m in zip(res.values, res.metrics["max_abs_aggregate_speed"]):
    print(f"  N = {n:3d}: max |aggregate speed at t=0| = {m:.5f}")

print("\nsplitting: each of N holders owns 1/N of the call")
res = split_sweep(call, (1, 10, 100), template, grid)
for n, m in zip(res.values, res.metrics["max_abs_aggregate_speed"]):
    print(f"  N = {n:3d}: max |aggregate speed at t=0| = {m:.5f}")
print(f"  pointwise non-increasing in N: {res.assertions['pointwise_non_increasing']}")
