"""Two exponential-utility players: the option holder vs its issuer.

Unlike the risk-neutral zero-sum case, risk aversion breaks the perfect
cancellation: the long player buys the underlying, the short player sells
it, and the net effect no longer vanishes.  The solver works in the
log-transformed value, whose terminal data is the raw payoff; the coupled
system is solved by the general finite-difference route (no closed form
exists for two risk-averse players).
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
    cara_two_player_study,
)

market = MarketParams(sigma=2.0, lam=0.01, maturity=1.0, p0=100.0)
call = SmoothedCall(strike=100.0, cap=10.0 * market.scale, width=0.05 * market.scale)
base = GameSpec(market, LinearCost(0.01), (PlayerSpec(RiskNeutral(), call),))
grid = GridSpec(88.0, 112.0, n_p=241, n_t=500, quad_nodes=96)

for label, alphas in (("similar risk aversion", (0.01, 0.01)),
                      ("issuer much more averse", (0.001, 0.1))):
    res = cara_two_player_study(alphas, base, grid)
    prices = res.grids["prices"]
    print(f"\n{label}: alpha = {alphas}")
    print("  p       holder speed   issuer speed   aggregate")
    for p in (96.0, 100.0, 104.0):
        i = int(np.argmin(np.abs(prices - p)))
        print(f"  {p:5.1f}   {res.grids['writer_speed'][i]:+.5f}       "
              f"{res.grids['issuer_speed'][i]:+.5f}       "
              f"{res.grids['aggregate_speed'][i]:+.5f}")
    print(f"  holder always buys on [95,105]:  {res.assertions['writer_buys']}")
    print(f"  issuer always sells on [95,105]: {res.assertions['issuer_sells']}")
