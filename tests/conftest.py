import tracemalloc

import pytest

from illiq import (
    GameSpec,
    GridSpec,
    LinearCost,
    MarketParams,
    Negated,
    PlayerSpec,
    QuadratureRule,
    RiskNeutral,
    SmoothedCall,
    SmoothedDigital,
    solve_fd,
)


@pytest.fixture()
def transform_calls(monkeypatch):
    """The number of ``closedform.dct`` and ``idct`` calls made during a test."""
    from illiq import closedform

    calls = {"dct": 0, "idct": 0}

    def counted(name):
        transform = getattr(closedform, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return transform(*args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(closedform, name, counted(name))
    return calls


@pytest.fixture()
def traced_peak():
    """A function that calls ``fn(*args, **kwargs)`` with tracemalloc on and
    returns the call's peak traced allocation in bytes."""

    def peak(fn, *args, **kwargs) -> int:
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture(scope="session")
def market():
    # benchmark parameters: K=100, T=1, sigma=1, lambda=kappa=0.01
    return MarketParams(sigma=1.0, lam=0.01, maturity=1.0, p0=100.0)


@pytest.fixture(scope="session")
def call():
    return SmoothedCall(strike=100.0, cap=10.0, width=0.05)


@pytest.fixture(scope="session")
def digital():
    return SmoothedDigital(strike=100.0, width=0.05)


@pytest.fixture(scope="session")
def linear_cost():
    return LinearCost(kappa=0.01)


@pytest.fixture(scope="session")
def rule():
    return QuadratureRule.gauss_hermite(128)


@pytest.fixture(scope="session")
def call_game(market, linear_cost, call):
    return GameSpec(market, linear_cost, (PlayerSpec(RiskNeutral(), call),))


@pytest.fixture(scope="session")
def zero_sum_game(market, linear_cost, call):
    return GameSpec(
        market,
        linear_cost,
        (PlayerSpec(RiskNeutral(), call), PlayerSpec(RiskNeutral(), Negated(call))),
    )


@pytest.fixture(scope="session")
def coarse_grid():
    # moderate lattice for module-level checks; acceptance uses the full one
    return GridSpec(94.0, 106.0, n_p=201, n_t=400, quad_nodes=96)


@pytest.fixture(scope="session")
def call_solution(call_game, coarse_grid):
    return solve_fd(call_game, coarse_grid)
