"""Nash-equilibrium trading and derivative valuation on an illiquid
underlying with permanent price impact and a nonlinear liquidity premium.

The layers, bottom up:

* ``model``       problem types (market, cost curves, payoffs, players, grids)
                  and JSON config loading;
* ``speeds``      cost certification and the pointwise equilibrium-speed
                  algebra (the monotone root shared by every solver);
* ``closedform``  Cole-Hopf / heat-kernel solutions for linear costs;
* ``pdesolve``    the three routes to a ``Solution``: ``solve_fd`` and
                  ``solve_picard`` for general costs, ``solve_closed`` for
                  the games ``closedform`` covers;
* ``simulate``    Monte-Carlo paths under the solved feedback strategies;
* ``experiments`` scripted studies (zero-sum, predator, split, spread, CARA);
* ``cli``         the ``illiq`` command.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    CARA,
    ConfigError,
    GameSpec,
    GridPayoff,
    GridSpec,
    LinearCost,
    MarketParams,
    Negated,
    Payoff,
    PlayerSpec,
    RiskNeutral,
    Scaled,
    SmoothedCall,
    SmoothedDigital,
    SmoothedSpreadCost,
    SumPayoff,
    TableCost,
    ValidationError,
    load_config,
    load_game,
    load_grid,
    stack_costs,
)
from .speeds import (  # noqa: F401
    CertificationError,
    CostCertificate,
    SpeedSolverError,
    aggregate_speed_many,
    apriori_speed_bound,
    certify_cost,
    certify_for_game,
    equilibrium_fields,
)
from .closedform import (  # noqa: F401
    BurgersProblem,
    ClosedFormError,
    QuadratureRule,
    burgers_value,
    cara_single_value,
    heat_convolve,
    heat_convolve_grid,
    rn_aggregate_grid,
    rn_aggregate_value,
    rn_individual_values,
)
from .pdesolve import (  # noqa: F401
    InitialLayers,
    ResidualReport,
    Solution,
    SolverError,
    read_solution_npz,
    residual,
    solve_closed,
    solve_fd,
    solve_fd_initial,
    solve_picard,
    surplus,
    surplus_at,
    write_solution_csv,
    write_solution_npz,
)
from .simulate import (  # noqa: F401
    PathBundle,
    PhysicalDeliveryResult,
    SimulationError,
    mc_consistency,
    physical_delivery_value,
    realized_objectives,
    simulate_paths,
    write_paths_csv,
)
from .experiments import (  # noqa: F401
    ExperimentError,
    SweepResult,
    cara_two_player_study,
    figure_grids,
    predator_sweep,
    split_sweep,
    spread_sweep,
    zero_sum_report,
)
