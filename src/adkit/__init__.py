"""Solvers for stochastic advertising control under goodwill dynamics.

Four problem families share one state equation
dx = (-rho x + u) dt + (sigma0 + sigma1 |x| + sigma2 u) dw:
a linear terminal-reward problem with bang-bang solution, its
budget-constrained variant, a linear-quadratic tracking problem solved
through a Riccati equation, and a discretionary-stopping launch problem.
Each closed form ships with Monte Carlo and finite-difference
cross-checks.
"""

from .errors import (
    AdkitError,
    ParamError,
    PolicyError,
    SolverError,
    StableRangeError,
)
from .linear import (
    BudgetSolution,
    LinearSolution,
    linear_policy,
    solve_budget,
    solve_linear,
    spend_bound,
)
from .lq import (
    RiccatiSolution,
    WellPosednessReport,
    closed_loop_mean,
    lq_feedback,
    riccati_integrate,
    riccati_sigma2_zero,
)
from .model import (
    ControlSet,
    ModelParams,
    Policy,
    diffusion,
    drift,
)
from .oracles import (
    DpLinearResult,
    DpQviResult,
    FdHjbResult,
    Grid2D,
    RiccatiOracle,
    dp_linear,
    dp_qvi_stopping,
    fd_hjb_lq,
    riccati_oracle,
    u_max_oracle,
)
from .sde import (
    EvalReport,
    PathGrid,
    StoppedPathResult,
    Trajectory,
    evaluate_policy,
    simulate_path,
    simulate_stopped,
    stopping_cost_report,
)
from .stopping import (
    QviReport,
    StoppingParams,
    StoppingSolution,
    free_boundary,
    qvi_residual,
    solve_stopping,
)

__version__ = "0.1.0"

__all__ = [
    "AdkitError",
    "BudgetSolution",
    "ControlSet",
    "DpLinearResult",
    "DpQviResult",
    "EvalReport",
    "FdHjbResult",
    "Grid2D",
    "LinearSolution",
    "ModelParams",
    "ParamError",
    "PathGrid",
    "Policy",
    "PolicyError",
    "QviReport",
    "RiccatiOracle",
    "RiccatiSolution",
    "SolverError",
    "StableRangeError",
    "StoppedPathResult",
    "StoppingParams",
    "StoppingSolution",
    "Trajectory",
    "WellPosednessReport",
    "closed_loop_mean",
    "diffusion",
    "dp_linear",
    "dp_qvi_stopping",
    "drift",
    "evaluate_policy",
    "fd_hjb_lq",
    "free_boundary",
    "linear_policy",
    "lq_feedback",
    "qvi_residual",
    "riccati_integrate",
    "riccati_oracle",
    "riccati_sigma2_zero",
    "simulate_path",
    "simulate_stopped",
    "solve_budget",
    "solve_linear",
    "solve_stopping",
    "spend_bound",
    "stopping_cost_report",
    "u_max_oracle",
]
