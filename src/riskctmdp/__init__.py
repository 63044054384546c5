"""Solver and simulator for continuous-time Markov decision processes with
exponential utility of the total undiscounted cost.

A finite jump-process model (states, actions, rates, cost rates) is
reduced to a discrete-time model on the same state and action spaces whose
multiplicative-cost value function coincides with the original one; value
iteration on the reduced model then yields values and an optimal
stationary policy, cross-checkable by exact policy evaluation, a
brute-force finite-horizon oracle, and Monte Carlo simulation of the jump
process itself.
"""

from .extreal import (INFINITY, ExtReal, ExtRealDomainError, ext_div,
                      ext_exp, ext_mul, ext_sub_clamped)
from .model import (CtmdpModel, ModelError, StationaryPolicy, gen_example,
                    parse_policy, validate_model, validate_policy)
from .reduction import (DtmdpModel, build_equivalent_dtmdp, make_dtmdp,
                        uniformization_weight)
from .simulate import (McEstimate, Trajectory, estimate_dtmdp_value_mc,
                       estimate_value_mc, sample_trajectory,
                       trajectory_stream)
from .solver import (OracleGuardError, SolveReport, SolverError,
                     ValueFunction, bellman_apply, check_supersolution,
                     evaluate_policy_iterative, evaluate_policy_linear,
                     extract_policy, finite_horizon_oracle,
                     optimality_residual, policy_iterate, solve_ctmdp,
                     value_iterate)

__version__ = "0.1.0"

__all__ = [
    "CtmdpModel", "DtmdpModel", "ExtReal", "ExtRealDomainError", "INFINITY",
    "McEstimate", "ModelError", "OracleGuardError", "SolveReport",
    "SolverError", "StationaryPolicy", "Trajectory", "ValueFunction",
    "bellman_apply", "build_equivalent_dtmdp", "check_supersolution",
    "estimate_dtmdp_value_mc", "estimate_value_mc",
    "evaluate_policy_iterative", "evaluate_policy_linear", "ext_div",
    "ext_exp", "ext_mul", "ext_sub_clamped", "extract_policy",
    "finite_horizon_oracle", "gen_example", "make_dtmdp",
    "optimality_residual", "parse_policy", "policy_iterate",
    "sample_trajectory", "solve_ctmdp",
    "trajectory_stream", "uniformization_weight", "validate_model",
    "validate_policy", "value_iterate",
]
