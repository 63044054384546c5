"""Solver and simulator for continuous-time Markov decision processes with
exponential utility of the total undiscounted cost.

A finite jump-process model (states, actions, rates, cost rates) is
reduced to a discrete-time model on the same state and action spaces whose
multiplicative-cost value function coincides with the original one: the
embedded jump chain (weight w = q, the total rate) at each pair whose cost
rate c is below q, and an identity row, at the step factor 2 where c > 0
and 1 where c = 0, at the others, whose value is infinite or 1 as the
jump process's is.  Policy iteration,
started from value-iteration sweeps on the reduced model until they
converge, at most 20, then yields values and an optimal stationary
policy, cross-checkable by exact policy evaluation, a brute-force
finite-horizon oracle, and Monte Carlo simulation of the jump process
itself.

Importing the package loads none of its modules: each public name is
imported from its module on first access (PEP 562) and then kept here, so
a caller pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    "CtmdpModel": "model", "DtmdpModel": "reduction", "ExtReal": "extreal",
    "ExtRealDomainError": "extreal", "INFINITY": "extreal",
    "McEstimate": "simulate", "ModelError": "model",
    "OracleGuardError": "solver", "SolveReport": "solver",
    "SolverError": "solver", "StationaryPolicy": "model",
    "Trajectory": "simulate", "ValueFunction": "solver",
    "bellman_apply": "solver", "build_equivalent_dtmdp": "reduction",
    "check_supersolution": "solver", "estimate_dtmdp_value_mc": "simulate",
    "estimate_value_mc": "simulate", "evaluate_policy_iterative": "solver",
    "evaluate_policy_linear": "solver", "ext_div": "extreal",
    "ext_exp": "extreal", "ext_mul": "extreal", "ext_sub_clamped": "extreal",
    "finite_horizon_oracle": "solver", "gen_example": "model",
    "optimality_residual": "solver", "parse_policy": "model",
    "policy_iterate": "solver", "sample_trajectory": "simulate",
    "solve_ctmdp": "solver", "trajectory_stream": "simulate",
    "validate_model": "model", "value_iterate": "solver",
}

__all__ = list(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:  # also how `from riskctmdp import jsonio` finds a module
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
