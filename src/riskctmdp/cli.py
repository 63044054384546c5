"""Command-line front end: validate, reduce, solve, evaluate, simulate,
oracle-check, and generate models, emitting machine-readable JSON reports.

Every subcommand is a pure function of its input files and flags; reports
serialize floats with 17 significant digits and infinities as "inf", so
rerunning a command reproduces the output byte for byte.

Exit status: 0 success, 1 validation or usage error, 2 solve did not
converge, 3 oracle mismatch beyond tolerance.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .model import ModelError, gen_example, parse_policy, validate_model
from .reduction import build_equivalent_dtmdp
from .simulate import estimate_value_mc
from .solver import (DEFAULT_CAP, DEFAULT_MAX_ITERS, DEFAULT_TOL,
                     OracleGuardError, ValueFunction, bellman_apply,
                     evaluate_policy_iterative, evaluate_policy_linear,
                     finite_horizon_oracle, solve_ctmdp)

ORACLE_MATCH_TOL = 1e-8

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NOT_CONVERGED = 2
EXIT_ORACLE_MISMATCH = 3


@dataclass
class RunConfig:
    """One subcommand's inputs; the class defaults are also the CLI's."""

    command: str
    model_path: str = None
    policy_path: str = None
    tol: float = DEFAULT_TOL
    max_iters: int = DEFAULT_MAX_ITERS
    cap: float = DEFAULT_CAP
    n_trajectories: int = 100_000
    seed: int = 0
    horizon: int = None
    output_path: str = None
    kind: str = None
    params: dict = field(default_factory=dict)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return jsonio.loads(handle.read())


def _load_model(config: RunConfig):
    if not config.model_path:
        raise ModelError("a model file is required")
    return validate_model(_load_json(config.model_path))


def _load_policy(config: RunConfig, model):
    if not config.policy_path:
        raise ModelError("this command requires --policy")
    return parse_policy(model, _load_json(config.policy_path))


def _values_by_state(model, value: ValueFunction) -> dict:
    vals = value.to_json_values()
    return {model.states[x]: vals[x] for x in range(model.n_states)}


def _cmd_validate(config: RunConfig):
    model = _load_model(config)
    return EXIT_OK, model.to_dict()


def _cmd_reduce(config: RunConfig):
    model = _load_model(config)
    return EXIT_OK, build_equivalent_dtmdp(model).to_dict()


def _cmd_solve(config: RunConfig):
    model = _load_model(config)
    report, _ = solve_ctmdp(model, tol=config.tol, max_iters=config.max_iters,
                            cap=config.cap)
    status = EXIT_OK if report.converged else EXIT_NOT_CONVERGED
    return status, report.to_dict(model.states, model.actions)


def _cmd_evaluate(config: RunConfig):
    model = _load_model(config)
    policy = _load_policy(config, model)
    dtmdp = build_equivalent_dtmdp(model)
    linear = evaluate_policy_linear(dtmdp, policy)
    iterative = evaluate_policy_iterative(dtmdp, policy, tol=config.tol,
                                          cap=config.cap,
                                          max_iters=config.max_iters)
    both_finite = linear.finite_mask & iterative.finite_mask
    diff = float(np.max(np.abs(linear.values[both_finite]
                               - iterative.values[both_finite]))) \
        if both_finite.any() else 0.0
    report = {
        "policy": policy.to_dict(model)["policy"],
        "linear": {
            "values": _values_by_state(model, linear),
            "diagnostics": linear.diagnostics or {"method": "linear"},
        },
        "iterative": {"values": _values_by_state(model, iterative)},
        "max_abs_diff_finite": diff,
        "same_infinite_classification": bool(
            np.array_equal(linear.finite_mask, iterative.finite_mask)),
    }
    return EXIT_OK, report


def _cmd_simulate(config: RunConfig):
    model = _load_model(config)
    policy = _load_policy(config, model)
    dtmdp = build_equivalent_dtmdp(model)
    evaluated = evaluate_policy_linear(dtmdp, policy)
    estimates = {}
    deviations = {}
    for x, name in enumerate(model.states):
        est = estimate_value_mc(model, policy, x, config.n_trajectories,
                                (config.seed + x) & ((1 << 64) - 1))
        estimates[name] = est.to_dict()
        mean = est.mean.value
        value = evaluated.values[x]
        if np.isinf(mean) and np.isinf(value):
            deviations[name] = 0.0
        else:
            dev = abs(mean - value)
            deviations[name] = dev if np.isfinite(dev) else "inf"
    report = {
        "estimates": estimates,
        "evaluated_values": _values_by_state(model, evaluated),
        "abs_deviation": deviations,
        "n": config.n_trajectories,
        "seed": config.seed,
    }
    return EXIT_OK, report


def _cmd_oracle(config: RunConfig):
    if config.horizon is None:
        raise ModelError("the oracle command requires --horizon")
    if not 1 <= config.horizon <= 6:
        raise ModelError(f"oracle horizon must be in 1..6, got {config.horizon}")
    model = _load_model(config)
    dtmdp = build_equivalent_dtmdp(model)
    per_horizon = {}
    worst = 0.0
    sweep = ValueFunction.constant(dtmdp.n_states)
    for h in range(1, config.horizon + 1):
        sweep = bellman_apply(dtmdp, sweep)[0]
        exact = finite_horizon_oracle(dtmdp, h)
        gap = float(np.max(np.abs(sweep.values - exact.values)))
        per_horizon[str(h)] = gap
        worst = max(worst, gap)
    status = EXIT_OK if worst <= ORACLE_MATCH_TOL else EXIT_ORACLE_MISMATCH
    report = {
        "horizons": list(range(1, config.horizon + 1)),
        "per_horizon_discrepancy": per_horizon,
        "max_discrepancy": worst,
        "tolerance": ORACLE_MATCH_TOL,
    }
    return status, report


def _cmd_gen(config: RunConfig):
    if not config.kind:
        raise ModelError("the gen command requires --kind")
    model = gen_example(config.kind, config.params, config.seed)
    return EXIT_OK, model.to_dict()


_COMMANDS = {
    "validate": _cmd_validate,
    "reduce": _cmd_reduce,
    "solve": _cmd_solve,
    "evaluate": _cmd_evaluate,
    "simulate": _cmd_simulate,
    "oracle": _cmd_oracle,
    "gen": _cmd_gen,
}


def run(config: RunConfig):
    """Execute one subcommand; returns (exit status, report dict or None)."""
    handler = _COMMANDS.get(config.command)
    if handler is None:
        raise ModelError(f"unknown command '{config.command}'")
    return handler(config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskctmdp",
        description="Solve and simulate continuous-time MDPs under "
                    "exponential utility of the total cost.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, model=True, solver=False, policy=False,
            mc=False, horizon=False, gen=False):
        p = sub.add_parser(name, help=help_text)
        if model:
            p.add_argument("model", help="model JSON file")
        if solver:
            p.add_argument("--tol", type=float, default=RunConfig.tol)
            p.add_argument("--max-iters", type=int,
                           default=RunConfig.max_iters)
            p.add_argument("--cap", type=float, default=RunConfig.cap)
        if policy:
            p.add_argument("--policy", help="policy JSON file")
        if mc:
            p.add_argument("--n", type=int, default=RunConfig.n_trajectories,
                           help="trajectories per start state")
            p.add_argument("--seed", type=int, default=RunConfig.seed)
        if horizon:
            p.add_argument("--horizon", type=int, required=True)
        if gen:
            p.add_argument("--kind", required=True)
            p.add_argument("--params", default="{}",
                           help="generator parameters as a JSON object")
            p.add_argument("--seed", type=int, default=RunConfig.seed)
        p.add_argument("--out", help="write the report here instead of stdout")
        return p

    add("validate", "validate a model file and print its normalized form")
    add("reduce", "emit the equivalent discrete-time model")
    add("solve", "value-iterate and emit values, policy, and residual",
        solver=True)
    add("evaluate", "evaluate a policy by both methods", solver=True,
        policy=True)
    add("simulate", "Monte Carlo estimates per start state", policy=True,
        mc=True)
    add("oracle", "check sweeps against the brute-force oracle", solver=True,
        horizon=True)
    add("gen", "generate a fixture model", model=False, gen=True)
    return parser


# argparse destinations whose RunConfig field has another name
_FIELD_OF_ARG = {"model": "model_path", "policy": "policy_path",
                 "out": "output_path", "n": "n_trajectories"}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    values = {_FIELD_OF_ARG.get(k, k): v for k, v in vars(args).items()}
    if "params" in values:
        try:
            values["params"] = jsonio.loads(values["params"])
        except ValueError as exc:
            raise ModelError(f"--params is not valid JSON: {exc}") from None
        if not isinstance(values["params"], dict):
            raise ModelError("--params must be a JSON object")
    return RunConfig(**values)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        status, report = run(config)
    except (ModelError, OracleGuardError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if report is not None:
        text = jsonio.dumps(report)
        if config.output_path:
            with open(config.output_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
