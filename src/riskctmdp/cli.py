"""Command-line front end: validate, reduce, solve, evaluate, simulate,
oracle-check, and generate models, emitting machine-readable JSON reports.

Every subcommand is a pure function of its input files and flags; reports
serialize floats with 17 significant digits and infinities as "inf", so
rerunning a command reproduces the output byte for byte.

Exit status: 0 success, 1 validation or usage error, 2 solve did not
converge, 3 oracle mismatch beyond tolerance.

Each command imports the modules it runs when it runs, so `gen` and
`validate` load only this module, `jsonio` and `model`, and a process
compiles no more of the package than its command needs.
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .model import ModelError, gen_example, parse_policy, validate_model

ORACLE_MATCH_TOL = 1e-8

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NOT_CONVERGED = 2
EXIT_ORACLE_MISMATCH = 3


@dataclass
class RunConfig:
    """One subcommand's inputs.  `tol`, `max_iters` and `cap` left None
    take the solver's defaults; the other defaults are the CLI's."""

    command: str
    model_path: str = None
    policy_path: str = None
    tol: float = None
    max_iters: int = None
    cap: float = None
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


def _values_by_state(model, value) -> dict:
    vals = value.to_json_values()
    return {model.states[x]: vals[x] for x in range(model.n_states)}


def _solver_options(config: RunConfig) -> dict:
    """The solver arguments that `config` sets; the solver has the rest."""
    options = {"tol": config.tol, "max_iters": config.max_iters,
               "cap": config.cap}
    return {k: v for k, v in options.items() if v is not None}


def _cmd_validate(config: RunConfig):
    model = _load_model(config)
    return EXIT_OK, model.to_dict()


def _cmd_reduce(config: RunConfig):
    from . import reduction
    model = _load_model(config)
    return EXIT_OK, reduction.build_equivalent_dtmdp(model).to_dict()


def _cmd_solve(config: RunConfig):
    from . import solver
    model = _load_model(config)
    report, _ = solver.solve_ctmdp(model, **_solver_options(config))
    status = EXIT_OK if report.converged else EXIT_NOT_CONVERGED
    return status, report.to_dict(model.states, model.actions)


def _cmd_evaluate(config: RunConfig):
    from . import reduction, solver
    model = _load_model(config)
    policy = _load_policy(config, model)
    linear = solver.evaluate_policy_linear(model, policy)
    iterative = solver.evaluate_policy_iterative(
        reduction.build_equivalent_dtmdp(model), policy,
        **_solver_options(config))
    both_finite = linear.finite_mask & iterative.finite_mask
    diff = float(np.max(np.abs(linear.values[both_finite]
                               - iterative.values[both_finite]))) \
        if both_finite.any() else 0.0
    report = {
        "policy": policy.to_dict(model)["policy"],
        "linear": {
            "values": _values_by_state(model, linear),
            "diagnostics": linear.diagnostics,
        },
        "iterative": {"values": _values_by_state(model, iterative)},
        "max_abs_diff_finite": diff,
        "same_infinite_classification": bool(
            np.array_equal(linear.finite_mask, iterative.finite_mask)),
    }
    return EXIT_OK, report


def _cmd_simulate(config: RunConfig):
    from . import simulate, solver
    model = _load_model(config)
    policy = _load_policy(config, model)
    evaluated = solver.evaluate_policy_linear(model, policy)
    estimates = {}
    deviations = {}
    for x, name in enumerate(model.states):
        est = simulate.estimate_value_mc(model, policy, x,
                                         config.n_trajectories,
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
    from . import reduction, solver
    if config.horizon is None:
        raise ModelError("the oracle command requires --horizon")
    if not 1 <= config.horizon <= solver.ORACLE_MAX_HORIZON:
        raise ModelError("oracle horizon must be in "
                         f"1..{solver.ORACLE_MAX_HORIZON}, "
                         f"got {config.horizon}")
    model = _load_model(config)
    dtmdp = reduction.build_equivalent_dtmdp(model)
    per_horizon = {}
    worst = 0.0
    sweep = solver.ValueFunction.constant(dtmdp.n_states)
    for h in range(1, config.horizon + 1):
        sweep = solver.bellman_apply(dtmdp, sweep)[0]
        exact = solver.finite_horizon_oracle(dtmdp, h)
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
            p.add_argument("--tol", type=float)
            p.add_argument("--max-iters", type=int)
            p.add_argument("--cap", type=float)
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
    add("solve", "solve by policy iteration; emit values, policy, residual",
        solver=True)
    add("evaluate", "evaluate a policy by both methods", solver=True,
        policy=True)
    add("simulate", "Monte Carlo estimates per start state", policy=True,
        mc=True)
    add("oracle", "check sweeps against the brute-force oracle", horizon=True)
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
    """Run one command; the cyclic garbage collector is paused while it
    runs.  A model file parses into tens of thousands of dicts, and a
    report is built from as many; none of them is part of a reference
    cycle, so the collector would only walk them again and again.  The
    caller's collector state is restored on return."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 on --help
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        config = config_from_args(args)
        status, report = run(config)
    except (OSError, ValueError) as exc:  # ModelError is a ValueError
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
