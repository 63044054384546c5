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

import numpy as np

from . import jsonio
from .model import ModelError, gen_example, parse_policy, validate_model

ORACLE_MATCH_TOL = 1e-8

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NOT_CONVERGED = 2
EXIT_ORACLE_MISMATCH = 3


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return jsonio.loads(handle.read())


def _load_model(args):
    if not args.model:
        raise ModelError("a model file is required")
    return validate_model(_load_json(args.model))


def _load_policy(args, model):
    if not args.policy:
        raise ModelError("this command requires --policy")
    return parse_policy(model, _load_json(args.policy))


def _values_by_state(model, value) -> dict:
    return dict(zip(model.states, value.values.tolist()))


def _solver_options(args) -> dict:
    """The solver arguments that `args` has and sets; the solver the rest."""
    options = {k: getattr(args, k, None) for k in ("tol", "max_iters")}
    return {k: v for k, v in options.items() if v is not None}


def _cmd_validate(args):
    model = _load_model(args)
    return EXIT_OK, model.to_dict()


def _cmd_reduce(args):
    from . import reduction
    model = _load_model(args)
    return EXIT_OK, reduction.build_equivalent_dtmdp(model).to_dict()


def _cmd_solve(args):
    from . import solver
    model = _load_model(args)
    report, _ = solver.solve_ctmdp(model, **_solver_options(args))
    status = EXIT_OK if report.converged else EXIT_NOT_CONVERGED
    return status, report.to_dict(model.states, model.actions)


def _cmd_evaluate(args):
    from . import reduction, solver
    model = _load_model(args)
    policy = _load_policy(args, model)
    linear = solver.evaluate_policy_linear(model, policy)
    iterative = solver.evaluate_policy_iterative(
        reduction.build_equivalent_dtmdp(model), policy,
        **_solver_options(args))
    both_finite = linear.finite_mask & iterative.finite_mask
    diff = float(np.max(np.abs(linear.values[both_finite]
                               - iterative.values[both_finite]))) \
        if both_finite.any() else 0.0
    report = {
        "policy": policy.to_dict(model)["policy"],
        "linear": {
            "values": _values_by_state(model, linear),
            "diagnostics": {"method": "linear"},
        },
        "iterative": {"values": _values_by_state(model, iterative)},
        "max_abs_diff_finite": diff,
        "same_infinite_classification": bool(
            np.array_equal(linear.finite_mask, iterative.finite_mask)),
    }
    return EXIT_OK, report


def _cmd_simulate(args):
    from . import simulate, solver
    model = _load_model(args)
    policy = _load_policy(args, model)
    evaluated = solver.evaluate_policy_linear(model, policy)
    estimates = {}
    deviations = {}
    for x, name in enumerate(model.states):
        est = simulate.estimate_value_mc(model, policy, x, args.n,
                                         args.seed + x)
        estimates[name] = est.to_dict()
        mean, value = est.mean.value, evaluated[x]
        deviations[name] = (0.0 if mean == value == np.inf
                            else abs(mean - value))
    report = {
        "estimates": estimates,
        "evaluated_values": _values_by_state(model, evaluated),
        "abs_deviation": deviations,
        "n": args.n,
        "seed": args.seed,
    }
    return EXIT_OK, report


def _cmd_oracle(args):
    from . import reduction, solver
    if not 1 <= args.horizon <= solver.ORACLE_MAX_HORIZON:
        raise ModelError("oracle horizon must be in "
                         f"1..{solver.ORACLE_MAX_HORIZON}, "
                         f"got {args.horizon}")
    model = _load_model(args)
    dtmdp = reduction.build_equivalent_dtmdp(model)
    per_horizon = {}
    worst = 0.0
    sweep = solver.ValueFunction.constant(dtmdp.n_states)
    for h in range(1, args.horizon + 1):
        sweep = solver.bellman_apply(dtmdp, sweep)[0]
        exact = solver.finite_horizon_oracle(dtmdp, h)
        # 0 where the two agree, also where both are inf (not inf - inf)
        gap = float(np.max(np.abs(np.subtract(
            sweep.values, exact.values, out=np.zeros(dtmdp.n_states),
            where=sweep.values != exact.values))))
        per_horizon[str(h)] = gap
        worst = max(worst, gap)
    status = EXIT_OK if worst <= ORACLE_MATCH_TOL else EXIT_ORACLE_MISMATCH
    report = {
        "horizons": list(range(1, args.horizon + 1)),
        "per_horizon_discrepancy": per_horizon,
        "max_discrepancy": worst,
        "tolerance": ORACLE_MATCH_TOL,
    }
    return status, report


def _cmd_gen(args):
    try:
        params = jsonio.loads(args.params)
    except ValueError as exc:
        raise ModelError(f"--params is not valid JSON: {exc}") from None
    if not isinstance(params, dict):
        raise ModelError("--params must be a JSON object")
    model = gen_example(args.kind, params, args.seed)
    return EXIT_OK, model.to_dict()


def build_parser() -> argparse.ArgumentParser:
    """The CLI's one argument set.  Each subcommand's parser names its
    handler, which reads the parsed arguments and returns (exit status,
    report dict); options left unset here take the solver's defaults."""
    parser = argparse.ArgumentParser(
        prog="riskctmdp",
        description="Solve and simulate continuous-time MDPs under "
                    "exponential utility of the total cost.")
    # dest names the subcommand in argparse's message when it is missing
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, model=True, max_iters=False,
            sweeps=False, policy=False, mc=False, horizon=False, gen=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if model:
            p.add_argument("model", help="model JSON file")
        if sweeps:  # the iterative evaluator's stopping rule
            p.add_argument("--tol", type=float)
        if max_iters or sweeps:
            p.add_argument("--max-iters", type=int)
        if policy:
            p.add_argument("--policy", help="policy JSON file")
        if mc:
            p.add_argument("--n", type=int, default=100_000,
                           help="trajectories per start state")
        if horizon:
            p.add_argument("--horizon", type=int, required=True)
        if gen:
            p.add_argument("--kind", required=True)
            p.add_argument("--params", default="{}",
                           help="generator parameters as a JSON object")
        if mc or gen:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write the report here instead of stdout")

    add("validate", _cmd_validate,
        "validate a model file and print its normalized form")
    add("reduce", _cmd_reduce, "emit the equivalent discrete-time model")
    add("solve", _cmd_solve,
        "solve by policy iteration; emit values, policy, residual",
        max_iters=True)
    add("evaluate", _cmd_evaluate, "evaluate a policy by both methods",
        sweeps=True, policy=True)
    add("simulate", _cmd_simulate, "Monte Carlo estimates per start state",
        policy=True, mc=True)
    add("oracle", _cmd_oracle, "check sweeps against the brute-force oracle",
        horizon=True)
    add("gen", _cmd_gen, "generate a fixture model", model=False, gen=True)
    return parser


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
        status, report = args.handler(args)
    except (OSError, ValueError) as exc:  # ModelError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    text = jsonio.dumps(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
