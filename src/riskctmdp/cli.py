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


def _by_state(model, values: np.ndarray) -> dict:
    return dict(zip(model.states, values.tolist()))


def _gaps(a, b) -> np.ndarray:
    """|a - b| per entry: 0 where the two agree, also where both are inf
    (not inf - inf), and inf where only one is."""
    return np.abs(np.subtract(a, b, out=np.zeros(a.shape), where=a != b))


def _relative_gaps(a, b) -> np.ndarray:
    """_gaps(a, b) divided by b where b is finite, b >= 1 there: one ulp
    of a large value is a gap of about 1e-16, not of 1 or more."""
    gaps = _gaps(a, b)
    return np.divide(gaps, b, out=gaps, where=np.isfinite(b))


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
    diff = float(np.max(_gaps(linear.values, iterative.values)[both_finite],
                        initial=0.0))
    report = {
        "policy": policy.to_dict(model)["policy"],
        "linear": {
            "values": _by_state(model, linear.values),
            "diagnostics": {"method": "linear"},
        },
        "iterative": {"values": _by_state(model, iterative.values)},
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
    estimates = [simulate.estimate_value_mc(model, policy, x, args.n,
                                            args.seed + x)
                 for x in range(model.n_states)]
    deviations = _gaps(np.array([est.mean.value for est in estimates]),
                       evaluated.values)
    report = {
        "estimates": {name: est.to_dict()
                      for name, est in zip(model.states, estimates)},
        "evaluated_values": _by_state(model, evaluated.values),
        "abs_deviation": _by_state(model, deviations),
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
        gap = float(np.max(_relative_gaps(sweep.values, exact.values)))
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


# Argument specs, each the name and keywords of one add_argument call
_MODEL = ("model", {"help": "model JSON file"})
_POLICY = ("--policy", {"help": "policy JSON file"})
_MAX_ITERS = ("--max-iters", {"type": int})
_SEED = ("--seed", {"type": int, "default": 0})
_OUT = ("--out", {"help": "write the report here instead of stdout"})
# Each subcommand's name, handler, help and specs in help order; --out last
_COMMANDS = (
    ("validate", _cmd_validate,
     "validate a model file and print its normalized form", (_MODEL,)),
    ("reduce", _cmd_reduce, "emit the equivalent discrete-time model",
     (_MODEL,)),
    ("solve", _cmd_solve,
     "solve by policy iteration; emit values, policy, residual",
     (_MODEL, _MAX_ITERS)),
    # --tol and --max-iters are the iterative evaluator's stopping rule
    ("evaluate", _cmd_evaluate, "evaluate a policy by both methods",
     (_MODEL, ("--tol", {"type": float}), _MAX_ITERS, _POLICY)),
    ("simulate", _cmd_simulate, "Monte Carlo estimates per start state",
     (_MODEL, _POLICY, ("--n", {"type": int, "default": 100_000, "help":
                                "trajectories per start state"}), _SEED)),
    ("oracle", _cmd_oracle, "check sweeps against the brute-force oracle",
     (_MODEL, ("--horizon", {"type": int, "required": True}))),
    ("gen", _cmd_gen, "generate a fixture model",
     (("--kind", {"required": True}),
      ("--params", {"default": "{}",
                    "help": "generator parameters as a JSON object"}),
      _SEED)),
)


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
    for name, handler, help_text, specs in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for name_or_flag, options in (*specs, _OUT):
            p.add_argument(name_or_flag, **options)
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
