"""Seeded inputs for the benchmark workloads.

Every model file and policy file a workload needs is written here, from the
benchmark's --seed argument alone; the CLI under test only ever sees these
files.  Models beyond the `gen random` size cap are built as arrays and
passed through the public `validate_model`, then written with
`jsonio.dumps`, so the benchmark needs no change to the package.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from riskctmdp import (CtmdpModel, gen_example, jsonio, solve_ctmdp,
                       validate_model)

import gate

WORKLOADS = ("solve", "verify", "simulate")

# Closed-form fixture two_state q=1: V(work) = q / (q - c).  Value iteration
# needs ~1/(1-c) sweeps, so the last cost weight exhausts the default
# 100 000; it stays in the corpus as a failing operation until the solver
# handles it.
NEAR_CRITICAL_COSTS = (0.99, 0.999, 1.0 - 1e-5)

# Dense synthetic models: n states, m actions, `extra` random edges per
# state-action pair next to one edge to a lower state.
DENSE = dict(n=256, m=8, extra=28, up=0.15, cost_scale=0.2)      # ~6.7 MB
DIVERGENT = dict(n=128, m=4, extra=16, up=1.0, cost_scale=0.5)   # ~1 MB
# Ladder with upward drift: ~12-15 jumps per path; 0.1-0.45% of paths hit
# the 64-jump budget, too few to bias the means by more than ~4 standard
# errors (80 stream seeds tried).  The model is the same for every workload
# seed, which varies only the stream seeds: a seeded ladder's set-up solve
# takes 280-620 sweeps depending on its seed, so set-up time would depend
# on the seed by a quarter.
LONG_PATHS = dict(n=16, m=4, up=0.3, cost_scale=0.05, seed=2)

# Trajectories per start state for each simulate operation: about 0.5 s of
# Monte Carlo each, so a run holds several rounds.
SIM_N = {"two_state": 15_000, "pure_birth": 1_200, "long_paths": 250}


@dataclass
class Op:
    """One CLI invocation with the check its output must pass.

    `klass` groups operations for the per-class medians; `check` maps
    (exit status, parsed report or None) to None or a failure message.
    """

    key: str
    klass: str
    args: list
    check: object
    trajectories: int = 0


def _from_arrays(rates: np.ndarray, costs: np.ndarray) -> CtmdpModel:
    n, m = costs.shape
    return validate_model(CtmdpModel(
        states=tuple(f"s{i}" for i in range(n)),
        actions=tuple(f"a{j}" for j in range(m)),
        admissible=tuple(tuple(range(m)) for _ in range(n)),
        rates=rates, costs=costs))


def synthetic_model(n: int, m: int, extra: int, up: float, cost_scale: float,
                    seed: int) -> CtmdpModel:
    """Random model with every state draining towards absorbing state 0.

    Each pair (x, a), x > 0, has one edge to a uniform lower state at rate
    in [0.5, 1.5) and `extra` edges to uniform other states at rate `up`
    times [0.1, 1); the cost rate is below `cost_scale` times the total
    rate.  Large `up` or `cost_scale` makes states diverge.
    """
    rng = np.random.default_rng(seed)
    rates = np.zeros((n, m, n))
    costs = np.zeros((n, m))
    for x in range(1, n):
        for a in range(m):
            rates[x, a, rng.integers(0, x)] += 0.5 + rng.random()
            others = rng.choice(n - 1, size=extra, replace=False)
            others[others >= x] += 1
            rates[x, a, others] += up * (0.1 + 0.9 * rng.random(extra))
            costs[x, a] = rng.random() * cost_scale * rates[x, a].sum()
    return _from_arrays(rates, costs)


def ladder_model(n: int, m: int, up: float, cost_scale: float,
                 seed: int) -> CtmdpModel:
    """Random-rate ladder: each pair (x, a), x > 0, steps down to x-1 at
    rate in [0.8, 1.2), up to x+1 at `up` times that range, and to one
    uniform other state at rate below 0.1."""
    rng = np.random.default_rng(seed)
    rates = np.zeros((n, m, n))
    costs = np.zeros((n, m))
    for x in range(1, n):
        for a in range(m):
            rates[x, a, x - 1] += 0.8 + 0.4 * rng.random()
            if x < n - 1:
                rates[x, a, x + 1] += up * (0.8 + 0.4 * rng.random())
            other = rng.integers(0, n - 1)
            rates[x, a, other + (other >= x)] += 0.1 * rng.random()
            costs[x, a] = rng.random() * cost_scale * rates[x, a].sum()
    return _from_arrays(rates, costs)


def _write(path: Path, doc) -> str:
    path.write_text(jsonio.dumps(doc), encoding="utf-8")
    return str(path)


def _write_model(path: Path, model: CtmdpModel) -> str:
    return _write(path, model.to_dict())


def _solved_policy(path: Path, model: CtmdpModel) -> str:
    """Set-up solve: the report doubles as a policy file."""
    report, _ = solve_ctmdp(model)
    return _write(path, report.to_dict(model.states, model.actions))


def _solve_ops(d: Path, rng) -> list:
    ops = []
    # near_critical: sweep bound.
    for i, c in enumerate(NEAR_CRITICAL_COSTS):
        f = _write_model(d / f"near_critical{i}.json",
                         gen_example("two_state", {"q": 1, "c": c}, 0))
        ops.append(Op(f"near_critical.c={c!r}", "near_critical", ["solve", f],
                      functools.partial(gate.check_closed_form, q=1.0, c=c)))
    # random: start-up and parse bound, about 100-200 sweeps each.
    for i in range(3):
        model = gen_example("random", {"n": 64, "m": 8},
                            int(rng.integers(2 ** 32)))
        f = _write_model(d / f"random{i}.json", model)
        ops.append(Op(f"random{i}", "random", ["solve", f],
                      functools.partial(gate.check_solve, model=model)))
    # dense: parse of ~6.7 MB plus ~1 000 sweeps of a 2048x256 kernel.
    model = synthetic_model(**DENSE, seed=int(rng.integers(2 ** 32)))
    f = _write_model(d / "dense.json", model)
    ops.append(Op("dense", "dense", ["solve", f],
                  functools.partial(gate.check_solve, model=model)))
    # divergent: most states infinite, found by the cap heuristic.
    model = gen_example("birth_death",
                        {"levels": 63, "birth": 3, "death": 1, "cost": 1}, 0)
    f = _write_model(d / "birth_death.json", model)
    ops.append(Op("divergent.birth_death", "divergent", ["solve", f],
                  functools.partial(gate.check_solve, model=model)))
    model = synthetic_model(**DIVERGENT, seed=int(rng.integers(2 ** 32)))
    f = _write_model(d / "divergent.json", model)
    ops.append(Op("divergent.dense", "divergent", ["solve", f],
                  functools.partial(gate.check_solve, model=model)))
    return ops


def _verify_ops(d: Path, rng) -> list:
    ops = []
    # Parse, validate, to_dict and emit dominate; no value iteration.
    dense = synthetic_model(**DENSE, seed=int(rng.integers(2 ** 32)))
    f_dense = _write_model(d / "dense.json", dense)
    ops.append(Op("validate.dense", "validate", ["validate", f_dense],
                  functools.partial(gate.check_validate, model=dense)))
    ops.append(Op("reduce.dense", "reduce", ["reduce", f_dense],
                  functools.partial(gate.check_reduce, model=dense)))
    # Both evaluators on policies solved during set-up.
    p_dense = _solved_policy(d / "dense.policy.json", dense)
    ops.append(Op("evaluate.dense", "evaluate",
                  ["evaluate", f_dense, "--policy", p_dense],
                  gate.check_evaluate))
    for i in range(2):
        model = gen_example("random", {"n": 64, "m": 8},
                            int(rng.integers(2 ** 32)))
        f = _write_model(d / f"random{i}.json", model)
        p = _solved_policy(d / f"random{i}.policy.json", model)
        ops.append(Op(f"evaluate.random{i}", "evaluate",
                      ["evaluate", f, "--policy", p], gate.check_evaluate))
    # Oracle: 2^(4*5) ~ 1e6 strategy tables, a tenth of its 1e7 budget.
    model = gen_example("random", {"n": 4, "m": 2}, int(rng.integers(2 ** 32)))
    f = _write_model(d / "oracle.json", model)
    ops.append(Op("oracle.random4", "oracle", ["oracle", f, "--horizon", "5"],
                  gate.check_oracle))
    return ops


def _simulate_ops(d: Path, rng) -> list:
    ops = []
    models = {
        # one jump per path: stream set-up dominates the walk
        "two_state": gen_example("two_state", {"q": 4, "c": 1}, 0),
        # eight jumps per path from the bottom of the ladder
        "pure_birth": gen_example("pure_birth", {"N": 8}, 0),
        # long excursions: a few paths hit the 64-jump budget
        "long_paths": ladder_model(**LONG_PATHS),
    }
    for name, model in models.items():
        f = _write_model(d / f"{name}.json", model)
        p = _solved_policy(d / f"{name}.policy.json", model)
        n, seed = SIM_N[name], int(rng.integers(2 ** 32))
        ops.append(Op(f"simulate.{name}", "simulate",
                      ["simulate", f, "--policy", p, "--n", str(n),
                       "--seed", str(seed)],
                      functools.partial(gate.check_simulate, n=n, seed=seed),
                      trajectories=n * model.n_states))
    return ops


_OPS_OF = {"solve": _solve_ops, "verify": _verify_ops,
             "simulate": _simulate_ops}


def build_workload(name: str, seed: int, directory: Path) -> list:
    """Write the inputs of one workload into `directory`; returns its ops."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return _OPS_OF[name](directory, rng)


def probe_ops(directory: Path) -> list:
    """Every command once on the 2-state fixture, so a traced run reaches
    every layer whatever the workload."""
    directory.mkdir(parents=True, exist_ok=True)
    model = gen_example("two_state", {"q": 4, "c": 1}, 0)
    f = _write_model(directory / "probe.json", model)
    p = _solved_policy(directory / "probe.policy.json", model)
    return [
        Op("probe.validate", "probe", ["validate", f],
           functools.partial(gate.check_validate, model=model)),
        Op("probe.reduce", "probe", ["reduce", f],
           functools.partial(gate.check_reduce, model=model)),
        Op("probe.solve", "probe", ["solve", f],
           functools.partial(gate.check_closed_form, q=4.0, c=1.0)),
        Op("probe.evaluate", "probe", ["evaluate", f, "--policy", p],
           gate.check_evaluate),
        Op("probe.simulate", "probe",
           ["simulate", f, "--policy", p, "--n", "2000", "--seed", "1"],
           functools.partial(gate.check_simulate, n=2000, seed=1),
           trajectories=2 * 2000),
        Op("probe.oracle", "probe", ["oracle", f, "--horizon", "2"],
           gate.check_oracle),
    ]
