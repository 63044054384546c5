"""Shared fixtures: closed-form models and pinned random-instance corpora.

The random corpora were screened for conditioning: a seed was accepted
only if value iteration, with its old cap rule for divergence, converged
within 200 sweeps at tol 1e-12, so that the stopped iterate sits within
~10*tol of the exact fixed point and the policy-verification comparisons
are numerically meaningful.  The seeds that screen rejected are listed
here, so the corpora stay pinned whatever value iteration now does on
them (it converges on some divergent ones within 200 sweeps).
"""

import itertools
import math
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest

from riskctmdp import (StationaryPolicy, build_equivalent_dtmdp, gen_example,
                       optimality_residual, value_iterate)
from riskctmdp.reduction import make_dtmdp
from riskctmdp.solver import DEFAULT_TOL

CORPUS_TOL = 1e-12
CORPUS_MAX_SWEEPS = 200

CorpusItem = namedtuple("CorpusItem", "seed n_states n_actions model report dtmdp")
OracleItem = namedtuple("OracleItem", "seed model dtmdp report horizon_max")


@pytest.fixture(scope="session")
def two_state():
    return gen_example("two_state", {"q": 4, "c": 1}, 0)


@pytest.fixture(scope="session")
def two_state_dtmdp(two_state):
    return build_equivalent_dtmdp(two_state)


@pytest.fixture(scope="session")
def pure_birth():
    return gen_example("pure_birth", {"N": 4, "kappa": 1.0}, 0)


@pytest.fixture(scope="session")
def pure_birth_dtmdp(pure_birth):
    return build_equivalent_dtmdp(pure_birth)


def only_policy(model):
    """The unique policy of a single-action model."""
    return StationaryPolicy((0,) * model.n_states)


def periodic_class():
    """end absorbs at no cost; x and y alternate with no self-loop, the
    step back to x costing a factor 1.02.  The plain iterate of {x, y}
    grows on alternate sweeps only, the lazy one v + T v on every sweep."""
    kernel = np.zeros((3, 1, 3))
    kernel[0, 0, 0] = kernel[1, 0, 2] = kernel[2, 0, 1] = 1.0
    log_cost = np.zeros((3, 1))
    log_cost[2, 0] = math.log(1.02)
    return make_dtmdp(["end", "x", "y"], ["a"], kernel, log_cost)


def vi_solve(model, tol=DEFAULT_TOL):
    """solve_ctmdp by plain value iteration, the route it took before
    policy iteration: the report carries the continuous-time residual."""
    dtmdp = build_equivalent_dtmdp(model)
    report = value_iterate(dtmdp, tol=tol)
    residuals = optimality_residual(model, report.value)
    sup = max((abs(r) for r in residuals.values()), default=0.0)
    return replace(report, sup_residual=float(sup)), dtmdp


# seeds the screen rejected, among those walked in order
MONOTONE_REJECTED = {10_001, 10_008, 10_010, 10_012, 10_015, 10_016, 10_026,
                     10_031, 10_035, 10_050, 10_051, 10_057, 10_058, 10_094,
                     10_101, 10_112, 10_114, 10_124, 10_132, 10_140, 10_143,
                     10_164, 10_190, 10_202, 10_206}
ORACLE_REJECTED = {20_010, 20_030, 20_042, 20_048}


def _pinned_seeds(count, base_seed, rejected):
    seeds = (seed for seed in itertools.count(base_seed)
             if seed not in rejected)
    return list(itertools.islice(seeds, count))


def _corpus_item(seed, n, m):
    model = gen_example("random", {"n": n, "m": m}, seed)
    report, dtmdp = vi_solve(model, tol=CORPUS_TOL)
    # the screen's bound, which every pinned seed met
    assert report.converged and report.iterations <= CORPUS_MAX_SWEEPS
    return model, report, dtmdp


@pytest.fixture(scope="session")
def monotone_corpus():
    """200 pinned instances, up to 8 states and 3 actions."""
    items = []
    for seed in _pinned_seeds(200, 10_000, MONOTONE_REJECTED):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        model, report, dtmdp = _corpus_item(seed, n, m)
        items.append(CorpusItem(seed, n, m, model, report, dtmdp))
    return items


# shapes kept within the oracle budget: actions^(states*horizon) <= 1e7
ORACLE_SHAPES = [(2, 2, 4), (2, 3, 4), (3, 2, 4), (3, 3, 4), (4, 2, 4),
                 (4, 3, 3)]


@pytest.fixture(scope="session")
def oracle_corpus():
    """50 pinned small instances with per-instance feasible horizons."""
    items = []
    for index, seed in enumerate(_pinned_seeds(50, 20_000, ORACLE_REJECTED)):
        n, m, hmax = ORACLE_SHAPES[index % len(ORACLE_SHAPES)]
        model, report, dtmdp = _corpus_item(seed, n, m)
        items.append(OracleItem(seed, model, dtmdp, report, hmax))
    return items
