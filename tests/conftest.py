"""Shared fixtures: closed-form models and pinned random-instance corpora.

The random corpora are screened for conditioning: an instance is accepted
only if value iteration converges within 200 sweeps at tol 1e-12, so that
the stopped iterate sits within ~10*tol of the exact fixed point and the
policy-verification comparisons are numerically meaningful.  Seeds are
walked in a fixed order, so the accepted corpus is fully pinned.
"""

from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest

from riskctmdp import (StationaryPolicy, build_equivalent_dtmdp, gen_example,
                       optimality_residual, value_iterate)
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


def vi_solve(model, tol=DEFAULT_TOL):
    """solve_ctmdp by plain value iteration, the route it took before
    policy iteration: the report carries the continuous-time residual."""
    dtmdp = build_equivalent_dtmdp(model)
    report = value_iterate(dtmdp, tol=tol)
    residuals = optimality_residual(model, report.value)
    sup = max((abs(r) for r in residuals.values()), default=0.0)
    return replace(report, sup_residual=float(sup)), dtmdp


def build_conditioned_corpus(count, base_seed, n_range, m_range,
                             max_sweeps=CORPUS_MAX_SWEEPS):
    items = []
    offset = 0
    while len(items) < count:
        seed = base_seed + offset
        offset += 1
        rng = np.random.default_rng(seed)
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        m = int(rng.integers(m_range[0], m_range[1] + 1))
        model = gen_example("random", {"n": n, "m": m}, seed)
        report, dtmdp = vi_solve(model, tol=CORPUS_TOL)
        if report.converged and report.iterations <= max_sweeps:
            items.append(CorpusItem(seed, n, m, model, report, dtmdp))
    return items


@pytest.fixture(scope="session")
def monotone_corpus():
    """200 pinned instances, up to 8 states and 3 actions."""
    return build_conditioned_corpus(200, 10_000, (2, 8), (1, 3))


# shapes kept within the oracle budget: actions^(states*horizon) <= 1e7
ORACLE_SHAPES = [(2, 2, 4), (2, 3, 4), (3, 2, 4), (3, 3, 4), (4, 2, 4),
                 (4, 3, 3)]


@pytest.fixture(scope="session")
def oracle_corpus():
    """50 pinned small instances with per-instance feasible horizons."""
    items = []
    offset = 0
    while len(items) < 50:
        n, m, hmax = ORACLE_SHAPES[len(items) % len(ORACLE_SHAPES)]
        seed = 20_000 + offset
        offset += 1
        model = gen_example("random", {"n": n, "m": m}, seed)
        report, dtmdp = vi_solve(model, tol=CORPUS_TOL)
        if report.converged and report.iterations <= CORPUS_MAX_SWEEPS:
            items.append(OracleItem(seed, model, dtmdp, report, hmax))
    return items
