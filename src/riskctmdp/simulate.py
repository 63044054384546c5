"""Monte Carlo estimation of the exponential-utility criterion.

Trajectories of the jump process under a stationary policy are simulated
jump by jump: the sojourn in state x is exponential with the policy
action's total rate (sampled by inverse CDF for portability), and the jump
lands in y with probability rate(x,a,y)/total.  A state with zero total
rate absorbs; if its cost rate is positive the accumulated cost there is
infinite.  Trajectories that hit the jump budget are truncated and
accounted for explicitly: the estimate reports the truncated fraction and
a guaranteed lower bound rather than silently biased numbers.

Randomness is counter-based: path i under master seed s draws the doubles
of the Philox4x64-10 stream keyed by s at counter i << 192, the stream
`trajectory_stream(s, i)` returns.  Jump k consumes doubles 2k (sojourn)
and 2k+1 (target); step k of the embedded chain consumes double k.  The
estimators walk all their paths in lockstep, one array operation per jump
over the paths still moving, and compute the stream blocks themselves in
numpy (`_philox`), for live paths only.  No generator
state is stepped or rewritten, so each path's cost is bit-identical to a
scalar walk over its stream, whatever the order, chunking or worker count,
and a longer jump budget replays the same draws as a prefix.  `n_workers`
is kept in the signatures for compatibility and has no effect.

Sojourns use `math.log1p` mapped over the draws, not `np.log1p`: numpy's
SIMD log1p can differ from the C library's in the last bit, and that bit
reaches the reported means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .extreal import INF, ExtReal
from .model import CtmdpModel, StationaryPolicy
from .reduction import DtmdpModel

DEFAULT_MAX_JUMPS = 64

ABSORBED = "absorbed"
TRUNCATED = "truncated"

_SEED_MASK = (1 << 64) - 1
_TINY = 5e-324  # guards the holding-time > 0 invariant at the u == 0 event
_LANE_BUDGET = 1 << 18  # lanes x table width per lockstep chunk
_BLOCK_TARGET = 1 << 12  # (lane, block) pairs per Philox evaluation

# Philox4x64-10 multipliers and key increments (Salmon et al., SC 2011)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LOW32 = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)


def trajectory_stream(master_seed: int, index: int) -> np.random.Generator:
    """Independent stream for trajectory `index`: Philox counter block index."""
    return np.random.Generator(
        np.random.Philox(key=int(master_seed) & _SEED_MASK,
                         counter=int(index) << 192))


@dataclass(frozen=True)
class Trajectory:
    """One simulated path: recorded jumps, how it ended, and its cost.

    jumps holds (state, action, holding_time) per completed jump; the
    infinite sojourn of an absorbed path is not a recorded jump, but it
    contributes an infinite accumulated cost when the absorbing state's
    cost rate is positive.
    """

    jumps: tuple
    terminal: str  # ABSORBED or TRUNCATED
    accumulated_cost: ExtReal
    elapsed_time: float
    final_state: int


@dataclass(frozen=True)
class McEstimate:
    """Empirical mean of e^{cost} with uncertainty and truncation accounting.

    std_error is None when some sample is infinite or the sample tail
    fails the sanity check (max sample <= half the sample sum); it is 0
    when all samples coincide.  lower_bound_mean averages e^{finite part
    of the cost}, an underestimate whenever paths were truncated or
    absorbed at positive cost.

    Known limit: the tail check only looks at the largest sample, so
    std_error can be finite when the variance of e^{cost} is infinite.
    pure_birth with kappa 1 from level 0 is such a case (the sample tail
    falls off as x^-2): its std_error understates the error, and the mean
    can sit several reported standard errors from the true value.
    """

    mean: ExtReal
    std_error: float | None
    n_trajectories: int
    truncated_fraction: float
    lower_bound_mean: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "mean": self.mean.value,
            "std_error": self.std_error,
            "n": self.n_trajectories,
            "truncated_fraction": float(self.truncated_fraction),
            "lower_bound_mean": float(self.lower_bound_mean),
            "seed": self.seed,
        }


def _mulhilo(m: int, b):
    """High and low words of the 128-bit product of the constant m and the
    uint64 array b, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    b_lo, b_hi = b & _LOW32, b >> _HALF
    # each partial sum stays below 2**64
    hl = m_hi * b_lo + (m_lo * b_lo >> _HALF)
    lh = m_lo * b_hi + (hl & _LOW32)
    hi = m_hi * b_hi + (hl >> _HALF) + (lh >> _HALF)
    return hi, np.uint64(m) * b


def _philox(counter, key):
    """Philox4x64-10 of four counter words and two key words, each a
    uint64 array (shapes broadcast); returns the four output words."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for r in range(10):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


def _uniforms(key, index, first: int, n_blocks: int):
    """Doubles of Philox blocks first .. first + n_blocks - 1 of each
    stream (key, index << 192), one row of 4 * n_blocks per stream.

    numpy's Philox increments counter word 0 before each block, so block b
    has counter (b + 1, 0, 0, index); a double is (word >> 11) * 2**-53.
    """
    zero = np.zeros((1, 1), np.uint64)
    blocks = np.arange(first + 1, first + 1 + n_blocks, dtype=np.uint64)
    words = _philox((blocks[None, :], zero, zero, index[:, None]),
                    (key[:, None], zero))
    draws = (np.stack(words, axis=2) >> np.uint64(11)) * 2.0 ** -53
    return draws.reshape(len(index), 4 * n_blocks)


def _log1p(v):
    return np.fromiter(map(math.log1p, v.tolist()), np.float64, len(v))


def _cumulative(rows, positive):
    """Cumulative sums of each row's positive entries, left-aligned and
    padded with +inf, with their column indices and the last valid
    position per row (0 for an empty row)."""
    counts = positive.sum(axis=1)
    cums = np.full((len(rows), max(int(counts.max()), 1)), np.inf)
    targets = np.zeros(cums.shape, dtype=np.intp)
    for x, row in enumerate(rows):
        cols = np.flatnonzero(positive[x])
        targets[x, :len(cols)] = cols
        cums[x, :len(cols)] = np.cumsum(row[cols])
    return cums, targets, np.maximum(counts - 1, 0)


def _pick(cums, last, x, t):
    """Per lane, the number of entries of row x of cums that are <= t,
    clamped to the row's last valid position against cumsum roundoff at
    the top edge: searchsorted(side="right") over padded rows."""
    return np.minimum((cums[x] <= t[:, None]).sum(axis=1), last[x])


class _JumpTables:
    """Per-state jump data for one (model, policy): cumulative positive
    rates of the chosen action per state and the states they lead to."""

    draws_per_step = 2

    def __init__(self, model: CtmdpModel, policy: StationaryPolicy):
        states = np.arange(model.n_states)
        actions = list(policy.choice)
        self.totals = model.total_rates[states, actions]
        self.cost_rates = model.costs[states, actions]
        rows = model.rates[states, actions]
        self.cums, self.targets, self.last = _cumulative(rows, rows > 0)
        self.stop = self.totals == 0.0
        self.infinite = self.stop & (self.cost_rates > 0.0)

    def step(self, x, u):
        """One jump of every lane in x with draws u (two per lane);
        returns (next states, cost increments)."""
        total = self.totals[x]
        theta = -_log1p(-u[:, 0]) / total
        theta[theta <= 0.0] = _TINY
        idx = _pick(self.cums, self.last, x, u[:, 1] * total)
        return self.targets[x, idx], self.cost_rates[x] * theta


def sample_trajectory(model: CtmdpModel, policy: StationaryPolicy, x0: int,
                      rng_stream: np.random.Generator,
                      max_jumps: int = DEFAULT_MAX_JUMPS) -> Trajectory:
    """Simulate until absorption (zero total rate) or the jump budget.

    Walks the model's own arrays, one jump at a time.  Deterministic
    given the stream; a longer budget replays the same draw prefix, so
    recorded jumps only ever extend.
    """
    if max_jumps < 1:
        raise ValueError(f"max_jumps must be at least 1, got {max_jumps}")
    model.check_policy(policy)
    if not 0 <= x0 < model.n_states:
        raise ValueError(f"start state index {x0} out of range")
    draws = rng_stream.random(2 * max_jumps)
    jumps = []
    x, cost, elapsed = x0, 0.0, 0.0
    for k in range(max_jumps):
        a = policy.choice[x]
        total = model.total_rates[x, a]
        if total == 0.0:
            break
        theta = -math.log1p(-draws[2 * k]) / total
        if theta <= 0.0:
            theta = _TINY
        cost += model.costs[x, a] * theta
        elapsed += theta
        row = model.rates[x, a]
        targets = np.flatnonzero(row > 0)
        cums = np.cumsum(row[targets])
        # clamped against cumsum roundoff at the top edge
        idx = min(int(np.searchsorted(cums, draws[2 * k + 1] * total,
                                      side="right")), len(cums) - 1)
        jumps.append((x, a, theta))
        x = int(targets[idx])
    a = policy.choice[x]
    terminal = ABSORBED if model.total_rates[x, a] == 0.0 else TRUNCATED
    if terminal == ABSORBED and model.costs[x, a] > 0.0:
        accumulated = ExtReal(INF)  # absorbed at a positive cost rate
    else:
        accumulated = ExtReal(cost)
    return Trajectory(jumps=tuple(jumps), terminal=terminal,
                      accumulated_cost=accumulated, elapsed_time=elapsed,
                      final_state=x)


class _ChainTables:
    """Per-state step data for one (discrete-time model, policy), with one
    step cost per state; a state stops the chain when its row is the
    identity at zero step cost."""

    draws_per_step = 1

    def __init__(self, dtmdp: DtmdpModel, choice):
        states = np.arange(dtmdp.n_states)
        rows = dtmdp.kernel[states, choice]
        positive = rows > 0
        self.cums, self.targets, self.last = _cumulative(rows, positive)
        self.totals = self.cums[states, self.last]
        self.step_costs = dtmdp.step_cost[states, choice]
        self.stop = (~np.any(positive & ~np.eye(len(states), dtype=bool),
                             axis=1) & (self.step_costs == 0.0))
        self.infinite = np.zeros(dtmdp.n_states, dtype=bool)

    def step(self, x, u):
        """One step of every lane in x with draws u (one per lane)."""
        idx = _pick(self.cums, self.last, x, u[:, 0] * self.totals[x])
        return self.targets[x, idx], self.step_costs[x]


def _walk(tables, x, key, index, n_steps: int, costs, finals):
    """Walk the lanes with start states x and streams (key, index) for up
    to n_steps steps in lockstep; writes each lane's finite cost and final
    state into costs and finals.

    Blocks are drawn for the live lanes only, as they run out; few lanes
    draw several blocks ahead, so that each draw covers about
    _BLOCK_TARGET (lane, block) pairs.
    """
    width = tables.draws_per_step
    per_block = 4 // width
    lane = np.arange(len(x))
    cost = np.zeros(len(x))
    ahead = first = 0  # draws hold blocks first .. first + ahead - 1
    for k in range(n_steps):
        stop = tables.stop[x]
        if stop.any():
            costs[lane[stop]] = cost[stop]
            finals[lane[stop]] = x[stop]
            keep = ~stop
            lane, x, cost, key, index = (lane[keep], x[keep], cost[keep],
                                         key[keep], index[keep])
            if not len(lane):
                return
            if ahead:
                draws = draws[keep]
        block = k // per_block
        if block == first + ahead:
            first = block
            ahead = min(max(1, _BLOCK_TARGET // len(lane)),
                        -(-n_steps // per_block) - block)
            draws = _uniforms(key, index, first, ahead)
        j = width * k - 4 * first
        x, increment = tables.step(x, draws[:, j:j + width])
        cost += increment
    costs[lane] = cost
    finals[lane] = x


def _lockstep(tables, starts, keys, n: int, n_steps: int,
              budget: int = _LANE_BUDGET):
    """n paths from each start state; path i from starts[s] draws from the
    stream (keys[s], i).  Lanes run in chunks of at most budget / table
    width, which bounds memory and does not change any lane's result.
    Returns (finite costs, final states), each shaped (len(starts), n)."""
    keys = np.asarray([int(k) & _SEED_MASK for k in keys], dtype=np.uint64)
    starts = np.asarray(starts, dtype=np.intp)
    total = len(starts) * n
    costs = np.empty(total)
    finals = np.empty(total, dtype=np.intp)
    chunk = max(1, budget // tables.cums.shape[1])
    for lo in range(0, total, chunk):
        lanes = np.arange(lo, min(lo + chunk, total))
        block = slice(lo, lo + len(lanes))
        _walk(tables, starts[lanes // n], keys[lanes // n],
              (lanes % n).astype(np.uint64), n_steps, costs[block],
              finals[block])
    return costs.reshape(-1, n), finals.reshape(-1, n)


def _summarize(costs, infinite, truncated, master_seed: int) -> McEstimate:
    # e^cost of a long path, and a mean or spread of such samples, may
    # overflow to inf, which is then the estimate
    with np.errstate(over="ignore"):
        n = len(costs)
        lb_samples = np.exp(costs)
        lower = float(np.mean(lb_samples))
        samples = np.where(infinite, np.inf, lb_samples)
        if np.isinf(samples).any():
            mean, std_error = ExtReal(INF), None
        else:
            mean = ExtReal(float(np.mean(samples)))
            if samples.max() == samples.min():
                std_error = 0.0
            elif samples.max() <= 0.5 * samples.sum():
                std_error = float(samples.std(ddof=1) / math.sqrt(n))
            else:
                std_error = None  # heavy tail: a CI would be meaningless
    return McEstimate(mean=mean, std_error=std_error, n_trajectories=n,
                      truncated_fraction=float(np.mean(truncated)),
                      lower_bound_mean=lower,
                      seed=int(master_seed) & _SEED_MASK)


def _check_counts(n: int, n_steps: int, name: str):
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if n_steps < 1:
        raise ValueError(f"{name} must be at least 1, got {n_steps}")


def _estimate(tables, x0: int, n: int, master_seed: int,
              n_steps: int) -> McEstimate:
    if not 0 <= x0 < len(tables.stop):
        raise ValueError(f"start state index {x0} out of range")
    costs, finals = _lockstep(tables, [x0], [master_seed], n, n_steps)
    return _summarize(costs[0], tables.infinite[finals[0]],
                      ~tables.stop[finals[0]], master_seed)


def estimate_value_mc(model: CtmdpModel, policy: StationaryPolicy, x0: int,
                      n: int, master_seed: int,
                      max_jumps: int = DEFAULT_MAX_JUMPS,
                      n_workers: int = 1) -> McEstimate:
    """Estimate E[e^{total cost}] from x0 by simulating n trajectories.

    n_workers has no effect; it is kept for compatibility.
    """
    _check_counts(n, max_jumps, "max_jumps")
    model.check_policy(policy)
    return _estimate(_JumpTables(model, policy), x0, n, master_seed,
                     max_jumps)


def estimate_dtmdp_value_mc(dtmdp: DtmdpModel, policy: StationaryPolicy,
                            x0: int, n: int, master_seed: int,
                            max_steps: int = DEFAULT_MAX_JUMPS,
                            n_workers: int = 1) -> McEstimate:
    """Estimate the chain's multiplicative cost from x0; a step is terminal
    when its row is the identity at zero step cost.

    n_workers has no effect; it is kept for compatibility.
    """
    _check_counts(n, max_steps, "max_steps")
    choice = dtmdp.check_policy(policy)
    return _estimate(_ChainTables(dtmdp, choice), x0, n, master_seed,
                     max_steps)
