"""Repeated play with multiplicative-weights learners over scaled bids.

Each player bids a multiplier of their own valuation and updates a weight
per multiplier from full counterfactual feedback. Regret against the fixed
half-value multiplier is what the smoothness machinery turns into a
welfare guarantee, so the grids are required to contain it.
"""

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import exp, frexp, inf, ldexp, log, sqrt
from random import Random
from typing import Optional

from .errors import PreconditionError, StructuralError
from .mechanism import AllocationRule, RelaxationCache, SmoothnessParams
from .mechanism import poa_from_smoothness, theta_grid
from .rationals import F0, F1, HALF, frac, frac_str, parse_frac

SEED_SPAN = 2**63
# Hedge rescales a player's weights by a power of two, which is exact and so
# leaves every pick unchanged, once their largest leaves this range.
WEIGHT_RANGE = (2.0**-500, 2.0**500)


@dataclass(frozen=True)
class StrategyGrid:
    """Per-player finite sets of bid multipliers in [0, 1]."""

    thetas: tuple

    def __init__(self, thetas):
        canon = []
        for row in thetas:
            row = tuple(sorted({frac(t) for t in row}))
            if any(t < 0 or t > 1 for t in row):
                raise StructuralError("multipliers live in [0, 1]")
            if F0 not in row or HALF not in row:
                raise StructuralError("grids must contain 0 and 1/2")
            canon.append(row)
        object.__setattr__(self, "thetas", tuple(canon))

    @staticmethod
    def uniform(n: int, resolution: int = 2) -> "StrategyGrid":
        if resolution % 2:
            raise StructuralError("an even resolution is needed to express 1/2")
        return StrategyGrid((theta_grid(resolution),) * n)

    @property
    def n(self) -> int:
        return len(self.thetas)

    def half_index(self, i: int) -> int:
        return self.thetas[i].index(HALF)


@dataclass(frozen=True)
class RoundRecord:
    theta: tuple  # sampled multiplier per player
    seed: int  # rounding seed used by every run this round
    welfare: Fraction
    utilities: tuple


@dataclass(frozen=True)
class PlayTrace:
    """A full learning run plus the counterfactual totals regret needs.

    cumulative[i][s] is player i's total utility had it played its s-th
    multiplier every round against the bids that actually occurred, with
    each round's recorded rounding seed.
    """

    grid: StrategyGrid
    eta: float
    seed: int
    rounds: tuple
    cumulative: tuple
    rule_name: str

    @property
    def T(self) -> int:
        return len(self.rounds)

    @cached_property
    def played(self) -> tuple:
        """Per player: the utility summed over the rounds actually played."""
        return tuple(
            sum((r.utilities[i] for r in self.rounds), F0)
            for i in range(len(self.cumulative))
        )

    def average_welfare(self) -> Fraction:
        return sum((r.welfare for r in self.rounds), F0) / self.T

    def to_dict(self) -> dict:
        return {
            "grid": [[frac_str(t) for t in row] for row in self.grid.thetas],
            "eta": self.eta,
            "seed": self.seed,
            "rule": self.rule_name,
            "rounds": [
                {
                    "theta": [frac_str(t) for t in r.theta],
                    "seed": r.seed,
                    "welfare": frac_str(r.welfare),
                    "utilities": [frac_str(u) for u in r.utilities],
                }
                for r in self.rounds
            ],
            "cumulative": [
                [frac_str(c) for c in row] for row in self.cumulative
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "PlayTrace":
        """The trace saved by to_dict; StructuralError unless its rounds and
        totals fit its grid, since regrets are read off them unchecked."""
        trace = PlayTrace(
            grid=StrategyGrid([[parse_frac(t) for t in row] for row in data["grid"]]),
            eta=data["eta"],
            seed=data["seed"],
            rounds=tuple(
                RoundRecord(
                    theta=tuple(parse_frac(t) for t in r["theta"]),
                    seed=r["seed"],
                    welfare=parse_frac(r["welfare"]),
                    utilities=tuple(parse_frac(u) for u in r["utilities"]),
                )
                for r in data["rounds"]
            ),
            cumulative=tuple(
                tuple(parse_frac(c) for c in row) for row in data["cumulative"]
            ),
            rule_name=data["rule"],
        )
        rows = trace.grid.thetas
        if not trace.rounds:
            raise StructuralError("a trace needs at least one round")
        for r in trace.rounds:
            if len(r.theta) != len(rows) or len(r.utilities) != len(rows):
                raise StructuralError("a round does not have one entry per player")
            if any(t not in row for t, row in zip(r.theta, rows)):
                raise StructuralError("a round's multiplier is off its grid")
        if [len(c) for c in trace.cumulative] != [len(row) for row in rows]:
            raise StructuralError("cumulative totals do not match the grid")
        return trace

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @staticmethod
    def load(path) -> "PlayTrace":
        with open(path) as fh:
            return PlayTrace.from_dict(json.load(fh))


@dataclass(frozen=True)
class EmpiricalPoAReport:
    opt: Fraction
    average_welfare: Fraction
    ratio: Optional[Fraction]
    infinite: bool
    external_regret: tuple
    half_value_regret: tuple
    bound: Optional[Fraction]
    rounds: int

    def to_dict(self) -> dict:
        return {
            "opt": frac_str(self.opt),
            "average_welfare": frac_str(self.average_welfare),
            "ratio": None if self.ratio is None else frac_str(self.ratio),
            "infinite": self.infinite,
            "external_regret": [frac_str(r) for r in self.external_regret],
            "half_value_regret": [frac_str(r) for r in self.half_value_regret],
            "bound": None if self.bound is None else frac_str(self.bound),
            "rounds": self.rounds,
        }


def default_eta(grid: StrategyGrid, T: int) -> float:
    # grids hold at least {0, 1/2}, so the log never vanishes
    biggest = max(len(row) for row in grid.thetas)
    return 0.5 * sqrt(log(biggest) / T)


def _in_range(row: list) -> list:
    """The row scaled by a power of two so that its largest weight lies in
    WEIGHT_RANGE."""
    top = max(row)
    if WEIGHT_RANGE[0] <= top <= WEIGHT_RANGE[1]:
        return row
    shift = frexp(top)[1]
    return [ldexp(w, -shift) for w in row]


def run_hedge(
    rule: AllocationRule,
    values,
    grid: StrategyGrid,
    T: int,
    eta: Optional[float] = None,
    seed: int = 0,
    initial_weights=None,
) -> PlayTrace:
    """Full-information multiplicative weights over scaled-bid strategies.

    Every round each player samples a multiplier from its current weights,
    a fresh rounding seed is drawn and recorded, and each player's weight
    on every multiplier is updated from the utility that multiplier would
    have earned against the sampled opponent bids under the same seed.
    initial_weights optionally biases the starting distributions.

    Utilities and weight factors are computed once per (player, multiplier,
    outcome), on which alone they depend; the totals are counts times them.
    """
    n = len(values)
    if grid.n != n:
        raise StructuralError("grid and value profile sizes differ")
    if T < 1:
        raise PreconditionError("at least one round is required")
    if eta is None:
        eta = default_eta(grid, T)
    if eta <= 0:
        raise PreconditionError("the learning rate must be positive")
    # a weight may sit at WEIGHT_RANGE[1] before it is rescaled, and one
    # update multiplies it by up to e**eta
    if eta > log(sys.float_info.max) - log(WEIGHT_RANGE[1]):
        raise PreconditionError("the learning rate would overflow the weights")

    scaled = [
        [values[i].scale(t) for t in grid.thetas[i]] for i in range(n)
    ]
    bounds = [values[i].best_case() for i in range(n)]
    weights = [
        [float(w) for w in initial_weights[i]]
        if initial_weights is not None
        else [1.0] * len(scaled[i])
        for i in range(n)
    ]
    for i, row in enumerate(weights):
        if len(row) != len(scaled[i]) or not all(0 < w < inf for w in row):
            raise StructuralError(
                "initial weights must be positive and finite, one per strategy"
            )
        weights[i] = _in_range(row)

    cache = RelaxationCache(rule)
    rng = Random(seed)
    rounds = []
    memo = {}  # (i, s, outcome) -> [utility, weight factor, rounds seen]
    welfare = {}  # outcome -> welfare

    for _ in range(T):
        picks = []
        for i in range(n):
            total = sum(weights[i])
            mark = rng.random() * total
            acc = 0.0
            chosen = len(weights[i]) - 1
            for s, w in enumerate(weights[i]):
                acc += w
                if mark < acc:
                    chosen = s
                    break
            picks.append(chosen)
        round_seed = rng.randrange(SEED_SPAN)
        bids = tuple(scaled[i][picks[i]] for i in range(n))
        outcome = cache.outcome(bids, round_seed)
        if outcome not in welfare:
            welfare[outcome] = sum((values[i].value(outcome) for i in range(n)), F0)

        for i in range(n):
            row = weights[i]
            for s in range(len(row)):
                if s == picks[i]:
                    o = outcome
                else:
                    dev = bids[:i] + (scaled[i][s],) + bids[i + 1 :]
                    o = cache.outcome(dev, round_seed)
                entry = memo.get((i, s, o))
                if entry is None:
                    u = values[i].value(o) - scaled[i][s].value(o)
                    if abs(u) > bounds[i]:
                        raise StructuralError("utility escaped its declared bound")
                    factor = exp(eta * float(u / bounds[i])) if bounds[i] > 0 else 1.0
                    entry = memo[i, s, o] = [u, factor, 0]
                entry[2] += 1
                row[s] *= entry[1]
            weights[i] = _in_range(row)
        rounds.append(
            RoundRecord(
                theta=tuple(grid.thetas[i][picks[i]] for i in range(n)),
                seed=round_seed,
                welfare=welfare[outcome],
                utilities=tuple(memo[i, picks[i], outcome][0] for i in range(n)),
            )
        )

    cumulative = [[F0] * len(scaled[i]) for i in range(n)]
    for (i, s, _), (u, _, count) in memo.items():
        cumulative[i][s] += count * u

    return PlayTrace(
        grid=grid,
        eta=eta,
        seed=seed,
        rounds=tuple(rounds),
        cumulative=tuple(tuple(row) for row in cumulative),
        rule_name=rule.name,
    )


def biased_weights(grid: StrategyGrid, profile, concentration: float = 1e6):
    """Initial weights concentrated on one multiplier per player.

    Useful for starting the dynamics at a known equilibrium: the profile's
    multiplier gets the concentration as weight, everything else weight 1.
    """
    out = []
    for i, row in enumerate(grid.thetas):
        target = frac(profile[i])
        if target not in row:
            raise StructuralError("profile multiplier missing from the grid")
        out.append([concentration if t == target else 1.0 for t in row])
    return out


def external_regret(trace: PlayTrace) -> tuple:
    """Per player: best fixed multiplier's average gain over actual play."""
    out = []
    for row, actual in zip(trace.cumulative, trace.played):
        gap = (max(row) - actual) / trace.T
        out.append(gap if gap > 0 else F0)
    return tuple(out)


def half_value_regret(trace: PlayTrace, values=None) -> tuple:
    """Per player: average gain from bidding half the true valuation every
    round, read off the trace's counterfactual totals.

    run_hedge records each multiplier's total against the bids that actually
    occurred, with each round's recorded seed, and every grid holds 1/2, so
    nothing is replayed and a trace loaded from JSON answers too. values is
    not read: the benchmark harness still passes it positionally, and the
    argument goes when the harness drops it (ROADMAP item 4).
    """
    return tuple(
        (row[trace.grid.half_index(i)] - actual) / trace.T
        for i, (row, actual) in enumerate(zip(trace.cumulative, trace.played))
    )


def empirical_poa(
    trace: PlayTrace,
    opt,
    smoothness: Optional[SmoothnessParams] = None,
) -> EmpiricalPoAReport:
    """Score a trace against an exact optimum.

    The welfare ratio is 1 when both sides are zero and flagged infinite
    when play earned nothing against a positive optimum. Regrets come from
    the trace's recorded counterfactual totals.
    """
    opt = frac(opt)
    if opt < 0:
        raise PreconditionError("the optimum cannot be negative")
    avg = trace.average_welfare()
    if avg == 0:
        ratio = F1 if opt == 0 else None
        infinite = opt > 0
    else:
        ratio = opt / avg
        infinite = False
    bound = None
    if smoothness is not None:
        bound = poa_from_smoothness(smoothness)
    return EmpiricalPoAReport(
        opt=opt,
        average_welfare=avg,
        ratio=ratio,
        infinite=infinite,
        external_regret=external_regret(trace),
        half_value_regret=half_value_regret(trace),
        bound=bound,
        rounds=trace.T,
    )


def check_trace_smoothness(
    trace: PlayTrace, values, params: SmoothnessParams, opt
):
    """Trace-level welfare guarantee from measured half-value regrets.

    With payments at most welfare and mu >= 1, averaging the half-value
    smoothness inequality over the trace gives

        avg welfare >= (lam/mu) opt - (sum_i regret_i) / mu.

    Returns (holds, lhs, rhs) evaluated exactly.
    """
    if params.mu < 1:
        raise PreconditionError("the telescoped bound needs mu >= 1")
    regrets = half_value_regret(trace)
    lhs = trace.average_welfare()
    rhs = (params.lam / params.mu) * frac(opt) - sum(regrets, F0) / params.mu
    return lhs >= rhs, lhs, rhs


def hedge_regret_bound(trace: PlayTrace, values) -> tuple:
    """Per player: the classical multiplicative-weights regret ceiling."""
    out = []
    for i in range(len(values)):
        size = len(trace.grid.thetas[i])
        U = values[i].best_case()
        if size < 2 or U == 0:
            out.append(F0)
            continue
        out.append(2 * U * Fraction(sqrt(trace.T * log(size))) / trace.T)
    return tuple(out)


def first_price_rule(n: int) -> AllocationRule:
    """Single item to the highest bid, ties to the lowest index, always sold.

    Outcomes are unit count tuples so symmetric single-item valuations plug
    straight in. Awarding on all-zero bids keeps the lone-bidder dominant
    strategy at multiplier zero.
    """

    def solve(bids):
        best = max(range(n), key=lambda i: (bids[i].levels[1], -i))
        return tuple(1 if i == best else 0 for i in range(n)), bids[best].levels[1]

    return AllocationRule("auction", solve, name="first-price")
