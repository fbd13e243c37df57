"""Pay-your-bid mechanisms and their smoothness certificates.

A mechanism here is an allocation rule combined with first-price payments:
each player reports a valuation (the bid), the rule picks an outcome from
the bids alone, and every player pays their own bid's value for the share
they received. Utilities are always measured against true valuations.

Smoothness of parameters (lam, mu) means: on every valuation profile v and
bid profile b there are deviation bids b'_i with

    sum_i E[u_i((b'_i, b_-i), v_i)]  >=  lam * OPT(v) - mu * sum_i E[p_i(b)].

The robust price-of-anarchy bound implied is max(1, mu) / lam. Deviations
come in two flavors: "general" (searched over a grid) and "half-value"
(b'_i is half the true valuation, computed rather than searched). An
approximation-preserving composition turns smoothness of an exact relaxed
maximizer into smoothness of the relax-and-round mechanism built on any
oblivious rounding with a per-player 1/alpha expectation guarantee.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field, fields
from fractions import Fraction
from random import Random
from typing import Callable, ClassVar, Optional, Sequence

from .errors import PreconditionError, SizeGuardError, StructuralError
from .rationals import F0, F1, HALF, frac, frac_str, scale_to_integers
from .solvers import IntegerProgram

GENERAL = "general"
HALF_VALUE = "half-value"

# Largest support the enumerators build; beyond it expectations are sampled.
EXACT_SUPPORT_LIMIT = 10_000
# Largest one-resource capacity integral_argmax sweeps rather than searches.
SWEEP_CAPACITY_LIMIT = 100_000
# Most feasible tuples integral_argmax searches before refusing.
SEARCH_LIMIT = 2**20


def product_support(options) -> list:
    """Joint (probability, choices) of independent draws, in product order.

    options[k] lists the (probability, choice) pairs of the k-th draw. Joint
    probabilities keep the draws' type: Fractions stay Fractions and int
    weights multiply as ints; with no draws, the one outcome has F1. This
    is the one size guard of the support enumerators: more than
    EXACT_SUPPORT_LIMIT combinations raise SizeGuardError before any is built.
    """
    if math.prod(len(opts) for opts in options) > EXACT_SUPPORT_LIMIT:
        raise SizeGuardError("rounding support too large to enumerate")
    out = [(1 if options else F1, ())]
    for opts in options:
        out = [(prob * p, choices + (c,)) for prob, choices in out for p, c in opts]
    return out


def integral_argmax(options, capacities, weights) -> tuple:
    """Exact integral maximizer, (choices, Fraction total).

    options[i] lists player i's options, each as its resource use
    [(resource, int amount), ...], a resource at most once; weights[i][k]
    is the worth of options[i][k]. choices[i] is 0 for nothing or k + 1 for
    options[i][k], feasible when no resource is used beyond the int
    capacities[resource]. Ties go to the lexicographically smallest tuple;
    totals are compared as ints, the weights scaled once to integers.

    One resource of capacity at most SWEEP_CAPACITY_LIMIT is answered by a
    0/1 knapsack sweep over the capacity left. Anything else is searched
    depth first, choice 0 before the options in order, keeping the first
    strict maximum. Only the search is guarded: meeting more than
    SEARCH_LIMIT feasible tuples raises SizeGuardError.
    """
    ints, scale = scale_to_integers([w for ws in weights for w in ws])
    flat = iter(ints)
    scores = [list(itertools.islice(flat, len(ws))) for ws in weights]
    if len(capacities) == 1 and capacities[0] <= SWEEP_CAPACITY_LIMIT:
        amounts = [[use[0][1] if use else 0 for use in opts] for opts in options]
        return _capacity_sweep(amounts, scores, capacities[0], scale)
    n = len(options)
    left = list(capacities)
    choices = [0] * n
    best, best_choices, met = -1, None, 0  # the first leaf, all zeros, scores 0

    def walk(i, total):
        nonlocal best, best_choices, met
        if i == n:
            met += 1
            if met > SEARCH_LIMIT:
                raise SizeGuardError(f"more than {SEARCH_LIMIT} feasible assignments")
            if total > best:
                best, best_choices = total, tuple(choices)
            return
        walk(i + 1, total)
        for k, use in enumerate(options[i]):
            if all(left[r] >= a for r, a in use):
                for r, a in use:
                    left[r] -= a
                choices[i] = k + 1
                walk(i + 1, total + scores[i][k])
                for r, a in use:
                    left[r] += a
        choices[i] = 0

    walk(0, 0)
    return best_choices, Fraction(best, scale)


def _capacity_sweep(amounts, scores, cap, scale) -> tuple:
    """integral_argmax on one resource: best[i][r] is the top total of
    players i.. with r capacity left, built from the last player back, and
    the walk forward keeps the smallest choice that still reaches it. A row
    never falls as r grows, so an option scoring 0 never raises one."""
    best = [[0] * (cap + 1)]
    for use, score in zip(reversed(amounts), reversed(scores)):
        nxt = best[-1]
        row = nxt[:]
        for a, s in zip(use, score):
            if s and a <= cap:
                row[a:] = [x if x >= y + s else y + s for x, y in zip(row[a:], nxt)]
        best.append(row)
    best.reverse()
    choices, r = [], cap
    for i, (use, score) in enumerate(zip(amounts, scores)):
        top, nxt = best[i][r], best[i + 1]
        c = 0
        if nxt[r] != top:
            c = next(
                k
                for k, (a, s) in enumerate(zip(use, score), 1)
                if a <= r and s + nxt[r - a] == top
            )
            r -= use[c - 1]
        choices.append(c)
    return tuple(choices), Fraction(best[0][cap], scale)


def relaxation(options, capacities, weights) -> IntegerProgram:
    """The LP relaxation of the program integral_argmax maximizes.

    options and weights read as there. One column per (player, option), in
    that order, worth weights[i][k]: x[i, k] is player i's share of
    options[i][k]. One row per resource, where a capacity p/q (an int has
    q = 1) multiplies the row's amounts by q against rhs p; then one "at
    most one option" row per player that has options.
    """
    scales = [c.denominator for c in capacities]
    ncols = sum(map(len, options))
    rows = [[0] * ncols + [c.numerator] for c in capacities]
    ones = []
    j = 0
    for opts in options:
        start = j
        for use in opts:
            for r, a in use:
                rows[r][j] = a * scales[r]
            j += 1
        if opts:
            ones.append([0] * start + [1] * (j - start) + [0] * (ncols - j) + [1])
    return IntegerProgram([w for ws in weights for w in ws], rows + ones)


def _hash_once(self) -> int:
    """The dataclass hash of a value type's fields, taken once: bids and
    relaxed points key every cache and memo, and Fraction hashes are dear.
    No str field enters it, so a pickled value's hash holds in every process."""
    try:
        return self._hash
    except AttributeError:
        h = hash(tuple(getattr(self, f.name) for f in fields(self)))
        object.__setattr__(self, "_hash", h)
        return h


def value_type(cls):
    """cls as a frozen dataclass hashed by _hash_once."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = _hash_once
    return cls


class Valuation:
    """Interface for player valuations (and bids, which are valuations too):
    value types with a player index and a class-constant domain tag, outside
    equality and hashing; value(None) is 0 and values are nonnegative."""

    domain: ClassVar[str]
    player: int

    def value(self, outcome) -> Fraction:
        raise NotImplementedError

    def scale(self, theta) -> "Valuation":
        raise NotImplementedError

    def best_case(self) -> Fraction:
        """Upper bound on value over all outcomes (used to normalize dynamics)."""
        raise NotImplementedError


@dataclass(frozen=True)
class SmoothnessParams:
    lam: Fraction
    mu: Fraction
    deviation: str = GENERAL

    def __post_init__(self):
        object.__setattr__(self, "lam", frac(self.lam))
        object.__setattr__(self, "mu", frac(self.mu))
        if self.lam <= 0:
            raise StructuralError("smoothness needs lam > 0")
        if self.mu < 0:
            raise StructuralError("smoothness needs mu >= 0")
        if self.deviation not in (GENERAL, HALF_VALUE):
            raise StructuralError(f"unknown deviation mode {self.deviation!r}")


def poa_from_smoothness(params: SmoothnessParams) -> Fraction:
    """Robust price-of-anarchy bound max(1, mu) / lam."""
    return max(F1, params.mu) / params.lam


def compose_smoothness(params: SmoothnessParams, alpha) -> SmoothnessParams:
    """Smoothness of relax-and-round given a 1/alpha oblivious rounding.

    Starting from an exact declared-welfare maximizer over the relaxation,
    general-mode smoothness composes to (lam / (2 alpha), mu) and half-value
    smoothness to (lam / alpha, mu); the result is half-value in both cases
    because the surviving deviation bids half the true valuation.
    """
    alpha = frac(alpha)
    if alpha < 1:
        raise StructuralError("approximation factor alpha must be at least 1")
    if params.deviation == HALF_VALUE:
        lam = params.lam / alpha
    else:
        lam = params.lam / (2 * alpha)
    return SmoothnessParams(lam, params.mu, HALF_VALUE)


@dataclass(frozen=True)
class SymbolicAlpha:
    """A rounding loss with no rational value, by name and float if known."""

    name: str
    approx: Optional[float] = None


@dataclass(frozen=True)
class AllocationRule:
    """A relax-and-round rule: an exact relaxation solve, then a round that
    never reads the bids.

    solve(bids) -> (point, declared welfare) maximizes declared welfare over
    the rule's relaxation exactly, so solve(values)[1] is OPT.
    round_stage(point, seed) -> outcome and round_support(point) ->
    [(probability, outcome), ...] see only the point. A rule without a round
    stage allocates its point, which is then its own one-point support.
    """

    domain: str
    solve: Callable
    round_stage: Optional[Callable] = None
    round_support: Optional[Callable] = None
    name: str = ""

    def round_point(self, point, seed=None):
        return point if self.round_stage is None else self.round_stage(point, seed)

    def point_support(self, point):
        """Exact support of rounding point, None when it cannot be enumerated."""
        if self.round_stage is None:
            return [(F1, point)]
        return None if self.round_support is None else self.round_support(point)

    def allocate(self, bids, seed=None):
        return self.round_point(self.solve(bids)[0], seed)

    def support(self, bids):
        return self.point_support(self.solve(bids)[0])


class RelaxationCache:
    """One solve per distinct bid profile, one support per distinct point.

    Counterfactual re-runs and deviation checks revisit the same joint bid
    profile constantly, and OPT is the solve at the truthful profile. Points
    are interned: profiles relaxing to equal points share one object, its
    cached rounding tables and its support, as the round never reads bids.
    """

    def __init__(self, rule: AllocationRule):
        self.rule = rule
        self.relaxed = {}
        self.points = {}
        self.supports = {}

    def solve(self, bids):
        """rule.solve(bids), computed once per profile, its point interned."""
        relaxed = self.relaxed.get(bids)
        if relaxed is None:
            point, value = self.rule.solve(bids)
            relaxed = self.relaxed[bids] = (self.points.setdefault(point, point), value)
        return relaxed

    def outcome(self, bids, seed):
        return self.rule.round_point(self.solve(bids)[0], seed)

    def support(self, bids):
        """Exact support at bids, None without one; SizeGuardError if too
        large. A new support's probabilities are checked to sum to 1, once."""
        point = self.solve(bids)[0]
        if point not in self.supports:
            support = self.rule.point_support(point)
            if support is not None and sum(p for p, _ in support) != 1:
                raise StructuralError("support probabilities must sum to 1")
            self.supports[point] = support
        return self.supports[point]


@dataclass(frozen=True)
class MechanismRun:
    outcome: object
    payments: tuple
    utilities: tuple
    welfare: Fraction
    seed: Optional[int] = None


@dataclass(frozen=True)
class ExpectedRun:
    payments: tuple
    utilities: tuple
    welfare: Fraction
    exact: bool


def check_bids(bids, domain: str, n: Optional[int] = None) -> None:
    """The one bid-profile check: bids[i] is player i's bid in domain and,
    with n given, there are exactly n bids. Valuation profiles are checked
    the same way, as bids are valuations. Raises StructuralError."""
    if n is not None and len(bids) != n:
        raise StructuralError(f"{len(bids)} bids for {n} players; one each required")
    for i, b in enumerate(bids):
        if b.domain != domain:
            raise StructuralError(
                f"bid for player {i} has domain {b.domain!r}, not {domain!r}"
            )
        if b.player != i:
            raise StructuralError(f"bid at position {i} is bound to player {b.player}")


def run_pay_your_bid(
    rule: AllocationRule, bids, values, seed: Optional[int] = None
) -> MechanismRun:
    """One realized run: allocate on bids, charge first prices, score on values."""
    check_bids(bids, rule.domain)
    check_bids(values, rule.domain, len(bids))
    outcome = rule.allocate(bids, seed)
    payments = tuple(b.value(outcome) for b in bids)
    gross = tuple(v.value(outcome) for v in values)
    utilities = tuple(g - p for g, p in zip(gross, payments))
    return MechanismRun(outcome, payments, utilities, sum(gross, F0), seed)


def expected_run(
    rule: AllocationRule, bids, values, samples: int = 10_000, seed: int = 0,
    *, cache: Optional[RelaxationCache] = None,
) -> ExpectedRun:
    """Expected payments/utilities/welfare over the rule's randomness.

    Exact enumeration whenever the rule exposes a support its enumerator
    accepts (at most EXACT_SUPPORT_LIMIT outcomes); otherwise seeded Monte
    Carlo with the given sample count, flagged as non-exact; the count must
    be at least 1. cache shares relaxations and supports across calls; by
    default the call relaxes once.
    """
    if samples < 1:
        raise PreconditionError(f"expected_run needs at least one sample, got {samples}")
    check_bids(bids, rule.domain)
    check_bids(values, rule.domain, len(bids))
    n = len(bids)
    bids = tuple(bids)
    cache = cache or RelaxationCache(rule)
    try:
        outcomes = cache.support(bids)
    except SizeGuardError:  # too large to enumerate: sample instead
        outcomes = None
    exact = outcomes is not None
    if not exact:
        rng = Random(seed)
        seeds = (rng.getrandbits(63) for _ in range(samples))
        draws = Counter(cache.outcome(bids, s) for s in seeds)
        outcomes = [(Fraction(k, samples), outcome) for outcome, k in draws.items()]
    payments = [F0] * n
    gross = [F0] * n
    for p, outcome in outcomes:
        for i in range(n):
            paid = bids[i].value(outcome)
            if paid:
                payments[i] += p * paid
            got = values[i].value(outcome)
            if got:
                gross[i] += p * got
    utilities = tuple(g - q for g, q in zip(gross, payments))
    return ExpectedRun(tuple(payments), utilities, sum(gross, F0), exact)


@dataclass(frozen=True)
class SmoothnessCertificate:
    domain: str
    lam: Fraction
    mu: Fraction
    deviation: str
    holds: bool
    min_slack: Fraction
    witness: Optional[dict]
    statistical: bool
    checked: int
    grid: str = ""

    def to_dict(self) -> dict:
        w = None
        if self.witness is not None:
            w = {
                "values_index": self.witness["values_index"],
                "bids_index": self.witness["bids_index"],
                "lhs": frac_str(self.witness["lhs"]),
                "rhs": frac_str(self.witness["rhs"]),
            }
        return {
            "domain": self.domain,
            "lambda": frac_str(self.lam),
            "mu": frac_str(self.mu),
            "deviation_mode": self.deviation,
            "grid": self.grid,
            "verdict": "holds" if self.holds else "violated",
            "statistical": self.statistical,
            "slack": frac_str(self.min_slack),
            "witness": w,
            "checked": self.checked,
        }


def check_smoothness(
    rule: AllocationRule,
    value_grid: Sequence,
    bid_grid: Sequence,
    params: SmoothnessParams,
    samples: int = 10_000,
    seed: int = 0,
) -> SmoothnessCertificate:
    """Test the smoothness inequality on every (values, bids) grid pair.

    In half-value mode the deviation of player i is values[i] scaled by 1/2,
    computed, never searched. In general mode the deviation is the best
    candidate among the player's bids occurring anywhere in the bid grid
    plus the half-value bid. Returns the minimum slack (lhs - rhs) and a
    witness profile when the inequality fails somewhere.

    The call shares one RelaxationCache, so each distinct bid profile is
    relaxed once (OPT is the solve at each valuation profile), and evaluates
    each distinct bid profile's expected run once per valuation profile.
    """
    cache = RelaxationCache(rule)
    min_slack = None
    witness = None
    statistical = False
    checked = 0
    for vi, values in enumerate(value_grid):
        opt = cache.solve(tuple(values))[1]
        runs = {}

        def evaluate(bids):
            if bids not in runs:
                runs[bids] = expected_run(
                    rule, bids, values, samples, seed, cache=cache
                )
            return runs[bids]

        searched = bid_grid if params.deviation == GENERAL else ()
        candidates = [
            list(dict.fromkeys([p[i] for p in searched] + [v.scale(HALF)]))
            for i, v in enumerate(values)
        ]
        for bi, bids in enumerate(bid_grid):
            bids = tuple(bids)
            lhs = F0
            for i, row in enumerate(candidates):
                deviations = (bids[:i] + (dev,) + bids[i + 1 :] for dev in row)
                lhs += max(evaluate(dev_bids).utilities[i] for dev_bids in deviations)
            rhs = params.lam * opt - params.mu * sum(evaluate(bids).payments, F0)
            slack = lhs - rhs
            checked += 1
            if min_slack is None or slack < min_slack:
                min_slack = slack
                if slack < 0:
                    witness = {
                        "values_index": vi,
                        "bids_index": bi,
                        "lhs": lhs,
                        "rhs": rhs,
                    }
        statistical |= not all(run.exact for run in runs.values())
    if min_slack is None:
        raise StructuralError("empty grid: nothing to check")
    return SmoothnessCertificate(
        domain=rule.domain,
        lam=params.lam,
        mu=params.mu,
        deviation=params.deviation,
        holds=min_slack >= 0,
        min_slack=min_slack,
        witness=witness,
        statistical=statistical,
        checked=checked,
        grid=f"{len(value_grid)} valuation profiles x {len(bid_grid)} bid profiles",
    )


@dataclass(frozen=True)
class CostCertificate:
    """Outcome of a social-cost style inequality check: holds iff lhs <= rhs."""

    holds: bool
    lhs: Fraction
    rhs: Fraction
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "verdict": "holds" if self.holds else "violated",
            "lhs": frac_str(self.lhs),
            "rhs": frac_str(self.rhs),
            "detail": {k: str(v) for k, v in self.detail.items()},
        }


DEVIATION_RESOLUTION = 20


@dataclass(frozen=True)
class Counterexample:
    """The equilibrium gap of exact integral welfare maximization.

    Small players of value 1 face two whole-supply players worth 2. The
    small players bidding zero and the big ones bidding truthfully is a pure
    Nash equilibrium of the pay-your-bid mechanism given by rule (certify
    with verify_pure_nash over deviations()), and ratio = optimum divided by
    the equilibrium welfare. flat(i, amount) is the domain's bid of amount
    for anything player i can win.
    """

    instance: object
    values: tuple
    bids: tuple
    rule: AllocationRule
    flat: Callable
    optimum: Fraction
    equilibrium_welfare: Fraction
    ratio: Fraction

    @classmethod
    def of(
        cls, instance, values, small: int, rule: AllocationRule, flat
    ) -> "Counterexample":
        """The first small players bid zero and the rest truthfully; the
        optimum rule.solve(values), the equilibrium welfare and their ratio
        are filled in."""
        bids = tuple(v.scale(0) if i < small else v for i, v in enumerate(values))
        optimum = rule.solve(values)[1]
        welfare = run_pay_your_bid(rule, bids, values).welfare
        ratio = optimum / welfare
        return cls(instance, values, bids, rule, flat, optimum, welfare, ratio)

    def deviations(self) -> list:
        """Per player: the value scaled by j / DEVIATION_RESOLUTION for every
        j, then flat bids at the construction's levels 0, 1 and 2."""
        thetas = theta_grid(DEVIATION_RESOLUTION)
        return [
            [v.scale(t) for t in thetas] + [self.flat(i, level) for level in (0, 1, 2)]
            for i, v in enumerate(self.values)
        ]


@dataclass(frozen=True)
class NashCertificate:
    is_nash: bool
    max_regret: Fraction
    witness: Optional[dict]
    statistical: bool

    def to_dict(self) -> dict:
        return {
            "verdict": "pure-nash" if self.is_nash else "deviation-found",
            "max_regret": frac_str(self.max_regret),
            "witness": self.witness,
            "statistical": self.statistical,
        }


def verify_pure_nash(
    rule: AllocationRule,
    bids,
    values,
    deviations: Sequence[Sequence],
    samples: int = 10_000,
    seed: int = 0,
) -> NashCertificate:
    """Check that no player gains by switching to any listed deviation bid.

    deviations[i] is the candidate bid list for player i; empty lists make
    the check vacuously true. max_regret is the largest expected improvement
    found, floored at zero, so equilibria report max_regret == 0 exactly.
    """
    cache = RelaxationCache(rule)
    base = expected_run(rule, bids, values, samples, seed, cache=cache)
    statistical = not base.exact
    max_regret = F0
    witness = None
    for i, cand in enumerate(deviations):
        for d, dev in enumerate(cand):
            dev_bids = tuple(bids[:i]) + (dev,) + tuple(bids[i + 1 :])
            run = expected_run(rule, dev_bids, values, samples, seed, cache=cache)
            statistical |= not run.exact
            gain = run.utilities[i] - base.utilities[i]
            if gain > max_regret:
                max_regret = gain
                witness = {"player": i, "deviation_index": d}
    return NashCertificate(max_regret == 0, max_regret, witness, statistical)


def theta_grid(resolution: int) -> tuple:
    """Multipliers {0, 1/G, ..., 1}; always contains 0, 1/2 needs even G."""
    if resolution < 1:
        raise StructuralError("grid resolution must be positive")
    return tuple(Fraction(j, resolution) for j in range(resolution + 1))


def scaled_bid_profiles(values, thetas) -> list:
    """All bid profiles (theta_1 v_1, ..., theta_n v_n) over the given thetas."""
    per_player = [[v.scale(t) for t in thetas] for v in values]
    return [tuple(combo) for combo in itertools.product(*per_player)]
