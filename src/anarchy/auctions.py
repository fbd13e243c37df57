"""Combinatorial auctions: configuration LP, symmetric case, fair rounding.

Valuations are max-over-clauses of bounded hyperedge sums (level k of the
complementarity hierarchy; k = 1 is fractionally subadditive). The
configuration LP is a packing program with one option per bundle and one
unit-capacity row per item. The symmetric specialization only depends on how
many items a player gets, making its two natural relaxations interchangeable
and the cardinality one a one-row packing program.
"""

from bisect import bisect_right
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import accumulate, combinations, islice
from math import comb, e, gcd, lcm, prod
from random import Random
from typing import ClassVar

from .errors import PreconditionError, SizeGuardError, StructuralError
from .mechanism import (
    AllocationRule,
    CostCertificate,
    Counterexample,
    HALF_VALUE,
    SmoothnessParams,
    SymbolicAlpha,
    Valuation,
    check_bids,
    integral_argmax,
    product_support,
    relaxation,
    value_type,
)
from .packing import (
    OptionValuation,
    PackingInstance,
    multiunit_instance,
    residual_loss,
    solve_packing_lp,
)
from .rationals import F0, F1, HALF, frac, frac_str, parse_frac, scale_to_integers

# unused here; kept while bench/tests/test_bench.py expects this binding
from .rationals import weighted_index  # noqa: F401
from .solvers import solve_lp

ITEM_LIMIT = 10  # subset enumeration guard for the configuration LP


@lru_cache(maxsize=16)
def item_subsets(m: int) -> tuple:
    """All subsets of [m] ordered by size then contents; the variable order."""
    if m > ITEM_LIMIT:
        raise SizeGuardError("subset enumeration is limited to 10 items")
    out = []
    for size in range(m + 1):
        for combo in combinations(range(m), size):
            out.append(frozenset(combo))
    return tuple(out)


# ---------------------------------------------------------------- valuations


@value_type
class MPHkValuation(Valuation):
    """Max over clauses of summed hyperedge values, hyperedges of size <= k.

    clauses is a tuple of clauses, each a tuple of (frozenset, value) pairs.
    k = 1 with singleton hyperedges is the fractionally subadditive class.
    """

    player: int
    k: int
    clauses: tuple
    domain: ClassVar[str] = "auction"

    def __init__(self, player, k, clauses):
        if k < 1:
            raise StructuralError("hierarchy level starts at 1")
        canon = []
        for clause in clauses:
            entries = []
            items = clause.items() if isinstance(clause, dict) else clause
            for T, val in items:
                T = frozenset(T)
                val = frac(val)
                if len(T) > k:
                    raise StructuralError("hyperedge larger than the level allows")
                if val < 0:
                    raise StructuralError("hyperedge values must be nonnegative")
                entries.append((T, val))
            entries.sort(key=lambda tv: (len(tv[0]), sorted(tv[0])))
            canon.append(tuple(entries))
        object.__setattr__(self, "player", player)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "clauses", tuple(canon))

    def value(self, outcome) -> Fraction:
        if outcome is None:
            return F0
        if isinstance(outcome, ConfigLPSolution):
            return sum(
                (
                    eval_mph(self, S) * x
                    for S, x in outcome.player_row(self.player)
                    if x != 0
                ),
                F0,
            )
        return eval_mph(self, outcome[self.player])

    def scale(self, theta) -> "MPHkValuation":
        theta = frac(theta)
        return MPHkValuation(
            self.player,
            self.k,
            tuple(
                tuple((T, theta * val) for T, val in clause)
                for clause in self.clauses
            ),
        )

    def best_case(self) -> Fraction:
        if not self.clauses:
            return F0
        return max(sum((val for _, val in clause), F0) for clause in self.clauses)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "clauses": [
                [{"T": sorted(T), "v": frac_str(val)} for T, val in clause]
                for clause in self.clauses
            ],
        }

    @staticmethod
    def from_dict(player: int, data: dict) -> "MPHkValuation":
        return MPHkValuation(
            player,
            data["k"],
            [
                [(frozenset(e["T"]), parse_frac(e["v"])) for e in clause]
                for clause in data["clauses"]
            ],
        )


def eval_mph(v: MPHkValuation, S) -> Fraction:
    """Best clause total over hyperedges contained in S; no clauses, no value."""
    S = frozenset(S)
    best = F0
    for clause in v.clauses:
        total = sum((val for T, val in clause if T <= S), F0)
        if total > best:
            best = total
    return best


def additive_valuation(player: int, weights) -> MPHkValuation:
    """Level-1 valuation with one clause of singleton hyperedges."""
    clause = [(frozenset({j}), w) for j, w in enumerate(weights)]
    return MPHkValuation(player, 1, [clause])


@value_type
class SymmetricValuation(Valuation):
    """Depends only on how many items are received; levels[j] for j items."""

    player: int
    levels: tuple  # levels[0] == 0, indices 0..m
    domain: ClassVar[str] = "auction"

    def __init__(self, player, levels):
        levels = tuple(frac(x) for x in levels)
        if not levels or levels[0] != 0:
            raise StructuralError("receiving nothing is worth exactly zero")
        if any(x < 0 for x in levels):
            raise StructuralError("bids and values must be nonnegative")
        object.__setattr__(self, "player", player)
        object.__setattr__(self, "levels", levels)

    @property
    def m(self) -> int:
        return len(self.levels) - 1

    @property
    def amounts(self) -> tuple:
        """levels[1:]: the bid as a packing option bid, option j - 1 for
        receiving j items."""
        return self.levels[1:]

    def value(self, outcome) -> Fraction:
        if outcome is None:
            return F0
        if isinstance(outcome, CardinalityLPSolution):
            row = outcome.x[self.player]
            return sum((self.levels[j + 1] * row[j] for j in range(outcome.m)), F0)
        if isinstance(outcome, ConfigLPSolution):
            return sum(
                (self.levels[len(S)] * x for S, x in outcome.player_row(self.player)),
                F0,
            )
        return self.levels[outcome[self.player]]

    def scale(self, theta) -> "SymmetricValuation":
        theta = frac(theta)
        return SymmetricValuation(self.player, tuple(theta * x for x in self.levels))

    def best_case(self) -> Fraction:
        return max(self.levels)

    def to_dict(self) -> dict:
        return {"levels": [frac_str(x) for x in self.levels]}


def flat_symmetric_bid(m: int, player: int, amount) -> SymmetricValuation:
    return SymmetricValuation(player, (F0,) + (frac(amount),) * m)


# ------------------------------------------------------------ configuration


@value_type
class ConfigLPSolution:
    """Fractional set allocation: per player a row over item_subsets(m)."""

    m: int
    x: tuple  # n rows, each len(item_subsets(m))

    def __init__(self, m, x):
        subs = item_subsets(m)
        x = tuple(tuple(frac(v) for v in row) for row in x)
        for row in x:
            if len(row) != len(subs):
                raise StructuralError("one variable per item subset required")
            if any(v < 0 for v in row):
                raise StructuralError("allocations are nonnegative")
            if sum(row) > 1:
                raise StructuralError("a player receives at most one set in total")
        for j in range(m):
            if self.load_static(x, subs, j) > 1:
                raise StructuralError("an item is allocated more than once")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "x", x)

    @staticmethod
    def load_static(x, subs, j) -> Fraction:
        return sum(
            (row[s] for row in x for s in range(len(subs)) if j in subs[s]), F0
        )

    @property
    def n(self) -> int:
        return len(self.x)

    def player_row(self, i):
        subs = item_subsets(self.m)
        return tuple(zip(subs, self.x[i]))

    def item_load(self, j) -> Fraction:
        return self.load_static(self.x, item_subsets(self.m), j)

    def welfare(self, bids) -> Fraction:
        return sum((b.value(self) for b in bids), F0)


def _set_value(bid, S) -> Fraction:
    if isinstance(bid, SymmetricValuation):
        return bid.levels[len(S)]
    return eval_mph(bid, S)


def _check_levels(m: int, bids) -> None:
    """A symmetric bid on m items has one level per count 0 to m."""
    for b in bids:
        if isinstance(b, SymmetricValuation) and b.m != m:
            raise StructuralError(
                f"player {b.player} bids {len(b.levels)} levels; "
                f"m = {m} needs {m + 1}, one per item count 0 to {m}"
            )


@lru_cache(maxsize=16)
def _config_shape(n: int, m: int) -> PackingInstance:
    """The configuration LP's constraints for n bidders on m items, its
    rows compiled once per shape: option s of every player is the bundle
    item_subsets(m)[s], and item j is one capacity-1 row touched by the
    bundles holding j. Its values are zeros; the bids are the objective."""
    subs = item_subsets(m)
    rows = [[[F1 if j in S else F0 for S in subs]] * n for j in range(m)]
    return PackingInstance(((F0,) * len(subs),) * n, rows, [F1] * m)


def config_instance(m: int, bids) -> tuple:
    """The configuration LP as a packing program, (its shape, option bids):
    option s of player i is bid at bids[i]'s value for item_subsets(m)[s].

    A hyperedge naming an item outside 0..m-1 (a bool is no item) is a
    StructuralError: no bundle would ever hold it, so the bid would be
    silently ignored; so is a symmetric bid without exactly m + 1 levels.
    """
    subs = item_subsets(m)
    _check_levels(m, bids)
    for b in bids:
        clauses = b.clauses if isinstance(b, MPHkValuation) else ()
        for j in (j for clause in clauses for T, _ in clause for j in T):
            if isinstance(j, bool) or not (isinstance(j, int) and 0 <= j < m):
                raise StructuralError(
                    f"player {b.player} bids on item {j!r}; "
                    f"the auction has items 0 to {m - 1}"
                )
    option_bids = tuple(
        OptionValuation(i, [_set_value(b, S) for S in subs]) for i, b in enumerate(bids)
    )
    return _config_shape(len(bids), m), option_bids


def solve_config_lp(n: int, m: int, bids):
    """Exact configuration LP optimum, (ConfigLPSolution, value)."""
    check_bids(bids, "auction", n)
    alloc, value = solve_packing_lp(*config_instance(m, bids))
    return ConfigLPSolution(m, alloc.x), value


def check_ca_social_cost(bids, x: ConfigLPSolution, k: int) -> CostCertificate:
    """Removing any one player's fractional share costs at most (k+1) times
    the full declared optimum, summed over players."""
    check_bids(bids, "auction", x.n)
    lhs, full = residual_loss(*config_instance(x.m, bids), x.x)
    rhs = (k + 1) * full
    return CostCertificate(
        holds=lhs <= rhs, lhs=lhs, rhs=rhs, detail={"welfare": full}
    )


# ----------------------------------------------------------- symmetric case


@value_type
class CardinalityLPSolution:
    """Fractional allocation by set size: x[i][j-1] is player i's weight on
    receiving exactly j items."""

    m: int
    x: tuple

    def __init__(self, m, x):
        x = tuple(tuple(frac(v) for v in row) for row in x)
        # every entry times s, the lcm of their denominators: each row sum
        # at most s and the item mass at most m * s
        ints, s = scale_to_integers([v for row in x for v in row])
        scaled = iter(ints)
        mass = 0
        for row in x:
            if len(row) != m:
                raise StructuralError("one variable per cardinality required")
            a = tuple(islice(scaled, m))
            if any(v < 0 for v in a):
                raise StructuralError("allocations are nonnegative")
            if sum(a) > s:
                raise StructuralError("a player receives at most one size in total")
            mass += sum((j + 1) * v for j, v in enumerate(a) if v)
        if mass > m * s:
            raise StructuralError("total item mass exceeds the supply")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return len(self.x)

    @cached_property
    def rounding_table(self) -> tuple:
        """Fair rounding compiled once per point, in integers: for each coin,
        for each player, (sizes, cumulative weights, their total D).

        The coin keeps sizes up to m // 2 on heads (0) and the rest on tails.
        A kept size j + 1 weighs q/4 and size 0, listed last, the rest; D is
        the lcm of the reduced denominators of the q/4, the scale
        integer_weights takes for these weights. fair_round draws from this
        table and fair_round_support enumerates it.
        """
        cut = self.m // 2
        table = []
        for coin in (0, 1):
            players = []
            for row in self.x:
                kept = [
                    (j + 1, q)
                    for j, q in enumerate(row)
                    if q > 0 and (j + 1 <= cut) == (coin == 0)
                ]
                # q/4 = n/(4d) has the reduced denominator 4d / gcd(n, 4)
                total = lcm(*(4 * q.denominator // gcd(q.numerator, 4) for _, q in kept))
                cum = accumulate(q.numerator * total // (4 * q.denominator) for _, q in kept)
                players.append(([j for j, _ in kept] + [0], [*cum, total], total))
            table.append(tuple(players))
        return tuple(table)

    def welfare(self, bids) -> Fraction:
        return sum((b.value(self) for b in bids), F0)


def _require_symmetric(bids) -> None:
    for b in bids:
        if not isinstance(b, SymmetricValuation):
            raise PreconditionError("this operation needs symmetric bids")


def _check_cardinality_bids(m: int, bids) -> None:
    check_bids(bids, "auction")
    _require_symmetric(bids)
    _check_levels(m, bids)


@lru_cache(maxsize=64)
def _cardinality_shape(n: int, m: int) -> PackingInstance:
    """The m-unit program's constraints for n bidders, its rows compiled
    once per shape; its values are zeros, the bids are the objective."""
    return multiunit_instance(((F0,) * m,) * n, m)


def solve_cardinality_lp(m: int, bids):
    """Exact cardinality-variable optimum, (CardinalityLPSolution, value).

    This is the one-row packing relaxation with row (1, ..., m) and
    capacity m: the mechanism.relaxation of its shape's (n, m)
    integer_program, each bid's levels[1:] as its objective.
    """
    _check_cardinality_bids(m, bids)
    n = len(bids)
    program = _cardinality_shape(n, m).integer_program
    sol = solve_lp(relaxation(*program, [b.amounts for b in bids]))
    assert sol.optimal  # x = 0 is feasible and the player rows bound everything
    x = [sol.x[i * m : (i + 1) * m] for i in range(n)]
    return CardinalityLPSolution(m, x), sol.value


def solve_cardinality_integral(m: int, bids):
    """Best integral allocation of sizes, (R tuple, value); ties prefer
    giving nothing, then smaller sizes to earlier players. Solved by
    mechanism.integral_argmax on the program of its shape, like
    solve_cardinality_lp."""
    _check_cardinality_bids(m, bids)
    program = _cardinality_shape(len(bids), m).integer_program
    return integral_argmax(*program, [b.amounts for b in bids])


def translate_to_cardinality(x: ConfigLPSolution, bids) -> CardinalityLPSolution:
    """Collapse set variables to their sizes; value-preserving for symmetric
    bids."""
    _require_symmetric(bids)
    subs = item_subsets(x.m)
    rows = []
    for i in range(x.n):
        row = [F0] * x.m
        for s, S in enumerate(subs):
            if S:
                row[len(S) - 1] += x.x[i][s]
        rows.append(tuple(row))
    out = CardinalityLPSolution(x.m, rows)
    if out.welfare(bids) != x.welfare(bids):
        raise StructuralError("size translation changed the objective")
    return out


def translate_to_config(xbar: CardinalityLPSolution, bids) -> ConfigLPSolution:
    """Spread each size's weight uniformly over all sets of that size."""
    _require_symmetric(bids)
    m = xbar.m
    subs = item_subsets(m)
    rows = []
    for i in range(xbar.n):
        row = []
        for S in subs:
            j = len(S)
            row.append(xbar.x[i][j - 1] / comb(m, j) if j else F0)
        rows.append(tuple(row))
    out = ConfigLPSolution(m, rows)
    if out.welfare(bids) != xbar.welfare(bids):
        raise StructuralError("set translation changed the objective")
    return out


# ------------------------------------------------------------ fair rounding


def fair_round(xbar: CardinalityLPSolution, m: int, seed) -> tuple:
    """One supply-safe integral size per player; reads no bids or values.

    A fair coin keeps either the small or the large sizes. Each player then
    independently draws size j with a quarter of the kept weight. If the
    draws oversubscribe the supply, everyone gets nothing. The coin is one
    randrange(2); each size is one randrange(D) bisected into the point's
    rounding_table, the same calls and sizes as weighted_index over the
    table's weights.
    """
    if xbar.m != m:
        raise StructuralError("solution was computed for a different supply")
    rng = Random(seed)
    draws = tuple(
        sizes[bisect_right(cum, rng.randrange(total))]
        for sizes, cum, total in xbar.rounding_table[rng.randrange(2)]
    )
    if sum(draws) <= m:
        return draws
    return tuple(0 for _ in draws)


def fair_round_support(xbar: CardinalityLPSolution, m: int) -> list:
    """Exact (probability, allocation) support of fair_round, sorted by
    allocation, from the rounding_table's integer weights.

    A coin's joint draw weighs the product of its players' weights over T,
    the product of their totals D; both coins are lifted to one denominator
    2 * lcm(T_heads, T_tails), so each outcome is one Fraction.
    """
    if xbar.m != m:
        raise StructuralError("solution was computed for a different supply")
    coins = []
    for players in xbar.rounding_table:
        options = [
            [(b - a, size) for a, b, size in zip([0, *cum], cum, sizes)]
            for sizes, cum, _ in players
        ]
        coins.append((prod(total for *_, total in players), product_support(options)))
    common = lcm(*(T for T, _ in coins))
    acc = {}
    for T, support in coins:
        lift = common // T
        for w, draws in support:
            outcome = draws if sum(draws) <= m else tuple(0 for _ in draws)
            acc[outcome] = acc.get(outcome, 0) + w * lift
    return [(Fraction(w, 2 * common), outcome) for outcome, w in sorted(acc.items())]


# -------------------------------------------------------------------- rules


def config_lp_smoothness(k: int) -> SmoothnessParams:
    """The configuration LP over MPH-k bids is (1/2, k + 1)-smooth, half-value."""
    return SmoothnessParams(HALF, k + 1, HALF_VALUE)


def mph_alpha(k: int) -> SymbolicAlpha:
    """The paper's rounding loss for MPH-k bids, by name; not implemented here."""
    return SymbolicAlpha(f"alpha_{k}")


# the paper's rounding loss for XOS bids, also not implemented here
XOS_ALPHA = SymbolicAlpha("e/(e-1)", e / (e - 1))
# the cardinality LP is (1/2, 2)-smooth for half-value deviations, and
# fair_round keeps 1/16 of each player's value in expectation
CARDINALITY_LP_SMOOTHNESS = SmoothnessParams(HALF, 2, HALF_VALUE)
FAIR_ALPHA = 16


def config_lp_rule(n: int, m: int) -> AllocationRule:
    return AllocationRule(
        "auction", lambda bids: solve_config_lp(n, m, bids), name="config-lp"
    )


def cardinality_integral_rule(m: int) -> AllocationRule:
    return AllocationRule(
        "auction",
        lambda bids: solve_cardinality_integral(m, bids),
        name="cardinality-integral",
    )


def fair_rule(m: int) -> AllocationRule:
    """Relax to the cardinality LP, round with the halving coin scheme."""
    return AllocationRule(
        "auction",
        lambda bids: solve_cardinality_lp(m, bids),
        round_stage=lambda relaxed, seed: fair_round(relaxed, m, seed),
        round_support=lambda relaxed: fair_round_support(relaxed, m),
        name="ca-fair",
    )


# ----------------------------------------------------------- counterexample


def gen_symmetric_counterexample(m: int) -> Counterexample:
    """m unit-value players against two whole-supply players worth 2.

    Small players bidding zero and big players bidding truthfully is a pure
    Nash equilibrium of the pay-your-bid mechanism over exact integral
    allocations: welfare 2 instead of the optimum m.
    """
    if m < 2:
        raise StructuralError("need at least two small players")
    values = tuple(
        SymmetricValuation(i, (F0,) + (F1,) * m) for i in range(m)
    ) + tuple(
        SymmetricValuation(m + t, (F0,) * m + (Fraction(2),)) for t in range(2)
    )
    rule = cardinality_integral_rule(m)
    return Counterexample.of(None, values, m, rule, partial(flat_symmetric_bid, m))


# --------------------------------------------------------------- generators


def gen_xos_instances(count: int, seed: int, max_players: int = 3, max_items: int = 4):
    """Seeded random level-1 instances: (m, values) pairs."""
    rng = Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_players)
        m = rng.randint(1, max_items)
        values = []
        for i in range(n):
            clauses = []
            for _ in range(rng.randint(1, 3)):
                clauses.append(
                    [
                        (frozenset({j}), Fraction(rng.randint(0, 8), rng.choice((1, 2))))
                        for j in range(m)
                    ]
                )
            values.append(MPHkValuation(i, 1, clauses))
        out.append((m, tuple(values)))
    return out


def gen_mph_instances(count: int, seed: int, k: int = 2, max_players: int = 3, max_items: int = 4):
    """Seeded random level-k instances with hyperedges up to size k, on
    max(2, k) to max_items items."""
    if max(2, k) > max_items:
        raise StructuralError(
            f"hierarchy level k must be at most {max_items}, the most items an instance has; got {k}"
        )
    rng = Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_players)
        m = rng.randint(max(2, k), max_items)
        values = []
        for i in range(n):
            clauses = []
            for _ in range(rng.randint(1, 2)):
                clause = []
                for _ in range(rng.randint(1, 4)):
                    size = rng.randint(1, k)
                    T = frozenset(rng.sample(range(m), min(size, m)))
                    clause.append((T, Fraction(rng.randint(0, 6))))
                clauses.append(clause)
            values.append(MPHkValuation(i, k, clauses))
        out.append((m, tuple(values)))
    return out


def gen_symmetric_instances(count: int, seed: int, max_players: int = 4, max_items: int = 6):
    """Seeded random symmetric instances: (m, values) with nondecreasing levels."""
    rng = Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_players)
        m = rng.randint(1, max_items)
        values = []
        for i in range(n):
            levels = [F0]
            for _ in range(m):
                levels.append(levels[-1] + Fraction(rng.randint(0, 5), rng.choice((1, 2))))
            values.append(SymmetricValuation(i, levels))
        out.append((m, tuple(values)))
    return out
