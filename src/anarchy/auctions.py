"""Combinatorial auctions: configuration LP, symmetric case, fair rounding.

Valuations are max-over-clauses of bounded hyperedge sums (level k of the
complementarity hierarchy; k = 1 is fractionally subadditive). The
configuration LP is a packing program with one option per bundle and one
unit-capacity row per item. The symmetric specialization only depends on how
many items a player gets, making its two natural relaxations interchangeable
and the cardinality one a one-row packing program.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb
from random import Random

from .errors import PreconditionError, SizeGuardError, StructuralError
from .mechanism import (
    AllocationRule,
    CostCertificate,
    Counterexample,
    Valuation,
    product_support,
)
from .packing import (
    PackingInstance,
    multiunit_instance,
    residual_loss,
    solve_packing_integral,
    solve_packing_lp,
    truthful_bids,
)
from .rationals import F0, F1, HALF, frac, frac_str, integer_weights, parse_frac
from .rationals import weighted_index

# unused here; kept while bench/tests/test_bench.py expects this binding
from .solvers import solve_lp  # noqa: F401

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


@dataclass(frozen=True)
class MPHkValuation(Valuation):
    """Max over clauses of summed hyperedge values, hyperedges of size <= k.

    clauses is a tuple of clauses, each a tuple of (frozenset, value) pairs.
    k = 1 with singleton hyperedges is the fractionally subadditive class.
    """

    player: int
    k: int
    clauses: tuple
    domain: str = "auction"

    def __init__(self, player, k, clauses, domain="auction"):
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
        object.__setattr__(self, "domain", domain)

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


@dataclass(frozen=True)
class SymmetricValuation(Valuation):
    """Depends only on how many items are received; levels[j] for j items."""

    player: int
    levels: tuple  # levels[0] == 0, indices 0..m
    domain: str = "auction"

    def __init__(self, player, levels, domain="auction"):
        levels = tuple(frac(x) for x in levels)
        if not levels or levels[0] != 0:
            raise StructuralError("receiving nothing is worth exactly zero")
        if any(x < 0 for x in levels):
            raise StructuralError("bids and values must be nonnegative")
        object.__setattr__(self, "player", player)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "domain", domain)
        # bid profiles key the relaxation cache and Fraction hashes are not
        # cheap; the domain string is left out so the hash, unlike a str
        # hash, is the same in every process that unpickles the valuation
        object.__setattr__(self, "_hash", hash((player, levels)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def m(self) -> int:
        return len(self.levels) - 1

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


@dataclass(frozen=True)
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


def _check_auction_bids(bids) -> None:
    for i, b in enumerate(bids):
        if b.player != i or b.domain != "auction":
            raise StructuralError("bid does not match its player slot")


def _set_value(bid, S) -> Fraction:
    if isinstance(bid, SymmetricValuation):
        return bid.levels[len(S)]
    return eval_mph(bid, S)


def config_instance(m: int, bids) -> tuple:
    """The configuration LP as a packing program, (PackingInstance, option bids).

    Option s of every player is the bundle item_subsets(m)[s], valued by that
    player's bid; item j is one capacity-1 row touched by the bundles holding j.
    """
    subs = item_subsets(m)
    amounts = [[_set_value(b, S) for S in subs] for b in bids]
    rows = [[[F1 if j in S else F0 for S in subs] for _ in bids] for j in range(m)]
    inst = PackingInstance(amounts, rows, [F1] * m)
    return inst, truthful_bids(inst)


def solve_config_lp(n: int, m: int, bids):
    """Exact configuration LP optimum, (ConfigLPSolution, value)."""
    if len(bids) != n:
        raise StructuralError("one bid per player required")
    _check_auction_bids(bids)
    alloc, value = solve_packing_lp(*config_instance(m, bids))
    return ConfigLPSolution(m, alloc.x), value


def check_ca_social_cost(bids, x: ConfigLPSolution, k: int) -> CostCertificate:
    """Removing any one player's fractional share costs at most (k+1) times
    the full declared optimum, summed over players."""
    _check_auction_bids(bids)
    if len(bids) != x.n:
        raise StructuralError("solution and bid profile sizes differ")
    lhs, full = residual_loss(*config_instance(x.m, bids), x.x)
    rhs = (k + 1) * full
    return CostCertificate(
        holds=lhs <= rhs, lhs=lhs, rhs=rhs, detail={"welfare": full}
    )


# ----------------------------------------------------------- symmetric case


@dataclass(frozen=True)
class CardinalityLPSolution:
    """Fractional allocation by set size: x[i][j-1] is player i's weight on
    receiving exactly j items."""

    m: int
    x: tuple

    def __init__(self, m, x):
        x = tuple(tuple(frac(v) for v in row) for row in x)
        total = F0
        for row in x:
            if len(row) != m:
                raise StructuralError("one variable per cardinality required")
            if any(v < 0 for v in row):
                raise StructuralError("allocations are nonnegative")
            if sum(row) > 1:
                raise StructuralError("a player receives at most one size in total")
            total += sum((Fraction(j + 1) * row[j] for j in range(m)), F0)
        if total > m:
            raise StructuralError("total item mass exceeds the supply")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return len(self.x)

    @cached_property
    def rounding_table(self) -> tuple:
        """Fair rounding compiled once per point: for each coin, for each
        player, (size options, their integer_weights)."""
        return tuple(
            tuple(
                (opts, integer_weights([p for p, _ in opts]))
                for opts in map(_size_options, _halved(self, coin))
            )
            for coin in (0, 1)
        )

    def welfare(self, bids) -> Fraction:
        return sum((b.value(self) for b in bids), F0)


def _require_symmetric(bids) -> None:
    for b in bids:
        if not isinstance(b, SymmetricValuation):
            raise PreconditionError("this operation needs symmetric bids")


def _cardinality_instance(bids) -> tuple:
    """Symmetric bids as a multi-unit packing program, (instance, option bids)."""
    _check_auction_bids(bids)
    _require_symmetric(bids)
    inst = multiunit_instance([b.levels[1:] for b in bids])
    return inst, truthful_bids(inst)


def solve_cardinality_lp(m: int, bids):
    """Exact cardinality-variable optimum, (CardinalityLPSolution, value).

    This is the one-row packing relaxation with row (1, ..., m) and
    capacity m, solved by the packing module.
    """
    alloc, value = solve_packing_lp(*_cardinality_instance(bids))
    return CardinalityLPSolution(m, alloc.x), value


def solve_cardinality_integral(m: int, bids):
    """Best integral allocation of sizes, (R tuple, value); ties prefer
    giving nothing, then smaller sizes to earlier players."""
    alloc, value = solve_packing_integral(*_cardinality_instance(bids))
    return tuple(alloc.choices()), value


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


def _halved(xbar: CardinalityLPSolution, coin: int) -> list:
    """Keep sizes up to half the supply on heads, the rest on tails."""
    cut = xbar.m // 2
    rows = []
    for row in xbar.x:
        rows.append(
            [
                row[j] if (j + 1 <= cut) == (coin == 0) else F0
                for j in range(xbar.m)
            ]
        )
    return rows


def _size_options(q_row) -> list:
    """[(probability, size)] for one player's draw, size 0 catching the rest."""
    opts = [(q / 4, j + 1) for j, q in enumerate(q_row) if q > 0]
    rest = F1 - sum((p for p, _ in opts), F0)
    return opts + [(rest, 0)]


def fair_round(xbar: CardinalityLPSolution, m: int, seed) -> tuple:
    """One supply-safe integral size per player; reads no bids or values.

    A fair coin keeps either the small or the large sizes. Each player then
    independently draws size j with a quarter of the kept weight. If the
    draws oversubscribe the supply, everyone gets nothing.
    """
    if xbar.m != m:
        raise StructuralError("solution was computed for a different supply")
    rng = Random(seed)
    table = xbar.rounding_table[rng.randrange(2)]
    draws = tuple(opts[weighted_index(rng, ints)][1] for opts, ints in table)
    if sum(draws) <= m:
        return draws
    return tuple(0 for _ in draws)


def fair_round_support(xbar: CardinalityLPSolution, m: int) -> list:
    """Exact (probability, allocation) support of fair_round, sorted by
    allocation."""
    if xbar.m != m:
        raise StructuralError("solution was computed for a different supply")
    acc = {}
    for coin in (0, 1):
        options = [opts for opts, _ in xbar.rounding_table[coin]]
        for prob, draws in product_support(options):
            if prob == 0:
                continue
            outcome = draws if sum(draws) <= m else tuple(0 for _ in draws)
            acc[outcome] = acc.get(outcome, F0) + HALF * prob
    return [(p, outcome) for outcome, p in sorted(acc.items())]


# -------------------------------------------------------------------- rules


def config_lp_rule(n: int, m: int) -> AllocationRule:
    return AllocationRule(
        domain="auction",
        allocate=lambda bids, seed=None: solve_config_lp(n, m, bids)[0],
        exact=True,
        name="config-lp",
    )


def cardinality_integral_rule(m: int) -> AllocationRule:
    return AllocationRule(
        domain="auction",
        allocate=lambda bids, seed=None: solve_cardinality_integral(m, bids)[0],
        exact=True,
        name="cardinality-integral",
    )


def fair_rule(m: int) -> AllocationRule:
    """Relax to the cardinality LP, round with the halving coin scheme."""

    def relax(bids):
        return solve_cardinality_lp(m, bids)[0]

    return AllocationRule(
        domain="auction",
        exact=False,
        randomized=True,
        opt_welfare=lambda values: solve_cardinality_lp(m, values)[1],
        relax=relax,
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
    bids = tuple(
        v.scale(0) if i < m else v for i, v in enumerate(values)
    )
    rule = cardinality_integral_rule(m)
    _, optimum = solve_cardinality_integral(m, values)
    outcome = rule.allocate(bids, None)
    eq_welfare = sum((v.value(outcome) for v in values), F0)
    return Counterexample(
        None, values, bids, rule, optimum, eq_welfare, optimum / eq_welfare
    )


def counterexample_symmetric_deviations(ce: Counterexample, resolution: int = 20):
    """Scaled-value bids plus flat bids at the construction's levels 0, 1, 2."""
    m = ce.values[0].m
    grids = []
    for i, v in enumerate(ce.values):
        cand = [v.scale(Fraction(j, resolution)) for j in range(resolution + 1)]
        cand += [flat_symmetric_bid(m, i, level) for level in (0, 1, 2)]
        grids.append(cand)
    return grids


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
    """Seeded random level-k instances with hyperedges up to size k."""
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
