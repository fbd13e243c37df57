"""Packing integer programs with per-player option sets.

An instance has n players, each choosing at most one of K options, subject
to L shared packing constraints A x <= c with nonnegative coefficients. The
per-player "pick at most one option" rows are implicit and never counted in
the column sparsity d, which is the largest number of packing rows any
single option touches.

The LP relaxation, solved exactly, is the allocation rule of the relaxed
pay-your-bid mechanism; it is smooth with parameters (1/2, d + 1) for
half-value deviations. The exact integral maximizer is also provided, both
to certify lower-bound constructions and to show that integral declared-
welfare maximization by itself is not smooth: multi-unit instances exist
whose pure Nash equilibrium welfare is a factor m/2 below the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from random import Random
from typing import ClassVar

from .errors import PreconditionError, StructuralError
from .mechanism import AllocationRule, CostCertificate, Counterexample, Valuation
from .mechanism import HALF_VALUE, SmoothnessParams, integral_argmax, relaxation
from .rationals import F0, F1, HALF, frac, frac_str, parse_frac, scale_to_integers
from .solvers import solve_lp


@dataclass(frozen=True)
class PackingInstance:
    values: tuple  # n x K true values per option
    rows: tuple  # L x n x K nonnegative consumption
    capacities: tuple  # length L

    def __init__(self, values, rows, capacities):
        values = tuple(tuple(frac(v) for v in player) for player in values)
        rows = tuple(
            tuple(tuple(frac(a) for a in player) for player in row) for row in rows
        )
        capacities = tuple(frac(c) for c in capacities)
        n = len(values)
        K = len(values[0]) if n else 0
        if any(len(p) != K for p in values):
            raise StructuralError("every player needs the same number of options")
        if len(rows) != len(capacities):
            raise StructuralError("constraint count does not match capacity count")
        for row in rows:
            if len(row) != n or any(len(p) != K for p in row):
                raise StructuralError("constraint row shape does not match values")
            for player in row:
                for a in player:
                    if a < 0:
                        raise StructuralError("consumption coefficients must be >= 0")
        for player in values:
            for v in player:
                if v < 0:
                    raise StructuralError("option values must be >= 0")
        for c in capacities:
            if c <= 0:
                raise StructuralError("capacities must be > 0")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "capacities", capacities)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def K(self) -> int:
        return len(self.values[0]) if self.values else 0

    @property
    def L(self) -> int:
        return len(self.rows)

    @cached_property
    def integer_program(self) -> tuple:
        """(options, capacities) in ints, compiled once: the program
        mechanism.integral_argmax maximizes and mechanism.relaxation
        relaxes. Row l with capacity c = p/q is scaled by s * q, s the lcm
        of its coefficients' denominators, so its capacity is the int
        s * p; option k of player i lists the rows it uses."""
        rows = []
        for row, c in zip(self.rows, self.capacities):
            ints, s = scale_to_integers([a for player in row for a in player])
            rows.append(([a * c.denominator for a in ints], s * c.numerator))
        K = self.K
        uses = [
            [(l, row[j]) for l, (row, _) in enumerate(rows) if row[j]]
            for j in range(self.n * K)
        ]
        return [uses[i * K : (i + 1) * K] for i in range(self.n)], [c for _, c in rows]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "K": self.K,
            "L": self.L,
            "values": [[frac_str(v) for v in p] for p in self.values],
            "A": [[[frac_str(a) for a in p] for p in row] for row in self.rows],
            "c": [frac_str(c) for c in self.capacities],
        }

    @staticmethod
    def from_dict(data: dict) -> "PackingInstance":
        values = [[parse_frac(v) for v in p] for p in data["values"]]
        rows = [[[parse_frac(a) for a in p] for p in row] for row in data["A"]]
        caps = [parse_frac(c) for c in data["c"]]
        return PackingInstance(values, rows, caps)


@dataclass(frozen=True)
class PackingAllocation:
    """An LP point; integral outcomes are solve_packing_integral's tuples."""

    x: tuple  # n x K fractions


@dataclass(frozen=True)
class OptionValuation(Valuation):
    """Value amounts[k] for receiving option k; linear in fractional shares."""

    player: int
    amounts: tuple
    domain: ClassVar[str] = "packing"
    __hash__ = Valuation.__hash__

    def __init__(self, player: int, amounts):
        amounts = tuple(frac(a) for a in amounts)
        if any(a < 0 for a in amounts):
            raise StructuralError("bids and values must be nonnegative")
        object.__setattr__(self, "player", player)
        object.__setattr__(self, "amounts", amounts)

    def value(self, outcome) -> Fraction:
        """Linear in a PackingAllocation's shares; on an integral choice
        tuple, amounts[c - 1] for entry c, nothing for 0."""
        if outcome is None:
            return F0
        if isinstance(outcome, PackingAllocation):
            row = outcome.x[self.player]
            return sum((a * v for a, v in zip(self.amounts, row)), F0)
        c = outcome[self.player]
        return self.amounts[c - 1] if c else F0

    def scale(self, theta) -> "OptionValuation":
        theta = frac(theta)
        return OptionValuation(self.player, tuple(theta * a for a in self.amounts))

    def best_case(self) -> Fraction:
        return max(self.amounts) if self.amounts else F0


def truthful_bids(inst: PackingInstance) -> tuple:
    return tuple(OptionValuation(i, inst.values[i]) for i in range(inst.n))


def uniform_option_bid(inst: PackingInstance, player: int, amount) -> OptionValuation:
    """A bid of the same amount for every option (used in deviation grids)."""
    return OptionValuation(player, (frac(amount),) * inst.K)


def column_sparsity(inst: PackingInstance) -> int:
    """Largest number of constraint rows any single (player, option) touches."""
    best = 0
    for i in range(inst.n):
        for k in range(inst.K):
            touched = sum(1 for row in inst.rows if row[i][k] != 0)
            if touched > best:
                best = touched
    return best


def _check_bids(inst: PackingInstance, bids) -> None:
    if len(bids) != inst.n:
        raise StructuralError("one bid per player required")
    for i, b in enumerate(bids):
        if b.player != i or b.domain != "packing" or len(b.amounts) != inst.K:
            raise StructuralError(f"bid {i} does not fit the instance")


def solve_packing_lp(inst: PackingInstance, bids):
    """Exact optimum of the LP relaxation under the given bids: the
    mechanism.relaxation of inst.integer_program."""
    _check_bids(inst, bids)
    sol = solve_lp(relaxation(*inst.integer_program, [b.amounts for b in bids]))
    assert sol.optimal  # x = 0 is feasible and the player rows bound everything
    K = inst.K
    x = tuple(sol.x[i * K : (i + 1) * K] for i in range(inst.n))
    return PackingAllocation(x), sol.value


def solve_packing_integral(inst: PackingInstance, bids):
    """Exact integral declared-welfare maximizer, (choices, value).

    choices[i] is 0 for no option or k + 1 for option k: the outcome
    OptionValuation.value reads, an int tuple like the sizes
    auctions.solve_cardinality_integral returns. Ties break toward the
    lexicographically smallest tuple. The answer comes from
    mechanism.integral_argmax, the one integral maximizer of every domain,
    on inst.integer_program. A single row whose scaled capacity is at most
    SWEEP_CAPACITY_LIMIT is swept; anything else is searched, and meeting
    more than SEARCH_LIMIT feasible tuples there raises SizeGuardError.
    """
    _check_bids(inst, bids)
    return integral_argmax(*inst.integer_program, [b.amounts for b in bids])


def check_feasible(inst: PackingInstance, x) -> None:
    """Exact feasibility of a fractional point; raises PreconditionError."""
    if len(x) != inst.n or any(len(row) != inst.K for row in x):
        raise StructuralError("allocation shape does not match the instance")
    for row in x:
        for v in row:
            if v < 0:
                raise PreconditionError("allocation entries must be >= 0")
        if sum(row, F0) > 1:
            raise PreconditionError("a player exceeds one option in total")
    for l in range(inst.L):
        load = sum(
            (a * v for row, xi in zip(inst.rows[l], x) for a, v in zip(row, xi) if v),
            F0,
        )
        if load > inst.capacities[l]:
            raise PreconditionError(f"constraint {l} is violated")


def residual_welfare(inst: PackingInstance, bids, excluded: int, capacities):
    """LP optimum with one player removed and capacities replaced.

    Preconditions: 0 <= capacities <= the instance capacities, componentwise.
    """
    _check_bids(inst, bids)
    capacities = tuple(frac(c) for c in capacities)
    if len(capacities) != inst.L:
        raise StructuralError("capacity vector has the wrong length")
    for c, orig in zip(capacities, inst.capacities):
        if c < 0:
            raise StructuralError("residual capacities must be >= 0")
        if c > orig:
            raise PreconditionError("residual capacities cannot exceed the originals")
    if not (0 <= excluded < inst.n):
        raise StructuralError("excluded player out of range")
    options, caps = inst.integer_program
    options = list(options)
    weights = [b.amounts for b in bids]
    options[excluded] = weights[excluded] = ()
    # row l of the program is scaled by s * q for the capacity p/q, and
    # caps[l] is s * p, so a capacity c enters as c * s * q
    scaled = [
        c * (cap // orig.numerator * orig.denominator)
        for c, cap, orig in zip(capacities, caps, inst.capacities)
    ]
    sol = solve_lp(relaxation(options, scaled, weights))
    assert sol.optimal  # x = 0 is feasible and the player rows bound everything
    return sol.value


def residual_loss(inst: PackingInstance, bids, xbar) -> tuple:
    """(sum_i [W_-i(c) - W_-i(c - A xbar_i)], W(c)) for a feasible xbar.

    W_-i(c') is the LP optimum without player i under capacities c'. When
    player i's share consumes nothing, c - A xbar_i is c itself: the two
    programs are the same, the term is exactly 0, and neither is solved.
    """
    _, full = solve_packing_lp(inst, bids)
    lhs = F0
    for i in range(inst.n):
        left = tuple(
            c - sum((a * v for a, v in zip(row[i], xbar[i]) if v), F0)
            for c, row in zip(inst.capacities, inst.rows)
        )
        if left != inst.capacities:
            without = residual_welfare(inst, bids, i, inst.capacities)
            lhs += without - residual_welfare(inst, bids, i, left)
    return lhs, full


def check_pip_social_cost(inst: PackingInstance, bids, xbar) -> CostCertificate:
    """Residual social-cost bound for the LP relaxation.

    For any feasible fractional point xbar, summing over players the loss of
    the others' optimal LP welfare caused by carving out player i's share of
    the capacities is at most (d + 1) times the full LP optimum:

        sum_i [W_-i(c) - W_-i(c - A xbar_i)]  <=  (d + 1) W(c).
    """
    if isinstance(xbar, PackingAllocation):
        xbar = xbar.x
    xbar = tuple(tuple(frac(v) for v in row) for row in xbar)
    check_feasible(inst, xbar)
    d = column_sparsity(inst)
    lhs, full = residual_loss(inst, bids, xbar)
    rhs = (d + 1) * full
    return CostCertificate(lhs <= rhs, lhs, rhs, {"d": d, "welfare": full})


def lp_rule(inst: PackingInstance) -> AllocationRule:
    return AllocationRule(
        "packing", lambda bids: solve_packing_lp(inst, bids), name="packing-lp"
    )


def integral_rule(inst: PackingInstance) -> AllocationRule:
    return AllocationRule(
        "packing",
        lambda bids: solve_packing_integral(inst, bids),
        name="packing-integral",
    )


def lp_smoothness(d: int) -> SmoothnessParams:
    """The LP of column sparsity d is (1/2, d + 1)-smooth, half-value."""
    return SmoothnessParams(HALF, d + 1, HALF_VALUE)


def rounding_alpha(d: int) -> int:
    """The paper's rounding loss at sparsity d; not implemented here."""
    return 8 * d


def multiunit_instance(values, m: int) -> PackingInstance:
    """Multi-unit auction: option k-1 stands for winning k of m identical units.

    m is given rather than read off a row, so an auction without bidders is
    still m units."""
    row = [[[Fraction(k + 1) for k in range(m)] for _ in values]]
    return PackingInstance(values, row, [Fraction(m)])


def gen_multiunit_counterexample(m: int) -> Counterexample:
    """m small unit-value players, two big all-or-nothing players.

    Small player i values any positive number of units at 1; the two big
    players value all m units at 2. Small players bidding zero while the
    big players bid truthfully is a pure Nash equilibrium of the integral
    pay-your-bid mechanism with welfare 2, while the optimum m gives one
    unit to each small player. The gap m/2 grows with the market size even
    though the allocation rule itself is exactly optimal.
    """
    if m < 2:
        raise StructuralError("need at least two units")
    values = [[F1] * m for _ in range(m)]
    big = [F0] * (m - 1) + [Fraction(2)]
    values.append(list(big))
    values.append(list(big))
    inst = multiunit_instance(values, m)
    flat = partial(uniform_option_bid, inst)
    return Counterexample.of(inst, truthful_bids(inst), m, integral_rule(inst), flat)


def random_feasible_point(inst: PackingInstance, rng: Random) -> tuple:
    """A random exactly-feasible fractional point, scaled into the polytope."""
    x = [
        [Fraction(rng.randint(0, 8), 8) for _ in range(inst.K)]
        for _ in range(inst.n)
    ]
    for i in range(inst.n):
        s = sum(x[i], F0)
        if s > 1:
            x[i] = [v / s for v in x[i]]
    factor = F1
    for l in range(inst.L):
        load = sum(
            (inst.rows[l][i][k] * x[i][k] for i in range(inst.n) for k in range(inst.K)),
            F0,
        )
        if load > 0:
            cap_ratio = inst.capacities[l] / load
            if cap_ratio < factor:
                factor = cap_ratio
    return tuple(tuple(v * factor for v in row) for row in x)


def _rand_value(rng: Random) -> Fraction:
    return Fraction(rng.randint(0, 24), rng.choice((1, 2, 3, 4)))


def gen_instances(kind: str, count: int, seed: int, **dims) -> list:
    """Seeded instance families.

    kind "multi-unit": dims n, m; values nondecreasing in the unit count.
    kind "gap": dims n, K, L; every option consumes on exactly one row.
    kind "sparse-random": dims n, K, L, d; every option touches exactly d rows.
    """
    rng = Random(seed)
    out = []
    for _ in range(count):
        if kind == "multi-unit":
            n, m = dims["n"], dims["m"]
            values = [
                sorted(_rand_value(rng) for _ in range(m)) for _ in range(n)
            ]
            out.append(multiunit_instance(values, m))
        elif kind == "gap":
            n, K, L = dims["n"], dims["K"], dims["L"]
            values = [[_rand_value(rng) for _ in range(K)] for _ in range(n)]
            rows = [[[F0] * K for _ in range(n)] for _ in range(L)]
            for i in range(n):
                for k in range(K):
                    rows[rng.randrange(L)][i][k] = Fraction(rng.randint(1, 4))
            caps = [Fraction(rng.randint(2, 8)) for _ in range(L)]
            out.append(PackingInstance(values, rows, caps))
        elif kind == "sparse-random":
            n, K, L, d = dims["n"], dims["K"], dims["L"], dims["d"]
            if d > L:
                raise StructuralError("sparsity d cannot exceed the row count")
            values = [[_rand_value(rng) for _ in range(K)] for _ in range(n)]
            rows = [[[F0] * K for _ in range(n)] for _ in range(L)]
            for i in range(n):
                for k in range(K):
                    support = rng.sample(range(L), d)
                    for l in support:
                        rows[l][i][k] = Fraction(rng.randint(1, 4))
            caps = [Fraction(rng.randint(2, 10)) for _ in range(L)]
            out.append(PackingInstance(values, rows, caps))
        else:
            raise StructuralError(f"unknown instance family {kind!r}")
    return out


def random_bids(inst: PackingInstance, rng: Random) -> tuple:
    return tuple(
        OptionValuation(i, [_rand_value(rng) for _ in range(inst.K)])
        for i in range(inst.n)
    )


def social_cost_suite(count: int, seed: int, sparsities=(1, 2, 3)) -> list:
    """Residual social-cost certificates on random instances.

    Cycles the fractional point through all-zero, the LP optimum at the
    sampled bids, and a random feasible point. Each instance has 4 rows at
    most, so a sparsity above 4 is rejected before any draw.
    """
    if max(sparsities) > 4:
        raise StructuralError(
            f"sparsity d must be at most 4, the most rows an instance has; got {max(sparsities)}"
        )
    rng = Random(seed)
    certs = []
    for t in range(count):
        d = sparsities[t % len(sparsities)]
        n = rng.randint(2, 5)
        K = rng.randint(1, 3)
        L = rng.randint(d, 4)
        inst = gen_instances(
            "sparse-random", 1, rng.getrandbits(32), n=n, K=K, L=L, d=d
        )[0]
        bids = random_bids(inst, rng)
        mode = t % 3
        if mode == 0:
            xbar = tuple((F0,) * K for _ in range(n))
        elif mode == 1:
            xbar = solve_packing_lp(inst, bids)[0].x
        else:
            xbar = random_feasible_point(inst, rng)
        certs.append(check_pip_social_cost(inst, bids, xbar))
    return certs
