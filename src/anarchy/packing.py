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
from random import Random
from typing import Optional

from .errors import PreconditionError, SizeGuardError, StructuralError
from .mechanism import AllocationRule, CostCertificate, Counterexample, Valuation
from .rationals import F0, F1, frac, frac_str, parse_frac
from .solvers import LinearProgram, solve_lp

BRUTE_FORCE_CHOICE_BITS = 20  # exhaustive integral search guard: n*K at most this
DP_CAPACITY_GUARD = 100_000


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
    x: tuple  # n x K fractions

    @property
    def integral(self) -> bool:
        return all(v == 0 or v == 1 for player in self.x for v in player)

    def choices(self) -> tuple:
        """Per-player chosen option index + 1, or 0 for none (integral only)."""
        if not self.integral:
            raise PreconditionError("choices are only defined for integral points")
        out = []
        for player in self.x:
            picked = 0
            for k, v in enumerate(player):
                if v == 1:
                    picked = k + 1
                    break
            out.append(picked)
        return tuple(out)


@dataclass(frozen=True)
class OptionValuation(Valuation):
    """Value amounts[k] for receiving option k; linear in fractional shares."""

    player: int
    amounts: tuple
    domain: str = "packing"

    def __init__(self, player: int, amounts, domain: str = "packing"):
        amounts = tuple(frac(a) for a in amounts)
        if any(a < 0 for a in amounts):
            raise StructuralError("bids and values must be nonnegative")
        object.__setattr__(self, "player", player)
        object.__setattr__(self, "amounts", amounts)
        object.__setattr__(self, "domain", domain)

    def value(self, outcome) -> Fraction:
        if outcome is None:
            return F0
        row = outcome.x[self.player]
        return sum((a * v for a, v in zip(self.amounts, row)), F0)

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


def _packing_lp(inst: PackingInstance, bids, players, capacities):
    """The LP relaxation restricted to the listed players, under capacities.

    Columns are i*K + k over the listed players; the rows are the packing
    rows, then one "at most one option" row per listed player.
    """
    K = inst.K
    objective = [bids[i].amounts[k] for i in players for k in range(K)]
    rows = [[row[i][k] for i in players for k in range(K)] for row in inst.rows]
    rhs = list(capacities)
    for pos in range(len(players)):
        row = [F0] * len(objective)
        row[pos * K : (pos + 1) * K] = [F1] * K
        rows.append(row)
        rhs.append(F1)
    sol = solve_lp(LinearProgram(objective, rows, rhs))
    assert sol.optimal  # x = 0 is feasible and the player rows bound everything
    return sol


def solve_packing_lp(inst: PackingInstance, bids):
    """Exact optimum of the LP relaxation under the given bids."""
    _check_bids(inst, bids)
    n, K = inst.n, inst.K
    sol = _packing_lp(inst, bids, range(n), inst.capacities)
    x = tuple(tuple(sol.x[i * K + k] for k in range(K)) for i in range(n))
    return PackingAllocation(x), sol.value


def _dp_applicable(inst: PackingInstance) -> Optional[tuple]:
    """Single-row instances with integer data admit an exact knapsack sweep."""
    if inst.L != 1:
        return None
    weights = []
    for i in range(inst.n):
        row = []
        for k in range(inst.K):
            a = inst.rows[0][i][k]
            if a.denominator != 1:
                return None
            row.append(a.numerator)
        weights.append(row)
    cap = inst.capacities[0]
    if cap.denominator != 1 or cap.numerator > DP_CAPACITY_GUARD:
        return None
    return weights, cap.numerator


def _solve_integral_dp(inst, bids, weights, cap):
    n, K = inst.n, inst.K
    # dp[i][r]: best declared welfare from players i.. with r capacity left
    dp = [[F0] * (cap + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row = dp[i]
        nxt = dp[i + 1]
        amounts = bids[i].amounts
        w = weights[i]
        for r in range(cap + 1):
            best = nxt[r]
            for k in range(K):
                if w[k] <= r:
                    cand = amounts[k] + nxt[r - w[k]]
                    if cand > best:
                        best = cand
            row[r] = best
    choices = []
    r = cap
    for i in range(n):
        target = dp[i][r]
        if dp[i + 1][r] == target:
            choices.append(0)  # smallest choice first: taking nothing is 0
            continue
        for k in range(K):
            if weights[i][k] <= r and bids[i].amounts[k] + dp[i + 1][r - weights[i][k]] == target:
                choices.append(k + 1)
                r -= weights[i][k]
                break
        else:  # pragma: no cover - dp reconstruction cannot dead-end
            raise AssertionError("dp reconstruction failed")
    return choices, dp[0][cap]


def _solve_integral_brute(inst, bids):
    n, K = inst.n, inst.K
    if n * K > BRUTE_FORCE_CHOICE_BITS:
        raise SizeGuardError(
            f"{n * K} option choices exceed the exhaustive search guard"
        )
    caps = list(inst.capacities)
    best_value = None
    best_choices = None
    choices = [0] * n

    def recurse(i, acc):
        nonlocal best_value, best_choices
        if i == n:
            if best_value is None or acc > best_value:
                best_value = acc
                best_choices = tuple(choices)
            return
        # choice 0 first keeps the first maximizer lexicographically smallest
        choices[i] = 0
        recurse(i + 1, acc)
        for k in range(K):
            ok = True
            for l in range(inst.L):
                a = inst.rows[l][i][k]
                if a and caps[l] < a:
                    ok = False
                    break
            if not ok:
                continue
            for l in range(inst.L):
                caps[l] -= inst.rows[l][i][k]
            choices[i] = k + 1
            recurse(i + 1, acc + bids[i].amounts[k])
            for l in range(inst.L):
                caps[l] += inst.rows[l][i][k]
        choices[i] = 0

    recurse(0, F0)
    return list(best_choices), best_value


def solve_packing_integral(inst: PackingInstance, bids):
    """Exact integral declared-welfare maximizer.

    Ties break toward the lexicographically smallest choice tuple, where 0
    means "no option" and option k is recorded as k + 1. Single-constraint
    instances with integer consumption use an exact capacity sweep; anything
    else is searched exhaustively under a size guard.
    """
    _check_bids(inst, bids)
    dp_data = _dp_applicable(inst)
    if dp_data is not None:
        choices, value = _solve_integral_dp(inst, bids, *dp_data)
    else:
        choices, value = _solve_integral_brute(inst, bids)
    x = tuple(
        tuple(F1 if choices[i] == k + 1 else F0 for k in range(inst.K))
        for i in range(inst.n)
    )
    return PackingAllocation(x), value


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
            (inst.rows[l][i][k] * x[i][k] for i in range(inst.n) for k in range(inst.K)),
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
    others = [i for i in range(inst.n) if i != excluded]
    return _packing_lp(inst, bids, others, capacities).value


def residual_loss(inst: PackingInstance, bids, xbar) -> tuple:
    """(sum_i [W_-i(c) - W_-i(c - A xbar_i)], W(c)) for a feasible xbar.

    W_-i(c') is the LP optimum without player i under capacities c'.
    """
    _, full = solve_packing_lp(inst, bids)
    lhs = F0
    for i in range(inst.n):
        left = tuple(
            c - sum((row[i][k] * xbar[i][k] for k in range(inst.K)), F0)
            for c, row in zip(inst.capacities, inst.rows)
        )
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
        domain="packing",
        allocate=lambda bids, seed=None: solve_packing_lp(inst, bids)[0],
        exact=True,
        name="packing-lp",
    )


def integral_rule(inst: PackingInstance) -> AllocationRule:
    return AllocationRule(
        domain="packing",
        allocate=lambda bids, seed=None: solve_packing_integral(inst, bids)[0],
        exact=True,
        name="packing-integral",
    )


def multiunit_instance(values) -> PackingInstance:
    """Multi-unit auction: option k-1 stands for winning k of m identical units."""
    n = len(values)
    m = len(values[0])
    row = [[[Fraction(k + 1) for k in range(m)] for _ in range(n)]]
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
    inst = multiunit_instance(values)
    vals = truthful_bids(inst)
    bids = tuple(
        OptionValuation(i, (F0,) * m) if i < m else vals[i] for i in range(m + 2)
    )
    rule = integral_rule(inst)
    _, optimum = solve_packing_integral(inst, vals)
    outcome = rule.allocate(bids, None)
    eq_welfare = sum((v.value(outcome) for v in vals), F0)
    return Counterexample(inst, vals, bids, rule, optimum, eq_welfare, optimum / eq_welfare)


def counterexample_deviations(ce: Counterexample, resolution: int = 20) -> list:
    """Scaled-value bids plus flat bids at the construction's levels 0, 1, 2."""
    inst = ce.instance
    grids = []
    for i, v in enumerate(ce.values):
        cand = [v.scale(Fraction(j, resolution)) for j in range(resolution + 1)]
        for level in (0, 1, 2):
            cand.append(uniform_option_bid(inst, i, level))
        grids.append(cand)
    return grids


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
            out.append(multiunit_instance(values))
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
    sampled bids, and a random feasible point.
    """
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
