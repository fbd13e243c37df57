"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive: exhaustive enumeration and dense
Gaussian elimination over Fractions. The point is that none of this code
shares logic with the package under test. The `*_reference` functions are
the plain forms of faster package code: the package must return exactly
what they return. The flow and Hedge references borrow only the package's
containers, its coin flip and Hedge's weight rescaling, which they do not
test; `cardinality_instance` borrows its multi-unit instance builder, and
`path_lp_reference`, the flow-unit path LP the package once built, its
path enumeration. `LinearProgram` is the Fraction form in which the tests
state programs, and `_compile` scales it to the `IntegerProgram` that
`solve_lp` takes. `enumerate_draws` turns any seeded sampler into its exact
distribution, to hold against the package's support enumerators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import exp, gcd, lcm
from random import Random
from types import SimpleNamespace
from typing import Sequence

from anarchy.dynamics import SEED_SPAN, PlayTrace, RoundRecord, _in_range, default_eta
from anarchy.errors import StructuralError
from anarchy.flows import FlowInstance, PathAssignment
from anarchy.flows import enumerate_paths, flow_decompose
from anarchy.mechanism import RelaxationCache, check_bids
from anarchy.maxtsp import HamiltonianCycle
from anarchy.packing import multiunit_instance, truthful_bids
from anarchy.rationals import bernoulli, frac, scale_to_integers
from anarchy.solvers import IntegerProgram

F0 = Fraction(0)
F1 = Fraction(1)


def solve_square(matrix, rhs):
    """Exact Gaussian elimination; returns None when the system is singular."""
    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if aug[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def lp_opt_by_vertex_enum(objective, rows, rhs):
    """Optimum of max c.x, Ax <= b, x >= 0 for bounded feasible programs.

    Enumerates every basic point (intersection of n tight constraints drawn
    from the rows and the axes), keeps the feasible ones, and returns the
    best objective value. Returns None when no vertex is feasible.
    """
    n = len(objective)
    cons = [(list(row), rhs[i]) for i, row in enumerate(rows)]
    for j in range(n):
        axis = [F0] * n
        axis[j] = Fraction(-1)
        cons.append((axis, F0))

    best = None
    for idx in combinations(range(len(cons)), n):
        mat = [cons[i][0] for i in idx]
        vec = [cons[i][1] for i in idx]
        x = solve_square(mat, vec)
        if x is None:
            continue
        if any(v < 0 for v in x):
            continue
        if any(sum(a * v for a, v in zip(row, x)) > b for row, b in cons):
            continue
        val = sum(c * v for c, v in zip(objective, x))
        if best is None or val > best:
            best = val
    return best


@dataclass(frozen=True)
class LinearProgram:
    """max objective . x  s.t.  rows[i] . x <= rhs[i],  x >= 0;  rhs >= 0."""

    objective: tuple
    rows: tuple
    rhs: tuple

    def __init__(self, objective: Sequence, rows: Sequence[Sequence], rhs: Sequence):
        objective = tuple(frac(v) for v in objective)
        rows = tuple(tuple(frac(v) for v in row) for row in rows)
        rhs = tuple(frac(v) for v in rhs)
        if len(rows) != len(rhs):
            raise StructuralError(
                f"matrix has {len(rows)} rows but rhs has {len(rhs)} entries"
            )
        for row in rows:
            if len(row) != len(objective):
                raise StructuralError(
                    f"row of width {len(row)} does not match objective width {len(objective)}"
                )
        for i, b in enumerate(rhs):
            if b < 0:
                raise StructuralError(
                    f"rhs entry {i} is {b}; a packing program needs rhs >= 0"
                )
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)


def _compile(lp: LinearProgram) -> IntegerProgram:
    """Each row with its rhs times the lcm of their denominators."""
    return IntegerProgram(
        lp.objective,
        tuple(scale_to_integers(row + (b,))[0] for row, b in zip(lp.rows, lp.rhs)),
    )


def _ref_pivot(tableau, obj, basis, prow_idx, pcol):
    prow = tableau[prow_idx]
    piv = prow[pcol]
    if piv != 1:
        inv = Fraction(1) / piv
        prow = [a * inv for a in prow]
        tableau[prow_idx] = prow
    for r in range(len(tableau)):
        if r == prow_idx:
            continue
        row = tableau[r]
        f = row[pcol]
        if f:
            tableau[r] = [a - f * b for a, b in zip(row, prow)]
    f = obj[pcol]
    if f:
        obj[:] = [a - f * b for a, b in zip(obj, prow)]
    basis[prow_idx] = pcol


def _ref_run_simplex(tableau, obj, basis, ncols):
    """Bland's rule loop. Returns None on optimality, or the unbounded column."""
    while True:
        pcol = -1
        for j in range(ncols):
            if obj[j] > 0:
                pcol = j
                break
        if pcol < 0:
            return None
        prow_idx = -1
        best_ratio = None
        for r, row in enumerate(tableau):
            a = row[pcol]
            if a > 0:
                ratio = row[-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[prow_idx])
                ):
                    best_ratio = ratio
                    prow_idx = r
        if prow_idx < 0:
            return pcol
        _ref_pivot(tableau, obj, basis, prow_idx, pcol)


def solve_lp_reference(objective, rows, rhs):
    """(status, x, value) of max c.x, Ax <= b, x >= 0 by a dense two-phase
    Fraction tableau: Bland's entering rule, ratio-test ties toward the
    lowest basic variable index, artificials for negative rhs rows. This is
    the package's simplex as it stood before its pivots became fraction-free;
    the integer tableau must reach the same vertex on every program."""
    objective = [Fraction(c) for c in objective]
    n = len(objective)
    m = len(rows)

    # Constraint rows with slacks appended: A x + s = b.
    tableau = []
    rhs = [Fraction(b) for b in rhs]
    negate = [b < 0 for b in rhs]
    for i, row in enumerate(rows):
        full = [Fraction(a) for a in row] + [F0] * m + [rhs[i]]
        full[n + i] = Fraction(1)
        if negate[i]:
            full = [-a for a in full]
        tableau.append(full)

    art_rows = [i for i in range(m) if negate[i]]
    ncols = n + m + len(art_rows)
    basis = []
    for i in range(m):
        if negate[i]:
            col = n + m + art_rows.index(i)
        else:
            col = n + i
        basis.append(col)
    # widen rows with artificial columns
    for i in range(m):
        extra = [F0] * len(art_rows)
        if negate[i]:
            extra[art_rows.index(i)] = Fraction(1)
        row = tableau[i]
        tableau[i] = row[:-1] + extra + [row[-1]]

    if art_rows:
        # Phase 1: maximize -(sum of artificials); feasible iff optimum is 0.
        obj = [F0] * ncols + [F0]
        for i in art_rows:
            row = tableau[i]
            for j in range(ncols + 1):
                if row[j]:
                    obj[j] += row[j]
        for j in range(n + m, ncols):
            obj[j] = F0
        unbounded_col = _ref_run_simplex(tableau, obj, basis, ncols)
        assert unbounded_col is None  # phase 1 objective is bounded above by 0
        if obj[-1] != 0:
            # obj[-1] holds -(phase 1 value), i.e. the artificial mass left over.
            return "infeasible", None, None
        # Drive any artificial still in the basis out of it (degenerate rows).
        drop = []
        for r in range(m):
            if basis[r] >= n + m:
                row = tableau[r]
                pcol = -1
                for j in range(n + m):
                    if row[j]:
                        pcol = j
                        break
                if pcol < 0:
                    drop.append(r)
                else:
                    _ref_pivot(tableau, obj, basis, r, pcol)
        for r in reversed(drop):
            del tableau[r]
            del basis[r]
        # Strip artificial columns (they sit at the end, so indices are stable).
        for r in range(len(tableau)):
            row = tableau[r]
            tableau[r] = row[: n + m] + [row[-1]]
        ncols = n + m

    # Phase 2 objective row, priced out against the current basis.
    obj = list(objective) + [F0] * (ncols - n) + [F0]
    for r, row in enumerate(tableau):
        cb = obj[basis[r]] if basis[r] < ncols else F0
        if cb:
            obj[:] = [a - cb * b for a, b in zip(obj, row)]
    unbounded_col = _ref_run_simplex(tableau, obj, basis, ncols)
    if unbounded_col is not None:
        return "unbounded", None, None

    x = [F0] * n
    for r, col in enumerate(basis):
        if col < n:
            x[col] = tableau[r][-1]
    value = sum((c * v for c, v in zip(objective, x)), F0)
    return "optimal", tuple(x), value


def matching_by_permutations(entries):
    """Max-weight perfect matching by enumeration; entries[i][j] is None when
    the cell is forbidden. Returns (perm, value) with the lexicographically
    smallest argmax, or None if no permutation avoids the forbidden cells."""
    n = len(entries)
    best = None
    best_perm = None
    for perm in permutations(range(n)):
        total = F0
        ok = True
        for i, j in enumerate(perm):
            w = entries[i][j]
            if w is None:
                ok = False
                break
            total += w
        if ok and (best is None or total > best):
            best = total
            best_perm = perm
    if best is None:
        return None
    return best_perm, best


def min_cut_value(num_vertices, edges, s, t):
    """Minimum s-t cut by enumerating all vertex bipartitions."""
    others = [v for v in range(num_vertices) if v not in (s, t)]
    best = None
    for mask in range(1 << len(others)):
        side = {s}
        for i, v in enumerate(others):
            if mask >> i & 1:
                side.add(v)
        cut = F0
        for u, v, c in edges:
            if u in side and v not in side:
                cut += c
        if best is None or cut < best:
            best = cut
    return best


def check_flow_valid(num_vertices, edges, s, t, flows, value):
    """Capacity and conservation checks for a claimed s-t flow."""
    assert len(flows) == len(edges)
    net = [F0] * num_vertices
    for (u, v, c), f in zip(edges, flows):
        assert F0 <= f <= c, f"flow {f} outside [0, {c}]"
        net[u] -= f
        net[v] += f
    for w in range(num_vertices):
        if w == s:
            assert net[w] == -value
        elif w == t:
            assert net[w] == value
        else:
            assert net[w] == F0


def derangements(n):
    return [p for p in permutations(range(n)) if all(p[i] != i for i in range(n))]


def packing_dual_value(b, A, c, y, z):
    """Value of a dual certificate for max b.x st A x <= c, sum_k x_ik <= 1.

    y prices the capacity rows, z the per-player rows. Asserts feasibility
    (y, z >= 0 and y.A_col + z_i >= b_ik for every option); by weak duality
    the returned value upper-bounds the LP optimum, and exhibiting a primal
    point of equal value pins the optimum exactly.
    """
    assert all(v >= 0 for v in y) and all(v >= 0 for v in z)
    n, K = len(b), len(b[0]) if b else 0
    for i in range(n):
        for k in range(K):
            covered = sum((y[l] * A[l][i][k] for l in range(len(A))), F0) + z[i]
            assert covered >= b[i][k], f"dual infeasible at option ({i}, {k})"
    return sum((y[l] * c[l] for l in range(len(c))), F0) + sum(z, F0)


def best_integral_packing(b, A, c):
    """Exhaustive integral packing optimum.

    Choice tuples assign each player 0 (nothing) or k+1 (option k); iteration
    in natural tuple order with strict improvement keeps the lexicographically
    smallest argmax. Returns (choices, value). Totals and loads are ints: the
    bids are scaled once by the lcm of their denominators, and each row with
    its capacity by that row's lcm.
    """
    n, K = len(b), len(b[0]) if b else 0
    b = [[Fraction(v) for v in row] for row in b]
    scale = lcm(*(v.denominator for row in b for v in row))
    bids = [[int(v * scale) for v in row] for row in b]
    rows, caps = [], []
    for row, cap in zip(A, c):
        row = [[Fraction(a) for a in player] for player in row]
        cap = Fraction(cap)
        s = lcm(cap.denominator, *(a.denominator for player in row for a in player))
        rows.append([[int(a * s) for a in player] for player in row])
        caps.append(int(cap * s))
    best = None
    best_choices = None
    for choices in product(range(K + 1), repeat=n):
        loads = [0] * len(caps)
        value = 0
        ok = True
        for i, ch in enumerate(choices):
            if ch == 0:
                continue
            value += bids[i][ch - 1]
            for l in range(len(caps)):
                loads[l] += rows[l][i][ch - 1]
                if loads[l] > caps[l]:
                    ok = False
                    break
            if not ok:
                break
        if ok and (best is None or value > best):
            best = value
            best_choices = choices
    return best_choices, Fraction(best, scale)


def cardinality_instance(m, bids):
    """Symmetric bids as an m-unit packing program, (instance, option bids)."""
    inst = multiunit_instance([b.amounts for b in bids], m)
    return inst, truthful_bids(inst)


def packing_program(inst, bids, players, capacities):
    """(objective, rows, rhs) in Fractions of the packing LP over the listed
    players under the capacities, read off the instance data: one column
    per listed (player, option), the packing rows, then one "at most one
    option" row per listed player."""
    columns = [(i, k) for i in players for k in range(len(inst.values[0]))]
    objective = [Fraction(bids[i].amounts[k]) for i, k in columns]
    rows = [[Fraction(row[i][k]) for i, k in columns] for row in inst.rows]
    rhs = [Fraction(c) for c in capacities]
    for p in players:
        rows.append([Fraction(int(i == p)) for i, _ in columns])
        rhs.append(Fraction(1))
    return objective, rows, rhs


def simple_paths(inst, sink):
    """Every simple source->sink path as a tuple of edge indices, sorted."""
    edges = inst.graph.edges
    found = []

    def extend(path, seen):
        v = edges[path[-1]][1] if path else inst.source
        if v == sink:
            found.append(tuple(path))
            return
        for e, (u, w, _) in enumerate(edges):
            if u == v and w not in seen:
                extend(path + [e], seen | {w})

    extend([], {inst.source})
    return sorted(found)


def path_program(inst, bids):
    """(objective, rows, rhs) in Fractions of the path LP in share units,
    read off the instance data, or None when no request has a path: one
    column per (request, path), paths sorted, x the share of the request's
    demand on it, worth the bid in full; one row per edge, loading each
    path through it with its demand; then one "at most one" row per request
    that has paths."""
    columns = [
        (i, p) for i, r in enumerate(inst.requests) for p in simple_paths(inst, r.sink)
    ]
    if not columns:
        return None
    objective = [Fraction(bids[i].amount) for i, _ in columns]
    rows = [
        [inst.requests[i].demand if e in p else F0 for i, p in columns]
        for e in range(len(inst.graph.edges))
    ]
    rhs = [Fraction(c) for _, _, c in inst.graph.edges]
    for q in dict.fromkeys(i for i, _ in columns):
        rows.append([F1 if i == q else F0 for i, _ in columns])
        rhs.append(F1)
    return objective, rows, rhs


def path_lp_reference(inst: FlowInstance, bids):
    """Path-variable LP: per-unit objective, demand caps, edge capacities."""
    check_bids(bids, "flow", inst.n)
    variables = []  # (player, path)
    for i in range(inst.n):
        for p in enumerate_paths(inst, inst.requests[i].sink):
            variables.append((i, p))
    objective = [
        bids[i].amount / inst.requests[i].demand for i, _ in variables
    ]
    rows = []
    rhs = []
    for i in range(inst.n):
        rows.append([F1 if j == i else F0 for j, _ in variables])
        rhs.append(inst.requests[i].demand)
    for e in range(len(inst.graph.edges)):
        rows.append([F1 if e in p else F0 for _, p in variables])
        rhs.append(inst.graph.edges[e][2])
    return LinearProgram(objective, rows, rhs), variables


def residual_loss_reference(inst, bids, xbar):
    """(sum_i [W_-i(c) - W_-i(c - A xbar_i)], W(c)): every program built by
    packing_program and solved by solve_lp_reference, no pair skipped."""

    def welfare(players, capacities):
        status, _, value = solve_lp_reference(
            *packing_program(inst, bids, players, capacities)
        )
        assert status == "optimal"
        return value

    n = len(inst.values)
    lhs = F0
    for i in range(n):
        others = [p for p in range(n) if p != i]
        left = [
            c - sum((a * v for a, v in zip(row[i], xbar[i])), F0)
            for c, row in zip(inst.capacities, inst.rows)
        ]
        lhs += welfare(others, inst.capacities) - welfare(others, left)
    return lhs, welfare(range(n), inst.capacities)


def _frac_text(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def smoothness_by_support(rule, value_grid, bid_grid, lam, mu, deviation):
    """Smoothness check straight from the definition, as a to_dict() payload.

    Every expectation comes from a fresh rule.support(bids): no cache, no
    memo, deviation candidates rebuilt for every (profile, player). OPT is
    the rule's own solve at the values. deviation is "general" (best of the
    half-value bid and the player's bids anywhere in the grid) or
    "half-value" (the half-value bid alone).
    """
    half = Fraction(1, 2)

    def utility_and_payments(bids, values):
        pay = [F0] * len(bids)
        util = [F0] * len(bids)
        for p, outcome in rule.support(bids):
            for j, (b, v) in enumerate(zip(bids, values)):
                pay[j] += p * b.value(outcome)
                util[j] += p * (v.value(outcome) - b.value(outcome))
        return util, pay

    min_slack = None
    witness = None
    checked = 0
    for vi, values in enumerate(value_grid):
        opt = rule.solve(values)[1]
        for bi, bids in enumerate(bid_grid):
            bids = tuple(bids)
            _, pay = utility_and_payments(bids, values)
            lhs = F0
            for i in range(len(values)):
                candidates = [values[i].scale(half)]
                if deviation == "general":
                    for profile in bid_grid:
                        if profile[i] not in candidates:
                            candidates.append(profile[i])
                lhs += max(
                    utility_and_payments(bids[:i] + (c,) + bids[i + 1 :], values)[0][i]
                    for c in candidates
                )
            rhs = lam * opt - mu * sum(pay, F0)
            checked += 1
            if min_slack is None or lhs - rhs < min_slack:
                min_slack = lhs - rhs
                if min_slack < 0:
                    witness = {
                        "values_index": vi,
                        "bids_index": bi,
                        "lhs": _frac_text(lhs),
                        "rhs": _frac_text(rhs),
                    }
    return {
        "domain": rule.domain,
        "lambda": _frac_text(lam),
        "mu": _frac_text(mu),
        "deviation_mode": deviation,
        "grid": f"{len(value_grid)} valuation profiles x {len(bid_grid)} bid profiles",
        "verdict": "holds" if min_slack >= 0 else "violated",
        "statistical": False,
        "slack": _frac_text(min_slack),
        "witness": witness,
        "checked": checked,
    }


def product_support_reference(options):
    """(probability, choices) of independent draws, each probability a fresh
    product over the combination, in itertools.product order."""
    out = []
    for combo in product(*options):
        prob = Fraction(1)
        for p, _ in combo:
            prob *= p
        out.append((prob, tuple(c for _, c in combo)))
    return out


class _ScriptedRandom:
    """Stands in for random.Random inside enumerate_draws: randrange(k)
    returns the walked branch's next choice, and records k on a first
    visit. Every instance reads the branch from its start."""

    def __init__(self, walk, seed=None):
        walk.seeds.add(seed)
        self.walk = walk
        self.depth = 0

    def randrange(self, k):
        path, depth = self.walk.path, self.depth
        if depth == len(path):
            path.append([0, k])
        elif path[depth][1] != k:
            raise AssertionError("one branch drew from two different ranges")
        self.depth += 1
        self.walk.deepest = max(self.walk.deepest, self.depth)
        return path[depth][0]


def enumerate_draws(fn, *modules, limit=10**5):
    """Exact distribution {result: probability} of fn() over its random calls.

    Each module's Random is replaced by a scripted one while fn runs, so
    every randrange(k) branches over 0..k-1 with weight 1/k, depth first:
    enumeration inference over a sampler's choices (Goodman and
    Stuhlmueller, The Design and Implementation of Probabilistic
    Programming Languages). Every Random built in one run replays the same
    choices, as Random(seed) does for one seed, so a sampler and its
    reference run side by side see the same draws. Two seeds in one run,
    any other Random method, or more than `limit` branches raise.
    """
    walk = SimpleNamespace(path=[])  # [choice, k] per randrange call
    saved = [m.Random for m in modules]
    for m in modules:
        m.Random = lambda seed=None: _ScriptedRandom(walk, seed)
    out = {}
    try:
        for _ in range(limit):
            walk.seeds, walk.deepest = set(), 0
            result = fn()
            if len(walk.seeds) > 1 or walk.deepest != len(walk.path):
                raise AssertionError("the run did not replay its branch")
            branches = 1
            for _, k in walk.path:
                branches *= k
            out[result] = out.get(result, F0) + Fraction(1, branches)
            while walk.path and walk.path[-1][0] + 1 == walk.path[-1][1]:
                walk.path.pop()
            if not walk.path:
                return out
            walk.path[-1][0] += 1
    finally:
        for m, original in zip(modules, saved):
            m.Random = original
    raise AssertionError(f"more than {limit} branches")


def _draw_index(rng, weights):
    """Index drawn in proportion to rational weights: scale them by the lcm
    of their denominators, call randrange once over the integer total, and
    scan for the index whose share holds the draw."""
    weights = [Fraction(w) for w in weights]
    scale = 1
    for w in weights:
        scale = scale * w.denominator // gcd(scale, w.denominator)
    ints = [int(w * scale) for w in weights]
    t = rng.randrange(sum(ints))
    k = 0
    while t >= ints[k]:
        t -= ints[k]
        k += 1
    return k


def fair_options_reference(xbar, m, coin):
    """Per player [(probability, size)]: the coin keeps sizes up to m // 2 on
    heads (0) and the rest on tails, a quarter of each kept weight is drawn,
    and size 0 takes what is left."""
    out = []
    for row in xbar.x:
        opts = [
            (q / 4, j + 1)
            for j, q in enumerate(row)
            if q > 0 and (j + 1 <= m // 2) == (coin == 0)
        ]
        out.append(opts + [(1 - sum((p for p, _ in opts), F0), 0)])
    return out


def fair_round_reference(xbar, m, seed):
    """One fair-rounding draw recomputed from scratch on every call: halve,
    list the size options, and draw each player's size by lcm-scaling its
    rational weights to integers and calling randrange once."""
    rng = Random(seed)
    draws = []
    for opts in fair_options_reference(xbar, m, rng.randrange(2)):
        draws.append(opts[_draw_index(rng, [p for p, _ in opts])][1])
    return tuple(draws) if sum(draws) <= m else tuple(0 for _ in draws)


def fair_round_support_reference(xbar, m):
    """Exact sorted (allocation, probability) list of fair rounding, by
    enumerating both coins and every combination of size draws."""
    acc = {}
    for coin in (0, 1):
        for combo in product(*fair_options_reference(xbar, m, coin)):
            prob = Fraction(1, 2)
            for p, _ in combo:
                prob *= p
            if prob == 0:
                continue
            draws = tuple(size for _, size in combo)
            outcome = draws if sum(draws) <= m else tuple(0 for _ in draws)
            acc[outcome] = acc.get(outcome, F0) + prob
    return sorted(acc.items())


def cardinality_point_reference(m, x):
    """The feasibility check of a cardinality point in Fractions, as
    CardinalityLPSolution made it before it worked in integers: per row its
    length, its signs and its sum, then the item mass over all rows. Returns
    the point's Fraction rows or raises the first violation's
    StructuralError."""
    x = tuple(tuple(Fraction(v) for v in row) for row in x)
    total = F0
    for row in x:
        if len(row) != m:
            raise StructuralError("one variable per cardinality required")
        if any(v < 0 for v in row):
            raise StructuralError("allocations are nonnegative")
        if sum(row) > 1:
            raise StructuralError("a player receives at most one size in total")
        total += sum(((j + 1) * v for j, v in enumerate(row) if v), F0)
    if total > m:
        raise StructuralError("total item mass exceeds the supply")
    return x


def fisher_round_reference(cover, seed):
    """Tour rounding walked on the successor map: each cycle, taken from its
    smallest vertex, loses the edge out of the vertex one randrange over its
    length steps to; what is left runs from that edge's head to its tail,
    and the paths are joined in order of their first vertex."""
    rng = Random(seed)
    succ, seen, paths = cover.succ, set(), []
    for start in range(len(succ)):
        if start in seen:
            continue
        length, v = 1, succ[start]
        while v != start:
            length, v = length + 1, succ[v]
        tail = start
        for _ in range(rng.randrange(length)):
            tail = succ[tail]
        path = [succ[tail]]
        while path[-1] != tail:
            path.append(succ[path[-1]])
        seen.update(path)
        paths.append(path)
    return HamiltonianCycle([v for path in sorted(paths) for v in path])


def alter_to_feasible_reference(inst, flow, paths):
    """The feasibility alteration recomputed from scratch after every drop:
    re-add every routed path's Fraction load, and drop the routed player of
    least r_i/d_i (ties by index) while any edge is over capacity."""
    # drop order reads only the fractional solution: least-served densities
    # r_i/d_i go first, never the bids or values
    edges = inst.graph.edges
    dropped = []

    def overloaded(current):
        load = [F0] * len(edges)
        for i, p in enumerate(current):
            if p is None:
                continue
            for e in p:
                load[e] += inst.requests[i].demand
        return any(load[e] > edges[e][2] for e in range(len(edges)))

    raw_feasible = not overloaded(paths)
    while overloaded(paths):
        candidates = [i for i, p in enumerate(paths) if p is not None]
        victim = min(candidates, key=lambda i: (flow.routed_fraction(i), i))
        paths = list(paths)
        paths[victim] = None
        dropped.append(victim)
    return PathAssignment(tuple(paths), tuple(dropped), raw_feasible)


def rt_round_reference(flow, inst, epsilon, seed):
    """One random rounding draw, altered by the reference alteration."""
    epsilon = Fraction(epsilon)
    rng = Random(seed)
    paths = []
    for i, req in enumerate(inst.requests):
        p_route = flow.routed[i] / ((1 + epsilon) * req.demand)
        if flow.routed[i] > 0 and bernoulli(rng, p_route):
            pieces = flow_decompose(flow, i)
            k = _draw_index(rng, [amt for _, amt in pieces])
            paths.append(pieces[k][0])
        else:
            paths.append(None)
    return alter_to_feasible_reference(inst, flow, paths)


def replay_cumulative(rule, values, trace):
    """Every counterfactual total of a Hedge trace, recomputed per round.

    cumulative[i][s] is player i's utility summed over the rounds had it bid
    its s-th multiplier against the others' recorded bids, under the
    round's recorded seed. Each deviation is a fresh rule.allocate call: no
    relaxation cache, and the played multiplier is re-run like the rest.
    """
    n = len(values)
    rows = trace.grid.thetas
    totals = [[F0] * len(rows[i]) for i in range(n)]
    for record in trace.rounds:
        bids = [values[i].scale(record.theta[i]) for i in range(n)]
        for i in range(n):
            for s, theta in enumerate(rows[i]):
                dev = list(bids)
                dev[i] = values[i].scale(theta)
                outcome = rule.allocate(tuple(dev), record.seed)
                totals[i][s] += values[i].value(outcome) - dev[i].value(outcome)
    return tuple(tuple(row) for row in totals)


def run_hedge_reference(rule, values, grid, T, eta=None, seed=0, initial_weights=None):
    """run_hedge as it was before its utility memo: every deviation's utility
    and weight factor recomputed in Fractions every round.

    Arguments are taken as valid; the package's run_hedge checks them.
    """
    n = len(values)
    if eta is None:
        eta = default_eta(grid, T)
    scaled = [[values[i].scale(t) for t in grid.thetas[i]] for i in range(n)]
    bounds = [values[i].best_case() for i in range(n)]
    weights = [
        [float(w) for w in initial_weights[i]]
        if initial_weights is not None
        else [1.0] * len(scaled[i])
        for i in range(n)
    ]
    weights = [_in_range(row) for row in weights]

    def utility(bids, outcome, i):
        return values[i].value(outcome) - bids[i].value(outcome)

    cache = RelaxationCache(rule)
    rng = Random(seed)
    rounds = []
    cumulative = [[F0] * len(scaled[i]) for i in range(n)]

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
        utilities = tuple(utility(bids, outcome, i) for i in range(n))
        welfare = sum((values[i].value(outcome) for i in range(n)), F0)

        for i in range(n):
            if abs(utilities[i]) > bounds[i]:
                raise StructuralError("utility escaped its declared bound")
            for s in range(len(scaled[i])):
                if s == picks[i]:
                    u = utilities[i]
                else:
                    dev = bids[:i] + (scaled[i][s],) + bids[i + 1 :]
                    u = utility(dev, cache.outcome(dev, round_seed), i)
                if abs(u) > bounds[i]:
                    raise StructuralError("utility escaped its declared bound")
                cumulative[i][s] += u
                if bounds[i] > 0:
                    weights[i][s] *= exp(eta * float(u / bounds[i]))
            weights[i] = _in_range(weights[i])
        rounds.append(
            RoundRecord(
                theta=tuple(grid.thetas[i][picks[i]] for i in range(n)),
                seed=round_seed,
                welfare=welfare,
                utilities=utilities,
            )
        )

    return PlayTrace(
        grid=grid,
        eta=eta,
        seed=seed,
        rounds=tuple(rounds),
        cumulative=tuple(tuple(row) for row in cumulative),
        rule_name=rule.name,
    )
