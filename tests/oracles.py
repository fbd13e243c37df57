"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive: exhaustive enumeration and dense
Gaussian elimination over Fractions. The point is that none of this code
shares logic with the package under test. The `*_reference` functions are
the plain forms of faster package code: the package must return exactly
what they return. The flow references borrow only the package's containers
and its sampling helpers, which they do not test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd
from random import Random

from anarchy.flows import PathAssignment, flow_decompose
from anarchy.rationals import bernoulli, weighted_index

F0 = Fraction(0)


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
    smallest argmax. Returns (choices, value).
    """
    from itertools import product

    n, K = len(b), len(b[0]) if b else 0
    best = None
    best_choices = None
    for choices in product(range(K + 1), repeat=n):
        loads = [F0] * len(c)
        value = F0
        ok = True
        for i, ch in enumerate(choices):
            if ch == 0:
                continue
            value += b[i][ch - 1]
            for l in range(len(c)):
                loads[l] += A[l][i][ch - 1]
                if loads[l] > c[l]:
                    ok = False
                    break
            if not ok:
                break
        if ok and (best is None or value > best):
            best = value
            best_choices = choices
    return best_choices, best


def _frac_text(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def smoothness_by_support(rule, value_grid, bid_grid, lam, mu, deviation):
    """Smoothness check straight from the definition, as a to_dict() payload.

    Every expectation comes from a fresh rule.support(bids): no cache, no
    memo, deviation candidates rebuilt for every (profile, player). OPT is
    the rule's own opt_welfare oracle. deviation is "general" (best of the
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
        opt = rule.opt_welfare(values)
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


def _fair_options(xbar, m, coin):
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
    for opts in _fair_options(xbar, m, rng.randrange(2)):
        scale = 1
        for p, _ in opts:
            scale = scale * p.denominator // gcd(scale, p.denominator)
        ints = [int(p * scale) for p, _ in opts]
        t = rng.randrange(sum(ints))
        k = 0
        while t >= ints[k]:
            t -= ints[k]
            k += 1
        draws.append(opts[k][1])
    return tuple(draws) if sum(draws) <= m else tuple(0 for _ in draws)


def fair_round_support_reference(xbar, m):
    """Exact sorted (allocation, probability) list of fair rounding, by
    enumerating both coins and every combination of size draws."""
    acc = {}
    for coin in (0, 1):
        for combo in product(*_fair_options(xbar, m, coin)):
            prob = Fraction(1, 2)
            for p, _ in combo:
                prob *= p
            if prob == 0:
                continue
            draws = tuple(size for _, size in combo)
            outcome = draws if sum(draws) <= m else tuple(0 for _ in draws)
            acc[outcome] = acc.get(outcome, F0) + prob
    return sorted(acc.items())


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
    """One randomized-rounding draw, altered by the reference alteration."""
    epsilon = Fraction(epsilon)
    rng = Random(seed)
    paths = []
    for i, req in enumerate(inst.requests):
        p_route = flow.routed[i] / ((1 + epsilon) * req.demand)
        if flow.routed[i] > 0 and bernoulli(rng, p_route):
            pieces = flow_decompose(flow, i)
            k = weighted_index(rng, [amt for _, amt in pieces])
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
