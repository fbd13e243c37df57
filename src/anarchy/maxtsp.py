"""Maximum asymmetric TSP: cycle-cover relaxation and tour rounding.

A complete digraph with one player per directed edge. The relaxation is a
maximum-weight cycle cover (computed as a bipartite matching), rounded to a
Hamiltonian cycle by dropping one uniform edge per cycle. A finer relaxation
forbids 2-cycles but admits half-edges through per-pair gadget vertices.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import ClassVar

from .errors import SizeGuardError, StructuralError
from .mechanism import AllocationRule, CostCertificate, HALF_VALUE, SmoothnessParams
from .mechanism import Valuation, product_support
from .rationals import F0, F1, HALF, frac, frac_str, parse_frac
from .solvers import WeightMatrix, max_weight_perfect_matching

# largest graph whose half-edge structures are enumerated
HALF_EDGE_VERTEX_LIMIT = 6
# largest graph whose structures are scanned once per forced tour edge
HALF_EDGE_SCAN_LIMIT = 5


@dataclass(frozen=True)
class CompleteDigraph:
    """Complete digraph on n >= 3 vertices with nonnegative rational weights.

    weights is row-major over ordered pairs (u, v), u != v; the pair order
    doubles as the player order of the edge game.
    """

    num_vertices: int
    weights: tuple

    def __init__(self, num_vertices, weights):
        weights = tuple(frac(w) for w in weights)
        if num_vertices < 3:
            raise StructuralError("need at least three vertices")
        if len(weights) != num_vertices * (num_vertices - 1):
            raise StructuralError("one weight per ordered vertex pair required")
        if any(w < 0 for w in weights):
            raise StructuralError("weights must be nonnegative")
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "weights", weights)

    def index(self, u, v) -> int:
        if u == v:
            raise StructuralError("self-loops carry no weight")
        return u * (self.num_vertices - 1) + (v if v < u else v - 1)

    def w(self, u, v) -> Fraction:
        return self.weights[self.index(u, v)]

    def edge_list(self) -> tuple:
        n = self.num_vertices
        return tuple((u, v) for u in range(n) for v in range(n) if v != u)

    def to_dict(self) -> dict:
        return {
            "n": self.num_vertices,
            "weights": [frac_str(w) for w in self.weights],
        }

    @staticmethod
    def from_dict(data: dict) -> "CompleteDigraph":
        return CompleteDigraph(data["n"], [parse_frac(w) for w in data["weights"]])


@dataclass(frozen=True)
class EdgeValuation(Valuation):
    """One directed edge's owner: worth amount when the edge is used.

    Half-edge outcomes pay half the amount per included half.
    """

    player: int
    u: int
    v: int
    amount: Fraction
    domain: ClassVar[str] = "maxtsp"
    __hash__ = Valuation.__hash__

    def __init__(self, player, u, v, amount):
        amount = frac(amount)
        if amount < 0:
            raise StructuralError("bids and values must be nonnegative")
        if u == v:
            raise StructuralError("players own proper edges, not loops")
        object.__setattr__(self, "player", player)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "amount", amount)

    def value(self, outcome) -> Fraction:
        if outcome is None:
            return F0
        return self.amount * outcome.fraction(self.u, self.v)

    def scale(self, theta) -> "EdgeValuation":
        return EdgeValuation(self.player, self.u, self.v, frac(theta) * self.amount)

    def best_case(self) -> Fraction:
        return self.amount


def truthful_edge_bids(g: CompleteDigraph) -> tuple:
    return tuple(
        EdgeValuation(i, u, v, g.w(u, v)) for i, (u, v) in enumerate(g.edge_list())
    )


def _bid_weight(g: CompleteDigraph, bids):
    if bids is None:
        return g.w
    if len(bids) != len(g.weights):
        raise StructuralError("one bid per directed edge required")
    for i, (u, v) in enumerate(g.edge_list()):
        b = bids[i]
        if b.player != i or (b.u, b.v) != (u, v) or b.domain != "maxtsp":
            raise StructuralError("bid does not match its edge slot")
    return lambda u, v: bids[g.index(u, v)].amount


# ------------------------------------------------------------- cycle covers


@dataclass(frozen=True)
class CycleCover:
    """Successor permutation without fixed points; 2-cycles are fine."""

    succ: tuple

    def __init__(self, succ):
        succ = tuple(succ)
        n = len(succ)
        if sorted(succ) != list(range(n)):
            raise StructuralError("successors must form a permutation")
        if any(succ[v] == v for v in range(n)):
            raise StructuralError("cycle covers contain no self-loops")
        object.__setattr__(self, "succ", succ)

    @property
    def n(self) -> int:
        return len(self.succ)

    def edges(self) -> tuple:
        return tuple((u, self.succ[u]) for u in range(self.n))

    def fraction(self, u, v) -> Fraction:
        return F1 if self.succ[u] == v else F0

    def cycles(self) -> list:
        """Cycles as vertex tuples, each starting at its smallest vertex,
        listed by that smallest vertex."""
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            cyc = []
            v = start
            while not seen[v]:
                seen[v] = True
                cyc.append(v)
                v = self.succ[v]
            out.append(tuple(cyc))
        return out

    def weight(self, g: CompleteDigraph) -> Fraction:
        return sum((g.w(u, v) for u, v in self.edges()), F0)

    def weight_under(self, wf) -> Fraction:
        return sum((wf(u, v) for u, v in self.edges()), F0)


@dataclass(frozen=True)
class HamiltonianCycle:
    """Cyclic vertex order, stored rotated so it starts at vertex 0."""

    order: tuple

    def __init__(self, order):
        order = tuple(order)
        n = len(order)
        if sorted(order) != list(range(n)):
            raise StructuralError("a tour visits every vertex exactly once")
        if n < 3:
            raise StructuralError("tours need at least three vertices")
        at = order.index(0)
        object.__setattr__(self, "order", order[at:] + order[:at])

    @property
    def n(self) -> int:
        return len(self.order)

    def edges(self) -> tuple:
        o = self.order
        return tuple((o[i], o[(i + 1) % self.n]) for i in range(self.n))

    def fraction(self, u, v) -> Fraction:
        return F1 if self.order[(self.order.index(u) + 1) % self.n] == v else F0

    def weight(self, g: CompleteDigraph) -> Fraction:
        return sum((g.w(u, v) for u, v in self.edges()), F0)

    def as_cover(self) -> CycleCover:
        succ = [0] * self.n
        for u, v in self.edges():
            succ[u] = v
        return CycleCover(succ)


def _best_cover(wf, n, forced=(None, None)):
    """(successor tuple, weight) of one matcher call on the diagonal-forbidden
    matrix; a forced edge (v3, v4) is the only cell of row v3 and column v4."""
    v3, v4 = forced
    entries = [
        [wf(u, v) if u != v and (u == v3) == (v == v4) else None for v in range(n)]
        for u in range(n)
    ]
    return max_weight_perfect_matching(WeightMatrix(entries))


def max_weight_cycle_cover(g: CompleteDigraph, bids=None):
    """Exact maximum-weight cycle cover, (cover, weight).

    Solved as one perfect matching between out-copies and in-copies with the
    diagonal forbidden. The matcher returns the lexicographically smallest
    maximizing permutation, which is the successor tuple, so ties break to
    the lexicographically smallest successor tuple. The forced optima of
    check_cc_social_cost are the same call with one edge forced.
    """
    succ, total = _best_cover(_bid_weight(g, bids), g.num_vertices)
    return CycleCover(succ), total


def _drop_options(cover: CycleCover, g: CompleteDigraph) -> list:
    """Per cycle, the paths left by dropping each of its edges in turn; the
    one check of fisher_round and fisher_support that the cover fits g."""
    if cover.n != g.num_vertices:
        raise StructuralError("cover size does not match the graph")
    return [
        [cyc[drop + 1 :] + cyc[: drop + 1] for drop in range(len(cyc))]
        for cyc in cover.cycles()
    ]


def _chain(paths) -> HamiltonianCycle:
    """Paths ordered by start vertex, appended start-to-end into one tour."""
    return HamiltonianCycle([v for p in sorted(paths, key=lambda p: p[0]) for v in p])


def fisher_round(cover: CycleCover, g: CompleteDigraph, seed) -> HamiltonianCycle:
    """Drop one uniform edge per cycle, chain the paths into a tour.

    Paths are ordered by their start vertex and appended start-to-end,
    closing the last back to the first. Never reads weights; a cover that is
    already a single cycle comes back unchanged for every seed.
    """
    options = _drop_options(cover, g)
    rng = Random(seed)
    return _chain([paths[rng.randrange(len(paths))] for paths in options])


def fisher_support(cover: CycleCover, g: CompleteDigraph) -> list:
    """Exact (probability, tour) support of fisher_round, merged and sorted."""
    options = [
        [(Fraction(1, len(paths)), path) for path in paths]
        for paths in _drop_options(cover, g)
    ]
    acc = {}
    for prob, paths in product_support(options):
        tour = _chain(paths)
        acc[tour] = acc.get(tour, F0) + prob
    return [(p, tour) for tour, p in sorted(acc.items(), key=lambda kv: kv[0].order)]


def force_edge(cover: CycleCover, e):
    """Rewire the cover to contain the directed edge e; (cover', removed).

    Removed edges play fixed roles: the successor edge of e's tail, the
    predecessor edge of e's head, and (only when those two meet) the
    successor edge of e's head. At most 3 edges go, none of them e.
    """
    v3, v4 = e
    if v3 == v4:
        raise StructuralError("cannot force a self-loop")
    succ = list(cover.succ)
    v1 = succ[v3]
    if v1 == v4:
        return cover, ()
    v2 = succ[v4]
    v6 = succ.index(v4)
    if v1 != v6:
        removed = ((v3, v1), (v6, v4))
        succ[v3] = v4
        succ[v6] = v1
    else:
        removed = ((v3, v1), (v6, v4), (v4, v2))
        succ[v3] = v4
        succ[v4] = v1
        succ[v6] = v2
    return CycleCover(succ), removed


def check_cc_social_cost(g: CompleteDigraph, bids, reference: CycleCover) -> CostCertificate:
    """Forcing each reference edge into the best cover loses at most 3x its
    weight in total. Each forced optimum is exact: one matcher call with
    the reference edge as the only choice for its tail and its head."""
    n = g.num_vertices
    if reference.n != n:
        raise StructuralError("reference cover size does not match the graph")
    wf = _bid_weight(g, bids)
    cover, best = max_weight_cycle_cover(g, bids)
    lhs = F0
    for v3, v4 in reference.edges():
        forced_best = _best_cover(wf, n, (v3, v4))[1]
        forced, removed = force_edge(cover, (v3, v4))
        if forced.succ[v3] != v4 or len(removed) > 3:
            raise StructuralError("edge forcing broke its contract")
        if forced.weight_under(wf) > forced_best:
            raise StructuralError("forced cover exceeds the forced optimum")
        lhs += best - forced_best
    rhs = 3 * best
    return CostCertificate(
        holds=lhs <= rhs, lhs=lhs, rhs=rhs, detail={"welfare": best}
    )


# --------------------------------------------------------------- half edges

# Per unordered pair {u,v} the gadget vertex splits each direction in two:
# (u,v,0) is the half leaving u toward v, (u,v,1) the half entering v.
# Exactly two of the four halves may be active, never the two that chain
# into a round trip u -> v -> u.

_PAIR_STATES = (
    (),
    ((0, 1, 0), (0, 1, 1)),  # full edge u -> v
    ((1, 0, 0), (1, 0, 1)),  # full edge v -> u
    ((0, 1, 0), (1, 0, 0)),  # both outgoing halves
    ((0, 1, 1), (1, 0, 1)),  # both incoming halves
)


@dataclass(frozen=True)
class HalfEdgeCover:
    """Set of gadget half-arcs giving every vertex in- and out-degree 1."""

    num_vertices: int
    arcs: frozenset  # of (u, v, half) with half 0 = leaving u, 1 = entering v

    def __init__(self, num_vertices, arcs):
        arcs = frozenset(tuple(a) for a in arcs)
        out_deg = [0] * num_vertices
        in_deg = [0] * num_vertices
        for u, v, half in arcs:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices) or u == v:
                raise StructuralError("half-arc endpoints out of range")
            if half == 0:
                out_deg[u] += 1
            elif half == 1:
                in_deg[v] += 1
            else:
                raise StructuralError("a half-arc is either leaving or entering")
        for x in range(num_vertices):
            if out_deg[x] != 1 or in_deg[x] != 1:
                raise StructuralError("every vertex needs in- and out-degree 1")
        for u in range(num_vertices):
            for v in range(u + 1, num_vertices):
                chosen = arcs & {(u, v, 0), (u, v, 1), (v, u, 0), (v, u, 1)}
                if len(chosen) not in (0, 2):
                    raise StructuralError("a pair holds zero or two half-arcs")
                if chosen in ({(u, v, 0), (v, u, 1)}, {(v, u, 0), (u, v, 1)}):
                    raise StructuralError("half-arcs must not close a round trip")
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "arcs", arcs)

    def fraction(self, u, v) -> Fraction:
        return Fraction(
            len(self.arcs & {(u, v, 0), (u, v, 1)}), 2
        )

    def weight(self, g: CompleteDigraph) -> Fraction:
        return sum((g.w(u, v) / 2 for u, v, _ in self.arcs), F0)


@lru_cache(maxsize=8)
def _half_edge_structures(n: int) -> tuple:
    """All degree-valid half-arc sets on n vertices, in search order."""
    if n > HALF_EDGE_VERTEX_LIMIT:
        raise SizeGuardError(
            f"half-edge search is limited to {HALF_EDGE_VERTEX_LIMIT} vertices"
        )
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    last_pair_of = {}
    for idx, (u, v) in enumerate(pairs):
        last_pair_of[u] = idx
        last_pair_of[v] = idx
    finishes = [[] for _ in pairs]
    for x, idx in last_pair_of.items():
        finishes[idx].append(x)
    out = []
    arcs = []
    out_deg = [0] * n
    in_deg = [0] * n

    def place(u, v, half, sign):
        if half == 0:
            out_deg[u] += sign
        else:
            in_deg[v] += sign

    def recurse(p):
        if p == len(pairs):
            out.append(frozenset(arcs))
            return
        u, v = pairs[p]
        for state in _PAIR_STATES:
            resolved = tuple((u, v) if a == 0 else (v, u) for a, _, _ in state)
            ok = True
            for (a, b), (_, _, half) in zip(resolved, state):
                place(a, b, half, 1)
                if out_deg[a] > 1 or in_deg[b] > 1:
                    ok = False
            if ok and all(
                out_deg[x] == 1 and in_deg[x] == 1 for x in finishes[p]
            ):
                for (a, b), (_, _, half) in zip(resolved, state):
                    arcs.append((a, b, half))
                recurse(p + 1)
                for _ in state:
                    arcs.pop()
            for (a, b), (_, _, half) in zip(resolved, state):
                place(a, b, half, -1)

    recurse(0)
    return tuple(out)


def _scored_half_edge_structures(g: CompleteDigraph, bids) -> list:
    """(weight under bids, arcs) of every half-edge structure, in search order."""
    wf = _bid_weight(g, bids)
    return [
        (sum((wf(u, v) / 2 for u, v, _ in arcs), F0), arcs)
        for arcs in _half_edge_structures(g.num_vertices)
    ]


def half_edge_cover(g: CompleteDigraph, bids=None):
    """Maximum-weight cycle cover without 2-cycles but with half-edges.

    Exhaustive over the cached structure list, keeping the first of equal
    maxima; at least as heavy as any tour, since full tours are feasible
    structures.
    """
    best, arcs = max(_scored_half_edge_structures(g, bids), key=lambda s: s[0])
    return HalfEdgeCover(g.num_vertices, arcs), best


def check_half_edge_social_cost(g: CompleteDigraph, bids, tour: HamiltonianCycle) -> CostCertificate:
    """Forcing each tour edge fully into the best half-edge structure loses
    at most 3x the structure's weight in total."""
    n = g.num_vertices
    if n > HALF_EDGE_SCAN_LIMIT:
        raise SizeGuardError(
            f"forced half-edge scan is limited to {HALF_EDGE_SCAN_LIMIT} vertices"
        )
    if tour.n != n:
        raise StructuralError("tour size does not match the graph")
    scored = _scored_half_edge_structures(g, bids)
    best = max(w for w, _ in scored)
    lhs = F0
    for u, v in tour.edges():
        forced_best = max(
            w for w, arcs in scored if (u, v, 0) in arcs and (u, v, 1) in arcs
        )
        lhs += best - forced_best
    rhs = 3 * best
    return CostCertificate(
        holds=lhs <= rhs, lhs=lhs, rhs=rhs, detail={"welfare": best}
    )


# ------------------------------------------------------------------- rules


# the cycle-cover relaxation is (1/2, 3)-smooth for half-value deviations,
# and fisher_round keeps each edge with probability at least 1/2
CYCLE_COVER_SMOOTHNESS = SmoothnessParams(HALF, 3, HALF_VALUE)
FISHER_ALPHA = 2


def cycle_cover_rule(g: CompleteDigraph) -> AllocationRule:
    return AllocationRule(
        "maxtsp", lambda bids: max_weight_cycle_cover(g, bids), name="cycle-cover"
    )


def fisher_rule(g: CompleteDigraph) -> AllocationRule:
    """Relax to a cycle cover on bids, round with uniform edge drops."""
    return AllocationRule(
        "maxtsp",
        lambda bids: max_weight_cycle_cover(g, bids),
        round_stage=lambda relaxed, seed: fisher_round(relaxed, g, seed),
        round_support=lambda relaxed: fisher_support(relaxed, g),
        name="maxtsp-fisher",
    )


# --------------------------------------------------------------- generators


def uniform_digraph(n: int, weight=1) -> CompleteDigraph:
    return CompleteDigraph(n, [weight] * (n * (n - 1)))


def gen_digraphs(count: int, seed: int, sizes=(4, 5, 6), max_weight: int = 9):
    """Seeded random complete digraphs with small rational weights."""
    rng = Random(seed)
    out = []
    for _ in range(count):
        n = rng.choice(tuple(sizes))
        weights = [
            Fraction(rng.randint(0, max_weight), rng.choice((1, 2)))
            for _ in range(n * (n - 1))
        ]
        out.append(CompleteDigraph(n, weights))
    return out


def random_cover(n: int, rng: Random) -> CycleCover:
    """Uniform fixed-point-free permutation by rejection."""
    while True:
        p = list(range(n))
        rng.shuffle(p)
        if all(p[v] != v for v in range(n)):
            return CycleCover(p)
