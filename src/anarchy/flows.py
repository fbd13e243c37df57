"""Single-source routing: exact greedy fractional flow, random path
rounding, and matroid machinery.

Every player wants d_i units carried from the shared source to its own sink
and values full delivery at v_i (pro rata for fractional delivery). The
fractional relaxation is solved exactly by a greedy that serves players in
decreasing bid density b_i/d_i over a shared residual network; its welfare
equals the path-LP optimum. The random rounding routes each player along
a single path with probability r_i/((1+eps) d_i), reading only the
fractional solution, never the bids.

Unit-demand instances induce a matroid (routable sink sets), so the module
also carries a small matroid toolkit: independence oracles, the greedy
basis mechanism, and basis-exchange bijections.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from random import Random
from typing import Callable, ClassVar

from .errors import (
    InfeasibleMatchingError,
    PreconditionError,
    SizeGuardError,
    StructuralError,
)
from .mechanism import AllocationRule, Counterexample, SmoothnessParams, Valuation
from .mechanism import HALF_VALUE, integral_argmax, product_support, relaxation
from .mechanism import check_bids, run_pay_your_bid, value_type
from .rationals import F0, F1, HALF, bernoulli, frac, frac_str, parse_frac
from .rationals import scale_to_integers, weighted_index
from .solvers import CapacitatedDigraph, Residual, max_flow, solve_lp
from .solvers import WeightMatrix, max_weight_perfect_matching

PATH_GUARD = 50  # simple s->t paths per player before path-space ops refuse


@dataclass(frozen=True)
class FlowRequest:
    sink: int
    demand: Fraction
    value: Fraction

    def __init__(self, sink, demand, value):
        demand = frac(demand)
        value = frac(value)
        if demand <= 0:
            raise StructuralError("demands must be positive")
        if value < 0:
            raise StructuralError("request values must be nonnegative")
        object.__setattr__(self, "sink", sink)
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "value", value)


@dataclass(frozen=True)
class FlowInstance:
    graph: CapacitatedDigraph
    source: int
    requests: tuple

    def __init__(self, graph, source, requests):
        requests = tuple(
            r if isinstance(r, FlowRequest) else FlowRequest(*r) for r in requests
        )
        if isinstance(source, bool) or not 0 <= source < graph.num_vertices:
            raise StructuralError("source outside the vertex range")
        for r in requests:
            if isinstance(r.sink, bool) or not 0 <= r.sink < graph.num_vertices:
                raise StructuralError("sink outside the vertex range")
            if r.sink == source:
                raise StructuralError("requests from the source to itself are rejected")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "requests", requests)

    @property
    def n(self) -> int:
        return len(self.requests)

    @cached_property
    def integer_units(self) -> tuple:
        """(demands, capacities) as ints: each times L, the lcm of all their
        denominators, so an integer load exceeds L·c_e exactly when the
        rational load exceeds c_e."""
        ints, _ = scale_to_integers(
            [r.demand for r in self.requests] + [c for _, _, c in self.graph.edges]
        )
        return tuple(ints[: self.n]), tuple(ints[self.n :])

    @cached_property
    def integer_program(self) -> tuple:
        """(paths, options, capacities) for mechanism.integral_argmax,
        built once: paths[i] lists request i's enumerated paths, and
        option k of player i loads each edge of paths[i][k] with its
        demand in integer_units."""
        paths = [enumerate_paths(self, r.sink) for r in self.requests]
        demands, caps = self.integer_units
        options = [[[(e, d) for e in p] for p in ps] for ps, d in zip(paths, demands)]
        return paths, options, caps

    def to_dict(self) -> dict:
        return {
            "vertices": self.graph.num_vertices,
            "edges": [
                {"u": u, "v": v, "cap": frac_str(c)} for u, v, c in self.graph.edges
            ],
            "source": self.source,
            "requests": [
                {
                    "sink": r.sink,
                    "demand": frac_str(r.demand),
                    "value": frac_str(r.value),
                }
                for r in self.requests
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "FlowInstance":
        graph = CapacitatedDigraph(
            data["vertices"],
            [(e["u"], e["v"], parse_frac(e["cap"])) for e in data["edges"]],
        )
        requests = [
            (r["sink"], parse_frac(r["demand"]), parse_frac(r["value"]))
            for r in data["requests"]
        ]
        return FlowInstance(graph, data["source"], requests)


@value_type
class RouteValuation(Valuation):
    """Worth amount for full delivery, pro rata below that."""

    player: int
    amount: Fraction
    domain: ClassVar[str] = "flow"

    def __init__(self, player, amount):
        amount = frac(amount)
        if amount < 0:
            raise StructuralError("bids and values must be nonnegative")
        object.__setattr__(self, "player", player)
        object.__setattr__(self, "amount", amount)

    def value(self, outcome) -> Fraction:
        """Pro rata in a flow's routed share; amount or nothing if integral."""
        if outcome is None:
            return F0
        if isinstance(outcome, PathAssignment):
            return self.amount if outcome.paths[self.player] is not None else F0
        return self.amount * outcome.routed_fraction(self.player)

    def scale(self, theta) -> "RouteValuation":
        return RouteValuation(self.player, frac(theta) * self.amount)

    def best_case(self) -> Fraction:
        return self.amount


@value_type
class FractionalFlow:
    """Per-player edge flows plus the routed amount r_i each sink received."""

    instance: FlowInstance
    edge_flows: tuple  # n x |E|
    routed: tuple  # length n

    def routed_fraction(self, player: int) -> Fraction:
        return self.routed[player] / self.instance.requests[player].demand

    @cached_property
    def drop_order(self) -> tuple:
        """Players by increasing r_i/d_i, ties by index: the order in which
        the feasibility alteration drops routed players."""
        return tuple(
            sorted(range(self.instance.n), key=lambda i: (self.routed_fraction(i), i))
        )


@dataclass(frozen=True)
class PathAssignment:
    """Integral outcome: per player one edge-index path carrying d_i, or None.

    dropped lists players the feasibility alteration removed from an
    oversubscribed sample; raw_feasible says whether the sample needed no
    alteration in the first place.
    """

    paths: tuple
    dropped: tuple = ()
    raw_feasible: bool = True

    def routed_fraction(self, player: int) -> Fraction:
        return F1 if self.paths[player] is not None else F0


def truthful_flow_bids(inst: FlowInstance) -> tuple:
    return tuple(RouteValuation(i, r.value) for i, r in enumerate(inst.requests))


def _cancel_cycles(num_vertices, heads, tails, f):
    """Remove directed flow cycles in place (f indexed like the edge list)."""
    while True:
        out = [[] for _ in range(num_vertices)]
        for e, amt in enumerate(f):
            if amt > 0:
                out[tails[e]].append(e)
        color = [0] * num_vertices
        stack_edge = {}
        cycle = None

        def dfs(v):
            nonlocal cycle
            color[v] = 1
            for e in out[v]:
                w = heads[e]
                if color[w] == 0:
                    stack_edge[w] = e
                    dfs(w)
                    if cycle is not None:
                        return
                elif color[w] == 1:
                    # walk the stack back from v to w collecting the cycle
                    cyc = [e]
                    x = v
                    while x != w:
                        cyc.append(stack_edge[x])
                        x = tails[stack_edge[x]]
                    cycle = cyc
                    return
            color[v] = 2

        for v in range(num_vertices):
            if color[v] == 0 and cycle is None:
                dfs(v)
        if cycle is None:
            return
        delta = min(f[e] for e in cycle)
        for e in cycle:
            f[e] -= delta


def _peel_paths(inst: FlowInstance, edge_flows):
    """Cancel the flow's cycles, then peel source paths off the rest.

    Yields (edge path, end vertex, amount) until nothing leaves the source;
    each walk follows the lowest-index edge still carrying flow.
    """
    edges = inst.graph.edges
    tails = [e[0] for e in edges]
    heads = [e[1] for e in edges]
    f = list(edge_flows)
    _cancel_cycles(inst.graph.num_vertices, heads, tails, f)
    out = [[] for _ in range(inst.graph.num_vertices)]
    for e in range(len(edges)):
        if f[e] > 0:
            out[tails[e]].append(e)
    while out[inst.source]:
        path = []
        v = inst.source
        while out[v]:
            e = out[v][0]
            path.append(e)
            v = heads[e]
        amount = min(f[e] for e in path)
        yield tuple(path), v, amount
        for e in path:
            f[e] -= amount
            if f[e] == 0:
                out[tails[e]].remove(e)


def greedy_fractional_flow(inst: FlowInstance, bids):
    """Serve players in decreasing bid density over one shared residual net.

    Returns (FractionalFlow, welfare) with welfare = sum (b_i/d_i) r_i, which
    equals the optimum of the path LP. Later players may reroute earlier flow
    through residual arcs but never displace the amount already delivered.
    """
    check_bids(bids, "flow", inst.n)
    n = inst.n
    order = sorted(
        range(n),
        key=lambda i: (-(bids[i].amount / inst.requests[i].demand), i),
    )
    res = Residual(inst.graph)
    routed = [F0] * n
    for i in order:
        r = inst.requests[i]
        routed[i] = res.push(inst.source, r.sink, r.demand)

    # hand each peeled path to the smallest-index players at its endpoint
    # whose delivery is still unassigned
    remaining = list(routed)
    by_sink = {}
    for i, r in enumerate(inst.requests):
        by_sink.setdefault(r.sink, []).append(i)
    per_player = [[F0] * len(inst.graph.edges) for _ in range(n)]
    for path, end, amount in _peel_paths(inst, res.edge_flows()):
        left = amount
        for i in by_sink.get(end, []):
            if left == 0:
                break
            take = min(left, remaining[i])
            if take > 0:
                remaining[i] -= take
                left -= take
                for e in path:
                    per_player[i][e] += take
        assert left == 0, "peeled flow exceeds the recorded deliveries"

    flow = FractionalFlow(
        inst,
        tuple(tuple(row) for row in per_player),
        tuple(routed),
    )
    welfare = sum(
        (bids[i].amount / inst.requests[i].demand * routed[i] for i in range(n)), F0
    )
    return flow, welfare


def check_fractional_flow(inst: FlowInstance, flow: FractionalFlow) -> None:
    """Conservation, joint capacity, and demand caps; raises StructuralError."""
    edges = inst.graph.edges
    load = [F0] * len(edges)
    for i, req in enumerate(inst.requests):
        net = [F0] * inst.graph.num_vertices
        for e, amt in enumerate(flow.edge_flows[i]):
            if not amt:
                continue
            if amt < 0:
                raise StructuralError("negative edge flow")
            net[edges[e][0]] -= amt
            net[edges[e][1]] += amt
            load[e] += amt
        for v in range(inst.graph.num_vertices):
            if v == inst.source or v == req.sink:
                continue
            if net[v] != 0:
                raise StructuralError(f"player {i} violates conservation at {v}")
        if net[req.sink] != flow.routed[i]:
            raise StructuralError(f"player {i} delivery mismatch")
        if flow.routed[i] > req.demand:
            raise StructuralError(f"player {i} exceeds its demand")
    for e, (_, _, cap) in enumerate(edges):
        if load[e] > cap:
            raise StructuralError(f"edge {e} over capacity")


def flow_decompose(flow: FractionalFlow, player: int):
    """Path decomposition of one player's flow: list of (edge-path, amount).

    Cycles are canceled first (they carry nothing into the sink); amounts sum
    to r_i and at most |E| paths are returned.
    """
    inst = flow.instance
    result = []
    for path, end, amount in _peel_paths(inst, flow.edge_flows[player]):
        if end != inst.requests[player].sink:
            raise StructuralError("player flow ends away from its sink")
        result.append((path, amount))
    return result


def enumerate_paths(inst: FlowInstance, sink: int, guard: int = PATH_GUARD):
    """All simple source->sink paths as edge-index tuples, lexicographic."""
    edges = inst.graph.edges
    out = [[] for _ in range(inst.graph.num_vertices)]
    for e, (u, v, c) in enumerate(edges):
        out[u].append(e)
    paths = []
    seen = [False] * inst.graph.num_vertices
    stack = []

    def walk(v):
        if v == sink:
            paths.append(tuple(stack))
            if len(paths) > guard:
                raise SizeGuardError(f"more than {guard} paths to sink {sink}")
            return
        seen[v] = True
        for e in out[v]:
            w = edges[e][1]
            if not seen[w]:
                stack.append(e)
                walk(w)
                stack.pop()
        seen[v] = False

    walk(inst.source)
    return paths


def solve_path_lp(inst: FlowInstance, bids) -> Fraction:
    """Optimum of the path LP: the mechanism.relaxation of
    inst.integer_program, where x[i, k] is the share of request i's demand
    on its k-th path and full delivery is worth bids[i].amount."""
    check_bids(bids, "flow", inst.n)
    paths, options, caps = inst.integer_program
    if not any(paths):  # nothing is routable
        return F0
    weights = [[b.amount] * len(ps) for b, ps in zip(bids, paths)]
    sol = solve_lp(relaxation(options, caps, weights))
    assert sol.optimal  # bounded by the request rows, feasible at zero
    return sol.value


def _check_rt(flow: FractionalFlow, inst: FlowInstance, epsilon) -> Fraction:
    epsilon = frac(epsilon)
    if epsilon <= 0:
        raise PreconditionError("epsilon must be positive")
    if flow.instance != inst:
        raise StructuralError("flow was computed for a different instance")
    return epsilon


def rt_round(flow: FractionalFlow, inst: FlowInstance, epsilon, seed) -> PathAssignment:
    """Scaled random path selection with greedy feasibility alteration.

    Independently per player: route fully with probability r_i/((1+eps) d_i),
    picking a decomposition path with probability proportional to its amount.
    If the sample violates some capacity, routed players are dropped in
    increasing r_i/d_i order (ties by index) until it fits. Reads neither
    bids nor values, so the outcome is oblivious given (flow, seed).
    """
    epsilon = _check_rt(flow, inst, epsilon)
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
    return _alter_to_feasible(inst, flow, paths)


def _alter_to_feasible(inst: FlowInstance, flow: FractionalFlow, paths) -> PathAssignment:
    # drop order reads only the fractional solution: least-served densities
    # r_i/d_i go first, never the bids or values; a dropped player's demand
    # is subtracted from the integer loads until no edge is over capacity
    demands, caps = inst.integer_units
    load = [0] * len(caps)
    for i, p in enumerate(paths):
        if p is not None:
            for e in p:
                load[e] += demands[i]
    over = {e for e, c in enumerate(caps) if load[e] > c}
    raw_feasible = not over
    paths = list(paths)
    dropped = []
    for i in flow.drop_order:
        if not over:
            break
        if paths[i] is None:
            continue
        for e in paths[i]:
            load[e] -= demands[i]
            if load[e] <= caps[e]:
                over.discard(e)
        paths[i] = None
        dropped.append(i)
    return PathAssignment(tuple(paths), tuple(dropped), raw_feasible)


def rt_support(flow: FractionalFlow, inst: FlowInstance, epsilon):
    """Exact (probability, PathAssignment) support of rt_round."""
    epsilon = _check_rt(flow, inst, epsilon)
    options = []
    for i, req in enumerate(inst.requests):
        p_route = flow.routed[i] / ((1 + epsilon) * req.demand)
        opts = [(1 - p_route, None)]
        if flow.routed[i] > 0:
            for path, amt in flow_decompose(flow, i):
                opts.append((amt / ((1 + epsilon) * req.demand), path))
        options.append([(p, c) for p, c in opts if p > 0])
    return [
        (p, _alter_to_feasible(inst, flow, chosen))
        for p, chosen in product_support(options)
    ]


# the greedy fractional flow is (1/2, 1)-smooth for half-value deviations
GREEDY_SMOOTHNESS = SmoothnessParams(HALF, 1, HALF_VALUE)


def rt_alpha(epsilon) -> Fraction:
    """Loss of rt_round at slack epsilon."""
    return 1 + frac(epsilon)


def fractional_rule(inst: FlowInstance) -> AllocationRule:
    return AllocationRule(
        "flow", lambda bids: greedy_fractional_flow(inst, bids), name="flow-greedy"
    )


def rt_rule(inst: FlowInstance, epsilon) -> AllocationRule:
    """Relax-and-round mechanism: greedy fractional relax, rt_round round."""
    epsilon = frac(epsilon)
    return AllocationRule(
        "flow",
        lambda bids: greedy_fractional_flow(inst, bids),
        round_stage=lambda relaxed, seed: rt_round(relaxed, inst, epsilon, seed),
        round_support=lambda relaxed: rt_support(relaxed, inst, epsilon),
        name="flow-rt",
    )


# ------------------------------------------------------------------ integral


def solve_flow_integral(inst: FlowInstance, bids):
    """Exact declared-welfare maximizer over single-path assignments.

    Each player routes nothing or one enumerated path carrying its whole
    demand. mechanism.integral_argmax, the integral maximizer shared with
    the packing domain, takes the loads in integer_units; ties break to the
    lexicographically smallest choice tuple (routing nothing sorts before
    any path). The paths and loads are inst.integer_program, built once per
    instance; a solve only builds the weights. A one-edge graph whose
    capacity in integer_units is at most SWEEP_CAPACITY_LIMIT is swept;
    anything else is searched, and meeting more than SEARCH_LIMIT feasible
    tuples there raises SizeGuardError.
    """
    check_bids(bids, "flow", inst.n)
    paths, options, caps = inst.integer_program
    weights = [[b.amount] * len(ps) for b, ps in zip(bids, paths)]
    choices, best = integral_argmax(options, caps, weights)
    chosen = tuple(ps[c - 1] if c else None for ps, c in zip(paths, choices))
    return PathAssignment(chosen), best


def integral_flow_rule(inst: FlowInstance) -> AllocationRule:
    return AllocationRule(
        "flow", lambda bids: solve_flow_integral(inst, bids), name="flow-integral"
    )


def gen_flow_counterexample(m: int) -> Counterexample:
    """One unit edge, m light players (demand 1/m) and two heavy ones.

    Small players value full delivery at 1, the two heavy players demand the
    whole edge and value it at 2. Heavy players bidding truthfully while the
    small players bid zero is a pure Nash equilibrium of the pay-your-bid
    mechanism over single-path assignments: welfare 2 versus the optimum m
    of routing every small player.
    """
    if m < 2:
        raise StructuralError("need at least two small players")
    graph = CapacitatedDigraph(2, [(0, 1, F1)])
    small = Fraction(1, m)
    requests = [(1, small, F1) for _ in range(m)]
    requests += [(1, F1, Fraction(2)), (1, F1, Fraction(2))]
    inst = FlowInstance(graph, 0, requests)
    values = truthful_flow_bids(inst)
    return Counterexample.of(inst, values, m, integral_flow_rule(inst), RouteValuation)


def gen_flow_instances(count: int, seed: int, max_vertices: int = 7, max_players: int = 4):
    """Seeded random instances, kept within the path-enumeration guard."""
    rng = Random(seed)
    out = []
    while len(out) < count:
        nv = rng.randint(3, max_vertices)
        edges = []
        for u in range(nv):
            for v in range(nv):
                if u == v:
                    continue
                bias = 60 if u < v else 15
                if rng.randrange(100) < bias:
                    cap = Fraction(rng.randint(1, 6), rng.choice((1, 2)))
                    edges.append((u, v, cap))
        if not edges:
            continue
        graph = CapacitatedDigraph(nv, edges)
        players = rng.randint(1, max_players)
        requests = []
        for _ in range(players):
            sink = rng.randint(1, nv - 1)
            demand = Fraction(rng.randint(1, 4), rng.choice((1, 2)))
            value = Fraction(rng.randint(0, 12), rng.choice((1, 2)))
            requests.append((sink, demand, value))
        inst = FlowInstance(graph, 0, requests)
        try:
            for r in inst.requests:
                enumerate_paths(inst, r.sink)
        except SizeGuardError:
            continue
        out.append(inst)
    return out


# ------------------------------------------------------------------ matroids


@dataclass(frozen=True)
class MatroidOracle:
    """Ground set plus an independence test over frozensets of elements."""

    ground: tuple
    independent: Callable
    name: str = ""


@value_type
class MatroidValuation(Valuation):
    player: int
    amount: Fraction
    domain: ClassVar[str] = "matroid"

    def __init__(self, player, amount):
        amount = frac(amount)
        if amount < 0:
            raise StructuralError("bids and values must be nonnegative")
        object.__setattr__(self, "player", player)
        object.__setattr__(self, "amount", amount)

    def value(self, outcome) -> Fraction:
        if outcome is None:
            return F0
        return self.amount if self.player in outcome else F0

    def scale(self, theta) -> "MatroidValuation":
        return MatroidValuation(self.player, frac(theta) * self.amount)

    def best_case(self) -> Fraction:
        return self.amount


def uniform_matroid(n: int, rank: int) -> MatroidOracle:
    return MatroidOracle(
        tuple(range(n)),
        lambda s: len(s) <= rank,
        name=f"uniform({n},{rank})",
    )


def graphic_matroid(num_vertices: int, edge_list) -> MatroidOracle:
    edge_list = tuple((u, v) for u, v in edge_list)
    for u, v in edge_list:
        if not (0 <= u < num_vertices and 0 <= v < num_vertices) or u == v:
            raise StructuralError("bad edge in graphic matroid")

    def independent(s):
        parent = list(range(num_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in s:
            u, v = edge_list[e]
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    return MatroidOracle(tuple(range(len(edge_list))), independent, name="graphic")


def gammoid(inst: FlowInstance) -> MatroidOracle:
    """Routable sink sets of a unit-demand instance form a matroid.

    A player set is independent when one unit can be delivered to each of
    its sinks simultaneously, checked by an exact max-flow with a fresh
    super-sink. Demands other than 1 are rejected: scaling breaks the
    exchange property for mixed demands.
    """
    for r in inst.requests:
        if r.demand != 1:
            raise PreconditionError("gammoid ground set needs unit demands")
    base = inst.graph

    def independent(s):
        players = sorted(s)
        if not players:
            return True
        super_sink = base.num_vertices
        edges = list(base.edges)
        for i in players:
            edges.append((inst.requests[i].sink, super_sink, F1))
        g = CapacitatedDigraph(base.num_vertices + 1, edges)
        return max_flow(g, inst.source, super_sink).value == len(players)

    return MatroidOracle(tuple(range(inst.n)), independent, name="gammoid")


def check_matroid_axioms(oracle: MatroidOracle, trials: int = 60, seed: int = 0) -> bool:
    """Spot tests: hereditary closure and the exchange property."""
    rng = Random(seed)
    ground = list(oracle.ground)
    if not oracle.independent(frozenset()):
        return False

    def random_independent():
        s = set()
        for e in rng.sample(ground, len(ground)):
            if rng.randrange(2) and oracle.independent(frozenset(s | {e})):
                s.add(e)
        return s

    for _ in range(trials):
        big = random_independent()
        if big:
            sub = {e for e in big if rng.randrange(2)}
            if not oracle.independent(frozenset(sub)):
                return False
        small = random_independent()
        if len(small) < len(big):
            if not any(
                oracle.independent(frozenset(small | {e})) for e in big - small
            ):
                return False
    return True


def matroid_rule(oracle: MatroidOracle) -> AllocationRule:
    index = {e: i for i, e in enumerate(oracle.ground)}

    def solve(bids):
        if not oracle.independent(frozenset()):
            raise StructuralError("oracle rejects the empty set")
        chosen = set()
        order = sorted(oracle.ground, key=lambda e: (-bids[index[e]].amount, index[e]))
        for e in order:
            if bids[index[e]].amount <= 0:
                continue
            if oracle.independent(frozenset(chosen | {e})):
                chosen.add(e)
        return frozenset(chosen), sum((bids[index[e]].amount for e in chosen), F0)

    return AllocationRule("matroid", solve, name="matroid-greedy")


def matroid_greedy(oracle: MatroidOracle, bids, values=None):
    """Greedy basis under pay-your-bid; returns (chosen set, MechanismRun)."""
    rule = matroid_rule(oracle)
    run = run_pay_your_bid(rule, bids, values if values is not None else bids)
    return run.outcome, run


def exchange_matching(oracle: MatroidOracle, basis_i, basis_j) -> dict:
    """Bijection m with basis_i - i + m(i) independent for every i.

    Existence is part of the matroid exchange structure; failure to find one
    therefore flags a broken oracle.
    """
    I = sorted(basis_i)
    J = sorted(basis_j)
    if len(I) != len(set(I)) or len(J) != len(set(J)):
        raise PreconditionError("bases must not repeat elements")
    if len(I) != len(J):
        raise PreconditionError("bases must have equal rank")
    for s in (I, J):
        fs = frozenset(s)
        if not oracle.independent(fs):
            raise PreconditionError("input set is not independent")
        for e in oracle.ground:
            if e not in fs and oracle.independent(fs | {e}):
                raise PreconditionError("input set is not maximal")
    # identity on the intersection; true exchanges only across the difference
    common = sorted(set(I) & set(J))
    only_i = sorted(set(I) - set(J))
    only_j = sorted(set(J) - set(I))
    mapping = {e: e for e in common}
    if only_i:
        entries = []
        for i in only_i:
            row = []
            for j in only_j:
                ok = oracle.independent(frozenset(set(I) - {i} | {j}))
                row.append(F1 if ok else None)
            entries.append(row)
        try:
            perm, _ = max_weight_perfect_matching(WeightMatrix(entries))
        except InfeasibleMatchingError:
            raise StructuralError("no exchange bijection: oracle is not a matroid")
        for a in range(len(only_i)):
            mapping[only_i[a]] = only_j[perm[a]]
    for i, j in mapping.items():
        assert oracle.independent(frozenset(set(I) - {i} | {j}))
    return mapping
