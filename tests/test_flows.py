"""Greedy fractional routing, path rounding, matroid toolkit."""

from fractions import Fraction
from itertools import islice, product
from random import Random

import pytest

from anarchy.errors import PreconditionError, SizeGuardError, StructuralError
from anarchy.flows import (
    FlowInstance,
    FractionalFlow,
    MatroidOracle,
    MatroidValuation,
    PathAssignment,
    RouteValuation,
    _alter_to_feasible,
    check_fractional_flow,
    check_matroid_axioms,
    counterexample_flow_deviations,
    enumerate_paths,
    exchange_matching,
    flow_decompose,
    gammoid,
    gen_flow_counterexample,
    gen_flow_instances,
    graphic_matroid,
    greedy_fractional_flow,
    integral_flow_rule,
    matroid_greedy,
    matroid_rule,
    rt_round,
    rt_rule,
    rt_support,
    solve_flow_integral,
    solve_path_lp,
    truthful_flow_bids,
    uniform_matroid,
)
from anarchy.mechanism import (
    HALF_VALUE,
    SmoothnessParams,
    check_smoothness,
    expected_run,
    scaled_bid_profiles,
    theta_grid,
    verify_pure_nash,
)
from anarchy.rationals import F0, F1
from anarchy.solvers import CapacitatedDigraph

from oracles import alter_to_feasible_reference, rt_round_reference

H = Fraction(1, 2)


def unit_edge_instance(requests):
    return FlowInstance(CapacitatedDigraph(2, [(0, 1, 1)]), 0, requests)


# ---------------------------------------------------------------- instances


def test_instance_validation():
    g = CapacitatedDigraph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(StructuralError):
        FlowInstance(g, 0, [(1, 0, 1)])  # zero demand
    with pytest.raises(StructuralError):
        FlowInstance(g, 0, [(1, 1, -1)])  # negative value
    with pytest.raises(StructuralError):
        FlowInstance(g, 0, [(0, 1, 1)])  # self request
    with pytest.raises(StructuralError):
        FlowInstance(g, 0, [(7, 1, 1)])  # sink out of range
    with pytest.raises(StructuralError):
        FlowInstance(g, 9, [(1, 1, 1)])  # source out of range


def test_json_round_trip():
    inst = FlowInstance(
        CapacitatedDigraph(3, [(0, 1, Fraction(3, 2)), (1, 2, 1)]),
        0,
        [(2, Fraction(1, 3), 4), (1, 1, Fraction(5, 2))],
    )
    data = inst.to_dict()
    assert data["edges"][0]["cap"] == "3/2"
    assert data["requests"][0]["demand"] == "1/3"
    assert FlowInstance.from_dict(data) == inst


# ------------------------------------------------------------------- greedy


def test_greedy_single_edge_contention():
    inst = unit_edge_instance([(1, 1, 3), (1, 1, 2)])
    bids = truthful_flow_bids(inst)
    flow, welfare = greedy_fractional_flow(inst, bids)
    assert welfare == 3
    assert flow.routed == (1, 0)
    assert solve_path_lp(inst, bids) == 3


def test_greedy_zero_bids():
    inst = unit_edge_instance([(1, 1, 3), (1, 1, 2)])
    bids = tuple(RouteValuation(i, 0) for i in range(2))
    _, welfare = greedy_fractional_flow(inst, bids)
    assert welfare == 0


def test_greedy_disjoint_paths():
    g = CapacitatedDigraph(4, [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)])
    inst = FlowInstance(g, 0, [(3, 1, 5), (3, 1, 4)])
    flow, welfare = greedy_fractional_flow(inst, truthful_flow_bids(inst))
    assert welfare == 9
    assert flow.routed == (1, 1)


def test_greedy_reroutes_earlier_players():
    # the second sink is reachable only through the vertex the first player
    # initially goes through; serving both needs a rerouting augmentation
    g = CapacitatedDigraph(
        5, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1), (1, 4, 1)]
    )
    inst = FlowInstance(g, 0, [(3, 1, 5), (4, 1, 4)])
    flow, welfare = greedy_fractional_flow(inst, truthful_flow_bids(inst))
    assert welfare == 9
    assert flow.routed == (1, 1)
    check_fractional_flow(inst, flow)


def test_greedy_tie_by_index():
    inst = unit_edge_instance([(1, 1, 2), (1, 1, 2)])
    flow, _ = greedy_fractional_flow(inst, truthful_flow_bids(inst))
    assert flow.routed == (1, 0)  # equal densities: earlier index first


def test_greedy_shared_sink_split():
    inst = unit_edge_instance([(1, H, 2), (1, 1, 1)])
    flow, welfare = greedy_fractional_flow(inst, truthful_flow_bids(inst))
    # densities 4 and 1: the small request routes fully, the big one halfway
    assert flow.routed == (H, H)
    assert welfare == 2 + H


def test_greedy_matches_path_lp_random():
    for inst in gen_flow_instances(60, seed=17):
        rng = Random(hash(inst) & 0xFFFF)
        bids = tuple(
            RouteValuation(i, Fraction(rng.randint(0, 10), rng.choice((1, 2))))
            for i in range(inst.n)
        )
        flow, welfare = greedy_fractional_flow(inst, bids)
        check_fractional_flow(inst, flow)
        assert welfare == solve_path_lp(inst, bids)


# ------------------------------------------------------------ decomposition


def test_decompose_single_path():
    inst = unit_edge_instance([(1, 1, 3)])
    flow, _ = greedy_fractional_flow(inst, truthful_flow_bids(inst))
    assert flow_decompose(flow, 0) == [((0,), 1)]


def test_decompose_split_paths():
    g = CapacitatedDigraph(
        4, [(0, 1, H), (1, 3, H), (0, 2, H), (2, 3, H)]
    )
    inst = FlowInstance(g, 0, [(3, 1, 4)])
    flow, _ = greedy_fractional_flow(inst, truthful_flow_bids(inst))
    pieces = flow_decompose(flow, 0)
    assert sorted(pieces) == [((0, 1), H), ((2, 3), H)]


def test_decompose_recomposes_exactly():
    for inst in gen_flow_instances(25, seed=29):
        bids = truthful_flow_bids(inst)
        flow, _ = greedy_fractional_flow(inst, bids)
        m = len(inst.graph.edges)
        for i in range(inst.n):
            pieces = flow_decompose(flow, i)
            assert len(pieces) <= m
            assert sum((amt for _, amt in pieces), F0) == flow.routed[i]
            recomposed = [F0] * m
            for path, amt in pieces:
                for e in path:
                    recomposed[e] += amt
            assert tuple(recomposed) == flow.edge_flows[i]


def test_decompose_cancels_cycles():
    g = CapacitatedDigraph(4, [(0, 1, 2), (2, 3, 1), (3, 2, 1)])
    inst = FlowInstance(g, 0, [(1, 2, 1)])
    cyclic = FractionalFlow(inst, ((1, 1, 1),), (F1,))
    assert flow_decompose(cyclic, 0) == [((0,), 1)]


# ----------------------------------------------------------------- rounding


def test_rt_route_probability_fully_routed():
    inst = unit_edge_instance([(1, 1, 3)])
    flow, _ = greedy_fractional_flow(inst, truthful_flow_bids(inst))
    support = rt_support(flow, inst, Fraction(1, 100))
    marginal = sum((p for p, pa in support if pa.paths[0] is not None), F0)
    assert marginal == Fraction(100, 101)
    assert sum((p for p, _ in support), F0) == 1


def test_rt_zero_flow_routes_nothing():
    inst = unit_edge_instance([(1, 1, 3)])
    flow = FractionalFlow(inst, ((F0,),), (F0,))
    assert rt_round(flow, inst, 1, seed=5).paths == (None,)
    support = rt_support(flow, inst, 1)
    assert support == [(F1, rt_round(flow, inst, 1, seed=5))]


def test_rt_half_half_support():
    g = CapacitatedDigraph(4, [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)])
    inst = FlowInstance(g, 0, [(3, 1, 4)])
    flow = FractionalFlow(inst, ((H, H, H, H),), (F1,))
    check_fractional_flow(inst, flow)
    support = rt_support(flow, inst, 1)
    probs = {}
    for p, pa in support:
        probs[pa.paths[0]] = probs.get(pa.paths[0], F0) + p
    assert probs == {None: H, (0, 1): Fraction(1, 4), (2, 3): Fraction(1, 4)}
    assert all(not pa.dropped for _, pa in support)


def test_rt_half_half_monte_carlo():
    g = CapacitatedDigraph(4, [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)])
    inst = FlowInstance(g, 0, [(3, 1, 4)])
    flow = FractionalFlow(inst, ((H, H, H, H),), (F1,))
    samples = 100_000
    rng = Random(271)
    counts = {None: 0, (0, 1): 0, (2, 3): 0}
    for _ in range(samples):
        pa = rt_round(flow, inst, 1, seed=rng.getrandbits(60))
        counts[pa.paths[0]] += 1
    # 3 sigma for a 1/4 coin over 1e5 draws
    sigma = (0.25 * 0.75 / samples) ** 0.5
    assert abs(counts[(0, 1)] / samples - 0.25) <= 3 * sigma
    assert abs(counts[(2, 3)] / samples - 0.25) <= 3 * sigma


def test_rt_alteration_drops_to_feasible():
    # capacities half the demand: every routed sample must be altered
    g = CapacitatedDigraph(2, [(0, 1, H)])
    inst = FlowInstance(g, 0, [(1, 1, 3)])
    flow = FractionalFlow(inst, ((H,),), (H,))
    support = rt_support(flow, inst, 1)
    for p, pa in support:
        assert pa.paths == (None,)
    dropped = [pa for _, pa in support if pa.dropped]
    assert dropped and not dropped[0].raw_feasible


def test_rt_drop_order_prefers_low_density():
    g = CapacitatedDigraph(2, [(0, 1, 1)])
    inst = FlowInstance(g, 0, [(1, 1, 3), (1, 1, 3)])
    flow = FractionalFlow(inst, ((Fraction(3, 4),), (H,)), (Fraction(3, 4), H))
    # force both players routed: their joint demand 2 exceeds capacity 1
    support = rt_support(flow, inst, 1)
    both = [pa for _, pa in support if pa.dropped]
    assert both
    for pa in both:
        assert pa.dropped == (1,)  # lower routed fraction goes first
        assert pa.paths[0] is not None and pa.paths[1] is None


def test_rt_validation():
    inst = unit_edge_instance([(1, 1, 3)])
    flow, _ = greedy_fractional_flow(inst, truthful_flow_bids(inst))
    with pytest.raises(PreconditionError):
        rt_round(flow, inst, 0, seed=1)
    with pytest.raises(PreconditionError):
        rt_support(flow, inst, 0)
    other = unit_edge_instance([(1, 1, 4)])
    with pytest.raises(StructuralError):
        rt_round(flow, other, 1, seed=1)
    with pytest.raises(StructuralError):
        rt_support(flow, other, 1)
    half = FlowInstance(CapacitatedDigraph(2, [(0, 1, H)]), 0, [(1, 1, 3)])
    with pytest.raises(StructuralError):
        rt_support(flow, half, 1)


def test_rt_round_deterministic_given_seed():
    g = CapacitatedDigraph(4, [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)])
    inst = FlowInstance(g, 0, [(3, 1, 4)])
    flow = FractionalFlow(inst, ((H, H, H, H),), (F1,))
    a = rt_round(flow, inst, 1, seed=99)
    b = rt_round(flow, inst, 1, seed=99)
    assert a == b


def test_rt_support_size_guard_falls_back_to_sampling():
    # 14 unit requests on one edge: 2^14 joint draws, past the exact limit
    inst = FlowInstance(CapacitatedDigraph(2, [(0, 1, 14)]), 0, [(1, 1, 1)] * 14)
    bids = truthful_flow_bids(inst)
    flow, _ = greedy_fractional_flow(inst, bids)
    assert flow.routed == (F1,) * 14
    with pytest.raises(SizeGuardError):
        rt_support(flow, inst, 1)
    run = expected_run(rt_rule(inst, 1), bids, bids, samples=200)
    assert run.exact is False


# ------------------------------------------------------ alteration identity


def alteration_flows():
    """Greedy flows of seeded instances (up to 6 players) under truthful and
    random bids."""
    rng = Random(808)
    for inst in gen_flow_instances(60, 808, max_vertices=5, max_players=6):
        truthful = truthful_flow_bids(inst)
        noisy = tuple(
            RouteValuation(i, Fraction(rng.randint(0, 12), rng.choice((1, 2, 3))))
            for i in range(inst.n)
        )
        for bids in (truthful, noisy):
            yield inst, greedy_fractional_flow(inst, bids)[0]


def test_alteration_matches_the_recomputing_reference():
    checked = altered = 0
    for inst, flow in alteration_flows():
        options = [
            [None] + [path for path, _ in flow_decompose(flow, i)]
            if flow.routed[i] > 0
            else [None]
            for i in range(inst.n)
        ]
        expected = []
        for chosen in product(*options):
            expected.append(alter_to_feasible_reference(inst, flow, chosen))
            assert _alter_to_feasible(inst, flow, chosen) == expected[-1]
            altered += not expected[-1].raw_feasible
        checked += len(expected)
        # rt_support lists the same choice tuples, in the same product order
        for eps in (Fraction(1, 10), F1):
            assert [pa for _, pa in rt_support(flow, inst, eps)] == expected
    assert checked > 1000 and altered > 500


def test_rt_round_matches_the_reference_draw():
    for inst, flow in islice(alteration_flows(), 30):
        for eps in (Fraction(1, 10), F1):
            for seed in range(200):
                assert rt_round(flow, inst, eps, seed) == rt_round_reference(
                    flow, inst, eps, seed
                )


def alter_both(inst, flow, paths):
    got = _alter_to_feasible(inst, flow, paths)
    assert got == alter_to_feasible_reference(inst, flow, paths)
    return got


def test_alteration_drops_the_least_served_player_even_off_the_overload():
    # edge 0 (cap 3/2) carries players 0 and 1; player 2 alone uses edge 1
    g = CapacitatedDigraph(3, [(0, 1, Fraction(3, 2)), (0, 2, 1)])
    inst = FlowInstance(g, 0, [(1, 1, 1), (1, 1, 1), (2, 1, 1)])
    q = Fraction(1, 4)
    flow = FractionalFlow(inst, ((H, F0), (3 * q, F0), (F0, q)), (H, 3 * q, q))
    check_fractional_flow(inst, flow)
    got = alter_both(inst, flow, ((0,), (0,), (1,)))
    assert got == PathAssignment((None, (0,), None), (2, 0), False)


def test_alteration_breaks_density_ties_by_index():
    g = CapacitatedDigraph(2, [(0, 1, 2)])
    inst = FlowInstance(g, 0, [(1, 2, 1), (1, 1, 1), (1, 2, 1)])
    q = Fraction(1, 4)
    flow = FractionalFlow(inst, ((H,), (q,), (H,)), (H, q, H))
    assert [flow.routed_fraction(i) for i in range(3)] == [q, q, q]
    check_fractional_flow(inst, flow)
    got = alter_both(inst, flow, ((0,), (0,), (0,)))
    assert got == PathAssignment((None, None, (0,)), (0, 1), False)
    got = alter_both(inst, flow, (None, (0,), (0,)))
    assert got == PathAssignment((None, None, (0,)), (1,), False)


def test_alteration_drops_until_every_edge_fits():
    inst = unit_edge_instance([(1, H, 1)] * 5)
    routed = tuple(Fraction(k, 40) for k in (3, 1, 4, 2, 5))
    flow = FractionalFlow(inst, tuple((r,) for r in routed), routed)
    check_fractional_flow(inst, flow)
    got = alter_both(inst, flow, ((0,),) * 5)
    assert got == PathAssignment((None, None, (0,), None, (0,)), (1, 3, 0), False)


def test_alteration_keeps_a_load_equal_to_its_capacity():
    # demands 1/3: three on edge 0 (cap 1) fill it exactly, two on edge 1
    # (cap 1/2) overload it
    third = Fraction(1, 3)
    g = CapacitatedDigraph(3, [(0, 1, 1), (0, 2, H)])
    inst = FlowInstance(g, 0, [(1, third, 1)] * 3 + [(2, third, 1)] * 2)
    routed = (third, third, third, Fraction(1, 12), Fraction(1, 6))
    flow = FractionalFlow(
        inst, tuple((r, F0) if i < 3 else (F0, r) for i, r in enumerate(routed)), routed
    )
    check_fractional_flow(inst, flow)
    full = ((0,),) * 3
    assert alter_both(inst, flow, full + (None, None)) == PathAssignment(full + (None, None))
    got = alter_both(inst, flow, full + ((1,), (1,)))
    assert got == PathAssignment(full + (None, (1,)), (3,), False)


# ----------------------------------------------------------------- integral


def brute_force_integral(inst, bids):
    """Independent exhaustive scan over per-player path options."""
    options = [[None] + enumerate_paths(inst, r.sink) for r in inst.requests]
    edges = inst.graph.edges
    best = None
    best_paths = None
    for combo in product(*options):
        load = [F0] * len(edges)
        ok = True
        for i, p in enumerate(combo):
            if p is None:
                continue
            for e in p:
                load[e] += inst.requests[i].demand
                if load[e] > edges[e][2]:
                    ok = False
            if not ok:
                break
        if not ok:
            continue
        value = sum((bids[i].amount for i, p in enumerate(combo) if p is not None), F0)
        if best is None or value > best:
            best = value
            best_paths = combo
    return best_paths, best


def test_integral_matches_brute_force():
    rng = Random(37)
    for inst in gen_flow_instances(25, seed=41, max_vertices=5, max_players=3):
        bids = tuple(
            RouteValuation(i, Fraction(rng.randint(0, 8))) for i in range(inst.n)
        )
        expected_paths, expected = brute_force_integral(inst, bids)
        got, value = solve_flow_integral(inst, bids)
        assert value == expected
        assert got.paths == expected_paths


def test_integral_prefers_lex_smallest():
    inst = unit_edge_instance([(1, 1, 2), (1, 1, 2)])
    bids = truthful_flow_bids(inst)
    got, value = solve_flow_integral(inst, bids)
    assert value == 2
    assert got.paths == (None, (0,))  # skipping earlier players sorts first


# ----------------------------------------------------------- counterexample


def test_counterexample_ratios():
    assert gen_flow_counterexample(10).ratio == 5
    assert gen_flow_counterexample(2).ratio == 1
    with pytest.raises(StructuralError):
        gen_flow_counterexample(1)


def test_counterexample_structure():
    ce = gen_flow_counterexample(4)
    assert ce.equilibrium_welfare == 2
    assert ce.optimum == 4
    assert ce.instance.n == 6
    # optimum routs every small player: brute force over the single edge
    _, best = brute_force_integral(ce.instance, ce.values)
    assert best == 4


def test_counterexample_is_pure_nash_m4():
    ce = gen_flow_counterexample(4)
    grids = counterexample_flow_deviations(ce, resolution=4)
    cert = verify_pure_nash(ce.rule, ce.bids, ce.values, grids)
    assert cert.is_nash and cert.max_regret == 0


# ------------------------------------------------------------------ matroid


def test_uniform_greedy():
    u = uniform_matroid(3, 2)
    bids = tuple(MatroidValuation(i, a) for i, a in enumerate((5, 3, 1)))
    chosen, run = matroid_greedy(u, bids)
    assert chosen == frozenset({0, 1})
    assert run.payments == (5, 3, 0)


def test_greedy_skips_zero_bids():
    u = uniform_matroid(3, 2)
    bids = tuple(MatroidValuation(i, a) for i, a in enumerate((5, 0, 0)))
    chosen, _ = matroid_greedy(u, bids)
    assert chosen == frozenset({0})


def test_graphic_triangle():
    tri = graphic_matroid(3, [(0, 1), (1, 2), (2, 0)])
    bids = tuple(MatroidValuation(i, a) for i, a in enumerate((3, 2, 1)))
    chosen, run = matroid_greedy(tri, bids)
    # spanning trees: {0,1} worth 5, {0,2} worth 4, {1,2} worth 3
    assert chosen == frozenset({0, 1})
    assert run.welfare == 5


def test_gammoid_bottleneck():
    g = CapacitatedDigraph(
        6, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (1, 4, 1), (2, 5, 1)]
    )
    inst = FlowInstance(g, 0, [(3, 1, 1), (4, 1, 1), (5, 1, 1)])
    gm = gammoid(inst)
    assert gm.independent(frozenset({0, 2}))
    assert not gm.independent(frozenset({0, 1}))  # both squeeze through edge 0
    bids = tuple(MatroidValuation(i, a) for i, a in enumerate((5, 3, 1)))
    chosen, _ = matroid_greedy(gm, bids)
    assert chosen == frozenset({0, 2})


def test_gammoid_needs_unit_demands():
    inst = unit_edge_instance([(1, H, 1)])
    with pytest.raises(PreconditionError):
        gammoid(inst)


def test_matroid_axioms_spot_checks():
    assert check_matroid_axioms(uniform_matroid(5, 3))
    k4 = graphic_matroid(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert check_matroid_axioms(k4)
    g = CapacitatedDigraph(4, [(0, 1, 1), (0, 2, 2), (1, 3, 1), (2, 3, 1)])
    inst = FlowInstance(g, 0, [(1, 1, 1), (3, 1, 1), (3, 1, 1)])
    assert check_matroid_axioms(gammoid(inst))
    # hereditary but without exchange: two disjoint rank-2 lines
    broken = MatroidOracle((0, 1, 2, 3), lambda s: s <= {0, 1} or s <= {2, 3})
    assert not check_matroid_axioms(broken)


def test_greedy_rejects_broken_oracle():
    broken = MatroidOracle((0, 1), lambda s: len(s) > 0)
    bids = tuple(MatroidValuation(i, 1) for i in range(2))
    with pytest.raises(StructuralError):
        matroid_greedy(broken, bids)


def test_exchange_identity():
    u = uniform_matroid(4, 2)
    assert exchange_matching(u, frozenset({1, 3}), frozenset({1, 3})) == {1: 1, 3: 3}


def test_exchange_uniform_disjoint():
    u = uniform_matroid(4, 2)
    m = exchange_matching(u, frozenset({0, 1}), frozenset({2, 3}))
    assert sorted(m) == [0, 1]
    assert sorted(m.values()) == [2, 3]


def k4_spanning_trees():
    k4 = graphic_matroid(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    from itertools import combinations

    trees = [
        frozenset(t) for t in combinations(range(6), 3) if k4.independent(frozenset(t))
    ]
    return k4, trees


def test_exchange_k4_random_pairs():
    k4, trees = k4_spanning_trees()
    assert len(trees) == 16
    rng = Random(47)
    for _ in range(30):
        I = rng.choice(trees)
        J = rng.choice(trees)
        m = exchange_matching(k4, I, J)
        assert sorted(m) == sorted(I)
        assert sorted(m.values()) == sorted(J)
        for i, j in m.items():
            assert k4.independent(I - {i} | {j})
            if i in I & J:
                assert j == i


def test_exchange_rejects_non_basis():
    u = uniform_matroid(4, 2)
    with pytest.raises(PreconditionError):
        exchange_matching(u, frozenset({0}), frozenset({1, 2}))  # rank mismatch
    with pytest.raises(PreconditionError):
        exchange_matching(u, frozenset({0, 1, 2}), frozenset({0, 1, 3}))  # dependent


def test_matroid_greedy_smoothness():
    rng = Random(53)
    for trial in range(50):
        if trial % 2 == 0:
            n = rng.randint(2, 4)
            oracle = uniform_matroid(n, rng.randint(1, n))
        else:
            edges = [(0, 1), (1, 2), (2, 0), (0, 3)]
            oracle = graphic_matroid(4, edges[: rng.randint(3, 4)])
        n = len(oracle.ground)
        values = tuple(
            MatroidValuation(i, Fraction(rng.randint(1, 8))) for i in range(n)
        )
        bids = scaled_bid_profiles(values, theta_grid(2))
        cert = check_smoothness(
            matroid_rule(oracle), [values], bids, SmoothnessParams(H, 1, HALF_VALUE)
        )
        assert cert.holds, cert.to_dict()


# --------------------------------------------------------------- generators


def test_gen_flow_instances_deterministic():
    a = gen_flow_instances(5, seed=61)
    b = gen_flow_instances(5, seed=61)
    assert a == b
    for inst in a:
        assert inst.graph.num_vertices <= 7
        assert 1 <= inst.n <= 4
        for r in inst.requests:
            assert len(enumerate_paths(inst, r.sink)) <= 50


def test_enumerate_paths_guard():
    # dense DAG with many parallel routes exceeds a small guard
    edges = []
    for u in range(6):
        for v in range(u + 1, 6):
            edges.append((u, v, 1))
    inst = FlowInstance(CapacitatedDigraph(6, edges), 0, [(5, 1, 1)])
    with pytest.raises(SizeGuardError):
        enumerate_paths(inst, 5, guard=3)
