"""Cycle covers, uniform-drop tour rounding, half-edge relaxation."""

from fractions import Fraction
from itertools import permutations
from random import Random

import pytest

from anarchy import maxtsp
from anarchy.errors import SizeGuardError, StructuralError
from anarchy.maxtsp import (
    CompleteDigraph,
    CycleCover,
    EdgeValuation,
    HalfEdgeCover,
    HamiltonianCycle,
    check_cc_social_cost,
    check_half_edge_social_cost,
    cycle_cover_rule,
    fisher_round,
    fisher_rule,
    fisher_support,
    force_edge,
    gen_digraphs,
    half_edge_cover,
    max_weight_cycle_cover,
    random_cover,
    truthful_edge_bids,
    uniform_digraph,
)
from anarchy.maxtsp import _half_edge_structures
from anarchy.mechanism import (
    HALF_VALUE,
    SmoothnessParams,
    check_smoothness,
    theta_grid,
)
from anarchy.rationals import F0

import oracles
from oracles import derangements, enumerate_draws, fisher_round_reference


def cover_oracle(g, weight_of=None):
    """Best derangement by direct scan, (succ, weight)."""
    wf = weight_of or g.w
    best = None
    best_p = None
    for p in derangements(g.num_vertices):
        w = sum(wf(u, p[u]) for u in range(g.num_vertices))
        if best is None or w > best:
            best = w
            best_p = p
    return best_p, best


def scaled_profile(values, theta):
    return tuple(v.scale(theta) for v in values)


# ------------------------------------------------------------------- types


def test_graph_validation():
    with pytest.raises(StructuralError):
        CompleteDigraph(2, [1, 1])
    with pytest.raises(StructuralError):
        CompleteDigraph(3, [1] * 5)
    with pytest.raises(StructuralError):
        CompleteDigraph(3, [1, 1, 1, 1, 1, -1])
    g = CompleteDigraph(3, [1, 2, 3, 4, 5, 6])
    assert g.w(0, 1) == 1 and g.w(2, 1) == 6
    with pytest.raises(StructuralError):
        g.index(1, 1)


def test_graph_json_round_trip():
    g = CompleteDigraph(3, [Fraction(1, 3), 2, 0, 4, Fraction(7, 2), 6])
    data = g.to_dict()
    assert data["weights"][0] == "1/3"
    assert CompleteDigraph.from_dict(data) == g


def test_cover_validation():
    with pytest.raises(StructuralError):
        CycleCover((0, 1, 2))  # fixed points
    with pytest.raises(StructuralError):
        CycleCover((1, 1, 0))  # not a permutation
    cov = CycleCover((1, 0, 3, 2))
    assert cov.cycles() == [(0, 1), (2, 3)]
    assert cov.fraction(0, 1) == 1 and cov.fraction(1, 2) == 0


def test_tour_normalizes_rotation():
    assert HamiltonianCycle((2, 0, 1)).order == (0, 1, 2)
    assert HamiltonianCycle((1, 2, 0)) == HamiltonianCycle((0, 1, 2))
    with pytest.raises(StructuralError):
        HamiltonianCycle((0, 1, 1))
    t = HamiltonianCycle((0, 2, 1, 3))
    assert t.edges() == ((0, 2), (2, 1), (1, 3), (3, 0))
    assert t.as_cover().succ == (2, 3, 1, 0)


def test_edge_valuation():
    v = EdgeValuation(0, 0, 1, 6)
    assert v.value(CycleCover((1, 2, 0))) == 6
    assert v.value(CycleCover((2, 0, 1))) == 0
    assert v.value(None) == 0
    assert v.scale(Fraction(1, 2)).amount == 3
    with pytest.raises(StructuralError):
        EdgeValuation(0, 1, 1, 2)
    with pytest.raises(StructuralError):
        EdgeValuation(0, 0, 1, -1)


# ------------------------------------------------------------ cycle covers


def test_triangle_picks_heavier_orientation():
    g = CompleteDigraph(3, [5, 1, 2, 3, 4, 2])
    cov, wt = max_weight_cycle_cover(g)
    assert wt == g.w(0, 1) + g.w(1, 2) + g.w(2, 0) == 12
    assert cov.succ == (1, 2, 0)


def test_uniform_weight_is_n_and_lex_smallest():
    cov3, w3 = max_weight_cycle_cover(uniform_digraph(3))
    assert w3 == 3 and cov3.succ == (1, 2, 0)
    cov4, w4 = max_weight_cycle_cover(uniform_digraph(4))
    assert w4 == 4 and cov4.succ == (1, 0, 3, 2)


def test_cover_matches_derangement_scan():
    for g in gen_digraphs(30, seed=11, sizes=(4, 5)):
        cov, wt = max_weight_cycle_cover(g)
        _, want = cover_oracle(g)
        assert wt == want
        assert cov.weight(g) == wt


def test_cover_lex_tie_break_is_global():
    # 0/1 weights and all-tie graphs: every optimum compared lex
    graphs = gen_digraphs(12, seed=13, sizes=(4,), max_weight=1)
    graphs += gen_digraphs(24, seed=14, sizes=(4, 5, 6), max_weight=1)
    graphs += [uniform_digraph(n) for n in range(3, 7)]
    for g in graphs:
        n = g.num_vertices
        cov, wt = max_weight_cycle_cover(g)
        opts = [
            p
            for p in derangements(n)
            if sum(g.w(u, p[u]) for u in range(n)) == wt
        ]
        assert cov.succ == min(opts)


def test_cover_is_one_matching_solve(monkeypatch):
    calls = []
    real = maxtsp.max_weight_perfect_matching

    def counted(wm):
        calls.append(wm)
        return real(wm)

    monkeypatch.setattr(maxtsp, "max_weight_perfect_matching", counted)
    for g in gen_digraphs(6, seed=15, sizes=(4, 5, 6)):
        calls.clear()
        max_weight_cycle_cover(g)
        assert len(calls) == 1


def test_cover_under_bids_and_slot_validation():
    g = CompleteDigraph(3, [5, 1, 2, 3, 4, 2])
    bids = truthful_edge_bids(g)
    swapped = (bids[1], bids[0]) + bids[2:]
    with pytest.raises(StructuralError):
        max_weight_cycle_cover(g, swapped)
    with pytest.raises(StructuralError):
        max_weight_cycle_cover(g, bids[:-1])
    zero = tuple(b.scale(0) for b in bids)
    _, wt = max_weight_cycle_cover(g, zero)
    assert wt == 0


# ----------------------------------------------------------------- rounding


def test_fisher_single_cycle_unchanged():
    g = CompleteDigraph(4, list(range(12)))
    cov = CycleCover((1, 2, 3, 0))
    for seed in range(8):
        assert fisher_round(cov, g, seed).as_cover() == cov
    support = fisher_support(cov, g)
    assert support == [(1, HamiltonianCycle((0, 1, 2, 3)))]


def test_fisher_two_two_cycles_expectation():
    # cycle 0<->1 weighs 3+1, cycle 2<->3 weighs 2+2; cover weight 8
    g = CompleteDigraph(4, [3, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0, 2])
    cov = CycleCover((1, 0, 3, 2))
    support = fisher_support(cov, g)
    assert len(support) == 4
    assert all(p == Fraction(1, 4) for p, _ in support)
    expected = sum((p * t.weight(g) for p, t in support), F0)
    assert expected == 4  # exactly half the cover weight here


def test_fisher_inclusion_probability():
    # one 2-cycle and one 3-cycle: inclusion (L-1)/L per cycle
    cov = CycleCover((1, 0, 3, 4, 2))
    g = uniform_digraph(5)
    support = fisher_support(cov, g)
    assert sum((p for p, _ in support), F0) == 1
    for u, v in cov.edges():
        incl = sum((p for p, t in support if t.fraction(u, v) == 1), F0)
        cycle_len = 2 if u in (0, 1) else 3
        assert incl == Fraction(cycle_len - 1, cycle_len)
        assert incl >= Fraction(1, 2)


def test_fisher_expected_weight_at_least_half():
    rng = Random(19)
    for g in gen_digraphs(12, seed=23, sizes=(4, 5)):
        cov = random_cover(g.num_vertices, rng)
        support = fisher_support(cov, g)
        expected = sum((p * t.weight(g) for p, t in support), F0)
        assert expected >= cov.weight(g) / 2


def test_fisher_never_reads_weights():
    cov = CycleCover((1, 0, 3, 4, 2))
    a = CompleteDigraph(5, list(range(20)))
    b = CompleteDigraph(5, [7] * 20)
    for seed in (0, 3, 11):
        assert fisher_round(cov, a, seed) == fisher_round(cov, b, seed)
    with pytest.raises(StructuralError):
        fisher_round(cov, uniform_digraph(4), 0)


def test_fisher_round_draws_enumerate_to_the_exact_support():
    # every branch of the drop draws gives the tour the reference walks, and
    # together they give the exact support; 4 to 8 vertices, most covers
    # with several cycles, where a permuted option list changes the tours
    rng = Random(29)
    covers = [CycleCover((1, 0, 3, 2)), CycleCover((1, 0, 3, 4, 2))]
    covers += [random_cover(n, rng) for n in (4, 5, 6, 6, 7, 7, 8, 8)]
    assert sum(len(c.cycles()) > 1 for c in covers) >= 6
    for cov in covers:
        g = uniform_digraph(cov.n)
        pairs = enumerate_draws(
            lambda: (fisher_round(cov, g, 0), fisher_round_reference(cov, 0)),
            maxtsp,
            oracles,
        )
        assert all(tour == ref for tour, ref in pairs)
        support = {tour: p for (tour, _), p in pairs.items()}
        assert support == {tour: p for p, tour in fisher_support(cov, g)}


# -------------------------------------------------------------- force_edge


def test_force_edge_present_is_noop():
    cov = CycleCover((1, 2, 3, 0))
    forced, removed = force_edge(cov, (0, 1))
    assert forced == cov and removed == ()


def test_force_edge_case_one():
    # distinct tail-successor and head-predecessor: two removals
    cov = CycleCover((1, 0, 3, 2))
    forced, removed = force_edge(cov, (0, 2))
    assert removed == ((0, 1), (3, 2))
    assert forced.succ == (2, 0, 3, 1)


def test_force_edge_case_two():
    # the head's predecessor is the tail's successor: three removals
    cov = CycleCover((1, 2, 3, 4, 0))
    forced, removed = force_edge(cov, (0, 2))
    assert removed == ((0, 1), (1, 2), (2, 3))
    assert forced.succ == (2, 3, 1, 4, 0)


def test_force_edge_exhaustive_small():
    for succ in derangements(5):
        cov = CycleCover(succ)
        for v3 in range(5):
            for v4 in range(5):
                if v3 == v4:
                    continue
                forced, removed = force_edge(cov, (v3, v4))
                assert forced.succ[v3] == v4
                assert len(removed) <= 3
                assert set(removed) <= set(cov.edges())
                assert (v3, v4) not in removed


def test_force_edge_role_uniqueness():
    # over one reference cover, each base edge plays each role at most once
    rng = Random(29)
    for _ in range(20):
        base = random_cover(6, rng)
        ref = random_cover(6, rng)
        seen = set()
        for e in ref.edges():
            _, removed = force_edge(base, e)
            for edge, role in zip(removed, range(len(removed))):
                assert (edge, role) not in seen
                seen.add((edge, role))
        charges = {}
        for edge, _ in seen:
            charges[edge] = charges.get(edge, 0) + 1
        assert all(c <= 3 for c in charges.values())


# -------------------------------------------------------------- social cost


def test_cc_social_cost_optimal_reference():
    g = gen_digraphs(1, seed=31, sizes=(5,))[0]
    bids = truthful_edge_bids(g)
    opt, _ = max_weight_cycle_cover(g, bids)
    cert = check_cc_social_cost(g, bids, opt)
    assert cert.holds and cert.lhs == 0


def test_cc_social_cost_random():
    rng = Random(37)
    for g in gen_digraphs(40, seed=41, sizes=(4, 5)):
        values = truthful_edge_bids(g)
        theta = rng.choice(theta_grid(4))
        bids = scaled_profile(values, theta)
        cert = check_cc_social_cost(g, bids, random_cover(g.num_vertices, rng))
        assert cert.holds, (g, theta)


def test_cc_social_cost_two_cluster():
    # heavy 3-cycle on {0,1,2} and on {3,4,5}, weak cross edges
    n = 6
    weights = []
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            same = (u < 3) == (v < 3)
            weights.append(Fraction(9) if same else Fraction(1, 2))
    g = CompleteDigraph(n, weights)
    cert = check_cc_social_cost(g, truthful_edge_bids(g), CycleCover((3, 4, 5, 0, 1, 2)))
    assert cert.holds
    assert cert.rhs - cert.lhs > 0


def test_fisher_support_size_guard():
    # nine 3-cycles: 3^9 drop combinations, past the exact-support limit
    cover = CycleCover([3 * (k // 3) + (k + 1) % 3 for k in range(27)])
    assert len(cover.cycles()) == 9
    with pytest.raises(SizeGuardError):
        fisher_support(cover, uniform_digraph(27))


@pytest.mark.parametrize(
    "enumerate_tours",
    [lambda cover, g: fisher_round(cover, g, 0), fisher_support],
    ids=["fisher_round", "fisher_support"],
)
def test_fisher_rejects_a_cover_of_another_size(enumerate_tours):
    # a 3-vertex cover on a 4-vertex graph would round to a 3-vertex tour
    with pytest.raises(StructuralError, match="cover size does not match the graph"):
        enumerate_tours(CycleCover((1, 2, 0)), uniform_digraph(4))


def test_cc_social_cost_eight_vertices():
    cert = check_cc_social_cost(
        uniform_digraph(8), None, CycleCover((1, 0, 3, 2, 5, 4, 7, 6))
    )
    assert cert.holds and cert.lhs == 0 and cert.rhs == 24


def test_cc_social_cost_ten_vertices():
    g = gen_digraphs(1, seed=43, sizes=(10,))[0]
    cert = check_cc_social_cost(g, truthful_edge_bids(g), random_cover(10, Random(47)))
    assert cert.holds and cert.lhs > 0
    assert cert.rhs == 3 * max_weight_cycle_cover(g)[1]


def test_cc_social_cost_matches_derangement_oracle():
    # lhs is the summed loss of forcing each reference edge, by direct scan
    sizes = (4, 5, 6, 7)
    graphs = gen_digraphs(8, seed=51, sizes=sizes)
    graphs += gen_digraphs(8, seed=52, sizes=sizes, max_weight=1)
    graphs += [uniform_digraph(n) for n in sizes]
    rng = Random(53)
    for g in graphs:
        n = g.num_vertices
        scored = [(p, sum(g.w(u, p[u]) for u in range(n))) for p in derangements(n)]
        best = max(w for _, w in scored)
        reference = random_cover(n, rng)
        want = sum(
            best - max(w for p, w in scored if p[v3] == v4)
            for v3, v4 in reference.edges()
        )
        cert = check_cc_social_cost(g, None, reference)
        assert (cert.lhs, cert.rhs) == (want, 3 * best), g


# --------------------------------------------------------------- half edges


def test_half_edge_structure_counts():
    # active pairs form a 2-factor of K_n; each vertex routes its out-half
    # to one of its two active pairs: (#2-factors) * 2^n
    for n, want in ((3, 8), (4, 48), (5, 384), (6, 4480)):
        assert len(_half_edge_structures(n)) == want


def test_half_edge_cover_validation():
    full01 = ((0, 1, 0), (0, 1, 1))
    full20 = ((2, 0, 0), (2, 0, 1))
    full12 = ((1, 2, 0), (1, 2, 1))
    HalfEdgeCover(3, full01 + full12 + full20)
    with pytest.raises(StructuralError):
        HalfEdgeCover(3, full01 + full12)  # vertex degrees incomplete
    with pytest.raises(StructuralError):
        # round trip 0 -> 1 -> 0 through one pair's gadget
        HalfEdgeCover(3, ((0, 1, 0), (1, 0, 1), (1, 2, 0), (1, 2, 1), (2, 0, 0), (2, 0, 1)))


def test_half_edge_uniform_weight():
    for n in (3, 4, 5):
        _, w = half_edge_cover(uniform_digraph(n))
        assert w == n


def test_half_edge_cover_keeps_the_first_maximum():
    # uniform weights tie every structure; 0/1 weights tie many
    cover, _ = half_edge_cover(uniform_digraph(4))
    assert cover.arcs == _half_edge_structures(4)[0]
    for g in gen_digraphs(9, seed=29, sizes=(3, 4, 5), max_weight=1):
        n = g.num_vertices
        weights = [
            sum((g.w(u, v) / 2 for u, v, _ in arcs), F0)
            for arcs in _half_edge_structures(n)
        ]
        first = weights.index(max(weights))
        cover, best = half_edge_cover(g)
        assert (cover.arcs, best) == (_half_edge_structures(n)[first], weights[first])


def test_half_edge_beats_triangles_on_three_vertices():
    # mixed half states can top every triangle even at n=3: an edge may
    # serve as the outgoing half for both of its endpoints
    g = gen_digraphs(1, seed=0, sizes=(3,))[0]
    hec, hw = half_edge_cover(g)
    _, cw = max_weight_cycle_cover(g)
    assert hw == Fraction(77, 4) and cw == Fraction(37, 2)
    assert hw > cw
    for g in gen_digraphs(10, seed=43, sizes=(3,)):
        assert half_edge_cover(g)[1] >= max_weight_cycle_cover(g)[1]


def test_half_edge_beats_best_tour_strictly():
    # two heavy pairs pulling in conflicting orientations
    wd = {(u, v): F0 for u in range(4) for v in range(4) if u != v}
    wd[(0, 1)] = Fraction(4)
    wd[(3, 2)] = Fraction(4)
    wd[(1, 2)] = wd[(2, 1)] = Fraction(2)
    wd[(3, 0)] = wd[(0, 3)] = Fraction(2)
    g = CompleteDigraph(4, [wd[(u, v)] for u in range(4) for v in range(4) if v != u])
    _, hw = half_edge_cover(g)
    best_tour = max(
        HamiltonianCycle((0,) + p).weight(g) for p in permutations((1, 2, 3))
    )
    assert hw == 12 and best_tour == 8
    assert hw > best_tour


def test_half_edge_at_least_best_tour():
    for g in gen_digraphs(10, seed=47, sizes=(4, 5)):
        _, hw = half_edge_cover(g)
        best_tour = max(
            HamiltonianCycle((0,) + p).weight(g)
            for p in permutations(range(1, g.num_vertices))
        )
        assert hw >= best_tour


def test_half_edge_size_guard():
    with pytest.raises(
        SizeGuardError, match="^half-edge search is limited to 6 vertices$"
    ):
        half_edge_cover(uniform_digraph(7))
    with pytest.raises(
        SizeGuardError, match="^forced half-edge scan is limited to 5 vertices$"
    ):
        check_half_edge_social_cost(
            uniform_digraph(6), None, HamiltonianCycle(range(6))
        )


def test_half_edge_social_cost_uniform():
    g = uniform_digraph(5)
    cert = check_half_edge_social_cost(g, None, HamiltonianCycle((0, 2, 4, 1, 3)))
    assert cert.holds and cert.lhs == 0


def test_half_edge_social_cost_tour_optimal():
    # one dominant tour: forcing its own edges costs nothing
    n = 4
    tour = HamiltonianCycle((0, 1, 2, 3))
    weights = []
    for u in range(n):
        for v in range(n):
            if u != v:
                weights.append(Fraction(8) if tour.fraction(u, v) == 1 else F0)
    g = CompleteDigraph(n, weights)
    cert = check_half_edge_social_cost(g, truthful_edge_bids(g), tour)
    assert cert.holds and cert.lhs == 0


def test_half_edge_social_cost_random():
    rng = Random(53)
    for g in gen_digraphs(25, seed=59, sizes=(4, 5)):
        perm = list(range(1, g.num_vertices))
        rng.shuffle(perm)
        tour = HamiltonianCycle((0, *perm))
        cert = check_half_edge_social_cost(g, truthful_edge_bids(g), tour)
        assert cert.holds


# --------------------------------------------------------------- mechanism


def test_cycle_cover_smoothness():
    params = SmoothnessParams(Fraction(1, 2), 3, HALF_VALUE)
    for g in gen_digraphs(6, seed=61, sizes=(4,)):
        values = truthful_edge_bids(g)
        bid_grid = [scaled_profile(values, t) for t in theta_grid(2)]
        cert = check_smoothness(cycle_cover_rule(g), [values], bid_grid, params)
        assert cert.holds, cert.to_dict()


def test_fisher_rule_support_and_welfare():
    g = gen_digraphs(1, seed=67, sizes=(4,))[0]
    rule = fisher_rule(g)
    values = truthful_edge_bids(g)
    support = rule.support(values)
    assert sum((p for p, _ in support), F0) == 1
    relaxed, relaxed_weight = max_weight_cycle_cover(g, values)
    expected = sum((p * t.weight(g) for p, t in support), F0)
    assert expected >= relaxed_weight / 2
    assert rule.round_stage(relaxed, seed=5) == rule.round_stage(relaxed, seed=5)
    assert rule.solve(values) == (relaxed, relaxed_weight)


# --------------------------------------------------------------- generators


def test_gen_digraphs_deterministic():
    assert gen_digraphs(4, seed=71) == gen_digraphs(4, seed=71)
    for g in gen_digraphs(6, seed=73, sizes=(4, 6)):
        assert g.num_vertices in (4, 6)


def test_random_cover_has_no_fixed_points():
    rng = Random(79)
    for _ in range(25):
        cov = random_cover(5, rng)
        assert all(cov.succ[v] != v for v in range(5))
