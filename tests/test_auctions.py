"""Combinatorial auction relaxations, rounding, and the symmetric gap."""

from fractions import Fraction as Fr
from itertools import product
from random import Random

import pytest

from anarchy.auctions import (
    CardinalityLPSolution,
    ConfigLPSolution,
    MPHkValuation,
    SymmetricValuation,
    additive_valuation,
    cardinality_integral_rule,
    check_ca_social_cost,
    config_instance,
    counterexample_symmetric_deviations,
    eval_mph,
    fair_round,
    fair_round_support,
    fair_rule,
    flat_symmetric_bid,
    gen_mph_instances,
    gen_symmetric_counterexample,
    gen_symmetric_instances,
    gen_xos_instances,
    item_subsets,
    solve_cardinality_integral,
    solve_cardinality_lp,
    solve_config_lp,
    translate_to_cardinality,
    translate_to_config,
)
from anarchy.errors import PreconditionError, SizeGuardError, StructuralError
from anarchy.mechanism import (
    HALF_VALUE,
    RelaxationCache,
    SmoothnessParams,
    compose_smoothness,
    poa_from_smoothness,
    verify_pure_nash,
)
from anarchy.packing import residual_welfare

from oracles import (
    fair_round_reference,
    fair_round_support_reference,
    lp_opt_by_vertex_enum,
)


def brute_force_assignment(m, values):
    """Best welfare over all item-to-player (or unassigned) maps."""
    n = len(values)
    best = Fr(0)
    for owners in product(range(n + 1), repeat=m):
        sets = [frozenset(j for j in range(m) if owners[j] == i) for i in range(n)]
        total = sum(v.value(tuple(sets)) for v in values)
        if total > best:
            best = total
    return best


def brute_force_cardinality(m, bids):
    """Best welfare over integral size vectors with total at most m."""
    best = Fr(0)
    for sizes in product(range(m + 1), repeat=len(bids)):
        if sum(sizes) > m:
            continue
        total = sum(b.levels[s] for b, s in zip(bids, sizes))
        if total > best:
            best = total
    return best


def config_lp_by_vertex_enum(n, m, bids, players=None, caps=None):
    """Configuration LP optimum over the listed players (default all) with
    the given item supplies (default one of each), by vertex enumeration."""
    players = list(range(n)) if players is None else players
    caps = [Fr(1)] * m if caps is None else caps
    subs = item_subsets(m)
    objective = []
    for i in players:
        for S in subs:
            objective.append(eval_mph(bids[i], S))
    rows, rhs = [], []
    for j in range(m):
        rows.append(
            [
                Fr(1) if j in subs[s] else Fr(0)
                for i in players
                for s in range(len(subs))
            ]
        )
        rhs.append(caps[j])
    for i in players:
        rows.append(
            [
                Fr(1) if p == i else Fr(0)
                for p in players
                for _ in range(len(subs))
            ]
        )
        rhs.append(Fr(1))
    return lp_opt_by_vertex_enum(objective, rows, rhs)


def rng_xos(rng, player, m):
    clauses = []
    for _ in range(rng.randint(1, 3)):
        clauses.append(
            [(frozenset({j}), Fr(rng.randint(0, 6))) for j in range(m)]
        )
    return MPHkValuation(player, 1, clauses)


# -------------------------------------------------------------- valuations


def test_mph_validation():
    with pytest.raises(StructuralError):
        MPHkValuation(0, 0, [])
    with pytest.raises(StructuralError):
        MPHkValuation(0, 1, [[(frozenset({0, 1}), 3)]])
    with pytest.raises(StructuralError):
        MPHkValuation(0, 2, [[(frozenset({0}), -1)]])


def test_eval_mph_hand_case():
    v = MPHkValuation(
        0,
        2,
        [
            [(frozenset({0, 1}), 4), (frozenset({2}), 1)],
            [(frozenset({0}), 3)],
        ],
    )
    assert eval_mph(v, set()) == 0
    assert eval_mph(v, {0}) == 3
    assert eval_mph(v, {0, 1}) == 4
    assert eval_mph(v, {0, 2}) == 3
    assert eval_mph(v, {0, 1, 2}) == 5
    assert MPHkValuation(0, 1, []).value((frozenset({0}),)) == 0


def test_eval_mph_monotone():
    rng = Random(7)
    for _ in range(40):
        m = rng.randint(1, 5)
        k = rng.randint(1, 3)
        clauses = []
        for _ in range(rng.randint(1, 3)):
            clause = []
            for _ in range(rng.randint(0, 4)):
                size = rng.randint(1, k)
                clause.append(
                    (frozenset(rng.sample(range(m), min(size, m))), Fr(rng.randint(0, 9)))
                )
            clauses.append(clause)
        v = MPHkValuation(0, k, clauses)
        small = frozenset(j for j in range(m) if rng.randrange(2))
        grown = small | frozenset(j for j in range(m) if rng.randrange(2))
        assert eval_mph(v, small) <= eval_mph(v, grown)
        assert eval_mph(v, frozenset(range(m))) <= v.best_case()


def test_mph_json_round_trip():
    v = MPHkValuation(
        2, 2, [[(frozenset({0, 1}), Fr(5, 2))], [(frozenset({1}), 3)]]
    )
    again = MPHkValuation.from_dict(2, v.to_dict())
    assert again == v
    assert again.value((set(), set(), {0, 1})) == 3
    assert again.value((set(), set(), {0})) == Fr(5, 2) * 0


def test_mph_scale():
    v = additive_valuation(0, (2, 4))
    w = v.scale(Fr(1, 2))
    assert eval_mph(w, {0, 1}) == 3
    assert w.best_case() == 3


# ------------------------------------------------------- configuration LP


def test_config_lp_single_additive_takes_everything():
    b = additive_valuation(0, (2, 5, 1))
    x, value = solve_config_lp(1, 3, (b,))
    assert value == 8
    assert x.x[0][-1] == 1
    assert sum(x.x[0][:-1]) == 0


def test_config_lp_two_additive_split():
    b0 = additive_valuation(0, (3, 1))
    b1 = additive_valuation(1, (1, 3))
    x, value = solve_config_lp(2, 2, (b0, b1))
    assert value == 6
    assert brute_force_assignment(2, (b0, b1)) == 6
    subs = item_subsets(2)
    assert x.x[0][subs.index(frozenset({0}))] == 1
    assert x.x[1][subs.index(frozenset({1}))] == 1


def test_config_lp_matches_vertex_enumeration():
    rng = Random(11)
    for _ in range(12):
        n = rng.randint(1, 2)
        m = rng.randint(1, 2)
        bids = tuple(rng_xos(rng, i, m) for i in range(n))
        _, value = solve_config_lp(n, m, bids)
        assert value == config_lp_by_vertex_enum(n, m, bids)


def test_config_lp_bounds_integral():
    for m, values in gen_xos_instances(25, 3) + gen_mph_instances(15, 4):
        _, value = solve_config_lp(len(values), m, values)
        assert value >= brute_force_assignment(m, values)


def test_config_lp_capacity_and_active_restrictions():
    # residual programs of the configuration LP: player 0 removed, supplies cut
    b0 = additive_valuation(0, (3, 1))
    b1 = additive_valuation(1, (1, 3))
    inst, option_bids = config_instance(2, (b0, b1))
    assert residual_welfare(inst, option_bids, 0, inst.capacities) == 4
    assert residual_welfare(inst, option_bids, 0, (Fr(1, 2), 1)) == Fr(7, 2)
    assert residual_welfare(inst, option_bids, 0, (0, 0)) == 0


def test_config_lp_validation():
    b = additive_valuation(0, (1,))
    with pytest.raises(StructuralError):
        solve_config_lp(2, 1, (b,))
    with pytest.raises(StructuralError):
        solve_config_lp(1, 1, (additive_valuation(1, (1,)),))
    with pytest.raises(SizeGuardError):
        item_subsets(11)


def test_config_solution_validation():
    with pytest.raises(StructuralError):
        ConfigLPSolution(1, ((0, 1), (0, 1)))  # item 0 allocated twice
    with pytest.raises(StructuralError):
        ConfigLPSolution(1, ((Fr(1, 2), Fr(3, 4)),))  # player mass over 1
    x = ConfigLPSolution(2, ((0, Fr(1, 2), 0, Fr(1, 4)),))
    assert x.item_load(0) == Fr(3, 4)
    assert x.item_load(1) == Fr(1, 4)


# ----------------------------------------------------- one-out social cost


def test_ca_social_cost_hand_case():
    b0 = additive_valuation(0, (3, 1))
    b1 = additive_valuation(1, (1, 3))
    x, _ = solve_config_lp(2, 2, (b0, b1))
    cert = check_ca_social_cost((b0, b1), x, 1)
    assert cert.holds
    assert cert.lhs == 2
    assert cert.rhs == 12
    assert cert.detail["welfare"] == 6


def test_ca_social_cost_xos_instances():
    for m, values in gen_xos_instances(30, 17):
        x, _ = solve_config_lp(len(values), m, values)
        cert = check_ca_social_cost(values, x, 1)
        assert cert.holds


def test_ca_social_cost_level_two():
    for m, values in gen_mph_instances(15, 19):
        x, _ = solve_config_lp(len(values), m, values)
        cert = check_ca_social_cost(values, x, 2)
        assert cert.holds


def test_ca_social_cost_foreign_solution():
    # the bound holds for any feasible x, not just the bids' own optimum
    rng = Random(23)
    for m, values in gen_xos_instances(20, 29):
        n = len(values)
        bids = tuple(
            v.scale(Fr(rng.randint(0, 4), 4)) for v in values
        )
        x, _ = solve_config_lp(n, m, values)
        cert = check_ca_social_cost(bids, x, 1)
        assert cert.holds


def test_ca_social_cost_matches_vertex_enumeration():
    # lhs and rhs rebuilt from enumerated residual configuration programs, at
    # points solved for a second random profile
    rng = Random(41)
    for _ in range(10):
        n = rng.randint(1, 2)
        m = rng.randint(1, 2)
        bids = tuple(rng_xos(rng, i, m) for i in range(n))
        x, _ = solve_config_lp(n, m, tuple(rng_xos(rng, i, m) for i in range(n)))
        k = rng.randint(1, 2)
        cert = check_ca_social_cost(bids, x, k)
        subs = item_subsets(m)
        lhs = Fr(0)
        for i in range(n):
            others = [p for p in range(n) if p != i]
            left = [
                1 - sum(v for v, S in zip(x.x[i], subs) if j in S) for j in range(m)
            ]
            lhs += config_lp_by_vertex_enum(n, m, bids, others)
            lhs -= config_lp_by_vertex_enum(n, m, bids, others, left)
        assert cert.lhs == lhs
        assert cert.rhs == (k + 1) * config_lp_by_vertex_enum(n, m, bids)


def test_ca_social_cost_shape_mismatch():
    b = additive_valuation(0, (1, 1))
    x = ConfigLPSolution(2, ((0, 0, 0, 0),))
    with pytest.raises(StructuralError):
        check_ca_social_cost((b, additive_valuation(1, (1, 1))), x, 1)


# ----------------------------------------------------------- symmetric case


def test_symmetric_validation():
    with pytest.raises(StructuralError):
        SymmetricValuation(0, (1, 2))
    with pytest.raises(StructuralError):
        SymmetricValuation(0, (0, -1))
    v = SymmetricValuation(0, (0, 1, 3))
    assert v.m == 2
    assert v.best_case() == 3


def test_symmetric_value_dispatch():
    v = SymmetricValuation(1, (0, 2, 5))
    assert v.value((0, 2)) == 5
    assert v.value(None) == 0
    xbar = CardinalityLPSolution(2, ((0, 0), (Fr(1, 2), Fr(1, 4))))
    assert v.value(xbar) == Fr(1) * 1 + Fr(5, 4)
    cfg = translate_to_config(xbar, (SymmetricValuation(0, (0, 0, 0)), v))
    assert v.value(cfg) == v.value(xbar)


def test_cardinality_lp_equals_config_lp_for_symmetric_bids():
    for m, values in gen_symmetric_instances(20, 31, max_players=3, max_items=4):
        _, by_sets = solve_config_lp(len(values), m, values)
        _, by_sizes = solve_cardinality_lp(m, values)
        assert by_sets == by_sizes


def test_cardinality_integral_matches_enumeration():
    for m, values in gen_symmetric_instances(25, 37):
        sizes, value = solve_cardinality_integral(m, values)
        assert sum(sizes) <= m
        assert value == sum(b.levels[s] for b, s in zip(values, sizes))
        assert value == brute_force_cardinality(m, values)


def test_translation_round_trip_preserves_everything():
    for m, values in gen_symmetric_instances(15, 41, max_players=3, max_items=4):
        xbar, value = solve_cardinality_lp(m, values)
        cfg = translate_to_config(xbar, values)
        assert cfg.welfare(values) == value
        back = translate_to_cardinality(cfg, values)
        assert back == xbar


def test_translation_spreads_uniformly():
    xbar = CardinalityLPSolution(3, ((0, Fr(3, 4), 0),))
    values = (SymmetricValuation(0, (0, 1, 2, 3)),)
    cfg = translate_to_config(xbar, values)
    subs = item_subsets(3)
    for s, S in enumerate(subs):
        expect = Fr(3, 4) / 3 if len(S) == 2 else Fr(0)
        assert cfg.x[0][s] == expect


def test_translation_requires_symmetric_bids():
    xbar = CardinalityLPSolution(2, ((1, 0),))
    with pytest.raises(PreconditionError):
        translate_to_config(xbar, (additive_valuation(0, (1, 2)),))
    cfg = ConfigLPSolution(2, ((0, 1, 0, 0),))
    with pytest.raises(PreconditionError):
        translate_to_cardinality(cfg, (additive_valuation(0, (1, 2)),))


# ------------------------------------------------------------ fair rounding


def test_fair_round_single_all_or_nothing():
    xbar = CardinalityLPSolution(4, ((0, 0, 0, 1),))
    support = fair_round_support(xbar, 4)
    assert support == [(Fr(7, 8), (0,)), (Fr(1, 8), (4,))]
    outcomes = {fair_round(xbar, 4, s) for s in range(200)}
    assert outcomes == {(0,), (4,)}


def test_fair_round_two_bidder_exact_distribution():
    xbar = CardinalityLPSolution(4, ((1, 0, 0, 0), (0, 0, 1, 0)))
    support = {r: p for p, r in fair_round_support(xbar, 4)}
    assert support == {
        (0, 0): Fr(3, 4),
        (1, 0): Fr(1, 8),
        (0, 3): Fr(1, 8),
    }


def test_fair_round_alteration_event():
    # three players each asking for the whole pair of items a third of the
    # time: simultaneous draws overshoot and zero everyone out
    xbar = CardinalityLPSolution(2, ((0, Fr(1, 3)),) * 3)
    support = {r: p for p, r in fair_round_support(xbar, 2)}
    assert sum(support.values()) == 1
    assert support[(0, 0, 0)] == Fr(1031, 1152)
    assert support[(2, 0, 0)] == Fr(121, 3456)
    marginal = sum(p for r, p in support.items() if r[0] == 2)
    assert marginal == Fr(121, 3456)
    assert marginal >= Fr(1, 3) / 16


def test_fair_round_marginal_bound_and_supply():
    for m, values in gen_symmetric_instances(20, 43, max_players=3, max_items=4):
        xbar, _ = solve_cardinality_lp(m, values)
        support = fair_round_support(xbar, m)
        assert sum(p for p, _ in support) == 1
        for _, r in support:
            assert sum(r) <= m
        for i in range(len(values)):
            for j in range(1, m + 1):
                marginal = sum(p for p, r in support if r[i] == j)
                assert marginal >= xbar.x[i][j - 1] / 16


def test_fair_round_draws_match_support():
    xbar = CardinalityLPSolution(3, ((Fr(1, 2), 0, Fr(1, 4)), (0, Fr(1, 3), 0)))
    members = {r for _, r in fair_round_support(xbar, 3)}
    for seed in range(300):
        assert fair_round(xbar, 3, seed) in members


def test_fair_round_reads_only_the_fractional_point():
    a = CardinalityLPSolution(4, ((0, Fr(1, 2), 0, Fr(1, 4)),))
    b = CardinalityLPSolution(4, ((0, Fr(2, 4), 0, Fr(2, 8)),))
    for seed in range(50):
        assert fair_round(a, 4, seed) == fair_round(b, 4, seed)


def test_fair_round_validation_and_guard():
    xbar = CardinalityLPSolution(2, ((0, 1),))
    with pytest.raises(StructuralError):
        fair_round(xbar, 3, 0)
    wide = CardinalityLPSolution(
        10, tuple((Fr(1, 100),) * 10 for _ in range(6))
    )
    with pytest.raises(SizeGuardError):
        fair_round_support(wide, 10)


def compiled_draw_points():
    """(xbar, m): seeded LP points, a wide market, and an all-zero point."""
    for m, values in gen_symmetric_instances(40, seed=71, max_players=3):
        yield solve_cardinality_lp(m, values)[0], m
    yield CardinalityLPSolution(10, [[0, Fr(1, 2)] + [0] * 8 for _ in range(5)]), 10
    yield CardinalityLPSolution(3, ((0, 0, 0), (0, 0, 0))), 3


def test_compiled_fair_round_matches_the_per_call_reference():
    for xbar, m in compiled_draw_points():
        for seed in range(200):
            assert fair_round(xbar, m, seed) == fair_round_reference(xbar, m, seed)
        reference = fair_round_support_reference(xbar, m)
        assert fair_round_support(xbar, m) == [(p, r) for r, p in reference]


def test_equal_symmetric_bids_hash_alike_and_share_cache_entries():
    a = SymmetricValuation(1, (0, 1, Fr(3, 2)))
    b = SymmetricValuation(1, [Fr(0), Fr(2, 2), "3/2"])
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != SymmetricValuation(0, (0, 1, Fr(3, 2)))
    cache = RelaxationCache(fair_rule(2))
    other = SymmetricValuation(0, (0, 1, 1))
    first = cache.outcome((other, a), 5)
    assert cache.outcome((other, b), 5) == first
    assert len(cache.relaxed) == 1


def test_fair_rule_stages():
    m = 3
    values = tuple(SymmetricValuation(i, (0, 1, Fr(3, 2), 2)) for i in range(2))
    rule = fair_rule(m)
    relaxed = rule.relax(values)
    for seed in (0, 1, 7):
        assert rule.round_stage(relaxed, seed) == rule.allocate(values, seed)
    support = rule.support(values)
    assert sum(p for p, _ in support) == 1
    expected = sum(
        (p * sum(v.value(r) for v in values) for p, r in support), Fr(0)
    )
    assert expected >= rule.opt_welfare(values) / 16


# ---------------------------------------------------------- the welfare gap


def test_counterexample_ratio_grows_with_market():
    for m in (2, 4, 10):
        ce = gen_symmetric_counterexample(m)
        assert ce.optimum == m
        assert ce.equilibrium_welfare == 2
        assert ce.ratio == Fr(m, 2)
    with pytest.raises(StructuralError):
        gen_symmetric_counterexample(1)


def test_counterexample_equilibrium_outcome():
    ce = gen_symmetric_counterexample(5)
    outcome = ce.rule.allocate(ce.bids, None)
    assert outcome == (0, 0, 0, 0, 0, 0, 5)
    assert brute_force_cardinality(5, ce.values) == 5


def test_counterexample_is_pure_nash():
    ce = gen_symmetric_counterexample(4)
    grids = counterexample_symmetric_deviations(ce)
    cert = verify_pure_nash(ce.rule, ce.bids, ce.values, grids)
    assert cert.is_nash
    assert cert.max_regret == 0


def test_flat_bid_helper():
    b = flat_symmetric_bid(3, 1, Fr(5, 2))
    assert b.levels == (0, Fr(5, 2), Fr(5, 2), Fr(5, 2))


# ------------------------------------------------------------- composition


def test_fair_rounding_composition_constant():
    base = SmoothnessParams(Fr(1, 2), 2, HALF_VALUE)
    composed = compose_smoothness(base, 16)
    assert composed.deviation == HALF_VALUE
    assert composed.lam == Fr(1, 32)
    assert poa_from_smoothness(composed) == 64


def test_integral_rule_has_no_rounding_loss():
    m = 4
    values = tuple(SymmetricValuation(i, (0, 2, 3, 3, 3)) for i in range(3))
    rule = cardinality_integral_rule(m)
    outcome = rule.allocate(values, None)
    welfare = sum(v.value(outcome) for v in values)
    assert welfare == brute_force_cardinality(m, values)


# --------------------------------------------------------------- generators


def test_generators_are_deterministic():
    assert gen_xos_instances(5, 9) == gen_xos_instances(5, 9)
    assert gen_mph_instances(5, 9) == gen_mph_instances(5, 9)
    assert gen_symmetric_instances(5, 9) == gen_symmetric_instances(5, 9)
    a = gen_symmetric_instances(5, 9)
    b = gen_symmetric_instances(5, 10)
    assert a != b
