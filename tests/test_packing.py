"""Packing LP relaxation, integral maximizer, social-cost bound, counterexamples."""

from fractions import Fraction
from random import Random

import pytest

from anarchy import mechanism
from anarchy.errors import PreconditionError, SizeGuardError, StructuralError
from anarchy.mechanism import (
    HALF_VALUE,
    SmoothnessParams,
    check_smoothness,
    run_pay_your_bid,
    scaled_bid_profiles,
    theta_grid,
    verify_pure_nash,
)
from anarchy.packing import (
    OptionValuation,
    PackingInstance,
    check_feasible,
    check_pip_social_cost,
    column_sparsity,
    gen_instances,
    gen_multiunit_counterexample,
    integral_rule,
    lp_rule,
    multiunit_instance,
    random_bids,
    random_feasible_point,
    residual_loss,
    residual_welfare,
    social_cost_suite,
    solve_packing_integral,
    solve_packing_lp,
    truthful_bids,
    uniform_option_bid,
)
from anarchy.rationals import F0, F1

from oracles import (
    best_integral_packing,
    lp_opt_by_vertex_enum,
    packing_dual_value,
    residual_loss_reference,
)

H = Fraction(1, 2)


def proposition_instance(m):
    return gen_multiunit_counterexample(m).instance


# ---------------------------------------------------------------- structure


def test_multiunit_structure():
    inst = multiunit_instance([[1, 2], [1, 1], [0, 3]], 2)
    assert inst.n == 3 and inst.K == 2 and inst.L == 1
    assert inst.rows[0][0] == (1, 2)
    assert inst.capacities == (2,)
    assert column_sparsity(inst) == 1


def test_column_sparsity_zero_matrix():
    inst = PackingInstance([[1], [2]], [[[0], [0]]], [1])
    assert column_sparsity(inst) == 0


def test_column_sparsity_counts_supports():
    rows = [[[1], [0]], [[1], [1]]]
    inst = PackingInstance([[1], [1]], rows, [1, 1])
    assert column_sparsity(inst) == 2


def test_instance_validation():
    with pytest.raises(StructuralError):
        PackingInstance([[1], [1, 2]], [[[0], [0]]], [1])  # ragged values
    with pytest.raises(StructuralError):
        PackingInstance([[-1]], [[[0]]], [1])
    with pytest.raises(StructuralError):
        PackingInstance([[1]], [[[-1]]], [1])
    with pytest.raises(StructuralError):
        PackingInstance([[1]], [[[1]]], [0])  # capacities strictly positive
    with pytest.raises(StructuralError):
        PackingInstance([[1]], [[[1]], [[1]]], [1])  # rows/capacities mismatch


def test_json_round_trip():
    inst = PackingInstance(
        [[Fraction(1, 3), 2]], [[[1, Fraction(5, 2)]], [[0, 1]]], [2, Fraction(7, 3)]
    )
    data = inst.to_dict()
    assert data["values"][0][0] == "1/3"
    assert data["c"] == ["2", "7/3"]
    again = PackingInstance.from_dict(data)
    assert again == inst


# ------------------------------------------------------------ LP relaxation


def test_lp_single_option():
    inst = PackingInstance([[5]], [[[1]]], [1])
    bids = (OptionValuation(0, [3]),)
    alloc, welfare = solve_packing_lp(inst, bids)
    assert welfare == 3
    assert alloc.x == ((1,),)


def test_lp_proposition_m4():
    inst = proposition_instance(4)
    bids = truthful_bids(inst)
    # pin the optimum by strong duality: unit price 1 per unit of capacity
    b = [list(v.amounts) for v in bids]
    A = [[list(p) for p in row] for row in inst.rows]
    primal = 4 * F1  # four small bidders, one unit each
    dual = packing_dual_value(b, A, inst.capacities, [F1], [F0] * 6)
    assert primal == dual == 4
    alloc, welfare = solve_packing_lp(inst, bids)
    assert welfare == 4
    # unique optimum: every small takes one unit, the bigs get nothing
    for i in range(4):
        assert alloc.x[i][0] == 1
    assert alloc.x[4] == alloc.x[5] == (0, 0, 0, 0)


def test_lp_matches_vertex_enumeration():
    rng = Random(23)
    for _ in range(30):
        n, K, L = rng.choice(((2, 2, 2), (3, 1, 2), (2, 1, 3)))
        inst = gen_instances("sparse-random", 1, rng.getrandbits(32), n=n, K=K, L=L, d=1)[0]
        bids = random_bids(inst, rng)
        objective = [bids[i].amounts[k] for i in range(n) for k in range(K)]
        rows = []
        rhs = []
        for l in range(L):
            rows.append([inst.rows[l][i][k] for i in range(n) for k in range(K)])
            rhs.append(inst.capacities[l])
        for i in range(n):
            row = [F0] * (n * K)
            for k in range(K):
                row[i * K + k] = F1
            rows.append(row)
            rhs.append(F1)
        expected = lp_opt_by_vertex_enum(objective, rows, rhs)
        _, welfare = solve_packing_lp(inst, bids)
        assert welfare == expected


def test_lp_payments_recompute():
    rng = Random(7)
    inst = gen_instances("gap", 1, 99, n=3, K=2, L=2)[0]
    bids = random_bids(inst, rng)
    run = run_pay_your_bid(lp_rule(inst), bids, truthful_bids(inst))
    for i in range(inst.n):
        manual = sum(
            (bids[i].amounts[k] * run.outcome.x[i][k] for k in range(inst.K)), F0
        )
        assert run.payments[i] == manual


# -------------------------------------------------------- integral optimum


def test_integral_zero_bids():
    inst = proposition_instance(4)
    bids = tuple(uniform_option_bid(inst, i, 0) for i in range(6))
    assert solve_packing_integral(inst, bids) == ((0,) * 6, 0)  # empty is lex-first


def test_integral_proposition_equilibrium():
    ce = gen_multiunit_counterexample(4)
    b = [list(v.amounts) for v in ce.bids]
    A = [[list(p) for p in row] for row in ce.instance.rows]
    choices, value = best_integral_packing(b, A, ce.instance.capacities)
    assert value == 2
    assert choices == (0, 0, 0, 0, 0, 4)  # the last big bidder takes all units
    assert solve_packing_integral(ce.instance, ce.bids) == (choices, 2)


def test_integral_truthful_m4():
    inst = proposition_instance(4)
    bids = truthful_bids(inst)
    b = [list(v.amounts) for v in bids]
    A = [[list(p) for p in row] for row in inst.rows]
    _, value = best_integral_packing(b, A, inst.capacities)
    assert value == 4
    _, welfare = solve_packing_integral(inst, bids)
    assert welfare == 4


def test_integral_dp_matches_exhaustive():
    rng, scaler = Random(31), Random(97)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        inst = gen_instances("multi-unit", 1, rng.getrandbits(32), n=n, m=m)[0]
        bids = random_bids(inst, rng)
        b = [list(v.amounts) for v in bids]
        # the fractional rescaling is one row too, so it is swept as well
        for inst in (inst, _rescaled(inst, scaler)):
            A = [[list(p) for p in row] for row in inst.rows]
            choices, value = best_integral_packing(b, A, inst.capacities)
            found, welfare = solve_packing_integral(inst, bids)
            assert (found, welfare) == (choices, value)
            # relaxation dominates the integral optimum
            _, lp_welfare = solve_packing_lp(inst, bids)
            assert lp_welfare >= welfare >= 0


def _rescaled(inst, rng):
    """The instance with every coefficient and capacity times a random
    positive fraction, so the rows are no longer integer."""
    def factor():
        return Fraction(rng.randint(1, 5), rng.choice((2, 3)))

    rows = [[[a * factor() for a in p] for p in row] for row in inst.rows]
    caps = [c * factor() for c in inst.capacities]
    return PackingInstance(inst.values, rows, caps)


def test_integral_exhaustive_matches_oracle():
    # gap and sparse-random instances with at least two rows, some with
    # fractional coefficients: none of them takes the single-row sweep.
    # Flat and 0/1 bids make ties between choice tuples common.
    rng = Random(53)
    for t in range(80):
        n, K, L = rng.randint(1, 5), rng.randint(1, 3), rng.randint(2, 3)
        if t % 2:
            dims = {"n": n, "K": K, "L": L, "d": rng.randint(1, L)}
            inst = gen_instances("sparse-random", 1, rng.getrandbits(32), **dims)[0]
        else:
            inst = gen_instances("gap", 1, rng.getrandbits(32), n=n, K=K, L=L)[0]
        if t % 3 == 0:
            inst = _rescaled(inst, rng)
        A = [[list(p) for p in row] for row in inst.rows]
        for bids in (
            random_bids(inst, rng),
            tuple(uniform_option_bid(inst, i, 1) for i in range(n)),
            tuple(
                OptionValuation(i, [rng.randint(0, 1) for _ in range(K)])
                for i in range(n)
            ),
        ):
            b = [list(v.amounts) for v in bids]
            choices, value = best_integral_packing(b, A, inst.capacities)
            assert solve_packing_integral(inst, bids) == (choices, value)
            # the choice tuple is the outcome the bids are scored on
            assert sum((v.value(choices) for v in bids), F0) == value


def test_integral_size_guard(monkeypatch):
    # n*K = 22 options on two rows: the search meets sum_{j<=5} C(11, j) 2^j
    # = 21 627 feasible tuples, and only SEARCH_LIMIT bounds it
    n, K = 11, 2
    values = [[1] * K for _ in range(n)]
    rows = [
        [[1] * K for _ in range(n)],
        [[1] * K for _ in range(n)],
    ]
    inst = PackingInstance(values, rows, [5, 5])
    bids = truthful_bids(inst)
    expected = ((0,) * 6 + (1,) * 5, 5)
    assert best_integral_packing(values, rows, [5, 5]) == expected
    assert solve_packing_integral(inst, bids) == expected
    monkeypatch.setattr(mechanism, "SEARCH_LIMIT", 21_626)
    with pytest.raises(SizeGuardError, match="more than 21626 feasible"):
        solve_packing_integral(inst, bids)
    monkeypatch.setattr(mechanism, "SEARCH_LIMIT", 21_627)
    assert solve_packing_integral(inst, bids) == expected


# -------------------------------------------------------- residual welfare


def test_residual_single_player():
    inst = PackingInstance([[5]], [[[1]]], [1])
    assert residual_welfare(inst, truthful_bids(inst), 0, [1]) == 0


def test_residual_zero_capacity():
    inst = proposition_instance(4)
    assert residual_welfare(inst, truthful_bids(inst), 0, [0]) == 0


def test_residual_proposition_value():
    # three smalls at one unit each plus a quarter of a big: 3 + 1/2
    inst = proposition_instance(4)
    bids = truthful_bids(inst)
    others = [0, 1, 2, 4, 5]
    b = [list(bids[i].amounts) for i in others]
    A = [[list(row[i]) for i in others] for row in inst.rows]
    dual = packing_dual_value(b, A, inst.capacities, [H], [H, H, H, F0, F0])
    assert dual == Fraction(7, 2)
    got = residual_welfare(inst, bids, 3, inst.capacities)
    assert got == Fraction(7, 2)


def test_residual_validation():
    inst = proposition_instance(4)
    bids = truthful_bids(inst)
    with pytest.raises(StructuralError):
        residual_welfare(inst, bids, 0, [-1])
    with pytest.raises(PreconditionError):
        residual_welfare(inst, bids, 0, [5])
    with pytest.raises(StructuralError):
        residual_welfare(inst, bids, 0, [1, 1])
    with pytest.raises(StructuralError):
        residual_welfare(inst, bids, 6, [4])


# ------------------------------------------------------- social-cost bound


def test_social_cost_zero_point():
    inst = proposition_instance(4)
    bids = truthful_bids(inst)
    xbar = tuple((F0,) * inst.K for _ in range(inst.n))
    cert = check_pip_social_cost(inst, bids, xbar)
    assert cert.holds and cert.lhs == 0
    assert cert.rhs == 2 * 4  # d = 1 here


def test_social_cost_d1_at_lp_optimum():
    rng = Random(41)
    for _ in range(40):
        inst = gen_instances("gap", 1, rng.getrandbits(32), n=3, K=2, L=2)[0]
        bids = random_bids(inst, rng)
        alloc, welfare = solve_packing_lp(inst, bids)
        cert = check_pip_social_cost(inst, bids, alloc)
        assert cert.holds, cert.to_dict()
        assert cert.detail["d"] == 1
        assert cert.rhs == 2 * welfare


def test_social_cost_d3():
    rng = Random(43)
    for _ in range(10):
        inst = gen_instances(
            "sparse-random", 1, rng.getrandbits(32), n=3, K=2, L=3, d=3
        )[0]
        bids = random_bids(inst, rng)
        cert = check_pip_social_cost(inst, bids, random_feasible_point(inst, rng))
        assert cert.holds
        assert cert.rhs == 4 * cert.detail["welfare"]


def test_social_cost_rejects_infeasible_point():
    inst = PackingInstance([[1]], [[[1]]], [1])
    with pytest.raises(PreconditionError):
        check_pip_social_cost(inst, truthful_bids(inst), ((Fraction(2),),))
    with pytest.raises(PreconditionError):
        check_pip_social_cost(inst, truthful_bids(inst), ((Fraction(-1),),))


def test_social_cost_suite():
    certs = social_cost_suite(12, seed=7)
    assert len(certs) == 12
    assert all(c.holds for c in certs)


def residual_cases(count, seed):
    """(instance, bids, xbar) on sparse-random instances, d = 1, 2, 3, in
    the three xbar modes of social_cost_suite: zero, the LP optimum at the
    bids, a random feasible point."""
    rng = Random(seed)
    cases = []
    for t in range(count):
        d = 1 + t % 3
        n, K, L = rng.randint(2, 4), rng.randint(1, 3), rng.randint(d, 4)
        inst = gen_instances(
            "sparse-random", 1, rng.getrandbits(32), n=n, K=K, L=L, d=d
        )[0]
        bids = random_bids(inst, rng)
        mode = t // 3 % 3
        if mode == 0:
            xbar = tuple((F0,) * K for _ in range(n))
        elif mode == 1:
            xbar = solve_packing_lp(inst, bids)[0].x
        else:
            xbar = random_feasible_point(inst, rng)
        cases.append((inst, bids, xbar))
    return cases


def fractional_cases(count, seed):
    """(instance, bids, xbar) with fractional coefficients and capacities, so
    each compiled row carries a scale and each residual capacity a
    denominator."""
    rng = Random(seed)
    cases = []
    for _ in range(count):
        n, K, L = rng.randint(2, 4), rng.randint(1, 2), rng.randint(1, 3)

        def q():
            return Fraction(rng.randint(0, 6), rng.choice((1, 2, 3, 4)))

        rows = [[[q() for _ in range(K)] for _ in range(n)] for _ in range(L)]
        caps = [Fraction(rng.randint(1, 9), rng.choice((1, 2, 3))) for _ in range(L)]
        inst = PackingInstance([[q() for _ in range(K)] for _ in range(n)], rows, caps)
        cases.append((inst, random_bids(inst, rng), random_feasible_point(inst, rng)))
    return cases


def test_residual_loss_matches_the_reference():
    cases = residual_cases(27, seed=61) + fractional_cases(12, seed=62)
    # player 0 holds only option 1, which consumes nothing: c - A xbar_0 is
    # c although xbar_0 is not zero; players 1 and 2 consume on both rows
    inst = PackingInstance(
        [[3, 2], [4, 1], [2, 5]],
        [[[1, 0], [2, 1], [1, 1]], [[2, 0], [1, 3], [2, 1]]],
        [3, 4],
    )
    xbar = ((F0, H), (Fraction(1, 4), F0), (F0, Fraction(1, 3)))
    check_feasible(inst, xbar)
    cases.append((inst, truthful_bids(inst), xbar))
    kinds = set()  # (the share consumes capacity, the share is nonzero)
    for inst, bids, xbar in cases:
        assert residual_loss(inst, bids, xbar) == residual_loss_reference(inst, bids, xbar)
        for i in range(inst.n):
            load = [sum(a * v for a, v in zip(row[i], xbar[i])) for row in inst.rows]
            kinds.add((any(load), any(xbar[i])))
    assert kinds == {(False, False), (False, True), (True, True)}


def test_social_cost_suite_rejects_sparsity_beyond_its_rows():
    for sparsities in ((5,), (1, 2, 5)):
        with pytest.raises(StructuralError, match="d must be at most 4"):
            social_cost_suite(3, seed=7, sparsities=sparsities)
    assert all(c.holds for c in social_cost_suite(3, seed=7, sparsities=(4,)))


def test_random_feasible_points_feasible():
    rng = Random(53)
    for _ in range(25):
        inst = gen_instances(
            "sparse-random", 1, rng.getrandbits(32), n=3, K=2, L=3, d=2
        )[0]
        check_feasible(inst, random_feasible_point(inst, rng))


# --------------------------------------------------------- counterexamples


def test_counterexample_ratios():
    assert gen_multiunit_counterexample(10).ratio == 5
    assert gen_multiunit_counterexample(2).ratio == 1
    with pytest.raises(StructuralError):
        gen_multiunit_counterexample(1)


def test_counterexample_welfare_split():
    for m in (2, 4, 7):
        ce = gen_multiunit_counterexample(m)
        assert ce.equilibrium_welfare == 2
        assert ce.optimum == m
        assert ce.instance.n == m + 2


def test_counterexample_bids_and_deviations_are_written_out():
    ce = gen_multiunit_counterexample(4)
    small = [OptionValuation(i, (F0,) * 4) for i in range(4)]
    big = [OptionValuation(i, (F0, F0, F0, Fraction(2))) for i in (4, 5)]
    assert ce.bids == tuple(small + big)
    assert hash(ce.bids) == hash(tuple(small + big))
    grid = [Fraction(j, 20) for j in range(21)]
    want = [
        [OptionValuation(i, (t,) * 4) for t in grid]
        + [OptionValuation(i, (Fraction(a),) * 4) for a in (0, 1, 2)]
        for i in range(4)
    ] + [
        [OptionValuation(i, (F0, F0, F0, 2 * t)) for t in grid]
        + [OptionValuation(i, (Fraction(a),) * 4) for a in (0, 1, 2)]
        for i in (4, 5)
    ]
    assert ce.deviations() == want


def test_counterexample_is_pure_nash_m4():
    ce = gen_multiunit_counterexample(4)
    cert = verify_pure_nash(ce.rule, ce.bids, ce.values, ce.deviations())
    assert cert.is_nash
    assert cert.max_regret == 0
    assert not cert.statistical


def test_lp_rule_beats_integral_gap():
    # the LP mechanism closes the m/2 gap at truthful bids
    ce = gen_multiunit_counterexample(6)
    run = run_pay_your_bid(lp_rule(ce.instance), ce.values, ce.values)
    assert run.welfare == 6


# ------------------------------------------------------------- smoothness


def test_lp_mechanism_smooth_d1():
    rng = Random(61)
    for _ in range(6):
        inst = gen_instances("gap", 1, rng.getrandbits(32), n=2, K=2, L=2)[0]
        values = truthful_bids(inst)
        bid_profiles = scaled_bid_profiles(values, theta_grid(2))
        cert = check_smoothness(
            lp_rule(inst),
            [values],
            bid_profiles,
            SmoothnessParams(H, 2, HALF_VALUE),
        )
        assert cert.holds, cert.to_dict()
        assert not cert.statistical


def test_integral_mechanism_violates_smoothness_m12():
    ce = gen_multiunit_counterexample(12)
    cert = check_smoothness(
        ce.rule, [ce.values], [ce.bids], SmoothnessParams(H, 2, HALF_VALUE)
    )
    assert not cert.holds
    assert cert.min_slack == -2  # deviations earn 0 against lhs bound 6 - 4


# -------------------------------------------------------------- generators


def test_gen_multiunit_shape():
    insts = gen_instances("multi-unit", 3, seed=5, n=3, m=2)
    assert len(insts) == 3
    for inst in insts:
        assert inst.rows[0][0] == (1, 2)
        assert inst.capacities == (2,)
        for p in inst.values:
            assert p[0] <= p[1]  # more units never worth less


def test_gen_gap_sparsity():
    for inst in gen_instances("gap", 4, seed=6, n=3, K=2, L=3):
        assert column_sparsity(inst) == 1
        for i in range(inst.n):
            for k in range(inst.K):
                support = [l for l in range(inst.L) if inst.rows[l][i][k] != 0]
                assert len(support) == 1


def test_gen_sparse_random():
    for inst in gen_instances("sparse-random", 4, seed=8, n=3, K=2, L=4, d=2):
        assert column_sparsity(inst) == 2


def test_gen_deterministic_and_validated():
    a = gen_instances("gap", 2, seed=11, n=2, K=2, L=2)
    b = gen_instances("gap", 2, seed=11, n=2, K=2, L=2)
    assert a == b
    with pytest.raises(StructuralError):
        gen_instances("mystery", 1, seed=0)
    with pytest.raises(StructuralError):
        gen_instances("sparse-random", 1, seed=0, n=2, K=2, L=2, d=3)
