"""Pay-your-bid mechanics, smoothness calculus, Nash verification."""

import pickle
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from random import Random

import pytest

from anarchy import auctions, dynamics, flows, maxtsp, mechanism, packing
from anarchy.auctions import SymmetricValuation, fair_rule, gen_symmetric_instances
from anarchy.errors import SizeGuardError, StructuralError
from anarchy.flows import gen_flow_instances, rt_rule, truthful_flow_bids
from anarchy.maxtsp import fisher_rule, gen_digraphs, truthful_edge_bids
from anarchy.mechanism import (
    EXACT_SUPPORT_LIMIT,
    GENERAL,
    HALF_VALUE,
    AllocationRule,
    RelaxationCache,
    SmoothnessParams,
    check_smoothness,
    compose_smoothness,
    expected_run,
    integral_argmax,
    poa_from_smoothness,
    product_support,
    relaxation,
    run_pay_your_bid,
    scaled_bid_profiles,
    theta_grid,
    verify_pure_nash,
)
from anarchy.rationals import F0, F1, frac
from anarchy.solvers import CapacitatedDigraph, solve_lp
from oracles import product_support_reference, smoothness_by_support

H = Fraction(1, 2)


@dataclass(frozen=True)
class ItemValuation:
    """Single-item domain: the outcome is the winning player's index."""

    player: int
    amount: Fraction
    domain: str = "single-item"

    def value(self, outcome):
        if outcome is None:
            return F0
        return self.amount if outcome == self.player else F0

    def scale(self, theta):
        return ItemValuation(self.player, frac(theta) * self.amount)

    def best_case(self):
        return self.amount


def first_price_rule():
    # highest bid wins, ties to the lowest index
    def solve(bids):
        best = max(b.amount for b in bids)
        for i, b in enumerate(bids):
            if b.amount == best:
                return i, best
        raise AssertionError

    return AllocationRule(domain="single-item", solve=solve)


def item_bids(*amounts):
    return tuple(ItemValuation(i, frac(a)) for i, a in enumerate(amounts))


def test_first_price_run():
    rule = first_price_rule()
    run = run_pay_your_bid(rule, item_bids(3, 1), item_bids(5, 1))
    assert run.outcome == 0
    assert run.payments == (3, 0)
    assert run.utilities == (2, 0)
    assert run.welfare == 5


def test_zero_bids_tiebreak_to_lowest_index():
    rule = first_price_rule()
    run = run_pay_your_bid(rule, item_bids(0, 0, 0), item_bids(4, 7, 1))
    assert run.outcome == 0
    assert run.payments == (0, 0, 0)
    assert run.welfare == 4


def test_domain_mismatch_rejected():
    rule = first_price_rule()
    bad = (ItemValuation(0, F1, domain="elsewhere"), ItemValuation(1, F1))
    with pytest.raises(StructuralError):
        run_pay_your_bid(rule, bad, item_bids(1, 1))


def test_player_binding_checked():
    rule = first_price_rule()
    swapped = (ItemValuation(1, F1), ItemValuation(0, F1))
    with pytest.raises(StructuralError):
        run_pay_your_bid(rule, swapped, item_bids(1, 1))


def test_poa_values():
    assert poa_from_smoothness(SmoothnessParams(1, 1)) == 1
    assert poa_from_smoothness(SmoothnessParams(Fraction(1, 4), 3)) == 12
    assert poa_from_smoothness(SmoothnessParams(Fraction(1, 16), 2)) == 32
    # mu below 1 clamps to 1
    assert poa_from_smoothness(SmoothnessParams(H, H)) == 2


def test_params_validation():
    with pytest.raises(StructuralError):
        SmoothnessParams(0, 1)
    with pytest.raises(StructuralError):
        SmoothnessParams(1, -1)
    with pytest.raises(StructuralError):
        SmoothnessParams(1, 1, deviation="sideways")


def test_compose_half_value():
    p = SmoothnessParams(H, 2, HALF_VALUE)
    q = compose_smoothness(p, 8)
    assert (q.lam, q.mu, q.deviation) == (Fraction(1, 16), 2, HALF_VALUE)
    assert poa_from_smoothness(q) == 32


def test_compose_identity_and_general():
    p = SmoothnessParams(H, 2, HALF_VALUE)
    q = compose_smoothness(p, 1)
    assert (q.lam, q.mu) == (p.lam, p.mu)
    g = compose_smoothness(SmoothnessParams(H, 2, GENERAL), 1)
    assert g.lam == Fraction(1, 4)  # general mode pays the factor-2 bridge
    assert g.deviation == HALF_VALUE


def test_compose_poa_12():
    q = compose_smoothness(SmoothnessParams(H, 3, HALF_VALUE), 2)
    assert (q.lam, q.mu) == (Fraction(1, 4), 3)
    assert poa_from_smoothness(q) == 12


def test_compose_rejects_alpha_below_one():
    with pytest.raises(StructuralError):
        compose_smoothness(SmoothnessParams(H, 2), Fraction(1, 2))


def test_compose_scaling_identity():
    rng = Random(5)
    for _ in range(50):
        lam = Fraction(rng.randint(1, 8), rng.randint(1, 8))
        mu = Fraction(rng.randint(1, 9))
        alpha = Fraction(rng.randint(1, 12))
        p = SmoothnessParams(lam, mu, HALF_VALUE)
        q = compose_smoothness(p, alpha)
        assert q.lam <= p.lam and q.mu == p.mu
        assert poa_from_smoothness(q) == alpha * poa_from_smoothness(p)


def test_expected_run_deterministic_rule():
    rule = first_price_rule()
    er = expected_run(rule, item_bids(2, 3), item_bids(2, 5))
    assert er.exact
    assert er.payments == (0, 3)
    assert er.welfare == 5


def coin_flip(point, seed):
    return Random(seed).randrange(2)


def split_item(bids):
    # the relaxed point shares the item equally between the two players
    return None, (bids[0].amount + bids[1].amount) / 2


def test_expected_run_exact_support():
    # coin flip between the two players, enumerated exactly
    rule = AllocationRule(
        domain="single-item",
        solve=split_item,
        round_stage=coin_flip,
        round_support=lambda point: [(H, 0), (H, 1)],
    )
    er = expected_run(rule, item_bids(4, 2), item_bids(4, 2))
    assert er.exact
    assert er.payments == (2, 1)
    assert er.welfare == 3


def test_expected_run_bad_support_probabilities():
    rule = AllocationRule(
        domain="single-item",
        solve=lambda bids: (None, bids[0].amount),
        round_stage=lambda point, seed: 0,
        round_support=lambda point: [(H, 0), (Fraction(1, 3), 1)],
    )
    with pytest.raises(StructuralError):
        expected_run(rule, item_bids(1), item_bids(1))


def test_expected_run_sampling_marked_statistical():
    rule = AllocationRule(domain="single-item", solve=split_item, round_stage=coin_flip)
    er = expected_run(rule, item_bids(1, 1), item_bids(1, 1), samples=400, seed=3)
    assert not er.exact
    assert abs(er.payments[0] - H) < Fraction(1, 5)


def test_smoothness_tiny_lambda_holds():
    rule = first_price_rule()
    values = [item_bids(5, 3), item_bids(1, 4)]
    bids = scaled_bid_profiles(values[0], theta_grid(2))
    bids += scaled_bid_profiles(values[1], theta_grid(2))
    cert = check_smoothness(
        rule, values, bids, SmoothnessParams(Fraction(1, 1000), 1, HALF_VALUE)
    )
    assert cert.holds and not cert.statistical
    assert cert.checked == len(values) * len(bids)


def test_smoothness_first_price_half_value():
    # single-item first price is (1/2, 1)-smooth for half-value deviations
    rule = first_price_rule()
    rng = Random(11)
    for _ in range(8):
        values = item_bids(*(Fraction(rng.randint(1, 10)) for _ in range(3)))
        bids = scaled_bid_profiles(values, theta_grid(2))
        cert = check_smoothness(rule, [values], bids, SmoothnessParams(H, 1, HALF_VALUE))
        assert cert.holds, cert.to_dict()


def test_smoothness_violation_reports_witness():
    # mu = 0 with lam = 1 fails: deviators cannot recover full OPT for free
    rule = first_price_rule()
    values = item_bids(4, 4)
    bids = [item_bids(4, 4)]
    cert = check_smoothness(rule, [values], bids, SmoothnessParams(1, 0, HALF_VALUE))
    assert not cert.holds
    assert cert.witness is not None and cert.min_slack < 0
    d = cert.to_dict()
    assert d["verdict"] == "violated"


def test_smoothness_empty_grid():
    rule = first_price_rule()
    with pytest.raises(StructuralError):
        check_smoothness(rule, [], [], SmoothnessParams(H, 1))


def test_general_mode_searches_grid():
    rule = first_price_rule()
    values = item_bids(6, 2)
    bids = scaled_bid_profiles(values, theta_grid(4))
    g = check_smoothness(rule, [values], bids, SmoothnessParams(H, 1, GENERAL))
    h = check_smoothness(rule, [values], bids, SmoothnessParams(H, 1, HALF_VALUE))
    assert g.holds
    assert g.min_slack >= h.min_slack  # searched deviations only help


def test_nash_single_player_zero_bid():
    rule = first_price_rule()
    bids = item_bids(0)
    values = item_bids(7)
    grid = [[values[0].scale(t) for t in theta_grid(4)]]
    cert = verify_pure_nash(rule, bids, values, grid)
    assert cert.is_nash and cert.max_regret == 0


def test_nash_truthful_not_equilibrium():
    rule = first_price_rule()
    values = item_bids(1, H)
    grid = [[v.scale(t) for t in theta_grid(4)] for v in values]
    cert = verify_pure_nash(rule, values, values, grid)
    assert not cert.is_nash
    assert cert.max_regret == H  # drop to the tie at 1/2 and keep winning
    assert cert.witness["player"] == 0


def test_nash_vacuous_and_monotone():
    rule = first_price_rule()
    values = item_bids(1, H)
    empty = verify_pure_nash(rule, values, values, [[], []])
    assert empty.is_nash
    small = [[v.scale(H)] for v in values]
    big = [[v.scale(t) for t in theta_grid(4)] for v in values]
    r_small = verify_pure_nash(rule, values, values, small)
    r_big = verify_pure_nash(rule, values, values, big)
    assert r_big.max_regret >= r_small.max_regret


def test_theta_grid_contents():
    g = theta_grid(4)
    assert g == (0, Fraction(1, 4), H, Fraction(3, 4), 1)
    with pytest.raises(StructuralError):
        theta_grid(0)


def test_product_support_matches_the_per_combination_reference():
    # prefix products keep itertools.product's order and its exact Fractions
    rng = Random(41)
    cases = [[], [[]], [[(F1, "a")], []]]
    for _ in range(30):
        draws = []
        for _ in range(rng.randrange(1, 5)):
            weights = [rng.randrange(1, 9) for _ in range(rng.randrange(1, 4))]
            draws.append(
                [(Fraction(w, sum(weights)), (len(draws), j)) for j, w in enumerate(weights)]
            )
        cases.append(draws)
    for options in cases:
        assert product_support(options) == product_support_reference(options)
    # more combinations than the limit are refused
    too_many = [[(F1, 0)] * 2] * (EXACT_SUPPORT_LIMIT.bit_length() + 1)
    with pytest.raises(SizeGuardError):
        product_support(too_many)


def test_product_support_keeps_the_weight_type():
    # Fractions stay Fractions, with no draws or zero draws too; int
    # weights stay ints
    fractions = [[(Fraction(1, 3), "a"), (F0, "b"), (Fraction(2, 3), "c")], [(F1, 0)]]
    for options in ([], [[]], fractions):
        support = product_support(options)
        assert all(type(p) is Fraction for p, _ in support)
        assert support == product_support_reference(options)
    assert product_support([]) == [(F1, ())]
    ints = [[(1, "a"), (0, "b"), (2, "c")], [(3, 0), (1, 1)]]
    support = product_support(ints)
    assert all(type(p) is int for p, _ in support)
    assert [p for p, _ in support] == [3, 1, 0, 0, 6, 2]


def test_integral_argmax_search_fallback(monkeypatch):
    # one edge of capacity 2: three light players (1/3) and three heavy ones
    # (1), so the optimum 5 routes the light ones and one heavy one of three
    edge = CapacitatedDigraph(2, [(0, 1, 2)])
    inst = flows.FlowInstance(edge, 0, [(1, Fraction(1, 3), 1)] * 3 + [(1, 1, 2)] * 3)
    bids = flows.truthful_flow_bids(inst)
    demands, caps = inst.integer_units
    options = [[[(0, d)]] for d in demands]
    weights = [[b.amount] for b in bids]
    twin = packing.PackingInstance(
        [[b.amount] for b in bids], [[[d] for d in demands]], caps
    )
    # below the integer capacity the answer comes from the search, which
    # alone is guarded
    monkeypatch.setattr(mechanism, "SWEEP_CAPACITY_LIMIT", caps[0] - 1)
    searched = integral_argmax(options, caps, weights)
    monkeypatch.setattr(mechanism, "SEARCH_LIMIT", 1)
    with pytest.raises(SizeGuardError, match="more than 1 feasible assignments"):
        integral_argmax(options, caps, weights)
    with pytest.raises(SizeGuardError):
        flows.solve_flow_integral(inst, bids)
    with pytest.raises(SizeGuardError):
        packing.solve_packing_integral(twin, packing.truthful_bids(twin))
    monkeypatch.setattr(mechanism, "SWEEP_CAPACITY_LIMIT", caps[0])
    swept = integral_argmax(options, caps, weights)
    assert swept == searched == ((1, 1, 1, 0, 0, 1), 5)  # ties: the lex-smallest tuple
    assert flows.solve_flow_integral(inst, bids)[0].paths == ((0,),) * 3 + (None, None, (0,))
    assert packing.solve_packing_integral(twin, packing.truthful_bids(twin))[1] == 5


def test_relaxation_layout():
    # player 0's options use resource 0, then resources 0 and 1; player 1
    # has none, so it has no column and no "at most one" row. Capacity 3/2
    # scales resource 0's row by 2 against rhs 3; the int 2 leaves row 1.
    program = relaxation(
        [[[(0, 2)], [(0, 1), (1, 3)]], []], [Fraction(3, 2), 2], [[H, 5], []]
    )
    assert program.objective == [H, 5]
    assert program.rows == [[4, 2, 3], [0, 3, 2], [1, 1, 1]]
    sol = solve_lp(program)
    # resource 1 holds x1 to 2/3 and player 0's row x0 to 1/3
    assert (sol.x, sol.value) == ((Fraction(1, 3), Fraction(2, 3)), Fraction(7, 2))


def _duopoly(demand):
    return flows.FlowInstance(CapacitatedDigraph(2, [(0, 1, 1)]), 0, [(1, demand, 1)])


# each valuation class and each Fraction-holding relaxed-point class twice,
# equal but built from differently written Fractions
EQUAL_VALUES = [
    pytest.param(
        lambda: packing.OptionValuation(1, (Fraction(2, 4), 3)),
        lambda: packing.OptionValuation(1, ["1/2", Fraction(6, 2)]),
        id="OptionValuation",
    ),
    pytest.param(
        lambda: flows.RouteValuation(0, Fraction(2, 4)),
        lambda: flows.RouteValuation(0, "1/2"),
        id="RouteValuation",
    ),
    pytest.param(
        lambda: flows.MatroidValuation(2, Fraction(2, 4)),
        lambda: flows.MatroidValuation(2, Fraction(1, 2)),
        id="MatroidValuation",
    ),
    pytest.param(
        lambda: maxtsp.EdgeValuation(3, 1, 0, Fraction(2, 4)),
        lambda: maxtsp.EdgeValuation(3, 1, 0, Fraction(1, 2)),
        id="EdgeValuation",
    ),
    pytest.param(
        lambda: auctions.MPHkValuation(0, 2, [{(0, 1): Fraction(2, 4), (2,): 1}]),
        lambda: auctions.MPHkValuation(0, 2, [[((2,), "1"), ({1, 0}, Fraction(1, 2))]]),
        id="MPHkValuation",
    ),
    pytest.param(
        lambda: SymmetricValuation(1, (0, 1, Fraction(3, 2))),
        lambda: SymmetricValuation(1, [Fraction(0), Fraction(2, 2), "3/2"]),
        id="SymmetricValuation",
    ),
    pytest.param(
        lambda: packing.PackingAllocation(((Fraction(2, 4), 1), (F0, Fraction(3, 6)))),
        lambda: packing.PackingAllocation(((H, F1), (0, Fraction(1, 2)))),
        id="PackingAllocation",
    ),
    pytest.param(
        lambda: flows.FractionalFlow(_duopoly(Fraction(4, 4)), ((H,),), (Fraction(2, 4),)),
        lambda: flows.FractionalFlow(_duopoly("1"), ((Fraction(3, 6),),), (H,)),
        id="FractionalFlow",
    ),
    pytest.param(
        lambda: auctions.CardinalityLPSolution(2, [[Fraction(2, 4), 0], [0, "1/2"]]),
        lambda: auctions.CardinalityLPSolution(2, [["1/2", F0], [F0, Fraction(3, 6)]]),
        id="CardinalityLPSolution",
    ),
    pytest.param(
        lambda: auctions.ConfigLPSolution(1, [[0, Fraction(2, 4)], [Fraction(1, 3), 0]]),
        lambda: auctions.ConfigLPSolution(1, [["0", "1/2"], [Fraction(2, 6), F0]]),
        id="ConfigLPSolution",
    ),
]


@pytest.mark.parametrize("make_a, make_b", EQUAL_VALUES)
def test_every_valuation_hashes_once_as_its_dataclass_hash(make_a, make_b, monkeypatch):
    a, b = make_a(), make_b()
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash(tuple(getattr(a, f.name) for f in fields(a)))
    for v in (make_a(), a):  # pickled before and after the hash is taken
        copy = pickle.loads(pickle.dumps(v))
        assert copy == a and hash(copy) == hash(a)
    calls = []
    fraction_hash = Fraction.__hash__

    def counting(self):
        calls.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    v = make_b()
    assert hash(v) == hash(a) and calls
    calls.clear()
    assert hash(v) == hash(a) and not calls


def test_scaled_bid_profiles_cover_product():
    values = item_bids(2, 3)
    profiles = scaled_bid_profiles(values, theta_grid(2))
    assert len(profiles) == 9
    assert all(p[0].player == 0 and p[1].player == 1 for p in profiles)


# ------------------------------------------------------------- derived OPT


def _packing_case(seed):
    inst = packing.gen_instances("sparse-random", 1, seed, n=3, K=2, L=2, d=1)[0]
    return (inst,), packing.truthful_bids(inst)


def _xos_case(seed):
    m, values = auctions.gen_xos_instances(1, seed, max_players=2, max_items=3)[0]
    return (len(values), m), values


def _symmetric_case(seed):
    m, values = gen_symmetric_instances(1, seed, max_players=3, max_items=3)[0]
    return (m,), values


def _digraph_case(seed):
    g = gen_digraphs(1, seed, sizes=(4,))[0]
    return (g,), truthful_edge_bids(g)


def _flow_case(seed):
    inst = gen_flow_instances(1, seed, max_vertices=6, max_players=3)[0]
    return (inst,), truthful_flow_bids(inst)


def _matroid_case(seed):
    rng = Random(seed)
    amounts = [rng.randint(0, 6) for _ in range(5)]
    bids = tuple(flows.MatroidValuation(i, a) for i, a in enumerate(amounts))
    return (flows.uniform_matroid(5, 2),), bids


def _single_item_case(seed):
    rng = Random(seed)
    bids = tuple(SymmetricValuation(i, (0, rng.randint(0, 4))) for i in range(3))
    return (3,), bids


DETERMINISTIC_RULES = [
    pytest.param(packing.lp_rule, _packing_case, id="lp_rule"),
    pytest.param(packing.integral_rule, _packing_case, id="integral_rule"),
    pytest.param(auctions.config_lp_rule, _xos_case, id="config_lp_rule"),
    pytest.param(
        auctions.cardinality_integral_rule,
        _symmetric_case,
        id="cardinality_integral_rule",
    ),
    pytest.param(maxtsp.cycle_cover_rule, _digraph_case, id="cycle_cover_rule"),
    pytest.param(flows.fractional_rule, _flow_case, id="fractional_rule"),
    pytest.param(flows.integral_flow_rule, _flow_case, id="integral_flow_rule"),
    pytest.param(flows.matroid_rule, _matroid_case, id="matroid_rule"),
    pytest.param(dynamics.first_price_rule, _single_item_case, id="first_price_rule"),
]

RELAX_AND_ROUND_RULES = [
    pytest.param(fair_rule, _symmetric_case, id="fair_rule"),
    pytest.param(fisher_rule, _digraph_case, id="fisher_rule"),
    pytest.param(lambda inst: rt_rule(inst, Fraction(1, 10)), _flow_case, id="rt_rule"),
]


@pytest.mark.parametrize("factory, case", DETERMINISTIC_RULES)
def test_opt_of_a_deterministic_rule_is_its_allocated_welfare(factory, case):
    for seed in range(4):
        args, values = case(seed)
        rule = factory(*args)
        outcome = rule.allocate(values)
        assert rule.solve(values)[1] == sum((v.value(outcome) for v in values), F0)
        assert rule.support(values) == [(F1, outcome)]


@pytest.mark.parametrize("factory, case", RELAX_AND_ROUND_RULES)
def test_opt_of_a_relax_and_round_rule_is_its_relaxed_welfare(factory, case):
    for seed in range(4):
        args, values = case(seed)
        point, opt = factory(*args).solve(values)
        assert opt == sum((v.value(point) for v in values), F0)


# ---------------------------------------------------------- relaxation cache


def _small_relax_and_round_cases():
    """(rule, value grid, bid grid) on seeded fair, rt and fisher instances."""
    cases = []
    for m, values in gen_symmetric_instances(6, 91, max_players=3, max_items=3):
        halves = tuple(v.scale(H) for v in values)
        bids = scaled_bid_profiles(values, theta_grid(2))
        cases.append((fair_rule(m), [values, halves], bids))
    for inst in gen_flow_instances(3, 92, max_vertices=6, max_players=3):
        values = truthful_flow_bids(inst)
        bids = scaled_bid_profiles(values, theta_grid(2))
        cases.append((rt_rule(inst, Fraction(1, 10)), [values], bids))
    rng = Random(93)
    for g in gen_digraphs(2, 93, sizes=(3,)):
        values = truthful_edge_bids(g)
        bids = [
            tuple(v.scale(rng.choice(theta_grid(2))) for v in values) for _ in range(5)
        ]
        cases.append((fisher_rule(g), [values], bids))
    return cases


def _counting_relax(rule):
    """The rule with solve wrapped to log every bid profile it relaxes."""
    relaxed = []
    inner = rule.solve

    def solve(bids):
        relaxed.append(tuple(bids))
        return inner(bids)

    return replace(rule, solve=solve), relaxed


@pytest.mark.parametrize("mode", [GENERAL, HALF_VALUE])
def test_check_smoothness_matches_uncached_reference(mode):
    violated = 0
    for rule, value_grid, bid_grid in _small_relax_and_round_cases():
        for lam, mu in ((Fraction(1, 32), 2), (F1, F0)):
            params = SmoothnessParams(lam, mu, mode)
            cert = check_smoothness(rule, value_grid, bid_grid, params)
            assert cert.to_dict() == smoothness_by_support(
                rule, value_grid, bid_grid, params.lam, params.mu, mode
            )
            violated += not cert.holds
    assert violated  # the witness path is compared too


def test_check_smoothness_relaxes_each_profile_once():
    for rule, value_grid, bid_grid in _small_relax_and_round_cases():
        counted, relaxed = _counting_relax(rule)
        check_smoothness(counted, value_grid, bid_grid, SmoothnessParams(H, 1, GENERAL))
        profiles = set()
        for values in value_grid:
            profiles.add(tuple(values))  # OPT is the solve at the values
            for bids in bid_grid:
                for i in range(len(bids)):
                    for dev in [values[i].scale(H)] + [p[i] for p in bid_grid]:
                        profiles.add(tuple(bids[:i]) + (dev,) + tuple(bids[i + 1 :]))
        assert len(relaxed) == len(set(relaxed))
        assert set(relaxed) == profiles


def test_verify_pure_nash_relaxes_each_profile_once():
    for rule, value_grid, bid_grid in _small_relax_and_round_cases():
        counted, relaxed = _counting_relax(rule)
        values, bids = value_grid[0], tuple(bid_grid[0])
        # every player's deviations repeat its own current bid
        grids = [[b, v, v.scale(H), b] for b, v in zip(bids, values)]
        cert = verify_pure_nash(counted, bids, values, grids)
        assert cert == verify_pure_nash(rule, bids, values, grids)
        profiles = {
            bids[:i] + (dev,) + bids[i + 1 :]
            for i, row in enumerate(grids)
            for dev in row
        }
        assert len(relaxed) == len(set(relaxed))
        assert set(relaxed) == profiles


def test_relaxation_cache_interns_equal_points_and_rounds_them_once():
    # the round never reads the bids: a profile and its double relax to
    # equal points, which the cache hands back as one object and enumerates
    # once
    rule = fair_rule(2)
    enumerated = []

    def counting(point):
        enumerated.append(point)
        return rule.round_support(point)

    cache = RelaxationCache(replace(rule, round_support=counting))
    bids = (SymmetricValuation(0, (0, 1, 1)), SymmetricValuation(1, (0, 1, 2)))
    doubled = tuple(b.scale(2) for b in bids)
    assert rule.solve(bids)[0] == rule.solve(doubled)[0]
    point, value = cache.solve(bids)
    assert cache.solve(doubled) == (point, 2 * value)
    assert cache.solve(doubled)[0] is point
    assert cache.support(bids) is cache.support(doubled)
    assert len(enumerated) == 1 and enumerated[0] is point
    assert len(cache.relaxed) == 2


def test_expected_run_samples_when_support_is_too_large():
    # 14 unit bidders: the fair-rounding support exceeds the enumeration limit
    m = 14
    values = tuple(SymmetricValuation(i, (0,) + (1,) * m) for i in range(m))
    counted, relaxed = _counting_relax(fair_rule(m))
    with pytest.raises(SizeGuardError):
        counted.support(values)
    relaxed.clear()
    first = expected_run(counted, values, values, samples=300, seed=4)
    assert first.exact is False
    assert len(relaxed) == 1  # the support attempt and the draws share it
    assert first == expected_run(counted, values, values, samples=300, seed=4)
    assert 0 < first.welfare <= m
