"""Multiplicative-weights play, regret accounting, empirical welfare ratios."""

import json
from dataclasses import replace
from fractions import Fraction as Fr
from functools import cache
from math import log, sqrt
from random import Random

import pytest

from anarchy import flows, maxtsp, packing
from anarchy.auctions import (
    CARDINALITY_LP_SMOOTHNESS,
    FAIR_ALPHA,
    SymmetricValuation,
    cardinality_integral_rule,
    fair_rule,
    gen_symmetric_counterexample,
    solve_cardinality_lp,
)
from anarchy.dynamics import (
    EmpiricalPoAReport,
    PlayTrace,
    RoundRecord,
    StrategyGrid,
    biased_weights,
    check_trace_smoothness,
    default_eta,
    empirical_poa,
    external_regret,
    first_price_rule,
    half_value_regret,
    hedge_regret_bound,
    run_hedge,
)
from anarchy.errors import PreconditionError, StructuralError
from anarchy.mechanism import (
    HALF_VALUE,
    SmoothnessParams,
    Valuation,
    compose_smoothness,
)
from anarchy.solvers import CapacitatedDigraph
from oracles import replay_cumulative, run_hedge_reference


def single_item_values(*amounts):
    return tuple(SymmetricValuation(i, (0, a)) for i, a in enumerate(amounts))


def manual_trace(grid, rule, values, rounds_data):
    """Build a trace by hand; cumulative counters recomputed per definition."""
    records = []
    for theta, seed, welfare, utilities in rounds_data:
        records.append(RoundRecord(theta, seed, Fr(welfare), tuple(utilities)))
    trace = PlayTrace(
        grid=grid,
        eta=0.1,
        seed=0,
        rounds=tuple(records),
        cumulative=(),
        rule_name=rule.name,
    )
    return replace(trace, cumulative=replay_cumulative(rule, values, trace))


# ------------------------------------------------------------------- grids


def test_grid_validation():
    with pytest.raises(StructuralError):
        StrategyGrid(((0, 1),))  # no 1/2
    with pytest.raises(StructuralError):
        StrategyGrid(((Fr(1, 2), 1),))  # no 0
    with pytest.raises(StructuralError):
        StrategyGrid(((0, Fr(1, 2), 2),))  # above 1
    with pytest.raises(StructuralError):
        StrategyGrid.uniform(2, 3)
    for resolution in (0, -2):
        with pytest.raises(StructuralError, match="grid resolution must be positive"):
            StrategyGrid.uniform(2, resolution)
    g = StrategyGrid.uniform(2, 4)
    assert g.thetas[0] == (0, Fr(1, 4), Fr(1, 2), Fr(3, 4), 1)
    assert g.half_index(1) == 2


def test_default_eta_formula():
    g = StrategyGrid.uniform(3, 2)
    assert default_eta(g, 400) == 0.5 * sqrt(log(3) / 400)


# ------------------------------------------------------------- first price


def test_first_price_rule_always_sells():
    rule = first_price_rule(3)
    bids = single_item_values(0, 0, 0)
    assert rule.allocate(bids, None) == (1, 0, 0)
    bids = single_item_values(1, 2, 2)
    assert rule.allocate(bids, None) == (0, 1, 0)


# ------------------------------------------------------------------- hedge


def test_lone_bidder_wins_free_and_converges():
    values = single_item_values(1)
    grid = StrategyGrid(((0, Fr(1, 2), 1),))
    trace = run_hedge(first_price_rule(1), values, grid, 600, seed=3)
    assert all(r.welfare == 1 for r in trace.rounds)
    late = [r.theta[0] for r in trace.rounds[-80:]]
    assert late.count(Fr(0)) >= 75
    report = empirical_poa(trace, 1)
    assert report.ratio == 1


def test_duopoly_regret_below_stated_budget():
    values = single_item_values(1, Fr(1, 2))
    grid = StrategyGrid.uniform(2, 2)
    trace = run_hedge(first_price_rule(2), values, grid, 10_000, seed=0)
    for r in external_regret(trace):
        assert r <= Fr(1, 20)


def test_regret_bound_in_the_provable_regime():
    # eta = sqrt(ln N / T) keeps the classical ceiling valid with slack
    values = single_item_values(1, Fr(1, 2))
    grid = StrategyGrid.uniform(2, 2)
    T = 3000
    eta = sqrt(log(3) / T)
    for seed in range(6):
        trace = run_hedge(first_price_rule(2), values, grid, T, eta=eta, seed=seed)
        for r, b in zip(external_regret(trace), hedge_regret_bound(trace, values)):
            assert r <= b
    lone = single_item_values(1)
    gl = StrategyGrid(((0, Fr(1, 2), 1),))
    for seed in range(6):
        trace = run_hedge(first_price_rule(1), lone, gl, 1500, eta=sqrt(log(3) / 1500), seed=seed)
        assert external_regret(trace)[0] <= hedge_regret_bound(trace, lone)[0]


def test_cumulative_counters_match_recomputation():
    values = single_item_values(1, Fr(3, 4))
    grid = StrategyGrid.uniform(2, 2)
    rule = first_price_rule(2)
    trace = run_hedge(rule, values, grid, 120, seed=8)
    scaled = [[values[i].scale(t) for t in grid.thetas[i]] for i in range(2)]
    for i in range(2):
        for s in range(len(grid.thetas[i])):
            total = Fr(0)
            for rec in trace.rounds:
                bids = [
                    scaled[p][grid.thetas[p].index(rec.theta[p])] for p in range(2)
                ]
                bids[i] = scaled[i][s]
                out = rule.allocate(tuple(bids), rec.seed)
                total += values[i].value(out) - bids[i].value(out)
            assert trace.cumulative[i][s] == total


def test_hedge_trace_matches_the_per_round_reference():
    # the utility memo must leave every pick, seed, utility and total as the
    # per-round Fraction loop had them: on fair rounding at the test_12
    # values, from starts far above the rescaling range, and at a learning
    # rate near the overflow cap, where weights are rescaled most rounds
    fair_values = tuple(
        SymmetricValuation(i, levels)
        for i, levels in enumerate(
            ((0, 1, 1, 1, 1), (0, 1, 1, 1, 1), (0, 1, 2, 2, 2), (0, 0, 0, 0, 3))
        )
    )
    fair = (fair_rule(4), fair_values, StrategyGrid.uniform(4, 2))
    duo = (SymmetricValuation(0, (0, 1)), SymmetricValuation(1, (0, 2)))
    fine = StrategyGrid.uniform(2, 4)
    first_price = (first_price_rule(2), duo, fine)
    cases = [(*fair, 300, {"seed": seed}) for seed in (0, 7, 12)]
    for concentration in (1e200, 1e300):
        start = biased_weights(fine, (0, 1), concentration)
        cases.append((*first_price, 200, {"seed": 5, "initial_weights": start}))
    cases.append((*first_price, 200, {"seed": 6, "eta": 363.0}))
    cases.append((*fair, 60, {"seed": 3, "eta": 360.0}))
    # the integral packing, cycle-cover and flow rules on the dynamics
    # command's instances: choice tuples, cycle covers and path assignments
    # key the memo, and option, edge and route bids the relaxation cache
    ce = packing.gen_multiunit_counterexample(4)
    digraph = maxtsp.gen_digraphs(1, 0, sizes=(3,))[0]
    duopoly = flows.FlowInstance(
        CapacitatedDigraph(2, [(0, 1, 1)]), 0, [(1, 1, 1), (1, 1, Fr(1, 2))]
    )
    for rule, values in (
        (packing.integral_rule(ce.instance), ce.values),
        (maxtsp.cycle_cover_rule(digraph), maxtsp.truthful_edge_bids(digraph)),
        (flows.fractional_rule(duopoly), flows.truthful_flow_bids(duopoly)),
    ):
        cases.append((rule, values, StrategyGrid.uniform(len(values), 2), 200, {}))
    for rule, values, grid, T, kwargs in cases:
        trace = run_hedge(rule, values, grid, T, **kwargs)
        reference = run_hedge_reference(rule, values, grid, T, **kwargs)
        assert trace.to_dict() == reference.to_dict()
        # the replay re-rounds every deviation; only the solve is shared
        replayed = replay_cumulative(replace(rule, solve=cache(rule.solve)), values, trace)
        assert trace.cumulative == replayed


def test_hedge_validation():
    values = single_item_values(1)
    grid = StrategyGrid(((0, Fr(1, 2)),))
    rule = first_price_rule(1)
    with pytest.raises(PreconditionError):
        run_hedge(rule, values, grid, 0)
    with pytest.raises(PreconditionError):
        run_hedge(rule, values, grid, 5, eta=0.0)
    with pytest.raises(StructuralError):
        run_hedge(rule, single_item_values(1, 1), grid, 5)
    with pytest.raises(StructuralError):
        run_hedge(rule, values, grid, 5, initial_weights=[[1.0]])
    with pytest.raises(StructuralError):
        run_hedge(rule, values, grid, 5, initial_weights=[[1.0, 0.0]])


def test_hedge_weights_do_not_overflow():
    # at eta = 1 the unscaled weights of player 1 pass the float range
    # within 2000 rounds; play must keep following its best multiplier 1/2
    values = (SymmetricValuation(0, (0, 1)), SymmetricValuation(1, (0, 2)))
    grid = StrategyGrid.uniform(2, 4)
    trace = run_hedge(first_price_rule(2), values, grid, 2000, eta=1.0, seed=0)
    tail = [r.theta[1] for r in trace.rounds[-200:]]
    assert tail.count(Fr(1, 2)) >= 190


def test_hedge_weight_scale_does_not_change_play():
    # a power-of-two start far below the rescaling range is rescaled at once
    values = (SymmetricValuation(0, (0, 1)), SymmetricValuation(1, (0, 2)))
    grid = StrategyGrid.uniform(2, 4)
    rule = first_price_rule(2)
    tiny = [[2.0**-600] * 5, [2.0**-600] * 5]
    plain = run_hedge(rule, values, grid, 300, eta=0.5, seed=4)
    scaled = run_hedge(rule, values, grid, 300, eta=0.5, seed=4, initial_weights=tiny)
    assert scaled.to_dict() == plain.to_dict()


def test_hedge_rejects_learning_rates_that_overflow():
    # a weight may reach 2^500 before it is rescaled and one update scales it
    # by up to e^eta, so eta above ln(float max) - 500 ln 2 (about 363.2)
    # could reach inf
    values = (SymmetricValuation(0, (0, 1)), SymmetricValuation(1, (0, 2)))
    grid = StrategyGrid.uniform(2, 4)
    rule = first_price_rule(2)
    for eta in (1000.0, 364.0):
        with pytest.raises(PreconditionError):
            run_hedge(rule, values, grid, 5, eta=eta)
    trace = run_hedge(rule, values, grid, 50, eta=363.0, seed=0)
    assert len(trace.rounds) == 50


def test_hedge_rescales_initial_weights_before_the_first_update():
    # a power-of-two start above the rescaling range would overflow in the
    # first update at the largest accepted rate unless it is rescaled first;
    # rescaled, it plays exactly like the unit start. Non-finite starts are
    # rejected.
    values = (SymmetricValuation(0, (0, 1)), SymmetricValuation(1, (0, 2)))
    grid = StrategyGrid.uniform(2, 4)
    rule = first_price_rule(2)
    huge = [[2.0**1000] * 5, [2.0**1000] * 5]
    plain = run_hedge(rule, values, grid, 20, eta=363.0, seed=0)
    scaled = run_hedge(rule, values, grid, 20, eta=363.0, seed=0, initial_weights=huge)
    assert scaled.to_dict() == plain.to_dict()
    for bad in (float("inf"), float("nan")):
        with pytest.raises(StructuralError):
            run_hedge(rule, values, grid, 5, initial_weights=[[bad] * 5, [1.0] * 5])


def test_unbounded_utility_detection():
    class Lying(SymmetricValuation):
        def best_case(self):
            return Fr(0)

    values = (Lying(0, (0, 1)),)
    grid = StrategyGrid(((0, Fr(1, 2)),))
    with pytest.raises(StructuralError):
        run_hedge(first_price_rule(1), values, grid, 3)


def test_determinism_and_persistence(tmp_path):
    values = single_item_values(1, Fr(1, 2))
    grid = StrategyGrid.uniform(2, 2)
    rule = first_price_rule(2)
    a = run_hedge(rule, values, grid, 80, seed=9)
    b = run_hedge(rule, values, grid, 80, seed=9)
    assert a.to_dict() == b.to_dict()
    c = run_hedge(rule, values, grid, 80, seed=10)
    assert a.to_dict() != c.to_dict()
    path = tmp_path / "trace.json"
    a.save(path)
    loaded = PlayTrace.load(path)
    assert loaded.to_dict() == a.to_dict()
    assert half_value_regret(loaded) == half_value_regret(a)


def test_loaded_traces_must_fit_their_grid():
    values = single_item_values(1, Fr(1, 2))
    grid = StrategyGrid.uniform(2, 2)
    data = run_hedge(first_price_rule(2), values, grid, 5, seed=9).to_dict()
    assert PlayTrace.from_dict(data).to_dict() == data

    def broken(edit):
        bad = json.loads(json.dumps(data))
        edit(bad)
        with pytest.raises(StructuralError):
            PlayTrace.from_dict(bad)

    broken(lambda d: d["rounds"].clear())
    broken(lambda d: d["rounds"][2]["theta"].pop())
    broken(lambda d: d["rounds"][2]["utilities"].append("0"))
    broken(lambda d: d["rounds"][3]["theta"].__setitem__(1, "1/4"))
    broken(lambda d: d["cumulative"][0].pop())
    broken(lambda d: d["cumulative"].pop())


# ------------------------------------------------------------------ regret


def test_half_value_regret_replay_matches_recorded():
    # every recorded total must equal a fresh allocate per deviation and
    # round, and half_value_regret must read the half column of them; an
    # uncached fair allocate costs about half a millisecond
    market = tuple(SymmetricValuation(i, (0, 1, 2, 3)) for i in range(2))
    cases = (
        (first_price_rule(2), single_item_values(1, Fr(1, 2)), 2000, 4),
        (fair_rule(3), market, 500, 12),
    )
    grid = StrategyGrid.uniform(2, 2)
    for rule, values, T, seed in cases:
        trace = run_hedge(rule, values, grid, T, seed=seed)
        replayed = replay_cumulative(rule, values, trace)
        assert trace.cumulative == replayed
        half = grid.thetas[0].index(Fr(1, 2))
        assert half_value_regret(trace) == tuple(
            (replayed[i][half] - sum(r.utilities[i] for r in trace.rounds)) / T
            for i in range(2)
        )


def test_half_value_regret_when_half_was_played():
    # a player already at the half-value bid gains nothing by deviating to it
    values = single_item_values(1)
    grid = StrategyGrid(((0, Fr(1, 2)),))
    rule = first_price_rule(1)
    rounds = [((Fr(1, 2),), 0, 1, (Fr(1, 2),)) for _ in range(5)]
    trace = manual_trace(grid, rule, values, rounds)
    assert half_value_regret(trace, values) == (Fr(0),)


def test_half_value_regret_for_a_sitting_out_player():
    # player 0 always bid 0 and lost; switching to half its value wins the
    # item from the rival's quarter bid, so the regret is that utility
    values = single_item_values(1, Fr(1, 2))
    grid = StrategyGrid.uniform(2, 2)
    rule = first_price_rule(2)
    rounds = [((Fr(0), Fr(1, 2)), 0, Fr(1, 2), (Fr(0), Fr(1, 4))) for _ in range(4)]
    trace = manual_trace(grid, rule, values, rounds)
    regret = half_value_regret(trace, values)
    assert regret[0] == Fr(1, 2)


def test_external_regret_floor_and_arithmetic():
    grid = StrategyGrid(((0, Fr(1, 2)),))
    rule = first_price_rule(1)
    values = single_item_values(1)
    trace = manual_trace(grid, rule, values, [((Fr(1, 2),), 0, 1, (Fr(1, 2),))] * 4)
    # hand cumulative: strategy 0 earned 1 per round, strategy 1/2 earned 1/2
    object.__setattr__(trace, "cumulative", ((Fr(4), Fr(2)),))
    assert external_regret(trace) == (Fr(1, 2),)
    object.__setattr__(trace, "cumulative", ((Fr(0), Fr(2)),))
    assert external_regret(trace) == (Fr(0),)


# ----------------------------------------------------------------- reports


def test_empirical_poa_constant_and_alternating():
    grid = StrategyGrid(((0, Fr(1, 2)),))
    rule, values = first_price_rule(1), single_item_values(3)
    constant = manual_trace(grid, rule, values, [((Fr(0),), 0, 3, (Fr(0),))] * 4)
    assert empirical_poa(constant, 3).ratio == 1
    alternating = manual_trace(
        grid, rule, values, [((Fr(0),), 0, 3, (Fr(0),)), ((Fr(0),), 0, 0, (Fr(0),))]
    )
    assert empirical_poa(alternating, 3).ratio == 2


def test_empirical_poa_degenerate_cases():
    values = single_item_values(0)
    grid = StrategyGrid(((0, Fr(1, 2)),))
    trace = run_hedge(first_price_rule(1), values, grid, 30, seed=0)
    assert all(r.welfare == 0 for r in trace.rounds)
    report = empirical_poa(trace, 0)
    assert report.ratio == 1 and not report.infinite
    report = empirical_poa(trace, 5)
    assert report.ratio is None and report.infinite
    with pytest.raises(PreconditionError):
        empirical_poa(trace, -1)


def test_report_serialization():
    values = single_item_values(1)
    grid = StrategyGrid(((0, Fr(1, 2)),))
    trace = run_hedge(first_price_rule(1), values, grid, 20, seed=1)
    params = SmoothnessParams(Fr(1, 2), 1, HALF_VALUE)
    report = empirical_poa(trace, 1, smoothness=params)
    data = report.to_dict()
    assert data["bound"] == "2"
    assert data["rounds"] == 20
    assert isinstance(data["external_regret"], list)


def test_ratio_at_least_one_when_opt_dominates():
    values = single_item_values(1, Fr(1, 2))
    grid = StrategyGrid.uniform(2, 2)
    trace = run_hedge(first_price_rule(2), values, grid, 200, seed=2)
    report = empirical_poa(trace, 1)  # true optimum of the duopoly
    assert report.ratio >= 1


# ------------------------------------------------- smoothness at trace level


def ca_market(m=4):
    values = tuple(SymmetricValuation(i, (0,) + (1,) * m) for i in range(m)) + tuple(
        SymmetricValuation(m + t, (0,) * m + (2,)) for t in range(2)
    )
    return values


def test_trace_smoothness_on_fair_rounding():
    m = 4
    values = ca_market(m)
    rule = fair_rule(m)
    grid = StrategyGrid.uniform(len(values), 2)
    trace = run_hedge(rule, values, grid, 250, seed=6)
    opt = solve_cardinality_lp(m, values)[1]
    params = compose_smoothness(CARDINALITY_LP_SMOOTHNESS, FAIR_ALPHA)
    holds, lhs, rhs = check_trace_smoothness(trace, values, params, opt)
    assert holds
    assert lhs == trace.average_welfare()
    with pytest.raises(PreconditionError):
        check_trace_smoothness(
            trace, values, SmoothnessParams(Fr(1, 2), Fr(1, 2), HALF_VALUE), opt
        )


def test_warm_start_stays_near_the_bad_equilibrium():
    m = 4
    values = ca_market(m)
    rule = cardinality_integral_rule(m)
    grid = StrategyGrid.uniform(len(values), 2)
    warm = biased_weights(grid, (0,) * m + (1, 1))
    trace = run_hedge(rule, values, grid, 250, seed=7, initial_weights=warm)
    opt = Fr(m)
    report = empirical_poa(trace, opt)
    assert report.ratio >= 1
    assert report.ratio <= Fr(m, 2) + Fr(1, 4)


def test_warm_start_validation():
    grid = StrategyGrid.uniform(1, 2)
    with pytest.raises(StructuralError):
        biased_weights(grid, (Fr(1, 3),))


# --------------------------------------------------------- relax-stage cache


def counting_fair_rule(m):
    """fair_rule(m) with its solve counted; (rule, calls so far)."""
    calls = [0]
    rule = fair_rule(m)
    inner = rule.solve

    def counting(bids):
        calls[0] += 1
        return inner(bids)

    return replace(rule, solve=counting), calls


def test_hedge_reuses_relaxations():
    m = 3
    values = tuple(SymmetricValuation(i, (0, 1, 2, 3)) for i in range(2))
    patched, calls = counting_fair_rule(m)
    grid = StrategyGrid.uniform(2, 2)
    run_hedge(patched, values, grid, 60, seed=12)
    assert calls[0] <= 9  # at most one solve per joint profile


def test_hedge_solves_each_profile_of_a_deterministic_rule_once():
    values = single_item_values(3, 2)
    rule = first_price_rule(2)
    solved = []

    def counting(bids):
        solved.append(bids)
        return rule.solve(bids)

    grid = StrategyGrid.uniform(2, 2)
    trace = run_hedge(replace(rule, solve=counting), values, grid, 200, seed=4)
    profiles = {
        (values[0].scale(a), values[1].scale(b))
        for a in grid.thetas[0]
        for b in grid.thetas[1]
    }
    assert len(solved) == len(set(solved))
    assert set(solved) == profiles
    assert trace.cumulative == replay_cumulative(rule, values, trace)


def test_half_value_regret_relaxes_nothing_and_answers_after_a_reload(tmp_path):
    values = tuple(SymmetricValuation(i, (0, 1, 2, 3)) for i in range(2))
    rule, calls = counting_fair_rule(3)
    trace = run_hedge(rule, values, StrategyGrid.uniform(2, 2), 60, seed=12)
    solved = calls[0]
    regrets = half_value_regret(trace, values)
    assert calls[0] == solved
    assert regrets == empirical_poa(trace, 3).half_value_regret
    path = tmp_path / "trace.json"
    trace.save(path)
    loaded = PlayTrace.load(path)
    assert loaded == trace
    assert half_value_regret(loaded) == regrets
    assert calls[0] == solved
