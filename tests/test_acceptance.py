"""Acceptance suite: one test per end-to-end guarantee, at desk scale.

Each test prints a single summary line; the numbered names keep the run
order aligned with the package's guarantee list.
"""

import time
from fractions import Fraction as Fr
from itertools import combinations, permutations
from random import Random

from anarchy import auctions, dynamics, flows, maxtsp, packing
from anarchy.mechanism import (
    HALF_VALUE,
    SmoothnessParams,
    check_smoothness,
    compose_smoothness,
    poa_from_smoothness,
    scaled_bid_profiles,
    theta_grid,
    verify_pure_nash,
)
from anarchy.rationals import F0, F1

H = Fr(1, 2)


def stamp(tag: str, t0: float, budget: float = None) -> None:
    dt = time.monotonic() - t0
    print(f"acceptance {tag}: PASS ({dt:.1f}s)")
    if budget is not None:
        assert dt < budget, f"{tag} exceeded its {budget}s budget at {dt:.1f}s"


def composed(lam, mu, alpha) -> Fr:
    return poa_from_smoothness(
        compose_smoothness(SmoothnessParams(lam, mu, HALF_VALUE), alpha)
    )


def test_01_composition_constants():
    t0 = time.monotonic()
    assert composed(H, 2, 8) == 32
    for d in range(1, 6):
        assert composed(H, d + 1, 8 * d) == 16 * d * (d + 1)
    assert composed(H, 3, 2) == 12
    for eps in (Fr(1, 10), Fr(1, 2), F1):
        assert composed(H, 1, 1 + eps) == 2 * (1 + eps)
    # the xos guarantee factors as (coefficient, e/(e-1)); the rational
    # coefficient is the composition at unit rounding loss
    assert composed(H, 2, 1) == 4
    stamp("01 composition-constants", t0, budget=1)


def test_02_packing_social_cost_sweep():
    t0 = time.monotonic()
    certs = packing.social_cost_suite(1000, seed=0)
    assert len(certs) == 1000
    assert all(c.holds for c in certs)
    stamp("02 packing-social-cost", t0, budget=120)


def test_03_cycle_cover_social_cost():
    t0 = time.monotonic()
    rng = Random(31)
    graphs = maxtsp.gen_digraphs(300, seed=31, sizes=(4, 5, 6))
    for g in graphs:
        reference = maxtsp.random_cover(g.num_vertices, rng)
        cert = maxtsp.check_cc_social_cost(g, maxtsp.truthful_edge_bids(g), reference)
        assert cert.holds, (g, reference)
    # edge forcing keeps covers valid and never drops more than 3 edges
    for g in graphs[:50]:
        cover, _ = maxtsp.max_weight_cycle_cover(g)
        n = g.num_vertices
        for e in ((u, v) for u in range(n) for v in range(n) if u != v):
            forced, removed = maxtsp.force_edge(cover, e)
            assert forced.succ[e[0]] == e[1]
            assert len(removed) <= 3
            assert e not in removed
    stamp("03 cycle-cover-social-cost", t0, budget=300)


def test_04_half_edge_social_cost():
    t0 = time.monotonic()
    for g in maxtsp.gen_digraphs(100, seed=41, sizes=(4, 5)):
        n = g.num_vertices
        best_tour = max(
            (maxtsp.HamiltonianCycle((0,) + p) for p in permutations(range(1, n))),
            key=lambda tour: tour.weight(g),
        )
        cert = maxtsp.check_half_edge_social_cost(g, None, best_tour)
        assert cert.holds, g
    stamp("04 half-edge-social-cost", t0, budget=600)


def test_05_config_lp_social_cost():
    t0 = time.monotonic()
    for k, pairs in (
        (1, auctions.gen_xos_instances(200, seed=51)),
        (2, auctions.gen_mph_instances(50, seed=52, k=2)),
    ):
        for m, values in pairs:
            x, _ = auctions.solve_config_lp(len(values), m, values)
            cert = auctions.check_ca_social_cost(values, x, k)
            assert cert.holds, (k, m, values)
    stamp("05 config-lp-social-cost", t0, budget=300)


def test_06_fisher_inclusion_and_expectation():
    t0 = time.monotonic()
    rng = Random(61)
    for g in maxtsp.gen_digraphs(100, seed=61, sizes=(4, 5, 6)):
        n = g.num_vertices
        for cover in (
            maxtsp.random_cover(n, rng),
            maxtsp.max_weight_cycle_cover(g)[0],
        ):
            support = maxtsp.fisher_support(cover, g)
            assert sum((p for p, _ in support), F0) == 1
            multi = len(cover.cycles()) > 1
            length_of = {}
            for cyc in cover.cycles():
                for v in cyc:
                    length_of[v] = len(cyc)
            for u, v in cover.edges():
                included = sum((p * t.fraction(u, v) for p, t in support), F0)
                L = length_of[u]
                # chaining edges bridge cycles, so a kept edge is the only
                # way in; a lone cycle closes back through its dropped edge
                assert included == (Fr(L - 1, L) if multi else F1)
                assert included >= H
            expected = sum((p * t.weight(g) for p, t in support), F0)
            assert expected >= cover.weight_under(g.w) / 2
    stamp("06 fisher-inclusion", t0)


def test_07_fair_rounding_marginals():
    t0 = time.monotonic()
    # exact outcome enumeration on small markets
    for m, values in auctions.gen_symmetric_instances(40, seed=71, max_players=3):
        xbar, _ = auctions.solve_cardinality_lp(m, values)
        support = auctions.fair_round_support(xbar, m)
        assert sum((p for p, _ in support), F0) == 1
        assert all(sum(R) <= m for _, R in support)
        for i in range(xbar.n):
            for j in range(1, m + 1):
                marginal = sum((p for p, R in support if R[i] == j), F0)
                assert marginal >= xbar.x[i][j - 1] / 16
    # sampled marginals on a wider market where the supply check never fires
    m, n = 10, 5
    rows = [[F0] * m for _ in range(n)]
    for row in rows:
        row[1] = H  # every player: weight 1/2 on receiving exactly 2 items
    xbar = auctions.CardinalityLPSolution(m, rows)
    N = 100_000
    hits = [0] * n
    for s in range(N):
        R = auctions.fair_round(xbar, m, s)
        assert sum(R) <= m
        for i, r in enumerate(R):
            hits[i] += r == 2
    p = float(H / 8)  # halving coin 1/2 times a quarter of the kept weight
    sigma = (p * (1 - p) / N) ** 0.5
    for i in range(n):
        assert abs(hits[i] / N - p) <= 3 * sigma, (i, hits[i])
    stamp("07 fair-rounding-marginals", t0, budget=120)


def test_08_equilibrium_gap_constructions():
    t0 = time.monotonic()
    cases = (
        packing.gen_multiunit_counterexample,
        flows.gen_flow_counterexample,
        auctions.gen_symmetric_counterexample,
    )
    for gen in cases:
        ce = gen(10)
        assert ce.ratio == 5
        assert ce.optimum == 10 and ce.equilibrium_welfare == 2
        cert = verify_pure_nash(ce.rule, ce.bids, ce.values, ce.deviations())
        assert cert.is_nash
        assert cert.max_regret == 0
    stamp("08 equilibrium-gaps", t0)


def test_09_greedy_flow_equals_lp():
    t0 = time.monotonic()
    for inst in flows.gen_flow_instances(200, seed=91):
        bids = flows.truthful_flow_bids(inst)
        _, welfare = flows.greedy_fractional_flow(inst, bids)
        assert welfare == flows.solve_path_lp(inst, bids)
    stamp("09 greedy-equals-lp", t0, budget=180)


def all_bases(oracle):
    ground = sorted(oracle.ground)
    for size in range(len(ground), -1, -1):
        found = [
            frozenset(c)
            for c in combinations(ground, size)
            if oracle.independent(frozenset(c))
        ]
        if found:
            return found
    return [frozenset()]


def check_exchange(oracle, I, J):
    mapping = flows.exchange_matching(oracle, I, J)
    assert sorted(mapping) == sorted(I)
    assert sorted(mapping.values()) == sorted(J)
    for i, j in mapping.items():
        assert oracle.independent(I - {i} | {j})
        if i in I & J:
            assert j == i


def test_10_exchange_matchings():
    t0 = time.monotonic()
    rng = Random(101)
    graphs = (
        (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        (5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4)]),
        (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]),
    )
    flow_insts = flows.gen_flow_instances(20, seed=103)
    done = 0
    while done < 200:
        family = done % 3
        if family == 0:
            n = rng.randint(4, 6)
            oracle = flows.uniform_matroid(n, rng.randint(1, n))
        elif family == 1:
            nv, edges = graphs[rng.randrange(len(graphs))]
            oracle = flows.graphic_matroid(nv, edges)
        else:
            base = flow_insts[rng.randrange(len(flow_insts))]
            unit = flows.FlowInstance(
                base.graph,
                base.source,
                [(r.sink, 1, r.value) for r in base.requests],
            )
            oracle = flows.gammoid(unit)
        bases = all_bases(oracle)
        check_exchange(oracle, rng.choice(bases), rng.choice(bases))
        done += 1
    stamp("10 exchange-matchings", t0)


def test_11_smoothness_checkers():
    t0 = time.monotonic()
    rng = Random(111)
    for _ in range(30):
        inst = packing.gen_instances("gap", 1, rng.getrandbits(32), n=2, K=2, L=2)[0]
        assert packing.column_sparsity(inst) == 1
        values = packing.truthful_bids(inst)
        grid = scaled_bid_profiles(values, theta_grid(2))
        cert = check_smoothness(
            packing.lp_rule(inst), [values], grid, SmoothnessParams(H, 2, HALF_VALUE)
        )
        assert cert.holds, cert.to_dict()
    params = SmoothnessParams(H, 3, HALF_VALUE)
    for g in maxtsp.gen_digraphs(30, seed=113, sizes=(4, 5)):
        values = maxtsp.truthful_edge_bids(g)
        grid = [tuple(v.scale(th) for v in values) for th in theta_grid(2)]
        cert = check_smoothness(maxtsp.cycle_cover_rule(g), [values], grid, params)
        assert cert.holds, cert.to_dict()
    # the exact integral multi-unit rule breaks the same inequality at its
    # twelve-unit equilibrium: no deviation earns while the bound demands 2
    ce = packing.gen_multiunit_counterexample(12)
    cert = check_smoothness(
        ce.rule, [ce.values], [ce.bids], SmoothnessParams(H, 2, HALF_VALUE)
    )
    assert not cert.holds
    assert cert.min_slack == -2
    assert cert.witness["lhs"] == 0 and cert.witness["rhs"] == 2
    stamp("11 smoothness-checkers", t0)


def test_12_hedge_on_fair_rounding():
    t0 = time.monotonic()
    m, T = 4, 50_000
    values = (
        auctions.SymmetricValuation(0, (0, 1, 1, 1, 1)),
        auctions.SymmetricValuation(1, (0, 1, 1, 1, 1)),
        auctions.SymmetricValuation(2, (0, 1, 2, 2, 2)),
        auctions.SymmetricValuation(3, (0, 0, 0, 0, 3)),
    )
    rule = auctions.fair_rule(m)
    opt = auctions.solve_cardinality_lp(m, values)[1]
    assert opt == 4
    grid = dynamics.StrategyGrid.uniform(len(values), 2)
    trace = dynamics.run_hedge(rule, values, grid, T, seed=12)
    regrets = dynamics.half_value_regret(trace)
    for r in regrets:
        assert r <= Fr(5, 100) * opt, [float(x) for x in regrets]
    params = compose_smoothness(
        auctions.CARDINALITY_LP_SMOOTHNESS, auctions.FAIR_ALPHA
    )
    report = dynamics.empirical_poa(trace, opt, smoothness=params)
    assert report.bound == 64
    assert report.ratio is not None and report.ratio <= 64
    holds, lhs, rhs = dynamics.check_trace_smoothness(trace, values, params, opt)
    assert holds, (lhs, rhs)
    stamp("12 hedge-fair-rounding", t0, budget=120)


def test_13_rounding_is_oblivious():
    t0 = time.monotonic()
    # tour rounding: same cover and seed, two unrelated weightings
    g1 = maxtsp.gen_digraphs(1, seed=131, sizes=(5,))[0]
    g2 = maxtsp.uniform_digraph(5, weight=7)
    doubled = tuple(v.scale(2) for v in maxtsp.truthful_edge_bids(g1))
    cover, _ = maxtsp.max_weight_cycle_cover(g1)
    assert maxtsp.max_weight_cycle_cover(g1, doubled)[0] == cover
    for seed in range(20):
        a = maxtsp.fisher_round(cover, g1, seed)
        b = maxtsp.fisher_round(cover, g2, seed)
        assert repr(a) == repr(b)
    # path rounding: same fractional flow, request values swapped out
    inst1 = flows.gen_flow_instances(6, seed=137)[3]
    inst2 = flows.FlowInstance(
        inst1.graph,
        inst1.source,
        [(r.sink, r.demand, r.value + 5) for r in inst1.requests],
    )
    flow1, _ = flows.greedy_fractional_flow(inst1, flows.truthful_flow_bids(inst1))
    flow2 = flows.FractionalFlow(inst2, flow1.edge_flows, flow1.routed)
    for seed in range(20):
        a = flows.rt_round(flow1, inst1, Fr(1, 10), seed)
        b = flows.rt_round(flow2, inst2, Fr(1, 10), seed)
        assert repr(a) == repr(b)
    # size rounding: two bid profiles with the same relaxation optimum
    m, values = auctions.gen_symmetric_instances(5, seed=139)[2]
    scaled = tuple(v.scale(2) for v in values)
    xbar1, _ = auctions.solve_cardinality_lp(m, values)
    xbar2, _ = auctions.solve_cardinality_lp(m, scaled)
    assert xbar1.x == xbar2.x
    for seed in range(20):
        a = auctions.fair_round(xbar1, m, seed)
        b = auctions.fair_round(xbar2, m, seed)
        assert repr(a) == repr(b)
    stamp("13 oblivious-rounding", t0)
