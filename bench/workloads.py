"""The four benchmark workloads and the layers the traced run watches.

A workload turns (seed, op id) into one op's inputs, runs the op through
the library's public entry points (the same ones ``anarchy ... dynamics``,
``check-lemma`` and ``check-smoothness`` call), and checks the op's exact
output: its verdicts, its cross-checks and a digest of everything exact it
returned. Inputs depend only on the seed and the op id, so any op can be
replayed, and the library only ever sees the generated inputs.

Op ids cycle through fixed strata (player counts, item counts, graph sizes,
LP kinds) so that every run sees the same mix of op sizes whatever its
seed; the seed only varies the instances inside each stratum. Instances
still come from the library's own seeded generators, redrawn until they
fall in the op's stratum.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from fractions import Fraction
from functools import partial
from random import Random
from types import SimpleNamespace

from tracer import Layer

PACKAGE = "anarchy"
MODULES = ("auctions", "dynamics", "flows", "maxtsp", "mechanism", "packing")


def load_library() -> SimpleNamespace:
    """Import the library afresh, dropping any copy imported before.

    Re-importing lets set-up be timed more than once in one process; the
    module-level caches start empty every time.
    """
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return SimpleNamespace(
        **{name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
    )


def _canon(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _canon(v) for k, v in x.items()}
    if isinstance(x, float):
        return repr(x)
    return x


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def digest(payload) -> str:
    """First 64 bits of the sha256 of the payload's canonical JSON."""
    h = hashlib.sha256()
    for chunk in _ENCODER.iterencode(_canon(payload)):  # no whole-text copy
        h.update(chunk.encode())
    return h.hexdigest()[:16]


def op_rng(workload: str, seed: int, op_id: int, stream: str = "op") -> Random:
    # Random seeded with a string hashes it with sha512: independent of
    # PYTHONHASHSEED and of the Python build.
    return Random(f"{workload}/{stream}/{seed}/{op_id}")


def _digits(op_id: int, *radices) -> list:
    """op_id in mixed radix, lowest digit first: the op's stratum."""
    out = []
    for r in radices:
        out.append(op_id % r)
        op_id //= r
    return out


def _draw(rng: Random, generate, accept):
    """Seeded generator output, redrawn until it lies in the wanted stratum."""
    while True:
        drawn = generate(rng.getrandbits(32))
        if accept(drawn):
            return drawn


class Workload:
    """Base: subclasses define make_input, run and check."""

    name = ""
    cycle = 1  # op ids run through every stratum once per this many ops
    trace_ops = 1  # ops per pass of the traced run, whole cycles
    warmup_ops = 1

    def __init__(self, lib: SimpleNamespace, seed: int):
        self.lib = lib
        self.seed = seed

    def rng(self, op_id: int, stream: str = "op") -> Random:
        # warm-up inputs ignore the seed, so set-up does the same work in
        # every run
        return op_rng(self.name, self.seed if stream == "op" else 0, op_id, stream)

    def make_input(self, op_id: int, stream: str = "op"):
        raise NotImplementedError

    def run(self, inp):
        """The timed part: library calls only."""
        raise NotImplementedError

    def check(self, inp, out) -> tuple:
        """(verdicts and cross-checks hold, digest of the exact outputs)."""
        raise NotImplementedError

    def rounds(self, inp) -> int:
        """Hedge rounds the op plays (for the per-round metric)."""
        return 0

    def warm_up(self) -> None:
        """Run a few ops so lazy caches fill and code paths warm up."""
        for op_id in range(self.warmup_ops):
            inp = self.make_input(op_id, stream="warm")
            ok, _ = self.check(inp, self.run(inp))
            if not ok:
                raise RuntimeError(f"{self.name}: warm-up op {op_id} failed its check")


class HedgeFair(Workload):
    """One op: a full Hedge run on fair rounding, scored and certified."""

    name = "hedge-fair"
    horizon = 300  # long enough that the 81 cold LP solves stay a minority
    warmup_rounds = 20
    trace_ops = 6

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        a, d, mech = lib.auctions, lib.dynamics, lib.mechanism
        self.values = (
            a.SymmetricValuation(0, (0, 1, 1, 1, 1)),
            a.SymmetricValuation(1, (0, 1, 1, 1, 1)),
            a.SymmetricValuation(2, (0, 1, 2, 2, 2)),
            a.SymmetricValuation(3, (0, 0, 0, 0, 3)),
        )
        self.rule = a.fair_rule(4)
        self.grid = d.StrategyGrid.uniform(4, 2)
        self.opt = a.solve_cardinality_lp(4, self.values)[1]
        self.params = mech.compose_smoothness(
            mech.SmoothnessParams(Fraction(1, 2), 2, mech.HALF_VALUE), 16
        )

    def make_input(self, op_id, stream="op"):
        rounds = self.warmup_rounds if stream == "warm" else self.horizon
        return self.rng(op_id, stream).getrandbits(32), rounds

    def rounds(self, inp):
        return inp[1]

    def run(self, inp):
        d = self.lib.dynamics
        seed, rounds = inp
        trace = d.run_hedge(self.rule, self.values, self.grid, rounds, seed=seed)
        regrets = d.half_value_regret(trace, self.values)
        report = d.empirical_poa(trace, self.opt, smoothness=self.params)
        verdict = d.check_trace_smoothness(trace, self.values, self.params, self.opt)
        return trace, regrets, report, verdict

    def check(self, inp, out):
        trace, regrets, report, (holds, lhs, rhs) = out
        ok = (
            holds
            and report.ratio is not None
            and report.ratio <= 64
            and regrets == report.half_value_regret
        )
        payload = {
            "trace": trace.to_dict(),
            "regrets": regrets,
            "report": report.to_dict(),
            "verdict": [holds, lhs, rhs],
        }
        return ok, digest(payload)


class CertifyLP(Workload):
    """One op: one social-cost certificate."""

    name = "certify-lp"
    # op id -> kind (packing d=1, 2, 3, then a configuration-LP certificate),
    # then for packing (point, players, options) and for configuration
    # (valuation class, players, items)
    cycle = 4 * 3 * 4 * 3
    trace_ops = cycle
    warmup_ops = 8

    def make_input(self, op_id, stream="op"):
        rng = self.rng(op_id, stream)
        kind, rest = op_id % 4, op_id // 4
        if kind < 3:
            p = self.lib.packing
            d = kind + 1
            mode, n, K = _digits(rest, 3, 4, 3)  # mode: social_cost_suite's points
            n, K, L = n + 2, K + 1, rng.randint(d, 4)
            inst = p.gen_instances(
                "sparse-random", 1, rng.getrandbits(32), n=n, K=K, L=L, d=d
            )[0]
            bids = p.random_bids(inst, rng)
            if mode == 0:
                xbar = tuple((Fraction(0),) * K for _ in range(n))
            elif mode == 1:
                xbar = None  # the LP optimum at the bids, solved inside the op
            else:
                xbar = p.random_feasible_point(inst, rng)
            return "packing", inst, bids, xbar
        a = self.lib.auctions
        k, n, items = _digits(rest, 2, 3, 3)
        k, n, items = k + 1, n + 1, items + 2
        gen = a.gen_xos_instances if k == 1 else partial(a.gen_mph_instances, k=2)
        m, values = _draw(
            rng,
            lambda s: gen(1, s, max_players=n, max_items=items)[0],
            lambda mv: (len(mv[1]), mv[0]) == (n, items),
        )
        return "config", m, values, k

    def run(self, inp):
        if inp[0] == "packing":
            p = self.lib.packing
            _, inst, bids, xbar = inp
            lp = None
            if xbar is None:
                alloc, value = p.solve_packing_lp(inst, bids)
                lp = (alloc.x, value)
                xbar = alloc.x
            return lp, p.check_pip_social_cost(inst, bids, xbar)
        a = self.lib.auctions
        _, m, values, k = inp
        x, value = a.solve_config_lp(len(values), m, values)
        return (x.x, value), a.check_ca_social_cost(values, x, k)

    def check(self, inp, out):
        lp, cert = out
        payload = {"lp": lp, "lhs": cert.lhs, "rhs": cert.rhs, "detail": cert.detail}
        return cert.holds, digest(payload)


class SmoothFair(Workload):
    """One op: an exhaustive general-mode smoothness check."""

    name = "smooth-fair"
    resolution = 2
    # op id -> (players, items). One player has no interplay; four players
    # or three players with three items cost up to 30 times as much and
    # leave too few ops per run. Five strata of rising cost put p50 and p90
    # in the middle of the third and the fifth, not between two of them.
    strata = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))
    cycle = len(strata)
    trace_ops = 5 * cycle
    warmup_ops = 2  # cheap, and they reach every code path

    def make_input(self, op_id, stream="op"):
        n, m = self.strata[op_id % self.cycle]
        return _draw(
            self.rng(op_id, stream),
            lambda s: self.lib.auctions.gen_symmetric_instances(
                1, s, max_players=n, max_items=m
            )[0],
            lambda mv: (len(mv[1]), mv[0]) == (n, m),
        )

    def run(self, inp):
        mech = self.lib.mechanism
        m, values = inp
        return mech.check_smoothness(
            self.lib.auctions.fair_rule(m),
            [values],
            mech.scaled_bid_profiles(values, mech.theta_grid(self.resolution)),
            mech.SmoothnessParams(Fraction(1, 32), 2, mech.GENERAL),
        )

    def check(self, inp, out):
        return out.holds, digest(out.to_dict())


class ToursFlows(Workload):
    """One op: a digraph's cover, tours and certificate, then a flow
    instance's greedy flow and rounding support."""

    name = "tours-flows"
    # op id -> (digraph vertices 4..6, flow requests 2, 4, 6, 8)
    cycle = 3 * 4
    trace_ops = 12 * cycle
    warmup_ops = 3  # one graph of each size fills the derangement cache
    flow_vertices = 12  # at most; the generator draws 3..12
    epsilon = Fraction(1, 10)

    def make_input(self, op_id, stream="op"):
        t, f = self.lib.maxtsp, self.lib.flows
        rng = self.rng(op_id, stream)
        n, players = _digits(op_id, 3, 4)
        n, players = n + 4, 2 * players + 2
        g = t.gen_digraphs(1, rng.getrandbits(32), sizes=(n,))[0]
        inst = _draw(
            rng,
            lambda s: f.gen_flow_instances(1, s, self.flow_vertices, players)[0],
            lambda inst: inst.n == players,
        )
        return g, t.truthful_edge_bids(g), inst, f.truthful_flow_bids(inst)

    def run(self, inp):
        t, f = self.lib.maxtsp, self.lib.flows
        g, bids, inst, flow_bids = inp
        cover, weight = t.max_weight_cycle_cover(g, bids)
        tours = t.fisher_support(cover, g)
        cert = t.check_cc_social_cost(g, bids, cover)
        flow, welfare = f.greedy_fractional_flow(inst, flow_bids)
        routes = f.rt_support(flow, inst, self.epsilon)
        f.check_fractional_flow(inst, flow)
        return cover, weight, tours, cert, flow, welfare, routes

    def check(self, inp, out):
        cover, weight, tours, cert, flow, welfare, routes = out
        ok = (
            cert.holds
            and sum(p for p, _ in tours) == 1
            and sum(p for p, _ in routes) == 1
        )
        payload = {
            "cover": [cover.succ, weight],
            "tours": [[p, tour.order] for p, tour in tours],
            "cert": [cert.lhs, cert.rhs],
            "flow": [flow.edge_flows, flow.routed, welfare],
            "routes": [
                [p, r.paths, r.dropped, r.raw_feasible] for p, r in routes
            ],
        }
        return ok, digest(payload)


WORKLOADS = {w.name: w for w in (HedgeFair, CertifyLP, SmoothFair, ToursFlows)}


def _cardinality_key(args, kwargs):
    return args[0], tuple(args[1])


def _cycle_cover_key(args, kwargs):
    g = args[0]
    bids = args[1] if len(args) > 1 else kwargs.get("bids")
    if bids is None:  # the graph's own weights are its truthful bids
        bids = sys.modules[PACKAGE + ".maxtsp"].truthful_edge_bids(g)
    return g, tuple(bids)


# The layer boundaries the traced run wraps, as <module>.<function> inside
# the package. solvers.maxflow.max_flow is reached only through
# flows.gammoid; the greedy flow runs on the private flows._Residual twin,
# so max-flow work is timed through flows.greedy_fractional_flow.
LAYERS = (
    Layer("solvers.lp.solve_lp"),
    Layer("solvers.matching.max_weight_perfect_matching"),
    Layer("flows.greedy_fractional_flow"),
    Layer("flows.rt_support", outcomes=True),
    Layer("packing.solve_packing_lp"),
    Layer("packing.residual_welfare"),
    Layer("auctions.solve_config_lp"),
    Layer("auctions.solve_cardinality_lp", key=_cardinality_key),
    Layer("auctions.fair_round"),
    Layer("auctions.fair_round_support", outcomes=True),
    Layer("rationals.weighted_index", aggregate=True),
    Layer("maxtsp.max_weight_cycle_cover", key=_cycle_cover_key),
    Layer("maxtsp.fisher_support", outcomes=True),
    Layer("maxtsp.check_cc_social_cost"),
    Layer("mechanism.check_smoothness"),
    Layer("mechanism.expected_run"),
    Layer("dynamics.run_hedge"),
    Layer("dynamics.half_value_regret"),
)
