"""Command line harness: generate, solve, round, check, and report.

Every invocation prints self-describing report rows (exact rationals as
p/q next to a decimal rendering) and can persist them to CSV or JSON.
Exit code 0 means every verdict passed, 2 means some checked property was
violated, 1 means the invocation itself failed.
"""

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Optional

from . import auctions, dynamics, flows, maxtsp, packing
from .mechanism import (
    SymbolicAlpha,
    check_smoothness,
    compose_smoothness,
    poa_from_smoothness,
    scaled_bid_profiles,
    theta_grid,
    verify_pure_nash,
)
from .rationals import frac_str, parse_frac
from .solvers.maxflow import CapacitatedDigraph

DOMAINS = ("packing", "flow", "maxtsp", "auctions")
ACTIONS = (
    "gen",
    "solve",
    "round",
    "check-smoothness",
    "check-lemma",
    "counterexample",
    "dynamics",
    "paper-table",
)


class CLIError(Exception):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    domain: str
    action: str
    instance: Optional[str] = None
    seed: int = 0
    d: Optional[int] = None
    k: Optional[int] = None
    m: Optional[int] = None
    eps: Optional[Fraction] = None
    rounds: Optional[int] = None
    grid: int = 2
    out: Optional[str] = None

    def to_dict(self) -> dict:
        """Every field but out, which names where rows go, not what they are."""
        out = asdict(self)
        del out["out"]
        out["eps"] = None if self.eps is None else frac_str(self.eps)
        return out

    def hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class ReportRow:
    name: str
    config: ExperimentConfig
    results: dict = field(default_factory=dict)
    verdict: str = "ok"
    witness: Optional[str] = None
    wall_ms: float = 0.0

    def cells(self) -> dict:
        """Flat key -> printable value map; rationals get a decimal twin."""
        out = {
            "domain": self.config.domain,
            "action": self.config.action,
            "name": self.name,
            "seed": self.config.seed,
            "config": self.config.hash(),
            "verdict": self.verdict,
            "witness": self.witness or "",
            "wall_ms": round(self.wall_ms, 2),
        }
        for key, value in self.results.items():
            if isinstance(value, Fraction):
                out[key] = frac_str(value)
                out[key + "_decimal"] = round(float(value), 6)
            else:
                out[key] = value
        return out


def _mark(row: ReportRow, started: float) -> ReportRow:
    row.wall_ms = (time.monotonic() - started) * 1000
    return row


# ----------------------------------------------------------- paper table


def cmd_paper_table(config: ExperimentConfig) -> list:
    """Composed price-of-anarchy bounds for every mechanism family, from
    the relaxation smoothness and rounding loss its module states."""
    families = [
        ("multi-unit", packing.lp_smoothness(1), packing.rounding_alpha(1)),
        *(
            (f"d-sparse-{d}", packing.lp_smoothness(d), packing.rounding_alpha(d))
            for d in range(1, 6)
        ),
        ("maxtsp-fisher", maxtsp.CYCLE_COVER_SMOOTHNESS, maxtsp.FISHER_ALPHA),
        *(
            (f"flow-eps-{frac_str(eps)}", flows.GREEDY_SMOOTHNESS, flows.rt_alpha(eps))
            for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(1))
        ),
        ("xos", auctions.config_lp_smoothness(1), auctions.XOS_ALPHA),
        *(
            (f"mph-{k}", auctions.config_lp_smoothness(k), auctions.mph_alpha(k))
            for k in (1, 2, 3)
        ),
    ]
    rows = []
    t0 = time.monotonic()
    for name, params, alpha in families:
        results = {"lam": params.lam, "mu": params.mu}
        if isinstance(alpha, SymbolicAlpha):
            # composing a half-value bound multiplies its price of anarchy by
            # alpha, so the row reports the relaxation's own exact bound times
            # the symbol; the decimal twin, where known, uses floats
            coeff = poa_from_smoothness(params)
            results["alpha"] = alpha.name
            results["poa"] = f"{frac_str(coeff)}*{alpha.name}"
            if alpha.approx is not None:
                results["poa_decimal"] = round(float(coeff) * alpha.approx, 6)
        else:
            results["alpha"] = frac_str(alpha)
            results["poa"] = poa_from_smoothness(compose_smoothness(params, alpha))
        # each row's clock starts when the previous row was stamped
        rows.append(_mark(ReportRow(name, config, results), t0))
        t0 = time.monotonic()
    return rows


# ------------------------------------------------------ instance handling


def _load_instances(config: ExperimentConfig):
    """(auction kind, instance entries) of the file named by --instance."""
    if not config.instance:
        raise CLIError("this action needs --instance")
    try:
        with open(config.instance) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CLIError(f"cannot read instance file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CLIError(f"malformed JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise CLIError(
            f"instance file must hold a JSON object, not {type(data).__name__}"
        )
    if data.get("domain") != config.domain:
        raise CLIError(
            f"instance file is for domain {data.get('domain')!r}, not {config.domain!r}"
        )
    if not isinstance(data.get("instances"), list):
        raise CLIError("instance file needs an 'instances' list")
    kind = data.get("kind", "mph")
    if config.domain == "auctions" and kind not in ("symmetric", "mph"):
        raise CLIError(f"auctions kind must be 'symmetric' or 'mph', not {kind!r}")
    return kind, data["instances"]


def _gen_payload(config: ExperimentConfig, count: int) -> dict:
    seed = config.seed
    if config.domain == "packing":
        if config.d:
            insts = packing.gen_instances(
                "sparse-random", count, seed, n=3, K=3, L=max(config.d, 2), d=config.d
            )
        else:
            insts = packing.gen_instances(
                "multi-unit", count, seed, n=3, m=config.m or 4
            )
        return {"domain": "packing", "instances": [i.to_dict() for i in insts]}
    if config.domain == "flow":
        insts = flows.gen_flow_instances(count, seed)
        return {"domain": "flow", "instances": [i.to_dict() for i in insts]}
    if config.domain == "maxtsp":
        graphs = maxtsp.gen_digraphs(count, seed, sizes=(4, 5))
        return {"domain": "maxtsp", "instances": [g.to_dict() for g in graphs]}
    if config.k:
        pairs = auctions.gen_mph_instances(count, seed, k=config.k)
        return {
            "domain": "auctions",
            "kind": "mph",
            "instances": [
                {"m": m, "bids": [v.to_dict() for v in vals]} for m, vals in pairs
            ],
        }
    pairs = auctions.gen_symmetric_instances(count, seed)
    return {
        "domain": "auctions",
        "kind": "symmetric",
        "instances": [
            {"m": m, "levels": [[frac_str(x) for x in v.levels] for v in vals]}
            for m, vals in pairs
        ],
    }


def cmd_gen(config: ExperimentConfig) -> list:
    if not config.out:
        raise CLIError("gen needs --out to know where to write instances")
    t0 = time.monotonic()
    count = config.rounds or 5
    payload = _gen_payload(config, count)
    with open(config.out, "w") as fh:
        json.dump(payload, fh)
    row = ReportRow("gen", config, {"count": count, "file": config.out})
    return [_mark(row, t0)]


def _rule_for(config: ExperimentConfig, kind: str, idx: int, entry: dict):
    """(rule, truthful values) of instance entry idx: the domain's
    relax-and-round rule, or its relaxation alone where it has no round."""
    try:
        if config.domain == "packing":
            inst = packing.PackingInstance.from_dict(entry)
            return packing.lp_rule(inst), packing.truthful_bids(inst)
        if config.domain == "flow":
            inst = flows.FlowInstance.from_dict(entry)
            eps = config.eps if config.eps is not None else Fraction(1, 10)
            return flows.rt_rule(inst, eps), flows.truthful_flow_bids(inst)
        if config.domain == "maxtsp":
            g = maxtsp.CompleteDigraph.from_dict(entry)
            return maxtsp.fisher_rule(g), maxtsp.truthful_edge_bids(g)
        m = entry["m"]
        if kind == "symmetric":
            values = tuple(
                auctions.SymmetricValuation(i, [parse_frac(x) for x in levels])
                for i, levels in enumerate(entry["levels"])
            )
            return auctions.fair_rule(m), values
        values = tuple(
            auctions.MPHkValuation.from_dict(i, d) for i, d in enumerate(entry["bids"])
        )
        return auctions.config_lp_rule(len(values), m), values
    except KeyError as exc:
        raise CLIError(f"instance {idx} has no field {exc}") from exc


def cmd_solve(config: ExperimentConfig) -> list:
    kind, entries = _load_instances(config)
    rows = []
    for idx, entry in enumerate(entries):
        t0 = time.monotonic()
        rule, values = _rule_for(config, kind, idx, entry)
        value = rule.solve(values)[1]
        rows.append(_mark(ReportRow(f"solve-{idx}", config, {"value": value}), t0))
    return rows


def cmd_round(config: ExperimentConfig) -> list:
    kind, entries = _load_instances(config)
    rows = []
    for idx, entry in enumerate(entries):
        t0 = time.monotonic()
        rule, values = _rule_for(config, kind, idx, entry)
        if rule.round_stage is None:
            raise CLIError(f"the {rule.name} rule has no rounding stage")
        point, relaxed = rule.solve(values)
        outcome = rule.round_point(point, config.seed)
        rounded = sum((v.value(outcome) for v in values), Fraction(0))
        results = {"relaxed": relaxed, "rounded": rounded}
        rows.append(_mark(ReportRow(f"round-{idx}", config, results), t0))
    return rows


# ----------------------------------------------------------------- checks


def _smoothness_row(config, name, rule, values, bid_grid, params) -> ReportRow:
    t0 = time.monotonic()
    cert = check_smoothness(rule, [values], bid_grid, params)
    row = ReportRow(
        name,
        config,
        {
            "lam": params.lam,
            "mu": params.mu,
            "min_slack": cert.min_slack,
            "profiles": len(bid_grid),
        },
        verdict="holds" if cert.holds else "violated",
        witness=None if cert.holds else json.dumps(cert.witness, default=str),
    )
    return _mark(row, t0)


def cmd_check_smoothness(config: ExperimentConfig) -> list:
    res = config.grid
    if config.domain == "maxtsp":
        rows = []
        for t, g in enumerate(maxtsp.gen_digraphs(2, config.seed, sizes=(4,))):
            values = maxtsp.truthful_edge_bids(g)
            # one player per ordered vertex pair; scale profiles uniformly,
            # the per-player product grid would be 3^12 wide
            grid = [tuple(v.scale(th) for v in values) for th in theta_grid(res)]
            rule, params = maxtsp.cycle_cover_rule(g), maxtsp.CYCLE_COVER_SMOOTHNESS
            rows.append(
                _smoothness_row(config, f"cycle-cover-{t}", rule, values, grid, params)
            )
        return rows
    if config.domain == "packing" and config.m:
        # exact integral mechanism checked against the LP's bound at its own
        # equilibrium profile; large m makes every half-value deviation
        # worthless there
        ce = packing.gen_multiunit_counterexample(config.m)
        name, rule, values, grid = "multiunit-integral", ce.rule, ce.values, [ce.bids]
        params = packing.lp_smoothness(packing.column_sparsity(ce.instance))
    elif config.domain == "packing":
        inst = packing.gen_instances("multi-unit", 1, config.seed, n=2, m=3)[0]
        name, rule = "packing-lp", packing.lp_rule(inst)
        values = packing.truthful_bids(inst)
        grid = scaled_bid_profiles(values, theta_grid(res))
        params = packing.lp_smoothness(packing.column_sparsity(inst))
    elif config.domain == "flow":
        inst = _unit_edge_duopoly()
        name, rule = "flow-greedy", flows.fractional_rule(inst)
        values = flows.truthful_flow_bids(inst)
        grid = scaled_bid_profiles(values, theta_grid(res))
        params = flows.GREEDY_SMOOTHNESS
    else:
        m = config.m or 2
        # two bidders with additive values: the configuration LP at k = 1
        values = tuple(
            auctions.SymmetricValuation(i, tuple(Fraction(j) for j in range(m + 1)))
            for i in range(2)
        )
        grid = scaled_bid_profiles(values, theta_grid(res))
        name, rule = "config-lp", auctions.config_lp_rule(2, m)
        params = auctions.config_lp_smoothness(1)
    return [_smoothness_row(config, name, rule, values, grid, params)]


def cmd_check_lemma(config: ExperimentConfig) -> list:
    count = config.rounds or 25
    t0 = time.monotonic()
    if config.domain == "packing":
        sparsities = (config.d,) if config.d else (1, 2, 3)
        certs = packing.social_cost_suite(count, config.seed, sparsities)
        name, held = "pip-social-cost", [c.holds for c in certs]
    elif config.domain == "flow":
        name, held = "greedy-equals-lp", []
        for inst in flows.gen_flow_instances(count, config.seed):
            bids = flows.truthful_flow_bids(inst)
            _, greedy = flows.greedy_fractional_flow(inst, bids)
            held.append(greedy == flows.solve_path_lp(inst, bids))
    elif config.domain == "maxtsp":
        name, held = "cycle-cover-social-cost", []
        for g in maxtsp.gen_digraphs(count, config.seed, sizes=(4, 5)):
            bids = maxtsp.truthful_edge_bids(g)
            cover, _ = maxtsp.max_weight_cycle_cover(g)
            held.append(maxtsp.check_cc_social_cost(g, bids, cover).holds)
    else:
        k = config.k or 1
        pairs = (
            auctions.gen_mph_instances(count, config.seed, k=k)
            if k > 1
            else auctions.gen_xos_instances(count, config.seed)
        )
        name, held = "one-out-social-cost", []
        for m, values in pairs:
            x, _ = auctions.solve_config_lp(len(values), m, values)
            held.append(auctions.check_ca_social_cost(values, x, k).holds)
    results = {"checked": len(held), "held": sum(held)}
    row = ReportRow(name, config, results, "holds" if all(held) else "violated")
    return [_mark(row, t0)]


def cmd_counterexample(config: ExperimentConfig) -> list:
    m = config.m or 10
    t0 = time.monotonic()
    if config.domain == "packing":
        ce = packing.gen_multiunit_counterexample(m)
    elif config.domain == "flow":
        ce = flows.gen_flow_counterexample(m)
    elif config.domain == "auctions":
        ce = auctions.gen_symmetric_counterexample(m)
    else:
        raise CLIError("no equilibrium gap construction for this domain")
    cert = verify_pure_nash(ce.rule, ce.bids, ce.values, ce.deviations())
    row = ReportRow(
        "counterexample",
        config,
        {
            "m": m,
            "optimum": ce.optimum,
            "equilibrium_welfare": ce.equilibrium_welfare,
            "ratio": ce.ratio,
            "is_nash": cert.is_nash,
            "max_regret": cert.max_regret,
        },
        verdict="ok" if cert.is_nash else "violated",
    )
    return [_mark(row, t0)]


# --------------------------------------------------------------- dynamics


def _unit_edge_duopoly() -> flows.FlowInstance:
    """Two requests of demand 1, values 1 and 1/2, one shared unit edge."""
    graph = CapacitatedDigraph(2, [(0, 1, 1)])
    return flows.FlowInstance(graph, 0, [(1, 1, 1), (1, 1, Fraction(1, 2))])


def _dynamics_setup(config: ExperimentConfig):
    """(rule, truthful values, stated smoothness) Hedge runs on."""
    if config.domain == "flow":
        inst = _unit_edge_duopoly()
        rule, values = flows.fractional_rule(inst), flows.truthful_flow_bids(inst)
        return rule, values, flows.GREEDY_SMOOTHNESS
    if config.domain == "packing":
        ce = packing.gen_multiunit_counterexample(config.m or 4)
        params = packing.lp_smoothness(packing.column_sparsity(ce.instance))
        return packing.lp_rule(ce.instance), ce.values, params
    if config.domain == "auctions":
        m = config.m or 4
        values = auctions.gen_symmetric_counterexample(m).values
        params = compose_smoothness(
            auctions.CARDINALITY_LP_SMOOTHNESS, auctions.FAIR_ALPHA
        )
        return auctions.fair_rule(m), values, params
    g = maxtsp.gen_digraphs(1, config.seed, sizes=(3,))[0]
    rule, values = maxtsp.cycle_cover_rule(g), maxtsp.truthful_edge_bids(g)
    return rule, values, maxtsp.CYCLE_COVER_SMOOTHNESS


def cmd_dynamics(config: ExperimentConfig) -> list:
    t0 = time.monotonic()
    rule, values, params = _dynamics_setup(config)
    opt = rule.solve(values)[1]
    T = config.rounds or 2000
    grid = dynamics.StrategyGrid.uniform(len(values), config.grid)
    trace = dynamics.run_hedge(rule, values, grid, T, seed=config.seed)
    report = dynamics.empirical_poa(trace, opt, smoothness=params)
    holds, lhs, rhs = dynamics.check_trace_smoothness(trace, values, params, opt)
    row = ReportRow(
        "hedge",
        config,
        {
            "rounds": T,
            "opt": report.opt,
            "average_welfare": report.average_welfare,
            "ratio": report.ratio if report.ratio is not None else "inf",
            "poa_bound": report.bound,
            "max_external_regret": max(report.external_regret),
            "max_half_value_regret": max(report.half_value_regret),
            "trace_lhs": lhs,
            "trace_rhs": rhs,
        },
        verdict="holds" if holds else "violated",
    )
    return [_mark(row, t0)]


# ------------------------------------------------------------ entry point


HANDLERS = {
    "gen": cmd_gen,
    "solve": cmd_solve,
    "round": cmd_round,
    "check-smoothness": cmd_check_smoothness,
    "check-lemma": cmd_check_lemma,
    "counterexample": cmd_counterexample,
    "dynamics": cmd_dynamics,
    "paper-table": cmd_paper_table,
}


def write_rows(rows, out: Optional[str]) -> None:
    cells = [row.cells() for row in rows]
    if out is None:
        for c in cells:
            print("  ".join(f"{k}={c[k]}" for k in c))
        return
    if out.endswith(".json"):
        with open(out, "w") as fh:
            json.dump(cells, fh, indent=1)
        return
    if out.endswith(".csv"):
        header = []
        for c in cells:
            for k in c:
                if k not in header:
                    header.append(k)
        with open(out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=header, quoting=csv.QUOTE_ALL)
            writer.writeheader()
            writer.writerows(cells)
        return
    raise CLIError("--out must end in .csv or .json")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIError(message)


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> _Parser:
    p = _Parser(prog="anarchy", description=__doc__)
    p.add_argument("domain", choices=DOMAINS)
    p.add_argument("action", choices=ACTIONS)
    p.add_argument("--instance", help="instance file produced by gen")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d", type=_positive_int, help="constraint sparsity (packing)")
    p.add_argument(
        "--k", type=_positive_int, help="valuation hierarchy level (auctions)"
    )
    p.add_argument("--m", type=_positive_int, help="units/items/market size")
    p.add_argument("--eps", type=parse_frac, help="rounding slack as p/q")
    p.add_argument(
        "--rounds", type=_positive_int, help="learning rounds or trial count"
    )
    p.add_argument(
        "--grid", type=int, default=2, help="multiplier grid resolution (even)"
    )
    p.add_argument("--out", help="write rows to .csv or .json")
    return p


def main(argv=None) -> int:
    try:
        # the parser's destinations are exactly the config's fields
        config = ExperimentConfig(**vars(build_parser().parse_args(argv)))
        rows = HANDLERS[config.action](config)
        write_rows(rows, config.out if config.action != "gen" else None)
    except (CLIError, ValueError, TypeError, RuntimeError, OSError, KeyError) as exc:
        print(f"anarchy: error: {exc}", file=sys.stderr)
        return 1
    if any(row.verdict == "violated" for row in rows):
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
