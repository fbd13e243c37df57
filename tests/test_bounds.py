"""Each family's stated bound, tied to the CLI rows that report or check it.

A domain module states its relaxation's smoothness and its rounding's loss
once, beside its rules; paper-table composes them, and check-smoothness and
dynamics check rules against them. These tests recompute every such row from
the statements, so a row that restates a constant of its own shows up.
"""

from fractions import Fraction as Fr
from math import e

import pytest

from anarchy import auctions, flows, maxtsp, packing
from anarchy.cli import (
    ExperimentConfig,
    _dynamics_setup,
    _unit_edge_duopoly,
    cmd_check_smoothness,
    cmd_dynamics,
    cmd_paper_table,
)
from anarchy.mechanism import (
    HALF_VALUE,
    SymbolicAlpha,
    compose_smoothness,
    poa_from_smoothness,
)
from anarchy.rationals import frac_str


def stated_families():
    """(paper-table row, relaxation smoothness, rounding alpha) per statement."""
    out = [("multi-unit", packing.lp_smoothness(1), packing.rounding_alpha(1))]
    for d in range(1, 6):
        stated = packing.lp_smoothness(d), packing.rounding_alpha(d)
        out.append((f"d-sparse-{d}", *stated))
    out.append(("maxtsp-fisher", maxtsp.CYCLE_COVER_SMOOTHNESS, maxtsp.FISHER_ALPHA))
    for eps in (Fr(1, 10), Fr(1, 2), Fr(1)):
        name = f"flow-eps-{frac_str(eps)}"
        out.append((name, flows.GREEDY_SMOOTHNESS, flows.rt_alpha(eps)))
    out.append(("xos", auctions.config_lp_smoothness(1), auctions.XOS_ALPHA))
    for k in (1, 2, 3):
        stated = auctions.config_lp_smoothness(k), auctions.mph_alpha(k)
        out.append((f"mph-{k}", *stated))
    return out


def test_stated_bounds_are_the_papers():
    assert [packing.lp_smoothness(d).mu for d in range(1, 6)] == [2, 3, 4, 5, 6]
    assert [packing.rounding_alpha(d) for d in range(1, 6)] == [8, 16, 24, 32, 40]
    assert flows.rt_alpha(Fr(1, 10)) == Fr(11, 10)
    assert (flows.GREEDY_SMOOTHNESS.lam, flows.GREEDY_SMOOTHNESS.mu) == (Fr(1, 2), 1)
    assert maxtsp.CYCLE_COVER_SMOOTHNESS.mu == 3 and maxtsp.FISHER_ALPHA == 2
    assert [auctions.config_lp_smoothness(k).mu for k in (1, 2, 3)] == [2, 3, 4]
    assert auctions.CARDINALITY_LP_SMOOTHNESS.mu == 2 and auctions.FAIR_ALPHA == 16
    assert auctions.mph_alpha(2) == SymbolicAlpha("alpha_2")
    # every relaxation is stated for half-value deviations at lam = 1/2, so
    # composing with alpha multiplies its price-of-anarchy bound by alpha
    for _, params, _ in stated_families():
        assert params.deviation == HALF_VALUE and params.lam == Fr(1, 2)


def test_paper_table_rows_are_the_stated_bounds():
    table = cmd_paper_table(ExperimentConfig("auctions", "paper-table"))
    rows = {r.name: r.results for r in table}
    families = stated_families()
    assert sorted(rows) == sorted(name for name, _, _ in families)
    assert len(rows) == 14
    for name, params, alpha in families:
        row = rows[name]
        assert (row["lam"], row["mu"]) == (params.lam, params.mu), name
        if isinstance(alpha, SymbolicAlpha):
            coeff = poa_from_smoothness(compose_smoothness(params, 1))
            assert row["alpha"] == alpha.name, name
            assert row["poa"] == f"{frac_str(coeff)}*{alpha.name}", name
            assert ("poa_decimal" in row) == (alpha.approx is not None), name
        else:
            assert row["alpha"] == frac_str(alpha), name
            assert row["poa"] == poa_from_smoothness(compose_smoothness(params, alpha))
    assert rows["multi-unit"] == rows["d-sparse-1"]
    assert rows["xos"]["poa_decimal"] == round(4 * e / (e - 1), 6)


@pytest.mark.parametrize(
    "domain, m, stated",
    [
        # the multi-unit instances have one row, so column sparsity 1
        ("packing", None, packing.lp_smoothness(1)),
        ("packing", 12, packing.lp_smoothness(1)),
        ("flow", None, flows.GREEDY_SMOOTHNESS),
        ("maxtsp", None, maxtsp.CYCLE_COVER_SMOOTHNESS),
        # two additive bidders: the configuration LP's level k = 1
        ("auctions", None, auctions.config_lp_smoothness(1)),
    ],
)
def test_check_smoothness_rows_read_the_statement(domain, m, stated):
    rows = cmd_check_smoothness(ExperimentConfig(domain, "check-smoothness", m=m))
    assert rows
    for row in rows:
        assert (row.results["lam"], row.results["mu"]) == (stated.lam, stated.mu)
    # the integral multi-unit rule is checked against the LP's bound to fail it
    assert all(row.verdict == ("violated" if m else "holds") for row in rows)


@pytest.mark.parametrize(
    "domain, stated",
    [
        ("packing", packing.lp_smoothness(1)),
        ("flow", flows.GREEDY_SMOOTHNESS),
        ("maxtsp", maxtsp.CYCLE_COVER_SMOOTHNESS),
        (
            "auctions",
            compose_smoothness(
                auctions.CARDINALITY_LP_SMOOTHNESS, auctions.FAIR_ALPHA
            ),
        ),
    ],
)
def test_dynamics_rows_read_the_statement(domain, stated):
    config = ExperimentConfig(domain, "dynamics", rounds=1)
    rule, values, params = _dynamics_setup(config)
    assert params == stated
    if domain == "packing":
        # Hedge runs on the rule whose bound the row reports
        assert rule.name == "packing-lp"
    (row,) = cmd_dynamics(config)
    assert row.results["poa_bound"] == poa_from_smoothness(stated)
    assert row.results["opt"] == rule.solve(values)[1]
    if domain == "flow":
        # the greedy flow's value is the path LP's
        assert row.results["opt"] == flows.solve_path_lp(_unit_edge_duopoly(), values)
