"""Identity gate for the fraction-free simplex.

`solve_lp` pivots on an integer tableau over one common denominator. It
must reach the very vertex that a plain Fraction tableau with the same
Bland's rule and ratio-test tie-break reaches, because the rounders read
that vertex. Every test here asserts (status, x, value) equal to
`oracles.solve_lp_reference`.
"""

from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anarchy import auctions, flows, packing
from anarchy.solvers import IntegerProgram, solve_lp
from anarchy.solvers import lp as lp_module

import oracles
from oracles import LinearProgram, _compile, solve_lp_reference

F = Fraction


def assert_same_as_reference(lp, sol=None):
    sol = solve_lp(_compile(lp)) if sol is None else sol
    expected = solve_lp_reference(lp.objective, lp.rows, lp.rhs)
    assert (sol.status, sol.x, sol.value) == expected, lp


def recording(pivot, log):
    def wrapper(*args):
        log.append(args[-2:])  # (pivot row, pivot column)
        return pivot(*args)

    return wrapper


def assert_same_pivots_as_reference(lp, program=None):
    """Both tableaus take the same pivots in the same order. Two pivot
    paths can end on one vertex, so this sees a changed entering or
    leaving choice that (status, x, value) alone may not. program, if
    given, is a compiled form of lp that solve_lp runs instead."""
    got, expected = [], []
    with patch.object(lp_module, "_pivot", recording(lp_module._pivot, got)), patch.object(
        oracles, "_ref_pivot", recording(oracles._ref_pivot, expected)
    ):
        program = _compile(lp) if program is None else program
        assert_same_as_reference(lp, solve_lp(program))
    assert got == expected, lp


def assert_stands_for(program, lp):
    """program is lp in ints: the same objective, and each integer row a
    positive multiple of lp's row with its rhs, in lp's row order."""
    assert list(program.objective) == list(lp.objective)
    assert len(program.rows) == len(lp.rows)
    for ints, row, b in zip(program.rows, lp.rows, lp.rhs):
        ref = row + (b,)
        assert len(ints) == len(ref)
        j = next((j for j, a in enumerate(ref) if a), None)
        if j is None:
            assert not any(ints)
            continue
        t = ints[j] / ref[j]
        assert t > 0 and all(a == t * r for a, r in zip(ints, ref))


@pytest.fixture
def recorded(monkeypatch):
    """Every (program, solution) the library solves while the fixture is
    live. Each program enters solve_lp as a mechanism.relaxation in ints;
    it is recorded as the Fraction program its caller stands for, read off
    the instance data by oracles.packing_program (full, residual,
    configuration and cardinality programs) or oracles.path_program (path
    LPs), and each integer row must be a positive multiple of its row
    there. So the comparison also holds the builder to the program it
    stands for."""
    calls, solved = [], []

    def recorder(program):
        sol = solve_lp(program)
        solved.append((program, sol))
        return sol

    def stands_for(module, name, reference):
        solve = getattr(module, name)

        def wrapper(*args):
            out = solve(*args)
            if solved:
                [(program, sol)] = solved
                assert isinstance(program, IntegerProgram)
                # the caller returns the value of the solve recorded for it
                assert (out if isinstance(out, Fraction) else out[1]) == sol.value
                lp = LinearProgram(*reference(*args))
                assert_stands_for(program, lp)
                calls.append((lp, sol))
                solved.clear()
            return out

        monkeypatch.setattr(module, name, wrapper)

    def full(inst, bids):
        return oracles.packing_program(inst, bids, range(inst.n), inst.capacities)

    def residual(inst, bids, excluded, capacities):
        others = [i for i in range(inst.n) if i != excluded]
        return oracles.packing_program(inst, bids, others, capacities)

    def cardinality(m, bids):
        return full(*oracles.cardinality_instance(m, bids))

    for module in (packing, auctions, flows):
        monkeypatch.setattr(module, "solve_lp", recorder)
    # solve_config_lp calls solve_packing_lp through auctions' own binding
    stands_for(packing, "solve_packing_lp", full)
    stands_for(auctions, "solve_packing_lp", full)
    stands_for(packing, "residual_welfare", residual)
    stands_for(auctions, "solve_cardinality_lp", cardinality)
    stands_for(flows, "solve_path_lp", oracles.path_program)
    yield calls
    assert solved == []  # every solve was made on behalf of a recorded caller


def test_library_programs_match_the_reference(recorded):
    sizes = []
    packing.social_cost_suite(30, 5)
    sizes.append(len(recorded))
    for k, pairs in (
        (1, auctions.gen_xos_instances(10, seed=51)),
        (2, auctions.gen_mph_instances(10, seed=52, k=2)),
    ):
        for m, values in pairs:
            x, _ = auctions.solve_config_lp(len(values), m, values)
            auctions.check_ca_social_cost(values, x, k)
    sizes.append(len(recorded))
    for m, values in auctions.gen_symmetric_instances(40, seed=71):
        auctions.solve_cardinality_lp(m, values)
    sizes.append(len(recorded))
    for inst in flows.gen_flow_instances(20, seed=91):
        flows.solve_path_lp(inst, flows.truthful_flow_bids(inst))
    sizes.append(len(recorded))
    # every source contributed. Packing certificates: 30 full programs and
    # two per residual pair whose share consumes capacity (68 of 117; the
    # other pairs are the same program twice and are not solved).
    # Configuration certificates: 20 solves, 20 full programs, two per
    # consuming pair (28 of 43). One LP per cardinality call, and the
    # routable path LPs.
    per_source = [b - a for a, b in zip([0] + sizes, sizes)]
    assert per_source == [30 + 2 * 68, 40 + 2 * 28, 40, 17]
    for lp, sol in recorded:
        assert_same_as_reference(lp, sol)


signed = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
nonnegative = st.builds(F, st.integers(0, 4), st.integers(1, 3))


@st.composite
def signed_programs(draw):
    """Up to 4 variables and 5 rows of small signed rationals over a
    nonnegative rhs, so some programs are unbounded. A scaled copy of the
    first row makes a redundant constraint, a negated copy (same rhs) a
    degenerate one."""
    n = draw(st.integers(0, 4))
    m = draw(st.integers(0, 5))
    objective = [draw(signed) for _ in range(n)]
    rows = [[draw(signed) for _ in range(n)] for _ in range(m)]
    rhs = [draw(nonnegative) for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        k = draw(st.sampled_from((-1, 1, 2)))
        rows[1] = [k * a for a in rows[0]]
    return LinearProgram(objective, rows, rhs)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(signed_programs())
def test_signed_programs_match_the_reference(lp):
    assert_same_pivots_as_reference(lp)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(signed_programs(), st.lists(st.integers(1, 6), min_size=5, max_size=5))
def test_integer_programs_with_scaled_rows_match_the_reference(lp, scales):
    # any positive multiple of each compiled row is the same program
    rows = [
        [a * s for a in row] for row, s in zip(_compile(lp).rows, scales)
    ]
    assert_same_pivots_as_reference(lp, IntegerProgram(lp.objective, rows))
