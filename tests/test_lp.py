from __future__ import annotations

import random
from fractions import Fraction

import pytest

from anarchy import StructuralError
from anarchy.solvers import OPTIMAL, UNBOUNDED, IntegerProgram, solve_lp

from oracles import LinearProgram, _compile, lp_opt_by_vertex_enum

F = Fraction


def test_two_box_constraints():
    lp = LinearProgram([1, 1], [[1, 0], [0, 1]], [1, 1])
    sol = solve_lp(_compile(lp))
    assert sol.status == OPTIMAL
    assert sol.value == 2
    assert sol.x == (F(1), F(1))


def test_unbounded_without_constraints():
    lp = LinearProgram([1], [], [])
    assert solve_lp(_compile(lp)).status == UNBOUNDED


def test_unbounded_direction_detected():
    # x - y can grow along x with y = 0 pinned by nothing.
    lp = LinearProgram([1, 0], [[-1, 1]], [3])
    assert solve_lp(_compile(lp)).status == UNBOUNDED


def test_dimension_mismatch_rejected():
    with pytest.raises(StructuralError):
        LinearProgram([1, 2], [[1, 0]], [1, 2])
    with pytest.raises(StructuralError):
        LinearProgram([1, 2], [[1, 0, 0]], [1])


def test_negative_rhs_rejected():
    # Programs are in packing form, so x = 0 must be feasible.
    with pytest.raises(StructuralError, match="rhs entry 0"):
        LinearProgram([1], [[1]], [-1])


def test_integer_program_shape_and_rhs_checked():
    with pytest.raises(StructuralError, match="row 0 is not 2 coefficients"):
        IntegerProgram([F(1), F(2)], [[1, 0]])
    with pytest.raises(StructuralError, match="row 1 is not 1 coefficients and an rhs >= 0"):
        IntegerProgram([F(1)], [[1, 2], [1, -1]])
    # Fraction rows would be floored by the exact integer divisions, and
    # this program solved to 2 instead of 12/5
    with pytest.raises(StructuralError, match="row 0 holds a value that is not an int"):
        IntegerProgram([F(1), F(1)], [[F(1, 2), F(1, 3), 1], [F(1, 3), F(1, 2), 1]])


def test_both_program_forms_solve_alike():
    # the rows x/2 + 3y/4 <= 7/8 and 5x/6 + y/9 <= 2/3 times 8 and 18
    lp = LinearProgram(
        [F(1, 3), F(2, 7)],
        [[F(1, 2), F(3, 4)], [F(5, 6), F(1, 9)]],
        [F(7, 8), F(2, 3)],
    )
    compiled = IntegerProgram(lp.objective, [[4, 6, 7], [15, 2, 12]])
    assert solve_lp(compiled) == solve_lp(_compile(lp))


def test_fractional_data_solved_exactly():
    lp = LinearProgram(
        [F(1, 3), F(2, 7)],
        [[F(1, 2), F(3, 4)], [F(5, 6), F(1, 9)]],
        [F(7, 8), F(2, 3)],
    )
    sol = solve_lp(_compile(lp))
    oracle = lp_opt_by_vertex_enum(lp.objective, lp.rows, lp.rhs)
    assert sol.status == OPTIMAL
    assert sol.value == oracle


def test_degenerate_program_terminates():
    # Many redundant tight constraints at the optimum; Bland's rule must
    # still terminate and agree with enumeration.
    lp = LinearProgram(
        [1, 1, 1],
        [[1, 1, 1], [1, 1, 1], [1, 1, 0], [0, 1, 1], [1, 0, 1]],
        [1, 1, 1, 1, 1],
    )
    sol = solve_lp(_compile(lp))
    oracle = lp_opt_by_vertex_enum(lp.objective, lp.rows, lp.rhs)
    assert sol.status == OPTIMAL
    assert sol.value == oracle


def test_random_programs_match_vertex_enumeration():
    rng = random.Random(20260816)
    for trial in range(120):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        objective = [F(rng.randint(0, 8), rng.randint(1, 3)) for _ in range(n)]
        rows = [
            [F(rng.randint(0, 5), rng.randint(1, 2)) for _ in range(n)]
            for _ in range(m)
        ]
        rhs = [F(rng.randint(0, 12), rng.randint(1, 2)) for _ in range(m)]
        # A box row keeps every program bounded so the oracle applies.
        rows.append([F(1)] * n)
        rhs.append(F(rng.randint(1, 10)))
        lp = LinearProgram(objective, rows, rhs)
        sol = solve_lp(_compile(lp))
        oracle = lp_opt_by_vertex_enum(objective, rows, rhs)
        assert sol.status == OPTIMAL
        assert sol.value == oracle, f"trial {trial}: {sol.value} != {oracle}"
        # The reported point must be feasible and consistent with the value.
        for row, b in zip(rows, rhs):
            assert sum(a * v for a, v in zip(row, sol.x)) <= b
        assert all(v >= 0 for v in sol.x)
        assert sum(c * v for c, v in zip(objective, sol.x)) == sol.value


def test_weak_duality_spot_check():
    # Scaled-down copies of the optimum stay feasible and never beat it.
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        objective = [F(rng.randint(0, 6)) for _ in range(n)]
        rows = [[F(rng.randint(0, 4)) for _ in range(n)] for _ in range(m)]
        rhs = [F(rng.randint(0, 9)) for _ in range(m)]
        rows.append([F(1)] * n)
        rhs.append(F(rng.randint(1, 8)))
        lp = LinearProgram(objective, rows, rhs)
        sol = solve_lp(_compile(lp))
        assert sol.status == OPTIMAL
        for _ in range(5):
            scale = F(rng.randint(0, 16), 16)
            point = [scale * v for v in sol.x]
            assert all(
                sum(a * v for a, v in zip(row, point)) <= b
                for row, b in zip(rows, rhs)
            )
            assert sum(c * v for c, v in zip(objective, point)) <= sol.value
