from __future__ import annotations

import random
from fractions import Fraction

import pytest

from anarchy import InfeasibleMatchingError, StructuralError
from anarchy.solvers import WeightMatrix, matching, max_weight_perfect_matching

from oracles import matching_by_permutations

F = Fraction


def test_two_by_two_plain():
    wm = WeightMatrix([[2, 1], [1, 2]])
    perm, value = max_weight_perfect_matching(wm)
    assert perm == (0, 1)
    assert value == 4


def test_two_by_two_forbidden_diagonal():
    wm = WeightMatrix([[None, 1], [1, None]])
    perm, value = max_weight_perfect_matching(wm)
    assert perm == (1, 0)
    assert value == 2


def test_all_equal_weights_lexicographic_tie_break():
    wm = WeightMatrix([[1, 1, 1]] * 3)
    perm, value = max_weight_perfect_matching(wm)
    assert perm == (0, 1, 2)
    assert value == 3


def test_singleton_forbidden_is_infeasible():
    wm = WeightMatrix([[None]])
    with pytest.raises(InfeasibleMatchingError):
        max_weight_perfect_matching(wm)


def test_blocked_column_is_infeasible():
    entries = [[1, None], [1, None]]
    with pytest.raises(InfeasibleMatchingError):
        max_weight_perfect_matching(WeightMatrix(entries))


def test_negative_weight_rejected():
    with pytest.raises(StructuralError):
        WeightMatrix([[F(-1)]])


def test_empty_matrix():
    perm, value = max_weight_perfect_matching(WeightMatrix([]))
    assert perm == ()
    assert value == 0


def weight_draws(rng):
    """Rational weights, 0/1 weights and all-equal weights (dense ties)."""
    return (
        lambda: F(rng.randint(0, 9), rng.randint(1, 3)),
        lambda: F(rng.randint(0, 1)),
        lambda: F(1),
    )


def test_random_matrices_match_brute_force():
    rng = random.Random(99)
    draws = weight_draws(rng)
    for trial in range(240):
        n = rng.randint(1, 7)
        draw = draws[trial % 3]
        forbid = 0.2 if trial % 2 else 0.0
        entries = []
        for i in range(n):
            row = []
            for j in range(n):
                if rng.random() < forbid and i != (j + 1) % n:
                    # forbid some cells but keep the shifted permutation
                    # available so a perfect matching always exists
                    row.append(None)
                else:
                    row.append(draw())
            entries.append(row)
        got_perm, got_value = max_weight_perfect_matching(WeightMatrix(entries))
        want_perm, want_value = matching_by_permutations(entries)
        assert got_value == want_value, f"trial {trial}"
        assert got_perm == want_perm, f"trial {trial}: lex tie-break diverged"


def test_random_forbidden_diagonal_matches_brute_force():
    rng = random.Random(1234)
    draws = weight_draws(rng)
    for trial in range(120):
        n = rng.randint(2, 7)
        draw = draws[trial % 3]
        masked = [[None if i == j else draw() for j in range(n)] for i in range(n)]
        got_perm, got_value = max_weight_perfect_matching(WeightMatrix(masked))
        want_perm, want_value = matching_by_permutations(masked)
        assert (got_perm, got_value) == (want_perm, want_value), f"trial {trial}"


def test_one_assignment_solve_per_matching(monkeypatch):
    calls = []
    real = matching._assignment

    def counted(costs):
        calls.append(costs)
        return real(costs)

    monkeypatch.setattr(matching, "_assignment", counted)
    rng = random.Random(7)
    for n in range(8):
        calls.clear()
        max_weight_perfect_matching(
            WeightMatrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)])
        )
        assert len(calls) == 1, n
    calls.clear()
    with pytest.raises(InfeasibleMatchingError):
        max_weight_perfect_matching(WeightMatrix([[1, None], [1, None]]))
    assert len(calls) == 1
