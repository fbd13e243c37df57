"""Exact linear programming over rationals.

Programs are maximization problems in packing form

    max  c . x    subject to    A x <= b,  x >= 0,  with  b >= 0,

so x = 0 is feasible; every relaxation the package builds has this form.
`solve_lp` takes one form, an `IntegerProgram`: each row, rhs last, is its
constraint times some positive number that makes it integral, and the
objective stays in Fractions. `mechanism.relaxation` builds every program
the package solves in this form. A positive row scaling changes no sign
test and no ratio order, so any two integral scalings of one program take
the same pivots and reach the same vertex.

The solver is a one-phase dense tableau simplex started from the slack
basis, using Bland's smallest-index pivot rule, so it cannot cycle and every
run is deterministic; ties in the ratio test break toward the lowest basic
variable index. The tableau holds Python ints over one positive common
denominator and pivots fraction-free (Edmonds 1967; Bareiss 1968): each
update is an exact integer division by the previous pivot. Fractions appear
only when the vertex is read out, so optima are exact and the vertex is the
one a Fraction tableau would reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ..errors import StructuralError
from ..rationals import F0, scale_to_integers

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class IntegerProgram:
    """max objective . x  s.t.  rows[i][:-1] . x <= rows[i][-1],  x >= 0.

    rows are ints with the rhs last, rhs >= 0; the objective stays in
    Fractions and the solver scales it by the lcm of its denominators. A
    row holding anything but ints is refused: the pivots divide exactly
    only in ints."""

    objective: Sequence
    rows: Sequence

    def __post_init__(self):
        n = len(self.objective)
        for i, row in enumerate(self.rows):
            if len(row) != n + 1 or row[-1] < 0:
                raise StructuralError(
                    f"integer row {i} is not {n} coefficients and an rhs >= 0"
                )
            if type(sum(row)) is not int:
                raise StructuralError(
                    f"integer row {i} holds a value that is not an int"
                )


@dataclass(frozen=True)
class LPSolution:
    status: str
    x: Optional[tuple]
    value: Optional[Fraction]

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def _pivot(tableau, obj, basis, det, prow_idx, pcol) -> int:
    """Fraction-free pivot on tableau[prow_idx][pcol]; returns the new det.

    Every other row, and the objective row, becomes
    (row * p - row[pcol] * prow) / det, an exact division (Bareiss); the
    pivot row is kept and its entry p > 0 becomes the common denominator.
    """
    prow = tableau[prow_idx]
    p = prow[pcol]
    for r, row in enumerate(tableau):
        if r != prow_idx:
            tableau[r] = _eliminate(row, prow, row[pcol], p, det)
    obj[:] = _eliminate(obj, prow, obj[pcol], p, det)
    basis[prow_idx] = pcol
    return p


def _eliminate(row, prow, f, p, det) -> list:
    """(row * p - f * prow) / det; a row with f = 0 is only rescaled."""
    if not f:
        if p == det:
            return row
        return [a * p // det for a in row]
    return [(a * p - f * b) // det for a, b in zip(row, prow)]


def _run_simplex(tableau, obj, basis, det, ncols):
    """Bland's rule loop. Returns (det, None) on optimality, or
    (det, the unbounded column)."""
    while True:
        pcol = -1
        for j in range(ncols):
            if obj[j] > 0:
                pcol = j
                break
        if pcol < 0:
            return det, None
        # Ratio test: least rhs / row[pcol] over the positive entries, compared
        # by cross-multiplying; ties go to the lowest basic variable index.
        prow_idx = -1
        for r, row in enumerate(tableau):
            a = row[pcol]
            if a > 0:
                if prow_idx >= 0:
                    lhs = row[-1] * best_a
                    rhs = best_b * a
                    if lhs > rhs or (lhs == rhs and basis[r] > basis[prow_idx]):
                        continue
                prow_idx, best_a, best_b = r, a, row[-1]
        if prow_idx < 0:
            return det, pcol
        det = _pivot(tableau, obj, basis, det, prow_idx, pcol)


def solve_lp(program: IntegerProgram) -> LPSolution:
    """Optimum of an IntegerProgram by the fraction-free simplex."""
    objective = program.objective
    n = len(objective)
    m = len(program.rows)
    ncols = n + m

    # Integer tableau [A | I | b]: each compiled row is a positive multiple
    # s_i of its constraint and its slack column stays at 1, so the slack
    # basis has det = 1. That is a positive row scaling plus the substitution
    # slack_i -> slack_i / s_i, so every sign test and ratio order, hence
    # every pivot, is unchanged.
    tableau = []
    for i, ints in enumerate(program.rows):
        full = list(ints[:n]) + [0] * m + [ints[n]]
        full[n + i] = 1
        tableau.append(full)
    basis = list(range(n, ncols))

    # Objective row: the objective times sigma, the lcm of its denominators.
    # Slacks cost nothing, so against the slack basis it is already priced
    # out. Its last entry is -sigma * det times the current value.
    cost, sigma = scale_to_integers(objective)
    obj = cost + [0] * (m + 1)
    det, unbounded_col = _run_simplex(tableau, obj, basis, 1, ncols)
    if unbounded_col is not None:
        return LPSolution(UNBOUNDED, None, None)

    x = [F0] * n
    for r, col in enumerate(basis):
        if col < n:
            x[col] = Fraction(tableau[r][-1], det)
    return LPSolution(OPTIMAL, tuple(x), Fraction(-obj[-1], sigma * det))
