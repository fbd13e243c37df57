"""Exact linear programming over rationals.

Programs are maximization problems in the inequality form

    max  c . x    subject to    A x <= b,  x >= 0.

The solver is a two-phase dense tableau simplex using Bland's smallest-index
pivot rule, so it cannot cycle and every run is deterministic; ties in the
ratio test break toward the lowest basic variable index. The tableau holds
Python ints over one positive common denominator and pivots fraction-free
(Edmonds 1967; Bareiss 1968): each update is an exact integer division by
the previous pivot. Fractions appear only when the vertex is read out, so
optima are exact and the vertex is the one a Fraction tableau would reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from ..errors import StructuralError
from ..rationals import F0, frac

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """max objective . x  s.t.  rows[i] . x <= rhs[i],  x >= 0."""

    objective: tuple
    rows: tuple
    rhs: tuple

    def __init__(self, objective: Sequence, rows: Sequence[Sequence], rhs: Sequence):
        objective = tuple(frac(v) for v in objective)
        rows = tuple(tuple(frac(v) for v in row) for row in rows)
        rhs = tuple(frac(v) for v in rhs)
        if len(rows) != len(rhs):
            raise StructuralError(
                f"matrix has {len(rows)} rows but rhs has {len(rhs)} entries"
            )
        for row in rows:
            if len(row) != len(objective):
                raise StructuralError(
                    f"row of width {len(row)} does not match objective width {len(objective)}"
                )
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class LPSolution:
    status: str
    x: Optional[tuple]
    value: Optional[Fraction]

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def _integer_row(values) -> tuple:
    """(scale, ints): the lcm of the rationals' denominators and the
    rationals times it."""
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def _pivot(tableau, obj, basis, det, prow_idx, pcol) -> int:
    """Fraction-free pivot on tableau[prow_idx][pcol]; returns the new det.

    Every other row, and the objective row, becomes
    (row * p - row[pcol] * prow) / det, an exact division (Bareiss); the
    pivot row is kept and its entry p becomes the common denominator. A
    negative p (only in phase 1's drive-out) is renormalised by negating
    everything, so det stays positive and signs read as in the true tableau.
    """
    prow = tableau[prow_idx]
    p = prow[pcol]
    for r, row in enumerate(tableau):
        if r != prow_idx:
            tableau[r] = _eliminate(row, prow, row[pcol], p, det)
    obj[:] = _eliminate(obj, prow, obj[pcol], p, det)
    basis[prow_idx] = pcol
    if p < 0:
        for r, row in enumerate(tableau):
            tableau[r] = [-a for a in row]
        obj[:] = [-a for a in obj]
        p = -p
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


def solve_lp(lp: LinearProgram) -> LPSolution:
    n = lp.num_vars
    m = lp.num_rows
    art_rows = [i for i in range(m) if lp.rhs[i] < 0]
    ncols = n + m + len(art_rows)

    # Integer tableau [A | I | artificials | b]: row i of A with its rhs is
    # scaled by the lcm s_i of its denominators and the slack and artificial
    # columns stay at +-1, so the starting basis has det = 1. That is a
    # positive row scaling plus the substitution slack_i -> slack_i / s_i
    # (and artificial_i -> artificial_i / s_i), so every sign test and ratio
    # order, hence every pivot, is unchanged. A row with a negative rhs is
    # negated and given an artificial basic variable.
    tableau = []
    basis = []
    scales = []
    for i, row in enumerate(lp.rows):
        scale, ints = _integer_row(row + (lp.rhs[i],))
        scales.append(scale)
        full = ints[:n] + [0] * (ncols - n) + ints[n:]
        full[n + i] = 1
        col = n + i
        if ints[n] < 0:
            full = [-a for a in full]
            col = n + m + art_rows.index(i)
            full[col] = 1
        tableau.append(full)
        basis.append(col)
    det = 1

    if art_rows:
        # Phase 1: maximize -(sum of artificials); feasible iff optimum is 0.
        # Artificial i is scaled by 1/s_i, so its row enters the objective
        # with weight 1/s_i; the lcm of those s_i times that is an integer
        # row, a positive multiple of the Fraction tableau's.
        common = lcm(*(scales[i] for i in art_rows))
        obj = [0] * (ncols + 1)
        for i in art_rows:
            w = common // scales[i]
            obj = [a + w * b for a, b in zip(obj, tableau[i])]
        for j in range(n + m, ncols):
            obj[j] = 0
        det, unbounded_col = _run_simplex(tableau, obj, basis, det, ncols)
        assert unbounded_col is None  # phase 1 objective is bounded above by 0
        if obj[-1]:
            # obj[-1] is a positive multiple of -(phase 1 value), i.e. of the
            # artificial mass left over.
            return LPSolution(INFEASIBLE, None, None)
        # Drive any artificial still in the basis out of it (degenerate rows).
        # [A | +-I] has full row rank, so every row of B^-1 [A | +-I] is
        # nonzero and a pivot column always exists.
        for r in range(m):
            if basis[r] >= n + m:
                row = tableau[r]
                pcol = next(j for j in range(n + m) if row[j])
                det = _pivot(tableau, obj, basis, det, r, pcol)
        # Strip artificial columns (they sit at the end, so indices are stable).
        for row in tableau:
            del row[n + m : -1]
        ncols = n + m

    # Phase 2 objective row, scaled to integers and priced out against the
    # current basis: det * c - sum of c_B * row.
    _, cost = _integer_row(lp.objective)
    obj = [det * v for v in cost] + [0] * (ncols - n + 1)
    for r, row in enumerate(tableau):
        cb = cost[basis[r]] if basis[r] < n else 0
        if cb:
            obj = [a - cb * b for a, b in zip(obj, row)]
    det, unbounded_col = _run_simplex(tableau, obj, basis, det, ncols)
    if unbounded_col is not None:
        return LPSolution(UNBOUNDED, None, None)

    x = [F0] * n
    for r, col in enumerate(basis):
        if col < n:
            x[col] = Fraction(tableau[r][-1], det)
    value = sum((c * v for c, v in zip(lp.objective, x) if v), F0)
    return LPSolution(OPTIMAL, tuple(x), value)
