"""Maximum-weight perfect matching on square rational matrices.

Forbidden cells are modeled as absent edges, so a matrix with a forbidden
diagonal yields exactly the fixed-point-free permutations needed for cycle
covers. The core is a shortest-augmenting-path assignment solver with dual
potentials, run on negated weights; a refinement pass then pins down the
lexicographically smallest permutation among the maximizers, which keeps
every downstream tie-break deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ..errors import InfeasibleMatchingError, StructuralError
from ..rationals import F0, frac


@dataclass(frozen=True)
class WeightMatrix:
    """Square matrix of nonnegative weights; None marks a forbidden cell."""

    entries: tuple

    def __init__(self, entries: Sequence[Sequence]):
        rows = []
        n = len(entries)
        for row in entries:
            if len(row) != n:
                raise StructuralError("weight matrix must be square")
            out = []
            for w in row:
                if w is None:
                    out.append(None)
                    continue
                w = frac(w)
                if w < 0:
                    raise StructuralError("matching weights must be nonnegative")
                out.append(w)
            rows.append(tuple(out))
        object.__setattr__(self, "entries", tuple(rows))

    @property
    def n(self) -> int:
        return len(self.entries)

    def allowed(self, i: int, j: int) -> bool:
        return self.entries[i][j] is not None


def _assignment_value(wm: WeightMatrix, rows: Sequence[int], cols: Sequence[int]):
    """Best total weight of a perfect matching of rows onto cols, or None.

    Shortest augmenting paths on negated weights with potentials (the
    classic O(k^3) assignment scheme), all arithmetic exact.
    """
    k = len(rows)
    if k != len(cols):
        raise StructuralError("assignment requires equally many rows and columns")
    if k == 0:
        return F0
    ent = wm.entries
    u = [F0] * (k + 1)
    v = [F0] * (k + 1)
    p = [0] * (k + 1)
    way = [0] * (k + 1)
    for i in range(1, k + 1):
        p[0] = i
        j0 = 0
        minv: list = [None] * (k + 1)
        used = [False] * (k + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = None
            j1 = -1
            r = rows[i0 - 1]
            for j in range(1, k + 1):
                if used[j]:
                    continue
                w = ent[r][cols[j - 1]]
                if w is not None:
                    cur = -w - u[i0] - v[j]
                    if minv[j] is None or cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                if minv[j] is not None and (delta is None or minv[j] < delta):
                    delta = minv[j]
                    j1 = j
            if delta is None:
                return None
            for j in range(k + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                elif minv[j] is not None:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    total = F0
    for j in range(1, k + 1):
        total += wm.entries[rows[p[j] - 1]][cols[j - 1]]
    return total


def max_weight_perfect_matching(wm: WeightMatrix):
    """Returns (permutation, value): permutation[i] is the column of row i.

    Among all maximum-weight perfect matchings, returns the lexicographically
    smallest permutation. Raises InfeasibleMatchingError when the forbidden
    cells leave no perfect matching at all.
    """
    n = wm.n
    total = _assignment_value(wm, range(n), range(n))
    if total is None:
        raise InfeasibleMatchingError("no perfect matching avoids the forbidden cells")
    perm = []
    free_cols = list(range(n))
    acc = F0
    for i in range(n):
        rest_rows = range(i + 1, n)
        chosen = -1
        for j in free_cols:
            w = wm.entries[i][j]
            if w is None:
                continue
            sub = _assignment_value(wm, rest_rows, [c for c in free_cols if c != j])
            if sub is not None and acc + w + sub == total:
                chosen = j
                acc += w
                break
        if chosen < 0:  # cannot happen once total is known to be attainable
            raise InfeasibleMatchingError("matching refinement lost feasibility")
        perm.append(chosen)
        free_cols.remove(chosen)
    return tuple(perm), total
