"""Maximum-weight perfect matching on square rational matrices.

Forbidden cells are modeled as absent edges, so a matrix with a forbidden
diagonal yields exactly the fixed-point-free permutations needed for cycle
covers. The core is a shortest-augmenting-path assignment solver with dual
potentials, run once on negated integer weights: the rational weights are
scaled to integers and by n^n, and cell (i, j) gets the bonus
(n-1-j)·n^(n-1-i). The bonus of a whole permutation stays below n^n, so it
only decides among the maximizers, and there it picks the lexicographically
smallest permutation, which keeps every downstream tie-break deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Sequence

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


def _assignment(ent):
    """Minimum-cost perfect assignment of a square matrix, (perm, cost) or None.

    perm[i] is the column of row i; None cells are forbidden. Shortest
    augmenting paths with potentials (the classic O(n^3) scheme), all
    arithmetic exact.
    """
    k = len(ent)
    u = [0] * (k + 1)
    v = [0] * (k + 1)
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
            row = ent[i0 - 1]
            for j in range(1, k + 1):
                if used[j]:
                    continue
                c = row[j - 1]
                if c is not None:
                    cur = c - u[i0] - v[j]
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
    perm = [0] * k
    for j in range(1, k + 1):
        perm[p[j] - 1] = j - 1
    return tuple(perm), sum(ent[i][perm[i]] for i in range(k))


def max_weight_perfect_matching(wm: WeightMatrix):
    """Returns (permutation, value): permutation[i] is the column of row i.

    Among all maximum-weight perfect matchings, returns the lexicographically
    smallest permutation. Raises InfeasibleMatchingError when the forbidden
    cells leave no perfect matching at all.
    """
    n = wm.n
    denominators = (w.denominator for row in wm.entries for w in row if w is not None)
    scale = lcm(*denominators) * n**n  # a weight step outweighs any bonus total
    costs = [
        [
            None if w is None else -(int(w * scale) + (n - 1 - j) * n ** (n - 1 - i))
            for j, w in enumerate(row)
        ]
        for i, row in enumerate(wm.entries)
    ]
    found = _assignment(costs)
    if found is None:
        raise InfeasibleMatchingError("no perfect matching avoids the forbidden cells")
    perm, _ = found
    return perm, sum((wm.entries[i][j] for i, j in enumerate(perm)), F0)
