"""Exact maximum flow on capacitated digraphs.

Edmonds-Karp (shortest augmenting paths by BFS) with Fraction capacities.
Parallel edges are kept apart so per-edge flows can be reported back in the
order the edges were supplied; adjacency is scanned in insertion order,
which makes the computed flow deterministic. `Residual` keeps the residual
network between pushes; `max_flow` is one unlimited push on a fresh one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ..errors import StructuralError
from ..rationals import F0, frac


@dataclass(frozen=True)
class CapacitatedDigraph:
    num_vertices: int
    edges: tuple  # of (u, v, capacity)

    def __init__(self, num_vertices: int, edges: Sequence):
        if num_vertices < 0:
            raise StructuralError("vertex count must be nonnegative")
        out = []
        for e in edges:
            u, v, c = e
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise StructuralError(f"edge ({u}, {v}) leaves the vertex range")
            if u == v:
                raise StructuralError("self-loop edges are not allowed")
            c = frac(c)
            if c < 0:
                raise StructuralError("capacities must be nonnegative")
            out.append((u, v, c))
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "edges", tuple(out))


@dataclass(frozen=True)
class MaxFlowResult:
    value: Fraction
    edge_flows: tuple  # aligned with the graph's edge list


class Residual:
    """Arc-paired residual network of g that keeps its flow across pushes.

    Edge i owns arc 2i (forward) and arc 2i+1 (its reverse), so successive
    pushes may reroute earlier flow through reverse arcs.
    """

    def __init__(self, g: CapacitatedDigraph):
        self.graph = g
        self.head = [[] for _ in range(g.num_vertices)]
        self.to = []
        self.cap = []
        for u, v, c in g.edges:
            self.head[u].append(len(self.to))
            self.to.append(v)
            self.cap.append(c)
            self.head[v].append(len(self.to))
            self.to.append(u)
            self.cap.append(F0)

    def push(self, s: int, t: int, limit: Optional[Fraction] = None) -> Fraction:
        """Augment s->t along shortest paths by up to limit units, or to a
        maximum flow without a limit; returns the amount pushed."""
        pushed = F0
        while limit is None or pushed < limit:
            prev_arc = [-1] * self.graph.num_vertices
            prev_arc[s] = -2
            queue = [s]
            qi = 0
            reached = False
            while qi < len(queue) and not reached:
                u = queue[qi]
                qi += 1
                for a in self.head[u]:
                    w = self.to[a]
                    if self.cap[a] > 0 and prev_arc[w] == -1:
                        prev_arc[w] = a
                        if w == t:
                            reached = True
                            break
                        queue.append(w)
            if not reached:
                break
            bottleneck = None if limit is None else limit - pushed
            w = t
            while w != s:
                a = prev_arc[w]
                if bottleneck is None or self.cap[a] < bottleneck:
                    bottleneck = self.cap[a]
                w = self.to[a ^ 1]
            w = t
            while w != s:
                a = prev_arc[w]
                self.cap[a] -= bottleneck
                self.cap[a ^ 1] += bottleneck
                w = self.to[a ^ 1]
            pushed += bottleneck
        return pushed

    def edge_flows(self) -> tuple:
        """Flow on each edge, aligned with the graph's edge list."""
        edges = self.graph.edges
        return tuple(edges[i][2] - self.cap[2 * i] for i in range(len(edges)))


def max_flow(g: CapacitatedDigraph, s: int, t: int) -> MaxFlowResult:
    V = g.num_vertices
    if not (0 <= s < V) or not (0 <= t < V):
        raise StructuralError("source or sink outside the vertex range")
    if s == t:
        raise StructuralError("source and sink must differ")
    res = Residual(g)
    value = res.push(s, t)
    return MaxFlowResult(value, res.edge_flows())
