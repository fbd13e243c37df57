from __future__ import annotations

import random
from fractions import Fraction

import pytest

from anarchy import StructuralError
from anarchy.solvers import CapacitatedDigraph, Residual, max_flow

from oracles import check_flow_valid, min_cut_value

F = Fraction


def test_single_edge():
    g = CapacitatedDigraph(2, [(0, 1, F(3, 2))])
    res = max_flow(g, 0, 1)
    assert res.value == F(3, 2)
    assert res.edge_flows == (F(3, 2),)


def test_parallel_edges_add_up():
    g = CapacitatedDigraph(2, [(0, 1, 2), (0, 1, F(1, 3))])
    res = max_flow(g, 0, 1)
    assert res.value == F(7, 3)
    assert res.edge_flows == (F(2), F(1, 3))


def test_bottleneck_path():
    g = CapacitatedDigraph(3, [(0, 1, 5), (1, 2, 2)])
    assert max_flow(g, 0, 2).value == 2


def test_disconnected_sink():
    g = CapacitatedDigraph(3, [(0, 1, 1)])
    assert max_flow(g, 0, 2).value == 0


def test_source_equals_sink_rejected():
    g = CapacitatedDigraph(2, [(0, 1, 1)])
    with pytest.raises(StructuralError):
        max_flow(g, 0, 0)


def test_vertex_out_of_range_rejected():
    g = CapacitatedDigraph(2, [(0, 1, 1)])
    with pytest.raises(StructuralError):
        max_flow(g, 0, 5)
    with pytest.raises(StructuralError):
        CapacitatedDigraph(2, [(0, 3, 1)])
    # a JSON false or true is no vertex
    for edge in ((0, True, 1), (False, 1, 1)):
        with pytest.raises(StructuralError, match="leaves the vertex range"):
            CapacitatedDigraph(2, [edge])


def test_self_loop_rejected():
    with pytest.raises(StructuralError):
        CapacitatedDigraph(2, [(1, 1, 1)])


def test_negative_capacity_rejected():
    with pytest.raises(StructuralError):
        CapacitatedDigraph(2, [(0, 1, F(-1))])


def random_graphs():
    """120 seeded small graphs as (trial, V, edges, s, t)."""
    rng = random.Random(424242)
    for trial in range(120):
        V = rng.randint(2, 6)
        E = rng.randint(0, 12)
        edges = []
        for _ in range(E):
            u = rng.randrange(V)
            v = rng.randrange(V)
            if u == v:
                continue
            edges.append((u, v, F(rng.randint(0, 8), rng.randint(1, 3))))
        yield trial, V, edges, 0, V - 1


def test_random_graphs_match_min_cut():
    for trial, V, edges, s, t in random_graphs():
        res = max_flow(CapacitatedDigraph(V, edges), s, t)
        assert res.value == min_cut_value(V, edges, s, t), f"trial {trial}"
        check_flow_valid(V, edges, s, t, res.edge_flows, res.value)


def test_residual_limited_push_then_max_push():
    for trial, V, edges, s, t in random_graphs():
        value = min_cut_value(V, edges, s, t)
        limit = value / 2
        res = Residual(CapacitatedDigraph(V, edges))
        first = res.push(s, t, limit=limit)
        assert first == min(limit, value), f"trial {trial}"
        assert first + res.push(s, t) == value, f"trial {trial}"
        check_flow_valid(V, edges, s, t, res.edge_flows(), value)
