"""Property tests: every packing-shaped LP against vertex enumeration."""

from hypothesis import given, settings
from hypothesis import strategies as st

from anarchy.packing import (
    OptionValuation,
    PackingInstance,
    residual_welfare,
    solve_packing_lp,
)

from oracles import lp_opt_by_vertex_enum, packing_program


def enumerated_value(inst, bids, players, capacities):
    """LP optimum over the listed players' options under the capacities."""
    return lp_opt_by_vertex_enum(*packing_program(inst, bids, players, capacities))


@st.composite
def packing_cases(draw):
    """(instance, bids, excluded player, residual capacities): n <= 3,
    n*K <= 4, L <= 2, residual capacities between 0 and the originals."""
    n = draw(st.integers(1, 3))
    K = draw(st.integers(1, 4 // n))
    L = draw(st.integers(0, 2))
    small = st.integers(0, 5)

    def grid():
        return [[draw(small) for _ in range(K)] for _ in range(n)]

    caps = [draw(st.integers(1, 4)) for _ in range(L)]
    inst = PackingInstance(grid(), [grid() for _ in range(L)], caps)
    bids = tuple(OptionValuation(i, amounts) for i, amounts in enumerate(grid()))
    excluded = draw(st.integers(0, n - 1))
    residual = [draw(st.integers(0, c)) for c in caps]
    return inst, bids, excluded, residual


@settings(derandomize=True, database=None, deadline=None)
@given(packing_cases())
def test_packing_lps_match_vertex_enumeration(case):
    inst, bids, excluded, residual = case
    players = list(range(inst.n))
    _, value = solve_packing_lp(inst, bids)
    assert value == enumerated_value(inst, bids, players, inst.capacities)
    others = [i for i in players if i != excluded]
    got = residual_welfare(inst, bids, excluded, residual)
    assert got == enumerated_value(inst, bids, others, residual)
