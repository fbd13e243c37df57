"""Exact rational helpers: parsing, the weighted draw and its integer form."""

from fractions import Fraction as Fr
from random import Random

import pytest

from anarchy.rationals import frac, integer_weights, parse_frac, weighted_index


def random_weight_lists(count, seed):
    rng = Random(seed)
    for _ in range(count):
        size = rng.randint(1, 6)
        ws = [Fr(rng.randint(0, 12), rng.randint(1, 9)) for _ in range(size)]
        if not any(ws):
            ws[rng.randrange(size)] = Fr(1, rng.randint(1, 9))
        yield ws


def test_integer_weights_scale_by_the_common_denominator():
    assert integer_weights([Fr(1, 4), Fr(1, 6), 0, 2]) == [3, 2, 0, 24]
    assert integer_weights([3, 0, 5]) == [3, 0, 5]
    assert all(type(w) is int for w in integer_weights([Fr(1, 2), Fr(3, 4)]))


def test_rational_and_integer_draws_consume_the_same_bits():
    for s, ws in enumerate(random_weight_lists(300, seed=5)):
        rational, scaled = Random(s), Random(s)
        assert weighted_index(rational, ws) == weighted_index(
            scaled, integer_weights(ws)
        )
        assert rational.random() == scaled.random()


@pytest.mark.parametrize(
    "rational, scaled",
    [
        ([Fr(1, 2), Fr(-1, 3)], [3, -2]),
        ([Fr(-1)], [-1]),
        ([Fr(0), Fr(0)], [0, 0]),
        ([], []),
    ],
)
def test_negative_or_all_zero_weights_raise_in_both_forms(rational, scaled):
    for weights in (rational, scaled):
        with pytest.raises(ValueError):
            integer_weights(weights)
        with pytest.raises(ValueError):
            weighted_index(Random(0), weights)


def test_parse_frac_reads_the_wire_format_and_rejects_zero_denominators():
    assert parse_frac(" 3/4 ") == Fr(3, 4)
    assert parse_frac("-2") == -2
    with pytest.raises(ValueError, match="zero denominator"):
        parse_frac("1/0")


def test_frac_returns_a_fraction_unchanged_and_still_rejects_floats():
    x = Fr(3, 4)
    assert frac(x) is x

    class Sub(Fr):
        pass

    for value, expected in ((Sub(1, 2), Fr(1, 2)), (3, Fr(3)), ("5/6", Fr(5, 6)), (True, Fr(1))):
        out = frac(value)
        assert type(out) is Fr and out == expected
    with pytest.raises(TypeError):
        frac(0.5)
