"""Helpers for exact rationals and their wire format.

Rationals serialize as strings "p" or "p/q" (q > 0, lowest terms). All
public data structures in this package carry fractions.Fraction values;
floats appear only in the learning-dynamics fast path.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from random import Random

F0 = Fraction(0)
F1 = Fraction(1)
HALF = Fraction(1, 2)


def frac(value) -> Fraction:
    """Coerce ints, strings like "3/4", and Fractions to Fraction.

    Floats are rejected: silently converting them would smuggle binary
    rounding error into exact computations. A Fraction is immutable, so it
    is returned as it is.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floats are not accepted where exact rationals are required")
    return Fraction(value)


def frac_str(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_frac(text) -> Fraction:
    if isinstance(text, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    if isinstance(text, str):
        text = text.strip()
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in rational {text!r}") from None
    raise TypeError(f"cannot parse rational from {type(text).__name__}")


def bernoulli(rng: Random, p) -> bool:
    """Exact coin flip with success probability p = a/b (one randrange call)."""
    p = frac(p)
    if not 0 <= p <= 1:
        raise ValueError(f"probability {p} outside [0, 1]")
    return rng.randrange(p.denominator) < p.numerator


def integer_weights(weights) -> list:
    """Rational weights scaled by the lcm of their denominators to integers."""
    weights = [frac(w) for w in weights]
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    scale = 1
    for w in weights:
        scale = scale * w.denominator // gcd(scale, w.denominator)
    ints = [int(w * scale) for w in weights]
    if sum(ints) == 0:
        raise ValueError("all weights are zero")
    return ints


def weighted_index(rng: Random, weights) -> int:
    """Exact draw of an index with probability proportional to its weight.

    A list of ints is taken as already scaled (see integer_weights); its
    lcm is 1, so the draw consumes the same random bits either way.
    """
    ints = weights
    scaled = isinstance(weights, list) and all(type(w) is int for w in weights)
    if not scaled or min(weights, default=0) < 0 or not any(weights):
        ints = integer_weights(weights)  # scales, or raises the ValueError
    t = rng.randrange(sum(ints))
    acc = 0
    for i, w in enumerate(ints):
        acc += w
        if t < acc:
            return i
    raise AssertionError("unreachable")
