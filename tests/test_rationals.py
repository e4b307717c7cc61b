from fractions import Fraction

import pytest

from halfint.rationals import (
    HALF,
    ONE,
    ZERO,
    integer_rows,
    midpoint,
    point_from_strs,
    point_label,
    point_to_strs,
    rational_from_str,
)


def test_constants():
    assert ZERO == 0 and ONE == 1 and HALF == Fraction(1, 2)


@pytest.mark.parametrize(
    "text,value",
    [
        ("0", Fraction(0)),
        ("-3", Fraction(-3)),
        ("2/3", Fraction(2, 3)),
        ("-10/4", Fraction(-5, 2)),
        ("6/3", Fraction(2)),
    ],
)
def test_rational_string_round_trip(text, value):
    parsed = rational_from_str(text)
    assert parsed == value
    # serialization is canonical: lowest terms, no denominator 1
    assert point_from_strs(point_to_strs((parsed,))) == (parsed,)


def test_point_to_strs_canonical():
    assert point_to_strs((Fraction(4, 8), Fraction(-6, 2), Fraction(0))) == ["1/2", "-3", "0"]


def test_rational_from_str_rejects_junk():
    for bad in ("", "1//2", "a", "1/0", "-3/000", "1.5"):
        with pytest.raises(ValueError):
            rational_from_str(bad)


def test_point_round_trip_and_label():
    p = (Fraction(1, 2), Fraction(0), Fraction(-3, 4))
    strs = point_to_strs(p)
    assert point_from_strs(strs) == p
    assert point_label(p) == "1/2,0,-3/4"


def test_vector_ops():
    u = (Fraction(1), Fraction(2), Fraction(3))
    v = (Fraction(1, 2), Fraction(0), Fraction(-1))
    assert midpoint(u, v) == (Fraction(3, 4), Fraction(1), Fraction(1))


@pytest.mark.parametrize(
    "rows, factor, scale, scaled",
    [
        ([[1, 2], [3, 0]], 1, 1, [[1, 2], [3, 0]]),
        ([[Fraction(1, 2), Fraction(2, 3)], [Fraction(5, 6), Fraction(1)]], 1, 6,
         [[3, 4], [5, 6]]),
        ([[1, Fraction(1, 4)], [Fraction(3, 2), 0]], 1, 4, [[4, 1], [6, 0]]),
        ([[Fraction(-1, 3), -2], [0, Fraction(-5, 6)]], 1, 6, [[-2, -12], [0, -5]]),
        ([[Fraction(1, 2), 1]], 2, 4, [[2, 4]]),
        ([], 1, 1, []),
        ([], 2, 2, []),
        ([[], []], 3, 3, [[], []]),
    ],
    ids=["ints", "fractions", "mixed", "negative", "factor-2", "no-rows",
         "no-rows-factor-2", "empty-rows"],
)
def test_integer_rows(rows, factor, scale, scaled):
    got_scale, got = integer_rows(rows, factor)
    assert (got_scale, got) == (scale, scaled)
    assert all(type(x) is int for row in got for x in row)
    assert all(x == scale * y for row, out in zip(rows, got) for y, x in zip(row, out))
