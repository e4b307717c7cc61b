"""Exact rational scalars and coordinate tuples.

Every quantity in this package is an exact rational.  Scalars are
``fractions.Fraction`` values (always in lowest terms with a positive
denominator), points and vectors are tuples of them.  The canonical
serialized form of a scalar is the string ``"p/q"``, or just ``"p"``
when the denominator is 1, which is exactly what ``str(Fraction)``
produces; points are rendered with ``str`` on each coordinate, since a
``Fraction`` is already canonical.

No floating point enters any computation.  The hot loops (row
reduction, the simplex tableau, the skeleton oracle) scale their
rationals to integers by ``integer_rows``.  Zonotope enumeration still
passes ``Fraction``s: scaling once there is a speed change left for later.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

_RATIONAL_RE = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?\Z")


def rational_from_str(text: str) -> Fraction:
    """Parse "p/q" or "p" in ASCII digits, p with an optional minus sign.
    Surrounding whitespace is ignored and "2/4" reads as 1/2, but a zero
    denominator ("1/0") is refused: a ValueError names the entry.

    Decimal notation is rejected on purpose: every number in this
    package is an exact rational, and accepting "0.1" would invite
    silently inexact inputs.  So is anything but a string: a JSON number
    such as ``1`` or ``0.5`` must be written ``"1"`` or ``"1/2"``.
    """
    if not isinstance(text, str):
        raise ValueError("not a rational string: %r" % (text,))
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError("not p/q or p in ASCII digits, q nonzero: %r" % text)
    p, _, q = text.partition("/")
    return Fraction(int_from_digits(p, "a numerator"), int_from_digits(q or "1", "a denominator"))


def int_from_digits(text: str, what: str) -> int:
    """``int(text)``, or past Python's int-to-string digit limit a ValueError naming ``what``."""
    try:
        return int(text)
    except ValueError:
        raise ValueError("%s has more than %d digits" % (what, sys.get_int_max_str_digits())) from None


def integer_rows(rows: Sequence[Sequence], factor: int = 1) -> tuple[int, list[list[int]]]:
    """``(scale, rows times scale as Python ints)``, ``scale`` being ``factor``
    times the lcm of the (int or ``Fraction``) entries' denominators."""
    scale = factor * lcm(*{x.denominator for row in rows for x in row})
    return scale, [[x.numerator * (scale // x.denominator) for x in row] for row in rows]


def int_from_json(value, what: str) -> int:
    """``value`` if it is an integer: a float is not truncated, a boolean not counted."""
    if type(value) is not int:
        raise ValueError("%s %r is not an integer" % (what, value))
    return value


def point_from_strs(coords: Iterable[str]) -> tuple[Fraction, ...]:
    return tuple(rational_from_str(c) for c in coords)


def point_to_strs(point: Sequence) -> list[str]:
    return [str(c) for c in point]


def point_label(point: Sequence) -> str:
    """Single-string form of a point, e.g. "0,1/2,1"."""
    return ",".join(map(str, point))


def midpoint(u: Sequence, v: Sequence) -> tuple:
    return tuple((a + b) / 2 for a, b in zip(u, v))
