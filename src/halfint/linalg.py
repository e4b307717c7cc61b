"""Exact linear algebra over the rationals, in integer arithmetic.

Row reduction, rank and the fundamental circuits (minimal linear
dependences) of a pivot basis, for small dense matrices.  This module
holds the package's one elimination kernel, the fraction-free (Bareiss
1968) update that ``simplex`` also pivots with.  Each integer row holds
``det``, the last pivot, times a row of the rational reduction; a pivot
``p`` turns every other row ``a``, whose entry in the pivot column is
``f``, into ``(p * a - f * r) // det``, where ``r`` is the pivot row.
The division is exact by Sylvester's identity.  Results leave as
``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .rationals import integer_rows

# A circuit's indices and its certifying coefficients.
Circuit = tuple[tuple[int, ...], tuple[Fraction, ...]]


def _eliminate(row: list[int], prow: list[int], column: int, det: int) -> list[int]:
    """Bareiss update of ``row`` by the pivot row ``prow`` in ``column``."""
    p = prow[column]
    f = row[column]
    if f:
        return [(p * a - f * b) // det for a, b in zip(row, prow)]
    if p != det:
        return [p * a // det for a in row]
    return row


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a matrix.

    Returns ``(matrix, pivot_columns)``; the input is left untouched.
    The rows are scaled to integers by ``integer_rows``, each pivot (the
    first nonzero entry at or below the current row) is eliminated above
    and below, and the last pivot divides every entry once, at the end.
    """
    _, mat = integer_rows([[Fraction(x) for x in row] for row in rows])
    pivots: list[int] = []
    det = 1
    for col in range(len(mat[0]) if mat else 0):
        row = len(pivots)
        if row == len(mat):
            break
        pivot_row = next((i for i in range(row, len(mat)) if mat[i][col] != 0), None)
        if pivot_row is None:
            continue
        mat[row], mat[pivot_row] = mat[pivot_row], mat[row]
        top = mat[row]
        for i in range(len(mat)):
            if i != row:
                mat[i] = _eliminate(mat[i], top, col, det)
        det = top[col]
        pivots.append(col)
    return [[Fraction(x, det) for x in row] for row in mat], pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def fundamental_circuits(vectors: Sequence[Sequence]) -> list[Circuit]:
    """The fundamental circuits of the pivot basis of ``vectors``, from one ``rref``.

    One ``(indices, coefficients)`` pair per free column, in column order:
    the column and the pivot columns it depends on, an inclusion-minimal
    dependent set with ``sum(coefficients[k] * vectors[indices[k]]) == 0``,
    scaled so that the first coefficient is +1.  ``[]`` when the vectors
    are independent.
    """
    reduced, pivots = rref(list(zip(*vectors)))
    circuits = []
    for free in (col for col in range(len(vectors)) if col not in pivots):
        x = {col: -reduced[r][free] for r, col in enumerate(pivots)}
        x[free] = Fraction(1)
        support = tuple(sorted(col for col, c in x.items() if c))
        lead = x[support[0]]
        circuits.append((support, tuple(x[col] / lead for col in support)))
    return circuits


def minimal_circuit(vectors: Sequence[Sequence]) -> Optional[Circuit]:
    """The first of :func:`fundamental_circuits`, or ``None`` when the
    vectors are independent."""
    circuits = fundamental_circuits(vectors)
    return circuits[0] if circuits else None
