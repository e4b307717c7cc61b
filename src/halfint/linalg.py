"""Exact linear algebra over the rationals, in integer arithmetic.

Row reduction, rank and minimal linear dependences (circuits) for small
dense matrices.  This module holds the package's one elimination
kernel, the fraction-free (Bareiss 1968) update that ``simplex`` also
pivots with.  Each integer row holds ``det``, the last pivot, times a
row of the rational reduction; a pivot ``p`` turns every other row
``a``, whose entry in the pivot column is ``f``, into
``(p * a - f * r) // det``, where ``r`` is the pivot row.  The division
is exact by Sylvester's identity.  Results leave as ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .rationals import integer_rows


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


def minimal_circuit(
    vectors: Sequence[Sequence],
) -> Optional[tuple[tuple[int, ...], tuple[Fraction, ...]]]:
    """Inclusion-minimal dependent index set with certifying coefficients.

    Returns ``(indices, coefficients)`` such that
    ``sum(coefficients[k] * vectors[indices[k]]) == 0`` and every proper
    subset of ``indices`` is linearly independent, or ``None`` when the
    vectors are independent.  The dependence is the one produced by row
    reduction for the first free column (a fundamental circuit of the
    pivot basis, which is always inclusion-minimal), scaled so that its
    first coefficient is +1.
    """
    n = len(vectors)
    if n == 0:
        return None
    columns = [[vec[i] for vec in vectors] for i in range(len(vectors[0]))]
    reduced, pivots = rref(columns)
    pivot_row = {c: r for r, c in enumerate(pivots)}
    free = next((c for c in range(n) if c not in pivot_row), None)
    if free is None:
        return None
    x = [Fraction(0)] * n
    x[free] = Fraction(1)
    for col, r in pivot_row.items():
        x[col] = -reduced[r][free]
    support = tuple(i for i in range(n) if x[i] != 0)
    lead = x[support[0]]
    coeffs = tuple(x[i] / lead for i in support)
    return support, coeffs
