"""Exact linear algebra over the rationals.

Row reduction, rank and minimal linear dependences (circuits) for small
dense matrices.  Pivots are exact rationals, so no magnitude-based pivot
selection is needed and results are reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a matrix.

    Returns ``(matrix, pivot_columns)``; the input is left untouched.
    Each pivot is normalized to 1 immediately and eliminated above and
    below, keeping every entry a fully reduced Fraction.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    if not mat:
        return mat, pivots
    ncols = len(mat[0])
    row = 0
    for col in range(ncols):
        if row == len(mat):
            break
        pivot_row = next((i for i in range(row, len(mat)) if mat[i][col] != 0), None)
        if pivot_row is None:
            continue
        mat[row], mat[pivot_row] = mat[pivot_row], mat[row]
        pivot = mat[row][col]
        mat[row] = [x / pivot for x in mat[row]]
        for i in range(len(mat)):
            if i != row and mat[i][col] != 0:
                factor = mat[i][col]
                top = mat[row]
                mat[i] = [a - factor * b for a, b in zip(mat[i], top)]
        pivots.append(col)
        row += 1
    return mat, pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def _columns_matrix(vectors: Sequence[Sequence]) -> list[list]:
    dim = len(vectors[0])
    return [[vec[i] for vec in vectors] for i in range(dim)]


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
    reduced, pivots = rref(_columns_matrix(vectors))
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
