"""Exact linear programming over the rationals, in integer arithmetic.

Feasibility and optimization for systems ``A x = b, x >= 0`` via the
simplex method with Bland's anti-cycling rule, which makes termination
unconditional.  Exactness makes every verdict a certificate: a returned
witness satisfies the constraints with equality, ``None`` means the
system is infeasible, and an optimal value is exact.

The tableau is fraction-free: it pivots with the Bareiss update that
``linalg`` holds (``_eliminate``).  The system is scaled by one common
denominator (``rationals.integer_rows``), so the starting tableau
``[A | b]`` is integral, and from then on every entry is ``det`` times
the entry of the rational tableau, where ``det > 0`` is the basis
determinant up to sign.  A positive scale changes no sign and no ratio
that Bland's rule reads, so the pivots are the ones a rational tableau
takes.  Witnesses and values leave as ``Fraction``.

Phase 1 starts from an artificial basis (determinant 1) that is markers
only: no identity columns are stored, and only structural columns enter,
so an artificial that leaves never returns.  None has to: a feasible
point uses structural columns only, so a feasible system keeps its
phase-1 optimum at zero as columns drop, and Bland's rule terminates
between the at most ``m`` drops.

Phase 2 holds the artificials still basic at zero instead of pivoting
them out (Chvatal 1983, *Linear Programming*, ch. 8): an artificial row
with a nonzero entry in the entering column blocks at ratio 0, ahead of
any structural row, and is negated first if that entry is negative (its
right-hand side is 0, so ``det`` stays positive).  Bland's rule still
terminates, because an artificial that leaves never returns: at most
``m`` such pivots, with ordinary Bland pivots between them.

A caller that already knows a feasible point can skip phase 1: with
``start``, ``lp_maximize`` pivots the given columns into the artificial
basis (a crash basis, Bixby 1992), one pivot per column, and checks
that the basic solution they reach is feasible with every remaining
artificial at zero.  A hint that fails the check raises ValueError, so
it can cost time but never change an answer.  Phase 2 runs from there.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .linalg import _eliminate
from .rationals import ZERO, integer_rows


class _Tableau:
    """Integer simplex tableau ``[A | b]`` for ``A x = b, x >= 0``.

    Each row holds ``det`` times a row of the rational tableau, with its
    right-hand side in the last slot, index ``n``.  Reduced-cost rows
    have the same layout and hold the negated objective value there.
    An artificial basic in row ``i`` is recorded as ``n + i``; phase 2
    (``hold_artificials``) pivots it out at ratio 0 only when it blocks.
    """

    def __init__(self, rows: Sequence[Sequence], rhs: Sequence):
        self.m = len(rows)
        self.n = len(rows[0]) if self.m else 0
        self.det = 1
        _, scaled = integer_rows([[*row, b] for row, b in zip(rows, rhs)])
        self.rows = [row if row[-1] >= 0 else [-x for x in row] for row in scaled]
        self.basis = [self.n + i for i in range(self.m)]

    def pivot(self, pivot_row: int, entering: int, cost: Optional[list[int]] = None):
        """Pivot every row, and ``cost`` if given; returns the updated cost row."""
        prow = self.rows[pivot_row]
        if prow[entering] < 0:  # negate the pivot row first, so det stays positive
            prow = self.rows[pivot_row] = [-x for x in prow]
        det = self.det
        for i in range(self.m):
            if i != pivot_row:
                self.rows[i] = _eliminate(self.rows[i], prow, entering, det)
        if cost is not None:
            cost = _eliminate(cost, prow, entering, det)
        self.basis[pivot_row] = entering
        self.det = prow[entering]
        return cost

    def minimize(
        self, cost: list[int], stop_when_negative: bool = False, hold_artificials: bool = False
    ):
        """Run Bland pivots until the reduced costs are nonnegative.

        ``cost`` is the reduced-cost row; the updated row is returned.
        With ``stop_when_negative`` the loop exits as soon as the
        objective drops below zero (the caller only needs the sign).
        With ``hold_artificials`` (phase 2) the first artificial row with
        a nonzero entry in the entering column blocks, at ratio 0.
        """
        m = self.m
        n = self.n
        rows = self.rows
        while True:
            if stop_when_negative and cost[n] > 0:
                return cost
            entering = next((j for j in range(n) if cost[j] < 0), None)
            if entering is None:
                return cost
            pivot_row = None
            for i in range(m):
                coef = rows[i][entering]
                if hold_artificials and coef and self.basis[i] >= n:
                    pivot_row = i
                    break
                if coef > 0:
                    if pivot_row is None:
                        pivot_row, num, den = i, rows[i][n], coef
                        continue
                    # rows[i][n] / coef against num / den, all positive denominators
                    lhs = rows[i][n] * den
                    rhs = num * coef
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[pivot_row]):
                        pivot_row, num, den = i, rows[i][n], coef
            if pivot_row is None:
                raise ArithmeticError("simplex objective unbounded below")
            cost = self.pivot(pivot_row, entering, cost)

    def run_phase1(self) -> bool:
        """Minimize the artificial sum; whether it reaches zero."""
        cost = [-sum(column) for column in zip(*self.rows)]
        return self.minimize(cost)[self.n] == 0

    def crash(self, columns: Sequence[int]) -> None:
        """Pivot ``columns`` into rows held by artificials, then check feasibility.

        Raises ValueError when the columns are dependent, or when their
        basic solution is negative or leaves an artificial nonzero.
        """
        n = self.n
        for j in columns:
            if not 0 <= j < n:
                raise ValueError("start column %r is not a column index" % (j,))
            row = next(
                (i for i in range(self.m) if self.basis[i] >= n and self.rows[i][j]), None
            )
            if row is None:
                raise ValueError("start columns are linearly dependent")
            self.pivot(row, j)
        if any(r[n] < 0 or (b >= n and r[n]) for r, b in zip(self.rows, self.basis)):
            raise ValueError("start columns carry no feasible basic solution")

    def solution(self) -> tuple[Fraction, ...]:
        witness = [ZERO] * self.n
        for i, j in enumerate(self.basis):
            if j < self.n:
                witness[j] = Fraction(self.rows[i][self.n], self.det)
        return tuple(witness)


def lp_feasible(
    rows: Sequence[Sequence], rhs: Sequence
) -> Optional[tuple[Fraction, ...]]:
    """Exact witness for ``{x >= 0 : rows . x = rhs}``, or ``None``."""
    if not rows:
        return ()
    tab = _Tableau(rows, rhs)
    if not tab.run_phase1():
        return None
    return tab.solution()


def lp_maximize(
    rows: Sequence[Sequence],
    rhs: Sequence,
    objective: Sequence,
    stop_when_positive: bool = False,
    start: Optional[Sequence[int]] = None,
) -> Optional[tuple[Fraction, tuple[Fraction, ...]]]:
    """Maximize ``objective . x`` over ``{x >= 0 : rows . x = rhs}``.

    Returns ``(value, witness)`` or ``None`` when infeasible.  With
    ``stop_when_positive`` the search stops at the first feasible point
    of positive value, returning that point (callers that only need the
    sign of the maximum get their certificate early).  Raises
    ArithmeticError when the objective is unbounded.

    ``start`` names linearly independent columns that support a
    feasible point, which then starts phase 2 in place of phase 1; the
    system is feasible, so ``None`` is never returned.  Raises
    ValueError when the columns are dependent or their basic solution
    is infeasible.
    """
    if not rows:
        raise ValueError("maximization requires at least one constraint")
    tab = _Tableau(rows, rhs)
    if start is not None:
        tab.crash(start)
    elif not tab.run_phase1():
        return None
    # Minimize the negated objective, scaled to integers; reduced costs
    # relative to the current basis, negated value in the last slot.
    den, (scaled,) = integer_rows([objective])
    reduced = [-tab.det * c for c in scaled] + [0]
    for i, j in enumerate(tab.basis):
        if j < tab.n and scaled[j]:
            reduced = [a + scaled[j] * b for a, b in zip(reduced, tab.rows[i])]
    reduced = tab.minimize(reduced, stop_when_positive, hold_artificials=True)
    return Fraction(reduced[tab.n], tab.det * den), tab.solution()


def convex_combination(
    target: Sequence, points: Sequence[Sequence]
) -> Optional[list[Fraction]]:
    """Weights expressing ``target`` as a convex combination of ``points``.

    Returns a weight list aligned with ``points`` (entries may be zero),
    or ``None`` when ``target`` lies outside the convex hull.  Before
    the simplex runs, candidates that provably carry zero weight are
    eliminated; see :func:`prune_candidates`.
    """
    active = prune_candidates(target, points, list(range(len(points))))
    if active is None:
        return None
    rows, rhs = hull_system(target, points, active)
    solution = lp_feasible(rows, rhs)
    if solution is None:
        return None
    weights = [ZERO] * len(points)
    for idx, w in zip(active, solution):
        weights[idx] = w
    return weights


def prune_candidates(
    target: Sequence, points: Sequence[Sequence], active: list[int]
) -> Optional[list[int]]:
    """Candidates that may carry weight in a convex representation.

    Whenever the target meets the active candidates' minimum (or
    maximum) in some coordinate, candidates strictly inside must carry
    zero weight and are dropped; a target outside the bounding box has
    no representation at all (returns ``None``).  Iterated to a fixed
    point.
    """
    dim = len(target)
    changed = True
    while changed:
        if not active:
            return None
        changed = False
        for k in range(dim):
            t = target[k]
            lo = hi = points[active[0]][k]
            for i in active:
                x = points[i][k]
                if x < lo:
                    lo = x
                elif x > hi:
                    hi = x
            if t < lo or t > hi:
                return None
            if lo == hi:
                continue
            if t == lo:
                keep = [i for i in active if points[i][k] == lo]
            elif t == hi:
                keep = [i for i in active if points[i][k] == hi]
            else:
                continue
            if len(keep) != len(active):
                active = keep
                changed = True
    return active


def hull_system(
    target: Sequence, points: Sequence[Sequence], active: list[int]
) -> tuple[list[list], list]:
    """Equality system for convex representations of ``target``.

    Coordinates in which every active candidate equals the target are
    redundant given the weight-sum row and are omitted.
    """
    rows = []
    rhs = []
    for k in range(len(target)):
        t = target[k]
        if any(points[i][k] != t for i in active):
            rows.append([points[i][k] for i in active])
            rhs.append(t)
    rows.append([1] * len(active))
    rhs.append(1)
    return rows, rhs
