"""Feasibility, optimization, and hull membership, cross-checked against
a brute-force barycentric oracle that never touches the simplex code."""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Optional, Sequence

import pytest

from halfint.linalg import _eliminate
from halfint.rationals import integer_rows
from halfint.simplex import (
    _Tableau,
    convex_combination,
    hull_system,
    lp_feasible,
    lp_maximize,
    prune_candidates,
)


def _solve_exact(matrix, rhs):
    """Gaussian elimination; one solution of A x = b or None (test-local)."""
    m, n = len(matrix), len(matrix[0]) if matrix else 0
    rows = [list(matrix[i]) + [rhs[i]] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if rows[i][n] != 0:
            return None
    solution = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        solution[c] = rows[i][n]
    return solution


def _in_hull_oracle(target, points):
    """Caratheodory brute force: some subset of size <= dim+1 carries it."""
    dim = len(target)
    idx = range(len(points))
    for size in range(1, min(len(points), dim + 1) + 1):
        for subset in combinations(idx, size):
            matrix = [[points[i][k] for i in subset] for k in range(dim)]
            matrix.append([Fraction(1)] * size)
            sol = _solve_exact(matrix, list(target) + [Fraction(1)])
            if sol is not None and all(w >= 0 for w in sol):
                return True
    return False


def test_lp_feasible_simple():
    w = lp_feasible([[Fraction(1), Fraction(1)]], [Fraction(2)])
    assert w is not None and w[0] + w[1] == 2 and min(w) >= 0


def test_lp_feasible_infeasible_sign():
    # x = -1 has no nonnegative solution
    assert lp_feasible([[Fraction(1)]], [Fraction(-1)]) is None


def test_lp_feasible_redundant_and_inconsistent():
    rows = [[1, 1], [2, 2]]
    assert lp_feasible(rows, [1, 2]) is not None
    assert lp_feasible(rows, [1, 3]) is None


def test_lp_maximize_square():
    # max x + y on the triangle x + y + s = 1
    value, witness = lp_maximize(
        [[1, 1, 1]], [1], [1, 1, 0]
    )
    assert value == 1
    assert witness[0] + witness[1] == 1


def test_lp_maximize_weighted():
    # max 2x + 3y with x + y = 1 picks y
    value, witness = lp_maximize([[1, 1]], [1], [2, 3])
    assert value == 3
    assert witness == (0, 1)


def test_lp_maximize_infeasible():
    assert lp_maximize([[1]], [-2], [1]) is None


def test_lp_maximize_unbounded_guard():
    with pytest.raises(ArithmeticError):
        lp_maximize([[1, -1]], [0], [1, 0])


def test_convex_combination_square_center():
    pts = [
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1)),
    ]
    target = (Fraction(1, 2), Fraction(1, 2))
    weights = convex_combination(target, pts)
    assert weights is not None
    assert sum(weights) == 1
    for k in range(2):
        assert sum(w * p[k] for w, p in zip(weights, pts)) == target[k]


def test_convex_combination_outside():
    pts = [(Fraction(0),), (Fraction(1),)]
    assert convex_combination((Fraction(2),), pts) is None
    assert convex_combination((Fraction(-1, 10),), pts) is None


def test_prune_keeps_extreme_achievers():
    pts = [
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]
    # target on the bottom edge: the y=1 point cannot carry weight
    active = prune_candidates((Fraction(1, 2), Fraction(0)), pts, [0, 1, 2])
    assert active == [0, 1]
    # target outside the bounding box
    assert prune_candidates((Fraction(2), Fraction(0)), pts, [0, 1, 2]) is None


def test_hull_system_drops_constant_rows():
    pts = [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))]
    rows, rhs = hull_system((Fraction(1), Fraction(1, 2)), pts, [0, 1])
    # the x row is constant and equals the target, so only y + the sum row stay
    assert len(rows) == 2
    assert rhs[-1] == 1


def test_membership_matches_oracle_random():
    rng = random.Random(4242)
    for trial in range(60):
        dim = rng.randint(1, 3)
        count = rng.randint(1, 6)
        pts = [
            tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(dim))
            for _ in range(count)
        ]
        seen = set()
        pts = [p for p in pts if not (p in seen or seen.add(p))]
        target = tuple(
            Fraction(rng.randint(-4, 4), rng.choice((1, 2, 4))) for _ in range(dim)
        )
        weights = convex_combination(target, pts)
        expected = _in_hull_oracle(target, pts)
        assert (weights is not None) == expected
        if weights is not None:
            assert sum(weights) == 1 and min(weights) >= 0
            for k in range(dim):
                assert sum(w * p[k] for w, p in zip(weights, pts)) == target[k]


def test_maximize_off_pair_weight_distinguishes_edges():
    # unit square, midpoint of a side vs midpoint of the diagonal
    pts = [
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1)),
    ]

    def off_pair_max(i, j):
        target = tuple((pts[i][k] + pts[j][k]) / 2 for k in range(2))
        rows, rhs = hull_system(target, pts, list(range(4)))
        objective = [0 if k in (i, j) else 1 for k in range(4)]
        value, _ = lp_maximize(rows, rhs, objective)
        return value

    assert off_pair_max(0, 1) == 0  # bottom side: nobody else can help
    assert off_pair_max(0, 3) == 1  # diagonal: the other diagonal covers it


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _basic_solutions(rows, rhs):
    """Nonnegative solutions supported on each column subset (test-local).

    Every basic feasible solution appears, because a linearly independent
    column subset has exactly one solution.
    """
    n = len(rows[0])
    for size in range(min(len(rows), n) + 1):
        for cols in combinations(range(n), size):
            if size == 0:
                sol = [] if all(b == 0 for b in rhs) else None
            else:
                sol = _solve_exact([[row[c] for c in cols] for row in rows], rhs)
            if sol is not None and all(v >= 0 for v in sol):
                x = [Fraction(0)] * n
                for c, v in zip(cols, sol):
                    x[c] = v
                yield tuple(x)


def _brute_maximize(rows, rhs, objective):
    """"infeasible", "unbounded", or the maximum over basic solutions.

    The maximum is unbounded exactly when some ray ``d >= 0`` with
    ``rows . d = 0`` and ``sum(d) = 1`` has positive objective; those
    rays form a polytope, so checking its basic solutions suffices.
    """
    points = list(_basic_solutions(rows, rhs))
    if not points:
        return "infeasible"
    ray_rows = [list(row) for row in rows] + [[1] * len(objective)]
    ray_rhs = [0] * len(rows) + [1]
    if any(_dot(objective, d) > 0 for d in _basic_solutions(ray_rows, ray_rhs)):
        return "unbounded"
    return max(_dot(objective, x) for x in points)


def _random_system(rng):
    """Small system with denominators 1-4, some rows redundant or inconsistent."""
    m, n = rng.randint(1, 4), rng.randint(1, 5)

    def q(span=3):
        return Fraction(rng.randint(-span, span), rng.choice((1, 2, 3, 4)))

    rows = [[q() for _ in range(n)] for _ in range(m)]
    if m > 1 and rng.random() < 0.3:
        coeffs = [rng.randint(-2, 2) for _ in range(m - 1)]
        rows[-1] = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
    if rng.random() < 0.6:
        x = [abs(q()) if rng.random() < 0.6 else 0 for _ in range(n)]
        rhs = [_dot(row, x) for row in rows]
    else:
        rhs = [q() for _ in range(m)]
    objective = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 5))) for _ in range(n)]
    return rows, rhs, objective


def _assert_witness(rows, rhs, witness):
    assert all(type(v) is Fraction and v >= 0 for v in witness)
    assert [_dot(row, witness) for row in rows] == list(rhs)


def test_lp_feasible_matches_basic_solutions_random():
    rng = random.Random(20240222)
    verdicts = set()
    for _ in range(300):
        rows, rhs, _ = _random_system(rng)
        witness = lp_feasible(rows, rhs)
        expected = next(_basic_solutions(rows, rhs), None) is not None
        assert (witness is not None) == expected
        if witness is not None:
            _assert_witness(rows, rhs, witness)
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_lp_maximize_matches_basic_solutions_random():
    rng = random.Random(1968)
    outcomes = set()
    for _ in range(300):
        rows, rhs, objective = _random_system(rng)
        expected = _brute_maximize(rows, rhs, objective)
        if expected == "unbounded":
            with pytest.raises(ArithmeticError):
                lp_maximize(rows, rhs, objective)
        elif expected == "infeasible":
            assert lp_maximize(rows, rhs, objective) is None
        else:
            value, witness = lp_maximize(rows, rhs, objective)
            assert type(value) is Fraction and value == expected
            _assert_witness(rows, rhs, witness)
            assert _dot(objective, witness) == value
        outcomes.add(expected if isinstance(expected, str) else "optimal")
    assert outcomes == {"infeasible", "unbounded", "optimal"}


def test_lp_maximize_stop_when_positive_random():
    rng = random.Random(2007)
    for _ in range(300):
        rows, rhs, objective = _random_system(rng)
        expected = _brute_maximize(rows, rhs, objective)
        if expected == "infeasible":
            assert lp_maximize(rows, rhs, objective, stop_when_positive=True) is None
            continue
        try:
            value, witness = lp_maximize(rows, rhs, objective, stop_when_positive=True)
        except ArithmeticError:
            assert expected == "unbounded"
            continue
        _assert_witness(rows, rhs, witness)
        assert _dot(objective, witness) == value
        if expected == "unbounded" or expected > 0:
            assert value > 0
        else:
            assert value == expected


def test_artificial_leaves_on_negative_pivot(monkeypatch):
    # 2x + y = 2, x + y = 2 forces x = 0, y = 2.  Phase 1 ends with the
    # second row's artificial basic at zero and -1 as its first nonzero
    # entry.  Phase 2 holds it there; when x enters (max x) that row
    # blocks at ratio 0 and the pivot negates it first.
    rows, rhs = [[2, 1], [1, 1]], [2, 2]
    tab = _Tableau(rows, rhs)
    assert tab.run_phase1()
    row = next(i for i, j in enumerate(tab.basis) if j >= tab.n)
    assert next(x for x in tab.rows[row][: tab.n] if x) < 0

    pivots = []
    pivot = _Tableau.pivot

    def recording(self, pivot_row, entering, cost=None):
        leaving, entry = self.basis[pivot_row], self.rows[pivot_row][entering]
        cost = pivot(self, pivot_row, entering, cost)
        pivots.append((leaving >= self.n, entry, self.rows[pivot_row], self.det))
        return cost

    monkeypatch.setattr(_Tableau, "pivot", recording)
    assert lp_maximize(rows, rhs, [1, 0]) == (0, (0, 2))
    assert pivots[-1] == (True, -1, [1, 0, 0], 1)
    assert all(det > 0 for *_, det in pivots)
    assert lp_maximize(rows, rhs, [1, 1]) == (2, (0, 2))
    assert lp_maximize(rows, rhs, [Fraction(-1, 3), Fraction(1, 2)]) == (1, (0, 2))


class _IdentityTableau:
    """Reference tableau ``[A | I | b]`` that stores the artificial columns.

    Bland's rule may let an artificial re-enter here.  Test-local: the
    library's tableau stores ``[A | b]`` only.

    Each row holds ``det`` times a row of the rational tableau, with its
    right-hand side in the last slot, index ``width``.  Reduced-cost rows
    have the same layout and hold the negated objective value there.
    """

    def __init__(self, rows: Sequence[Sequence], rhs: Sequence):
        self.m = len(rows)
        self.n = len(rows[0]) if self.m else 0
        self.width = self.n + self.m
        self.det = 1
        den = lcm(
            *{x.denominator for row in rows for x in row}, *{x.denominator for x in rhs}
        )
        self.rows: list[list[int]] = []
        for i in range(self.m):
            row = [x.numerator * (den // x.denominator) for x in rows[i]]
            b = rhs[i].numerator * (den // rhs[i].denominator)
            if b < 0:
                row = [-x for x in row]
                b = -b
            row.extend(1 if j == i else 0 for j in range(self.m))
            row.append(b)
            self.rows.append(row)
        self.basis = [self.n + i for i in range(self.m)]

    def pivot(self, pivot_row: int, entering: int, cost: Optional[list[int]] = None):
        """Pivot every row, and ``cost`` if given; returns the updated cost row."""
        prow = self.rows[pivot_row]
        det = self.det
        for i in range(self.m):
            if i != pivot_row:
                self.rows[i] = _eliminate(self.rows[i], prow, entering, det)
        if cost is not None:
            cost = _eliminate(cost, prow, entering, det)
        self.basis[pivot_row] = entering
        self.det = prow[entering]
        return cost

    def minimize(self, cost: list[int], stop_when_negative: bool = False):
        """Run Bland pivots until the reduced costs are nonnegative.

        ``cost`` is the reduced-cost row; the updated row is returned.
        With ``stop_when_negative`` the loop exits as soon as the
        objective drops below zero (the caller only needs the sign).
        """
        m = self.m
        w = self.width
        rows = self.rows
        while True:
            if stop_when_negative and cost[w] > 0:
                return cost
            entering = next((j for j in range(w) if cost[j] < 0), None)
            if entering is None:
                return cost
            pivot_row = None
            for i in range(m):
                coef = rows[i][entering]
                if coef > 0:
                    if pivot_row is None:
                        pivot_row, num, den = i, rows[i][w], coef
                        continue
                    # rows[i][w] / coef against num / den, all positive denominators
                    lhs = rows[i][w] * den
                    rhs = num * coef
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[pivot_row]):
                        pivot_row, num, den = i, rows[i][w], coef
            if pivot_row is None:
                raise ArithmeticError("simplex objective unbounded below")
            cost = self.pivot(pivot_row, entering, cost)

    def run_phase1(self) -> bool:
        """Minimize the artificial sum; whether it reaches zero."""
        cost = [-sum(row[j] for row in self.rows) for j in range(self.n)]
        cost.extend(0 for _ in range(self.m))
        cost.append(-sum(row[self.width] for row in self.rows))
        return self.minimize(cost)[self.width] == 0

    def drop_artificials(self) -> None:
        """Drive basic artificials out, deleting dependent rows, then their columns."""
        keep = []
        for i in range(self.m):
            if self.basis[i] < self.n:
                keep.append(i)
                continue
            entering = next((j for j in range(self.n) if self.rows[i][j] != 0), None)
            if entering is not None:
                self.pivot(i, entering)
                if self.det < 0:
                    self.rows = [[-x for x in row] for row in self.rows]
                    self.det = -self.det
                keep.append(i)
        self.rows = [self.rows[i][: self.n] + self.rows[i][-1:] for i in keep]
        self.basis = [self.basis[i] for i in keep]
        self.m = len(keep)
        self.width = self.n

    def solution(self) -> tuple[Fraction, ...]:
        witness = [Fraction(0)] * self.n
        for i, j in enumerate(self.basis):
            if j < self.n:
                witness[j] = Fraction(self.rows[i][self.width], self.det)
        return tuple(witness)


def _identity_solve(rows, rhs, objective=None, stop_when_positive=False):
    """``lp_feasible`` without ``objective``, else ``lp_maximize``, on the reference."""
    tab = _IdentityTableau(rows, rhs)
    if not tab.run_phase1():
        return None
    if objective is None:
        return tab.solution()
    tab.drop_artificials()
    den = lcm(*{c.denominator for c in objective})
    cost = [-c.numerator * (den // c.denominator) for c in objective]
    reduced = [tab.det * c for c in cost] + [0]
    for i, j in enumerate(tab.basis):
        if cost[j]:
            reduced = [a - cost[j] * b for a, b in zip(reduced, tab.rows[i])]
    reduced = tab.minimize(reduced, stop_when_negative=stop_when_positive)
    return Fraction(reduced[tab.width], tab.det * den), tab.solution()


def _hull_shaped_system(rng):
    """Adjacency-style system: up to 7 coordinate rows with entries 0-4 over
    up to 16 points, a row of ones, a target that is mostly the midpoint
    of a pair, and the objective that weighs every point off the pair."""
    dim, n = rng.randint(1, 7), rng.randint(2, 16)
    points = [[rng.randint(0, 4) for _ in range(dim)] for _ in range(n)]
    i, j = rng.sample(range(n), 2)
    if rng.random() < 0.85:
        target = [Fraction(a + b, 2) for a, b in zip(points[i], points[j])]
    else:
        target = [Fraction(rng.randint(0, 8), 2) for _ in range(dim)]
    rows = [[Fraction(p[k]) for p in points] for k in range(dim)]
    rows.append([Fraction(1)] * n)
    objective = [Fraction(0 if k in (i, j) else 1) for k in range(n)]
    return rows, target + [Fraction(1)], objective


def _maximum(solve, stop_when_positive):
    """What a maximization says (None, "unbounded", "positive" or the
    value), and its ``(value, witness)`` when it returns one."""
    try:
        result = solve()
    except ArithmeticError:
        return "unbounded", None
    if result is None:
        return None, None
    value, _ = result
    return ("positive" if stop_when_positive and value > 0 else value), result


def test_markers_only_tableau_matches_identity_tableau(monkeypatch):
    reentries = []
    pivot = _IdentityTableau.pivot

    def counting_pivot(self, pivot_row, entering, cost=None):
        if entering >= self.n:
            reentries.append(entering)
        return pivot(self, pivot_row, entering, cost)

    monkeypatch.setattr(_IdentityTableau, "pivot", counting_pivot)
    rng = random.Random(1983)
    systems = [_random_system(rng) for _ in range(300)]
    systems += [_hull_shaped_system(rng) for _ in range(400)]
    for rows, rhs, objective in systems:
        witness = lp_feasible(rows, rhs)
        assert (witness is None) == (_identity_solve(rows, rhs) is None)
        if witness is not None:
            _assert_witness(rows, rhs, witness)
        for stop in (False, True):
            said, result = _maximum(
                lambda: lp_maximize(rows, rhs, objective, stop_when_positive=stop), stop
            )
            assert said == _maximum(
                lambda: _identity_solve(rows, rhs, objective, stop), stop
            )[0]
            if result is not None:
                value, witness = result
                _assert_witness(rows, rhs, witness)
                assert _dot(objective, witness) == value
    assert reentries


def _represents(weights, target, points) -> bool:
    return (sum(weights) == 1 and min(weights) >= 0
            and all(sum(w * p[k] for w, p in zip(weights, points)) == t
                    for k, t in enumerate(target)))


def test_scaling_keeps_every_verdict_and_optimum():
    # What the callers that scale to integers rely on.  A positive scale of
    # the target and the points keeps the membership verdict; the weights
    # may differ, because the phase-1 costs sum the coordinate rows, which
    # the scale weighs, with the unscaled row of ones.  An LP on the
    # ``integer_rows`` image of its system is the same tableau, so it keeps
    # its value and its witness.
    rng = random.Random(2517)
    for _ in range(300):
        dim, n = rng.randint(1, 4), rng.randint(1, 8)
        points = [[Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(dim)]
                  for _ in range(n)]
        if rng.random() < 0.7:
            mix = [rng.randint(0, 3) for _ in points]
            mix[0] += 1
            target = [sum(w * p[k] for w, p in zip(mix, points)) / sum(mix) for k in range(dim)]
        else:
            target = [Fraction(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(dim)]
        s = rng.choice((2, 3, 6, Fraction(5, 2), Fraction(1, 3)))
        scaled_target, scaled = [s * t for t in target], [[s * x for x in p] for p in points]
        weights = convex_combination(target, points)
        scaled_weights = convex_combination(scaled_target, scaled)
        assert (weights is None) == (scaled_weights is None)
        if weights is not None:
            assert _represents(weights, target, points)
            assert _represents(scaled_weights, scaled_target, scaled)
    systems = [_random_system(rng) for _ in range(200)]
    systems += [_hull_shaped_system(rng) for _ in range(200)]
    for rows, rhs, objective in systems:
        _, image = integer_rows([[*row, b] for row, b in zip(rows, rhs)])
        int_rows, int_rhs = [row[:-1] for row in image], [row[-1] for row in image]
        for stop in (False, True):
            assert _maximum(lambda: lp_maximize(rows, rhs, objective, stop), stop) == _maximum(
                lambda: lp_maximize(int_rows, int_rhs, objective, stop), stop
            )


def test_redundant_row_keeps_its_artificial_basic(monkeypatch):
    # The unit square's hull system with its y row repeated: the copy
    # becomes a zero row, so its artificial never leaves the basis.
    points = [(0, 0), (1, 0), (0, 1), (1, 1)]
    rows = [[p[0] for p in points], [p[1] for p in points], [p[1] for p in points], [1] * 4]
    final_bases = []
    solution = _Tableau.solution

    def recording(self):
        final_bases.append(list(self.basis))
        return solution(self)

    monkeypatch.setattr(_Tableau, "solution", recording)
    verdicts = set()
    for pair in combinations(range(4), 2):
        target = [Fraction(points[pair[0]][k] + points[pair[1]][k], 2) for k in range(2)]
        rhs = [target[0], target[1], target[1], Fraction(1)]
        objective = [Fraction(0 if k in pair else 1) for k in range(4)]
        for start in (None, pair):
            for stop in (False, True):
                final_bases.clear()
                said, result = _maximum(
                    lambda: lp_maximize(rows, rhs, objective, stop, start=start), stop
                )
                assert said == _maximum(
                    lambda: _identity_solve(rows, rhs, objective, stop), stop
                )[0]
                value, witness = result
                _assert_witness(rows, rhs, witness)
                assert _dot(objective, witness) == value
                assert any(j >= 4 for j in final_bases[0])
                verdicts.add(said)
    assert verdicts == {0, 1, "positive"}


def _pair_system(rng):
    """Hull system of a random point set, its target the midpoint of the
    pair returned; the pair's columns carry the weights 1/2, 1/2."""
    dim, n = rng.randint(1, 7), rng.randint(2, 16)
    points = [[rng.randint(0, 4) for _ in range(dim)] for _ in range(n)]
    i, j = rng.sample(range(n), 2)
    while points[i] == points[j]:
        points[j] = [rng.randint(0, 4) for _ in range(dim)]
    target = [Fraction(a + b, 2) for a, b in zip(points[i], points[j])]
    rows = [[Fraction(p[k]) for p in points] for k in range(dim)]
    rows.append([Fraction(1)] * n)
    return rows, target + [Fraction(1)], (i, j)


def test_start_at_a_pair_matches_phase1_random():
    rng = random.Random(1992)
    edges = set()
    for _ in range(400):
        rows, rhs, pair = _pair_system(rng)
        n = len(rows[0])
        off_pair = [Fraction(0 if k in pair else 1) for k in range(n)]
        scattered = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)]
        for objective in (off_pair, scattered):
            for stop in (False, True):
                started = lp_maximize(rows, rhs, objective, stop, start=pair)
                cold = lp_maximize(rows, rhs, objective, stop)
                for value, witness in (started, cold):
                    _assert_witness(rows, rhs, witness)
                    assert _dot(objective, witness) == value
                if stop:
                    assert (started[0] > 0) == (cold[0] > 0)
                    if cold[0] <= 0:
                        assert started[0] == cold[0]
                else:
                    assert started[0] == cold[0]
        edges.add(lp_maximize(rows, rhs, off_pair, start=pair)[0] == 0)
    assert edges == {True, False}


@pytest.mark.parametrize(
    "start",
    [(0, 1), (1, 1), (2, 1), (0, 3), (-1, 1)],
    ids=["equal-columns", "repeated", "zero-column", "out-of-range", "negative-index"],
)
def test_start_refuses_dependent_or_invalid_columns(start):
    # columns 0 and 1 are the same point; column 2 is zero in every row
    rows = [[2, 2, 0], [1, 1, 0]]
    with pytest.raises(ValueError):
        lp_maximize(rows, [2, 1], [1, 0, 0], start=start)


@pytest.mark.parametrize("stop", [False, True])
def test_start_refuses_an_infeasible_basic_solution(stop):
    # points 0, 2 and 4 on a line, target 1: the midpoint of 0 and 2
    rows, rhs, objective = [[0, 2, 4], [1, 1, 1]], [1, 1], [0, 0, 1]
    # 1 = 3/4 * 0 + 1/4 * 4, so the pair (0, 2) is no edge
    assert lp_maximize(rows, rhs, objective, stop, start=(0, 1))[0] == Fraction(1, 4)
    # 2a + 4b = 1, a + b = 1 gives b = -1/2
    with pytest.raises(ValueError, match="no feasible basic solution"):
        lp_maximize(rows, rhs, objective, stop, start=(1, 2))
    # x0 = 1 alone leaves the first row's artificial at 1
    with pytest.raises(ValueError, match="no feasible basic solution"):
        lp_maximize(rows, rhs, objective, stop, start=(0,))


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return "ValueError: %s" % exc


@pytest.mark.parametrize(
    "call, outcome",
    [
        # the empty system is feasible, with the empty witness
        (lambda: lp_feasible([], []), ()),
        (lambda: lp_maximize([], [], []),
         "ValueError: maximization requires at least one constraint"),
    ],
    ids=["feasible-no-rows", "maximize-no-rows"],
)
def test_argument_guards(call, outcome):
    assert _outcome(call) == outcome
