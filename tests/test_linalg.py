import random
from fractions import Fraction

from halfint.linalg import fundamental_circuits, minimal_circuit, rank, rref


def F(x):
    return Fraction(x)


def test_rref_identity_like():
    rows = [[F(2), F(0)], [F(0), F(3)]]
    reduced, pivots = rref(rows)
    assert reduced == [[F(1), F(0)], [F(0), F(1)]]
    assert pivots == [0, 1]


def test_rref_dependent_rows():
    rows = [[F(1), F(2)], [F(2), F(4)]]
    reduced, pivots = rref(rows)
    assert pivots == [0]
    assert reduced[1] == [F(0), F(0)]


def test_rank_examples():
    assert rank([(F(1), F(0)), (F(0), F(1))]) == 2
    assert rank([(F(1), F(1)), (F(2), F(2))]) == 1
    assert rank([]) == 0
    assert rank([(F(0), F(0))]) == 0


def test_rank_nullity_random():
    rng = random.Random(20240229)
    for _ in range(30):
        dim = rng.randint(1, 5)
        count = rng.randint(1, 7)
        vecs = [
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))
            for _ in range(count)
        ]
        found = minimal_circuit(vecs)
        assert (rank(vecs) == count) == (found is None)
        if found is not None:
            indices, coeffs = found
            assert all(c != 0 for c in coeffs)
            for i in range(dim):
                assert sum(c * vecs[k][i] for k, c in zip(indices, coeffs)) == 0


def test_minimal_circuit_triangle():
    vecs = [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(1), F(1), F(0)), (F(0), F(0), F(1))]
    found = minimal_circuit(vecs)
    assert found is not None
    indices, coeffs = found
    assert indices == (0, 1, 2)
    assert coeffs[0] == 1
    for i in range(3):
        assert sum(c * vecs[k][i] for k, c in zip(indices, coeffs)) == 0


def test_minimal_circuit_none_for_independent():
    vecs = [(F(1), F(0)), (F(0), F(1))]
    assert minimal_circuit(vecs) is None


def test_minimal_circuit_halved_cycle():
    h = Fraction(1, 2)
    vecs = [(h, -h, 0), (0, h, -h), (h, 0, -h)]
    vecs = [tuple(Fraction(x) for x in v) for v in vecs]
    indices, coeffs = minimal_circuit(vecs)
    assert indices == (0, 1, 2)
    assert sorted(abs(c) for c in coeffs) == [1, 1, 1]


def test_fundamental_circuits_in_free_column_order():
    # two cycles on coordinates {0, 1, 2} and {3, 4, 5}, interleaved in
    # column order, with one independent vector between them
    a = [(1, -1, 0, 0, 0, 0, 0), (0, 1, -1, 0, 0, 0, 0), (-1, 0, 1, 0, 0, 0, 0)]
    b = [(0, 0, 0, -2, 2, 0, 0), (0, 0, 0, 0, 1, -1, 0), (0, 0, 0, 1, 0, -1, 0)]
    e = (0, 0, 0, 0, 0, 0, 1)
    vecs = [tuple(F(x) for x in v) for v in (a[0], b[0], a[1], b[1], e, a[2], b[2])]
    circuits = fundamental_circuits(vecs)
    assert [indices for indices, _ in circuits] == [(0, 2, 5), (1, 3, 6)]
    assert [coeffs for _, coeffs in circuits] == [(1, 1, 1), (1, -2, 2)]
    for indices, coeffs in circuits:
        assert coeffs[0] == 1 and all(type(c) is Fraction for c in coeffs)
        for i in range(7):
            assert sum(c * vecs[k][i] for k, c in zip(indices, coeffs)) == 0
    assert minimal_circuit(vecs) == circuits[0]
    assert fundamental_circuits([a[0], a[1], b[0], e]) == []
    assert fundamental_circuits([]) == []


def test_minimal_circuit_is_minimal():
    # dropping any member of the returned circuit leaves an independent set
    rng = random.Random(99)
    for _ in range(20):
        dim = rng.randint(2, 4)
        count = rng.randint(3, 6)
        vecs = [
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim))
            for _ in range(count)
        ]
        if any(all(x == 0 for x in v) for v in vecs):
            continue
        found = minimal_circuit(vecs)
        if found is None:
            assert rank(vecs) == len(vecs)
            continue
        indices, coeffs = found
        member = [vecs[k] for k in indices]
        assert rank(member) == len(member) - 1
        for drop in range(len(member)):
            sub = member[:drop] + member[drop + 1 :]
            assert rank(sub) == len(sub)
        for i in range(dim):
            assert sum(c * v[i] for c, v in zip(coeffs, member)) == 0


def _reference_rref(rows):
    """The Fraction Gauss-Jordan loop that row reduction used to run."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    if not mat:
        return mat, pivots
    row = 0
    for col in range(len(mat[0])):
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
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[row])]
        pivots.append(col)
        row += 1
    return mat, pivots


def _reference_circuit(vectors):
    """The fundamental circuit of the first free column, lead coefficient +1."""
    n = len(vectors)
    if n == 0:
        return None
    columns = [[vec[i] for vec in vectors] for i in range(len(vectors[0]))]
    reduced, pivots = _reference_rref(columns)
    pivot_row = {c: r for r, c in enumerate(pivots)}
    free = next((c for c in range(n) if c not in pivot_row), None)
    if free is None:
        return None
    x = [Fraction(0)] * n
    x[free] = Fraction(1)
    for col, r in pivot_row.items():
        x[col] = -reduced[r][free]
    support = tuple(i for i in range(n) if x[i] != 0)
    return support, tuple(x[i] / x[support[0]] for i in support)


ENTRIES = [F(x) for x in ("0", "1", "-1", "2", "-3", "1/2", "-1/2", "1/3", "2/3", "-3/4", "5/7")]


def _random_matrix(rng):
    rows = rng.randint(0, 7)
    cols = rng.randint(1, 8)
    mat = [[rng.choice(ENTRIES) for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and rng.random() < 0.3:
        # a dependent last row: a combination of the rows above it
        weights = [rng.choice(ENTRIES) for _ in range(rows - 1)]
        mat[-1] = [sum(w * r[j] for w, r in zip(weights, mat)) for j in range(cols)]
    return mat


def test_bareiss_matches_fraction_reference():
    rng = random.Random(20261018)
    for _ in range(3000):
        mat = _random_matrix(rng)
        reduced, pivots = rref(mat)
        expected, expected_pivots = _reference_rref(mat)
        assert (reduced, pivots) == (expected, expected_pivots)
        assert all(type(x) is Fraction for row in reduced for x in row)
        assert rank(mat) == len(expected_pivots)
        circuit = minimal_circuit(mat)
        assert circuit == _reference_circuit(mat)
        if circuit is not None:
            assert all(type(c) is Fraction for c in circuit[1])
