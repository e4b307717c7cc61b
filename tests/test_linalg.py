import random
from fractions import Fraction

from halfint.linalg import minimal_circuit, rank, rref


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
