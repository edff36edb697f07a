"""MatQ.rank, by fraction-free integer elimination, against the rank that
Fraction Gauss-Jordan elimination (`MatQ._rref`) gives, and the entrywise
difference against the sum with the negation."""

from fractions import Fraction as Q

import pytest

from infrared.errors import ShapeMismatch
from infrared.linalg import MatQ, int_rank
from infrared.randomgen import rng


def rref_rank(m: MatQ) -> int:
    return len(m._rref()[1])


def random_matrix(r):
    """A rows x cols rational matrix, 0 <= rows, cols <= 6: a product of two
    random factors through an inner dimension that may be smaller than
    both, so that it is often rank-deficient, with some rows then zeroed."""
    rows, cols, inner = r.randint(0, 6), r.randint(0, 6), r.randint(0, 6)

    def frac():
        return Q(r.randint(-4, 4), r.randint(1, 5)) if r.random() < 0.7 else Q(0)

    left = [[frac() for _ in range(inner)] for _ in range(rows)]
    right = [[frac() for _ in range(cols)] for _ in range(inner)]
    grid = [
        [sum((a * b for a, b in zip(row, col)), Q(0)) for col in zip(*right)]
        if right else [Q(0)] * cols
        for row in left
    ]
    for row in grid:
        if r.random() < 0.15:
            row[:] = [Q(0)] * cols
    return MatQ._trusted(tuple(map(tuple, grid)), cols)


def test_rank_matches_the_fraction_elimination():
    r = rng(91)
    kinds = set()
    for k in range(400):
        m = random_matrix(r)
        rank = m.rank()
        assert rank == rref_rank(m), (k, m)
        kinds.add((
            m.rows == 0,
            any(not any(row) for row in m.entries),
            0 < rank < min(m.rows, m.cols),
        ))
    # empty shapes, zero rows and rank deficiency all occur
    assert {k[0] for k in kinds} == {True, False}
    assert {k[1] for k in kinds} == {True, False}
    assert {k[2] for k in kinds} == {True, False}


def test_rank_of_special_shapes():
    assert MatQ.zeros(0, 4).rank() == 0
    assert MatQ.zeros(3, 0).rank() == 0
    assert MatQ.zeros(3, 4).rank() == 0
    assert MatQ.identity(5).rank() == 5
    m = MatQ([["1/2", "1/3", 0], [3, 2, 0], [0, 0, "-7/5"]])
    assert m.rank() == 2 == rref_rank(m)
    # integer rows are left as they were
    rows = [[2, 4], [1, 2]]
    assert int_rank(rows) == 1 and rows == [[2, 4], [1, 2]]


def test_difference_is_the_sum_with_the_negation():
    r = rng(92)
    for _ in range(200):
        a = random_matrix(r)
        b = MatQ._trusted(tuple(
            tuple(Q(r.randint(-9, 9), r.randint(1, 7)) for _ in range(a.cols))
            for _ in range(a.rows)
        ), a.cols)
        diff = a - b
        assert diff == a + (-b)
        assert (diff.rows, diff.cols) == (a.rows, a.cols)
        assert a - a == MatQ.zeros(a.rows, a.cols)
    for a, b in ((MatQ.zeros(2, 3), MatQ.zeros(3, 2)), (MatQ.zeros(0, 2), MatQ.zeros(0, 3))):
        with pytest.raises(ShapeMismatch):
            a - b
