"""MatQ.rank, inverse and nullspace, by fraction-free elimination on integer
rows, against what Fraction Gauss-Jordan elimination (`rref`, the oracle)
gives, and the entrywise difference against the sum with the negation."""

import functools
import math
import operator
from fractions import Fraction as Q

import pytest

from infrared.errors import NotInvertible, ShapeMismatch
from infrared.linalg import MatQ, int_kernel, int_rank
from infrared.randomgen import rng


def block_diagonal(blocks):
    """The block diagonal matrix of the given blocks, zero blocks elsewhere."""
    return MatQ.from_blocks([
        [b if s == t else MatQ.zeros(b.rows, c.cols) for s, c in enumerate(blocks)]
        for t, b in enumerate(blocks)
    ])


def rref(m: MatQ):
    """Reduced row echelon form over Fractions; returns (rref rows, pivot
    column list)."""
    rows = [list(row) for row in m.entries]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        pivot = next((i for i in range(r, m.rows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return rows, pivots


def rref_rank(m: MatQ) -> int:
    return len(rref(m)[1])


def rref_inverse(m: MatQ) -> MatQ | None:
    """The inverse read off the rref of [m | Id], or None if m is singular."""
    n = m.rows
    red, pivots = rref(MatQ.from_blocks([[m, MatQ.identity(n)]]))
    if pivots != list(range(n)):
        return None
    return MatQ([row[n:] for row in red])


def rref_nullspace(m: MatQ) -> list[MatQ]:
    red, pivots = rref(m)
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        vec = [Q(0)] * m.cols
        vec[fc] = Q(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(MatQ.column(vec))
    return basis


def random_matrix(r, square=False):
    """A rows x cols rational matrix, 0 <= rows, cols <= 6: a product of two
    random factors through an inner dimension that may be smaller than
    both, so that it is often rank-deficient, with some rows then zeroed."""
    rows, cols, inner = r.randint(0, 6), r.randint(0, 6), r.randint(0, 6)
    if square:
        cols = rows

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
    return MatQ(grid) if grid else MatQ.zeros(0, cols)


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
        b = MatQ([
            [Q(r.randint(-9, 9), r.randint(1, 7)) for _ in range(a.cols)]
            for _ in range(a.rows)
        ]) if a.rows else MatQ.zeros(0, a.cols)
        diff = a - b
        assert diff == a + (-b)
        assert (diff.rows, diff.cols) == (a.rows, a.cols)
        assert a - a == MatQ.zeros(a.rows, a.cols)
    for a, b in ((MatQ.zeros(2, 3), MatQ.zeros(3, 2)), (MatQ.zeros(0, 2), MatQ.zeros(0, 3))):
        with pytest.raises(ShapeMismatch):
            a - b


def test_total_is_the_pairwise_sum():
    """MatQ.total, the one-pass sum of one or more matrices, equals their sum
    taken pairwise, on shapes with no rows or no columns too; mixed shapes
    are rejected."""
    r = rng(93)
    for _ in range(200):
        a = random_matrix(r)
        mats = [a]
        for _ in range(r.randint(0, 5)):
            b = random_matrix(r)
            if (b.rows, b.cols) != (a.rows, a.cols):
                b = a.scale(Q(r.randint(-3, 3), r.randint(1, 4)))
            mats.append(b)
        total = MatQ.total(mats)
        assert total == functools.reduce(operator.add, mats)
        assert (total.rows, total.cols) == (a.rows, a.cols)
    assert MatQ.total([MatQ([["1/2", "1/3"]])] * 6) == MatQ([[3, 2]])
    for mats in ([MatQ.zeros(2, 3), MatQ.zeros(3, 2)], [MatQ.zeros(0, 2), MatQ.zeros(0, 3)]):
        with pytest.raises(ShapeMismatch):
            MatQ.total(mats)


def assert_inverse_matches_the_oracle(m: MatQ) -> bool:
    """Exact equality with the oracle; returns whether m is invertible."""
    expected = rref_inverse(m)
    if expected is None:
        with pytest.raises(NotInvertible):
            m.inverse()
        return False
    inv = m.inverse()
    assert inv == expected and (inv.rows, inv.cols) == (m.rows, m.rows)
    assert m @ inv == MatQ.identity(m.rows)
    return True


def test_inverse_and_nullspace_match_the_fraction_elimination():
    r = rng(93)
    invertible, shapes = set(), set()
    for k in range(300):
        m = random_matrix(r, square=k % 2 == 0)
        shapes.add((m.rows, m.cols))
        if m.is_square():
            invertible.add(assert_inverse_matches_the_oracle(m))
        basis = m.nullspace()
        assert basis == rref_nullspace(m), (k, m)
        assert len(basis) == m.cols - m.rank()
        assert all((m @ v).is_zero() for v in basis)
    # singular and invertible square matrices both occur, from 0x0 to 6x6
    assert invertible == {True, False}
    assert {(0, 0), (6, 6), (0, 6), (6, 0)} <= shapes


def test_int_kernel_gives_the_nullspace_as_primitive_integer_vectors():
    """Each vector of `int_kernel` is primitive, positive in its last
    nonzero entry, and that entry times the `nullspace` vector of its free
    column."""
    r = rng(95)
    for k in range(200):
        m = random_matrix(r, square=k % 2 == 0)
        kernel = int_kernel(m.num, m.cols)
        assert len(kernel) == len(m.nullspace())
        for vec, col in zip(kernel, m.nullspace()):
            last = next(filter(None, reversed(vec)))
            assert last > 0 and math.gcd(*vec) == 1, (k, m)
            assert MatQ.column(vec) == col.scale(last), (k, m)


def test_inverse_of_dense_matrices():
    r = rng(94)
    for n in (12, 12, 24):
        m = MatQ([[Q(r.randint(-9, 9), r.randint(1, 9)) for _ in range(n)]
                  for _ in range(n)])
        assert assert_inverse_matches_the_oracle(m)
        # a repeated row makes it singular
        sing = MatQ(m.entries[:-1] + m.entries[:1])
        assert not assert_inverse_matches_the_oracle(sing)
        assert rref_nullspace(sing) == sing.nullspace() != []


def test_inverse_of_a_singular_matrix_raises():
    for m in (MatQ.zeros(3, 3), MatQ([["1/2", "1/3"], [3, 2]]),
              MatQ([[0, 1], [0, 5]])):
        with pytest.raises(NotInvertible):
            m.inverse()
    with pytest.raises(ShapeMismatch):
        MatQ.zeros(2, 3).inverse()
    assert MatQ([[0, 2], [-3, 0]]).inverse() == MatQ([[0, "-1/3"], ["1/2", 0]])
