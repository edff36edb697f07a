"""The integer kernels against the Fraction routines they replaced.  `MatQ`
stores integer rows over one denominator; `FracMat`, a grid of Fractions
with one Fraction per term, is its oracle for every operation.  The
orientation sign and the rational parser `_ratio` have their Fraction
oracles here too."""

import itertools
import math
from fractions import Fraction as Q

import pytest

from infrared.errors import InvalidInput, NotInvertible, ShapeMismatch
from infrared.geometry import Config, config, orient, pt
from infrared.linalg import MatQ, _ratio
from infrared.randomgen import rand_config, rng
from test_fourier import solve_unit_upper_right
from test_linalg import rref

BIG = 10**6
PRIMES = [999983, 1000003, 1000033, 1000037, 1000039, 1000081]


class FracMat:
    """A rows x cols grid of Fractions with the textbook operations."""

    def __init__(self, grid, cols):
        self.entries = tuple(tuple(Q(x) for x in row) for row in grid)
        self.rows, self.cols = len(self.entries), cols
        assert all(len(row) == cols for row in self.entries)

    @staticmethod
    def of(m: MatQ) -> "FracMat":
        return FracMat(m.entries, m.cols)

    @staticmethod
    def identity(n):
        return FracMat([[Q(int(i == j)) for j in range(n)] for i in range(n)], n)

    def matq(self) -> MatQ:
        return MatQ(self.entries) if self.rows else MatQ.zeros(0, self.cols)

    def __eq__(self, other):
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def _zip(self, other, op):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return FracMat([[op(a, b) for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.entries, other.entries)], self.cols)

    def __add__(self, other):
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._zip(other, lambda a, b: a - b)

    def __neg__(self):
        return FracMat([[-a for a in row] for row in self.entries], self.cols)

    def scale(self, s):
        return FracMat([[Q(s) * a for a in row] for row in self.entries], self.cols)

    def __matmul__(self, other):
        """One reduced Fraction per term, skipping zero terms."""
        assert self.cols == other.rows
        cols = [[row[c] for row in other.entries] for c in range(other.cols)]
        return FracMat([
            [sum([a * b for a, b in zip(row, col) if a and b], Q(0)) for col in cols]
            for row in self.entries
        ], other.cols)

    @property
    def T(self):
        return FracMat([[row[c] for row in self.entries] for c in range(self.cols)], self.rows)

    @staticmethod
    def from_blocks(blocks):
        width = sum(b.cols for b in blocks[0]) if blocks else 0
        grid = [[x for b in block_row for x in b.entries[r]]
                for block_row in blocks for r in range(block_row[0].rows)]
        return FracMat(grid, width)

    def rank(self):
        return len(rref(self)[1])

    def inverse(self):
        """The inverse read off the rref of [self | Id], or None if singular."""
        n = self.rows
        red, pivots = rref(FracMat.from_blocks([[self, FracMat.identity(n)]]))
        if pivots != list(range(n)):
            return None
        return FracMat([row[n:] for row in red], n)

    def nullspace(self):
        red, pivots = rref(self)
        basis = []
        for fc in (c for c in range(self.cols) if c not in pivots):
            vec = [Q(0)] * self.cols
            vec[fc] = Q(1)
            for r, pc in enumerate(pivots):
                vec[pc] = -red[r][fc]
            basis.append(FracMat([[v] for v in vec], 1))
        return basis

    def solve_unit_upper_right(self, u):
        """X with X @ u == self, column by column:
        X_c = b_c - sum_{k<c} X_k u[k][c]."""
        n = u.rows
        ue = u.entries
        above = [[(k, ue[k][c]) for k in range(c) if ue[k][c]] for c in range(n)]
        out = []
        for row in self.entries:
            x = list(row)
            for c, terms in enumerate(above):
                for k, ukc in terms:
                    if x[k]:
                        x[c] -= x[k] * ukc
            out.append(x)
        return FracMat(out, n)


def canonical(m: MatQ) -> MatQ:
    """Assert the stored form: integer rows of m.cols entries over a positive
    den that shares no factor with all of them."""
    assert len(m.num) == m.rows and all(len(row) == m.cols for row in m.num)
    assert all(type(v) is int for row in m.num for v in row) and type(m.den) is int
    assert m.den > 0 and math.gcd(m.den, *[v for row in m.num for v in row]) == 1
    return m


def same(got: MatQ, want: FracMat) -> None:
    """got equals the oracle exactly, and is canonical."""
    canonical(got)
    assert FracMat.of(got) == want, (got, want.entries)


def fraction_orient(A: Config, i: int, j: int, k: int) -> int:
    """The sign of the Fraction cross product (w_j - w_i) x (w_k - w_i)."""
    a, b, c = A[i], A[j], A[k]
    d = (b - a).cross(c - a)
    return (d > 0) - (d < 0)


def rand_entry(r, zeros=0.2):
    """Zero with probability `zeros`, else a signed rational whose numerator
    and denominator go up to 10^6 (small ones half of the time)."""
    if r.random() < zeros:
        return Q(0)
    top = BIG if r.random() < 0.5 else 9
    return Q(r.randint(-top, top), r.randint(1, top))


def big_entry(r):
    """A numerator up to 10^6 over one of the primes near 10^6."""
    return Q(r.randint(-BIG, BIG), r.choice(PRIMES))


def rand_blocks(r, n):
    """Block sizes summing to n."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(r.randint(1, 4), n - sum(sizes)))
    return sizes


def rand_matrix(r, rows, cols, sparse=False, entry=rand_entry):
    """Dense, or block-sparse: about half of the blocks of a random block
    grid are zero."""
    grid = [[entry(r) for _ in range(cols)] for _ in range(rows)]
    if sparse:
        row_at = list(itertools.accumulate([0] + rand_blocks(r, rows)))
        col_at = list(itertools.accumulate([0] + rand_blocks(r, cols)))
        for r0, r1 in zip(row_at, row_at[1:]):
            for c0, c1 in zip(col_at, col_at[1:]):
                if r.random() < 0.5:
                    for i in range(r0, r1):
                        grid[i][c0:c1] = [Q(0)] * (c1 - c0)
    return FracMat(grid, cols).matq()


def rand_unit_upper(r, n, sparse=False):
    """Upper unitriangular, dense above the diagonal or block unitriangular
    like C-tilde: zero below the diagonal blocks, some blocks above zero."""
    m = rand_matrix(r, n, n, sparse)
    sizes = rand_blocks(r, n)
    block = [b for b, size in enumerate(sizes) for _ in range(size)]
    grid = [
        [Q(1) if i == j else m[i, j] if i < j and (not sparse or block[i] < block[j])
         else Q(0) for j in range(n)]
        for i in range(n)
    ]
    return MatQ(grid)


def shapes():
    """(rows, inner, cols) triples: empty operands, 1x1, and D = 2..24."""
    yield from [(0, 3, 2), (2, 3, 0), (3, 0, 2), (0, 0, 0), (1, 1, 1)]
    for d in range(2, 25):
        yield d, d, d
    yield from [(1, 24, 1), (24, 1, 24), (5, 17, 3), (13, 2, 9)]


def test_matmul_matches_the_fraction_product():
    r = rng(121)
    for rows, inner, cols in shapes():
        for sparse in (False, True):
            x = rand_matrix(r, rows, inner, sparse)
            y = rand_matrix(r, inner, cols, sparse)
            got = x @ y
            assert (got.rows, got.cols) == (rows, cols)
            same(got, FracMat.of(x) @ FracMat.of(y))
            assert all(type(v) is Q for row in got.entries for v in row)
    # big denominators survive: (a/p)(b/q) for coprime p, q near 10^6
    p, q = 999983, 1000003
    x = MatQ([[Q(-7, p), Q(5, q)]])
    y = MatQ([[Q(3, q)], [Q(11, p)]])
    assert (x @ y)[0, 0] == Q(-21 + 55, p * q)


def test_plus_product_matches_the_fraction_grid():
    """self + sign (a @ b) against the Fraction grid, for both signs, on the
    product shapes (empty rows, columns and inner dimension included), with
    the addend over small, big and coprime-prime denominators; a wrong
    shape raises ShapeMismatch."""
    r = rng(123)
    for rows, inner, cols in shapes():
        for sparse, entry in ((False, rand_entry), (True, rand_entry), (False, big_entry)):
            x = rand_matrix(r, rows, inner, sparse)
            y = rand_matrix(r, inner, cols, sparse)
            base = rand_matrix(r, rows, cols, entry=entry)
            want = FracMat.of(x) @ FracMat.of(y)
            for sign in (1, -1):
                got = base.plus_product(x, y, sign)
                assert (got.rows, got.cols) == (rows, cols)
                same(got, FracMat.of(base) + want.scale(sign))
            # adding minus the product to itself leaves zero
            same((x @ y).plus_product(x, y, -1), want - want)
    # unequal denominators: 1/p + (1/q)(1/q) over p q^2
    p, q = 999983, 1000003
    got = MatQ([[Q(1, p)]]).plus_product(MatQ([[Q(1, q)]]), MatQ([[Q(-1, q)]]), -1)
    assert got[0, 0] == Q(1, p) + Q(1, q * q)
    assert MatQ.zeros(2, 3).plus_product(MatQ.zeros(2, 0), MatQ.zeros(0, 3)) == MatQ.zeros(2, 3)
    for base, x, y in (
        (MatQ.zeros(2, 2), MatQ.zeros(2, 3), MatQ.zeros(2, 2)),  # inner 3 vs 2
        (MatQ.zeros(2, 3), MatQ.zeros(2, 2), MatQ.zeros(2, 2)),  # 2x2 into 2x3
        (MatQ.zeros(3, 2), MatQ.zeros(2, 2), MatQ.zeros(2, 2)),  # 2x2 into 3x2
        (MatQ.zeros(2, 2), MatQ.zeros(2, 0), MatQ.zeros(1, 2)),  # inner 0 vs 1
    ):
        with pytest.raises(ShapeMismatch):
            base.plus_product(x, y, 1)


def test_forward_substitution_matches_the_fraction_oracle():
    r = rng(122)
    for n in range(1, 25):
        for sparse in (False, True):
            u = rand_unit_upper(r, n, sparse)
            b = rand_matrix(r, r.randint(0, 4), n, sparse)
            x = solve_unit_upper_right(b, u)
            same(x, FracMat.of(b).solve_unit_upper_right(FracMat.of(u)))
            assert x @ u == b
    assert solve_unit_upper_right(MatQ.zeros(2, 0), MatQ.zeros(0, 0)) == MatQ.zeros(2, 0)
    for bad in (MatQ([[1, 1], [1, 1]]), MatQ([[2, 0], [0, 1]]), MatQ([["1/2", 0], [0, 1]])):
        with pytest.raises(InvalidInput):
            solve_unit_upper_right(MatQ.zeros(1, 2), bad)


def operands(r):
    """(a, b) pairs of one shape: 0 x k, k x 0, zero matrices, D = 1..24 with
    small and big entries, entries over distinct primes near 10^6, and
    matrices of rank at most 1."""
    for rows, cols in [(0, 3), (3, 0), (0, 0), (2, 5)]:
        yield rand_matrix(r, rows, cols), rand_matrix(r, rows, cols)
    yield MatQ.zeros(3, 3), rand_matrix(r, 3, 3)
    yield rand_matrix(r, 2, 4), MatQ.zeros(2, 4)
    for d in range(1, 25):
        yield rand_matrix(r, d, d, sparse=d % 2 == 0), rand_matrix(r, d, d)
    for d in range(1, 7):
        yield rand_matrix(r, d, d, entry=big_entry), rand_matrix(r, d, d, entry=big_entry)
    # rank at most 1, square and stacked
    for d in range(2, 9):
        low = rand_matrix(r, d, 1, entry=big_entry) @ rand_matrix(r, 1, d)
        yield low, rand_matrix(r, d, d)
        yield MatQ.from_blocks([[low], [low.scale(Q(-3, 7))]]), rand_matrix(r, 2 * d, d)


def test_every_operation_matches_the_fraction_grid():
    r = rng(124)
    for a, b in operands(r):
        fa, fb = FracMat.of(canonical(a)), FracMat.of(canonical(b))
        s = rand_entry(r, zeros=0.1)
        same(a + b, fa + fb)
        same(a - b, fa - fb)
        same(a - a, fa - fa)
        same(-a, -fa)
        same(a.scale(s), fa.scale(s))
        same(a.scale(0), fa.scale(0))
        same(a.T, fa.T)
        same(a @ b.T, fa @ fb.T)
        same(MatQ.from_blocks([[a, b], [b, a]]), FracMat.from_blocks([[fa, fb], [fb, fa]]))
        same(MatQ.from_blocks([[a], [b.scale(s)]]), FracMat.from_blocks([[fa], [fb.scale(s)]]))
        assert a.rank() == fa.rank()
        basis = a.nullspace()
        assert len(basis) == len(fa.nullspace())
        for got, want in zip(basis, fa.nullspace()):
            same(got, want)
        if a.rows > 12 and a.den > 1:
            continue  # the Fraction Gauss-Jordan of [a | Id] is slow there
        want = fa.inverse() if a.is_square() else False
        if want is None:
            with pytest.raises(NotInvertible):
                a.inverse()
        elif want is not False:
            same(a.inverse(), want)


def test_equality_is_equality_of_the_fraction_grids():
    r = rng(126)
    mats = []
    for _ in range(40):
        rows, cols = r.randint(0, 3), r.randint(0, 3)
        a = rand_matrix(r, rows, cols, entry=lambda r: Q(r.randint(-2, 2), r.randint(1, 3)))
        mats += [a, a.scale(6).scale(Q(1, 6)), (a + a) - a, -(-a), a.T.T]
        if rows:
            mats.append(MatQ([[str(x) for x in row] for row in a.entries]))
            mats.append(MatQ([[f"{x.numerator * 2}/{x.denominator * 2}" for x in row]
                              for row in a.entries]))
    mats += [MatQ.zeros(0, 2), MatQ.zeros(0, 3), MatQ.zeros(2, 0), MatQ.identity(0)]
    mats += [MatQ([[1, "1/2"]]), MatQ([["1/2", 1]]), MatQ([["2/4", "1/1"]])]
    for a, b in itertools.product(mats, repeat=2):
        fa, fb = FracMat.of(a), FracMat.of(b)
        assert (a == b) == (fa == fb)
        if a == b:
            assert hash(a) == hash(b)
    with pytest.raises(ShapeMismatch):
        MatQ.zeros(0, 2) + MatQ.zeros(0, 3)


def test_to_json_writes_what_str_of_fraction_writes():
    r = rng(127)
    for entry in (rand_entry, big_entry, lambda r: Q(r.randint(-4, 4))):
        for rows, cols in [(0, 2), (2, 0), (1, 1), (3, 4)]:
            m = rand_matrix(r, rows, cols, entry=entry)
            assert m.to_json() == [[str(x) for x in row] for row in m.entries]
            if rows:
                assert MatQ(m.to_json()) == m


# strings that Fraction(str) accepts, and strings that it rejects
STRINGS = [" 1/2 ", "+3", "007", "-0/5", "1_000/3", "1.5", "1e3", "3/0", "1 /2", "",
           "٣", "-12/18", "0", "-0", "4/6", "1/2\n", "1/-2", "+1/+2", "1//2",
           "-", "/2", "0x10", "12345678901234567890/3"]


def test_ratio_agrees_with_fraction_on_strings():
    accepted = 0
    for s in STRINGS:
        try:
            want = Q(s)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(InvalidInput):
                _ratio(s)
            continue
        accepted += 1
        n, d = _ratio(s)
        assert (type(n), type(d)) == (int, int) and d > 0 and math.gcd(n, d) == 1
        assert Q(n, d) == want, s
        assert MatQ([[s]])[0, 0] == want
    assert 0 < accepted < len(STRINGS)
    for x in (Q(-6, 4), 7, Q(0)):
        assert _ratio(x) == Q(x).as_integer_ratio()
    for bad in (1.5, None, [1], "x", True, False):
        with pytest.raises(InvalidInput):
            _ratio(bad)


def big_denominator_config(r, n):
    """n points whose coordinates have large, pairwise coprime denominators,
    with three of them on one line."""
    pts = [
        pt(Q(r.randint(-BIG, BIG), r.choice(PRIMES)), Q(r.randint(-BIG, BIG), r.choice(PRIMES)))
        for _ in range(n - 1)
    ]
    a, b = pts[0], pts[1]
    t = Q(r.randint(1, 9), PRIMES[-1])
    pts.append(pt(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))  # on line ab
    return Config(pts)


def test_sign_table_matches_the_fraction_orient():
    r = rng(123)
    collinear = [config((0, 0), (1, 1), (2, 2), (0, 1), (3, 1))]
    collinear += [big_denominator_config(r, n) for n in (3, 5, 8)]
    generic = [rand_config(r, n, require_strong=False) for n in (3, 5, 8)]
    for A in collinear + generic:
        t = A.sign_table()
        zeros = 0
        for i, j, k in itertools.permutations(range(len(A)), 3):
            want = fraction_orient(A, i, j, k)
            assert orient(A, i, j, k) == t[i][j][k] == want, (A, i, j, k)
            zeros += want == 0
        assert (zeros > 0) == (A in collinear)
        pts, den = A.int_points()
        assert A.int_points()[0] is pts
        assert [(Q(x, den), Q(y, den)) for x, y in pts] == [(p.x, p.y) for p in A]
