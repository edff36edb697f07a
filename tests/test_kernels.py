"""The integer kernels against the Fraction routines they replaced: the
matrix product, the unitriangular forward substitution and the orientation
sign, each kept here term by term as its oracle."""

import itertools
from fractions import Fraction as Q

from infrared.geometry import Config, config, orient, pt
from infrared.linalg import MatQ, solve_unit_upper_right
from infrared.randomgen import rand_config, rng

BIG = 10**6


def fraction_matmul(x: MatQ, y: MatQ) -> MatQ:
    """The product one reduced Fraction per term, skipping zero terms."""
    assert x.cols == y.rows
    if not x.cols:
        return MatQ.zeros(x.rows, y.cols)
    cols = list(zip(*y.entries))
    return MatQ._trusted(tuple([
        tuple([sum([a * b for a, b in zip(row, col) if a and b], Q(0)) for col in cols])
        for row in x.entries
    ]), y.cols)


def fraction_solve_unit_upper_right(b: MatQ, u: MatQ) -> MatQ:
    """X with X @ u == b, column by column: X_c = b_c - sum_{k<c} X_k u[k][c]."""
    n = u.rows
    ue = u.entries
    above = [[(k, ue[k][c]) for k in range(c) if ue[k][c]] for c in range(n)]
    out = []
    for row in b.entries:
        x = list(row)
        for c, terms in enumerate(above):
            for k, ukc in terms:
                if x[k]:
                    x[c] -= x[k] * ukc
        out.append(tuple(x))
    return MatQ._trusted(tuple(out), n)


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


def rand_blocks(r, n):
    """Block sizes summing to n."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(r.randint(1, 4), n - sum(sizes)))
    return sizes


def rand_matrix(r, rows, cols, sparse=False):
    """Dense, or block-sparse: about half of the blocks of a random block
    grid are zero."""
    grid = [[rand_entry(r) for _ in range(cols)] for _ in range(rows)]
    if sparse:
        row_at = list(itertools.accumulate([0] + rand_blocks(r, rows)))
        col_at = list(itertools.accumulate([0] + rand_blocks(r, cols)))
        for r0, r1 in zip(row_at, row_at[1:]):
            for c0, c1 in zip(col_at, col_at[1:]):
                if r.random() < 0.5:
                    for i in range(r0, r1):
                        grid[i][c0:c1] = [Q(0)] * (c1 - c0)
    return MatQ._trusted(tuple(map(tuple, grid)), cols)


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
    return MatQ._trusted(tuple(map(tuple, grid)), n)


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
            assert got == fraction_matmul(x, y), (rows, inner, cols, sparse)
            assert all(type(v) is Q for row in got.entries for v in row)
    # big denominators survive: (a/p)(b/q) for coprime p, q near 10^6
    p, q = 999983, 1000003
    x = MatQ([[Q(-7, p), Q(5, q)]])
    y = MatQ([[Q(3, q)], [Q(11, p)]])
    assert (x @ y)[0, 0] == Q(-21 + 55, p * q)


def test_forward_substitution_matches_the_fraction_oracle():
    r = rng(122)
    for n in range(1, 25):
        for sparse in (False, True):
            u = rand_unit_upper(r, n, sparse)
            b = rand_matrix(r, r.randint(0, 4), n, sparse)
            x = solve_unit_upper_right(b, u)
            assert x == fraction_solve_unit_upper_right(b, u), (n, sparse)
            assert x @ u == b
    assert solve_unit_upper_right(MatQ.zeros(2, 0), MatQ.zeros(0, 0)) == MatQ.zeros(2, 0)


def big_denominator_config(r, n):
    """n points whose coordinates have large, pairwise coprime denominators,
    with three of them on one line."""
    primes = [999983, 1000003, 1000033, 1000037, 1000039, 1000081]
    pts = [
        pt(Q(r.randint(-BIG, BIG), r.choice(primes)), Q(r.randint(-BIG, BIG), r.choice(primes)))
        for _ in range(n - 1)
    ]
    a, b = pts[0], pts[1]
    t = Q(r.randint(1, 9), primes[-1])
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
