import itertools
import math
from fractions import Fraction as Q
from operator import mul

import pytest

from infrared.checksuite import IDENTITIES
from infrared.errors import (
    DegeneratePosition,
    EdgePrecondition,
    InvalidInput,
    NotInvertible,
    ShapeMismatch,
)
from infrared.geometry import Dir, config, general_position, infinity_generic, infinity_order
from infrared.linalg import MatQ, _over
from infrared.fourier import (
    FourierDiagram,
    _block,
    _block_offsets,
    _chain_matrix,
    _jacobson_arms,
    _times_block_upper,
    alt_circum_sum,
    circum_sum,
    dressed_transport,
    factorization_check,
    fourier_diagram,
    fourier_order,
    global_monodromy,
    iterated_transport,
    monodromy_product,
    stokes_pair,
)
from infrared.paths import enumerate_zeta_convex_paths
from infrared.perverse import TransportData, gmv_embed, mu
from infrared.randomgen import (
    maximally_concave_config,
    rand_config,
    rand_matrix,
    rand_transport,
    rng,
)
from test_linalg import block_diagonal
from test_paths import enumerate_circum_paths

Z0 = Dir(Q(-1), Q(0))
Z_RIGHT = Dir(Q(1), Q(0))


def submatrix(m: MatQ, row_range, col_range) -> MatQ:
    """The block of m on the given rows and columns; with no rows it keeps
    the width of col_range."""
    if not row_range:
        return MatQ.zeros(0, len(col_range))
    return MatQ([[m[r, c] for c in col_range] for r in row_range])


def scalar(x):
    return MatQ([[x]])


def scalar_transport(entries):
    n = len(entries)
    return TransportData(
        [1] * n, [[scalar(entries[i][j]) for j in range(n)] for i in range(n)]
    )


def test_fourier_diagram_n1():
    A = config((0, 0))
    m = scalar_transport([[6]])  # a = 6 stacked, b = 1 in the embed
    diag = fourier_diagram(m, Z_RIGHT, A)
    q = gmv_embed(m)
    a, b = q.a[0], q.b[0]
    # a-check = b, b-check = -a (1 - ba)^{-1}
    assert diag.a_check[0] == b
    assert diag.b_check == -(a @ (MatQ.identity(1) - b @ a).inverse())
    # Id - b-check a-check = (1 - ab)^{-1}
    assert diag.monodromy() == (MatQ.identity(1) - a @ b).inverse()


def test_fourier_diagram_zero():
    A = config((0, 0), (1, 1))
    m = scalar_transport([[0, 0], [0, 0]])
    diag = fourier_diagram(m, Z_RIGHT, A)
    assert diag.b_check.is_zero()
    assert diag.monodromy() == MatQ.identity(2)


def test_fourier_monodromy_product():
    """The registry's Fourier entry (the clockwise product and the one-point
    quiver of the transform) on the draws of seed 51, N = 2..5."""
    entry = IDENTITIES["fourier_monodromy"]
    r = rng(51)
    for n in (2, 3, 4, 5):
        assert entry(r, n, 3) is None


# The factorization identity carries a finite convention freedom: the
# exponent of the local monodromies in the diagonal factor, the side, sign
# and exponent of the whole-monodromy block twist turning C- into C-tilde,
# and the slot order of the monodromy product on the left.  The N=2 closed
# form pins all of them; factorization_check writes out the values below.
FACTORIZATION_CONVENTION = {
    "delta_exponent": -1,
    "twist_exponent": -1,
    "twist_side": "source",
    "twist_sign": -1,
    "lhs": "ascending",
}
LHS_CHOICES = ("ascending", "descending", "ascending_inverse", "descending_inverse")


def _direct_monodromy_product(m, kind):
    """Oracle: the product of the D x D inverses T_{i,Psi}^{-1}, inverted as
    a whole for the *_inverse kinds."""
    q = gmv_embed(m)
    slots = range(q.n) if kind.startswith("ascending") else range(q.n - 1, -1, -1)
    acc = MatQ.identity(q.d_psi)
    for i in slots:
        acc = acc @ q.t_psi(i).inverse()
    return acc.inverse() if kind.endswith("_inverse") else acc


def _convention_inputs(m, A, zeta0):
    """What every convention is built from, computed once per instance: the
    Stokes pair, Delta for both exponents and the four left sides."""
    mt, pair = dressed_transport(m, A, zeta0)
    diagonal = {
        -1: block_diagonal([mt.local_monodromy_inverse(s) for s in range(mt.n)]),
        1: block_diagonal([MatQ.identity(d) - mt.m[s][s] for s, d in enumerate(mt.dims)]),
    }
    lhs = {kind: _direct_monodromy_product(mt, kind) for kind in LHS_CHOICES}
    return pair, diagonal, lhs


def _factorization_sides(inputs, conv):
    """(Delta, C-tilde, lhs, rhs) of the factorization under conv."""
    pair, diagonal, lhs = inputs
    delta = diagonal[conv["delta_exponent"]]
    twist = diagonal[conv["twist_exponent"]]
    ident = MatQ.identity(delta.rows)
    off = pair.c_minus - ident
    off = off @ twist if conv["twist_side"] == "source" else twist @ off
    c_til = ident + off.scale(conv["twist_sign"])
    return delta, c_til, lhs[conv["lhs"]], pair.c_plus @ delta @ c_til.inverse()


def solve_factorization_convention(instances) -> list[dict]:
    """The symbolic oracle: every convention in the finite search space
    that holds exactly on all supplied (m, A, zeta0) triples."""
    inputs = [_convention_inputs(*inst) for inst in instances]
    survivors = []
    for de, te, side, sign, lhs_kind in itertools.product(
        (-1, 1), (-1, 1), ("source", "target"), (-1, 1), LHS_CHOICES
    ):
        conv = {
            "delta_exponent": de,
            "twist_exponent": te,
            "twist_side": side,
            "twist_sign": sign,
            "lhs": lhs_kind,
        }
        if all(
            lhs == rhs
            for _, _, lhs, rhs in (_factorization_sides(x, conv) for x in inputs)
        ):
            survivors.append(conv)
    return survivors


def test_monodromy_product_against_direct_inverses():
    r = rng(58)
    for n in (1, 2, 3, 4, 5):
        for _ in range(3):
            m = rand_transport(r, n, max_dim=3)
            for kind in ("ascending", "descending"):
                assert monodromy_product(m, kind) == _direct_monodromy_product(m, kind)
    for kind in ("clockwise", "ascending_inverse", "descending_inverse"):
        with pytest.raises(InvalidInput):
            monodromy_product(m, kind)


def _enumerated_stokes_blocks(m, A, zeta0):
    """Oracle: every off-diagonal Stokes block as the sum over the enumerated
    convex paths, keyed (source slot, target slot) like StokesPair.blocks;
    also returns how many of the paths have an intermediate vertex."""
    order = fourier_order(A, zeta0)
    zplus, zminus = zeta0.conjugate().opposite(), zeta0.conjugate()
    blocks, multi_vertex = {}, 0
    for s, t in itertools.permutations(range(len(order)), 2):
        i, j = order[s], order[t]
        acc = MatQ.zeros(m.dims[j], m.dims[i])
        for p in enumerate_zeta_convex_paths(A, i, j, zplus if s < t else zminus):
            acc = acc + iterated_transport(m, p.vertices)
            multi_vertex += len(p.vertices) > 2
        blocks[(s, t)] = acc
    return blocks, multi_vertex


def jittered_arc(r, n):
    """n points in convex position near the parabola x = (y - c)^2, at
    distinct integer heights, with x-jitter randint(-199, 199)/997; redrawn
    until in strong general position.  The jitter stays below 1/2, so the
    arc bulges rightward and every upward chain turns clockwise."""
    while True:
        ys = sorted(r.sample(range(-3 * n, 3 * n + 1), n))
        c = Q(ys[0] + ys[-1], 2)
        A = config(*(((y - c) ** 2 + Q(r.randint(-199, 199), 997), y) for y in ys))
        if general_position(A).strong_lin_general:
            return A


def test_stokes_pair_matches_path_enumeration():
    r = rng(60)
    instances = []
    for n in range(2, 10):
        for _ in range(2):
            instances.append((rand_config(r, n, extra_dirs=(Z_RIGHT,)), Z0))
    for n in range(3, 11):
        instances.append((jittered_arc(r, n), Z0))
    for n in (3, 5, 7):
        instances.append((maximally_concave_config(r, n), Z0))
    for zeta0 in (Dir(Q(1), Q(2)), Dir(Q(-3), Q(-1))):
        spider = zeta0.conjugate().opposite()
        for n in (4, 6, 8):
            instances.append((rand_config(r, n, extra_dirs=(spider,)), zeta0))
        instances.append((jittered_arc(r, 7), zeta0))
    multi_vertex = 0
    for A, zeta0 in instances:
        m = rand_transport(r, len(A), max_dim=2)
        pair = stokes_pair(m, A, zeta0)
        expect, multi = _enumerated_stokes_blocks(m, A, zeta0)
        assert pair.blocks == expect
        n = len(A)
        assert sorted(pair.blocks) == sorted(itertools.permutations(range(n), 2))
        multi_vertex += multi
    assert multi_vertex > 1000


def test_dressed_transport_blocks_resum_the_paths():
    r = rng(59)
    multi_vertex = 0
    for A in (
        rand_config(r, 5, extra_dirs=(Z_RIGHT,)),
        rand_config(r, 6, extra_dirs=(Z_RIGHT,)),
        config((0, 0), (-2, 1), (-5, 3), (-6, 7), (-4, 11)),  # convex arc
    ):
        m = rand_transport(r, len(A), max_dim=2)
        mt, pair = dressed_transport(m, A, Z0)
        mm = m.permuted(pair.order)
        zplus, zminus = Z0.conjugate().opposite(), Z0.conjugate()
        for s in range(m.n):
            assert mt.m[s][s] == mm.m[s][s]
            for t in range(m.n):
                if s == t:
                    continue
                i, j = pair.order[s], pair.order[t]
                paths = enumerate_zeta_convex_paths(A, i, j, zplus if s < t else zminus)
                expect = MatQ.zeros(pair.dims[t], pair.dims[s])
                for p in paths:
                    expect = expect + iterated_transport(m, p.vertices)
                    multi_vertex += len(p.vertices) > 2
                assert mt.m[s][t] == expect
    assert multi_vertex > 0


def test_iterated_transport():
    m = scalar_transport([[0, 3, 5], [0, 0, 2], [0, 0, 0]])
    assert iterated_transport(m, [0, 1]) == scalar(3)
    assert iterated_transport(m, [0, 1, 2]) == scalar(6)
    with pytest.raises(ShapeMismatch):
        iterated_transport(m, [0])


def test_stokes_n2():
    A = config((0, 0), (1, 2))
    m = scalar_transport([[0, 5], [7, 0]])
    pair = stokes_pair(m, A, Z0)
    assert pair.order == (0, 1)
    assert pair.c_plus == MatQ([[1, 0], [5, 1]])
    assert pair.c_minus == MatQ([[1, 7], [0, 1]])


def test_stokes_numbering_rejects_a_height_tie():
    # strong general position, but points 0 and 1 share the height that
    # numbers the slots for zeta0 = -1/0
    A = config((0, 0), (1, 0), (0, 1))
    m = scalar_transport([[0, 1, 2], [3, 0, 4], [5, 6, 0]])
    with pytest.raises(DegeneratePosition):
        stokes_pair(m, A, Z0)
    with pytest.raises(DegeneratePosition):
        factorization_check(m, A, Z0)


def fraction_fourier_order(A, zeta):
    """Oracle: the spider order as a sort by the Fraction infinity form, and
    whether that form separates the points."""
    spider = zeta.conjugate().opposite()
    vals = [spider.infinity_form(p) for p in A]
    return sorted(range(len(A)), key=vals.__getitem__), len(set(vals)) == len(vals)


def test_integer_spider_order_matches_the_fraction_sort():
    """fourier_order and infinity_generic read integer keys; they agree with
    the Fraction sort on random points and directions, and a tie, made by a
    direction along the segment between two points, raises the same
    DegeneratePosition message while infinity_order keeps the stable
    Fraction order."""
    r = rng(68)
    ties = 0
    for k in range(120):
        n = 1 + k % 7
        A = rand_config(r, n, require_strong=False)
        if k % 3 == 2 and n > 1:
            # the spider direction -conj(zeta) along w_j - w_i, rescaled
            i, j = r.sample(range(n), 2)
            d, c = A[j] - A[i], Q(r.randint(1, 5), r.randint(1, 5))
            zeta = Dir(-d.x * c, d.y * c)
        else:
            dx, dy = (Q(r.randint(-9, 9), r.randint(1, 4)) for _ in range(2))
            zeta = Dir(dx, dy) if dx or dy else Z0
        expect, generic = fraction_fourier_order(A, zeta)
        spider = zeta.conjugate().opposite()
        assert infinity_order(A, spider) == (expect, generic)
        assert infinity_generic(A, spider) is generic
        if generic:
            assert fourier_order(A, zeta) == expect
        else:
            ties += 1
            with pytest.raises(DegeneratePosition) as err:
                fourier_order(A, zeta)
            assert str(err.value) == (
                "configuration not in general position including the spider infinity")
    assert ties >= 30


def test_stokes_three_point_two_term_block():
    # left-convex [0,1,2]: C+ block (0,2) = m_02 + m_12 m_01
    A = config((0, 0), (-1, 1), (0, 2))
    m = scalar_transport([[0, 3, 5], [0, 0, 2], [0, 0, 0]])
    pair = stokes_pair(m, A, Z0)
    assert pair.order == (0, 1, 2)
    assert pair.c_plus.entries[2][0] == Q(11)  # 5 + 2*3


def test_stokes_maximally_concave_single_transports():
    from infrared.geometry import Config, Pt

    r = rng(52)
    for n in (3, 4, 5):
        A = maximally_concave_config(r, n)
        m = rand_transport(r, n, max_dim=2)
        pair = stokes_pair(m, A, Z0)
        mt, _ = dressed_transport(m, A, Z0)
        mm = m.permuted(pair.order)
        # ascending (C+) blocks collapse to the plain segments
        for s in range(n):
            for t in range(s + 1, n):
                assert mt.m[s][t] == mm.m[s][t]
        # mirroring the configuration swaps the two convexities: in the
        # mirror, the descending (C-) blocks are the single transports
        mirror = Config(Pt(-p.x, p.y) for p in A)
        pair_m = stokes_pair(m, mirror, Z0)
        assert pair_m.order == pair.order
        mt_m, _ = dressed_transport(m, mirror, Z0)
        for s in range(n):
            for t in range(s):
                assert mt_m.m[s][t] == mm.m[s][t]
        # reflection symmetry: mirrored C- blocks match the original C+
        blocks = pair.c_plus - MatQ.identity(pair.c_plus.rows)
        blocks_m = pair_m.c_minus - MatQ.identity(pair_m.c_minus.rows)
        # C+ holds ascending maps, mirrored C- holds descending ones; in the
        # maximally concave case both reduce to the same plain transports,
        # compare blockwise through the shared slot order
        offs = [0]
        for d in pair.dims:
            offs.append(offs[-1] + d)
        for s in range(n):
            for t in range(s + 1, n):
                up = submatrix(
                    pair.c_plus, range(offs[t], offs[t + 1]), range(offs[s], offs[s + 1])
                )
                assert up == mm.m[s][t]
                down = submatrix(
                    pair_m.c_minus, range(offs[s], offs[s + 1]), range(offs[t], offs[t + 1])
                )
                assert down == mm.m[t][s]


def test_factorization_zero_and_random():
    A = config((0, 0), (1, 2))
    zero = scalar_transport([[0, 0], [0, 0]])
    rep = factorization_check(zero, A, Z0)
    rhs = solve_unit_upper_right(rep.c_plus @ rep.delta, rep.c_minus_twisted)
    assert rep.ok and rep.lhs == MatQ.identity(2) == rhs


def solve_unit_upper_right(b: MatQ, u: MatQ) -> MatQ:
    """X with X @ u == b for u upper unitriangular (ones on the diagonal,
    zeros below it), by forward substitution over the columns: column c of X
    is b_c - sum_{k<c} X_k u[k][c], one integer dot product per entry.
    Nothing is inverted."""
    n = u.rows
    if u.cols != n or b.cols != n:
        raise ShapeMismatch(f"cannot solve X @ ({n}x{u.cols}) = ({b.rows}x{b.cols})")
    un, du, db = u.num, u.den, b.den
    if any(un[c][c] != du or any(un[c][:c]) for c in range(n)):
        raise InvalidInput("matrix is not upper unitriangular")
    # column c of u above the diagonal, over du
    above = [col[:c] for c, col in enumerate(zip(*un))]
    rows, dens = [], []
    for row in b.num:
        # x[:c] is xs / dx, each entry in lowest terms as it is found
        xs, dx = [], 1
        for bc, uc in zip(row, above):
            s = sum(map(mul, xs, uc))
            p, q = (bc * dx * du - s * db, db * dx * du) if s else (bc, db)
            g = math.gcd(p, q)
            p, q = p // g, q // g
            if dx % q:
                m = q // math.gcd(dx, q)
                xs = [v * m for v in xs]
                dx *= m
            xs.append(p * (dx // q))
        rows.append(xs)
        dens.append(dx)
    return MatQ._reduced(*_over(rows, dens), n)


def dense_unitriangular(dims, blocks):
    """Oracle assembly: the grid of identity diagonal blocks, the given
    blocks and zero blocks through MatQ.from_blocks; block (s, t), a map
    slot_s -> slot_t, goes to block row t, column s."""
    n = len(dims)
    return MatQ.from_blocks([
        [
            MatQ.identity(dims[t]) if s == t
            else blocks.get((s, t), MatQ.zeros(dims[t], dims[s]))
            for s in range(n)
        ]
        for t in range(n)
    ])


def dense_ascending_product(m):
    """Oracle: T_1^{-1} ... T_N^{-1} as rank-d_i updates, each arm a_i
    assembled on its own by from_blocks and b_i the projection of
    gmv_embed."""
    b = gmv_embed(m).b
    acc = MatQ.identity(sum(m.dims))
    for i in range(m.n):
        arm = MatQ.from_blocks([[m.m[i][j]] for j in range(m.n)])
        acc = acc + acc @ arm @ m.local_monodromy_inverse(i) @ b[i]
    return acc


def dense_factorization(m, pair, down=None):
    """Oracle: the factorization computed densely from a Stokes pair, with
    C+ and C- (from `down` in place of the C- blocks of the pair, if given)
    assembled by dense_unitriangular, dense products with Delta, T_glob by
    dense_ascending_product on the dressed data and the right side by
    forward substitution."""
    up = {k: b for k, b in pair.blocks.items() if k[0] < k[1]}
    if down is None:
        down = {k: b for k, b in pair.blocks.items() if k[0] > k[1]}
    c_plus, c_minus = dense_unitriangular(pair.dims, up), dense_unitriangular(pair.dims, down)
    mt = m.permuted(pair.order).replace(pair.blocks)
    delta = block_diagonal([mt.local_monodromy_inverse(s) for s in range(mt.n)])
    ident = MatQ.identity(delta.rows)
    c_til = ident - (c_minus - ident) @ delta
    lhs = dense_ascending_product(mt)
    rhs = solve_unit_upper_right(c_plus @ delta, c_til)
    return {
        "c_plus": c_plus, "c_minus": c_minus, "delta": delta,
        "c_minus_twisted": c_til, "lhs": lhs, "rhs": rhs, "ok": lhs == rhs,
    }


def report_parts(rep):
    """The factors and verdict of a FactorizationReport, with the right side
    solved from them as dense_factorization solves it."""
    parts = {key: getattr(rep, key) for key in (
        "c_plus", "c_minus", "delta", "c_minus_twisted", "lhs", "ok")}
    parts["rhs"] = solve_unit_upper_right(rep.c_plus @ rep.delta, rep.c_minus_twisted)
    return parts


def transport_with_empty_slots(r, n):
    """Random transport data with slot dims drawn from 0..3."""
    while True:
        dims = [r.randint(0, 3) for _ in range(n)]
        grid = [[rand_matrix(r, dims[j], dims[i]) for j in range(n)] for i in range(n)]
        try:
            return TransportData(dims, grid)
        except NotInvertible:
            continue


def stokes_draws(seed, count=64):
    """Seeded (A, zeta0, m) draws with N = 1..8 and slot dims 0..3: random
    configurations and jittered arcs, for three Stokes directions."""
    r = rng(seed)
    for k in range(count):
        n = 1 + k % 8
        zeta0 = (Z0, Z0, Dir(Q(1), Q(2)), Dir(Q(-3), Q(-1)))[k // 8 % 4]
        spider = zeta0.conjugate().opposite()
        if k % 2 and zeta0 == Z0:
            A = jittered_arc(r, n)
        else:
            A = rand_config(r, n, extra_dirs=(spider,))
        yield A, zeta0, transport_with_empty_slots(r, n)


def test_factorization_matches_the_dense_oracle():
    """factorization_check, with its blockwise products and its product
    check, gives exactly the C+, C-, Delta, C-tilde, T_glob, right side and
    verdict of the dense computation, on 64 seeded draws with N = 1..8 and
    slot dims 0..3: random configurations and jittered arcs, for three
    Stokes directions."""
    shapes = set()
    for k, (A, zeta0, m) in enumerate(stokes_draws(63)):
        rep = factorization_check(m, A, zeta0)
        expect = dense_factorization(m, stokes_pair(m, A, zeta0))
        assert rep.ok is True
        assert report_parts(rep) == expect, k
        shapes.update(m.dims)
        shapes.add(("D", sum(m.dims) == 0))
    assert shapes == {0, 1, 2, 3, ("D", True), ("D", False)}


def _column_block(x: MatQ, offs, i: int) -> MatQ:
    lo, hi = offs[i], offs[i + 1]
    return MatQ._reduced(tuple([row[lo:hi] for row in x.num]), x.den, hi - lo)


def _add_to_columns(acc: MatQ, offs, j: int, u: MatQ) -> MatQ:
    """acc + u b_j: b_j of gmv_embed projects Psi onto slot j, so this adds
    u to the slot-j columns of acc."""
    lo, hi = offs[j], offs[j + 1]
    den = math.lcm(acc.den, u.den)
    sa, su = den // acc.den, den // u.den
    rows = acc.num if sa == 1 else [tuple([x * sa for x in row]) for row in acc.num]
    return MatQ._reduced(tuple([
        row[:lo] + tuple([x + y * su for x, y in zip(row[lo:hi], urow)]) + row[hi:]
        for row, urow in zip(rows, u.num)
    ]), den, acc.cols)


def rank_update_product(m, kind):
    """Oracle: the ordered product as one rank-d_i update of the whole
    running product per slot, acc + (acc e_i) b_i, each a matrix product and
    a column-block update."""
    offs = _block_offsets(m.dims)
    e = _jacobson_arms(m, offs)
    acc = MatQ.identity(offs[-1])
    for i in range(m.n) if kind == "ascending" else range(m.n - 1, -1, -1):
        acc = _add_to_columns(acc, offs, i, acc @ _column_block(e, offs, i))
    return acc


def test_monodromy_product_matches_the_rank_update_oracle():
    """Both orders of the product, one final column block at a time, equal
    the rank-update products exactly, on the raw and on the dressed data of
    64 seeded draws with N = 1..8 and slot dims 0..3 (empty slots
    included)."""
    dims = set()
    for A, zeta0, m in stokes_draws(65):
        mt, _ = dressed_transport(m, A, zeta0)
        for data in (m, mt):
            for kind in ("ascending", "descending"):
                assert monodromy_product(data, kind) == rank_update_product(data, kind)
        dims.update(m.dims)
    assert dims == {0, 1, 2, 3}


def rank_update_fourier_diagram(m, zeta, A):
    """Oracle: a-check_i = b_i (Id + e_{i-1} b_{i-1}) ... (Id + e_0 b_0),
    one rank update of the running row block per earlier slot, and
    b-check = -e."""
    order = fourier_order(A, zeta)
    mm = m.permuted(order)
    offs = _block_offsets(mm.dims)
    e = _jacobson_arms(mm, offs)
    a_check = []
    for i, d in enumerate(mm.dims):
        acc = _add_to_columns(MatQ.zeros(d, offs[-1]), offs, i, MatQ.identity(d))
        for j in range(i - 1, -1, -1):
            acc = _add_to_columns(acc, offs, j, acc @ _column_block(e, offs, j))
        a_check.append(acc)
    return FourierDiagram(tuple(order), tuple(mm.dims), offs[-1], tuple(a_check), -e)


def inverted_fourier_diagram(m, zeta, A):
    """Oracle: the stacked a-check as (Id - L)^{-1} by MatQ.inverse, L the
    strictly block-lower part of the Jacobson arms e, and b-check = -e."""
    order = fourier_order(A, zeta)
    mm = m.permuted(order)
    offs = _block_offsets(mm.dims)
    e = _jacobson_arms(mm, offs)
    low = MatQ([[e[r, c] if c < lo else 0 for c in range(offs[-1])]
                for lo, hi in zip(offs, offs[1:]) for r in range(lo, hi)])
    stack = (MatQ.identity(offs[-1]) - low).inverse()
    a_check = tuple([submatrix(stack, range(lo, hi), range(offs[-1]))
                     for lo, hi in zip(offs, offs[1:])])
    return FourierDiagram(tuple(order), tuple(mm.dims), offs[-1], a_check, -e)


def test_fourier_diagram_matches_the_rank_update_oracle(inverse_calls):
    """a-check as the transpose of one arm product, b-check and the
    monodromy equal those of the rank-update products and of the inverse
    (Id - L)^{-1} exactly, on 64 seeded draws with N = 1..8 and slot dims 0..3 (empty
    slots included); fourier_diagram calls MatQ.inverse not at all."""
    dims = set()
    for A, zeta0, m in stokes_draws(68):
        inverse_calls.clear()
        diag = fourier_diagram(m, zeta0, A)
        assert inverse_calls == []
        expect = rank_update_fourier_diagram(m, zeta0, A)
        assert diag == expect == inverted_fourier_diagram(m, zeta0, A)
        assert diag.monodromy() == expect.monodromy()
        dims.update(m.dims)
    assert dims == {0, 1, 2, 3}


def _chain_sums(m, order, t, turn, sign=1):
    """Oracle: for the source i = order[0] and each later v, the sum over the
    chains from i to v that run forward in `order` and turn with
    t[u][x][w] == turn at every intermediate vertex x, of the product of
    their edge blocks, each times `sign`, by a transfer-matrix DP for this
    one source.  S(u, v) sums the chains whose last edge is u -> v, starting
    from S(i, v) = sign m_iv; when v comes up every edge into v is final, so
    block v is the sum of the S(u, v), and S(v, w) = sign m_vw (sum of the
    S(u, v) whose u turns at v toward w)."""
    blk = m.m if sign == 1 else [[-x for x in row] for row in m.m]
    i = order[0]
    into = {v: {i: blk[i][v]} for v in order[1:]}  # into[v][u] = S(u, v)
    sums = {}
    for a, v in enumerate(order[1:], 2):
        last = into[v]
        sums[v] = MatQ.total(list(last.values()))
        for w in order[a:]:
            turns = [u for u in last if t[u][v][w] == turn]
            if turns:
                into[w][v] = blk[v][w] @ MatQ.total([last[u] for u in turns])
    return sums


def maximally_concave_for(r, n, zeta0):
    """maximally_concave_config, redrawn until generic for the spider
    direction of zeta0."""
    spider = zeta0.conjugate().opposite()
    while True:
        A = maximally_concave_config(r, n)
        if infinity_generic(A, spider):
            return A


def jittered_arc_for(r, n, zeta0):
    """jittered_arc, redrawn until generic for the spider direction of zeta0."""
    spider = zeta0.conjugate().opposite()
    while True:
        A = jittered_arc(r, n)
        if infinity_generic(A, spider):
            return A


def test_chain_matrix_matches_the_per_source_oracle():
    """One _chain_matrix pass per direction, with every source a column
    block, equals the per-source chain sums block for block, for the
    ascending (C+) and the descending (C-) order and for both edge signs; it
    is block unit lower triangular in its order, and stokes_pair equals the
    enumerated path sums.  72 seeded draws with N = 1..10, slot dims 0..3
    (empty slots included), zeta0 in {-1/0, 1/2, -3/-1}: random
    configurations, jittered arcs and maximally concave chains."""
    r = rng(69)
    dims, multi_vertex = set(), 0
    for k in range(72):
        n = 1 + k % 10
        zeta0 = (Z0, Dir(Q(1), Q(2)), Dir(Q(-3), Q(-1)))[k % 3]
        family = k // 3 % 3
        if family == 0:
            A = rand_config(r, n, extra_dirs=(zeta0.conjugate().opposite(),))
        elif family == 1:
            A = jittered_arc_for(r, n, zeta0)
        else:
            A = maximally_concave_for(r, n, zeta0)
        m = transport_with_empty_slots(r, n)
        order = fourier_order(A, zeta0)
        t = A.sign_table()
        for seq in (order, order[::-1]):
            offs = _block_offsets([m.dims[v] for v in seq])
            for sign in (1, -1):
                c = _chain_matrix(m, seq, t, -1, sign)
                for q in range(n):
                    expect = _chain_sums(m, seq[q:], t, -1, sign)
                    for p in range(n):
                        block = _block(c, offs, q, p)
                        if p > q:
                            assert block == expect[seq[p]], (k, seq, sign, q, p)
                        elif p == q:
                            assert block == MatQ.identity(m.dims[seq[p]])
                        else:
                            assert block.is_zero()
        if n <= 8:
            blocks, multi = _enumerated_stokes_blocks(m, A, zeta0)
            assert stokes_pair(m, A, zeta0).blocks == blocks
            multi_vertex += multi
        dims.update(m.dims)
    assert dims == {0, 1, 2, 3} and multi_vertex > 500


def chain_work(A, zeta0):
    """What the two _chain_matrix passes of stokes_pair do: the number of
    block products (vertex pairs b before c), the number of sums (one per
    distinct turning set at each vertex with a predecessor, the full set
    being its row block), and over the (b, c) steps with a nonempty turning
    set, how many sets are partial and new at b and how many repeat one
    already summed at b."""
    order = fourier_order(A, zeta0)
    t = A.sign_table()
    products = sums = partial = repeats = 0
    for seq in (order, order[::-1]):
        for pb, b in enumerate(seq):
            products += len(seq) - 1 - pb
            seen = {tuple(seq[:pb])} if pb else set()
            sums += len(seen)
            for c in seq[pb + 1:]:
                turns = tuple(a for a in seq[:pb] if t[a][b][c] == -1)
                if turns:
                    repeats += turns in seen
                    partial += turns not in seen
                    sums += turns not in seen
                    seen.add(turns)
    return products, sums, partial, repeats


def test_chain_sums_add_once_per_distinct_turn_set(monkeypatch):
    """The chain matrices of stokes_pair, one block product per ordered pair
    of vertices and direction and one sum per distinct set of turning
    predecessors at each vertex, equal the enumerated path sums; counted on
    draws where turn sets both repeat and differ."""
    import infrared.fourier

    calls = {"step": 0, "total": 0}
    for name, key in (("_chain_step", "step"), ("_chain_total", "total")):
        def counting(*args, fn=getattr(infrared.fourier, name), key=key):
            calls[key] += 1
            return fn(*args)

        monkeypatch.setattr(infrared.fourier, name, counting)
    r = rng(66)
    partial = repeats = 0
    for k in range(24):
        n = 3 + k % 6
        A = jittered_arc(r, n) if k % 4 == 3 else rand_config(r, n, extra_dirs=(Z_RIGHT,))
        m = rand_transport(r, n, max_dim=2)
        calls.update(step=0, total=0)
        pair = stokes_pair(m, A, Z0)
        products, sums, part, rep = chain_work(A, Z0)
        assert calls == {"step": products, "total": sums}
        assert products == n * (n - 1)
        assert pair.blocks == _enumerated_stokes_blocks(m, A, Z0)[0]
        partial += part
        repeats += rep
    assert partial > 20 and repeats > 20


def test_block_upper_product_refuses_a_planted_entry(monkeypatch):
    """The product that reads only the block-upper part of its right factor
    equals the dense product on block upper matrices; an entry planted
    below the block diagonal raises, in the helper and through
    factorization_check, instead of giving a verdict the dense product could
    contradict."""
    import dataclasses

    import infrared.fourier

    r = rng(67)
    for dims in ([1, 2, 3], [2, 0, 2, 1], [3]):
        offs = _block_offsets(dims)
        size = offs[-1]
        upper = {(s, t): rand_matrix(r, dims[t], dims[s])
                 for s in range(len(dims)) for t in range(s)}
        u = dense_unitriangular(dims, upper)
        x = rand_matrix(r, size, size)
        assert _times_block_upper(x, offs, u) == x @ u
        below = [(row, col) for lo, hi in zip(offs, offs[1:])
                 for row in range(lo, hi) for col in range(lo)]
        assert len(below) == (size * size - sum(d * d for d in dims)) // 2
        for row, col in below:
            planted = u + MatQ([[int((a, b) == (row, col)) for b in range(size)]
                                for a in range(size)])
            with pytest.raises(InvalidInput):
                _times_block_upper(x, offs, planted)
    A = jittered_arc(r, 4)
    m = rand_transport(r, 4, max_dim=2)
    pair = stokes_pair(m, A, Z0)
    size = sum(pair.dims)
    bad = pair.c_minus + MatQ([[int((a, b) == (size - 1, 0)) for b in range(size)]
                               for a in range(size)])
    monkeypatch.setattr(infrared.fourier, "stokes_pair",
                        lambda *args: dataclasses.replace(pair, c_minus=bad))
    with pytest.raises(InvalidInput):
        factorization_check(m, A, Z0)


def test_a_perturbed_c_minus_fails_both_factorizations(monkeypatch):
    """One entry of a C- block off by one, in the pair that
    factorization_check reads through the module's stokes_pair.

    On a diagonal block, C- is no longer unitriangular and both
    factorizations fail: factorization_check, and the true T_glob times the
    perturbed C-tilde against C+ Delta.  On the block (4, 1) above the
    diagonal, the dense oracle (T_glob of the true dressed data, the
    perturbed C-) fails as before; factorization_check builds T_glob from the
    C- it reads, so the perturbation moves T_glob and C-tilde together.  Its
    factors are then those of the dense oracle on the perturbed blocks, and
    its verdict holds, because the ascending product of the arms U - V times
    V is U for every block upper unitriangular V."""
    import dataclasses

    import infrared.fourier

    r = rng(64)
    A = jittered_arc(r, 6)
    m = rand_transport(r, 6, max_dim=3)
    pair = stokes_pair(m, A, Z0)
    true = factorization_check(m, A, Z0)
    size = sum(pair.dims)

    def unit(row, col):
        return MatQ([[int((a, b) == (row, col)) for b in range(size)] for a in range(size)])

    lo = _block_offsets(pair.dims)[2]
    patched = dataclasses.replace(pair, c_minus=pair.c_minus + unit(lo, lo))
    monkeypatch.setattr(infrared.fourier, "stokes_pair", lambda *args: patched)
    rep = factorization_check(m, A, Z0)
    ident = MatQ.identity(size)
    assert rep.c_minus_twisted == ident - (patched.c_minus - ident) @ true.delta
    assert rep.ok is False
    assert true.lhs @ rep.c_minus_twisted != true.c_plus @ true.delta

    down = {k: b for k, b in pair.blocks.items() if k[0] > k[1]}
    key = (4, 1)
    b = down[key]
    down[key] = b + MatQ([[int(i == j == 0) for j in range(b.cols)] for i in range(b.rows)])
    bad = dense_unitriangular(pair.dims, down)
    assert bad != pair.c_minus
    patched = dataclasses.replace(pair, c_minus=bad)
    rep = factorization_check(m, A, Z0)
    assert dense_factorization(m, pair, down)["ok"] is False
    assert rep.lhs != true.lhs and rep.ok is True
    assert report_parts(rep) == dense_factorization(m, patched)


def test_an_inexact_delta_fails_the_factorization(monkeypatch):
    """One local monodromy inverse off by one entry, so that Delta_s no
    longer inverts Id - m_ss: factorization_check and the dense oracle both
    return ok False, with the same factors."""
    r = rng(70)
    A = jittered_arc(r, 6)
    m = rand_transport(r, 6, max_dim=3)
    good = m.local_monodromy_inverse(3)
    off = good + MatQ([[int(i == j == 0) for j in range(good.cols)] for i in range(good.rows)])
    exact = TransportData.local_monodromy_inverse

    def inexact(self, i):
        # the dressed data of the oracle carries the same inverses
        inv = exact(self, i)
        return off if inv is good else inv

    monkeypatch.setattr(TransportData, "local_monodromy_inverse", inexact)
    rep = factorization_check(m, A, Z0)
    expect = dense_factorization(m, stokes_pair(m, A, Z0))
    assert rep.ok is False and expect["ok"] is False
    assert report_parts(rep) == expect


def test_factorization_check_inverts_nothing(inverse_calls):
    r = rng(56)
    A = rand_config(r, 5, extra_dirs=(Z_RIGHT,))
    m = rand_transport(r, 5, max_dim=2)
    inverse_calls.clear()
    rep = factorization_check(m, A, Z0)
    assert rep.ok
    assert inverse_calls == []


def test_factorization_check_enumerates_no_paths(path_enumerations):
    r = rng(61)
    A = jittered_arc(r, 8)
    m = rand_transport(r, 8, max_dim=2)
    rep = factorization_check(m, A, Z0)
    assert rep.ok
    assert path_enumerations == []


@pytest.mark.parametrize("n", [16, 24])
def test_factorization_on_a_long_arc(n):
    r = rng(62)
    A = jittered_arc(r, n)
    m = rand_transport(r, n, max_dim=2)
    assert factorization_check(m, A, Z0).ok


def test_factorization_maximally_concave():
    """The registry's Stokes entry, whose draws are half maximally concave,
    on the concave draws of seed 54, one at each N = 2..5."""
    holds = IDENTITIES["stokes_factorization"].holds
    r = rng(54)
    for n in (2, 3, 4, 5):
        A = maximally_concave_config(r, n)
        assert holds(config=A, transport=rand_transport(r, n, max_dim=2))


def test_factorization_convention_unique():
    """The N=2 scalar oracle pins the frozen convention uniquely."""
    r = rng(55)
    instances = []
    for _ in range(20):
        A = rand_config(r, 2, extra_dirs=(Z_RIGHT,))
        m = rand_transport(r, 2, max_dim=1)
        instances.append((m, A, Z0))
    for n in (3, 4):
        A = rand_config(r, n, extra_dirs=(Z_RIGHT,))
        instances.append((rand_transport(r, n, max_dim=1), A, Z0))
    survivors = solve_factorization_convention(instances)
    assert survivors == [FACTORIZATION_CONVENTION]
    # factorization_check computes exactly the surviving candidate
    for m, A, z in instances:
        rep = factorization_check(m, A, z)
        rhs = solve_unit_upper_right(rep.c_plus @ rep.delta, rep.c_minus_twisted)
        assert (rep.delta, rep.c_minus_twisted, rep.lhs, rhs) == (
            _factorization_sides(_convention_inputs(m, A, z), FACTORIZATION_CONVENTION)
        )


def test_factorization_after_wall_crossing():
    from infrared.geometry import segment_wall_events
    from infrared.wallcross import transport_along_path

    a0 = config((-4, -2), (-1, 2), (4, "5/2"))
    a1 = config((-4, -2), (0, -1), (4, "5/2"))
    assert [e.kind for e in segment_wall_events(a0, a1)] == ["coll"]
    r = rng(56)
    m0 = rand_transport(r, 3, max_dim=2)
    m1, _ = transport_along_path(m0, a0, a1)
    rep0 = factorization_check(m0, a0, Z0)
    rep1 = factorization_check(m1, a1, Z0)
    assert rep0.ok and rep1.ok
    assert rep0.lhs == rep1.lhs  # unchanged left side


def test_global_monodromy_matches_factorization_lhs():
    """T_glob, the left side of the factorization, is the ascending
    monodromy product of the dressed transport data."""
    r = rng(57)
    A = rand_config(r, 3, extra_dirs=(Z_RIGHT,))
    m = rand_transport(r, 3, max_dim=2)
    want = monodromy_product(dressed_transport(m, A, Z0)[0], "ascending")
    assert global_monodromy(m, A, Z0) == want


def test_circum_sums():
    # N=2: plain transports
    B = config((0, 0), (1, 1))
    m2 = scalar_transport([[0, 3], [4, 0]])
    assert circum_sum(m2, B, 0, 1) == scalar(3)
    assert alt_circum_sum(m2, B, 1, 0) == scalar(4)
    # triangle: two-term sums over [0,1] side
    A = config((0, 0), (4, 0), (1, 3))
    m = scalar_transport([[0, 3, 5], [7, 0, 2], [11, 13, 0]])
    # paths 0 -> 1: segment and the path over vertex 2
    assert circum_sum(m, A, 0, 1) == scalar(3 + 13 * 5)
    # reversed with alternating sign: (-1)^1 on the 3-vertex path
    assert alt_circum_sum(m, A, 1, 0) == scalar(7 - 11 * 2)
    with pytest.raises(EdgePrecondition):
        sq = config((0, 0), (2, 0), (2, 2), (0, 2))
        circum_sum(scalar_transport([[0] * 4] * 4), sq, 0, 2)


def _enumerated_circum_sums(m, A, i, j):
    """Oracle: circum_sum(m, A, i, j) and alt_circum_sum(m, A, i, j) as sums
    over the enumerated circumnavigation paths from w_i to w_j, and how many
    of those paths have an intermediate vertex."""
    plain = alt = MatQ.zeros(m.dims[j], m.dims[i])
    paths = enumerate_circum_paths(A, i, j)
    for path in paths:
        block = iterated_transport(m, path)
        plain = plain + block
        alt = alt - block if len(path) % 2 else alt + block
    return plain, alt, len(paths) - 1


def grid_config(r, n):
    """n distinct points of the 4 x 4 integer grid, collinear triples allowed."""
    return config(*r.sample([(x, y) for x in range(4) for y in range(4)], n))


def test_circum_sums_match_the_path_oracle():
    """Both circumnavigation sums equal the enumerated path sums on every
    hull edge in both directions: 105 seeded draws with N = 2..8, every third
    from the 4 x 4 grid, and jittered convex arcs with N = 9..12 on their
    closing chord, where every subset of the arc is a path.  A diagonal is
    no hull edge."""
    r = rng(61)
    instances = []
    for k in range(105):
        n = 2 + k % 7
        A = grid_config(r, n) if k % 3 == 2 else rand_config(r, n)
        hull = A.hull()
        instances.append((A, list(zip(hull, hull[1:] + hull[:1]))))
    for n in range(9, 13):
        A = jittered_arc(r, n)
        assert len(A.hull()) == n
        instances.append((A, [(0, n - 1)]))
    collinear = multi_vertex = diagonals = 0
    for A, edges in instances:
        n = len(A)
        m = rand_transport(r, n, max_dim=2)
        t = A.sign_table()
        collinear += any(t[a][b][c] == 0 for a, b, c in itertools.combinations(range(n), 3))
        for i, j in {e for a, b in edges for e in ((a, b), (b, a))}:
            plain, alt, multi = _enumerated_circum_sums(m, A, i, j)
            assert circum_sum(m, A, i, j) == plain
            assert alt_circum_sum(m, A, i, j) == alt
            multi_vertex += multi
        hull = A.hull()
        if len(hull) >= 4:
            diagonals += 1
            for total in (circum_sum, alt_circum_sum):
                with pytest.raises(EdgePrecondition):
                    total(m, A, hull[0], hull[2])
    assert collinear >= 20 and multi_vertex > 5000 and diagonals >= 30
