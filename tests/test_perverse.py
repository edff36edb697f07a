import itertools
from fractions import Fraction as Q

import pytest

from infrared.checksuite import IDENTITIES
from infrared.errors import InvalidInput, NotInvertible, NotSpherical, ShapeMismatch
from infrared.fourier import monodromy_product
from infrared.linalg import MatQ
from infrared.perverse import (
    Quiver,
    TransportData,
    braid_act_quiver,
    braid_act_transport,
    cy_check,
    double_dual_check,
    dual_pair,
    gmv_embed,
    jacobson,
    left_adjoint,
    mu,
    right_adjoint,
    serre_operator,
    spherical_report,
    straight_line_vassiliev,
)
from infrared.randomgen import rand_matrix, rand_quiver, rand_transport, rng
from test_fourier import solve_unit_upper_right, submatrix, transport_with_empty_slots
from test_linalg import block_diagonal


def rand_fraction(r) -> Q:
    """An entry as `rand_matrix` draws one: {-2..2}/{1..3}."""
    return Q(r.randint(-2, 2), r.randint(1, 3))


def local_monodromy(data: TransportData, i: int) -> MatQ:
    """T_i = Id - m_ii."""
    return MatQ.identity(data.dims[i]) - data.m[i][i]


def t_phi(q: Quiver, i: int) -> MatQ:
    """T_{i,Phi} = Id - b_i a_i on Phi_i."""
    return MatQ.identity(q.dims[i]) - q.b[i] @ q.a[i]


def rand_invertible(r, n: int) -> MatQ:
    """A rand_matrix draw that is invertible, within 200 tries."""
    for _ in range(200):
        mat = rand_matrix(r, n, n)
        try:
            mat.inverse()
            return mat
        except NotInvertible:
            continue
    raise AssertionError("failed to draw an invertible matrix")


def scalar(x):
    return MatQ([[x]])


def test_jacobson_examples():
    z = MatQ.zeros(2, 3)
    lhs, rhs = jacobson(z, MatQ.zeros(3, 2))
    assert lhs == MatQ.identity(2) == rhs
    lhs, rhs = jacobson(scalar(2), scalar(3))
    assert lhs == scalar(Q(-1, 5)) == rhs


def test_matrix_inverse_errors():
    with pytest.raises(NotInvertible):
        MatQ([[1, 2], [2, 4]]).inverse()


def test_public_matrix_constructor_validates():
    for bad in ("1.5/2", "1/0", "x", 1.5, None):
        with pytest.raises(InvalidInput):
            MatQ([[1, bad]])
    with pytest.raises(ShapeMismatch):
        MatQ([[1, 2], [3]])
    with pytest.raises(ShapeMismatch):
        MatQ.from_blocks([[MatQ.identity(2)], [MatQ.zeros(1, 3)]])
    # decimal strings are exact rationals
    assert MatQ([["1.5", "-2/4", 3]]).entries == ((Q(3, 2), Q(-1, 2), Q(3)),)


def test_matrix_results_match_validated_construction():
    r = rng(23)
    u, v, w = rand_matrix(r, 3, 2), rand_matrix(r, 2, 3), rand_matrix(r, 3, 2)
    results = [
        u @ v, u + w, -u, u.scale(Q(-2, 3)), u.T, submatrix(u, range(1, 3), range(2)),
        MatQ.from_blocks([[u, w]]), MatQ.identity(3), MatQ.zeros(2, 4),
        MatQ.zeros(2, 0) @ MatQ.zeros(0, 3),
        (MatQ.identity(3) + u @ v).inverse(),
    ]
    for x in results:
        rebuilt = MatQ([list(row) for row in x.entries])
        assert (x.rows, x.cols, x.entries) == (rebuilt.rows, rebuilt.cols, rebuilt.entries)
        assert all(type(e) is Q for row in x.entries for e in row)


def test_matrices_without_rows_or_columns_keep_their_shape():
    empty = MatQ.zeros(0, 3)
    assert (empty.rows, empty.cols) == (0, 3)
    assert (empty.T.rows, empty.T.cols) == (3, 0)
    assert (empty.T.T.rows, empty.T.T.cols) == (0, 3)
    product = empty @ MatQ.zeros(3, 2)
    assert (product.rows, product.cols) == (0, 2)
    assert MatQ.zeros(2, 0) @ MatQ.zeros(0, 3) == MatQ.zeros(2, 3)
    assert submatrix(MatQ.zeros(2, 3), range(0), range(1, 3)).cols == 2
    assert (-empty).cols == (empty + empty).cols == empty.scale(2).cols == 3
    stacked = MatQ.from_blocks([[MatQ.zeros(0, 1), MatQ.zeros(0, 2)]])
    assert (stacked.rows, stacked.cols) == (0, 3)


def test_solve_unit_upper_right():
    r = rng(24)
    for n in (1, 3, 6):
        u = MatQ([[1 if i == j else (rand_fraction(r) if i < j else 0)
                   for j in range(n)] for i in range(n)])
        b = rand_matrix(r, 4, n)
        x = solve_unit_upper_right(b, u)
        assert x @ u == b
        assert x == b @ u.inverse()
    with pytest.raises(InvalidInput):
        solve_unit_upper_right(MatQ.identity(2), MatQ([[1, 0], [1, 1]]))
    with pytest.raises(InvalidInput):
        solve_unit_upper_right(MatQ.identity(2), MatQ([[2, 0], [0, 1]]))
    with pytest.raises(ShapeMismatch):
        solve_unit_upper_right(MatQ.identity(3), MatQ.identity(2))


def test_replace_inverts_only_a_changed_diagonal_block(inverse_calls):
    m = rand_transport(rng(22), 4, max_dim=3)
    inverse_calls.clear()
    m.replace({(0, 1): m.m[0][1].scale(2), (3, 2): m.m[3][2].scale(-1)})
    assert inverse_calls == []
    d = m.dims[2]
    out = m.replace({(2, 2): MatQ.scalar(2, d), (1, 3): m.m[1][3].scale(2)})
    # T_2 = Id - 2 Id = -Id is the one matrix inverted
    assert inverse_calls == [MatQ.scalar(-1, d)]
    assert out.local_monodromy_inverse(2) == MatQ.scalar(-1, d)
    for i in (0, 1, 3):
        assert out.local_monodromy_inverse(i) is m.local_monodromy_inverse(i)


def test_replace_checks_the_blocks_it_changes():
    m = rand_transport(rng(23), 3, max_dim=2)
    d0, d1 = m.dims[0], m.dims[1]
    with pytest.raises(NotInvertible):
        m.replace({(1, 1): MatQ.identity(d1)})
    with pytest.raises(ShapeMismatch):
        m.replace({(0, 1): MatQ.zeros(d1 + 1, d0)})
    with pytest.raises(ShapeMismatch):
        m.replace({(0, 0): MatQ.zeros(d0, d0 + 1)})


def test_permuted_rejects_non_permutations():
    m = rand_transport(rng(24), 3, max_dim=2)
    for perm in ([0, 0, 1], [0, 0], [0], [0, 1, 3], [0, 1, 2, 0]):
        with pytest.raises(InvalidInput):
            m.permuted(perm)
    assert m.permuted([2, 0, 1]).permuted([1, 2, 0]) == m


def test_mu_and_embed():
    # zero quiver: m = 0, T = Id
    q = Quiver([1, 1], 2, [MatQ.zeros(2, 1)] * 2, [MatQ.zeros(1, 2)] * 2)
    m = mu(q)
    assert all(m.m[i][j].is_zero() for i in range(2) for j in range(2))
    # scalar N=1: a=2, b=3 -> m = 6, T = -5
    q1 = Quiver([1], 1, [scalar(2)], [scalar(3)])
    m1 = mu(q1)
    assert m1.m[0][0] == scalar(6)
    assert local_monodromy(m1, 0) == scalar(-5)


def test_gmv_embed_layout():
    # N=2 scalar: a_0 stacks (m00; m01), b_0 = (1 0)
    m = TransportData(
        [1, 1],
        [[scalar(Q(1, 2)), scalar(2)], [scalar(3), scalar(Q(-1, 3))]],
    )
    q = gmv_embed(m)
    assert q.a[0] == MatQ([[Q(1, 2)], [2]])
    assert q.b[0] == MatQ([[1, 0]])
    assert mu(q) == m


def test_mu_embed_section_random():
    r = rng(22)
    for n in (1, 2, 3, 4, 5):
        m = rand_transport(r, n, max_dim=3)
        assert mu(gmv_embed(m)) == m


def test_gmv_twist_acts_off_block():
    # T_{i,Psi} = Id - a_i b_i is the identity off block row/column i
    r = rng(23)
    m = rand_transport(r, 3, max_dim=2)
    q = gmv_embed(m)
    t = q.t_psi(1)
    offs = [0]
    for d in m.dims:
        offs.append(offs[-1] + d)
    # identity on inputs supported off block 1
    for col in range(q.d_psi):
        if not (offs[1] <= col < offs[2]):
            for row in range(q.d_psi):
                expected = Q(1) if row == col else Q(0)
                assert t.entries[row][col] == expected


def test_dual_pair_examples():
    a1, b1 = dual_pair(scalar(0), scalar(0))
    assert a1 == scalar(0) and b1 == scalar(0)
    a1, b1 = dual_pair(scalar(2), scalar(3))
    assert a1 == scalar(Q(-3, 5))
    assert b1 == scalar(-2)


def test_dual_monodromy():
    # monodromy of the dual equals the inverse transpose
    r = rng(24)
    for _ in range(10):
        q = rand_quiver(r, 1, max_dim=3)
        a, b = q.a[0], q.b[0]
        a1, b1 = dual_pair(a, b)
        t_dual = MatQ.identity(a1.cols) - b1 @ a1
        t = MatQ.identity(a.cols) - b @ a
        assert t_dual == t.T.inverse()


def test_double_dual():
    assert double_dual_check(scalar(2), scalar(3))
    assert double_dual_check(scalar(0), scalar(5))
    # composing twice gives a'' = -a(1-ba), e.g. 10 for a=2, b=3
    a2, _ = dual_pair(*dual_pair(scalar(2), scalar(3)))
    assert a2 == scalar(10)


def test_adjoints():
    one = MatQ.identity(2)
    assert right_adjoint(one, one, one) == one and left_adjoint(one, one, one) == one
    assert right_adjoint(scalar(2), scalar(3), scalar(5)) == scalar(Q(10, 3))
    # symmetric forms make both adjoints coincide
    b_src = MatQ([[2, 1], [1, 3]])
    b_tgt = MatQ([[1, 0], [0, 4]])
    r = rng(26)
    f = rand_matrix(r, 2, 2)
    ra, la = right_adjoint(f, b_src, b_tgt), left_adjoint(f, b_src, b_tgt)
    assert ra == la
    # defining property as matrices: B_tgt^t f = (f*)^t B_src^t
    assert b_tgt.T @ f == ra.T @ b_src.T


def spherical_scalar_instance(r):
    """Scalar spherical maps: t arbitrary nonzero, with B_phi/B_psi = t^2/2."""
    t = Q(0)
    while t == 0:
        t = Q(r.randint(-4, 4), r.randint(1, 3))
    scale = Q(0)
    while scale == 0:
        scale = Q(r.randint(-3, 3), r.randint(1, 2))
    b_psi = scale
    b_phi = t * t * scale / 2
    return scalar(t), scalar(b_phi), scalar(b_psi)


def conjugate_instance(r, a, b_phi, b_psi):
    u = MatQ([[Q(1)]])
    v = MatQ([[Q(1)]])
    return a, b_phi, b_psi


def block_spherical_instance(r, blocks):
    mats = [spherical_scalar_instance(r) for _ in range(blocks)]
    a = block_diagonal([m[0] for m in mats])
    b_phi = block_diagonal([m[1] for m in mats])
    b_psi = block_diagonal([m[2] for m in mats])
    # congruent change of basis on both sides keeps sphericality
    u = rand_invertible(r, blocks)
    v = rand_invertible(r, blocks)
    return (
        u.inverse() @ a @ v,
        v.T @ b_phi @ v,
        u.T @ b_psi @ u,
    )


def test_spherical_examples():
    rep = spherical_report(MatQ.zeros(2, 2), MatQ.identity(2), MatQ.identity(2))
    assert rep.spherical
    rep = spherical_report(scalar(2), scalar(2), scalar(1))
    assert rep.s1 and rep.s2 and rep.spherical and rep.package_holds
    rep = spherical_report(scalar(1), scalar(1), scalar(1))
    assert not rep.s2


def test_spherical_package_holds_on_seeded_instances():
    r = rng(27)
    count = 0
    while count < 100:
        if count % 3 == 2:
            a, bp, bq = block_spherical_instance(r, 2)
        else:
            a, bp, bq = spherical_scalar_instance(r)
        rep = spherical_report(a, bp, bq)
        assert rep.spherical
        assert rep.package_holds
        count += 1


def test_non_spherical_flags_cohere():
    r = rng(28)
    count = 0
    while count < 100:
        a = rand_matrix(r, 2, 2)
        b_phi = rand_matrix(r, 2, 2)
        b_psi = rand_matrix(r, 2, 2)
        try:
            b_phi.inverse(), b_psi.inverse()
        except NotInvertible:
            continue
        try:
            rep = spherical_report(a, b_phi, b_psi)
        except NotInvertible:
            continue
        if rep.spherical:
            assert rep.package_holds
        elif rep.s1 and not rep.s2:
            # a failed S2 must not present a fully coherent package
            assert not rep.package_holds or rep.s2
        count += 1


def test_cy_checks():
    assert cy_check(scalar(2), scalar(2), scalar(1), "even")
    with pytest.raises(NotSpherical):
        cy_check(scalar(1), scalar(1), scalar(1), "even")
    # odd parity requires an antisymmetric B_psi
    assert not cy_check(scalar(2), scalar(2), scalar(1), "odd")
    # a = 0 with a symplectic B_phi: S_B = -Id so T_phi = Id = -S_B
    sympl = MatQ([[0, 1], [-1, 0]])
    assert serre_operator(sympl) == -MatQ.identity(2)
    assert cy_check(MatQ.zeros(2, 2), sympl, MatQ.identity(2), "even")


def test_braid_zero_quiver_swaps():
    q = Quiver([1, 2], 2, [MatQ.zeros(2, 1), MatQ.zeros(2, 2)],
               [MatQ.zeros(1, 2), MatQ.zeros(2, 2)])
    tq = braid_act_quiver(q, 1)
    assert tq.dims == (2, 1)
    assert tq.a[0] == q.a[1] and tq.b[1] == q.b[0]


def test_braid_round_trip():
    """The registry's braid entry, whose every +-g is undone by its inverse
    on quivers and transport data, on the draws of seed 29, one at each
    N = 2, 3, 4."""
    entry = IDENTITIES["braid_relations_naturality"]
    r = rng(29)
    for n in (2, 3, 4):
        assert entry(r, n, 2) is None


def test_braid_quiver_inverts_nothing(inverse_calls):
    """A braid move on a quiver inverts nothing: T_{Psi} and its inverse
    enter as rank updates through the kept T_{Phi}^{-1}, the twisted arms
    keep Id - b a, so the T_{Phi} of the result and their kept inverses are
    the old ones with the two slots swapped, and the result is not checked
    again."""
    q = rand_quiver(rng(34), 4, max_dim=3)
    for g in (1, -1, 2, -2, 3, -3):
        inverse_calls.clear()
        out = braid_act_quiver(q, g)
        assert inverse_calls == []
        k = abs(g) - 1
        swap = list(range(q.n))
        swap[k], swap[k + 1] = k + 1, k
        assert [t_phi(out, s) for s in range(q.n)] == [t_phi(q, s) for s in swap]
        assert [out.local_monodromy_inverse(s) for s in range(q.n)] == \
            [q.local_monodromy_inverse(s) for s in swap]



def test_braid_moves_carry_the_stored_inverses(inverse_calls):
    m = rand_transport(rng(33), 4, max_dim=3)
    for g in (1, -1, 2, -2, 3, -3):
        inverse_calls.clear()
        out = braid_act_transport(m, g)
        back = braid_act_transport(out, -g)
        assert inverse_calls == []
        assert back == m
        for data in (out, back):
            for k in range(data.n):
                want = local_monodromy(data, k).inverse()
                assert data.local_monodromy_inverse(k) == want


def gmv_table_transport(m: TransportData, g: int) -> TransportData:
    """Oracle: tau_k (g = +k) by the 9-case mutation table, slots i = k-1,
    i+1 swapped, T_i = Id - m_ii:
      m'_{v,j} = m_{v,j}                          v, j not in {i, i+1}
      m'_{v,i+1} = m_{v,i}                        v not in {i, i+1}
      m'_{i+1,j} = m_{i,j}                        j not in {i, i+1}
      m'_{v,i} = m_{v,i+1} + m_{i,i+1} T_i^{-1} m_{v,i}
      m'_{i,j} = m_{i+1,j} - m_{i,j} m_{i+1,i}
      m'_{i,i+1} = T_i m_{i+1,i}
      m'_{i+1,i} = m_{i,i+1} T_i^{-1}
      m'_{i,i} = m_{i+1,i+1},  m'_{i+1,i+1} = m_{i,i}
    with the kept inverses swapped; tau_k^{-1} (g = -k) is the same table on
    the opposite data, tau_k^{-1} = opp . tau_{N-k} . opp."""
    i, n = abs(g) - 1, m.n
    if g < 0:
        m, i = m.opposite(), n - 2 - i
    old = m.m
    dims = list(m.dims)
    dims[i], dims[i + 1] = dims[i + 1], dims[i]
    grid = [[None] * n for _ in range(n)]
    others = [v for v in range(n) if v not in (i, i + 1)]
    u = old[i][i + 1] @ m.local_monodromy_inverse(i)
    for v in others:
        for j in others:
            grid[v][j] = old[v][j]
        grid[v][i + 1] = old[v][i]
        grid[i + 1][v] = old[i][v]
        grid[v][i] = old[v][i + 1].plus_product(u, old[v][i])
        grid[i][v] = old[i + 1][v].plus_product(old[i][v], old[i + 1][i], -1)
    grid[i][i + 1] = old[i + 1][i].plus_product(old[i][i], old[i + 1][i], -1)
    grid[i + 1][i] = u
    grid[i][i] = old[i + 1][i + 1]
    grid[i + 1][i + 1] = old[i][i]
    inverses = list(m._t_inv)
    inverses[i], inverses[i + 1] = inverses[i + 1], inverses[i]
    out = TransportData._checked(tuple(dims), tuple(map(tuple, grid)), tuple(inverses))
    return out.opposite() if g < 0 else out


def test_braid_move_matches_the_mutation_table(inverse_calls):
    """`braid_act_transport`, a slot swap and the rank updates of one block
    row and one block column, equals the 9-case mutation table exactly,
    dims, blocks and kept inverse local monodromies, and inverts nothing:
    for every +-k and for random words of length 6, on seeded draws with
    N = 2..6 and slot dims 0..3 (empty slots included)."""
    r = rng(37)
    dims = set()
    for n in (2, 3, 4, 5, 6):
        gens = [s * k for k in range(1, n) for s in (1, -1)]
        for _ in range(8):
            m = transport_with_empty_slots(r, n)
            inverse_calls.clear()
            for word in [[g] for g in gens] + [[r.choice(gens) for _ in range(6)]
                                                 for _ in range(3)]:
                out, want = m, m
                for g in word:
                    out, want = braid_act_transport(out, g), gmv_table_transport(want, g)
                    assert out.dims == want.dims and out.m == want.m, (n, word)
                    assert kept_inverses(out) == kept_inverses(want), (n, word)
            assert inverse_calls == []
            dims.update(m.dims)
    assert dims == {0, 1, 2, 3}


def solved_inverse_transport(m: TransportData, k: int) -> TransportData:
    """Oracle: tau_k^{-1} on transport data by the table solved from the
    forward relations (slots i = k-1, i+1 swapped, T_i = Id - m_ii):
      m'_{v,i} = m_{v,i+1},  m'_{i,j} = m_{i+1,j}       v, j not in {i, i+1}
      m'_{v,i+1} = m_{v,i} - m_{i+1,i} m_{v,i+1}
      m'_{i+1,j} = m_{i,j} + m_{i+1,j} T_{i+1}^{-1} m_{i,i+1}
      m'_{i,i+1} = m_{i+1,i} T_{i+1},  m'_{i+1,i} = T_{i+1}^{-1} m_{i,i+1}
    and the diagonal swapped, each T inverted afresh."""
    i, old = k - 1, m.m
    u = local_monodromy(m, i + 1).inverse() @ old[i][i + 1]
    grid = [list(row) for row in old]
    for v in range(m.n):
        if v not in (i, i + 1):
            grid[v][i] = old[v][i + 1]
            grid[i][v] = old[i + 1][v]
            grid[v][i + 1] = old[v][i] - old[i + 1][i] @ old[v][i + 1]
            grid[i + 1][v] = old[i][v] + old[i + 1][v] @ u
    grid[i][i + 1] = old[i + 1][i] @ local_monodromy(m, i + 1)
    grid[i + 1][i] = u
    grid[i][i], grid[i + 1][i + 1] = old[i + 1][i + 1], old[i][i]
    dims = list(m.dims)
    dims[i], dims[i + 1] = dims[i + 1], dims[i]
    return TransportData(dims, grid)


def solved_inverse_quiver(q: Quiver, k: int) -> Quiver:
    """Oracle: tau_k^{-1} on the quiver, the slots i = k-1, i+1 swapped and
    the new slot-(i+1) arm (T_{i+1,Psi}^{-1} a_i, b_i T_{i+1,Psi})."""
    i = k - 1
    t = q.t_psi(i + 1)
    dims, a, b = list(q.dims), list(q.a), list(q.b)
    dims[i], dims[i + 1] = dims[i + 1], dims[i]
    a[i], a[i + 1] = a[i + 1], t.inverse() @ a[i]
    b[i], b[i + 1] = b[i + 1], b[i] @ t
    return Quiver(dims, q.d_psi, a, b)


def quiver_with_empty_slots(r, n):
    """Random quiver with slot dims and dPsi drawn from 0..3."""
    while True:
        dims, d_psi = [r.randint(0, 3) for _ in range(n)], r.randint(0, 3)
        a = [rand_matrix(r, d_psi, d) for d in dims]
        b = [rand_matrix(r, d, d_psi) for d in dims]
        try:
            return Quiver(dims, d_psi, a, b)
        except NotInvertible:
            continue


def test_inverse_moves_match_the_solved_tables():
    """tau_k^{-1} = opp . tau_{N-k} . opp equals the solved inverse tables
    exactly, the kept inverse local monodromies included, and each undoes
    tau_k, on seeded draws with N = 2..5 and slot
    dims 0..3 (empty slots included), for both signs of every generator."""
    r = rng(9)
    dims = set()
    for n in (2, 3, 4, 5):
        for _ in range(8):
            m = transport_with_empty_slots(r, n)
            q = quiver_with_empty_slots(r, n)
            for k in range(1, n):
                out, want = braid_act_transport(m, -k), solved_inverse_transport(m, k)
                assert out == want
                assert all(out.local_monodromy_inverse(s) == want.local_monodromy_inverse(s)
                           for s in range(n))
                assert solved_inverse_transport(braid_act_transport(m, k), k) == m
                assert braid_act_quiver(q, -k) == solved_inverse_quiver(q, k)
                assert solved_inverse_quiver(braid_act_quiver(q, k), k) == q
            dims.update(m.dims + q.dims + (q.d_psi,))
    assert dims == {0, 1, 2, 3}


def twisted_quiver(q: Quiver, g: int) -> Quiver:
    """Oracle: tau_k (g = k) with T_{i,Psi} formed and inverted, i = k-1: the
    slots i, i+1 swapped and the new slot-i arm
    (T_{i,Psi} a_{i+1}, b_{i+1} T_{i,Psi}^{-1}); tau_k^{-1} (g = -k) is the
    solved inverse table, which inverts T_{i+1,Psi}.  Both are built by the
    validating constructor."""
    if g < 0:
        return solved_inverse_quiver(q, -g)
    i = g - 1
    t = q.t_psi(i)
    dims, a, b = list(q.dims), list(q.a), list(q.b)
    dims[i], dims[i + 1] = dims[i + 1], dims[i]
    a[i], a[i + 1] = t @ a[i + 1], a[i]
    b[i], b[i + 1] = b[i + 1] @ t.inverse(), b[i]
    return Quiver(dims, q.d_psi, a, b)


def validated_mu(q: Quiver) -> TransportData:
    """Oracle: m_ij = b_j a_i through the validating constructor."""
    return TransportData(q.dims, [[q.b[j] @ q.a[i] for j in range(q.n)] for i in range(q.n)])


def validated_embed(m: TransportData) -> Quiver:
    """Oracle: a_i stacks the m_ij, b_i is the row of blocks Id on slot i and
    zero elsewhere, through the validating constructor."""
    n, d = m.n, m.dims
    a = [MatQ.from_blocks([[m.m[i][j]] for j in range(n)]) for i in range(n)]
    b = [MatQ.from_blocks([[MatQ.identity(d[i]) if j == i else MatQ.zeros(d[i], d[j])
                            for j in range(n)]]) for i in range(n)]
    return Quiver(d, sum(d), a, b)


def kept_inverses(x) -> list[MatQ]:
    return [x.local_monodromy_inverse(s) for s in range(x.n)]


def test_kept_inverse_routes_match_the_validating_constructors(inverse_calls):
    """The quiver twist, mu and gmv_embed assemble from checked parts and
    invert nothing; they equal exactly the routes that form T_{Psi}, invert
    it and rebuild through the validating constructors, the kept inverse
    local monodromies included, on seeded draws with N = 2..5, slot dims
    and dPsi 0..3 (empty slots included), for both signs of every
    generator."""
    r = rng(36)
    dims = set()
    for n in (2, 3, 4, 5):
        for _ in range(8):
            q = quiver_with_empty_slots(r, n)
            m = transport_with_empty_slots(r, n)
            for g in [s * k for k in range(1, n) for s in (1, -1)]:
                inverse_calls.clear()
                out = braid_act_quiver(q, g)
                assert inverse_calls == []
                want = twisted_quiver(q, g)
                assert out == want and kept_inverses(out) == kept_inverses(want)
            for route, oracle, x in ((mu, validated_mu, q), (gmv_embed, validated_embed, m)):
                inverse_calls.clear()
                out = route(x)
                assert inverse_calls == []
                want = oracle(x)
                assert out == want and kept_inverses(out) == kept_inverses(want)
            dims.update(m.dims + q.dims + (q.d_psi,))
    assert dims == {0, 1, 2, 3}


def test_opposite_is_an_involution_that_commutes_with_mu():
    """opp . opp = id on both models, mu . opp = opp . mu, and the inverse
    local monodromies that opp carries are those of its blocks."""
    r = rng(5)
    for n in (1, 2, 3, 4, 5):
        for _ in range(8):
            m = transport_with_empty_slots(r, n)
            q = quiver_with_empty_slots(r, n)
            assert m.opposite().opposite() == m and q.opposite().opposite() == q
            assert mu(q.opposite()) == mu(q).opposite()
            opp = m.opposite()
            assert opp.dims == m.dims[::-1]
            for s in range(n):
                assert opp.m[s][s] == m.m[n - 1 - s][n - 1 - s].T
                assert opp.local_monodromy_inverse(s) == local_monodromy(opp, s).inverse()


def _power_traces(x: MatQ) -> list[Q]:
    """tr x, tr x^2, ..., tr x^D: the characteristic polynomial of x."""
    out, acc = [], MatQ.identity(x.rows)
    for _ in range(x.rows):
        acc = acc @ x
        out.append(sum(acc[s, s] for s in range(x.rows)))
    return out


def _descending_psi_product(q: Quiver) -> MatQ:
    acc = MatQ.identity(q.d_psi)
    for i in range(q.n - 1, -1, -1):
        acc = acc @ q.t_psi(i).inverse()
    return acc


def test_braid_moves_keep_the_descending_monodromy():
    """Every +-generator keeps the characteristic polynomial of the
    descending monodromy product of transport data, and on quivers the
    descending product of the T_{i,Psi}^{-1} itself, on seeded draws with
    N = 2..5 and dims <= 3.  The ascending product of transport data is not
    kept: it changes on some of the same moves."""
    r = rng(3)
    moved = 0
    for n in (2, 3, 4, 5):
        for _ in range(6):
            m = rand_transport(r, n, max_dim=3)
            q = rand_quiver(r, n, max_dim=3)
            before = _power_traces(monodromy_product(m, "descending"))
            asc = _power_traces(monodromy_product(m, "ascending"))
            for g in [s * k for k in range(1, n) for s in (1, -1)]:
                out = braid_act_transport(m, g)
                assert _power_traces(monodromy_product(out, "descending")) == before, (n, g)
                moved += _power_traces(monodromy_product(out, "ascending")) != asc
                assert _descending_psi_product(braid_act_quiver(q, g)) == \
                    _descending_psi_product(q), (n, g)
    assert moved > 0


def test_braid_relations():
    """The registry's braid entry (every relation, far commutation and +-g)
    on the draws of seed 30, one at each N = 3, 4, 5."""
    entry = IDENTITIES["braid_relations_naturality"]
    r = rng(30)
    for n in (3, 4, 5):
        assert entry(r, n, 2) is None


def test_braid_naturality():
    """The registry's braid entry, in which mu is natural for every +-g, on
    the draws of seed 31, one at each N = 2, 3, 4."""
    entry = IDENTITIES["braid_relations_naturality"]
    r = rng(31)
    for n in (2, 3, 4):
        assert entry(r, n, 2) is None


def test_vassiliev_alternating_sum():
    r = rng(32)
    for n in (3, 4, 5):
        m = rand_transport(r, n, max_dim=2)
        q = gmv_embed(m)
        for k in (1, 2, 3):
            marked = r.sample(range(n), min(k, n))
            lhs, rhs = straight_line_vassiliev(q, marked)
            assert lhs == rhs
