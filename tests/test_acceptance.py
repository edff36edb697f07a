"""Acceptance suite: one test per criterion, every assertion exact over Q.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All tolerances are exact equality of rational matrices or
integer counts; nothing is approximate.
"""

import itertools
import math
from fractions import Fraction as Q

import pytest

from infrared.errors import NotInvertible
from infrared.geometry import (
    Config,
    Dir,
    Pt,
    anti_stokes_sequence,
    config,
    convex_hull,
    direction,
    dominance_order,
    general_position,
    orient,
    segment_wall_events,
)
from infrared.linalg import MatQ
from infrared.fourier import (
    factorization_check,
    fourier_diagram,
    global_monodromy,
    monodromy_product,
    stokes_pair,
)
from infrared.paths import (
    enumerate_zeta_convex_paths,
    height_data,
    is_zeta_convex,
    paths_by_height,
    reduce_path,
    wedge_sign,
)
from infrared.perverse import (
    braid_act_quiver,
    braid_act_transport,
    braid_act_word,
    double_dual_check,
    dual_pair,
    gmv_embed,
    jacobson,
    mu,
    spherical_report,
)
from infrared.randomgen import (
    maximally_concave_config,
    rand_config,
    rand_matrix,
    rand_quiver,
    rand_transport,
    rng,
)
from infrared.secondary import (
    Cell,
    Subdivision,
    coarse_subdivisions,
    content,
    deformation_complex,
    enumerate_subdivisions,
    enumerate_triangulations,
    framing,
    induced_subdivision,
    is_regular,
    parallel_deformations,
    refinement_poset,
)
from infrared.wallcross import CrossingSpec, apply_crossings, transport_along_path
from test_fourier import FACTORIZATION_CONVENTION, solve_factorization_convention
from test_linalg import block_diagonal
from test_perverse import rand_invertible

Z0 = Dir(Q(-1), Q(0))
Z_RIGHT = Dir(Q(1), Q(0))
Z_UP = Dir(Q(0), Q(1))


def report(num, text):
    print(f"criterion {num:>2}: {text} ... PASS")


def test_criterion_01_jacobson():
    r = rng(101)
    checked = 0
    while checked < 200:
        rows, cols = r.randint(1, 4), r.randint(1, 4)
        u, v = rand_matrix(r, rows, cols), rand_matrix(r, cols, rows)
        try:
            lhs, rhs = jacobson(u, v)
        except NotInvertible:
            continue
        assert lhs == rhs
        checked += 1
    report(1, "Jacobson identity exact on 200 seeded pairs, dims <= 4")


def test_criterion_02_duality_round_trip():
    r = rng(102)
    checked = 0
    while checked < 100:
        q = rand_quiver(r, 1, max_dim=3)
        a, b = q.a[0], q.b[0]
        assert double_dual_check(a, b)
        checked += 1
    report(2, "duality round trip with e_Phi = -(1-ba)^{-1} on 100 instances")


def _spherical_scalar(r):
    t = Q(0)
    while t == 0:
        t = Q(r.randint(-4, 4), r.randint(1, 3))
    scale = Q(0)
    while scale == 0:
        scale = Q(r.randint(-3, 3), r.randint(1, 2))
    return MatQ([[t]]), MatQ([[t * t * scale / 2]]), MatQ([[scale]])


def _spherical_block(r, blocks):
    mats = [_spherical_scalar(r) for _ in range(blocks)]
    a = block_diagonal([mm[0] for mm in mats])
    b_phi = block_diagonal([mm[1] for mm in mats])
    b_psi = block_diagonal([mm[2] for mm in mats])
    u = rand_invertible(r, blocks)
    v = rand_invertible(r, blocks)
    return u.inverse() @ a @ v, v.T @ b_phi @ v, u.T @ b_psi @ u


def test_criterion_03_spherical_package():
    r = rng(103)
    for trial in range(100):
        if trial % 2:
            a, bp, bq = _spherical_block(r, 2)
        else:
            a, bp, bq = _spherical_scalar(r)
        rep = spherical_report(a, bp, bq)
        assert rep.spherical and rep.package_holds
    bad = 0
    while bad < 100:
        a = rand_matrix(r, 2, 2)
        bp, bq = rand_matrix(r, 2, 2), rand_matrix(r, 2, 2)
        try:
            bp.inverse(), bq.inverse()
            rep = spherical_report(a, bp, bq)
        except NotInvertible:
            continue
        if rep.spherical:
            continue
        if rep.s1 and not rep.s2:
            assert not rep.package_holds
        bad += 1
    report(3, "spherical package (a)-(d) on 100 spherical + 100 failing instances")


def test_criterion_04_braid_relations():
    r = rng(104)
    for n in (3, 4, 5):
        for _ in range(3):
            q = rand_quiver(r, n, max_dim=2)
            m = rand_transport(r, n, max_dim=2)
            for i in range(1, n - 1):
                assert braid_act_word(q, [i, i + 1, i]) == braid_act_word(
                    q, [i + 1, i, i + 1]
                )
                assert braid_act_word(m, [i, i + 1, i]) == braid_act_word(
                    m, [i + 1, i, i + 1]
                )
            for i, j in itertools.combinations(range(1, n), 2):
                if abs(i - j) >= 2:
                    assert braid_act_word(q, [i, j]) == braid_act_word(q, [j, i])
                    assert braid_act_word(m, [i, j]) == braid_act_word(m, [j, i])
            for g in list(range(1, n)) + [-k for k in range(1, n)]:
                assert mu(braid_act_quiver(q, g)) == braid_act_transport(mu(q), g)
    report(4, "braid + commutation relations and naturality, N = 3..5, dims <= 2")


def _collinearity_leg(r, n):
    """A straight leg moving one point horizontally: the dominance order is
    untouched, so only collinearity walls can be crossed."""
    while True:
        a0 = rand_config(r, n, extra_dirs=(Z_RIGHT,))
        k = r.randrange(n)
        pts = list(a0.points)
        pts[k] = Pt(pts[k].x + Q(r.randint(-40, 40), 2), pts[k].y)
        try:
            a1 = Config(pts)
            events = segment_wall_events(a0, a1)
        except Exception:
            continue
        if events and all(e.kind == "coll" for e in events):
            return a0, a1, events


def test_criterion_05_wall_crossing():
    r = rng(105)
    # involutivity of every single crossing
    for _ in range(25):
        n = r.choice((3, 4, 5))
        m = rand_transport(r, n, max_dim=2)
        i, j, k = sorted(r.sample(range(n), 3))
        eps = r.choice((1, -1))
        spec = CrossingSpec("coll", i, j, k, eps_before=eps)
        undo = CrossingSpec("coll", i, j, k, eps_before=-eps)
        assert apply_crossings(apply_crossings(m, [spec]), [undo]) == m
        for re_cmp in ("left", "right"):
            up = CrossingSpec("horiz", i, j, motion="above", re_cmp=re_cmp)
            down = CrossingSpec("horiz", i, j, motion="below", re_cmp=re_cmp)
            assert apply_crossings(apply_crossings(m, [up]), [down]) == m
    # global monodromy invariance along 50 seeded collinearity legs
    legs = 0
    while legs < 50:
        n = r.choice((3, 4, 5))
        a0, a1, events = _collinearity_leg(r, n)
        m0 = rand_transport(r, n, max_dim=2)
        m1, log = transport_along_path(m0, a0, a1)
        assert all(s.kind == "coll" for s in log)
        assert global_monodromy(m0, a0, Z0) == global_monodromy(m1, a1, Z0)
        legs += 1
    report(5, "single-crossing involutivity; T_glob invariant on 50 collinearity legs")


def test_criterion_06_fourier_monodromy():
    r = rng(106)
    for n in (1, 2, 3, 4, 5):
        for _ in range(4):
            A = rand_config(r, n, require_strong=False, extra_dirs=(Z_RIGHT,))
            m = rand_transport(r, n, max_dim=3)
            diag = fourier_diagram(m, Z_RIGHT, A)
            assert diag.monodromy() == monodromy_product(
                m.permuted(diag.order), "descending"
            )
    report(6, "Id - b-check a-check equals the clockwise product, N <= 5, dims <= 3")


def test_criterion_07_stokes_factorization():
    r = rng(107)
    # convention fixed once by the N=2 symbolic oracle
    oracle = [
        (rand_transport(r, 2, max_dim=1), rand_config(r, 2, extra_dirs=(Z_RIGHT,)), Z0)
        for _ in range(20)
    ]
    survivors = solve_factorization_convention(oracle)
    assert FACTORIZATION_CONVENTION in survivors
    # (a) maximally concave instances N <= 5
    for n in (2, 3, 4, 5):
        for _ in range(3):
            A = maximally_concave_config(r, n)
            m = rand_transport(r, n, max_dim=2)
            assert factorization_check(m, A, Z0).ok
    # (b) 50 seeded generic-chamber instances N <= 4
    for trial in range(50):
        n = 2 + trial % 3
        A = rand_config(r, n, extra_dirs=(Z_RIGHT,))
        m = rand_transport(r, n, max_dim=2)
        assert factorization_check(m, A, Z0).ok
    # stays passing after collinearity wall-crossings, left side unchanged
    for _ in range(5):
        n = r.choice((3, 4))
        a0, a1, _ = _collinearity_leg(r, n)
        m0 = rand_transport(r, n, max_dim=2)
        m1, _ = transport_along_path(m0, a0, a1)
        rep0 = factorization_check(m0, a0, Z0)
        rep1 = factorization_check(m1, a1, Z0)
        assert rep0.ok and rep1.ok and rep0.lhs == rep1.lhs
    report(7, "Stokes factorization: oracle-pinned convention, concave + generic + walls")


def _brute_force_lambda(A, i, j, zeta):
    li, lj = zeta.infinity_form(A[i]), zeta.infinity_form(A[j])
    inner = [
        w
        for w in range(len(A))
        if w not in (i, j) and li < zeta.infinity_form(A[w]) < lj
    ]
    found = []
    for k in range(len(inner) + 1):
        for sub in itertools.combinations(inner, k):
            seq = [i] + sorted(sub, key=lambda w: zeta.infinity_form(A[w])) + [j]
            if is_zeta_convex(A, seq, zeta):
                found.append(tuple(seq))
    return sorted(found)


def test_criterion_08_path_enumeration():
    r = rng(108)
    for n in range(2, 8):
        A = rand_config(r, n, extra_dirs=(Z_RIGHT,))
        order = sorted(range(n), key=lambda i: Z_RIGHT.infinity_form(A[i]))
        for a, i in enumerate(order):
            for j in order[a + 1:]:
                fast = [p.vertices for p in enumerate_zeta_convex_paths(A, i, j, Z_RIGHT)]
                assert sorted(fast) == _brute_force_lambda(A, i, j, Z_RIGHT)
    for n in (3, 5, 7):
        A = maximally_concave_config(r, n)
        order = sorted(range(n), key=lambda i: Z_RIGHT.infinity_form(A[i]))
        for a, i in enumerate(order):
            for j in order[a + 1:]:
                assert [
                    p.vertices for p in enumerate_zeta_convex_paths(A, i, j, Z_RIGHT)
                ] == [(i, j)]
    report(8, "Lambda(i,j) matches the subset/hull oracle, N <= 7; concave => single")


def test_criterion_09_q_squared_cancellation():
    r = rng(109)
    for n in (4, 5, 6, 7):
        A = rand_config(r, n, extra_dirs=(Z_RIGHT,))
        order = sorted(range(n), key=lambda i: Z_RIGHT.infinity_form(A[i]))
        for a, i in enumerate(order):
            for j in order[a + 1:]:
                chains: dict = {}
                for gammas in paths_by_height(A, i, j, Z_RIGHT).values():
                    for g in gammas:
                        for w in height_data(g).l_set:
                            g1 = reduce_path(g, w)
                            s1 = wedge_sign(g, w)
                            for y in height_data(g1).l_set:
                                g2 = reduce_path(g1, y)
                                s2 = wedge_sign(g1, y)
                                chains.setdefault(
                                    (g.vertices, g2.vertices), []
                                ).append(((w, y), s1 * s2))
                for (top, _), items in chains.items():
                    if len(items) == 1:
                        (w, y), _sign = items[0]
                        assert y not in set(top[1:-1])
                    else:
                        assert len(items) == 2
                        assert len({frozenset(p) for p, _ in items}) == 1
                        assert items[0][1] == -items[1][1]
    report(9, "two-chain incidences cancel in sign; never more than two, N <= 7")


def _convex_gon(n):
    pts = []
    for k in range(n):
        x = Q(k)
        pts.append((x, x * x + Q(1, k + 2)))
    return config(*pts)


def _catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def _concentric():
    outer = [(-4, -3), (4, -3), (0, 4)]
    inner = [(Q(x) / 2, Q(y) / 2) for x, y in outer]
    A = config(*outer, *inner)
    cells = [
        Cell((3, 4, 5), frozenset((3, 4, 5))),
        Cell((0, 1, 4, 3), frozenset((0, 1, 4, 3))),
        Cell((1, 2, 5, 4), frozenset((1, 2, 5, 4))),
        Cell((2, 0, 3, 5), frozenset((2, 0, 3, 5))),
    ]
    return A, Subdivision(A, cells)


def test_criterion_10_secondary_polytopes():
    circuit = config((0, 0), (4, 0), (1, 3), ("3/2", 1))
    tris = enumerate_triangulations(circuit)
    assert len(tris) == 2
    assert all(is_regular(circuit, t) is not None for t in tris)

    for n in (4, 5, 6, 7):
        gon = _convex_gon(n)
        tris = enumerate_triangulations(gon)
        assert len(tris) == _catalan(n - 2)
        assert all(is_regular(gon, t) is not None for t in tris)

    # poset height = N - 3; codim = dim D - 3; H^2 = 0 throughout
    for A, expected_height in (
        (circuit, 1),
        (_convex_gon(5), 2),
        (_convex_gon(6), 3),
        (_convex_gon(7), 4),
    ):
        subs = enumerate_subdivisions(A)
        regs, codims = [], []
        for sub in subs:
            rep = deformation_complex(A, sub)
            assert rep.h2 == 0
            # h2 and the Euler line below hold by construction; the
            # parallel deformations count exc by another route
            assert rep.exc == len(parallel_deformations(A, sub))
            wit = is_regular(A, sub)
            if wit is None:
                continue
            regs.append(sub)
            codims.append(rep.codim)
            assert induced_subdivision(A, wit.psi) == sub
            assert rep.codim == rep.h0 + rep.n_omitted - 3
            assert rep.h0 == rep.dim_def0 - rep.dim_def1 + rep.dim_def2 + rep.exc
        assert refinement_poset(regs, codims)["height"] == expected_height

    A, sub = _concentric()
    rep = deformation_complex(A, sub)
    assert rep.exc == 1 and rep.h2 == 0
    assert len(parallel_deformations(A, sub)) == 1
    assert is_regular(A, sub) is not None

    # content additivity over every enumerated subdivision
    z = direction(3, 1)
    for A2 in (circuit, _convex_gon(5), A):
        cyc = tuple(convex_hull(A2))
        whole = content(A2, framing(A2, cyc, z))
        for sub2 in enumerate_subdivisions(A2):
            parts = sum(content(A2, framing(A2, c.polygon, z)) for c in sub2.cells)
            assert parts == whole
    report(10, "circuit/Catalan counts, poset heights, codim formula, exc, content")


def _apply_word(order, word):
    order = list(order)
    for s in word:
        order[s - 1], order[s] = order[s], order[s - 1]
    return order


def _sampled_oracle(A, rotation, steps=20011):
    sgn = 1 if rotation == "ccw" else -1

    def num_order(theta):
        z = (math.cos(theta), math.sin(theta))
        return tuple(
            sorted(
                range(len(A)),
                key=lambda i: z[0] * float(A[i].x) - z[1] * float(A[i].y),
            )
        )

    seq = [num_order(0.0)]
    word = []
    for s in range(1, steps + 1):
        o = num_order(sgn * math.pi * s / steps)
        if o != seq[-1]:
            prev = seq[-1]
            diff = [t for t in range(len(A)) if prev[t] != o[t]]
            if len(diff) != 2 or diff[1] != diff[0] + 1:
                raise AssertionError("sampling too coarse")
            word.append(diff[0] + 1)
            seq.append(o)
    return word


def test_criterion_11_anti_stokes_words():
    # triangle patterns for both orientations
    pos = config((0, 0), (1, -2), (3, -1))
    assert orient(pos, 0, 1, 2) == 1
    assert dominance_order(pos, Z_RIGHT) == [0, 1, 2]
    assert anti_stokes_sequence(pos, Z_RIGHT, "ccw") == [2, 1, 2]
    neg = config((0, 0), (1, 2), (3, 1))
    assert anti_stokes_sequence(neg, Z_RIGHT, "ccw") == [1, 2, 1]
    r = rng(111)
    for n in range(2, 7):
        A = rand_config(r, n, extra_dirs=(Z_RIGHT, Z_UP))
        for rotation in ("ccw", "cw"):
            word = anti_stokes_sequence(A, Z_RIGHT, rotation)
            assert len(word) == n * (n - 1) // 2  # reduced by length
            start = dominance_order(A, Z_RIGHT)
            assert _apply_word(start, word) == start[::-1]
            assert word == _sampled_oracle(A, rotation)
    report(11, "anti-Stokes words: length, reduced, triangle pattern, oracle N <= 6")
