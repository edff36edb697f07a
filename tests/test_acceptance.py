"""Acceptance suite: one test per criterion, every assertion exact over Q.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All tolerances are exact equality of rational matrices or
integer counts; nothing is approximate.  Criteria 01, 02 and 04-07 run
the identities of `infrared.checksuite` on their tier-1 draws
(`test_checksuite.run_tier1`); the identities are written there once.
"""

import itertools
import math
from fractions import Fraction as Q

from infrared import checksuite
from infrared.errors import NotInvertible
from infrared.geometry import (
    Dir,
    anti_stokes_sequence,
    config,
    convex_hull,
    direction,
    dominance_order,
    orient,
)
from infrared.linalg import MatQ
from infrared.paths import (
    enumerate_zeta_convex_paths,
    height_data,
    is_zeta_convex,
    paths_by_height,
    reduce_path,
    wedge_sign,
)
from infrared.perverse import spherical_report
from infrared.randomgen import (
    maximally_concave_config,
    rand_config,
    rand_matrix,
    rand_transport,
    rng,
)
from infrared.secondary import (
    Cell,
    Subdivision,
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
from test_checksuite import leg_coverage, run_tier1
from test_fourier import FACTORIZATION_CONVENTION, solve_factorization_convention
from test_linalg import block_diagonal
from test_perverse import rand_invertible

Z0 = Dir(Q(-1), Q(0))
Z_RIGHT = Dir(Q(1), Q(0))
Z_UP = Dir(Q(0), Q(1))


def report(num, text):
    print(f"criterion {num:>2}: {text} ... PASS")


def test_criterion_01_jacobson():
    run_tier1("jacobson")
    report(1, "Jacobson identity exact on 200 seeded pairs, dims <= 4")


def test_criterion_02_duality_round_trip():
    run_tier1("duality_round_trip")
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
    run_tier1("braid_relations_naturality")
    report(4, "braid + commutation relations and naturality, N = 3..5, dims <= 2")


def test_criterion_05_wall_crossing():
    run_tier1("wallcross_involutive")
    coll_only, horiz, events = leg_coverage(run_tier1("isomonodromy_legs"))
    assert coll_only >= 50 and horiz >= 6
    assert {rational for rational, _ in events} == {True, False}
    assert {sign for _, sign in events} >= {1, -1}
    report(5, "single-crossing involutivity; legs round trip; Stokes data and "
              "T_glob invariant on 50 collinearity legs")


def test_criterion_06_fourier_monodromy():
    run_tier1("fourier_monodromy")
    report(6, "Id - b-check a-check equals the clockwise product, N <= 5, dims <= 3")


def test_criterion_07_stokes_factorization(monkeypatch):
    r = rng(107)
    # convention fixed once by the N=2 symbolic oracle
    oracle = [
        (rand_transport(r, 2, max_dim=1), rand_config(r, 2, extra_dirs=(Z_RIGHT,)), Z0)
        for _ in range(20)
    ]
    survivors = solve_factorization_convention(oracle)
    assert FACTORIZATION_CONVENTION in survivors
    # maximally concave and generic-chamber instances, N = 2..5
    concave = []
    draw = checksuite.maximally_concave_config
    monkeypatch.setattr(checksuite, "maximally_concave_config",
                        lambda r, n: concave.append(draw(r, n)) or concave[-1])
    drawn = run_tier1("stokes_factorization")
    assert len(concave) >= 12 and len(drawn) - len(concave) >= 50
    report(7, "Stokes factorization: oracle-pinned convention, concave + generic")


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
