import itertools

import pytest

from infrared.errors import (
    DegeneratePosition,
    EdgePrecondition,
    InvalidEndpoints,
    InvalidReduction,
)
from infrared.geometry import Config, config, convex_hull, direction
from infrared.paths import (
    PolyPath,
    enumerate_zeta_convex_paths,
    height_data,
    incidence,
    is_zeta_convex,
    paths_by_height,
    reduce_path,
    wedge_sign,
    zeta_hull,
    zeta_hull_chain,
)
from infrared.randomgen import maximally_concave_config, rand_config, rng
from test_geometry import tie_prone_draws

Z = direction(1, 0)


def test_zeta_hull_small_sets():
    A = config((0, 0), (-1, 1), (0, 2), (5, 1))
    assert zeta_hull(A, [0], Z) == (0,)
    seg = zeta_hull(A, [0, 2], Z)
    assert seg.vertices == (0, 2)
    # left-bulging staircase keeps all four; ordered by increasing y
    stair = config((0, 0), (-2, 1), (-3, 3), (-2, 5))
    hull = zeta_hull(stair, [0, 1, 2, 3], Z)
    assert hull.vertices == (0, 1, 2, 3)


def test_zeta_hull_drops_inner_points():
    A = config((0, 0), (1, 1), (0, 2))
    assert zeta_hull_chain(A, [0, 1, 2], Z) == [0, 2]


def test_zeta_hull_idempotent():
    r = rng(11)
    for _ in range(8):
        A = rand_config(r, 6, extra_dirs=(Z,))
        subset = [0, 1, 2, 3, 4, 5]
        chain = zeta_hull_chain(A, subset, Z)
        assert zeta_hull_chain(A, chain, Z) == chain


def test_is_zeta_convex():
    A = config((0, 0), (-1, 1), (0, 2), (1, 1))
    assert is_zeta_convex(A, [0, 2], Z)
    assert is_zeta_convex(A, [0, 1, 2], Z)
    # turning away from the hull side
    assert not is_zeta_convex(A, [0, 3, 2], Z)
    assert not is_zeta_convex(A, [0, 0, 2], Z)


def turns_clockwise(A, vertices):
    """Strictly clockwise turn at every interior vertex, by cross products."""
    for a, b, c in zip(vertices, vertices[1:], vertices[2:]):
        if (A[b] - A[a]).cross(A[c] - A[b]) >= 0:
            return False
    return True


def test_fast_filter_equals_hull_oracle():
    r = rng(12)
    for _ in range(6):
        A = rand_config(r, 6, extra_dirs=(Z,))
        idx = sorted(range(6), key=lambda i: Z.infinity_form(A[i]))
        for size in (2, 3, 4):
            for sub in itertools.combinations(idx, size):
                seq = sorted(sub, key=lambda i: Z.infinity_form(A[i]))
                fast = turns_clockwise(A, seq)
                assert fast == is_zeta_convex(A, seq, Z)


def brute_force_lambda(A, i, j, zeta):
    li, lj = zeta.infinity_form(A[i]), zeta.infinity_form(A[j])
    inner = [
        w
        for w in range(len(A))
        if w not in (i, j) and li < zeta.infinity_form(A[w]) < lj
    ]
    found = []
    for r in range(len(inner) + 1):
        for sub in itertools.combinations(inner, r):
            seq = [i] + sorted(sub, key=lambda w: zeta.infinity_form(A[w])) + [j]
            if is_zeta_convex(A, seq, zeta):
                found.append(tuple(seq))
    return sorted(found)


def test_enumeration_matches_brute_force():
    r = rng(13)
    for n in (4, 5, 6, 7):
        A = rand_config(r, n, extra_dirs=(Z,))
        order = sorted(range(n), key=lambda i: Z.infinity_form(A[i]))
        for a, i in enumerate(order):
            for j in order[a + 1:]:
                paths = enumerate_zeta_convex_paths(A, i, j, Z)
                fast = [p.vertices for p in paths]
                assert sorted(fast) == brute_force_lambda(A, i, j, Z)
                for p in paths:
                    hd = height_data(p)
                    assert set(hd.l_set) <= set(hd.h_set)
                    # the path is the hull chain of its height set
                    assert zeta_hull_chain(
                        A, [i, j] + list(hd.h_set), Z
                    ) == list(p.vertices)


def test_enumeration_examples():
    two = config((0, 0), (1, 2))
    assert [p.vertices for p in enumerate_zeta_convex_paths(two, 0, 1, Z)] == [
        (0, 1)
    ]
    with pytest.raises(InvalidEndpoints):
        enumerate_zeta_convex_paths(two, 1, 0, Z)
    # triangle with middle point on the hull side: both paths appear
    tri = config((0, 0), (-1, 1), (0, 2))
    assert [p.vertices for p in enumerate_zeta_convex_paths(tri, 0, 2, Z)] == [
        (0, 1, 2),
        (0, 2),
    ]


def form_hull_chain(A, subset, zeta):
    """Oracle: the finite boundary of the zeta-hull, sorted by
    `Dir.infinity_form` and turned by Fraction cross products."""
    subset = list(dict.fromkeys(subset))
    keys = {i: zeta.infinity_form(A[i]) for i in subset}
    if len(set(keys.values())) != len(subset):
        raise DegeneratePosition("projection tie inside zeta-hull input")
    chain = []
    for i in sorted(subset, key=keys.get):
        while len(chain) >= 2 and (A[chain[-1]] - A[chain[-2]]).cross(A[i] - A[chain[-2]]) >= 0:
            chain.pop()
        chain.append(i)
    return chain


def form_height_data(path):
    """Oracle: height_data with the projection `Dir.infinity_form` and the
    side of each point from Fraction cross products."""
    A, zeta, chain = path.config, path.zeta, path.vertices
    ell = [zeta.infinity_form(p) for p in A]
    members = set(chain[1:-1])
    for w in range(len(A)):
        if w in chain or not ell[chain[0]] < ell[w] < ell[chain[-1]]:
            continue
        for a, b in zip(chain, chain[1:]):
            if ell[a] < ell[w] < ell[b]:
                if (A[b] - A[a]).cross(A[w] - A[a]) <= 0:
                    members.add(w)
                break
    return tuple(sorted(chain[1:-1])), tuple(sorted(members))


def test_hull_chains_and_heights_match_the_form_oracles():
    """On 400 tie-prone draws, some with collinear triples, `zeta_hull_chain`
    of random subsets equals the chain keyed by `Dir.infinity_form`, or both
    raise the same tie; `height_data` equals its oracle on each chain and on
    a random sequence of distinct points."""
    r = rng(34)
    ties = chains = 0
    for A, zeta in tie_prone_draws(34, 400):
        n = len(A)
        for _ in range(4):
            subset = r.sample(range(n), r.randint(1, n))
            try:
                chain = zeta_hull_chain(A, subset, zeta)
            except DegeneratePosition as exc:
                with pytest.raises(DegeneratePosition, match=str(exc)):
                    form_hull_chain(A, subset, zeta)
                ties += 1
                continue
            assert chain == form_hull_chain(A, subset, zeta), (A, zeta, subset)
            chains += 1
            for seq in (chain, r.sample(range(n), r.randint(2, n))):
                if len(seq) >= 2:
                    p = PolyPath(A, tuple(seq), zeta)
                    hd = height_data(p)
                    assert (hd.l_set, hd.h_set) == form_height_data(p), (A, zeta, seq)
    assert ties > 100 and chains > 100


def test_enumeration_on_tie_prone_draws():
    """On 150 tie-prone draws, `enumerate_zeta_convex_paths` refuses a
    configuration exactly when `Dir.infinity_form` ties on it; otherwise each
    pair in the order of the form gives the brute-force paths one way and
    InvalidEndpoints the other."""
    refused = 0
    for A, zeta in tie_prone_draws(35, 150):
        ell = [zeta.infinity_form(p) for p in A]
        if len(set(ell)) < len(A):
            with pytest.raises(DegeneratePosition):
                enumerate_zeta_convex_paths(A, 0, 1, zeta)
            refused += 1
            continue
        order = sorted(range(len(A)), key=ell.__getitem__)
        for a, i in enumerate(order):
            for j in order[a + 1:]:
                got = [p.vertices for p in enumerate_zeta_convex_paths(A, i, j, zeta)]
                assert got == brute_force_lambda(A, i, j, zeta), (A, zeta, i, j)
                with pytest.raises(InvalidEndpoints):
                    enumerate_zeta_convex_paths(A, j, i, zeta)
    assert 20 < refused < 130


def test_maximally_concave_single_segments():
    r = rng(14)
    for n in (3, 4, 5, 6, 7):
        A = maximally_concave_config(r, n)
        order = sorted(range(n), key=lambda i: Z.infinity_form(A[i]))
        for a, i in enumerate(order):
            for j in order[a + 1:]:
                paths = enumerate_zeta_convex_paths(A, i, j, Z)
                assert [p.vertices for p in paths] == [(i, j)]


def test_height_data_and_sets():
    # point 3 sits between the chain [0,1,2] and the chord: in h, not in l
    A = config((0, 0), (-2, 1), (0, 2), ("-1/2", "3/2"))
    p = PolyPath(A, (0, 1, 2), Z)
    hd = height_data(p)
    assert hd.l_set == (1,)
    assert hd.h_set == (1, 3)
    assert set(hd.l_set) <= set(hd.h_set)
    # the hull of the height set plus endpoints reproduces the chain
    assert zeta_hull_chain(A, list(hd.h_set) + [0, 2], Z) == [0, 1, 2]


def test_reduce_empty_pocket():
    A = config((0, 0), (-1, 1), (0, 2))
    p = PolyPath(A, (0, 1, 2), Z)
    q = reduce_path(p, 1)
    assert q.vertices == (0, 2)
    with pytest.raises(InvalidReduction):
        reduce_path(p, 0)


def test_reduce_exposes_pocket_points():
    # removing the tip exposes p = 2 pocket points
    A = config((0, 0), (-4, 3), (0, 6), (-2, 2), (-2, 4))
    p = PolyPath(A, (0, 1, 2), Z)
    hd = height_data(p)
    assert hd.h == 3 and hd.l == 1
    q = reduce_path(p, 1)
    assert q.vertices == (0, 3, 4, 2)
    hq = height_data(q)
    assert hq.h == hd.h - 1
    assert hq.l == hd.l + 2 - 1  # l grows by p - 1


def test_reduction_drops_height_by_one_randomly():
    r = rng(15)
    for _ in range(5):
        A = rand_config(r, 6, extra_dirs=(Z,))
        order = sorted(range(6), key=lambda i: Z.infinity_form(A[i]))
        i, j = order[0], order[-1]
        for p in enumerate_zeta_convex_paths(A, i, j, Z):
            hd = height_data(p)
            for w in hd.l_set:
                q = reduce_path(p, w)
                assert height_data(q).h == hd.h - 1
                assert is_zeta_convex(A, q.vertices, Z)


def test_incidence_three_points():
    A = config((0, 0), (-1, 1), (0, 2))
    entries = incidence(A, Z, 0, 2, 0)
    assert len(entries) == 1
    e = entries[0]
    assert e.gamma.vertices == (0, 1, 2)
    assert e.removed == 1
    assert e.gamma_prime.vertices == (0, 2)
    assert e.sign == 1
    assert incidence(A, Z, 0, 2, 5) == []


def two_step_chain_audit(A, zeta, i, j):
    """Group two-step reductions by (top, bottom) pair and check the sign
    cancellation: pairs joined by two chains carry opposite products and
    use a single removed-vertex pair."""
    strata = paths_by_height(A, i, j, zeta)
    chains = {}
    for h, gammas in strata.items():
        for g in gammas:
            for w in height_data(g).l_set:
                g1 = reduce_path(g, w)
                s1 = wedge_sign(g, w)
                for y in height_data(g1).l_set:
                    g2 = reduce_path(g1, y)
                    s2 = wedge_sign(g1, y)
                    key = (g.vertices, g2.vertices)
                    chains.setdefault(key, []).append(
                        ((w, y), s1 * s2)
                    )
    for (top, bottom), items in chains.items():
        if len(items) == 1:
            (w, y), _ = items[0]
            # single chain: the second removal was exposed by the first
            top_l = set(top[1:-1])
            assert y not in top_l
        else:
            assert len(items) == 2
            pairs = {frozenset(p) for p, _ in items}
            assert len(pairs) == 1
            signs = [s for _, s in items]
            assert signs[0] == -signs[1]
    return chains


def test_q_squared_sign_cancellation():
    r = rng(16)
    for n in (5, 6, 7):
        A = rand_config(r, n, extra_dirs=(Z,))
        order = sorted(range(n), key=lambda i: Z.infinity_form(A[i]))
        for a, i in enumerate(order):
            for j in order[a + 1:]:
                two_step_chain_audit(A, Z, i, j)


def enumerate_circum_paths(A, i, j):
    """Oracle for fourier.circum_sum and alt_circum_sum: the paths gamma
    from w_i to w_j such that gamma together with the chord [w_i, w_j]
    bounds a convex polygon, found by hulling every subset of the other
    points; requires the chord to be an edge of the hull of A.  The
    two-vertex path [i, j] is always included."""
    hull = A.hull()
    edges = {
        frozenset((a, b)) for a, b in zip(hull, hull[1:] + hull[:1])
    }
    if frozenset((i, j)) not in edges:
        raise EdgePrecondition(f"[{i},{j}] is not a hull edge")
    results = [[i, j]]
    others = [w for w in range(len(A)) if w not in (i, j)]
    for r in range(1, len(others) + 1):
        for sub in itertools.combinations(others, r):
            cycle_pts = (i, j) + sub
            labels = convex_hull(A, cycle_pts)
            if len(labels) != len(cycle_pts):
                continue  # some chosen point not a corner: not convex position
            pos_i, pos_j = labels.index(i), labels.index(j)
            n = len(labels)
            if (pos_i - pos_j) % n != 1 and (pos_j - pos_i) % n != 1:
                continue  # chord is a diagonal, not an edge
            # walk from i to j the long way around the cycle
            if (pos_j - pos_i) % n == 1:
                walk = [labels[(pos_i - t) % n] for t in range(n)]
            else:
                walk = [labels[(pos_i + t) % n] for t in range(n)]
            results.append(walk)
    results.sort()
    return results


def test_circumnavigation_paths():
    A = config((0, 0), (4, 0), (3, 3), (1, 3), (2, 1))
    # [0, 1] is a hull edge; inland point 4 and top points join the ring
    walks = enumerate_circum_paths(A, 0, 1)
    assert [0, 1] in walks
    assert all(w[0] == 0 and w[-1] == 1 for w in walks)
    with pytest.raises(EdgePrecondition):
        enumerate_circum_paths(A, 0, 2)
    # two-point configuration: only the segment
    B = config((0, 0), (1, 1))
    assert enumerate_circum_paths(B, 0, 1) == [[0, 1]]
