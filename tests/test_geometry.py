import itertools
import math
from fractions import Fraction as Q

import pytest

from infrared.errors import DegeneratePosition, InvalidInput, PathNotGeneric
from infrared.geometry import (
    AlgebraicTime,
    Config,
    CrossingSpec,
    Dir,
    GPReport,
    Pt,
    _integer_leg,
    _name,
    anti_stokes_sequence,
    config,
    convex_hull,
    direction,
    dominance_order,
    general_position,
    infinity_generic,
    infinity_keys,
    orient,
    pt,
    segment_wall_events,
)
from infrared.randomgen import rand_config, rng

Z_RIGHT = direction(1, 0)


def _cross(u, v):
    """The orientation form, for `_leg_quadratic`."""
    return u[0] * v[1] - u[1] * v[0]


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def _leg_quadratic(leg, form, i: int, j: int, k: int):
    """Coefficients (a, b, c) of form(w_j - w_i, w_k - w_i) along the leg as a
    quadratic in t, for a bilinear form such as _dot: with u = u0 + t du and
    v = v0 + t dv it is
    form(du, dv) t^2 + (form(u0, dv) + form(du, v0)) t + form(u0, v0).
    The engine builds the same quadratics from the pair differences of the
    leg, which it forms once."""
    xi, yi, dxi, dyi = leg[i]
    xj, yj, dxj, dyj = leg[j]
    xk, yk, dxk, dyk = leg[k]
    u0, du = (xj - xi, yj - yi), (dxj - dxi, dyj - dyi)
    v0, dv = (xk - xi, yk - yi), (dxk - dxi, dyk - dyi)
    return form(du, dv), form(u0, dv) + form(du, v0), form(u0, v0)


def test_orient_examples():
    assert orient(config((0, 0), (1, 0), (0, 1)), 0, 1, 2) == 1
    assert orient(config((0, 0), (1, 1), (2, 2)), 0, 1, 2) == 0
    # hand determinant 3*2 - 1*1 = 5 > 0
    assert orient(config((0, 0), (3, 1), (1, 2)), 0, 1, 2) == 1



def test_sign_table_matches_orient():
    r = rng(71)
    configs = [config((0, 0), (1, 1), (2, 2), (0, 1), (3, 1))]  # one collinear triple
    for n in (3, 4, 5, 6, 7):
        configs += [rand_config(r, n, require_strong=False) for _ in range(3)]
    for A in configs:
        t = A.sign_table()
        assert A.sign_table() is t
        for i, j, k in itertools.product(range(len(A)), repeat=3):
            want = orient(A, i, j, k) if len({i, j, k}) == 3 else 0
            assert t[i][j][k] == want, (A, i, j, k)
    assert configs[0].sign_table()[0][1][2] == 0

def test_orient_alternating_random():
    r = rng(1)
    A = rand_config(r, 6, require_strong=False)
    for i, j, k in itertools.permutations(range(6), 3):
        assert orient(A, i, j, k) == -orient(A, j, i, k)
        assert orient(A, i, j, k) == -orient(A, i, k, j)


def chirotope_signs(A):
    """The orientation signs of the increasing triples, read from the table."""
    t = A.sign_table()
    return {(i, j, k): t[i][j][k] for i, j, k in itertools.combinations(range(len(A)), 3)}


def test_chirotope_small():
    tri = config((0, 0), (1, 0), (0, 1))
    assert chirotope_signs(tri) == {(0, 1, 2): 1}
    quad = config((0, 0), (2, 0), (3, 2), (1, 3))  # convex ccw
    assert all(v == 1 for v in chirotope_signs(quad).values())
    degen = config((0, 0), (1, 1), (2, 2), (0, 5))
    assert chirotope_signs(degen)[(0, 1, 2)] == 0
    assert not general_position(degen).lin_general


def exchange_axiom_holds(A) -> bool:
    """Three-term Grassmann-Pluecker sign condition on all index tuples.

    For every (i1..i4, j1, j2) the sign set
    {(-1)^v * chi(i.. without i_v ..) * chi(j1, j2, i_v)} must either
    contain {+1, -1} or equal {0}, chi being the alternating sign table.
    """
    t = A.sign_table()
    rng = range(len(A))
    for quad in itertools.combinations(rng, 4):
        for j1, j2 in itertools.permutations(rng, 2):
            vals = set()
            for v in range(4):
                a, b, c = (x for u, x in enumerate(quad) if u != v)
                s = (-1) ** (v + 1) * t[a][b][c] * t[j1][j2][quad[v]]
                vals.add(s)
            if not ({1, -1} <= vals or vals == {0}):
                return False
    return True


def test_exchange_axiom_exhaustive():
    r = rng(2)
    for n in (4, 5, 6, 7):
        A = rand_config(r, n, require_strong=False)
        assert general_position(A).lin_general
        assert exchange_axiom_holds(A)


def test_general_position_flags():
    rep = general_position(config((0, 0), (1, 0), (0, 1)), Z_RIGHT)
    assert rep.lin_general and rep.strong_lin_general
    # two points share y = 0, so the horizontal infinity form ties
    assert rep.incl_infinity is False
    collinear = general_position(config((0, 0), (1, 0), (2, 0)))
    assert not collinear.lin_general
    two = general_position(config((0, 0), (0, 1)), direction(0, 1))
    assert two.incl_infinity is False
    generic = general_position(config((0, 0), (3, 1), (1, 2)), Z_RIGHT)
    assert generic.lin_general and generic.strong_lin_general
    assert generic.incl_infinity is True


def _strong_by_cross_products(A):
    """Oracle: linear general position and no two segments parallel, by the
    cross product of every pair of segments."""
    n = len(A)
    if any(orient(A, *t) == 0 for t in itertools.combinations(range(n), 3)):
        return False
    segs = itertools.combinations(range(n), 2)
    return all(
        (A[j] - A[i]).cross(A[l] - A[k]) != 0
        for (i, j), (k, l) in itertools.combinations(segs, 2)
    )


def test_strong_position_against_cross_product_oracle():
    named = {
        "parallelogram": config((0, 0), (2, 0), (3, 1), (1, 1)),
        "trapezoid": config((0, 0), (4, 0), (3, 2), (1, 2)),
        "parallel verticals": config((0, 0), (0, 1), (2, 3), (2, 5)),
        "one vertical": config((0, 0), (0, 1), (3, 5), (5, 2)),
    }
    for name, A in named.items():
        rep = general_position(A)
        assert rep.lin_general, name
        assert rep.strong_lin_general == _strong_by_cross_products(A), name
        assert rep.strong_lin_general == (name == "one vertical"), name
    r = rng(31)
    outcomes = set()
    for _ in range(300):
        n = r.randint(3, 7)
        pts = {(r.randint(-3, 3), r.randint(-3, 3)) for _ in range(n)}
        A = config(*sorted(pts))
        expect = _strong_by_cross_products(A)
        assert general_position(A).strong_lin_general == expect, A
        outcomes.add((general_position(A).lin_general, expect))
    # the draws reach all three cases: collinear, parallel only, strong
    assert outcomes == {(False, False), (True, False), (True, True)}


def fraction_general_position(A, zeta=None):
    """Oracle: general_position with the slope of each segment as a
    Fraction, None when vertical."""
    n = len(A)
    lin = all(orient(A, *t) for t in itertools.combinations(range(n), 3))
    slopes = {
        (q.y - p.y) / (q.x - p.x) if q.x != p.x else None
        for p, q in itertools.combinations(A, 2)
    }
    strong = lin and len(slopes) == n * (n - 1) // 2
    return GPReport(lin, strong, None if zeta is None else infinity_generic(A, zeta))


def test_general_position_matches_the_fraction_slopes():
    """The reduced integer directions decide general position exactly as
    Fraction slopes do: 210 draws with N = 2..8, from rand_config (every
    third with box=3 and require_strong=False) and free draws on a small
    grid over denominators 1..3, left in draw order, which reach vertical,
    horizontal and parallel segments, pointing either way, and collinear
    triples."""
    r = rng(33)
    seen = {"vertical": 0, "horizontal": 0, "parallel": 0, "collinear": 0}
    for k in range(210):
        n = 2 + k % 7
        if k % 3 == 0:
            A = rand_config(r, n, extra_dirs=(Z_RIGHT,))
        elif k % 3 == 1:
            A = rand_config(r, n, require_strong=False, box=3)
        else:
            pts = []
            while len(pts) < n:
                p = tuple(Q(r.randint(-3, 3), r.randint(1, 3)) for _ in range(2))
                if p not in pts:
                    pts.append(p)
            A = config(*pts)
        for zeta in (None, Z_RIGHT):
            rep = general_position(A, zeta)
            assert rep == fraction_general_position(A, zeta), (k, A)
        segs = [q - p for p, q in itertools.combinations(A, 2)]
        seen["vertical"] += any(u.x == 0 for u in segs)
        seen["horizontal"] += any(u.y == 0 for u in segs)
        seen["parallel"] += rep.lin_general and not rep.strong_lin_general
        seen["collinear"] += not rep.lin_general
    assert min(seen.values()) >= 20, seen
    # parallel pairs in every index order, so that their directions point
    # either way: vertical, horizontal, oblique; and a strong quadrilateral
    named = [
        ((0, 0), (0, 1), (2, 3), (2, 1)),
        ((0, 0), (1, 0), (3, 2), (2, 2)),
        ((0, 0), (2, 1), (1, 3), (5, 5)),
        ((0, 0), (0, 1), (3, 5), (5, 2)),
    ]
    for k, pts in enumerate(named):
        for perm in itertools.permutations(pts):
            rep = general_position(config(*perm))
            assert rep == fraction_general_position(config(*perm)), perm
            assert rep.lin_general and rep.strong_lin_general == (k == 3)


def test_rand_config_draws_are_unchanged(monkeypatch):
    """rand_config returns the same configurations after the same number of
    draws with the Fraction-slope oracle in place of general_position."""
    import infrared.randomgen as randomgen

    def drawn_with(check):
        calls = []

        def counting(A, zeta=None):
            calls.append(A)
            return check(A, zeta)

        monkeypatch.setattr(randomgen, "general_position", counting)
        out = []
        for seed in range(8):
            r = rng(seed)
            for n in (3, 5, 8):
                out.append(rand_config(r, n, extra_dirs=(Z_RIGHT,)))
                out.append(rand_config(r, n, require_strong=False, box=3))
        return out, len(calls)

    configs, draws = drawn_with(general_position)
    assert drawn_with(fraction_general_position) == (configs, draws)
    assert draws - len(configs) >= 20  # redraws happen


def test_collinearity_sign_before_irrational_events():
    """eps_before is the orientation sign of the reported triple at a
    rational time just before the event, whatever the sign of the leading
    coefficient of the orientation polynomial."""
    r = rng(32)
    leading_signs = set()
    checked = 0
    while checked < 40:
        a0 = [(r.randint(-6, 6), r.randint(-6, 6)) for _ in range(3)]
        a1 = list(a0)
        for k in r.sample(range(3), 2):
            a1[k] = (r.randint(-6, 6), r.randint(-6, 6))
        try:
            A0, A1 = config(*a0), config(*a1)
            events = segment_wall_events(A0, A1)
        except (InvalidInput, PathNotGeneric):
            continue
        for ev in events:
            if ev.kind != "coll" or ev.time.rational is not None:
                continue
            def det_at(t):
                a, b, c = (_interp(A0[m], A1[m], t) for m in (ev.i, ev.j, ev.k))
                return (b - a).cross(c - a)

            # the isolating interval holds no other root, so the sign at its
            # lower end is the sign just before the event
            d = det_at(ev.time.lo)
            assert (d > 0) - (d < 0) == ev.eps_before, (a0, a1)
            # second difference: the sign of the leading coefficient
            leading_signs.add(det_at(1) + det_at(0) - 2 * det_at(Q(1, 2)) > 0)
            checked += 1
    assert leading_signs == {True, False}


def _interp(p0: Pt, p1: Pt, t) -> Pt:
    return Pt(p0.x + t * (p1.x - p0.x), p0.y + t * (p1.y - p0.y))


def _interpolated_quad(A0, A1, i, j, k, form=Pt.cross):
    """Oracle: form(w_j - w_i, w_k - w_i) along the leg as a quadratic in t,
    through its values at t = 0, 1/2 and 1."""

    def val(t):
        a, b, c = (_interp(A0[m], A1[m], t) for m in (i, j, k))
        return form(b - a, c - a)

    v0, v1, vh = val(Q(0)), val(Q(1)), val(Q(1, 2))
    a = 2 * v1 + 2 * v0 - 4 * vh
    return a, v1 - a - v0, v0


def test_orient_quadratic_closed_form_matches_interpolation():
    """The integer leg is the leg scaled by the lcm L of its denominators,
    and its cross and dot quadratics are L^2 times the interpolated ones."""
    r = rng(6)
    leading = set()

    def draw():
        return Pt(Q(r.randint(-9, 9), r.randint(1, 3)), Q(r.randint(-9, 9), r.randint(1, 3)))

    for _ in range(300):
        pts0 = [draw() for _ in range(4)]
        pts1 = list(pts0)
        for k in r.sample(range(4), r.randint(1, 4)):
            pts1[k] = draw()
        try:
            A0, A1 = Config(pts0), Config(pts1)
        except InvalidInput:
            continue
        scale = math.lcm(*[c.denominator for p in pts0 + pts1 for c in (p.x, p.y)])
        leg = _integer_leg(A0, A1)
        assert leg == [
            (scale * p.x, scale * p.y, scale * (q.x - p.x), scale * (q.y - p.y))
            for p, q in zip(pts0, pts1)
        ]
        assert all(type(v) is int for point in leg for v in point)
        for tri in itertools.permutations(range(4), 3):
            for form, oracle in ((_dot, Pt.dot), (_cross, Pt.cross)):
                coeffs = _leg_quadratic(leg, form, *tri)
                expect = _interpolated_quad(A0, A1, *tri, form=oracle)
                assert coeffs == tuple(scale * scale * v for v in expect)
            leading.add((coeffs[0] > 0) - (coeffs[0] < 0))  # of the orientation
    assert leading == {-1, 0, 1}


def test_convex_hull_examples():
    assert convex_hull(config((0, 0), (1, 0), (0, 1))) == [0, 1, 2]
    square_center = config((0, 0), (1, 0), (1, 1), (0, 1), ("1/2", "1/2"))
    assert convex_hull(square_center) == [0, 1, 2, 3]


def brute_force_hull(A):
    """A point is a hull corner iff some closed half-plane through it
    contains all others strictly on one side except collinear mates."""
    n = len(A)
    corners = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            left = sum(
                1 for k in range(n) if k not in (i, j) and orient(A, i, j, k) > 0
            )
            right = sum(
                1 for k in range(n) if k not in (i, j) and orient(A, i, j, k) < 0
            )
            if left == 0 or right == 0:
                corners.add(i)
                corners.add(j)
    return corners


def test_convex_hull_against_halfplane_oracle():
    r = rng(3)
    for _ in range(10):
        A = rand_config(r, 5, require_strong=False)
        assert set(convex_hull(A)) == brute_force_hull(A)


def test_convex_hull_of_a_subset_matches_the_sub_configuration():
    """convex_hull(A, subset) is the hull of the sub-Config, mapped back to
    A's indices; grid points give collinear triples inside the subsets."""
    r = rng(4)
    grid = [(x, y) for x in range(4) for y in range(4)]
    collinear = 0
    for _ in range(40):
        A = config(*r.sample(grid, 8))
        for size in (1, 2, 3, 4, 6, 8):
            sub = sorted(r.sample(range(len(A)), size))
            expect = [sub[t] for t in convex_hull(Config(A[w] for w in sub))]
            assert convex_hull(A, r.sample(sub, size)) == expect
            collinear += any(
                orient(A, *tri) == 0 for tri in itertools.combinations(sub, 3)
            )
    assert collinear > 0


def test_config_hull_is_the_convex_hull_kept():
    r = rng(5)
    for n in (3, 5, 8):
        A = rand_config(r, n, require_strong=False)
        assert A.hull() == tuple(convex_hull(A))
        assert A.hull() is A.hull()


def test_dominance_orders():
    A = config((0, 0), (3, 1), (1, 2))
    assert dominance_order(A, Z_RIGHT) == [0, 2, 1]
    assert dominance_order(A, direction(-1, 0)) == [1, 2, 0]
    # zeta = i: Re(i w) = -y
    assert dominance_order(A, direction(0, 1)) == [2, 1, 0]
    with pytest.raises(DegeneratePosition):
        dominance_order(config((0, 0), (0, 5)), Z_RIGHT)


def test_dominance_reversal_random():
    r = rng(4)
    for _ in range(5):
        A = rand_config(r, 5, extra_dirs=(Z_RIGHT,))
        fwd = dominance_order(A, Z_RIGHT)
        assert dominance_order(A, direction(-1, 0)) == fwd[::-1]


def test_anti_stokes_two_points():
    A = config((0, 0), (2, 1))
    assert anti_stokes_sequence(A, Z_RIGHT) == [1]


def test_anti_stokes_triangle_patterns():
    # positively oriented triple in initial dominance order: ccw rotation
    # runs (ijk)->(ikj)->(kij)->(kji), i.e. word s2 s1 s2
    pos = config((0, 0), (1, -2), (3, -1))
    assert orient(pos, 0, 1, 2) == 1
    assert dominance_order(pos, Z_RIGHT) == [0, 1, 2]
    assert anti_stokes_sequence(pos, Z_RIGHT, "ccw") == [2, 1, 2]
    assert anti_stokes_sequence(pos, Z_RIGHT, "cw") == [1, 2, 1]
    neg = config((0, 0), (1, 2), (3, 1))
    assert orient(neg, 0, 1, 2) == -1
    assert anti_stokes_sequence(neg, Z_RIGHT, "ccw") == [1, 2, 1]
    assert anti_stokes_sequence(neg, Z_RIGHT, "cw") == [2, 1, 2]


def apply_word(order, word):
    order = list(order)
    for s in word:
        order[s - 1], order[s] = order[s], order[s - 1]
    return order


def sampled_rotation_oracle(A, rotation, steps=20011):
    """Track the dominance order through finely sampled directions."""
    sgn = 1 if rotation == "ccw" else -1

    def numeric_order(theta):
        z = (math.cos(theta), math.sin(theta))
        return tuple(
            sorted(
                range(len(A)),
                key=lambda i: z[0] * float(A[i].x) - z[1] * float(A[i].y),
            )
        )

    seq = [numeric_order(0.0)]
    word = []
    for s in range(1, steps + 1):
        o = numeric_order(sgn * math.pi * s / steps)
        if o != seq[-1]:
            prev = seq[-1]
            diff = [t for t in range(len(A)) if prev[t] != o[t]]
            assert len(diff) == 2 and diff[1] == diff[0] + 1
            word.append(diff[0] + 1)
            seq.append(o)
    return word


def test_anti_stokes_words_against_sampled_oracle():
    r = rng(5)
    for n in (3, 4, 5, 6):
        # distinct y for the infinity form, distinct x so the start
        # direction is not itself anti-Stokes
        A = rand_config(r, n, extra_dirs=(Z_RIGHT, direction(0, 1)))
        for rotation in ("ccw", "cw"):
            word = anti_stokes_sequence(A, Z_RIGHT, rotation)
            assert len(word) == n * (n - 1) // 2
            start = dominance_order(A, Z_RIGHT)
            assert apply_word(start, word) == start[::-1]
            assert word == sampled_rotation_oracle(A, rotation)


def fraction_dominance_order(A, zeta):
    """Oracle: indices sorted by Re(zeta w) = dx*x - dy*y on the Fraction
    coordinates.  Ties are an error."""
    def value(i):
        return zeta.dx * A[i].x - zeta.dy * A[i].y

    keyed = sorted(range(len(A)), key=value)
    for a, b in zip(keyed, keyed[1:]):
        if value(a) == value(b):
            raise DegeneratePosition(
                f"dominance tie between points {a} and {b} for direction "
                f"({zeta.dx},{zeta.dy})"
            )
    return keyed


def insertion_sort_anti_stokes_sequence(A, zeta0, rotation="ccw"):
    """Oracle: the half-turn scan on Fraction directions, the pair {i, j}
    switching at +-(dy, dx) with (dx, dy) = w_i - w_j, put in order by an
    insertion sort with the exact angular comparator."""
    if not general_position(A, zeta0).strong_lin_general:
        raise DegeneratePosition("anti-Stokes scan needs strong general position")
    want_positive = rotation == "ccw"
    events = []
    for i, j in itertools.combinations(range(len(A)), 2):
        d = A[i] - A[j]
        u = Dir(d.y, d.x)
        side = zeta0.dx * u.dy - zeta0.dy * u.dx
        if side == 0:
            raise DegeneratePosition(f"start direction is anti-Stokes for pair ({i},{j})")
        if (side > 0) != want_positive:
            u = u.opposite()
        events.append((i, j, u))

    def earlier(u, v):
        c = u.dx * v.dy - u.dy * v.dx
        if c == 0:
            raise DegeneratePosition("coincident anti-Stokes directions")
        return (c > 0) if want_positive else (c < 0)

    ordered = []
    for ev in events:
        lo = 0
        while lo < len(ordered) and earlier(ordered[lo][2], ev[2]):
            lo += 1
        ordered.insert(lo, ev)
    order = fraction_dominance_order(A, zeta0)
    word = []
    for i, j, _ in ordered:
        pi, pj = order.index(i), order.index(j)
        if abs(pi - pj) != 1:
            raise DegeneratePosition(
                f"switch of non-adjacent elements {i},{j}: configuration is "
                "not generic for the scan"
            )
        lo = min(pi, pj)
        word.append(lo + 1)
        order[lo], order[lo + 1] = order[lo + 1], order[lo]
    return word


def tie_prone_draws(seed, count):
    """(configuration, direction) pairs on small grids, so that ties of the
    projections along a direction are common: the even draws are in linear
    general position but not always in strong position, the odd ones may
    hold collinear triples and are left in draw order.  The directions have
    rational entries."""
    r = rng(seed)
    out = []
    for k in range(count):
        n = r.randint(2, 7)
        if k % 2 == 0:
            A = rand_config(r, n, require_strong=False, box=2 + k % 3)
        else:
            pts = []
            while len(pts) < n:
                p = tuple(Q(r.randint(-3, 3), r.randint(1, 2)) for _ in range(2))
                if p not in pts:
                    pts.append(p)
            A = config(*pts)
        dx, dy = 0, 0
        while dx == dy == 0:
            dx, dy = r.randint(-2, 2), r.randint(-2, 2)
        out.append((A, Dir(Q(dx, r.randint(1, 3)), Q(dy, r.randint(1, 3)))))
    return out


def _result(fn, *args):
    """fn(*args), or the type and message of the DegeneratePosition it raises."""
    try:
        return fn(*args)
    except DegeneratePosition as exc:
        return "DegeneratePosition", str(exc)


def test_infinity_keys_are_one_positive_multiple_of_the_form():
    """`infinity_keys` is the infinity form times den * lcm(zeta's
    denominators), at every point of every draw."""
    for A, zeta in tie_prone_draws(31, 200):
        scale = A.int_points()[1] * math.lcm(zeta.dx.denominator, zeta.dy.denominator)
        assert infinity_keys(A, zeta) == [scale * zeta.infinity_form(p) for p in A]


def test_dominance_order_matches_the_fraction_oracle():
    """`dominance_order`, the infinity order of (-dy, -dx), gives the order
    of the Fraction values Re(zeta w), or the same tie message, on 600
    tie-prone draws; both outcomes occur."""
    ties = 0
    for A, zeta in tie_prone_draws(32, 600):
        got = _result(dominance_order, A, zeta)
        assert got == _result(fraction_dominance_order, A, zeta), (A, zeta)
        ties += isinstance(got, tuple)
    assert 50 < ties < 550


def test_anti_stokes_sequence_matches_the_insertion_sort_oracle():
    """On 600 tie-prone draws, in both rotations, the scan on the integer
    frame gives the word of the insertion-sort scan on Fraction directions,
    or raises DegeneratePosition with the same message; words, refusals for
    strong position and anti-Stokes start directions all occur."""
    seen = {}
    for A, zeta in tie_prone_draws(33, 600):
        for rotation in ("ccw", "cw"):
            got = _result(anti_stokes_sequence, A, zeta, rotation)
            assert got == _result(insertion_sort_anti_stokes_sequence, A, zeta, rotation), (
                A, zeta, rotation)
            kind = got[1].split(" ")[0] if isinstance(got, tuple) else "word"
            seen[kind] = seen.get(kind, 0) + 1
    assert set(seen) == {"word", "anti-Stokes", "start"}
    assert min(seen.values()) > 50, seen


def test_clockwise_word_mirrors_the_counterclockwise_scan():
    """On 300 `rand_config` draws with N = 3..9 and a random rational start
    direction, the clockwise word is the counterclockwise word reversed,
    each letter p read as N - p, and both rotations give the words of the
    insertion-sort scan."""
    r = rng(36)
    for k in range(300):
        n = 3 + k % 7
        dx = dy = 0
        while dx == dy == 0:
            dx, dy = r.randint(-3, 3), r.randint(-3, 3)
        zeta = Dir(Q(dx, r.randint(1, 3)), Q(dy, r.randint(1, 3)))
        # generic for the dominance form, so no pair is anti-Stokes at zeta
        A = rand_config(r, n, extra_dirs=(Dir(-zeta.dy, -zeta.dx),))
        ccw, cw = (anti_stokes_sequence(A, zeta, rot) for rot in ("ccw", "cw"))
        assert cw == [n - p for p in reversed(ccw)], (A, zeta)
        assert ccw == insertion_sort_anti_stokes_sequence(A, zeta, "ccw"), (A, zeta)
        assert cw == insertion_sort_anti_stokes_sequence(A, zeta, "cw"), (A, zeta)


def test_wall_events_constant_path():
    A = config((0, 0), (2, 1), (1, 3))
    assert segment_wall_events(A, A) == []


def test_wall_events_single_horizontality():
    # point 1 moves from below point 0 to above; Im difference is linear;
    # point 2 is far enough that no collinearity occurs on the leg
    a0 = config((0, 0), (3, -1), (10, 50))
    a1 = config((0, 0), (3, 3), (10, 50))
    events = segment_wall_events(a0, a1)
    assert len(events) == 1
    ev = events[0]
    assert ev.kind == "horiz" and (ev.i, ev.j) == (0, 1)
    # crossing time solves -1 + 4t = 0
    assert ev.time.rational == pytest.approx(0.25)
    assert ev.motion == "above" and ev.re_cmp == "right"


def test_wall_events_collinearity_quadratic():
    # w_1 carried across the segment [w_0, w_2]
    a0 = config((-4, -2), (-1, 2), (4, "5/2"))
    a1 = config((-4, -2), (0, -3), (4, "5/2"))
    events = segment_wall_events(a0, a1)
    colls = [e for e in events if e.kind == "coll"]
    assert len(colls) == 1
    ev = colls[0]
    assert (ev.i, ev.j, ev.k) == (0, 1, 2)
    assert ev.eps_before == -1  # j starts on the ccw-negative side


def test_wall_events_reversed_path():
    a0 = config((-4, -2), (-1, 2), (4, "5/2"))
    a1 = config((-4, -2), (0, -3), (4, "5/2"))
    fwd = segment_wall_events(a0, a1)
    bwd = segment_wall_events(a1, a0)
    assert len(fwd) == len(bwd)
    for e, f in zip(fwd, reversed(bwd)):
        assert e.kind == f.kind
        if e.kind == "coll":
            assert (e.i, e.j, e.k) == (f.i, f.j, f.k)
            assert e.eps_before == -f.eps_before
        else:
            assert {e.i, e.j} == {f.i, f.j}
            assert e.motion != f.motion


def test_wall_events_reject_endpoint_and_tangency():
    """Rejected legs keep their error text."""
    rejected = [
        # endpoint horizontality: points 0, 1 aligned at t = 0
        (
            [(0, 0), (3, 0), (1, 5)], [(0, 0), (3, 2), (1, 5)],
            "endpoints must be in general position including horizontal infinity",
        ),
        (
            [(-2, 2), (-1, 0), (0, 1)], [(0, 0), (-2, 2), (0, 1)],
            "coincident event times for D(0,1) and D(0,2)",
        ),
        (
            [(1, 0), (-1, 3), (0, -3)], [(-2, 0), (-1, -1), (-2, 1)],
            "tangential collinearity of (0,1,2)",
        ),
        # point 1 passes through point 0 at t = 1/2
        (
            [(0, 0), (2, 2), (5, -3)], [(0, 0), (-2, -2), (5, -3)],
            "points 0 and 1 collide on the leg",
        ),
        # collinear at t = 0: point 1 on the segment [w_0, w_2]
        (
            [(0, 0), (1, 2), (2, 4)], [(0, 0), (3, 1), (2, 4)],
            "endpoints must be in general position including horizontal infinity",
        ),
        # horizontal at t = 1: points 0, 2 at one height
        (
            [(0, 0), (3, 1), (1, 5)], [(0, 0), (3, 1), (1, 0)],
            "endpoints must be in general position including horizontal infinity",
        ),
    ]
    for a0, a1, message in rejected:
        with pytest.raises(PathNotGeneric) as info:
            segment_wall_events(config(*a0), config(*a1))
        assert str(info.value) == message


def test_algebraic_time_ordering():
    def roots(a, b, c):
        return [t for t, _ in AlgebraicTime.quadratic_roots(a, b, c)]

    lo, hi = roots(1, 0, -2)  # +-sqrt(2)
    assert lo < hi and not (hi < lo)
    third = AlgebraicTime.from_rational(1)
    assert lo < third < hi
    again = roots(2, 0, -4)  # same numbers
    assert again[0] == lo and again[1] == hi
    scaled = roots(Q(1, 3), 0, Q(-2, 3))
    assert scaled == [lo, hi] and not lo < scaled[0] and not scaled[0] < lo
    near = AlgebraicTime.from_rational(Q(14142136, 10**7))  # just above sqrt 2
    assert hi < near and not near < hi
    # 1 + sqrt 2 and 2 + sqrt 2: discriminant 8 both times
    one, two = roots(1, -2, -1)[1], roots(1, -4, 2)[1]
    assert one < two and not two < one
    # sqrt 2 lies inside the root pair of t^2 - 3 and outside that of t^2 - 1
    assert roots(1, 0, -3)[0] < hi < roots(1, 0, -3)[1]
    assert roots(1, 0, -1)[1] < hi and not hi < roots(1, 0, -1)[1]
    for s, t in itertools.permutations([lo, hi, third, near, one, two], 2):
        assert (s < t) == _bisection_less(s, t)
    assert hi.sign_at(1, 0, -2) == 0 and hi.sign_at(0, 1, 0) == 1
    assert lo.sign_at(0, 1, 0) == -1 and hi.sign_at(1, 0, -3) == -1


def test_quadratic_roots_are_exact_on_int_input():
    [(root, mult)] = AlgebraicTime.quadratic_roots(9, 6, 1)
    assert mult == 2 and type(root.rational) is Q and root.rational == Q(-1, 3)
    roots = AlgebraicTime.quadratic_roots(6, -5, 1)  # 1/3 and 1/2
    assert [(type(t.rational), t.rational, m) for t, m in roots] == [
        (Q, Q(1, 3), 1), (Q, Q(1, 2), 1),
    ]
    assert AlgebraicTime.quadratic_roots(Q(1, 2), Q(-5, 12), Q(1, 12)) == roots


def test_algebraic_time_prints_its_exact_value():
    def printed(a, b, c):
        return [str(t) for t, _ in AlgebraicTime.quadratic_roots(a, b, c)]

    # -+sqrt(2), from t^2 - 2 and from its multiple 2t^2 - 4
    assert printed(1, 0, -2) == ["(0 - sqrt(8))/2", "(0 + sqrt(8))/2"]
    assert printed(2, 0, -4) == printed(1, 0, -2)
    # -t^2 + t + 1 is made primitive with a > 0: t^2 - t - 1, the golden ratio
    assert printed(-1, 1, 1) == ["(1 - sqrt(5))/2", "(1 + sqrt(5))/2"]
    # t^2/2 - t - 1/3 times 6 is 3t^2 - 6t - 2: t = 1 -+ sqrt(5/3)
    assert printed(Q(1, 2), -1, Q(-1, 3)) == ["(6 - sqrt(60))/6", "(6 + sqrt(60))/6"]
    # rational roots print as p/q, p alone when q = 1
    assert printed(6, -5, 1) == ["1/3", "1/2"]
    assert printed(9, 6, 1) == ["-1/3"]
    assert printed(1, -1, -2) == ["-1", "2"]
    assert str(AlgebraicTime.from_rational(Q(-3, 4))) == "-3/4"


# -- exact comparisons against bisection ------------------------------------


def _bisection_less(s: AlgebraicTime, t: AlgebraicTime) -> bool:
    """Oracle: order two times by halving their isolating intervals until
    they separate (irrational roots never sit on rational interval ends)."""
    if s == t:
        return False
    if s.rational is not None and t.rational is not None:
        return s.rational < t.rational
    for _ in range(100000):
        if s.hi <= t.lo:
            return True
        if t.hi <= s.lo:
            return False
        s.refine()
        t.refine()
    raise AssertionError("isolating intervals failed to separate")


def in_open_unit_interval(s: AlgebraicTime) -> bool:
    """Oracle of the key range test: 0 < s < 1 as two exact signs."""
    return s.sign_at(0, 1, 0) > 0 and s.sign_at(0, 1, -1) < 0


def _bisection_in_open_unit_interval(s: AlgebraicTime) -> bool:
    zero, one = AlgebraicTime.from_rational(0), AlgebraicTime.from_rational(1)
    return _bisection_less(zero, s) and _bisection_less(s, one)


def _bisection_sign_at(s: AlgebraicTime, p2: int, p1: int, p0: int) -> int:
    """Oracle: the sign of p2 t^2 + p1 t + p0 at s from where s lies among
    the polynomial's real roots."""
    if p2 == 0 and p1 == 0:
        return (p0 > 0) - (p0 < 0)
    if p2 == 0:
        roots, lead = [AlgebraicTime.from_rational(Q(-p0, p1))], p1
    else:
        roots, lead = [t for t, m in AlgebraicTime.quadratic_roots(p2, p1, p0) for _ in range(m)], p2
    if any(s == t for t in roots):
        return 0
    above = sum(_bisection_less(s, t) for t in roots)  # each flips the sign
    lead = (lead > 0) - (lead < 0)
    return lead if above % 2 == 0 else -lead


def _times(r, count):
    """Seeded times: rationals, both roots of random quadratics, roots of
    quadratics sharing a discriminant, and numbers given by a quadratic and
    a scaled copy of it."""
    out = []
    while len(out) < count:
        kind = r.randrange(4)
        if kind == 0:
            out.append(AlgebraicTime.from_rational(Q(r.randint(-30, 30), r.randint(1, 12))))
            continue
        if kind == 1:
            a, b, c = r.randint(1, 6) * r.choice((-1, 1)), r.randint(-9, 9), r.randint(-9, 9)
        else:
            # b^2 - 4ac = d for a fixed non-square d
            d = r.choice((5, 8, 12, 13))
            a = r.randint(1, 4) * r.choice((-1, 1))
            bs = [b for b in range(-12, 13) if (b * b - d) % (4 * a) == 0]
            if not bs:
                continue
            b = r.choice(bs)
            c = (b * b - d) // (4 * a)
        if kind == 3:
            k = Q(r.randint(1, 5), r.randint(1, 5)) * r.choice((-1, 1))
            a, b, c = a * k, b * k, c * k
        out.extend(t for t, _ in AlgebraicTime.quadratic_roots(a, b, c))
    return out


def test_exact_comparisons_match_bisection():
    r = rng(77)
    times = _times(r, 160)
    kinds = set()
    for s in times:
        inside = in_open_unit_interval(s)
        assert inside == _bisection_in_open_unit_interval(s)
        # the key range [0, 2^64) is [0, 1): the open interval and 0 itself
        assert (0 <= s.floor64() < 1 << 64) == (inside or s.rational == 0)
        for t in r.sample(times, 24):
            assert (s < t) == _bisection_less(s, t), (s.key(), t.key())
            kinds.add((s.rational is None, t.rational is None, s == t))
        for _ in range(12):
            p = (r.randint(-6, 6), r.randint(-20, 20), r.randint(-40, 40))
            assert s.sign_at(*p) == _bisection_sign_at(s, *p), (s.key(), p)
    # rational and irrational on either side, and equal irrationals
    assert kinds >= {(False, True, False), (True, False, False),
                     (True, True, False), (True, True, True)}


# -- the integer key and the root-counting engine -----------------------------


def test_floor64_is_a_monotone_integer_key():
    """floor64 brackets each time between two multiples of 2^-64, checked by
    exact comparisons with rational times, and never inverts the exact
    order.  Two convergents of sqrt 2 with denominators above 2^33 share
    its key, one on each side, and the exact order still separates them."""
    r = rng(19)
    times = _times(r, 160)
    for t in times:
        key = t.floor64()
        lo = AlgebraicTime.from_rational(Q(key, 1 << 64))
        hi = AlgebraicTime.from_rational(Q(key + 1, 1 << 64))
        assert not t < lo and t < hi, t.key()
        for s in r.sample(times, 24):
            if s < t:
                assert s.floor64() <= t.floor64(), (s.key(), t.key())
    root = AlgebraicTime.quadratic_roots(1, 0, -2)[1][0]
    below = AlgebraicTime.from_rational(Q(63018038201, 44560482149))
    above = AlgebraicTime.from_rational(Q(26102926097, 18457556052))
    assert below.rational.denominator > 1 << 33 < above.rational.denominator
    assert below.floor64() == root.floor64() == above.floor64()
    ordered = sorted([above, root, below], key=lambda t: (t.floor64(), t))
    assert ordered == [below, root, above]


def test_wall_event_keys_at_the_ends_and_on_a_tie():
    """Legs built around the key's resolution of 2^-64.  The orientation
    quadratic 2^140 (t - 1)^2 - 2 has roots 1 -+ sqrt(2) 2^-70, keys 2^64 - 1
    and 2^64: only the lower one is an event.  2^140 t^2 - 2 has roots
    -+sqrt(2) 2^-70, keys -1 and 0: only the upper one is.  On the third
    leg a horizontality at a convergent of sqrt(2) - 1 with a denominator
    above 2^33 shares its key with the collinearity at sqrt(2) - 1 and is
    appended first, yet comes second in the exact order."""
    big = 1 << 140
    near_one = segment_wall_events(
        config((0, 0), (-2, -5), (2 - big, 6 - 3 * big)),
        config((0, 0), (-1, -2), (2 - big, 6 - 2 * big)),
    )
    near_zero = segment_wall_events(
        config((0, 0), (0, 1), (2, 6)), config((0, 0), (1, 4), (2, big + 6)),
    )
    assert [e.time.floor64() for e in near_one] == [(1 << 64) - 1]
    assert [e.time.floor64() for e in near_zero] == [0]
    p, q = 7645370045, 18457556052
    assert q > 1 << 33
    events = segment_wall_events(
        config((0, 0), (1, 5), (1, 4), (-50, -10), (-60, p - 10)),
        config((0, 0), (2, 8), (1, 5), (-50, -10), (-60, p - q - 10)),
    )
    names = [_name(e) for e in events]
    at = names.index("D(0,2,1)")
    assert names[at + 1] == "D(3,4)" and events[at + 1].time.rational == Q(p, q)
    assert events[at].time.floor64() == events[at + 1].time.floor64()
    assert str(events[at].time) == "(-2 + sqrt(8))/2"
    assert all(e.time < f.time for e, f in zip(events, events[1:]))


def _per_root_wall_events(A0: Config, A1: Config):
    """Oracle: the engine that isolated every real root of every triple,
    kept those in (0, 1) by two exact signs, tested all three apexes of a
    collinearity and sorted the events with the exact comparison alone."""
    n = len(A0)
    leg = _integer_leg(A0, A1)
    triples = list(itertools.combinations(range(n), 3))
    quads = [_leg_quadratic(leg, _cross, i, j, k) for i, j, k in triples]
    if not (
        all(c and a + b + c for a, b, c in quads)
        and len({y for _, y, _, _ in leg}) == n
        and len({y + dy for _, y, _, dy in leg}) == n
    ):
        raise PathNotGeneric(
            "endpoints must be in general position including horizontal infinity"
        )
    events = []
    for i, j in itertools.combinations(range(n), 2):
        (xi, yi, dxi, dyi), (xj, yj, dxj, dyj) = leg[i], leg[j]
        d0 = yj - yi
        d1 = d0 + dyj - dyi
        if (d0 > 0) == (d1 > 0):
            continue
        e0 = xj - xi
        re_diff = (d0 * (e0 + dxj - dxi) - d1 * e0) * (d0 - d1)
        if re_diff == 0:
            raise PathNotGeneric(f"points {i} and {j} collide on the leg")
        events.append(CrossingSpec(
            "horiz", i, j, motion="above" if d1 > d0 else "below",
            re_cmp="left" if re_diff < 0 else "right",
            time=AlgebraicTime.from_rational(Q(d0, d0 - d1)),
        ))
    for (i, j, k), (a, b, c) in zip(triples, quads):
        if a == 0 and b == 0:
            continue
        if a == 0:
            roots = [(AlgebraicTime.from_rational(Q(-c, b)), 1)]
        else:
            roots = AlgebraicTime.quadratic_roots(a, b, c)
        for root, mult in roots:
            if not in_open_unit_interval(root):
                continue
            if mult == 2:
                raise PathNotGeneric(f"tangential collinearity of ({i},{j},{k})")
            events.append(_three_apex_event(leg, i, j, k, a, b, root))
    events.sort(key=lambda e: e.time)
    for e, f in zip(events, events[1:]):
        if not e.time < f.time:
            raise PathNotGeneric(
                f"coincident event times for {_name(e)} and {_name(f)}"
            )
    return events


def _three_apex_event(leg, i, j, k, a, b, root):
    """Oracle: the collinearity crossing at root, its middle point found
    from the signs of the dot products at all three apexes."""
    eps = -root.sign_at(0, 2 * a, b)
    acute = {
        m: root.sign_at(*_leg_quadratic(leg, _dot, m, p, q)) > 0
        for m, p, q in ((i, j, k), (j, i, k), (k, i, j))
    }
    for lo, mid, hi, parity in ((i, j, k, 1), (j, i, k, -1), (i, k, j, -1)):
        if acute[lo] and acute[hi]:
            return CrossingSpec("coll", lo, mid, hi, eps_before=parity * eps, time=root)
    raise PathNotGeneric(f"collinearity of ({i},{j},{k}) with no point in the open segment")


def _outcome(engine, A0, A1):
    """The events with their times, or the error text."""
    try:
        return [(e, e.time) for e in engine(A0, A1)]
    except PathNotGeneric as err:
        return str(err)


def _oracle_leg(r):
    """Two random configurations with distinct heights; one leg in eight
    has the tangency triple of the rejected legs above, translated, in
    place of its first three points."""
    n = r.randint(3, 6)
    A0, A1 = (rand_config(r, n, require_strong=False, box=4, extra_dirs=(Z_RIGHT,))
              for _ in range(2))
    if r.randrange(8):
        return A0, A1
    dx, dy = r.randint(-4, 4), r.randint(-4, 4)
    tangent = ([(1, 0), (-1, 3), (0, -3)], [(-2, 0), (-1, -1), (-2, 1)])
    try:
        return tuple(
            Config([pt(x + dx, y + dy) for x, y in tri] + list(A)[3:])
            for A, tri in zip((A0, A1), tangent)
        )
    except InvalidInput:  # a translated point met a drawn one
        return A0, A1


def test_root_counting_engine_matches_the_per_root_oracle():
    """On 200 seeded legs between configurations of small rationals, the engine
    returns the oracle's events in the oracle's order, with equal times, or
    raises its error.  The legs meet rational and irrational times, both
    signs of the leading coefficient, tangency, coincident times, colliding
    points and endpoints out of general position."""
    r = rng(1906)
    seen = set()
    for _ in range(200):
        A0, A1 = _oracle_leg(r)
        got = _outcome(segment_wall_events, A0, A1)
        assert got == _outcome(_per_root_wall_events, A0, A1), (A0, A1)
        if isinstance(got, str):
            seen.add(got.split(" ")[0])
            continue
        leg = _integer_leg(A0, A1)
        for e, t in got:
            if e.kind == "coll":
                a = _leg_quadratic(leg, _cross, *sorted((e.i, e.j, e.k)))[0]
                seen.add(("rational" if t.rational is not None else "irrational",
                          (a > 0) - (a < 0)))
    assert seen >= {
        ("rational", 0), ("rational", 1), ("rational", -1),
        ("irrational", 1), ("irrational", -1),
        "tangential", "coincident", "points", "endpoints",
    }, seen
