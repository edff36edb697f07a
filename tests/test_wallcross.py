from fractions import Fraction as Q

import pytest

from infrared.checksuite import IDENTITIES
from infrared.errors import InvalidInput, PathNotGeneric
from infrared.geometry import Dir, _integer_leg, config, segment_wall_events
from infrared.linalg import MatQ
from infrared.perverse import TransportData, braid_act_transport
from infrared.fourier import dressed_transport, global_monodromy, stokes_pair
from infrared.randomgen import rand_config, rand_transport, rng
from infrared.wallcross import (
    CrossingSpec,
    apply_crossings,
    transport_along_path,
)
from test_geometry import _cross, _leg_quadratic
from test_perverse import local_monodromy

Z0 = Dir(Q(-1), Q(0))
Z_RIGHT = Dir(Q(1), Q(0))


def crossing_by_replace(m, spec):
    """Oracle: one crossing as its own `TransportData`, its two changed
    blocks swapped in by `replace`, which checks them, with T = Id - m_kk
    formed and inverted and the collinearity product formed: m_ij T and
    T^{-1} m_ji for w_j above, left of w_i (T = T_i), the inverse factors
    below, and T m_ij, m_ji T^{-1} on the right (T = T_j); m_ik - eps m_jk
    m_ij and m_ki + eps m_ji m_kj."""
    i, j, g = spec.i, spec.j, m.m
    if spec.kind == "horiz":
        left = spec.re_cmp == "left"
        t = local_monodromy(m, i if left else j)
        a, b = (t, t.inverse()) if spec.motion == "above" else (t.inverse(), t)
        if left:
            return m.replace({(i, j): g[i][j] @ a, (j, i): b @ g[j][i]})
        return m.replace({(i, j): a @ g[i][j], (j, i): g[j][i] @ b})
    k, eps = spec.k, spec.eps_before
    return m.replace({
        (i, k): g[i][k] - (g[j][k] @ g[i][j]).scale(eps),
        (k, i): g[k][i] + (g[j][i] @ g[k][j]).scale(eps),
    })


def scalar(x):
    return MatQ([[x]])


def transport_along_waypoints(m, configs):
    """Multi-leg transport: consecutive configurations are straight legs;
    returns the new data and the concatenated event log."""
    log = []
    for a0, a1 in zip(configs, configs[1:]):
        m, specs = transport_along_path(m, a0, a1)
        log.extend(specs)
    return m, log


def scalar_transport(entries):
    n = len(entries)
    return TransportData([1] * n, [[scalar(entries[i][j]) for j in range(n)] for i in range(n)])


def test_horizontality_cases():
    m = scalar_transport([[6, 1], [2, 0]])  # T_0 = -5, T_1 = 1
    spec = CrossingSpec("horiz", 0, 1, motion="above", re_cmp="left")
    out = apply_crossings(m, [spec])
    assert out.m[0][1] == scalar(-5)       # m_01 T_0
    assert out.m[1][0] == scalar(Q(-2, 5))  # T_0^{-1} m_10
    assert out.m[0][0] == m.m[0][0] and out.m[1][1] == m.m[1][1]
    # zero transport entry stays zero
    z = scalar_transport([[6, 0], [0, 0]])
    assert apply_crossings(z, [spec]).m[0][1].is_zero()


def test_horizontality_recross_restores():
    """The registry's crossing entry, which crosses each wall and back in one
    fold and in two, on the horizontality walls of (0, 2), w_2 left and
    right of w_0, for the transport data of seed 41."""
    m = rand_transport(rng(41), 3, max_dim=2)
    assert IDENTITIES["wallcross_involutive"].holds(transport=m, events=[
        CrossingSpec("horiz", 0, 2, motion="above", re_cmp=side) for side in ("left", "right")])


def test_collinearity_update_and_recross():
    m = scalar_transport([[0, 3, 1], [0, 0, 2], [0, 0, 0]])
    spec = CrossingSpec("coll", 0, 1, 2, eps_before=-1)
    out = apply_crossings(m, [spec])
    # m'_02 = m_02 - eps m_12 m_01 = 1 + 2*3 = 7
    assert out.m[0][2] == scalar(7)
    assert out.m[1][2] == m.m[1][2] and out.m[0][1] == m.m[0][1]
    back = CrossingSpec("coll", 0, 1, 2, eps_before=1)
    assert apply_crossings(out, [back]) == m


def test_crossing_spec_validation():
    with pytest.raises(InvalidInput):
        CrossingSpec("horiz", 0, 0, motion="above", re_cmp="left")
    with pytest.raises(InvalidInput):
        CrossingSpec("coll", 0, 1, 1, eps_before=1)
    with pytest.raises(InvalidInput):
        CrossingSpec("coll", 0, 1, 2, eps_before=0)
    # every check, by its message, the first failing one where several fail
    horiz = dict(motion="above", re_cmp="left")
    cases = [
        (("cross", 0, 1), {}, "kind must be 'horiz' or 'coll'"),
        (("horiz", 0, 1), dict(motion="up", re_cmp="left"), "needs motion above|below"),
        (("horiz", 0, 1), dict(motion="below", re_cmp="middle"), "needs re_cmp left|right"),
        (("horiz", 2, 2), horiz, "indices must differ"),
        (("horiz", True, 1), horiz, "indices must differ"),
        (("coll", 0, 1, 0), dict(eps_before=1), "three distinct indices"),
        (("coll", 0, 2, 2), dict(eps_before=0), "three distinct indices"),
        (("coll", 0, 1, 2), dict(eps_before=True), "the integer 1 or -1"),
        (("coll", 0, 1, 2), dict(eps_before=2), "the integer 1 or -1"),
        (("horiz", -1, 1), horiz, "nonnegative integers"),
        (("horiz", 0, True), horiz, "nonnegative integers"),
        (("horiz", 0, 1.0), horiz, "nonnegative integers"),
        (("coll", 0, 1, -2), dict(eps_before=-1), "nonnegative integers"),
        (("coll", False, 1, 2), dict(eps_before=1), "nonnegative integers"),
        (("coll", 0, "1", 2), dict(eps_before=1), "nonnegative integers"),
        (("coll", [0], 1, 2), dict(eps_before=1), "nonnegative integers"),
    ]
    for args, kwargs, message in cases:
        with pytest.raises(InvalidInput, match=message.replace("|", r"\|")):
            CrossingSpec(*args, **kwargs)
    # a horizontality has no third point, so its k is not checked
    assert CrossingSpec("horiz", 1, 0, k="x", **horiz).k == "x"


def test_transport_along_constant_path():
    A = config((0, 0), (3, 1), (1, 2))
    r = rng(42)
    m = rand_transport(r, 3, max_dim=2)
    out, log = transport_along_path(m, A, A)
    assert out == m and log == []


def test_transport_single_collinearity_leg():
    a0 = config((-4, -2), (-1, 2), (4, "5/2"))
    a1 = config((-4, -2), (0, -3), (4, "5/2"))
    r = rng(43)
    m = rand_transport(r, 3, max_dim=2)
    out, log = transport_along_path(m, a0, a1)
    mm = m
    for spec in log:
        mm = apply_crossings(mm, [spec])
    assert out == mm
    colls = [s for s in log if s.kind == "coll"]
    assert len(colls) == 1
    single = apply_crossings(m, [colls[0]])
    # the only other event is a horizontality touching m_01/m_10
    assert out.m[0][2] == single.m[0][2]
    assert out.m[2][0] == single.m[2][0]


def test_the_fold_matches_the_per_crossing_oracle_on_engine_legs():
    """On 50 seeded legs of `segment_wall_events` (N = 3-8, blocks of size
    1-3), run out and back, `apply_crossings` on one grid equals the
    per-crossing `replace` route of `crossing_by_replace` and carries the
    inverses of the data it folds, and the way back restores the data
    exactly.  Half the legs move every point, half one point, so the legs
    meet horizontality walls and collinearity walls at rational and at
    irrational times."""
    r = rng(50)
    met = set()
    legs = 0
    while legs < 50:
        n = 3 + legs // 2 % 6
        a0 = rand_config(r, n, require_strong=False, extra_dirs=(Z_RIGHT,))
        if legs % 2:
            a1 = rand_config(r, n, require_strong=False, extra_dirs=(Z_RIGHT,))
        else:
            k = r.randrange(n)
            pts = [(p.x, p.y) for p in a0.points]
            pts[k] = (pts[k][0] + Q(r.randint(-12, 12), 2), pts[k][1] + Q(r.randint(-12, 12), 2))
            try:
                a1 = config(*pts)
            except InvalidInput:
                continue
        try:
            fwd = segment_wall_events(a0, a1)
        except PathNotGeneric:
            continue
        back = segment_wall_events(a1, a0)
        m = rand_transport(r, n, max_dim=3)
        out = apply_crossings(m, fwd)
        for start, specs, end in ((m, fwd, out), (out, back, m)):
            oracle = start
            for spec in specs:
                oracle = crossing_by_replace(oracle, spec)
            assert apply_crossings(start, specs) == oracle == end
            assert [end.local_monodromy_inverse(i) for i in range(n)] == [
                local_monodromy(end, i).inverse() for i in range(n)]
        met |= {(e.kind, e.time.rational is not None) for e in fwd + back}
        legs += 1
    assert met == {("horiz", True), ("coll", True), ("coll", False)}


def test_walk_leg_reads_the_stored_inverses(inverse_calls):
    a0 = config((-4, -2), (-1, 2), (4, "5/2"))
    a1 = config((-4, -2), (0, -3), (4, "5/2"))
    m = rand_transport(rng(49), 3, max_dim=3)
    inverse_calls.clear()
    out, log = transport_along_path(m, a0, a1)
    assert "horiz" in [s.kind for s in log]
    assert inverse_calls == []
    # the carried inverses stay those of the data they travel with
    for data in (
        out, braid_act_transport(out, 1), braid_act_transport(out, -2),
        out.permuted([2, 0, 1]),
    ):
        for i in range(data.n):
            assert data.local_monodromy_inverse(i) == local_monodromy(data, i).inverse()



def test_out_and_back_restores():
    """The registry's leg entry on the draws of seed 44: six legs at N = 3
    or 4, each walked out and back to the same data."""
    entry = IDENTITIES["isomonodromy_legs"]
    r = rng(44)
    for _ in range(6):
        assert entry(r, r.choice((3, 4)), 2) is None


def test_stokes_blocks_invariant_under_collinearity():
    """Crossing a collinearity wall re-sums the convex paths in the new
    chamber to exactly the same block values (far transports are isotopy
    invariants): the registry's leg entry on the first eight legs of seed
    45 that meet collinearity walls only."""
    entry = IDENTITIES["isomonodromy_legs"]
    r = rng(45)
    count = 0
    while count < 8:
        parts = entry.draw(r, r.choice((3, 4)), 2)
        if all(e.kind == "coll" for e in segment_wall_events(parts["config"], parts["target"])):
            assert entry.holds(**parts)
            count += 1


def test_isomonodromy_two_movers_irrational_negative_leading():
    """Points 1 and 2 both move, so the orientation polynomial of (0, 1, 2)
    is quadratic; its leading coefficient is negative and the one wall is
    met at an irrational time."""
    a0 = config((1, 1), (4, 6), (-1, -6))
    a1 = config((1, 1), (-2, 3), (0, -1))
    events = segment_wall_events(a0, a1)
    assert [e.kind for e in events] == ["coll"]
    assert events[0].time.rational is None
    a, _, _ = _leg_quadratic(_integer_leg(a0, a1), _cross, 0, 1, 2)
    assert a < 0
    r = rng(61)
    for _ in range(3):
        m0 = rand_transport(r, 3, max_dim=2)
        m1, _ = transport_along_path(m0, a0, a1)
        p0 = stokes_pair(m0, a0, Z0)
        p1 = stokes_pair(m1, a1, Z0)
        assert p0.order == p1.order
        assert p0.c_plus == p1.c_plus
        assert p0.c_minus == p1.c_minus
        assert global_monodromy(m0, a0, Z0) == global_monodromy(m1, a1, Z0)


def test_dressed_transport_invariance():
    # point 1 crosses the segment [0, 2] without any horizontality event
    a0 = config((-4, -2), (-1, 2), (4, "5/2"))
    a1 = config((-4, -2), (0, -1), (4, "5/2"))
    events = segment_wall_events(a0, a1)
    assert [e.kind for e in events] == ["coll"]
    r = rng(46)
    m0 = rand_transport(r, 3, max_dim=2)
    m1, _ = transport_along_path(m0, a0, a1)
    d0, _ = dressed_transport(m0, a0, Z0)
    d1, _ = dressed_transport(m1, a1, Z0)
    assert d0 == d1


def test_chamber_independence_of_the_fold():
    """Two different generic legs crossing the same wall produce the same
    crossing spec (times differ, the recorded data does not), hence
    identical folds."""
    a0 = config((-4, -2), (-1, 2), (4, "5/2"))
    fast = config((-4, -2), (0, -1), (4, "5/2"))
    slow = config((-4, -2), ("1/3", "-1/2"), (4, "5/2"))
    ev_fast = segment_wall_events(a0, fast)
    ev_slow = segment_wall_events(a0, slow)
    assert ev_fast == ev_slow
    r = rng(49)
    m = rand_transport(r, 3, max_dim=2)
    out1, _ = transport_along_path(m, a0, fast)
    out2, _ = transport_along_path(m, a0, slow)
    assert out1 == out2


def test_pure_braid_two_strands():
    """A full exchange loop of two points equals the squared braid
    generator on the nose: counterclockwise orbit = tau^2, clockwise =
    tau^{-2}."""
    from infrared.perverse import braid_act_word

    r = rng(47)
    cw_loop = [
        config((0, 0), (3, 1)), config((0, 0), (3, -1)),
        config((0, 0), (-3, -1)), config((0, 0), (-3, 1)),
        config((0, 0), (3, 1)),
    ]
    ccw_loop = list(reversed(cw_loop))

    for _ in range(6):
        m = rand_transport(r, 2, max_dim=2)
        out_cw, _ = transport_along_waypoints(m, cw_loop)
        out_ccw, _ = transport_along_waypoints(m, ccw_loop)
        assert out_cw == braid_act_word(m, [-1, -1])
        assert out_ccw == braid_act_word(m, [1, 1])


def test_three_point_loop_braid_square():
    """Orbiting point 1 around point 0 with a spectator: on the far-path
    dressed data the fold agrees with tau_1^{-2} on every entry of the
    orbiting pair and on the descending routes out of the spectator.

    The ascending routes into the spectator pick up arm-normalization
    bookkeeping that the localized model does not fix canonically (the
    same half-monodromy ambiguity as for transport-level duality), so
    they are exempt from the comparison.
    """
    from infrared.fourier import dressed_transport
    from infrared.perverse import braid_act_word

    spect = (8, 5)
    A0 = config((0, 0), (3, 1), spect)
    loop = [
        A0, config((0, 0), (3, -1), spect), config((0, 0), (-3, -1), spect),
        config((0, 0), (-3, 1), spect), A0,
    ]
    r = rng(48)
    for _ in range(5):
        m = rand_transport(r, 3, max_dim=2)
        out, log = transport_along_waypoints(m, loop)
        assert [s.kind for s in log] == ["horiz", "coll", "horiz", "coll"]
        d0, _ = dressed_transport(m, A0, Z0)
        d1, order = dressed_transport(out, A0, Z0)
        braided = braid_act_word(d0, [-1, -1])
        for s, t in ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)):
            assert d1.m[s][t] == braided.m[s][t]
