"""lp.maximize against the plain Fraction-tableau simplex it replaced.

The oracle below is that simplex as it was, raising `lp.Unbounded`: Bland's
rule, ratio ties broken by the least basis index.  The integer-row simplex must follow the
same pivot path, so (value, x) must agree exactly, down to the witness a
regularity LP returns.
"""

from fractions import Fraction

import pytest

from infrared import lp
from infrared.randomgen import rng
from infrared.secondary import enumerate_subdivisions, is_regular

from test_secondary import CIRCUIT_A, CIRCUIT_B, concentric_triangles, convex_gon

Q = Fraction


def oracle_maximize(c, a_rows, b):
    """max c.x subject to A x <= b (x free, all b >= 0); returns (value, x)."""
    if any(Q(v) < 0 for v in b):
        raise ValueError("right-hand sides must be nonnegative")
    nfree = len(c)
    nrows = len(a_rows)
    ncols = 2 * nfree + nrows

    tab: list[list[Fraction]] = []
    for r in range(nrows):
        row = [Q(a_rows[r][i]) for i in range(nfree)]
        row += [-Q(a_rows[r][i]) for i in range(nfree)]
        row += [Q(1) if s == r else Q(0) for s in range(nrows)]
        row.append(Q(b[r]))
        tab.append(row)
    basis = list(range(2 * nfree, 2 * nfree + nrows))

    obj = [Q(c[i]) for i in range(nfree)]
    obj += [-Q(c[i]) for i in range(nfree)]
    obj += [Q(0)] * nrows + [Q(0)]
    tab.append(obj)

    while True:
        objrow = tab[-1]
        col = next((j for j in range(ncols) if objrow[j] > 0), None)
        if col is None:
            break
        pivot = None
        for r in range(nrows):
            if tab[r][col] > 0:
                ratio = tab[r][-1] / tab[r][col]
                if pivot is None or (ratio, basis[r]) < (pivot[0], basis[pivot[1]]):
                    pivot = (ratio, r)
        if pivot is None:
            raise lp.Unbounded()
        row = pivot[1]
        pv = tab[row][col]
        tab[row] = [x / pv for x in tab[row]]
        for r in range(nrows + 1):
            if r != row and tab[r][col] != 0:
                f = tab[r][col]
                tab[r] = [a - f * bb for a, bb in zip(tab[r], tab[row])]
        basis[row] = col

    value = -tab[-1][-1]
    split = [Q(0)] * (2 * nfree)
    for r in range(nrows):
        if basis[r] < 2 * nfree:
            split[basis[r]] = tab[r][-1]
    x = [split[i] - split[nfree + i] for i in range(nfree)]
    return value, x


def solve_both(c, rows, b):
    """Both solvers' (value, x), or the exception type each raised."""
    out = []
    for solve in (oracle_maximize, lp.maximize):
        try:
            out.append(solve(c, rows, b))
        except lp.Unbounded as exc:
            out.append(type(exc))
    return out


def assert_same(c, rows, b):
    want, got = solve_both(c, rows, b)
    assert got == want
    if want is not lp.Unbounded:
        value, x = got
        assert type(value) is Fraction and all(type(v) is Fraction for v in x)


def regularity_lps(monkeypatch, A):
    """Every LP that is_regular builds over the subdivisions of A."""
    seen = []
    solve = lp.maximize

    def record(c, rows, b):
        seen.append((c, rows, b))
        return solve(c, rows, b)

    monkeypatch.setattr(lp, "maximize", record)
    for sub in enumerate_subdivisions(A):
        is_regular(A, sub)
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize(
    "A, irregular",
    [(CIRCUIT_A, False), (CIRCUIT_B, False), (convex_gon(5), False),
     (concentric_triangles()[0], True)],
    ids=["circuit-a", "circuit-b", "pentagon", "nested-triangles"],
)
def test_regularity_lps_match_the_oracle(monkeypatch, A, irregular):
    lps = regularity_lps(monkeypatch, A)
    for c, rows, b in lps:
        assert_same(c, rows, b)
    # an irregular subdivision's LP ends at a non-positive slack
    slacks = {lp.maximize(c, rows, b)[0] > 0 for c, rows, b in lps}
    assert slacks == ({True, False} if irregular else {True})


def random_lp(r, box: bool):
    """A small LP with mostly zero right-hand sides, so that the ratio test
    ties often; with `box`, -1 <= x_i <= 1 keeps it bounded."""
    nfree, nrows = r.randint(1, 4), r.randint(1, 6)

    def frac():
        return Q(r.randint(-3, 3), r.randint(1, 3))

    c = [frac() for _ in range(nfree)]
    rows = [[frac() for _ in range(nfree)] for _ in range(nrows)]
    b = [Q(0) if r.random() < 0.6 else Q(r.randint(1, 4), r.randint(1, 2))
         for _ in range(nrows)]
    if box:
        for i in range(nfree):
            for s in (1, -1):
                rows.append([Q(s) if j == i else Q(0) for j in range(nfree)])
                b.append(Q(1))
    return c, rows, b


def test_random_degenerate_lps_match_the_oracle():
    r = rng(7)
    outcomes = set()
    for k in range(300):
        c, rows, b = random_lp(r, box=k % 2 == 0)
        want, got = solve_both(c, rows, b)
        assert got == want, (k, c, rows, b)
        outcomes.add(want is lp.Unbounded)
    assert outcomes == {True, False}


def test_ratio_ties_go_to_the_least_basis_index():
    # Three rows tie at ratio 0 on the first pivots.  Breaking ties towards
    # the greatest basis index instead ends at the same value with
    # x = (-1, -1, -2/3, 1).
    c = [Q(-3, 2), Q(-3), Q(0), Q(3, 2)]
    rows = [
        [Q(1, 3), Q(1), Q(-2), Q(0)],
        [Q(3), Q(1, 2), Q(-1), Q(1)],
        [Q(-3, 2), Q(-2), Q(1), Q(-3)],
    ]
    b = [Q(0)] * 3
    for i in range(4):
        for s in (1, -1):
            rows.append([Q(s) if j == i else Q(0) for j in range(4)])
            b.append(Q(1))
    assert_same(c, rows, b)
    assert lp.maximize(c, rows, b) == (Q(6), [Q(-1), Q(-1), Q(-1, 2), Q(1)])


def test_accepts_ints_and_rational_strings():
    c, rows, b = [1, "1/2"], [[1, 0], [0, "2"], ["-1", "-1"]], [3, "1", 0]
    assert_same(c, rows, b)
    assert lp.maximize(c, rows, b) == (Q(13, 4), [Q(3), Q(1, 2)])


def test_unbounded():
    # max x subject to -x <= 0 only
    with pytest.raises(lp.Unbounded):
        lp.maximize([Q(1)], [[Q(-1)]], [Q(0)])
    # bounded in x, unbounded in y
    with pytest.raises(lp.Unbounded):
        lp.maximize([Q(0), Q(1)], [[Q(1), Q(0)], [Q(-1), Q(0)]], [Q(1), Q(1)])


def test_negative_right_hand_side_is_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        lp.maximize([Q(1)], [[Q(1)], [Q(-1)]], [Q(1), Q(-1, 2)])
