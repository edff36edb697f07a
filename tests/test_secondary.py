import gc
import hashlib
import itertools
import json
import operator
import os
from fractions import Fraction as Q

import pytest

from infrared import checksuite, lp, secondary
from infrared.errors import DegeneratePosition, EnumerationLimit, InvalidInput
from infrared.cli import main
from infrared.geometry import (
    Config, Dir, area2, config, convex_hull, direction, general_position, infinity_order,
    orient, pt)
from infrared.linalg import MatQ, int_kernel, int_rank
from infrared.paths import enumerate_zeta_convex_paths
from infrared.secondary import (
    Cell,
    _canon_cycle,
    _lift_rows,
    _point_in_polygon,
    Subdivision,
    coarse_subdivisions,
    content,
    deformation_complex,
    enumerate_subdivisions,
    enumerate_triangulations,
    framing,
    gkz_vector,
    induced_subdivision,
    is_regular,
    parallel_deformations,
    refinement_poset,
    refines,
    secondary_fan,
)
from infrared.randomgen import rand_config, rng
from test_checksuite import run_tier1
from test_geometry import tie_prone_draws
from test_kernels import BIG, PRIMES

CIRCUIT_A = config((0, 0), (3, 0), (4, 3), (-1, 2))
CIRCUIT_B = config((0, 0), (4, 0), (1, 3), ("3/2", 1))


def catalan(n):
    from math import comb

    return comb(2 * n, n) // (n + 1)


def convex_gon(n):
    # convex position, generic slopes: points on a parabola-like arc
    pts = []
    for k in range(n):
        x = Q(k)
        pts.append((x, x * x + Q(1, k + 2)))
    return config(*pts)


def test_trivial_subdivision_regular():
    A = CIRCUIT_B
    triv = Subdivision(A, [Cell((0, 1, 2), frozenset((0, 1, 2, 3)))])
    wit = is_regular(A, triv)
    assert wit is not None
    rep = deformation_complex(A, triv)
    assert rep.h0 == 3 and rep.exc == 0 and rep.codim == 0


def test_circuit_a_two_triangulations():
    tris = enumerate_triangulations(CIRCUIT_A)
    assert len(tris) == 2
    assert all(is_regular(CIRCUIT_A, t) is not None for t in tris)


def test_circuit_b_two_triangulations():
    tris = enumerate_triangulations(CIRCUIT_B)
    assert len(tris) == 2
    kinds = sorted(len(t.cells) for t in tris)
    assert kinds == [1, 3]  # single marked triangle + the 3-split
    assert all(is_regular(CIRCUIT_B, t) is not None for t in tris)
    single = next(t for t in tris if len(t.cells) == 1)
    assert single.omitted == frozenset((3,))


def test_circuit_b_codims():
    # 3-triangle split: 9 - 6 + 1 - 3 + 0 = 1
    tris = enumerate_triangulations(CIRCUIT_B)
    split = next(t for t in tris if len(t.cells) == 3)
    rep = deformation_complex(CIRCUIT_B, split)
    assert (rep.n_cells, rep.n_interior_edges, rep.n_interior_vertices) == (3, 3, 1)
    assert rep.exc == 0 and rep.h2 == 0
    assert rep.codim == 3 * 3 - 2 * 3 + 1 - 3 + rep.exc == 1
    assert len(coarse_subdivisions(CIRCUIT_B)) == 2


def test_induced_subdivision_examples():
    flat = induced_subdivision(CIRCUIT_B, [0, 0, 0, 0])
    assert len(flat.cells) == 1 and flat.omitted == frozenset()
    assert flat.cells[0].marked == frozenset((0, 1, 2, 3))
    high = induced_subdivision(CIRCUIT_B, [0, 0, 0, 5])
    assert len(high.cells) == 1 and high.omitted == frozenset((3,))
    # square with one lifted corner: the lifted corner is cut off
    sq = config((0, 0), (2, 0), (2, 2), (0, 2))
    cut = induced_subdivision(sq, [0, 0, 0, 1])
    assert len(cut.cells) == 2
    assert all(len(c.polygon) == 3 for c in cut.cells)
    shared = set(cut.cells[0].polygon) & set(cut.cells[1].polygon)
    assert shared == {0, 2}  # the diagonal avoiding the lifted corner 3


def test_regularity_witness_round_trip():
    r = rng(61)
    for A in (CIRCUIT_A, CIRCUIT_B, convex_gon(5)):
        for sub in enumerate_subdivisions(A):
            wit = is_regular(A, sub)
            if wit is None:
                continue
            assert wit.slack > 0
            assert induced_subdivision(A, wit.psi) == sub


def test_pentagon_catalan_and_poset():
    pent = convex_gon(5)
    tris = enumerate_triangulations(pent)
    assert len(tris) == catalan(3)
    assert all(is_regular(pent, t) is not None for t in tris)
    subs = enumerate_subdivisions(pent)
    regs = [s for s in subs if is_regular(pent, s) is not None]
    assert len(regs) == 11  # faces of the associahedron K4: 5 + 5 + 1
    poset = refinement_poset(regs, [deformation_complex(pent, s).codim for s in regs])
    assert poset["height"] == 2
    assert len(poset["covers"]) == 15  # 2 diagonals per triangulation, 5 to the cell
    assert len(coarse_subdivisions(pent)) == 5


def test_hexagon_catalan():
    hexa = convex_gon(6)
    tris = enumerate_triangulations(hexa)
    assert len(tris) == catalan(4)
    assert all(is_regular(hexa, t) is not None for t in tris)


def test_enumeration_bound(monkeypatch):
    monkeypatch.setenv("INFRARED_MAX_N", "4")
    with pytest.raises(EnumerationLimit):
        enumerate_triangulations(convex_gon(5))


def concentric_triangles():
    outer = [(-4, -3), (4, -3), (0, 4)]
    lam = Q(1, 2)
    inner = [(Q(x) * lam, Q(y) * lam) for x, y in outer]
    A = config(*outer, *inner)
    cells = [
        Cell((3, 4, 5), frozenset((3, 4, 5))),
        Cell((0, 1, 4, 3), frozenset((0, 1, 4, 3))),
        Cell((1, 2, 5, 4), frozenset((1, 2, 5, 4))),
        Cell((2, 0, 3, 5), frozenset((2, 0, 3, 5))),
    ]
    return A, Subdivision(A, cells)


def test_concentric_triangles_exceptional():
    A, sub = concentric_triangles()
    rep = deformation_complex(A, sub)
    assert rep.exc == 1 and rep.h2 == 0
    assert is_regular(A, sub) is not None
    basis = parallel_deformations(A, sub)
    assert len(basis) == 1
    # the kernel vector is the radial rescaling of the inner triangle
    vec = basis[0]
    inner = sub.interior_vertices()
    ratios = set()
    for t, w in enumerate(inner):
        vx, vy = vec[2 * t], vec[2 * t + 1]
        px, py = A[w].x, A[w].y
        assert vx * py == vy * px  # parallel to the position vector
        if px:
            ratios.add(vx / px)
        else:
            ratios.add(vy / py)
    assert len(ratios) == 1
    assert sub in enumerate_subdivisions(A)


def test_exc_equals_parallel_dim_everywhere():
    r = rng(62)
    A, _ = concentric_triangles()
    for sub in enumerate_subdivisions(A):
        rep = deformation_complex(A, sub)
        assert rep.h2 == 0
        assert len(parallel_deformations(A, sub)) == rep.exc


def cooriented_complex(A, sub):
    """The deformation complex from its differentials, as `deformation_complex`
    built it before it read the equality lift rows: d0 takes the affine
    functions {1, x, y} on the cells to their values at the endpoints of
    each interior edge, signed by whether the cell's ccw boundary runs along
    the edge from its lower to its higher index; d1 takes the edge functions
    to the interior vertices, +1 at the head and -1 at the tail.  Checks
    d1 d0 = 0 and returns the report with h0, exc and h2 from the integer
    ranks of d0 and d1."""
    cells = sub.cells
    edges = sub.interior_edges()
    verts = sub.interior_vertices()
    edge_ix = {e: t for t, e in enumerate(edges)}
    vert_ix = {v: t for t, v in enumerate(verts)}
    # every coordinate times a common denominator `den`
    pts, den = A.int_points()
    d0 = [[0] * (3 * len(cells)) for _ in range(2 * len(edges))]
    for ci, cell in enumerate(cells):
        poly = cell.polygon
        for a, b in zip(poly, poly[1:] + poly[:1]):
            e = frozenset((a, b))
            if e not in edge_ix:
                continue
            lo, hi = sorted(e)
            sign = 1 if (a, b) == (lo, hi) else -1
            row0 = 2 * edge_ix[e]
            for t, w in enumerate((lo, hi)):
                for k, coef in enumerate((den, *pts[w])):
                    d0[row0 + t][3 * ci + k] += sign * coef
    d1 = [[0] * (2 * len(edges)) for _ in range(len(verts))]
    for e, t in edge_ix.items():
        lo, hi = sorted(e)
        if lo in vert_ix:
            d1[vert_ix[lo]][2 * t] -= 1
        if hi in vert_ix:
            d1[vert_ix[hi]][2 * t + 1] += 1
    cols = list(zip(*d0))
    assert not any(
        sum(map(operator.mul, row, col)) for row in d1 for col in cols
    ), "co-orientation signs inconsistent"
    r0, r1 = int_rank(d0), int_rank(d1)
    return secondary.DefComplexReport(
        len(cells), len(edges), len(verts), 3 * len(cells), 2 * len(edges), len(verts),
        3 * len(cells) - r0, 2 * len(edges) - r1 - r0, len(verts) - r1, len(sub.omitted),
    )


def test_codim_matches_lift_space():
    """The Euler relation on the co-oriented complex, whose cohomology
    comes from the ranks of d0 and d1."""
    for A in (CIRCUIT_A, CIRCUIT_B, convex_gon(5)):
        for sub in enumerate_subdivisions(A):
            wit = is_regular(A, sub)
            if wit is None:
                continue
            rep = cooriented_complex(A, sub)
            # Euler: h0 = 3|P2| - 2|P1| + |P0| + exc, and
            # codim = dim D - 3 = h0 + omitted - 3
            assert rep.h0 == rep.dim_def0 - rep.dim_def1 + rep.dim_def2 + rep.exc
            assert rep.codim == rep.h0 + rep.n_omitted - 3


PINWHEEL_POINTS = ((0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2))


def pinwheel():
    A = config(*PINWHEEL_POINTS)
    cells = [
        Cell((0, 1, 4), frozenset((0, 1, 4))),
        Cell((0, 4, 3), frozenset((0, 4, 3))),
        Cell((1, 2, 5), frozenset((1, 2, 5))),
        Cell((1, 5, 4), frozenset((1, 5, 4))),
        Cell((2, 0, 3), frozenset((2, 0, 3))),
        Cell((2, 3, 5), frozenset((2, 3, 5))),
        Cell((3, 4, 5), frozenset((3, 4, 5))),
    ]
    return A, Subdivision(A, cells)


def test_pinwheel_not_regular():
    A, sub = pinwheel()
    assert sub.is_triangulation()
    assert is_regular(A, sub) is None
    assert sub in enumerate_triangulations(A)


@pytest.mark.parametrize("A", [CIRCUIT_B, convex_gon(5)], ids=["circuit", "pentagon"])
def test_face_factorization(A):
    """Below a non-exceptional regular subdivision, the refinement interval
    is the product of the cells' refinement posets."""
    subs = enumerate_subdivisions(A)
    regs = [s for s in subs if is_regular(A, s) is not None]
    for sub in regs:
        if deformation_complex(A, sub).exc != 0:
            continue
        below = [t for t in regs if refines(t, sub)]
        # count the product of refinement posets of each marked cell
        expected = 1
        for cell in sub.cells:
            sub_pts = sorted(cell.marked)
            sub_cfg = config(*[(A[w].x, A[w].y) for w in sub_pts])
            cell_regs = [
                s
                for s in enumerate_subdivisions(sub_cfg)
                if is_regular(sub_cfg, s) is not None
            ]
            expected *= len(cell_regs)
        assert len(below) == expected


def test_framing_and_content():
    z = direction(2, 1)
    tri = config((0, 0), (4, 0), (1, 3))
    fr = framing(tri, (0, 1, 2), z)
    vals = [z.infinity_form(p) for p in tri]
    assert vals[fr.alpha] == min(vals) and vals[fr.omega] == max(vals)
    assert fr.d_plus[0] == fr.alpha and fr.d_plus[-1] == fr.omega
    # empty triangle: content is 1 when the third vertex lies on d_minus,
    # 0 when d_plus passes through it
    if len(fr.d_plus) == 2:
        assert content(tri, fr) == 1
    else:
        assert content(tri, fr) == 0
    both = {len(fr.d_plus), len(fr.d_minus)}
    assert both == {2, 3}


def test_framing_matches_the_infinity_form():
    """On 300 tie-prone draws, `framing` of the hull polygon, given in
    either orientation, puts alpha and omega at the least and greatest
    `Dir.infinity_form` of its corners, or raises the same tie when two
    corners share a value; both occur."""
    ties = framed = 0
    for A, zeta in tie_prone_draws(36, 300):
        poly = convex_hull(A)
        if len(poly) < 3:
            continue
        vals = [zeta.infinity_form(A[w]) for w in poly]
        for given in (poly, poly[::-1]):
            if len(set(vals)) < len(vals):
                with pytest.raises(DegeneratePosition, match="projection tie"):
                    framing(A, given, zeta)
                ties += 1
                continue
            fr = framing(A, given, zeta)
            assert fr.alpha == poly[vals.index(min(vals))]
            assert fr.omega == poly[vals.index(max(vals))]
            framed += 1
    assert ties > 20 and framed > 100


def test_content_additivity():
    z = direction(3, 1)
    A, sub = concentric_triangles()
    whole = framing(A, tuple(range(3)), z)  # outer hull polygon
    total = content(A, whole)
    parts = sum(content(A, framing(A, c.polygon, z)) for c in sub.cells)
    assert total == parts
    # additivity across every enumerated subdivision of the circuit
    for A2 in (CIRCUIT_A, CIRCUIT_B):
        hull_cycle = tuple(range(3)) if len(A2) == 4 and A2 is CIRCUIT_B else None
        from infrared.geometry import convex_hull

        cyc = tuple(convex_hull(A2))
        whole = content(A2, framing(A2, cyc, z))
        for sub2 in enumerate_subdivisions(A2):
            parts = sum(
                content(A2, framing(A2, c.polygon, z)) for c in sub2.cells
            )
            assert parts == whole


def test_validate_rejects_bad_subdivisions():
    A = CIRCUIT_A
    with pytest.raises(InvalidInput):
        Subdivision(A, [Cell((0, 1, 2), frozenset((0, 1, 2)))])  # does not tile the hull
    with pytest.raises(InvalidInput):
        Cell((0, 1, 2), frozenset((0, 1)))  # corners not marked


def test_a_repeated_directed_edge_rejects_an_overlapping_cover():
    """The five triangles that join each edge of a convex pentagon to the
    opposite corner are counterclockwise, hold each hull edge once and each
    diagonal twice, and no corner lies inside another cell (every corner is
    on the hull); yet each diagonal has both its cells on one side, so the
    cells overlap: their doubled areas sum to 11 against 5 for the hull.
    The unoriented edge counts and the corner check pass; the constructor
    sees the diagonal 0 4 run the same way in two cells."""
    A = config((0, 1), (0, 2), (1, 2), (2, 0), (2, 1))
    cells = [(0, 4, 1), (0, 3, 2), (0, 4, 2), (1, 3, 2), (1, 3, 4)]
    hull = A.hull()
    owners = {}
    for c in cells:
        for e in zip(c, c[1:] + c[:1]):
            owners[frozenset(e)] = owners.get(frozenset(e), 0) + 1
    assert len(hull) == 5 and len(owners) == 10
    hull_edges = {frozenset(e) for e in zip(hull, hull[1:] + hull[:1])}
    for e, k in owners.items():
        assert k == (1 if e in hull_edges else 2)
    assert [area2(A, c) for c in cells] == [2, 3, 2, 2, 2]
    assert area2(A, hull) == 5
    with pytest.raises(InvalidInput, match="cells overlap left of edge 0->4"):
        Subdivision(A, [Cell(c, frozenset(c)) for c in cells])


# the hull triangle, an inner triangle 3 4 5 of half its area and a point 6
# inside that: the inner triangle plus its fan about 6 cover it twice, so
# their areas sum to the hull's, every edge has two cells and no hull edge
# appears; the corner check sees 6 inside the cell 3 4 5, and the edge 3 4
# runs the same way in two cells
DOUBLE_COVER = config((0, 0), (12, 0), (0, 12), (1, 1), (10, 1), (1, 9), (2, 3))
SQUARE = config((0, 0), (1, 0), (1, 1), (0, 1))


def corner_cells(*polygons):
    return [Cell(p, frozenset(p)) for p in polygons]


@pytest.mark.parametrize("A, cells, message", [
    (CIRCUIT_B, [], "empty subdivision"),
    (CIRCUIT_B, corner_cells((0, 2, 1)), "not counterclockwise"),
    (CIRCUIT_B, corner_cells(()), "fewer than three corners"),
    (CIRCUIT_B, [Cell((0, 1, 3), frozenset((0, 1, 2, 3)))],
     "marked point 2 outside cell"),
    (CIRCUIT_B, corner_cells((0, 1, 3), (1, 2, 3)),
     "do not tile the hull: their boundary is not the hull ring at edge 2->0"),
    (SQUARE, corner_cells((0, 1, 2), (1, 2, 3)), "cells overlap left of edge 1->2"),
    (SQUARE, corner_cells((0, 1, 3), (0, 2, 3)), "cells overlap left of edge 3->0"),
    (DOUBLE_COVER, corner_cells((3, 4, 5), (3, 4, 6), (4, 5, 6), (5, 3, 6)),
     "cells overlap left of edge 3->4"),
    (CIRCUIT_B, corner_cells((0, 1, 3), (1, 2, 3), (2, 0, 4)), "holds 4, which is not a point index"),
], ids=["empty", "clockwise", "no-polygon", "marked-outside", "no-tiling",
        "hull-edge", "interior-edge", "corner-inside", "bad-index"])
def test_every_invalid_subdivision_is_rejected_when_built(A, cells, message):
    """Each check of the `Subdivision` constructor rejects a subdivision
    that passes the checks before it."""
    with pytest.raises(InvalidInput, match=message):
        Subdivision(A, cells)


@pytest.mark.parametrize("old, new", [(4, -1), (4, 5), (4, "4"), (1, True)],
                         ids=["negative", "past-the-end", "str", "bool"])
def test_a_cell_index_must_be_a_point_of_the_configuration(old, new):
    """An index outside range(len(A)), a str or a bool in a cell is invalid
    input.  Unchecked, a -1 for point 4 reads point 4 (the last) through
    the negative index, so the subdivision looked valid while
    `deformation_complex` reported exc = -1 and `is_regular` gave None."""
    A = config((0, 0), (8, 0), (0, 8), (1, 2), (3, 2))
    tri = next(s for s in enumerate_triangulations(A) if 4 not in s.omitted)
    swap = {old: new}
    cells = [
        Cell(tuple(swap.get(w, w) for w in c.polygon),
             frozenset(swap.get(w, w) for w in c.marked))
        for c in tri.cells
    ]
    with pytest.raises(InvalidInput, match="is not a point index 0..4"):
        Subdivision(A, cells)


def test_a_subdivision_read_from_json_is_checked():
    A = CIRCUIT_B
    good = enumerate_subdivisions(A)[0]
    assert Subdivision.from_json(A, good.to_json()) == good
    bad = {"cells": [{"polygon": [0, 1, 3], "marked": [0, 1, 3]}]}
    with pytest.raises(InvalidInput, match="do not tile the hull"):
        Subdivision.from_json(A, bad)


def edge_owners(cells):
    """Each edge of the cells, as a set of two indices -> the indices of the
    cells that have it, in cell order and keyed in the order of first
    occurrence: the edge map that a `Subdivision` once kept."""
    owners = {}
    for ci, c in enumerate(cells):
        for e in zip(c.polygon, c.polygon[1:] + c.polygon[:1]):
            owners.setdefault(frozenset(e), []).append(ci)
    return owners


def tiles_by_area_edges_and_corners(A, cells) -> bool:
    """The three tiling checks that the oriented-edge check of the
    constructor replaced, kept as its oracle, for counterclockwise cells:
    the doubled areas of the cells sum to the hull's, each hull edge lies
    in one cell and each other edge in two, and no corner of one cell lies
    strictly inside another cell."""
    hull = A.hull()
    if sum(area2(A, c.polygon) for c in cells) != area2(A, hull):
        return False
    hull_edges = {frozenset(e) for e in zip(hull, hull[1:] + hull[:1])}
    if any(len(o) != (1 if e in hull_edges else 2)
           for e, o in edge_owners(cells).items()):
        return False
    t = A.sign_table()
    corners = {w for c in cells for w in c.polygon}
    return not any(
        all(t[a][b][w] > 0 for a, b in zip(c.polygon, c.polygon[1:] + c.polygon[:1]))
        for c in cells for w in corners - set(c.polygon)
    )


def with_midpoint(r, A, subs):
    """A plus the midpoint m of a segment ab of two of its points, a
    collinear triple, and cell lists of it built from subs: each as it is
    (m omitted) and, where ab is an interior edge, with m a corner of both
    cells on ab (a subdivision) and of only one (a T-junction)."""
    a, b = r.sample(range(len(A)), 2)
    m = len(A)
    B = config(*[(p.x, p.y) for p in A.points],
               ((A[a].x + A[b].x) / 2, (A[a].y + A[b].y) / 2))

    def split(c):
        p = c.polygon
        for k in range(len(p)):
            if {p[k], p[(k + 1) % len(p)]} == {a, b}:
                return Cell(p[:k + 1] + (m,) + p[k + 1:], c.marked | {m})
        return c

    lists = []
    for s in subs:
        cells = list(s.cells)
        lists.append(cells)
        owners = edge_owners(cells).get(frozenset((a, b)), ())
        if len(owners) == 2:
            both = [split(c) if i in owners else c for i, c in enumerate(cells)]
            one = [split(c) if i == owners[0] else c for i, c in enumerate(cells)]
            lists += [both, one]
    return B, lists


def perturbed(r, A, lists, count):
    """count seeded perturbations of the cell lists: a list as it is, or one
    with a cell dropped, duplicated, replaced or appended, two lists spliced,
    or a cell over-marked, applied once or twice."""
    pool = [c for cells in lists for c in cells]

    def step(cells):
        k = r.randrange(len(cells))
        kind = r.randrange(6)
        if kind == 0:
            return cells[:k] + cells[k + 1:]
        if kind == 1:
            return cells + [cells[k]]
        if kind == 2:
            return cells[:k] + [r.choice(pool)] + cells[k + 1:]
        if kind == 3:
            return cells + [r.choice(pool)]
        if kind == 4:
            other = r.choice(lists)
            return cells[:k] + other[r.randrange(len(other)):]
        c = cells[k]
        extra = frozenset(r.sample(range(len(A)), r.randint(1, 2)))
        return cells[:k] + [Cell(c.polygon, c.marked | extra)] + cells[k + 1:]

    for _ in range(count):
        cells = list(r.choice(lists))
        for _ in range(r.randrange(3)):
            cells = step(cells) if cells else cells
        yield cells


def midpoint_draws():
    """The draws of the oriented-edge test, in its order: for each of 40
    random configurations A of 5 to 7 points, and B with its cell lists from
    `with_midpoint`, the pair [(A, the cell lists of its subdivisions, 400
    seeded perturbations of them), (B, its cell lists, 400 of theirs)]."""
    r = rng(26)
    for n in [5, 6, 7, 5, 6] * 8:
        A = rand_config(r, n)
        subs = enumerate_subdivisions(A)
        B, lists = with_midpoint(r, A, subs)
        yield [(C, family, list(perturbed(r, C, family, 400)))
               for C, family in ((A, [list(s.cells) for s in subs]), (B, lists))]


def test_the_oriented_edge_check_matches_the_area_edge_and_corner_oracle():
    """On 32,000 seeded perturbations of the subdivisions of 40 random
    configurations of 5 to 7 points, and of 40 more with a collinear triple,
    the constructor accepts exactly the cell lists that are nonempty, hold
    each marked point in its cell and pass the replaced checks."""
    cases = accepted = 0
    tiling = set()
    for draw in midpoint_draws():
        for C, _, shaken in draw:
            for cells in shaken:
                want = bool(cells) and tiles_by_area_edges_and_corners(C, cells) and all(
                    _point_in_polygon(C.sign_table(), c.polygon, w) for c in cells for w in c.marked)
                try:
                    Subdivision(C, cells)
                    got = True
                except InvalidInput as exc:
                    got = False
                    tiling.update(m for m in ("cells overlap", "do not tile")
                                  if m in str(exc))
                assert got == want, (C, cells)
                cases += 1
                accepted += got
    assert cases == 32_000 and 4_000 < accepted < 28_000, accepted
    assert tiling == {"cells overlap", "do not tile"}


def test_hull_of_the_configuration_is_computed_once(monkeypatch):
    from infrared import geometry

    whole = []
    hull = geometry.convex_hull

    def counting(A, subset=None):
        if subset is None:
            whole.append(A)
        return hull(A, subset)

    monkeypatch.setattr(geometry, "convex_hull", counting)
    monkeypatch.setattr(secondary, "convex_hull", counting)
    A = convex_gon(5)
    subs = enumerate_subdivisions(A)
    for sub in subs:
        Subdivision(A, sub.cells).interior_vertices()
    enumerate_triangulations(A)
    assert whole == [A]


def cross_point_in_polygon(A, cycle, w):
    """The cross-product containment test that the sign lookups replaced."""
    for a, b in zip(cycle, tuple(cycle[1:]) + (cycle[0],)):
        if (A[b] - A[a]).cross(A[w] - A[a]) < 0:
            return False
    return True


def test_point_in_polygon_matches_cross_products():
    # a 3 x 3 grid puts points on many edges; four more points off the grid
    pts = [(x, y) for x in (0, 2, 4) for y in (0, 2, 4)]
    pts += [(1, 3), (5, 1), (-1, 2), (3, "1/2")]
    A = config(*pts)
    n = len(A)
    cycles = [c for c in itertools.permutations(range(n), 3) if orient(A, *c) > 0]
    r = rng(72)
    for _ in range(60):
        labels = sorted(r.sample(range(n), r.randint(4, 8)))
        hull = convex_hull(config(*[pts[w] for w in labels]))
        cycles.append(tuple(labels[t] for t in hull))
    kinds = set()
    for cyc in cycles:
        edges = list(zip(cyc, cyc[1:] + cyc[:1]))
        for w in range(n):
            inside = cross_point_in_polygon(A, cyc, w)
            assert _point_in_polygon(A.sign_table(), cyc, w) == inside, (cyc, w)
            on_edge = any(
                w not in e and (A[e[1]] - A[e[0]]).cross(A[w] - A[e[0]]) == 0
                for e in edges
            )
            kind = "corner" if w in cyc else "edge" if on_edge and inside else "other"
            kinds.add((kind, inside))
    assert {("corner", True), ("edge", True), ("other", True), ("other", False)} <= kinds


def test_full_triangulations_leave_no_reference_cycles():
    """The enumeration keeps its search state on an explicit stack, so it
    leaves nothing for the cycle collector."""
    A = convex_gon(6)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        subs = enumerate_subdivisions(A)
        # dissections of a hexagon: 1 + 9 + 21 + 14 by number of diagonals
        assert len(subs) == 45
        assert sum(s.is_triangulation() for s in subs) == catalan(4)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_convex_path_enumeration_leaves_no_reference_cycles(capsys):
    """Convex-path enumeration keeps its search state on an explicit stack
    too: enumerating every pair of `seven.json` along 1/0, and the `paths`
    and SVG `plot` commands that enumerate, leave nothing for the cycle
    collector."""
    seven = os.path.join(os.path.dirname(__file__), "data", "seven.json")
    with open(seven) as fh:
        A = Config.from_json(json.load(fh)["config"])
    zeta = Dir(Q(1), Q(0))
    order = infinity_order(A, zeta)[0]
    # the first CLI call of a process builds the argument parser, whose
    # help formatters argparse leaves in cycles once
    main(["check", "--n", "x"])
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        found = [enumerate_zeta_convex_paths(A, i, j, zeta)
                 for a, i in enumerate(order) for j in order[a + 1:]]
        assert sum(map(len, found)) > len(found)
        assert gc.collect() == 0
        for argv in (["paths", seven, "--zeta", "1/0"],
                     ["plot", seven, "--format", "svg", "--zeta", "1/0"]):
            assert main(argv) == 0
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    capsys.readouterr()


def test_eight_points_are_pinned():
    """`rand_config(rng(5), 8)` has 1,515 marked subdivisions, 195 of them
    triangulations; the hash pins their keys in order."""
    subs = enumerate_subdivisions(rand_config(rng(5), 8))
    assert len(subs) == 1515
    assert sum(s.is_triangulation() for s in subs) == 195
    keys = json.dumps([s.key() for s in subs]).encode()
    assert hashlib.sha256(keys).hexdigest() == (
        "74a97ffb3611c4c44422ed42b2e91f28cfdca4dc272c88cc42fcc3a725e16162"
    )


def _flip_adjacent(t1, t2):
    """Two triangulations differ by one circuit flip: four cells change in
    total (2+2 diagonal flip or 3+1 point insertion) and the omitted sets
    differ by at most one point."""
    k1 = {(c.polygon, tuple(sorted(c.marked))) for c in t1.cells}
    k2 = {(c.polygon, tuple(sorted(c.marked))) for c in t2.cells}
    if len(k1 ^ k2) != 4:
        return False
    return len(t1.omitted ^ t2.omitted) <= 1


def test_flip_graph_connected_cross_check():
    """Exhaustive enumeration agrees with flip-graph reachability: every
    triangulation is connected to every other through single flips."""
    for A in (CIRCUIT_A, CIRCUIT_B, convex_gon(5), convex_gon(6),
              config(*PINWHEEL_POINTS)):
        tris = enumerate_triangulations(A)
        n = len(tris)
        assert n >= 1
        seen = {0}
        frontier = [0]
        while frontier:
            cur = frontier.pop()
            for other in range(n):
                if other not in seen and _flip_adjacent(tris[cur], tris[other]):
                    seen.add(other)
                    frontier.append(other)
        assert seen == set(range(n)), f"flip graph disconnected for {A}"


def walk_merge_cells(A, sub, drop):
    """The boundary-walk merge that the triangle count replaced: walk each
    group's boundary cycle, reject pinched or disconnected boundaries, orient
    the cycle by its area and test every turn."""
    parent = list(range(len(sub.cells)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    owners_of = edge_owners(sub.cells)
    for e in drop:
        owners = owners_of.get(e, [])
        if len(owners) != 2:
            return None
        a, b = (find(o) for o in owners)
        if a != b:
            parent[a] = b
    groups = {}
    for ci in range(len(sub.cells)):
        groups.setdefault(find(ci), []).append(ci)
    new_cells = []
    for members in groups.values():
        marked = frozenset().union(*[sub.cells[ci].marked for ci in members])
        group = edge_owners([sub.cells[ci] for ci in members])
        boundary = [e for e, o in group.items() if len(o) == 1]
        kept = [e for e in boundary if e not in drop]
        if len(kept) != len(boundary):
            return None
        adj = {}
        for e in kept:
            a, b = sorted(e)
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        if any(len(v) != 2 for v in adj.values()):
            return None
        start = min(adj)
        cycle = [start]
        prev, cur = None, start
        while True:
            nxt = [v for v in adj[cur] if v != prev]
            if not nxt:
                return None
            prev, cur = cur, nxt[0]
            if cur == start:
                break
            cycle.append(cur)
            if len(cycle) > len(kept):
                return None
        if len(cycle) != len(kept):
            return None
        if fraction_area2(A, cycle) < 0:
            cycle.reverse()
        t = A.sign_table()
        turns = zip(cycle, cycle[1:] + cycle[:1], cycle[2:] + cycle[:2])
        if any(t[a][b][c] <= 0 for a, b, c in turns):
            return None
        new_cells.append(Cell(_canon_cycle(cycle), marked))
    return Subdivision(A, new_cells)


def oracle_full_triangulations(A, used):
    """All triangulations of the points `used` (every point a vertex), as
    sets of triangle index-triples: the empty triangles of each maximal
    crossing-free edge set."""
    pts = list(used)
    segs = list(itertools.combinations(pts, 2))
    t = A.sign_table()

    def crosses(e1, e2):
        a, b = e1
        c, d = e2
        if {a, b} & {c, d}:
            return False
        return t[a][b][c] != t[a][b][d] and t[c][d][a] != t[c][d][b]

    compat = {
        frozenset((e1, e2))
        for e1, e2 in itertools.combinations(segs, 2)
        if not crosses(e1, e2)
    }

    def compatible(e1, e2):
        return frozenset((e1, e2)) in compat

    # depth-first over (chosen, rest): take rest[0] when it crosses nothing
    # chosen, or leave it out, which can only lead to a maximal set if
    # something crosses it
    results = []
    stack = [([], segs)]
    while stack:
        chosen, rest = stack.pop()
        if not rest:
            results.append(frozenset(chosen))
            continue
        e, tail = rest[0], rest[1:]
        if any(not compatible(e, f) for f in itertools.chain(chosen, tail)):
            stack.append((chosen, tail))
        stack.append((chosen + [e], [f for f in tail if compatible(e, f)]))
    maximal = [
        s
        for s in set(results)
        if all(e in s or any(not compatible(e, f) for f in s) for e in segs)
    ]
    tris = set()
    for edges in maximal:
        faces = set()
        for a, b, c in itertools.combinations(pts, 3):
            if (a, b) in edges and (a, c) in edges and (b, c) in edges:
                # no point strictly inside: on the same side of all three edges
                if not any(
                    w not in (a, b, c) and t[a][b][w] == t[b][c][w] == t[c][a][w]
                    for w in pts
                ):
                    faces.add(frozenset((a, b, c)))
        tris.add(frozenset(faces))
    return tris


def oracle_triangulations(A):
    """Marked triangulations in key order, built from the triangulations of
    the hull corners plus each subset of the interior points."""
    hull = A.hull()
    interior = [w for w in range(len(A)) if w not in hull]
    t = A.sign_table()
    out = set()
    for r in range(len(interior) + 1):
        for extra in itertools.combinations(interior, r):
            used = sorted(set(hull) | set(extra))
            for faces in oracle_full_triangulations(A, used):
                cells = []
                for tri in faces:
                    a, b, c = sorted(tri)
                    ccw = (a, b, c) if t[a][b][c] > 0 else (a, c, b)
                    cells.append(Cell(ccw, frozenset(tri)))
                sub = Subdivision(A, cells)
                assert len(sub.cells) == 2 * len(used) - 2 - len(hull)
                out.add(sub)
    return sorted(out, key=lambda s: s.key())


def oracle_subdivisions(A, tris):
    """Every coarsening of the given triangulations by a subset of their
    interior edges, merged by the boundary walk, in key order."""
    subs = set()
    for tri in tris:
        interior = tri.interior_edges()
        for r in range(len(interior) + 1):
            for drop in itertools.combinations(interior, r):
                merged = walk_merge_cells(A, tri, drop)
                if merged is not None:
                    subs.add(merged)
    return sorted(subs, key=lambda s: s.key())


def containment_refines(fine, coarse):
    """The point-in-polygon refinement test that edge-set inclusion
    replaced: every fine cell has its corners in one coarse cell whose
    marked set contains the fine cell's."""
    for c in fine.cells:
        if not any(
            all(_point_in_polygon(fine.config.sign_table(), big.polygon, w) for w in c.polygon)
            and c.marked <= big.marked
            for big in coarse.cells
        ):
            return False
    return True


def oracle_configs():
    """61 seeded configurations of 4 to 7 points: strong draws and, every
    third, draws from a small box that only need linear general position.
    One has 7 points, because the boundary walk takes seconds there; the
    pinned 7-point `secondary` output covers another."""
    r = rng(81)
    out = []
    for k, n in enumerate([4, 5, 6, 5] * 15 + [7]):
        if k % 3 == 2:
            out.append(rand_config(r, n, require_strong=False, box=3))
        else:
            out.append(rand_config(r, n))
    return out


def test_merges_and_refinement_match_the_geometric_oracles():
    """The enumeration gives the same triangulations and subdivisions, in
    the same order, as triangulating each set of used points and coarsening
    every triangulation by the boundary walk; edge-set refinement agrees with
    polygon containment on every ordered pair of subdivisions."""
    strong = set()
    for A in oracle_configs():
        strong.add(general_position(A).strong_lin_general)
        tris = oracle_triangulations(A)
        assert [s.key() for s in enumerate_triangulations(A)] == [
            s.key() for s in tris], A
        subs = enumerate_subdivisions(A)
        assert [s.key() for s in subs] == [
            s.key() for s in oracle_subdivisions(A, tris)], A
        for fine, coarse in itertools.product(subs, repeat=2):
            assert refines(fine, coarse) == containment_refines(fine, coarse), (
                A, fine, coarse)
    assert strong == {True, False}


def full_lift_is_regular(A, sub):
    """The full-lift LP that the heights-only system replaced: one lift
    value per point, three affine coefficients per cell and the slack s,
    maximized subject to s <= 1, with
      * f_cell(w) = psi_w for marked w, as two inequalities,
      * f_cell(w) + s <= psi_w for unmarked w covered by the cell,
      * f_cell(p) + s <= f_other(p) across every interior edge.
    Returns the optimum when it is positive, else None."""
    n = len(A)
    nvars = n + 3 * len(sub.cells) + 1
    s_idx = nvars - 1

    def cell_coords(ci, w):
        base = n + 3 * ci
        return [(base, A[w].x), (base + 1, A[w].y), (base + 2, Q(1))]

    rows, rhs = [], []

    def add_le(terms, bound=Q(0)):
        row = [Q(0)] * nvars
        for idx, coef in terms:
            row[idx] += coef
        rows.append(row)
        rhs.append(bound)

    for ci, cell in enumerate(sub.cells):
        for w in cell.marked:
            terms = cell_coords(ci, w) + [(w, Q(-1))]
            add_le(terms)
            add_le([(i, -c) for i, c in terms])
        for w in range(n):
            if w not in cell.marked and _point_in_polygon(A.sign_table(), cell.polygon, w):
                add_le(cell_coords(ci, w) + [(w, Q(-1)), (s_idx, Q(1))])
    for e, owners in edge_owners(sub.cells).items():
        if len(owners) != 2:
            continue
        ci, cj = owners
        probe = next(w for w in sub.cells[cj].polygon if w not in e)
        add_le(cell_coords(ci, probe)
               + [(i, -c) for i, c in cell_coords(cj, probe)]
               + [(s_idx, Q(1))])
    add_le([(s_idx, Q(1))], Q(1))
    objective = [Q(0)] * nvars
    objective[s_idx] = Q(1)
    value, _ = lp.maximize(objective, rows, rhs)
    return value if value > 0 else None


def data_config(name):
    """The configuration of the instance `tests/data/<name>.json`."""
    path = os.path.join(os.path.dirname(__file__), "data", f"{name}.json")
    with open(path) as fh:
        return Config.from_json(json.load(fh)["config"])


def seven():
    return data_config("seven")


def test_heights_only_lp_matches_the_full_lift_oracle():
    """The heights-only LP decides regularity as the full-lift LP does on
    the 61 `oracle_configs()`, the nested triangles, the pinwheel points and
    `seven.json`; every witness has slack 1 and induces its subdivision."""
    configs = oracle_configs() + [
        concentric_triangles()[0], config(*PINWHEEL_POINTS), seven()]
    irregular = 0
    for A in configs:
        for sub in enumerate_subdivisions(A):
            wit = is_regular(A, sub)
            assert (wit is None) == (full_lift_is_regular(A, sub) is None), (A, sub)
            if wit is None:
                irregular += 1
                continue
            assert wit.slack == 1, (A, sub)
            assert induced_subdivision(A, wit.psi) == sub, (A, sub)
    assert irregular == 28  # 14 each for the nested triangles and the pinwheel


def less_poset(subs):
    """The relation that the graded covers replaced: the n x n strict
    refinement matrix over any family, its covers by a cubic transitive
    reduction, and the longest chain by a topological sweep."""
    n = len(subs)
    less = [
        [i != j and refines(subs[i], subs[j]) and subs[i] != subs[j] for j in range(n)]
        for i in range(n)
    ]
    heights = [0] * n
    # refines is transitive, so i < j gives i strictly more successors than
    # j: descending successor count is a topological order of the relation
    for i in sorted(range(n), key=lambda i: -sum(less[i])):
        for j in range(n):
            if less[i][j]:
                heights[j] = max(heights[j], heights[i] + 1)
    covers = [
        (i, j)
        for i, j in itertools.product(range(n), range(n))
        if less[i][j] and not any(less[i][k] and less[k][j] for k in range(n))
    ]
    return {"covers": covers, "height": max(heights) if heights else 0}


def test_graded_covers_match_the_refinement_matrix():
    """On complete regular families, covers between adjacent codim levels
    and the codim span equal the transitive reduction and the longest chain
    of the full refinement matrix: the 61 `oracle_configs()`, the nested
    triangles (with an exceptional subdivision), the pinwheel points,
    `seven.json`, convex 4- to 7-gons and both circuits."""
    configs = oracle_configs() + [
        concentric_triangles()[0], config(*PINWHEEL_POINTS), seven(),
        *(convex_gon(n) for n in range(4, 8)), CIRCUIT_A, CIRCUIT_B]
    for A in configs:
        regs = [s for s in enumerate_subdivisions(A) if is_regular(A, s) is not None]
        codims = [deformation_complex(A, s).codim for s in regs]
        assert refinement_poset(regs, codims) == less_poset(regs), A
    triangle = config((0, 0), (1, 0), (0, 1))
    (only,) = enumerate_subdivisions(triangle)
    assert refinement_poset([only], [deformation_complex(triangle, only).codim]) == {
        "covers": [], "height": 0}
    assert refinement_poset([], []) == {"covers": [], "height": 0}


def test_gkz_vector_of_the_square():
    """On the integer frame each half of the square of side 2 has doubled
    area 4, so the two corners on the diagonal sum 8; a subdivision that is
    not a triangulation has no GKZ vector."""
    A = config((0, 0), (2, 0), (2, 2), (0, 2))
    subs = enumerate_subdivisions(A)
    assert sorted(gkz_vector(A, s) for s in subs if s.is_triangulation()) == [
        [4, 8, 4, 8], [8, 4, 8, 4]]
    (whole,) = [s for s in subs if not s.is_triangulation()]
    with pytest.raises(InvalidInput, match="triangulation"):
        gkz_vector(A, whole)


def test_gkz_identities_hold_on_the_oracle_configurations():
    """The identities of the `secondary_gkz` entry (face dimensions from the
    GKZ vectors, the Euler characteristic of every face, the circuit of
    every edge and the poset height) on the 61 `oracle_configs()`, the
    nested triangles, `concentric.json` and `seven.json`."""
    configs = oracle_configs() + [
        concentric_triangles()[0], data_config("concentric"), seven()]
    assert len(configs) == 64
    holds = checksuite.IDENTITIES["secondary_gkz"].holds
    for A in configs:
        assert holds(config=A), A


def test_secondary_gkz_on_tier1_draws():
    run_tier1("secondary_gkz")


def test_secondary_fan_lp_on_tier1_draws():
    """The registry's fan-against-LP entry on its tier-1 draws, of which
    the nested triangles have irregular subdivisions at codims 1, 2 and 3."""
    irregular = set()
    for parts in run_tier1("secondary_fan_lp"):
        irregular |= {rep.codim for _, rep, wit in secondary_fan(parts["config"]) if wit is None}
    assert irregular == {1, 2, 3}


# ---------------------------------------------------------------------------
# the secondary fan route against the LP


@pytest.fixture(scope="module")
def fan_families():
    """(name, A, subdivisions, codims, witnesses, lp_calls) for the 61
    `oracle_configs()`, the nested triangles, the pinwheel points,
    `seven.json` and `rand_config(rng(5), 8)`: the family, codims and
    witnesses that `secondary_fan(A)` returns, and the names of the LP
    routines (`is_regular`, `lp.maximize`) it called."""
    named = [("oracle", A) for A in oracle_configs()] + [
        ("nested", concentric_triangles()[0]),
        ("pinwheel", config(*PINWHEEL_POINTS)),
        ("seven", seven()),
        ("rand8", rand_config(rng(5), 8)),
    ]
    out, maximize = [], lp.maximize
    with pytest.MonkeyPatch.context() as mp:
        for name, A in named:
            lp_calls = []
            mp.setattr(secondary, "is_regular",
                       lambda A, sub: lp_calls.append("is_regular") or is_regular(A, sub))
            mp.setattr(lp, "maximize",
                       lambda *args: lp_calls.append("lp.maximize") or maximize(*args))
            subs, reps, witnesses = map(list, zip(*secondary_fan(A)))
            out.append((name, A, subs, [rep.codim for rep in reps], witnesses, lp_calls))
    return out


@pytest.fixture(scope="module")
def cooriented_reports(fan_families):
    """The `cooriented_complex` report of every subdivision of
    `fan_families`, one list per family."""
    return [[cooriented_complex(A, s) for s in subs] for _, A, subs, *_ in fan_families]


def test_codim_is_the_nullity_of_the_equality_lift_rows(fan_families, cooriented_reports):
    """For every subdivision, regular or not, the lifts modulo affine
    functions, the kernel of the equality rows of the full lift system over
    the free heights, have dimension the codim of the co-oriented complex,
    dim H^0 + |omitted| - 3 from the rank of d0, and the codim that
    `deformation_complex` reads off the equality rows alone."""
    for (name, A, subs, codims, _, _), reps in zip(fan_families, cooriented_reports):
        for sub, codim, rep in zip(subs, codims, reps):
            var, rows = _lift_rows(A, sub)
            eq = [row[:-1] for row in rows if not row[-1]]
            nullity = len(var) - int_rank(eq)
            assert len(int_kernel(eq, len(var))) == nullity == rep.codim, (name, sub)
            assert codim == nullity, (name, sub)
            only_eq = _lift_rows(A, sub, strict=False)
            assert only_eq == (var, [row for row in rows if not row[-1]]), (name, sub)


def test_deformation_complex_matches_the_cooriented_oracle(
        fan_families, cooriented_reports):
    """On every subdivision of the same families, `deformation_complex`
    equals the co-oriented complex in all ten fields, and its exc is the
    number of parallel deformations.  One subdivision each of the nested
    triangles and the pinwheel points is exceptional."""
    exceptional = {}
    for (name, A, subs, _, _, _), reps in zip(fan_families, cooriented_reports):
        for sub, oracle in zip(subs, reps):
            rep = deformation_complex(A, sub)
            assert rep == oracle, (name, sub)
            assert rep.exc == len(parallel_deformations(A, sub)), (name, sub)
            exceptional[name] = exceptional.get(name, 0) + (rep.exc > 0)
    assert exceptional == {"oracle": 0, "nested": 1, "pinwheel": 1, "seven": 0, "rand8": 0}


def test_the_fan_route_matches_the_lp(fan_families):
    """On the same families, `secondary_fan` decides regularity as
    `is_regular` does, with no LP of its own; each of its witnesses induces
    its subdivision, with slack 1 and least strict margin exactly 1.  The
    nested triangles and the pinwheel points have 14 irregular subdivisions
    each, 6 at codim 1, 6 at codim 2 and 2 at codim 3, and the other
    families none."""
    irregular = {}
    for name, A, subs, codims, witnesses, lp_calls in fan_families:
        assert lp_calls == [], name
        for sub, codim, wit in zip(subs, codims, witnesses):
            assert (wit is None) == (is_regular(A, sub) is None), (name, sub)
            if wit is None:
                irregular.setdefault(name, [0, 0, 0, 0])[codim] += 1
                continue
            assert wit.slack == 1 and induced_subdivision(A, wit.psi) == sub
            var, rows = _lift_rows(A, sub)
            free = [wit.psi[w] for w in sorted(var, key=var.get)]
            margins = [-sum(map(operator.mul, row, free)) / row[-1]
                       for row in rows if row[-1]]
            assert not margins or min(margins) == 1, (name, sub)
    assert irregular == {"nested": [0, 6, 6, 2], "pinwheel": [0, 6, 6, 2]}


def unpruned_subdivisions(A):
    """The enumeration before the corner test moved into the search: the
    depth-first search completes every crossing-free set of segments off
    the hull ring, and the corner test runs on each completed set."""
    n = len(A)
    t = A.sign_table()
    hull = A.hull()
    ring = list(zip(hull, hull[1:] + hull[:1]))
    segs = [
        e for e in itertools.combinations(range(n), 2)
        if e not in ring and e[::-1] not in ring
    ]
    crossing = {
        ((a, b), (c, d))
        for (a, b), (c, d) in itertools.permutations(segs, 2)
        if len({a, b, c, d}) == 4
        and t[a][b][c] != t[a][b][d]
        and t[c][d][a] != t[c][d][b]
    }
    subs = []
    stack = [(ring, segs)]  # edges taken, segments still free to take
    while stack:
        taken, free = stack.pop()
        if free:
            e, rest = free[0], free[1:]
            stack.append((taken, rest))
            stack.append((taken + [e], [f for f in rest if (e, f) not in crossing]))
            continue
        nbrs = {}
        for a, b in taken:
            nbrs.setdefault(a, []).append(b)
            nbrs.setdefault(b, []).append(a)
        # the corner test: no vertex off the hull has a neighbour u with all
        # its other neighbours on one side of the line through it and u
        if any(
            len({t[v][u][w] for w in vs if w != u}) < 2
            for v, vs in nbrs.items()
            if v not in hull
            for u in vs
        ):
            continue
        cycles = secondary._cell_cycles(A, nbrs)
        loose = [w for w in range(n) if w not in nbrs]
        home = {
            w: next(k for k, cyc in enumerate(cycles) if _point_in_polygon(A.sign_table(), cyc, w))
            for w in loose
        }
        corners = [frozenset(cyc) for cyc in cycles]
        for r in range(len(loose) + 1):
            for extra in itertools.combinations(loose, r):
                marked = list(corners)
                for w in extra:
                    marked[home[w]] |= {w}
                subs.append(Subdivision(A, [Cell(c, m) for c, m in zip(cycles, marked)]))
    return sorted(subs, key=lambda s: s.key())


def test_pruned_search_matches_the_unpruned_oracle(fan_families):
    """The search that drops a branch as soon as a finished vertex fails the
    corner test gives the same subdivisions, in the same order, as the
    search that tests only completed edge sets, on the 61
    `oracle_configs()`, the nested triangles, the pinwheel points,
    `seven.json` and `rand_config(rng(5), 8)`."""
    for name, A, subs, *_ in fan_families:
        assert [s.key() for s in subs] == [
            s.key() for s in unpruned_subdivisions(A)], (name, A)


# ---------------------------------------------------------------------------
# the edges a subdivision reads off its cells, against an edge-owner map


def fold_row(A, var, cell, probe):
    """The strict lift row of a fold as `_lift_rows` states it: f_cell(probe)
    - psi_probe times the doubled area det of the cell's basis triangle, over
    the free heights `var`, then det as the slack coefficient."""
    area = A.area_table()
    a, b, c = cell.polygon[:3]
    det, lb, lc = area[a][b][c], area[a][probe][c], area[a][b][probe]
    row = [0] * (len(var) + 1)
    for p, coef in ((a, det - lb - lc), (b, lb), (c, lc), (probe, -det)):
        if p in var:
            row[var[p]] += coef
    row[-1] = det
    return row


def test_the_edges_read_off_the_cells_match_the_edge_owner_oracle():
    """On every subdivision of the 61 `oracle_configs()`, `concentric.json`,
    `seven.json` and the collinear-midpoint covers that the constructor
    accepts in the oriented-edge test, the edges in `bits`, the interior
    edges, the edge count of `deformation_complex` and the fold rows of
    `_lift_rows`, in order, are those `edge_owners` gives; and two
    subdivisions are equal, and hash alike, exactly when their keys are
    equal, a copy built from rotated cells in reverse order included."""
    midpoint = []
    for _, (B, lists, _) in midpoint_draws():
        covers = []
        for cells in lists:
            try:
                covers.append(Subdivision(B, cells))
            except InvalidInput:
                pass
        midpoint.append((B, covers))
    # some accepted covers have the midpoint, on a collinear triple, as a corner
    assert any(len(B) - 1 in c.polygon for B, covers in midpoint
               for s in covers for c in s.cells)
    families = [(A, enumerate_subdivisions(A)) for A in
                oracle_configs() + [data_config("concentric"), seven()]] + midpoint
    for A, subs in families:
        n = len(A)
        for s in subs:
            owners = edge_owners(s.cells)
            interior = {e: o for e, o in owners.items() if len(o) == 2}
            omitted = frozenset(range(n)).difference(*[c.marked for c in s.cells])
            assert s.omitted == omitted, (A, s)
            assert s.bits == sum(1 << (min(e) * n + max(e)) for e in owners) + sum(
                1 << (n * n + w) for w in omitted), (A, s)
            assert s.interior_edges() == sorted(interior, key=sorted), (A, s)
            assert deformation_complex(A, s).n_interior_edges == len(interior), (A, s)
            var, rows = _lift_rows(A, s)
            folds = [
                fold_row(A, var, s.cells[ci], next(w for w in s.cells[cj].polygon if w not in e))
                for e, (ci, cj) in interior.items()
            ]
            head = sum(
                len(c.marked.difference(c.polygon[:3])) + sum(
                    w not in c.marked and _point_in_polygon(A.sign_table(), c.polygon, w)
                    for w in range(n))
                for c in s.cells)
            assert rows[head:] == folds, (A, s)
            copy = Subdivision(A, [Cell(c.polygon[1:] + c.polygon[:1], c.marked)
                                   for c in reversed(s.cells)])
            assert copy == s and hash(copy) == hash(s) and copy.key() == s.key()
        keyed = [(s, hash(s), s.key()) for s in subs]
        for (s, hs, ks), (t, ht, kt) in itertools.product(keyed, repeat=2):
            assert (s == t) == (hs == ht) == (ks == kt), (A, s, t)


# ---------------------------------------------------------------------------
# the Fraction-coordinate routines that the integer frame replaced


def fraction_area2(A, cycle):
    """The doubled signed area of a polygon by the shoelace sum over the
    Fraction coordinates."""
    total = Q(0)
    for a, b in zip(cycle, tuple(cycle[1:]) + tuple(cycle[:1])):
        total += A[a].x * A[b].y - A[b].x * A[a].y
    return total


def shoelace_area2(A, cycle):
    """The shoelace sum over `A.int_points()` that `area2` took before it
    summed the fan of `A.area_table()`."""
    pts = A.int_points()[0]
    total = 0
    for a, b in zip(cycle, tuple(cycle[1:]) + tuple(cycle[:1])):
        (ax, ay), (bx, by) = pts[a], pts[b]
        total += ax * by - bx * ay
    return total


def fraction_induced_subdivision(A, psi):
    """The lower hull of the lift w_i -> (x_i, y_i, psi_i) in Fractions."""
    n = len(A)
    psi = [Q(p) for p in psi]
    t = A.sign_table()
    lifted = [(p.x, p.y, z) for p, z in zip(A, psi)]
    facets = set()
    for i, j, k in itertools.combinations(range(n), 3):
        o = lifted[i]
        xj, yj, zj = [c - c0 for c, c0 in zip(lifted[j], o)]
        xk, yk, zk = [c - c0 for c, c0 in zip(lifted[k], o)]
        normal = (yj * zk - zj * yk, zj * xk - xj * zk, xj * yk - yj * xk)
        on_plane = []
        for w in range(n):
            side = t[i][j][k] * sum(
                c * (cw - c0) for c, cw, c0 in zip(normal, lifted[w], o)
            )
            if side < 0:
                break
            if side == 0:
                on_plane.append(w)
        else:
            facets.add(frozenset(on_plane))
    cells = [Cell(tuple(convex_hull(A, s)), frozenset(s)) for s in facets]
    return Subdivision(A, cells)


def fraction_parallel_deformations(A, sub):
    """The kernel of the normal-difference map with Fraction rows built from
    the coordinate differences of the edges."""
    verts = sub.interior_vertices()
    vix = {v: t for t, v in enumerate(verts)}
    relevant = sorted(
        (e for e in edge_owners(sub.cells) if any(w in vix for w in e)), key=sorted
    )
    if not verts:
        return []
    rows = []
    for e in relevant:
        lo, hi = sorted(e)
        d = A[hi] - A[lo]
        row = [Q(0)] * (2 * len(verts))
        for w, sgn in ((lo, Q(1)), (hi, Q(-1))):
            if w in vix:
                row[2 * vix[w]] += sgn * (-d.y)
                row[2 * vix[w] + 1] += sgn * d.x
        rows.append(row)
    basis = MatQ(rows).nullspace()
    return [tuple(vec[t, 0] for t in range(vec.rows)) for vec in basis]


def big_point(r):
    """A point whose coordinates have large prime denominators."""
    return pt(Q(r.randint(-BIG, BIG), r.choice(PRIMES)),
              Q(r.randint(-BIG, BIG), r.choice(PRIMES)))


def big_denominator_triangles(r):
    """Concentric triangles whose coordinates have large, pairwise coprime
    denominators: the inner triangle is a shrunken, shifted copy of the
    outer one, so its edges stay parallel and one subdivision is
    exceptional."""
    outer = [big_point(r) for _ in range(3)]
    cx = sum(p.x for p in outer) / 3
    cy = sum(p.y for p in outer) / 3
    lam = Q(r.randint(2, 5), 11)
    dx, dy = Q(1, r.choice(PRIMES)), Q(-1, r.choice(PRIMES))
    inner = [pt(cx + lam * (p.x - cx) + dx, cy + lam * (p.y - cy) + dy) for p in outer]
    return Config(outer + inner)


def frame_configs():
    """Seeded draws of 4 to 8 points, every third from a small box that only
    needs linear general position; draws over large coprime denominators;
    and nested triangles over both small and large denominators."""
    r = rng(93)
    out = []
    for k, n in enumerate([4, 5, 6, 7, 8, 4, 5, 6, 7, 5, 6, 4]):
        if k % 3 == 2:
            out.append(rand_config(r, n, require_strong=False, box=3))
        else:
            out.append(rand_config(r, n))
    out += [Config(big_point(r) for _ in range(n)) for n in (4, 5, 6)]
    out += [concentric_triangles()[0], big_denominator_triangles(r)]
    return out


def test_area2_is_den_squared_times_the_fraction_shoelace():
    """On the `frame_configs()`, `area2` of hulls, triangles, seeded cycles
    and cycles of fewer than three or of repeated points is the integer
    shoelace sum and den^2 times the Fraction one."""
    r = rng(94)
    signs = set()
    for A in frame_configs():
        den = A.int_points()[1]
        n = len(A)
        cycles = [A.hull()] + list(itertools.permutations(range(n), 3))
        for _ in range(20):
            cycles.append(tuple(r.sample(range(n), r.randint(3, n))))
        cycles += [(), (0,), (0, 1), (1, 0), (0, 0, 1), (0, 1, 0, 2)]
        for cyc in cycles:
            got = area2(A, cyc)
            assert type(got) is int
            assert got == shoelace_area2(A, cyc), (A, cyc)
            assert got == den * den * fraction_area2(A, cyc), (A, cyc)
            assert area2(A, list(cyc)) == got
            signs.add((got > 0) - (got < 0))
    assert {-1, 1} <= signs  # a self-crossing cycle may have area 0
    collinear = config((0, 0), ("1/3", "1/3"), ("2/7", "2/7"))
    assert area2(collinear, (0, 1, 2)) == 0
    assert collinear.area_table()[0][1][2] == 0


def test_area_and_sign_tables_match_area2_and_orient():
    """On the 61 `oracle_configs()` and 20 seeded draws of 4 to 8 points,
    every ordered triple of the area table is its integer shoelace sum and
    its `area2`, and of the sign table its `orient`; an entry with a
    repeated index is 0 in both."""
    r = rng(96)
    configs = oracle_configs() + [rand_config(r, 4 + k % 5) for k in range(20)]
    for A in configs:
        area, sign = A.area_table(), A.sign_table()
        for i, j, k in itertools.product(range(len(A)), repeat=3):
            assert area[i][j][k] == shoelace_area2(A, (i, j, k)), (A, i, j, k)
            assert area[i][j][k] == area2(A, (i, j, k)), (A, i, j, k)
            if len({i, j, k}) < 3:
                assert area[i][j][k] == sign[i][j][k] == 0, (A, i, j, k)
            else:
                assert sign[i][j][k] == orient(A, i, j, k), (A, i, j, k)
        assert A.area_table() is area and A.sign_table() is sign


def test_integer_lift_matches_the_fraction_lift():
    """induced_subdivision equals the Fraction-lift lower hull for heights
    given as ints, Fractions and strings, and for every regularity witness."""
    r = rng(95)
    cells = set()
    for A in frame_configs():
        n = len(A)
        lifts = [[r.randint(-3, 3) for _ in range(n)] for _ in range(4)]
        lifts += [[Q(r.randint(-BIG, BIG), r.choice(PRIMES)) for _ in range(n)]
                  for _ in range(3)]
        lifts += [[str(Q(r.randint(-9, 9), r.randint(1, 7))) for _ in range(n)]
                  for _ in range(3)]
        lifts += [[Q(0)] * n, [0] * n, ["0"] * n]
        if n <= 5:
            lifts += [list(w.psi) for w in (is_regular(A, s) for s in
                      enumerate_subdivisions(A)) if w is not None]
        for psi in lifts:
            got = induced_subdivision(A, psi)
            assert got == fraction_induced_subdivision(A, psi), (A, psi)
            cells.add(len(got.cells))
    assert 1 in cells and max(cells) >= 6


def test_integer_deformation_rows_match_the_fraction_rows():
    """parallel_deformations returns exactly the Fraction-row basis, and an
    exceptional subdivision has a nonzero one."""
    exceptional = 0
    for A in frame_configs():
        for sub in enumerate_subdivisions(A):
            got = parallel_deformations(A, sub)
            assert got == fraction_parallel_deformations(A, sub), (A, sub)
            exceptional += bool(got)
    assert exceptional >= 2


@pytest.mark.parametrize(
    "psi", [[0.0, 0, 0, 1], [0, 0, 0, 0.5], [True, 0, 0, 0], [0, 0, 0, False]])
def test_induced_subdivision_rejects_floats_and_booleans(psi):
    with pytest.raises(InvalidInput):
        induced_subdivision(CIRCUIT_B, psi)
