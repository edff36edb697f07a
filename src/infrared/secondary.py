"""Marked subdivisions of planar point configurations and their secondary
polytope combinatorics.

A subdivision is a list of marked cells (convex polygon with vertex indices
in the configuration, plus a marked subset containing the polygon's
corners); points marked nowhere are `omitted`.  A `Subdivision` is checked
when it is built, so no routine here checks one, and it keeps only its
cells and its edge mask: a routine that needs its edges one by one (the
interior edges, the folds of the lift) reads them off the cells' boundary
cycles.  Regularity is exact strict feasibility of the lifting system in
the heights psi: on each cell the lift is the affine function through psi
at three of its corners, and it must take the value psi at every other
marked point of the cell (equality rows), break convexly across every
interior edge and pass strictly below every unmarked point of the cell
(strict rows).  Every row is integral: a barycentric row times the doubled
area of its basis triangle.

`secondary_fan` decides it for a whole family on the secondary fan (Gelfand,
Kapranov and Zelevinsky, *Discriminants, Resultants and Multidimensional
Determinants*, 1994, Ch. 7; De Loera, Rambau and Santos, *Triangulations*,
2010, Ch. 5), level by codim: the lifts of S modulo affine functions are the
kernel of its equality rows, of dimension codim S; at codim 1 the sign of
the strict rows at the one kernel vector decides S and gives its ray, and
above, S is regular exactly when the sum of the rays S refines induces it.
An exact LP in the heights and a slack (`is_regular`) is the oracle of the
route.

The three-term deformation complex of a subdivision has cells, interior
edges and interior vertices in degrees 0, 1, 2 with restriction
differentials signed by co-orientations; its middle cohomology dimension is
the exceptionality.  Its H^0, the piecewise-affine functions, plus free
values at omitted points, is the space D of lifts, and codim S = dim D - 3
is the nullity of the equality rows.  `deformation_complex` takes that one
rank and builds no differential: H^2 is 0, and the Euler relation gives the
exceptionality.

Only signs and equalities of determinants matter here, so the module does
no coordinate arithmetic: signs come from `Config.sign_table()`, triangle
areas from `Config.area_table()`, a polygon's from `geometry.area2` (the
fan of table areas about its first corner), lifts and edge directions from
`Config.int_points()` (each the true value times a positive factor of the
configuration), and the framing projection from `geometry.infinity_keys`
on that frame.

Two routines rest on standard facts about subdivisions of a configuration
in linear general position, no three points collinear (De Loera, Rambau and
Santos, *Triangulations*, Springer 2010, Ch. 2-3).  A marked subdivision is
its edge set E plus its marked set.  `enumerate_subdivisions` builds E as the
hull ring plus a crossing-free set of other segments, and keeps it exactly
when no vertex of E off the hull has all its E-neighbours in a closed
half-plane through it (the corner criterion); then every face of E is a
convex cell, and each point E does not touch lies inside exactly one cell,
marked or not.  `refines` compares edge sets: a fine cell lies in a coarse
cell exactly when no coarse edge crosses it, so fine <= coarse exactly when
every coarse edge is a fine edge and every fine-marked point is marked in
the coarse subdivision.  `enumerate_*` and `induced_subdivision` reject
configurations that are not in linear general position.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, mul
from typing import Iterable, Optional, Sequence

from . import lp
from .errors import DegeneratePosition, EnumerationLimit, InvalidInput
from .geometry import Config, Dir, area2, convex_hull, general_position, infinity_keys
from .linalg import MatQ, _int_row, int_kernel, int_rank

Q = Fraction
_ZERO = Q(0)  # one object for the many 0 heights a family's witnesses hold

DEFAULT_MAX_N = 8


def enumeration_bound() -> int:
    text = os.environ.get("INFRARED_MAX_N", str(DEFAULT_MAX_N))
    try:
        return int(text)
    except ValueError:
        raise InvalidInput(
            f"INFRARED_MAX_N must be an integer, got {text!r}"
        ) from None


# ---------------------------------------------------------------------------
# cells and subdivisions


@dataclass(frozen=True)
class Cell:
    polygon: tuple[int, ...]       # counterclockwise corner cycle
    marked: frozenset[int]

    def __post_init__(self):
        if not set(self.polygon) <= self.marked:
            raise InvalidInput("marked set must contain the cell's corners")


def _canon_cycle(cycle: Sequence[int]) -> tuple[int, ...]:
    k = cycle.index(min(cycle))
    return tuple(cycle[k:]) + tuple(cycle[:k])


class Subdivision:
    """A polygonal decomposition of (Conv(A), A) into marked cells.  The
    constructor checks it and raises InvalidInput on a bad one, so every
    Subdivision is valid.  It keeps its cells, sorted into one canonical
    order, and `edge_mask`, bit a n + b for each cell edge ab (a < b); its
    `bits` are computed on first use and kept, and its omitted set is read
    from them.  Whatever else a reader needs of its edges, it works out
    from the cells.

    Each cell has positive area and all its marked points, corners
    included, weakly inside, so it is convex and counterclockwise.  The
    tiling is a degree count on the cells' directed edges: none occurs
    twice, and those whose reverse does not occur are exactly the
    counterclockwise hull edges.  The interior edges then cancel in the sum
    of the cell boundaries, which is the hull ring, so each point off the
    edges lies in as many cells as the ring winds about it: one inside the
    hull, none outside.  So the cells cover the hull without overlap, meet
    along whole common edges, and no corner lies inside another cell.  It
    follows that each hull edge is a side of one cell and each other edge
    of two, so the corners of the cells number 2 E + |hull| over the E
    interior edges."""

    def __init__(self, A: Config, cells: Iterable[Cell]):
        cells, n = list(cells), len(A)
        for c in cells:  # the sort below reads every index: check them first
            for w in itertools.chain(c.polygon, c.marked):
                if type(w) is not int or not 0 <= w < n:
                    raise InvalidInput(f"cell {c.polygon} holds {w!r}, which is "
                                       f"not a point index 0..{n - 1}")
            if len(c.polygon) < 3:
                raise InvalidInput(f"cell {c.polygon} has fewer than three corners")
        self.config = A
        self.cells = tuple(
            sorted(
                (
                    c if c.polygon[0] == min(c.polygon)
                    else Cell(_canon_cycle(c.polygon), c.marked)
                    for c in cells
                ),
                key=lambda c: (c.polygon, sorted(c.marked)),
            )
        )
        if not self.cells:
            raise InvalidInput("empty subdivision")
        darts: set[tuple[int, int]] = set()
        mask = 0
        t = A.sign_table()
        for c in self.cells:
            poly = c.polygon
            if area2(A, poly) <= 0:
                raise InvalidInput(f"cell {poly} is not counterclockwise")
            for w in c.marked:
                if not _point_in_polygon(t, poly, w):
                    raise InvalidInput(f"marked point {w} outside cell {poly}")
            for a, b in zip(poly, poly[1:] + poly[:1]):
                if (a, b) in darts:
                    raise InvalidInput(f"cells overlap left of edge {a}->{b}")
                darts.add((a, b))
                mask |= 1 << (a * n + b if a < b else b * n + a)
        hull = A.hull()
        ring = set(zip(hull, hull[1:] + hull[:1]))
        loose = {d for d in darts if d[::-1] not in darts}
        if loose != ring:
            a, b = min(loose ^ ring)
            raise InvalidInput(f"cells do not tile the hull: their boundary "
                               f"is not the hull ring at edge {a}->{b}")
        self.edge_mask = mask

    def key(self):
        return tuple([(c.polygon, tuple(sorted(c.marked))) for c in self.cells])

    @cached_property
    def bits(self) -> int:
        """The edges and the omitted points as one int: `edge_mask` and bit
        n n + w for an omitted point w.  `refines` is a test on these bits."""
        n = len(self.config)
        marked = 0
        for c in self.cells:
            for w in c.marked:
                marked |= 1 << w
        return self.edge_mask + ((~marked & ((1 << n) - 1)) << (n * n))

    @property
    def omitted(self) -> frozenset[int]:
        """The points marked in no cell, read from `bits`."""
        n = len(self.config)
        high = self.bits >> (n * n)
        return frozenset(w for w in range(n) if high >> w & 1)

    def __eq__(self, other):
        return isinstance(other, Subdivision) and self.cells == other.cells

    def __hash__(self):
        return hash(self.cells)

    def __repr__(self):
        cells = "; ".join(
            f"{list(c.polygon)}|{sorted(c.marked)}" for c in self.cells
        )
        return f"Subdivision[{cells}; omitted {sorted(self.omitted)}]"

    def interior_edges(self) -> list[frozenset[int]]:
        darts = _dart_cells(self)
        return [frozenset(d) for d in sorted(darts)
                if d[0] < d[1] and d[::-1] in darts]

    def interior_vertices(self) -> list[int]:
        corners = {w for c in self.cells for w in c.polygon}
        return sorted(corners - set(self.config.hull()))

    def is_triangulation(self) -> bool:
        return all(
            len(c.polygon) == 3 and len(c.marked) == 3 for c in self.cells
        )

    def to_json(self) -> dict:
        return {
            "cells": [
                {"polygon": list(c.polygon), "marked": sorted(c.marked)}
                for c in self.cells
            ],
            "omitted": sorted(self.omitted),
        }

    @staticmethod
    def from_json(A: Config, data: dict) -> "Subdivision":
        return Subdivision(
            A,
            [
                Cell(tuple(c["polygon"]), frozenset(c["marked"]))
                for c in data["cells"]
            ],
        )


def _dart_cells(sub: Subdivision) -> dict[tuple[int, int], int]:
    """Each directed edge (a, b) of a cell's ccw boundary -> the index of
    that cell, in cell order: an interior edge has both directions, in two
    cells, a hull edge one."""
    return {
        d: ci
        for ci, c in enumerate(sub.cells)
        for d in zip(c.polygon, c.polygon[1:] + c.polygon[:1])
    }


def _point_in_polygon(t, cycle: Sequence[int], w: int) -> bool:
    """Weak containment of point w in the closed convex ccw polygon, read
    from the configuration's `sign_table()` t."""
    for a, b in zip(cycle, tuple(cycle[1:]) + (cycle[0],)):
        if t[a][b][w] < 0:
            return False
    return True


# ---------------------------------------------------------------------------
# induced subdivisions from liftings


def induced_subdivision(A: Config, psi: Sequence) -> Subdivision:
    """Lower-hull subdivision of the lift w_i -> (w_i, psi_i), psi given as
    ints, Fractions or strings.  Each axis of the lift is scaled to integers
    by its own positive factor, which changes no side sign."""
    if not general_position(A).lin_general:
        raise DegeneratePosition("lifting needs linearly general position")
    n = len(A)
    heights = _int_row(psi)[0]
    if len(heights) != n:
        raise InvalidInput("one lift value per point")
    t = A.sign_table()
    lifted = [(x, y, z) for (x, y), z in zip(A.int_points()[0], heights)]
    facets: set[frozenset[int]] = set()
    for i, j, k in itertools.combinations(range(n), 3):
        # psi_w minus the plane through the lifted i, j, k has the sign of
        # t[i][j][k] times det(lift_j - lift_i, lift_k - lift_i, lift_w - lift_i)
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
    cells = [
        Cell(tuple(convex_hull(A, support)), frozenset(support))
        for support in facets
    ]
    return Subdivision(A, cells)


# ---------------------------------------------------------------------------
# regularity: the lifting system, the exact LP and the secondary fan


@dataclass(frozen=True, slots=True)
class RegularityWitness:
    """Heights psi whose lower hull induces the subdivision, 0 at the first
    three hull corners, and the slack, which is 1: the lift clears each
    unmarked point and each fold by at least 1, and a witness of
    `secondary_fan` clears the nearest by exactly 1."""

    psi: tuple[Fraction, ...]
    slack: Fraction


def _lift_rows(
    A: Config, sub: Subdivision, strict: bool = True
) -> tuple[dict[int, int], list[list[int]]]:
    """The lifting system of `sub` over the heights psi, 0 at the first three
    hull corners: (the column of each other point, the rows).  Each row holds
    f_cell(w) - psi_w, times the doubled area of the cell's basis triangle
    (positive, so the row is integral), over the free heights, and then one
    slack coefficient: 0 on an equality row (a marked point of the cell off
    its basis triangle), the doubled area on a strict row (an unmarked point
    in the cell, or the fold across an interior edge).  A lift psi induces
    `sub` exactly when every equality row is 0 at psi and every strict row
    is negative there.  Rows come cell by cell, each cell's equality rows
    first, and then the folds, one per interior edge in the order of the
    edge's first occurrence on the cells' boundaries; with `strict` false,
    only the equality rows.
    Areas are read from `A.area_table()`."""
    n = len(A)
    fixed = A.hull()[:3]
    var = {w: k for k, w in enumerate(w for w in range(n) if w not in fixed)}
    s_idx = len(var)
    nvars = s_idx + 1

    area, t = A.area_table(), A.sign_table()

    def excess(cell: Cell, w: int, slack: bool) -> list[int]:
        a, b, c = cell.polygon[:3]
        det, lb, lc = area[a][b][c], area[a][w][c], area[a][b][w]
        row = [0] * nvars
        for p, coef in ((a, det - lb - lc), (b, lb), (c, lc), (w, -det)):
            if p in var:
                row[var[p]] += coef
        if slack:
            row[s_idx] = det
        return row

    rows: list[list[int]] = []
    for cell in sub.cells:
        for w in sorted(cell.marked.difference(cell.polygon[:3])):
            rows.append(excess(cell, w, False))
        if strict:
            for w in range(n):
                if w not in cell.marked and _point_in_polygon(t, cell.polygon, w):
                    rows.append(excess(cell, w, True))
    if strict:
        darts = _dart_cells(sub)
        for (a, b), ci in darts.items():
            cj = darts.get((b, a), -1)
            if cj > ci:  # the edge's first cell, ci, and the other, cj
                probe = next(w for w in sub.cells[cj].polygon if w != a and w != b)
                rows.append(excess(sub.cells[ci], probe, True))
    return var, rows


def _witness(var: dict[int, int], psi: Sequence[Fraction], slack=Q(1)) -> RegularityWitness:
    """The witness with free heights psi, 0 at the three fixed corners."""
    return RegularityWitness(
        tuple(psi[var[w]] if w in var else _ZERO for w in range(len(var) + 3)), slack
    )


def is_regular(A: Config, sub: Subdivision) -> Optional[RegularityWitness]:
    """Strict-feasibility test by exact LP; returns a witness or None
    (irregular).  `secondary_fan` decides every subdivision without it; this
    is the oracle it is tested against.

    The unknowns are the free heights of `_lift_rows` and the slack s,
    maximized subject to s <= 1: each equality row is two inequalities,
    each strict row reads f_cell(w) + s <= psi_w (times its doubled area),
    so the optimum is positive exactly when the subdivision is regular.  The
    system is homogeneous apart from s <= 1, so a regular subdivision's
    witness has slack 1: its lift clears each unmarked point and each fold by
    at least 1.
    """
    var, lift = _lift_rows(A, sub)
    s_idx = len(var)
    rows: list[list[int]] = []
    for row in lift:
        rows += [row] if row[s_idx] else [row, [-v for v in row]]
    rows.append([0] * s_idx + [1])
    rhs = [0] * (len(rows) - 1) + [1]
    objective = [0] * s_idx + [1]
    value, x = lp.maximize(objective, rows, rhs)
    if value <= 0:
        return None
    return _witness(var, x, value)


def secondary_fan(
    A: Config,
) -> list[tuple[Subdivision, DefComplexReport, Optional[RegularityWitness]]]:
    """Every marked subdivision of A, in the order of
    `enumerate_subdivisions`, with its `deformation_complex` report and its
    witness (None when irregular), decided level by level on the secondary
    fan.  The lifts of S modulo affine functions are the kernel of its
    equality rows (`_lift_rows`), of dimension codim S.
      * codim 0: psi = 0 is the only lift, so S is regular exactly when it
        has no strict row;
      * codim 1: every lift is t v for the one kernel vector v, so S is
        regular exactly when every strict row has one strict sign at v; the
        ray is the primitive integer vector +-v making them negative;
      * codim >= 2: psi_S is the sum of the rays of the regular codim-1 S'
        that S refines, and S is regular exactly when psi_S induces it.
    The last step needs no other test.  The cone of a regular S is generated
    by the rays of the regular codim-1 subdivisions that S refines, and the
    family is the whole of `enumerate_subdivisions(A)`, so every one of
    those rays is among the ones summed: psi_S, the sum of a cone's
    generators, is interior to the cone and induces S.  So an S that psi_S
    does not induce is irregular.  Each witness is scaled so that its least
    strict margin -row.psi / area is exactly 1."""
    subs = enumerate_subdivisions(A)
    reps = [deformation_complex(A, sub) for sub in subs]
    witnesses: list[Optional[RegularityWitness]] = [None] * len(subs)
    rays: list[tuple[Subdivision, list[int]]] = []
    for i in sorted(range(len(subs)), key=lambda i: reps[i].codim):
        sub, codim = subs[i], reps[i].codim
        var, rows = _lift_rows(A, sub)
        s_idx = len(var)
        psi = [0] * s_idx
        if codim == 1:
            (v,) = int_kernel([row for row in rows if not row[s_idx]], s_idx)
            psi = v if _induces(rows, s_idx, v) else [-x for x in v]
        else:  # at codim 0 no ray is known yet, and psi stays 0
            for ray, vec in rays:
                if refines(sub, ray):
                    psi = list(map(add, psi, vec))
        if _induces(rows, s_idx, psi):
            witnesses[i] = _scaled(var, rows, psi)
            if codim == 1:
                rays.append((sub, psi))
    return list(zip(subs, reps, witnesses))


def _induces(rows: list[list[int]], s_idx: int, psi: list[int]) -> bool:
    """Every equality row is 0 and every strict row negative at the free
    heights psi.  The dot products stop at the slack column, psi being one
    entry shorter than a row."""
    for row in rows:
        dot = sum(map(mul, row, psi))
        if (dot >= 0 if row[s_idx] else dot != 0):
            return False
    return True


def _scaled(var: dict[int, int], rows: list[list[int]], psi: list[int]) -> RegularityWitness:
    """The witness lambda psi, lambda = max(area / -row.psi) over the strict
    rows (all negative at psi), so that its least margin is exactly 1; psi
    itself (0) when there is no strict row."""
    s_idx = len(var)
    num, den = 0, 1  # lambda = num / den
    for row in rows:
        if row[s_idx]:
            margin = -sum(map(mul, row, psi))
            if row[s_idx] * den > num * margin:
                num, den = row[s_idx], margin
    return _witness(var, [Q(x * num, den) if x else _ZERO for x in psi])


# ---------------------------------------------------------------------------
# enumeration


def _cell_cycles(A: Config, nbrs: dict[int, list[int]]) -> list[tuple[int, ...]]:
    """The cells of a kept edge set as ccw corner cycles starting at their
    least index, traced along the ccw hull ring and both directions of every
    other edge: after u -> v the next corner is the neighbour w of v with
    t[v][u][w] < 0 that no other such neighbour beats clockwise."""
    t = A.sign_table()
    hull = A.hull()
    outside = set(zip(hull[1:] + hull[:1], hull))
    todo = {(u, v) for u, vs in nbrs.items() for v in vs} - outside
    cycles = []
    while todo:
        u, v = todo.pop()
        cycle = [u]
        while v != cycle[0]:
            cycle.append(v)
            after = [w for w in nbrs[v] if t[v][u][w] < 0]
            w = next(
                w for w in after if all(t[v][w][x] < 0 for x in after if x != w)
            )
            todo.remove((v, w))
            u, v = v, w
        cycles.append(_canon_cycle(cycle))
    return cycles


def _corner_ok(t, v: int, taken: list[tuple[int, int]]) -> bool:
    """The corner test at vertex v of the edge set `taken`: no neighbour u
    of v has all the other neighbours on one side of the line through v and
    u (vacuous when v has no neighbour)."""
    vs = [b if a == v else a for a, b in taken if v == a or v == b]
    return all(len({t[v][u][w] for w in vs if w != u}) == 2 for u in vs)


def enumerate_subdivisions(A: Config) -> list[Subdivision]:
    """All marked subdivisions in key order, each built (and checked) once.
    A depth-first search decides the segments off the hull ring one by one
    in index order, taking a segment only when it crosses none taken.  A
    point off the hull has its edges final once its last segment is decided,
    so the corner test runs on it then, and a branch where it fails is
    dropped.  Each crossing-free set the search completes gives its cells,
    and each subset of the points it leaves untouched, marked in the cells
    around them, gives one subdivision."""
    n = len(A)
    if n < 3:
        raise InvalidInput("a marked polygon needs at least three points")
    if n > enumeration_bound():
        raise EnumerationLimit(
            f"N={n} exceeds the enumeration bound {enumeration_bound()}"
        )
    if not general_position(A).lin_general:
        raise DegeneratePosition("subdivision enumeration needs general position")
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
    # closing[k]: the points off the hull whose last segment is segs[k]
    pos = {e: k for k, e in enumerate(segs)}
    closing: list[list[int]] = [[] for _ in segs]
    for v in range(n):
        if v not in hull:
            closing[max(k for k, e in enumerate(segs) if v in e)].append(v)
    subs = []
    stack = [(ring, segs)]  # edges taken, segments still free to take
    while stack:
        taken, free = stack.pop()
        if free:
            e, rest = free[0], free[1:]
            k = pos[e]
            for edges, left in (
                (taken, rest),
                (taken + [e], [f for f in rest if (e, f) not in crossing]),
            ):
                # the segments before left[0] are decided: test the points
                # whose last one lies from e up to there
                stop = pos[left[0]] if left else len(segs)
                if all(
                    _corner_ok(t, v, edges)
                    for closed in closing[k:stop]
                    for v in closed
                ):
                    stack.append((edges, left))
            continue
        nbrs: dict[int, list[int]] = {}
        for a, b in taken:
            nbrs.setdefault(a, []).append(b)
            nbrs.setdefault(b, []).append(a)
        cycles = _cell_cycles(A, nbrs)
        loose = [w for w in range(n) if w not in nbrs]
        home = {
            w: next(k for k, cyc in enumerate(cycles) if _point_in_polygon(t, cyc, w))
            for w in loose
        }
        # cells that mark no extra point share their corner set
        corners = [frozenset(cyc) for cyc in cycles]
        for r in range(len(loose) + 1):
            for extra in itertools.combinations(loose, r):
                marked = list(corners)
                for w in extra:
                    marked[home[w]] |= {w}
                subs.append(Subdivision(
                    A, [Cell(c, m) for c, m in zip(cycles, marked)]))
    return sorted(subs, key=lambda s: s.key())


def enumerate_triangulations(A: Config) -> list[Subdivision]:
    """All marked triangulations, in key order: hull corners are mandatory,
    interior points optional (omitted when unused)."""
    return [s for s in enumerate_subdivisions(A) if s.is_triangulation()]


def gkz_vector(A: Config, T: Subdivision) -> list[int]:
    """The GKZ vector of the triangulation T: entry i sums the
    `A.area_table()` areas of the triangles of T with corner i, so it is 0
    at a point T omits.  The vectors of the regular triangulations are the
    vertices of the secondary polytope (Gelfand, Kapranov and Zelevinsky,
    Ch. 7)."""
    if not T.is_triangulation():
        raise InvalidInput("a GKZ vector needs a triangulation")
    a, phi = A.area_table(), [0] * len(A)
    for cell in T.cells:
        i, j, k = cell.polygon
        for w in cell.polygon:
            phi[w] += a[i][j][k]
    return phi


def refines(fine: Subdivision, coarse: Subdivision) -> bool:
    """fine <= coarse: every fine cell sits in a coarse cell, markings
    included.  Both must subdivide one configuration in linear general
    position; then a fine cell lies in a coarse cell exactly when no
    coarse edge crosses it, that is when every coarse edge is a fine edge,
    and the markings nest when every point omitted by coarse is omitted by
    fine: coarse's `bits` are among fine's."""
    return not coarse.bits & ~fine.bits


def refinement_poset(subs: Sequence[Subdivision], codims: Sequence[int]) -> dict:
    """Covers and height of the refinement poset of `subs`, codims[i] being
    the codim of subs[i].  `subs` must be the complete family of regular
    subdivisions of one configuration: their poset is then the face lattice
    of the secondary polytope, graded by codim (Gelfand, Kapranov and
    Zelevinsky, *Discriminants, Resultants and Multidimensional
    Determinants*, Ch. 7), so T is covered by S exactly when T refines S and
    codim T = codim S + 1, and only adjacent codim levels are compared.
    `covers` lists the (fine, coarse) index pairs in increasing order; the
    height is max codim - min codim, 0 for an empty family."""
    levels: dict[int, list[int]] = {}
    for i, c in enumerate(codims):
        levels.setdefault(c, []).append(i)
    covers = sorted(
        (i, j)
        for c, coarse in levels.items()
        for i in levels.get(c + 1, ())
        for j in coarse
        if refines(subs[i], subs[j])
    )
    return {"covers": covers, "height": max(codims) - min(codims) if codims else 0}


# ---------------------------------------------------------------------------
# deformation complex


@dataclass(frozen=True, slots=True)
class DefComplexReport:
    n_cells: int
    n_interior_edges: int
    n_interior_vertices: int
    dim_def0: int
    dim_def1: int
    dim_def2: int
    h0: int
    exc: int
    h2: int
    n_omitted: int

    @property
    def dim_lift_space(self) -> int:
        """dim D = piecewise-affine lifts plus free omitted values."""
        return self.h0 + self.n_omitted

    @property
    def codim(self) -> int:
        return self.dim_lift_space - 3


def deformation_complex(A: Config, sub: Subdivision) -> DefComplexReport:
    """The deformation complex of `sub`, read off its equality lift rows.
    The lifts modulo the 3 affine functions are their kernel, of dimension
    codim, and a lift is a piecewise-affine function plus free omitted
    values, so h0 = codim + 3 - |omitted|.  h2 = 0: each column of d1 (an
    edge function at one endpoint) has one entry when that endpoint is an
    interior vertex, and every interior vertex ends an interior edge, so d1
    is onto.  The Euler relation h0 - exc + h2 = 3 C - 2 E + V, over the C
    cells, E interior edges and V interior vertices, then gives exc; E is
    (corners - |hull|) / 2 by the degree count of `Subdivision`."""
    var, rows = _lift_rows(A, sub, strict=False)
    codim = len(var) - int_rank(rows)
    omitted = len(sub.omitted)
    h0 = codim + 3 - omitted
    cells = len(sub.cells)
    edges = (sum(len(c.polygon) for c in sub.cells) - len(A.hull())) // 2
    verts = len(sub.interior_vertices())
    return DefComplexReport(
        cells, edges, verts, 3 * cells, 2 * edges, verts,
        h0, h0 - 3 * cells + 2 * edges - verts, 0, omitted,
    )


def parallel_deformations(A: Config, sub: Subdivision) -> list[tuple]:
    """Basis of restricted deformations moving only interior vertices so
    that every edge stays parallel; the kernel of the normal-difference
    map, whose integer rows are one positive multiple of the true ones.  Its
    dimension equals the exceptionality."""
    verts = sub.interior_vertices()
    if not verts:
        return []
    vix = {v: t for t, v in enumerate(verts)}
    # a hull edge joins two hull corners, so only interior edges are relevant
    relevant = [e for e in sub.interior_edges() if any(w in vix for w in e)]
    pts = A.int_points()[0]
    rows = []
    for e in relevant:
        lo, hi = sorted(e)
        dx, dy = pts[hi][0] - pts[lo][0], pts[hi][1] - pts[lo][1]
        row = [0] * (2 * len(verts))
        for w, sgn in ((lo, 1), (hi, -1)):
            if w in vix:
                # normal projection: cross(direction, velocity)
                row[2 * vix[w]] -= sgn * dy
                row[2 * vix[w] + 1] += sgn * dx
        rows.append(row)
    basis = MatQ(rows).nullspace()
    return [tuple(vec[t, 0] for t in range(vec.rows)) for vec in basis]


def coarse_subdivisions(A: Config) -> list[Subdivision]:
    """Regular subdivisions indexing codimension-1 faces of the secondary
    polytope: the rays of the secondary fan."""
    return [s for s, rep, w in secondary_fan(A) if rep.codim == 1 and w is not None]


# ---------------------------------------------------------------------------
# framings and content


@dataclass(frozen=True)
class Framing:
    polygon: tuple[int, ...]
    alpha: int
    omega: int
    d_plus: tuple[int, ...]
    d_minus: tuple[int, ...]


def framing(A: Config, polygon: Sequence[int], zeta: Dir) -> Framing:
    """Source/target vertices at the extremes of the projection orthogonal
    to zeta; d_plus is the counterclockwise boundary arc from alpha to
    omega."""
    poly = _canon_cycle(list(polygon))
    if area2(A, poly) < 0:
        poly = _canon_cycle(list(reversed(poly)))
    keys = infinity_keys(A, zeta)
    vals = [keys[w] for w in poly]
    if len(set(vals)) != len(vals):
        raise DegeneratePosition("projection tie on the polygon's corners")
    ai = vals.index(min(vals))
    oi = vals.index(max(vals))
    m = len(poly)
    d_plus = tuple(poly[(ai + k) % m] for k in range((oi - ai) % m + 1))
    d_minus = tuple(poly[(ai - k) % m] for k in range((ai - oi) % m + 1))
    return Framing(poly, poly[ai], poly[oi], d_plus, d_minus)


def content(A: Config, fr: Framing) -> int:
    """Number of configuration points in the polygon but off the d_plus
    arc: interior points plus those strictly inside d_minus."""
    inside = 0
    plus = set(fr.d_plus)
    t = A.sign_table()
    for w in range(len(A)):
        if w in plus:
            continue
        if _point_in_polygon(t, fr.polygon, w):
            inside += 1
    return inside
