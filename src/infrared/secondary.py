"""Marked subdivisions of planar point configurations and their secondary
polytope combinatorics.

A subdivision is a list of marked cells (convex polygon with vertex indices
in the configuration, plus a marked subset containing the polygon's
corners); points marked nowhere are `omitted`.  Regularity is exact strict
feasibility of the lifting system, decided by a slack-maximizing rational
simplex: the lift must be affine on each cell through the marked values,
break convexly across every interior edge, and pass strictly below every
unmarked point of each cell.

The three-term deformation complex of a subdivision has cells, interior
edges and interior vertices in degrees 0, 1, 2 with restriction
differentials signed by co-orientations; its middle cohomology dimension is
the exceptionality, and codim F = dim D - 3 with D the space of lifts
(piecewise-affine values plus free values at omitted points).

Two routines rest on counting facts about triangulations of a configuration
in linear general position, no three points collinear (De Loera, Rambau and
Santos, *Triangulations*, Springer 2010, Ch. 2-3).  `_merge_cells` coarsens a
triangulation: a group of k of its triangles with corner set V is one convex
cell exactly when k == 2|V| - |hull(V)| - 2, the number of triangles of every
triangulation of V.  `refines` compares edge sets: a fine cell lies in a
coarse cell exactly when no coarse edge crosses it, so fine <= coarse exactly
when every coarse edge is a fine edge and every fine-marked point is marked
in the coarse subdivision.  `enumerate_*` and `induced_subdivision` reject
configurations that are not in linear general position.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from . import lp
from .errors import DegeneratePosition, EnumerationLimit, InvalidInput
from .geometry import Config, Dir, convex_hull, general_position
from .linalg import MatQ

Q = Fraction

DEFAULT_MAX_N = 8


def enumeration_bound() -> int:
    return int(os.environ.get("INFRARED_MAX_N", DEFAULT_MAX_N))


# ---------------------------------------------------------------------------
# cells and subdivisions


@dataclass(frozen=True)
class Cell:
    polygon: tuple[int, ...]       # counterclockwise corner cycle
    marked: frozenset[int]

    def __post_init__(self):
        if not set(self.polygon) <= self.marked:
            raise InvalidInput("marked set must contain the cell's corners")

    def edges(self) -> list[frozenset[int]]:
        poly = self.polygon
        return [
            frozenset((a, b)) for a, b in zip(poly, poly[1:] + poly[:1])
        ]


def _canon_cycle(cycle: Sequence[int]) -> tuple[int, ...]:
    k = cycle.index(min(cycle))
    return tuple(cycle[k:]) + tuple(cycle[:k])


class Subdivision:
    """A polygonal decomposition of (Conv(A), A) into marked cells.  Its key,
    marked set and edge map are computed on first use and kept."""

    def __init__(self, A: Config, cells: Iterable[Cell]):
        self.config = A
        self.cells = tuple(
            sorted(
                (Cell(_canon_cycle(c.polygon), c.marked) for c in cells),
                key=lambda c: (c.polygon, sorted(c.marked)),
            )
        )
        self._valid = False  # set once validate_subdivision has passed

    @cached_property
    def _key(self):
        return tuple([(c.polygon, tuple(sorted(c.marked))) for c in self.cells])

    def key(self):
        return self._key

    @cached_property
    def marked(self) -> frozenset[int]:
        """The points marked in some cell."""
        return frozenset().union(*[c.marked for c in self.cells])

    @cached_property
    def omitted(self) -> frozenset[int]:
        return frozenset(range(len(self.config))) - self.marked

    @cached_property
    def edge_cells(self) -> dict[frozenset[int], list[int]]:
        """Each cell edge -> the indices of the cells that have it, in cell
        order: two for an interior edge, one for a hull edge."""
        owners: dict[frozenset[int], list[int]] = {}
        for ci, c in enumerate(self.cells):
            for e in c.edges():
                owners.setdefault(e, []).append(ci)
        return owners

    def __eq__(self, other):
        return isinstance(other, Subdivision) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        cells = "; ".join(
            f"{list(c.polygon)}|{sorted(c.marked)}" for c in self.cells
        )
        return f"Subdivision[{cells}; omitted {sorted(self.omitted)}]"

    def interior_edges(self) -> list[frozenset[int]]:
        return sorted(
            (e for e, owners in self.edge_cells.items() if len(owners) == 2),
            key=sorted,
        )

    def interior_vertices(self) -> list[int]:
        hull = set(self.config.hull())
        verts = set()
        for c in self.cells:
            verts |= set(c.polygon)
        return sorted(verts - hull)

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


def _polygon_area2(A: Config, cycle: Sequence[int]) -> Fraction:
    total = Q(0)
    for a, b in zip(cycle, tuple(cycle[1:]) + (cycle[0],)):
        total += A[a].x * A[b].y - A[b].x * A[a].y
    return total


def _point_in_polygon(A: Config, cycle: Sequence[int], w: int) -> bool:
    """Weak containment of point w in the closed convex ccw polygon."""
    t = A.sign_table()
    for a, b in zip(cycle, tuple(cycle[1:]) + (cycle[0],)):
        if t[a][b][w] < 0:
            return False
    return True


def validate_subdivision(sub: Subdivision) -> None:
    """Cover, common-face and marking checks; raises InvalidInput.  A
    subdivision that passed once is not checked again."""
    if sub._valid:
        return
    A = sub.config
    if not sub.cells:
        raise InvalidInput("empty subdivision")
    hull = A.hull()
    for c in sub.cells:
        if _polygon_area2(A, c.polygon) <= 0:
            raise InvalidInput(f"cell {c.polygon} is not counterclockwise")
        for w in c.marked:
            if not _point_in_polygon(A, c.polygon, w):
                raise InvalidInput(f"marked point {w} outside cell {c.polygon}")
    if sum(_polygon_area2(A, c.polygon) for c in sub.cells) != _polygon_area2(
        A, hull
    ):
        raise InvalidInput("cells do not tile the hull")
    hull_edges = {
        frozenset((a, b)) for a, b in zip(hull, hull[1:] + hull[:1])
    }
    for e, owners in sub.edge_cells.items():
        k = len(owners)
        if e in hull_edges:
            if k != 1:
                raise InvalidInput(f"hull edge {sorted(e)} shared {k} times")
        elif k != 2:
            raise InvalidInput(f"edge {sorted(e)} shared {k} times")
    # no corner of one cell strictly inside another cell
    t = A.sign_table()
    corners = set()
    for c in sub.cells:
        corners |= set(c.polygon)
    for c in sub.cells:
        edges = list(zip(c.polygon, c.polygon[1:] + c.polygon[:1]))
        for w in corners - set(c.polygon):
            if all(t[a][b][w] > 0 for a, b in edges):
                raise InvalidInput(
                    f"corner {w} inside cell {c.polygon}: not a common-face "
                    "decomposition"
                )
    sub._valid = True


# ---------------------------------------------------------------------------
# induced subdivisions from liftings


def induced_subdivision(A: Config, psi: Sequence) -> Subdivision:
    """Lower-hull subdivision of the lift w_i -> (w_i, psi_i)."""
    if not general_position(A).lin_general:
        raise DegeneratePosition("lifting needs linearly general position")
    n = len(A)
    psi = [Q(p) if not isinstance(p, Fraction) else p for p in psi]
    if len(psi) != n:
        raise InvalidInput("one lift value per point")
    t = A.sign_table()
    facets: dict[frozenset[int], tuple] = {}
    for i, j, k in itertools.combinations(range(n), 3):
        if t[i][j][k] == 0:
            continue
        # plane z = ax + by + c through the three lifted points
        mat = MatQ(
            [
                [A[i].x, A[i].y, 1],
                [A[j].x, A[j].y, 1],
                [A[k].x, A[k].y, 1],
            ]
        )
        coef = mat.solve(MatQ.column([psi[i], psi[j], psi[k]]))
        a, b, c = coef.entries[0][0], coef.entries[1][0], coef.entries[2][0]
        below = True
        on_plane = []
        for w in range(n):
            val = psi[w] - (a * A[w].x + b * A[w].y + c)
            if val < 0:
                below = False
                break
            if val == 0:
                on_plane.append(w)
        if not below:
            continue
        facets[frozenset(on_plane)] = (a, b, c)
    cells = []
    seen = set()
    for support in facets:
        if support in seen:
            continue
        seen.add(support)
        cells.append(Cell(tuple(convex_hull(A, support)), frozenset(support)))
    sub = Subdivision(A, cells)
    validate_subdivision(sub)
    return sub


# ---------------------------------------------------------------------------
# regularity by exact LP


@dataclass(frozen=True)
class RegularityWitness:
    psi: tuple[Fraction, ...]
    slack: Fraction


def is_regular(A: Config, sub: Subdivision) -> Optional[RegularityWitness]:
    """Strict-feasibility test; returns a witness or None (irregular).

    Unknowns: one lift value per point and three affine coefficients per
    cell, plus the slack s maximized subject to s <= 1:
      * f_cell(w) = psi_w for marked w,
      * f_cell(w) + s <= psi_w for unmarked w covered by the cell,
      * f_cell(p) + s <= f_other(p) across every interior edge,
    so the optimum is positive exactly when the subdivision is regular.
    """
    validate_subdivision(sub)
    n = len(A)
    ncells = len(sub.cells)
    nvars = n + 3 * ncells + 1
    s_idx = nvars - 1

    def cell_coords(ci: int, w: int):
        base = n + 3 * ci
        return [(base, A[w].x), (base + 1, A[w].y), (base + 2, Q(1))]

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []

    def add_le(terms, bound=Q(0)):
        row = [Q(0)] * nvars
        for idx, coef in terms:
            row[idx] += coef
        rows.append(row)
        rhs.append(bound)

    for ci, cell in enumerate(sub.cells):
        for w in cell.marked:
            # f_ci(w) - psi_w = 0 as two inequalities
            terms = cell_coords(ci, w) + [(w, Q(-1))]
            add_le(terms)
            add_le([(i, -c) for i, c in terms])
        for w in range(n):
            if w in cell.marked:
                continue
            if _point_in_polygon(A, cell.polygon, w):
                add_le(cell_coords(ci, w) + [(w, Q(-1)), (s_idx, Q(1))])

    for e, owners in sub.edge_cells.items():
        if len(owners) != 2:
            continue
        ci, cj = owners
        probe = next(w for w in sub.cells[cj].polygon if w not in e)
        terms = cell_coords(ci, probe) + [
            (i, -c) for i, c in cell_coords(cj, probe)
        ] + [(s_idx, Q(1))]
        add_le(terms)

    add_le([(s_idx, Q(1))], Q(1))
    objective = [Q(0)] * nvars
    objective[s_idx] = Q(1)
    value, x = lp.maximize(objective, rows, rhs)
    if value <= 0:
        return None
    return RegularityWitness(tuple(x[:n]), value)


# ---------------------------------------------------------------------------
# enumeration


def _full_triangulations(A: Config, used: Sequence[int]) -> list[frozenset]:
    """All triangulations of the subconfiguration `used` (every point a
    vertex), as sets of triangle index-triples, via maximal crossing-free
    edge sets."""
    pts = list(used)
    segs = list(itertools.combinations(pts, 2))
    t = A.sign_table()

    def crosses(e1, e2) -> bool:
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
    results: list[frozenset] = []
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
        if all(
            e in s or any(not compatible(e, f) for f in s) for e in segs
        )
    ]

    tris = set()
    for edges in maximal:
        faces = set()
        for tri in itertools.combinations(pts, 3):
            a, b, c = tri
            if (a, b) in edges and (a, c) in edges and (b, c) in edges:
                if not any(
                    w not in tri and _strictly_inside_triangle(A, tri, w)
                    for w in pts
                ):
                    faces.add(frozenset(tri))
        tris.add(frozenset(faces))
    return sorted(tris, key=lambda fs: sorted(sorted(f) for f in fs))


def _strictly_inside_triangle(A: Config, tri, w) -> bool:
    # w is strictly inside exactly when it is strictly on the same side of
    # all three edges, whichever way the triangle turns
    a, b, c = tri
    t = A.sign_table()
    return t[a][b][w] == t[b][c][w] == t[c][a][w] != 0


def enumerate_triangulations(A: Config) -> list[Subdivision]:
    """All marked triangulations: hull corners are mandatory, interior
    points optional (omitted when unused)."""
    n = len(A)
    if n < 3:
        raise InvalidInput("a marked polygon needs at least three points")
    if n > enumeration_bound():
        raise EnumerationLimit(
            f"N={n} exceeds the enumeration bound {enumeration_bound()}"
        )
    if not general_position(A).lin_general:
        raise DegeneratePosition("triangulation enumeration needs general position")
    hull = A.hull()
    interior = [w for w in range(n) if w not in hull]
    t = A.sign_table()
    out = []
    for r in range(len(interior) + 1):
        for extra in itertools.combinations(interior, r):
            used = sorted(set(hull) | set(extra))
            for faces in _full_triangulations(A, used):
                cells = []
                for tri in faces:
                    a, b, c = sorted(tri)
                    ccw = (a, b, c) if t[a][b][c] > 0 else (a, c, b)
                    cells.append(Cell(ccw, frozenset(tri)))
                sub = Subdivision(A, cells)
                expected = 2 * len(used) - 2 - len(hull)
                assert len(sub.cells) == expected, "face count off"
                validate_subdivision(sub)
                out.append(sub)
    uniq = sorted(set(out), key=lambda s: s.key())
    return uniq


def _merge_cells(
    A: Config, sub: Subdivision, drop: Iterable[frozenset[int]]
) -> Optional[Subdivision]:
    """Coarsen by deleting the given interior edges; markings are unions.
    Returns None when a merged cell is not convex.  The result is not
    validated.  `sub` must be a triangulation from `enumerate_triangulations`:
    every cell a triangle marked at its corners only and empty of the points
    it uses.

    A group of k triangles with corner set V is one convex cell exactly when
    k == 2|V| - |hull(V)| - 2: the triangles are empty and do not cross, so
    they extend to a triangulation of V, and every triangulation of V has that
    many triangles."""
    parent = list(range(len(sub.cells)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in drop:
        a, b = (find(o) for o in sub.edge_cells[e])
        if a != b:
            parent[a] = b
    groups: dict[int, list[int]] = {}
    for ci in range(len(sub.cells)):
        groups.setdefault(find(ci), []).append(ci)
    new_cells = []
    for members in groups.values():
        corners = frozenset().union(*[sub.cells[ci].marked for ci in members])
        hull = convex_hull(A, corners)
        if len(members) != 2 * len(corners) - len(hull) - 2:
            return None
        new_cells.append(Cell(tuple(hull), corners))
    return Subdivision(A, new_cells)


def enumerate_subdivisions(A: Config) -> list[Subdivision]:
    """All marked subdivisions arising as coarsenings of triangulations
    (marked sets merged by union), including the triangulations.  Each
    distinct coarsening is validated once, however many triangulations
    it comes from."""
    subs: set[Subdivision] = set()
    for tri in enumerate_triangulations(A):
        subs.add(tri)  # its coarsening that drops no edge
        interior = tri.interior_edges()
        for r in range(1, len(interior) + 1):
            for drop in itertools.combinations(interior, r):
                merged = _merge_cells(A, tri, drop)
                if merged is None or merged in subs:
                    continue
                validate_subdivision(merged)
                subs.add(merged)
    return sorted(subs, key=lambda s: s.key())


def refines(fine: Subdivision, coarse: Subdivision) -> bool:
    """fine <= coarse: every fine cell sits in a coarse cell, markings
    included.  Both must be valid subdivisions of one configuration in linear
    general position; then a fine cell lies in a coarse cell exactly when no
    coarse edge crosses it, that is when every coarse edge is a fine edge."""
    return (
        coarse.edge_cells.keys() <= fine.edge_cells.keys()
        and fine.marked <= coarse.marked
    )


def refinement_poset(subs: Sequence[Subdivision]) -> dict:
    """Strict refinement relation and poset height over the given family."""
    n = len(subs)
    less = [
        [i != j and subs[i] != subs[j] and refines(subs[i], subs[j]) for j in range(n)]
        for i in range(n)
    ]
    heights = [0] * n
    # refines is transitive, so i < j gives i strictly more successors than
    # j: descending successor count is a topological order of the relation
    for i in sorted(range(n), key=lambda i: -sum(less[i])):
        for j in range(n):
            if less[i][j]:
                heights[j] = max(heights[j], heights[i] + 1)
    return {"less": less, "height": max(heights) if heights else 0}


# ---------------------------------------------------------------------------
# deformation complex


@dataclass(frozen=True)
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
    validate_subdivision(sub)
    cells = sub.cells
    edges = sub.interior_edges()
    verts = sub.interior_vertices()
    edge_ix = {e: t for t, e in enumerate(edges)}
    vert_ix = {v: t for t, v in enumerate(verts)}

    # d0: cell functions {1, x, y} -> edge functions (values at endpoints)
    d0 = [[Q(0)] * (3 * len(cells)) for _ in range(2 * len(edges))]
    for ci, cell in enumerate(cells):
        poly = cell.polygon
        for a, b in zip(poly, poly[1:] + poly[:1]):
            e = frozenset((a, b))
            if e not in edge_ix:
                continue
            lo, hi = sorted(e)  # edge directed lower -> higher index
            # +1 when the cell's ccw traversal agrees with the direction
            sign = Q(1) if (a, b) == (lo, hi) else Q(-1)
            row0 = 2 * edge_ix[e]
            for t, w in enumerate((lo, hi)):
                for k, coef in enumerate((Q(1), A[w].x, A[w].y)):
                    d0[row0 + t][3 * ci + k] += sign * coef
    # d1: edge functions -> vertex values; +1 at the head, -1 at the tail
    d1 = [[Q(0)] * (2 * len(edges)) for _ in range(len(verts))]
    for e, t in edge_ix.items():
        lo, hi = sorted(e)
        if lo in vert_ix:
            d1[vert_ix[lo]][2 * t] += Q(-1)
        if hi in vert_ix:
            d1[vert_ix[hi]][2 * t + 1] += Q(1)

    d0m = MatQ(d0) if d0 else MatQ.zeros(0, 3 * len(cells))
    d1m = MatQ(d1) if d1 else MatQ.zeros(0, 2 * len(edges))
    if len(edges) and len(verts):
        assert (d1m @ d0m).is_zero(), "co-orientation signs inconsistent"
    r0 = d0m.rank() if edges else 0
    r1 = d1m.rank() if verts else 0
    h0 = 3 * len(cells) - r0
    h1 = (2 * len(edges) - r1) - r0
    h2 = len(verts) - r1
    return DefComplexReport(
        len(cells),
        len(edges),
        len(verts),
        3 * len(cells),
        2 * len(edges),
        len(verts),
        h0,
        h1,
        h2,
        len(sub.omitted),
    )


def parallel_deformations(A: Config, sub: Subdivision) -> list[tuple]:
    """Basis of restricted deformations moving only interior vertices so
    that every edge stays parallel; the kernel of the normal-difference
    map.  Its dimension equals the exceptionality."""
    verts = sub.interior_vertices()
    vix = {v: t for t, v in enumerate(verts)}
    relevant = sorted(
        (e for e in sub.edge_cells if any(w in vix for w in e)), key=sorted
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
                # normal projection: cross(direction, velocity)
                row[2 * vix[w]] += sgn * (-d.y)
                row[2 * vix[w] + 1] += sgn * d.x
        rows.append(row)
    mat = MatQ(rows)
    basis = mat.nullspace()
    return [tuple(vec.entries[t][0] for t in range(vec.rows)) for vec in basis]


def coarse_subdivisions(A: Config) -> list[Subdivision]:
    """Regular subdivisions indexing codimension-1 faces of the secondary
    polytope."""
    out = []
    for sub in enumerate_subdivisions(A):
        if is_regular(A, sub) is None:
            continue
        if deformation_complex(A, sub).codim == 1:
            out.append(sub)
    return out


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
    if _polygon_area2(A, poly) < 0:
        poly = _canon_cycle(list(reversed(poly)))
    vals = [zeta.infinity_form(A[w]) for w in poly]
    if len(set(vals)) != len(vals):
        raise DegeneratePosition("projection tie on the polygon's corners")
    ai = vals.index(min(vals))
    oi = vals.index(max(vals))
    m = len(poly)
    d_plus = []
    t = ai
    while True:
        d_plus.append(poly[t])
        if t == oi:
            break
        t = (t + 1) % m
    d_minus = []
    t = ai
    while True:
        d_minus.append(poly[t])
        if t == oi:
            break
        t = (t - 1) % m
    return Framing(tuple(poly), poly[ai], poly[oi], tuple(d_plus), tuple(d_minus))


def content(A: Config, fr: Framing) -> int:
    """Number of configuration points in the polygon but off the d_plus
    arc: interior points plus those strictly inside d_minus."""
    inside = 0
    plus = set(fr.d_plus)
    for w in range(len(A)):
        if w in plus:
            continue
        if _point_in_polygon(A, fr.polygon, w):
            inside += 1
    return inside
