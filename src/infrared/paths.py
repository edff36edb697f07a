"""Convex polygonal paths and the combinatorics of the infrared differential.

For a direction zeta, the zeta-hull of a point set B is the convex hull of
the union of rays w + zeta*R_{>=0}, w in B.  A polygonal path with vertices
in the configuration is *zeta-convex* when it equals the finite part of the
boundary of the zeta-hull of its own vertex set.  Paths are traversed with
the zeta-infinity form

    cross(zeta, w) = dx*y - dy*x

strictly increasing, and a zeta-convex chain turns clockwise at every
intermediate vertex (the hull region lies on its right).  Every order and
tie test along zeta reads that form as `geometry.infinity_keys`.

The height set h(gamma) collects all configuration points lying in the
zeta-hull of gamma apart from the endpoints; intermediate vertices form
l(gamma).  Removing an intermediate vertex w and re-hulling gives the
reduction of gamma at w, which drops the height by exactly one.  Incidence
entries carry the sign (-1)^(rank of w in sorted h(gamma)), the wedge sign
of the infrared differential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    DegeneratePosition,
    InvalidEndpoints,
    InvalidReduction,
)
from .geometry import Config, Dir, infinity_keys, infinity_order


@dataclass(frozen=True)
class PolyPath:
    """An indexed polygonal path in a configuration, tied to a direction."""

    config: Config
    vertices: tuple[int, ...]
    zeta: Dir

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise InvalidEndpoints("a path needs at least two vertices")
        for a, b in zip(self.vertices, self.vertices[1:]):
            if a == b:
                raise InvalidEndpoints("consecutive vertices must differ")

    @property
    def source(self) -> int:
        return self.vertices[0]

    @property
    def target(self) -> int:
        return self.vertices[-1]

    def to_json(self) -> list[int]:
        return list(self.vertices)


@dataclass(frozen=True)
class HeightData:
    l_set: tuple[int, ...]
    h_set: tuple[int, ...]

    @property
    def l(self) -> int:
        return len(self.l_set)

    @property
    def h(self) -> int:
        return len(self.h_set)


@dataclass(frozen=True)
class IncidenceEntry:
    gamma: PolyPath
    removed: int
    gamma_prime: PolyPath
    sign: int


def zeta_hull_chain(A: Config, subset: Iterable[int], zeta: Dir) -> list[int]:
    """Finite boundary part of the zeta-hull of the given points, as the
    index chain ordered by increasing infinity keys.  A single point for
    |S|=1."""
    subset = list(dict.fromkeys(subset))
    if not subset:
        raise InvalidEndpoints("empty point set")
    keys = infinity_keys(A, zeta)
    if len({keys[i] for i in subset}) != len(subset):
        raise DegeneratePosition("projection tie inside zeta-hull input")
    order = sorted(subset, key=keys.__getitem__)
    t = A.sign_table()
    chain: list[int] = []
    for i in order:
        while len(chain) >= 2 and t[chain[-2]][chain[-1]][i] >= 0:
            chain.pop()
        chain.append(i)
    return chain


def zeta_hull(A: Config, subset: Iterable[int], zeta: Dir) -> PolyPath | tuple[int]:
    chain = zeta_hull_chain(A, subset, zeta)
    if len(chain) == 1:
        return (chain[0],)
    return PolyPath(A, tuple(chain), zeta)


def is_zeta_convex(A: Config, vertices: Sequence[int], zeta: Dir) -> bool:
    """Hull-equality definition: the sequence equals the chain of the
    zeta-hull of its own vertex set."""
    if len(vertices) < 2:
        return False
    if len(set(vertices)) != len(vertices):
        return False
    try:
        chain = zeta_hull_chain(A, vertices, zeta)
    except DegeneratePosition:
        return False
    return list(vertices) == chain


def height_data(path: PolyPath) -> HeightData:
    """Intermediate vertices, and all configuration points inside the
    zeta-hull of the path (endpoints excluded)."""
    A, zeta = path.config, path.zeta
    chain = path.vertices
    lset = tuple(sorted(chain[1:-1]))
    keys = infinity_keys(A, zeta)
    lo, hi = keys[chain[0]], keys[chain[-1]]
    members = set(chain[1:-1])
    t = A.sign_table()
    for w in range(len(A)):
        if w in chain:
            continue
        lw = keys[w]
        if not (lo < lw < hi):
            continue
        for a, b in zip(chain, chain[1:]):
            if keys[a] < lw < keys[b]:
                if t[a][b][w] <= 0:
                    members.add(w)
                break
    return HeightData(lset, tuple(sorted(members)))


def enumerate_zeta_convex_paths(
    A: Config, i: int, j: int, zeta: Dir
) -> list[PolyPath]:
    """All zeta-convex paths from w_i to w_j with vertices in A, in
    lexicographic vertex order.

    DFS over the points between w_i and w_j in `infinity_order`, pruning on
    the strict clockwise-turn condition, on an explicit stack of (chain,
    start) so that no recursive closure is left for the cycle collector;
    correctness against the hull-equality oracle is asserted in the test
    suite.
    """
    order, generic = infinity_order(A, zeta)
    if not generic:
        raise DegeneratePosition(
            "configuration not in general position including zeta-infinity"
        )
    pi, pj = order.index(i), order.index(j)
    if not pi < pj:
        raise InvalidEndpoints(
            f"projection of source {i} must be strictly below target {j}"
        )
    ahead = order[pi + 1:pj + 1]
    t = A.sign_table()
    found: list[PolyPath] = []
    # ahead[start:] are the points above chain[-1] in projection, w_j last
    stack = [((i,), 0)]
    while stack:
        chain, start = stack.pop()
        last = chain[-1]
        for k, w in enumerate(ahead[start:], start):
            if len(chain) >= 2 and t[chain[-2]][last][w] >= 0:
                continue
            if w == j:
                found.append(PolyPath(A, chain + (w,), zeta))
            else:
                stack.append((chain + (w,), k + 1))
    found.sort(key=lambda p: p.vertices)
    return found


def paths_by_height(
    A: Config, i: int, j: int, zeta: Dir
) -> dict[int, list[PolyPath]]:
    """The height filtration of Lambda(i, j)."""
    strata: dict[int, list[PolyPath]] = {}
    for p in enumerate_zeta_convex_paths(A, i, j, zeta):
        strata.setdefault(height_data(p).h, []).append(p)
    return strata


def reduce_path(path: PolyPath, w: int) -> PolyPath:
    """Reduction at an intermediate vertex: drop w, re-hull the remaining
    height set together with the endpoints."""
    hd = height_data(path)
    if w not in hd.l_set:
        raise InvalidReduction(f"{w} is not an intermediate vertex")
    A, zeta = path.config, path.zeta
    keep = [path.source, path.target] + [x for x in hd.h_set if x != w]
    new_chain = zeta_hull_chain(A, keep, zeta)
    reduced = PolyPath(A, tuple(new_chain), zeta)
    new_hd = height_data(reduced)
    assert set(new_hd.h_set) == set(hd.h_set) - {w}, "height bookkeeping broke"
    return reduced


def wedge_sign(path: PolyPath, w: int) -> int:
    """(-1)^(rank of w in the sorted height set of the path)."""
    hset = height_data(path).h_set
    return -1 if hset.index(w) % 2 else 1


def incidence(
    A: Config, zeta: Dir, i: int, j: int, m: int
) -> list[IncidenceEntry]:
    """All single-reduction incidences from height m+1 down to height m."""
    strata = paths_by_height(A, i, j, zeta)
    out = []
    for gamma in strata.get(m + 1, []):
        for w in height_data(gamma).l_set:
            gp = reduce_path(gamma, w)
            assert height_data(gp).h == m
            out.append(IncidenceEntry(gamma, w, gp, wedge_sign(gamma, w)))
    return out
