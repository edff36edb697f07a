"""Exact rational planar geometry.

Configurations are tuples of points with Fraction coordinates, identified
with complex numbers w = x + iy.  Directions are rational vectors up to
positive scaling; every angular comparison reduces to sign tests of dot and
cross products, so no floating point enters any predicate.

Conventions
-----------
* ``Config.int_points()`` is the integer frame of a configuration: its
  points times the lcm ``den`` of their coordinate denominators, kept per
  configuration.  ``area2(A, cycle)``, the shoelace sum over that frame, is
  den^2 times the doubled signed area of a polygon of A's points, so its
  sign, and every comparison between areas of one configuration, is exact;
  it is the package's one area routine, and sums the triangle areas of
  ``Config.area_table()`` over the fan of the polygon from its first
  corner.  Strong general position compares
  the directions of segments in that frame, reduced by their gcd.
* ``orient(a, b, c) = +1`` means the triangle (a, b, c) is counterclockwise;
  it is the sign of ``area2(A, (a, b, c))``.  ``Config.area_table()`` holds
  ``area2`` of every triangle of points and ``Config.sign_table()`` its
  signs, both filled in one pass per configuration; predicates read the
  signs, and the secondary layer reads triangle areas, from them.
* The "infinity" linear form for zeta is ``cross(zeta, w) = dx*y - dy*x``;
  a configuration is in general position including zeta-infinity when these
  values are pairwise distinct.  ``infinity_keys`` is the one projection
  routine: the form on ``int_points()`` with zeta scaled to integers.  Every
  order and tie test of points along a direction reads it: the spider
  order, the genericity test, the zeta-hulls, heights and pair orders of
  ``paths``, framings and ``plot``.
* The dominance value of a point w in direction zeta is
  ``Re(zeta * w) = dx*x - dy*y`` (complex product), the infinity form of
  (-dy, -dx); ``dominance_order`` is the infinity order of that direction.
* Wall events along a straight leg are computed on the leg scaled to integer
  coordinates.  Their times are roots of integer polynomials of degree <= 2
  (``AlgebraicTime``).  Whether a time lies in (0, 1), and its order among
  others, is read from the integer key floor(t * 2^64); only two times with
  equal keys are compared exactly.  Every other question about a time (a
  sign there) is the exact sign of an integer polynomial at it, with at
  most one integer squaring.
* A wall crossing is one record, ``CrossingSpec``: ``segment_wall_events``
  returns them with their times filled in, and ``wallcross`` folds the same
  records, or ones given by hand without a time, into the transport data.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Optional, Sequence

from .errors import DegeneratePosition, InvalidInput, PathNotGeneric
from .linalg import _frac, _int_row


@dataclass(frozen=True)
class Pt:
    x: Fraction
    y: Fraction

    def __sub__(self, other: "Pt") -> "Pt":
        return Pt(self.x - other.x, self.y - other.y)

    def __add__(self, other: "Pt") -> "Pt":
        return Pt(self.x + other.x, self.y + other.y)

    def cross(self, other: "Pt") -> Fraction:
        return self.x * other.y - self.y * other.x

    def dot(self, other: "Pt") -> Fraction:
        return self.x * other.x + self.y * other.y


def pt(x, y) -> Pt:
    return Pt(_frac(x), _frac(y))


@dataclass(frozen=True)
class Dir:
    """A direction: rational vector up to positive rescaling."""

    dx: Fraction
    dy: Fraction

    def __post_init__(self):
        if self.dx == 0 and self.dy == 0:
            raise InvalidInput("zero direction")

    def opposite(self) -> "Dir":
        return Dir(-self.dx, -self.dy)

    def conjugate(self) -> "Dir":
        return Dir(self.dx, -self.dy)

    def infinity_form(self, p: Pt) -> Fraction:
        """cross(zeta, w) = Im(conj(zeta) w): position across the zeta ray."""
        return self.dx * p.y - self.dy * p.x


def direction(dx, dy) -> Dir:
    return Dir(_frac(dx), _frac(dy))


class Config:
    """An ordered tuple of pairwise distinct marked points w_1..w_N."""

    __slots__ = ("points", "_areas", "_signs", "_hull", "_ints")

    def __init__(self, points: Iterable[Pt]):
        pts = tuple(points)
        if not pts:
            raise InvalidInput("a configuration needs at least one point")
        object.__setattr__(self, "points", pts)
        if len(set(self.int_points()[0])) != len(pts):
            raise InvalidInput("configuration points must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> Pt:
        return self.points[i]

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other):
        return isinstance(other, Config) and self.points == other.points

    def __repr__(self):
        coords = ", ".join(f"({p.x},{p.y})" for p in self.points)
        return f"Config[{coords}]"

    def area_table(self) -> list[list[list[int]]]:
        """a[i][j][k] = area2(self, (i, j, k)) for every ordered triple, 0
        where an index repeats; filled in one pass over the triples of
        `int_points()` together with `sign_table()`, and kept."""
        try:
            return self._areas
        except AttributeError:
            pass
        n = len(self.points)
        pts = self.int_points()[0]
        a = [[[0] * n for _ in range(n)] for _ in range(n)]
        t = [[[0] * n for _ in range(n)] for _ in range(n)]
        for i, j, k in itertools.combinations(range(n), 3):
            (xi, yi), (xj, yj), (xk, yk) = pts[i], pts[j], pts[k]
            # the shoelace sum of (i, j, k), taken about w_i
            d = (xj - xi) * (yk - yi) - (xk - xi) * (yj - yi)
            a[i][j][k] = a[j][k][i] = a[k][i][j] = d
            a[i][k][j] = a[k][j][i] = a[j][i][k] = -d
            s = (d > 0) - (d < 0)
            t[i][j][k] = t[j][k][i] = t[k][i][j] = s
            t[i][k][j] = t[k][j][i] = t[j][i][k] = -s
        self._areas, self._signs = a, t
        return a

    def sign_table(self) -> list[list[list[int]]]:
        """t[i][j][k] = orient(self, i, j, k), the sign of
        `area_table()[i][j][k]`, 0 where an index repeats; kept with it."""
        try:
            return self._signs
        except AttributeError:
            self.area_table()
            return self._signs

    def int_points(self) -> tuple[tuple[tuple[int, int], ...], int]:
        """The points times the lcm `den` of their coordinate denominators,
        as integer pairs, and `den`; computed on first use and kept."""
        try:
            return self._ints
        except AttributeError:
            pass
        xy, den = _int_row([c for p in self.points for c in (p.x, p.y)])
        self._ints = (tuple(zip(xy[::2], xy[1::2])), den)
        return self._ints

    def hull(self) -> tuple[int, ...]:
        """convex_hull(self) as a tuple; computed on first use and kept."""
        try:
            return self._hull
        except AttributeError:
            pass
        self._hull = tuple(convex_hull(self))
        return self._hull

    # JSON schema: {"points": [["x", "y"], ...]} with canonical "num/den"
    # strings (denominator omitted when 1).
    def to_json(self) -> dict:
        return {"points": [[str(p.x), str(p.y)] for p in self.points]}

    @staticmethod
    def from_json(data: dict) -> "Config":
        points = data["points"]
        for p in points:
            if isinstance(p, str):
                raise InvalidInput(f"a point is a pair of rationals, not the string {p!r}")
        return Config(pt(x, y) for x, y in points)


def config(*coords) -> Config:
    return Config(pt(x, y) for x, y in coords)


# ---------------------------------------------------------------------------
# predicates


def area2(A: Config, cycle: Sequence[int]) -> int:
    """The shoelace sum of the polygon `cycle` over `A.int_points()`: den^2
    times its doubled signed area, positive when the cycle runs
    counterclockwise, and 0 for fewer than three points.  It is taken about
    the first corner, as the sum of `A.area_table()` over the fan of
    triangles from it."""
    a = A.area_table()
    return sum(a[cycle[0]][u][v] for u, v in zip(cycle[1:], cycle[2:]))


def orient(A: Config, i: int, j: int, k: int) -> int:
    """Sign of the orientation determinant of (w_i, w_j, w_k); +1 = ccw."""
    if len({i, j, k}) != 3:
        raise InvalidInput("orient needs three distinct indices")
    d = area2(A, (i, j, k))
    return (d > 0) - (d < 0)


@dataclass(frozen=True)
class GPReport:
    lin_general: bool
    strong_lin_general: bool
    incl_infinity: Optional[bool]


def infinity_keys(A: Config, zeta: Dir) -> list[int]:
    """The zeta-infinity form on `A.int_points()`, with zeta scaled to
    integers: at each point a positive multiple, common to all points, of
    `zeta.infinity_form`, so every order and tie along zeta is the same."""
    (dx, dy), _ = _int_row((zeta.dx, zeta.dy))
    return [dx * y - dy * x for x, y in A.int_points()[0]]


def infinity_order(A: Config, zeta: Dir) -> tuple[list[int], bool]:
    """The indices of A sorted by `infinity_keys`, ties in index order, and
    whether the keys are pairwise distinct."""
    keys = infinity_keys(A, zeta)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return order, all(keys[a] != keys[b] for a, b in zip(order, order[1:]))


def infinity_generic(A: Config, zeta: Dir) -> bool:
    """Whether the zeta-infinity form takes pairwise distinct values on A."""
    return infinity_order(A, zeta)[1]


def _direction(dx: int, dy: int) -> tuple[int, int]:
    """Parallel class of a nonzero integer vector: the vector over the gcd
    of its entries, signed to point right or, when vertical, up."""
    g = math.gcd(dx, dy)
    if dx < 0 or (dx == 0 and dy < 0):
        g = -g
    return dx // g, dy // g


def general_position(A: Config, zeta: Optional[Dir] = None) -> GPReport:
    """Check linear / strong linear general position, and distinctness of
    the zeta-infinity form when a direction is given.

    Two segments are parallel exactly when their directions in the integer
    frame, reduced by _direction, agree, so strong position holds when the
    C(N, 2) segments have pairwise distinct reduced directions.
    """
    n = len(A)
    t = A.sign_table()
    lin = all(t[i][j][k] for i, j, k in itertools.combinations(range(n), 3))
    pairs = itertools.combinations(A.int_points()[0], 2)
    strong = lin and len(
        {_direction(bx - ax, by - ay) for (ax, ay), (bx, by) in pairs}
    ) == n * (n - 1) // 2
    infinity = None if zeta is None else infinity_generic(A, zeta)
    return GPReport(lin, strong, infinity)


# ---------------------------------------------------------------------------
# hulls and orders


def convex_hull(A: Config, subset: Optional[Iterable[int]] = None) -> list[int]:
    """Counterclockwise cycle of hull vertex indices (corners only) of the
    given points of A (default all), starting at the smallest participating
    index."""
    t = A.sign_table()
    pts = range(len(A)) if subset is None else set(subset)
    idx = sorted(pts, key=A.int_points()[0].__getitem__)
    if len(idx) == 1:
        return [idx[0]]

    def build(seq):
        out: list[int] = []
        for i in seq:
            while len(out) >= 2 and t[out[-2]][out[-1]][i] <= 0:
                out.pop()
            out.append(i)
        return out

    lower = build(idx)
    upper = build(reversed(idx))
    cycle = lower[:-1] + upper[:-1]
    if len(cycle) < 2:
        cycle = idx[:2] if len(idx) >= 2 else idx
    start = cycle.index(min(cycle))
    return cycle[start:] + cycle[:start]


def dominance_order(A: Config, zeta: Dir) -> list[int]:
    """Indices sorted by increasing Re(zeta w) = dx*x - dy*y, the infinity
    keys of (-dy, -dx).  Ties are an error."""
    keys = infinity_keys(A, Dir(-zeta.dy, -zeta.dx))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    for a, b in zip(order, order[1:]):
        if keys[a] == keys[b]:
            raise DegeneratePosition(
                f"dominance tie between points {a} and {b} for direction "
                f"({zeta.dx},{zeta.dy})"
            )
    return order


def anti_stokes_sequence(
    A: Config, zeta0: Dir, rotation: str = "ccw"
) -> list[int]:
    """Reduced word for the longest permutation read off the half-turn scan.

    Rotating zeta from zeta0 to -zeta0 (counterclockwise by default,
    clockwise with rotation="cw"), each anti-Stokes direction switches two
    adjacent elements of the dominance order; the word records the 1-based
    positions of those switches, i.e. letters s_1 .. s_{N-1}.  The pair
    {i, j} switches at +-(dy, dx), (dx, dy) = w_i - w_j, read in the integer
    frame; strong general position makes these directions pairwise
    non-parallel, so the sign of a cross product orders them.  The pair is
    adjacent in the dominance order when it switches: strong general
    position (checked first) and no pair anti-Stokes at zeta0 leave one pair
    tied at each anti-Stokes direction, and a point between the pair before
    its switch would tie with both there, so two pairs would share that
    direction.
    """
    if rotation not in ("ccw", "cw"):
        raise InvalidInput("rotation must be 'ccw' or 'cw'")
    if not general_position(A).strong_lin_general:
        raise DegeneratePosition("anti-Stokes scan needs strong general position")
    sign = 1 if rotation == "ccw" else -1
    (zx, zy), _ = _int_row((zeta0.dx, zeta0.dy))
    pts = A.int_points()[0]
    events = []
    for i, j in itertools.combinations(range(len(A)), 2):
        (xi, yi), (xj, yj) = pts[i], pts[j]
        ux, uy = yi - yj, xi - xj
        side = zx * uy - zy * ux  # cross(zeta0, u)
        if side == 0:
            raise DegeneratePosition(
                f"start direction is anti-Stokes for pair ({i},{j})"
            )
        if side * sign < 0:
            ux, uy = -ux, -uy
        events.append((ux, uy, i, j))
    # u before v when the turn from u to v has the sign of the rotation
    events.sort(key=cmp_to_key(lambda u, v: sign * (u[1] * v[0] - u[0] * v[1])))

    order = dominance_order(A, zeta0)
    word = []
    for _, _, i, j in events:
        lo = min(order.index(i), order.index(j))
        word.append(lo + 1)
        order[lo], order[lo + 1] = order[lo + 1], order[lo]
    return word


# ---------------------------------------------------------------------------
# exact event times of degree <= 2


class AlgebraicTime:
    """A real algebraic number of degree <= 2 over Q, compared exactly.

    Rational values are stored as a Fraction; irrational ones as the branch
    s = +-1 of t = (-b + s*sqrt(d)) / (2a), a root of a primitive integer
    quadratic a t^2 + b t + c with a > 0 and d = b^2 - 4ac > 0 not a perfect
    square.  `floor64` is the integer key floor(t * 2^64), monotone in t and
    computed with one integer square root; the wall-event engine tests the
    range and sorts on it.  Every other question about a time is the sign of
    an integer polynomial at it (`sign_at`), decided with at most one
    integer squaring, so the exact comparison `<`, which breaks ties of the
    key, takes at most two.  `str` prints the exact value:
    p/q, or (-b + sqrt(d))/(2a) and (-b - sqrt(d))/(2a) with the numbers
    filled in.  The isolating interval [lo, hi], which holds this root and
    not its conjugate, and `refine`, which halves it, serve as a bisection
    oracle outside the package; no comparison uses them.
    """

    __slots__ = ("rational", "a", "b", "c", "branch", "_interval", "_floor64")

    def __init__(self, rational=None, quad=None, branch=0):
        self.rational = rational
        self._floor64 = None
        if rational is None:
            self.a, self.b, self.c = quad
            self.branch = branch
            self._interval = None
        else:
            self.a = self.b = self.c = None
            self.branch = 0
            self._interval = (rational, rational)

    @staticmethod
    def from_rational(r) -> "AlgebraicTime":
        return AlgebraicTime(rational=Fraction(r))

    @staticmethod
    def quadratic_roots(a, b, c):
        """All real roots of a t^2 + b t + c (a != 0; int or Fraction
        coefficients), each tagged with its multiplicity, as AlgebraicTime
        values sorted increasingly."""
        # primitive integer form, positive leading coefficient
        if not (type(a) is type(b) is type(c) is int):
            den = math.lcm(a.denominator, b.denominator, c.denominator)
            a, b, c = int(a * den), int(b * den), int(c * den)
        g = math.gcd(a, b, c)
        a, b, c = a // g, b // g, c // g
        if a < 0:
            a, b, c = -a, -b, -c
        disc = b * b - 4 * a * c
        if disc < 0:
            return []
        if disc == 0:
            return [(AlgebraicTime.from_rational(Fraction(-b, 2 * a)), 2)]
        root = math.isqrt(disc)
        if root * root == disc:
            return [
                (AlgebraicTime.from_rational(Fraction(-b - root, 2 * a)), 1),
                (AlgebraicTime.from_rational(Fraction(-b + root, 2 * a)), 1),
            ]
        return [
            (AlgebraicTime(quad=(a, b, c), branch=-1), 1),
            (AlgebraicTime(quad=(a, b, c), branch=1), 1),
        ]

    def floor64(self) -> int:
        """floor(t * 2^64), computed on first use and kept.  For a root,
        s = isqrt(d * 2^128) lies strictly below sqrt(d) * 2^64 and s + 1
        strictly above, d being no square, so each branch floors an integer
        numerator over 2a."""
        if self._floor64 is None:
            if self.rational is not None:
                n, m = self.rational.numerator, self.rational.denominator
                self._floor64 = (n << 64) // m
            else:
                a, b, c = self.a, self.b, self.c
                s = math.isqrt((b * b - 4 * a * c) << 128)
                top = -b << 64
                self._floor64 = ((top + s) if self.branch > 0 else (top - s - 1)) // (2 * a)
        return self._floor64

    def sign_at(self, p2: int, p1: int, p0: int) -> int:
        """Exact sign of the integer polynomial p2 t^2 + p1 t + p0 at t = self."""
        if self.rational is not None:
            n, m = self.rational.numerator, self.rational.denominator
            v = (p2 * n + p1 * m) * n + p0 * m * m  # m^2 P(n/m)
            return (v > 0) - (v < 0)
        a, b, c = self.a, self.b, self.c
        # a P(t) = l1 t + l0 modulo a t^2 + b t + c, and
        # 2a (l1 t + l0) = x + s l1 sqrt(d): the sign of 2a^2 P(t), a > 0
        l1 = a * p1 - b * p2
        x = 2 * a * (a * p0 - c * p2) - b * l1
        sx = (x > 0) - (x < 0)
        sy = self.branch * ((l1 > 0) - (l1 < 0))
        if sy == 0 or sx == sy:
            return sx
        if sx == 0:
            return sy
        # opposite signs: x^2 = l1^2 d is impossible, d being no square
        return sx if x * x > l1 * l1 * (b * b - 4 * a * c) else sy

    def _isolating_interval(self) -> tuple[Fraction, Fraction]:
        if self._interval is None:
            a, b, c = self.a, self.b, self.c
            mid = Fraction(-b, 2 * a)
            spread = 1 + Fraction(b * b - 4 * a * c, 4 * a * a)  # 1 + x >= sqrt(x)
            if self.branch < 0:
                self._interval = (mid - spread, mid)
            else:
                self._interval = (mid, mid + spread)
        return self._interval

    @property
    def lo(self) -> Fraction:
        return self._isolating_interval()[0]

    @property
    def hi(self) -> Fraction:
        return self._isolating_interval()[1]

    def _poly_at(self, t: Fraction) -> Fraction:
        return self.a * t * t + self.b * t + self.c

    def refine(self):
        """Halve the isolating interval (no-op for rationals)."""
        if self.rational is not None:
            return
        lo, hi = self._isolating_interval()
        mid = (lo + hi) / 2
        vm = self._poly_at(mid)
        if vm == 0:  # cannot happen for irrational roots
            raise AssertionError("irrational root hit exactly")
        if (self._poly_at(lo) < 0) != (vm < 0):
            self._interval = (lo, mid)
        else:
            self._interval = (mid, hi)

    def key(self):
        if self.rational is not None:
            return ("rat", self.rational)
        return ("quad", self.a, self.b, self.c, self.branch)

    def __eq__(self, other):
        return isinstance(other, AlgebraicTime) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __lt__(self, other: "AlgebraicTime") -> bool:
        if self.rational is not None:
            if other.rational is not None:
                return self.rational < other.rational
            r = self.rational
            return other.sign_at(0, r.denominator, -r.numerator) > 0
        if other.rational is not None:
            r = other.rational
            return self.sign_at(0, r.denominator, -r.numerator) < 0
        a, b, c = other.a, other.b, other.c
        if (self.a, self.b, self.c) == (a, b, c):
            return self.branch < other.branch
        # distinct primitive quadratics share no root.  Strictly between the
        # roots of other's quadratic, self lies below the upper one; outside
        # them, it lies below both exactly when it lies below their midpoint.
        if self.sign_at(a, b, c) < 0:
            return other.branch > 0
        return self.sign_at(0, 2 * a, b) < 0

    def __str__(self) -> str:
        if self.rational is not None:
            return str(self.rational)
        a, b, c = self.a, self.b, self.c
        sign = "+" if self.branch > 0 else "-"
        return f"({-b} {sign} sqrt({b * b - 4 * a * c}))/{2 * a}"


# ---------------------------------------------------------------------------
# wall events along straight configuration legs


@dataclass(frozen=True)
class CrossingSpec:
    """One transversal wall crossing, as met on a leg or given by hand.

    kind "horiz": w_j passes above/below the horizontal line through w_i,
    with re_cmp recording whether Re(w_j) is left (<) or right (>) of
    Re(w_i) at the crossing; kind "coll": w_j crosses the open segment
    [w_i, w_k] with prior orientation eps_before of (i, j, k).

    `segment_wall_events` fills in `time`, the exact crossing time on its
    leg; crossings given by hand or read from JSON leave it None.  The time
    is no part of the crossing's data: equality, hashing and `to_json`
    ignore it.
    """

    kind: str
    i: int
    j: int
    k: int = -1
    motion: str = ""
    re_cmp: str = ""
    eps_before: int = 0
    time: Optional[AlgebraicTime] = field(default=None, compare=False)

    def __post_init__(self):
        i, j, k = self.i, self.j, self.k
        if self.kind == "horiz":
            if self.motion != "above" and self.motion != "below":
                raise InvalidInput("horizontality needs motion above|below")
            if self.re_cmp != "left" and self.re_cmp != "right":
                raise InvalidInput("horizontality needs re_cmp left|right")
            if i == j:
                raise InvalidInput("indices must differ")
            k = 0  # no third point
        elif self.kind == "coll":
            if i == j or j == k or i == k:
                raise InvalidInput("collinearity needs three distinct indices")
            eps = self.eps_before
            if type(eps) is not int or (eps != 1 and eps != -1):
                raise InvalidInput("eps_before must be the integer 1 or -1")
        else:
            raise InvalidInput("kind must be 'horiz' or 'coll'")
        if (type(i) is not int or type(j) is not int or type(k) is not int
                or i < 0 or j < 0 or k < 0):
            raise InvalidInput("point indices must be nonnegative integers")

    def to_json(self) -> dict:
        if self.kind == "horiz":
            return {
                "kind": "horiz", "i": self.i, "j": self.j,
                "motion": self.motion, "re_cmp": self.re_cmp,
            }
        return {
            "kind": "coll", "i": self.i, "j": self.j, "k": self.k,
            "eps_before": self.eps_before,
        }

    @staticmethod
    def from_json(data: dict) -> "CrossingSpec":
        if data["kind"] == "horiz":
            return CrossingSpec(
                "horiz", data["i"], data["j"],
                motion=data["motion"], re_cmp=data["re_cmp"],
            )
        return CrossingSpec(
            "coll", data["i"], data["j"], data["k"],
            eps_before=data["eps_before"],
        )


def _integer_leg(A0: Config, A1: Config) -> list[tuple[int, int, int, int]]:
    """(x, y, dx, dy) of each point on the leg A0 -> A1, the integer frames
    of both endpoints rescaled to the lcm of their two denominators.  A
    positive factor changes no event time, no sign and no primitive
    quadratic, so the wall events are computed on Python ints."""
    (p0, d0), (p1, d1) = A0.int_points(), A1.int_points()
    scale = math.lcm(d0, d1)
    s0, s1 = scale // d0, scale // d1
    return [
        (x0 * s0, y0 * s0, x1 * s1 - x0 * s0, y1 * s1 - y0 * s0)
        for (x0, y0), (x1, y1) in zip(p0, p1)
    ]


def _dot_quadratic(u, v):
    """Coefficients (a, b, c) of the dot product of two pair differences of a
    leg, u = (x, y) + t (dx, dy) and v likewise, as a quadratic in t."""
    ux, uy, dux, duy = u
    vx, vy, dvx, dvy = v
    return (dux * dvx + duy * dvy,
            ux * dvx + uy * dvy + dux * vx + duy * vy,
            ux * vx + uy * vy)


def segment_wall_events(A0: Config, A1: Config) -> list[CrossingSpec]:
    """Ordered wall events met by the straight leg A(t) = (1-t)A0 + tA1.

    Both endpoints must be in linearly general position including the fixed
    horizontal infinity.  A collision of two points, a tangential contact
    or coincident times raises PathNotGeneric.

    Roots are counted before they are isolated: the orientation quadratic P
    of a triple is nonzero at both ends, so a sign change from P(0) to P(1)
    is one simple root in (0, 1), and equal signs leave two roots there
    (or a double one) only when the vertex lies inside and P(0) has the
    sign of the leading coefficient.  Every other triple is skipped before
    a root is formed.  Roots are kept when their key `floor64` lies in
    [0, 2^64), and events are sorted by key, the exact order breaking ties.
    """
    if len(A0) != len(A1):
        raise InvalidInput("configuration sizes differ")
    n = len(A0)
    leg = _integer_leg(A0, A1)
    # w_j - w_i = (x, y) + t (dx, dy) along the leg, for i < j
    diff = [[None] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        xi, yi, dxi, dyi = leg[i]
        xj, yj, dxj, dyj = leg[j]
        diff[i][j] = (xj - xi, yj - yi, dxj - dxi, dyj - dyi)
    # the orientation quadratic of (i, j, k): cross(u, v) for u = w_j - w_i
    # and v = w_k - w_i
    triples = list(itertools.combinations(range(n), 3))
    quads = []
    for i, j, k in triples:
        ux, uy, dux, duy = diff[i][j]
        vx, vy, dvx, dvy = diff[i][k]
        quads.append((dux * dvy - duy * dvx,
                      ux * dvy - uy * dvx + dux * vy - duy * vx,
                      ux * vy - uy * vx))
    # the orientation quadratic is c at t = 0 and a + b + c at t = 1; the
    # horizontal infinity form is the height y
    if not (
        all(c and a + b + c for a, b, c in quads)
        and len({y for _, y, _, _ in leg}) == n
        and len({y + dy for _, y, _, dy in leg}) == n
    ):
        raise PathNotGeneric(
            "endpoints must be in general position including horizontal "
            "infinity"
        )

    events: list[CrossingSpec] = []

    # horizontality: Im(w_j - w_i)(t) = d0 + t (d1 - d0) is linear in t, and
    # d0, d1 are nonzero by the distinct heights at both ends
    for i, j in itertools.combinations(range(n), 2):
        e0, d0, de, dd = diff[i][j]
        d1 = d0 + dd
        if (d0 > 0) == (d1 > 0):
            continue  # t = d0 / (d0 - d1) lies outside (0, 1), if it exists
        # at that t, (d0 - d1) Re(w_j - w_i) = d0 e1 - d1 e0
        e1 = e0 + de
        re_diff = (d0 * e1 - d1 * e0) * (d0 - d1)
        if re_diff == 0:
            raise PathNotGeneric(f"points {i} and {j} collide on the leg")
        motion = "above" if d1 > d0 else "below"
        re_cmp = "left" if re_diff < 0 else "right"
        events.append(
            CrossingSpec(
                "horiz", i, j, motion=motion, re_cmp=re_cmp,
                time=AlgebraicTime.from_rational(Fraction(d0, d0 - d1)),
            )
        )

    # collinearity: p_ijk(A(t)) = a t^2 + b t + c
    for (i, j, k), (a, b, c) in zip(triples, quads):
        if (c > 0) == (a + b + c > 0):
            if not a or (c > 0) != (a > 0) or not 0 < -a * b < 2 * a * a:
                continue
        elif not a:
            root = AlgebraicTime.from_rational(Fraction(-c, b))
            events.append(_collinearity_event(diff, i, j, k, a, b, root))
            continue
        for root, mult in AlgebraicTime.quadratic_roots(a, b, c):
            if not 0 <= root.floor64() < 1 << 64:
                continue
            if mult == 2:
                raise PathNotGeneric(
                    f"tangential collinearity of ({i},{j},{k})"
                )
            events.append(_collinearity_event(diff, i, j, k, a, b, root))

    events.sort(key=lambda e: (e.time.floor64(), e.time))
    for e, f in zip(events, events[1:]):
        if e.time.floor64() == f.time.floor64() and not e.time < f.time:
            raise PathNotGeneric(
                f"coincident event times for {_name(e)} and {_name(f)}"
            )
    return events


def _name(e: CrossingSpec) -> str:
    if e.kind == "horiz":
        return f"D({e.i},{e.j})"
    return f"D({e.i},{e.j},{e.k})"


def _collinearity_event(diff, i, j, k, a, b, root) -> CrossingSpec:
    """Identify which point crosses which open segment and the sign before.

    The orientation of (i, j, k) just before the simple root of
    a t^2 + b t + c is minus the sign of its derivative 2at + b there.
    """
    eps_ijk_before = -root.sign_at(0, 2 * a, b)
    # the three points are collinear at the root, and pairwise distinct: a
    # collision on the leg is a horizontality event with equal real parts,
    # rejected before any collinearity.  The point in the open segment
    # between the other two is the apex whose vectors to them have a
    # negative dot product; if neither j nor i is that point, k is.  The
    # vectors are pair differences: w_i - w_j = -diff[i][j] and
    # w_k - w_j = diff[j][k] at apex j, diff[i][j] and diff[i][k] at apex
    # i.  The sign was computed for the ascending triple (i, j, k), so a
    # middle point other than j flips it
    if root.sign_at(*_dot_quadratic(diff[i][j], diff[j][k])) > 0:
        lo, mid, hi, parity = i, j, k, 1
    elif root.sign_at(*_dot_quadratic(diff[i][j], diff[i][k])) < 0:
        lo, mid, hi, parity = j, i, k, -1
    else:
        lo, mid, hi, parity = i, k, j, -1
    return CrossingSpec(
        "coll", lo, mid, hi, eps_before=parity * eps_ijk_before, time=root,
    )
