"""Exact rational planar geometry.

Configurations are tuples of points with Fraction coordinates, identified
with complex numbers w = x + iy.  Directions are rational vectors up to
positive scaling; every angular comparison reduces to sign tests of dot and
cross products, so no floating point enters any predicate.

Conventions
-----------
* ``orient(a, b, c) = +1`` means the triangle (a, b, c) is counterclockwise;
  it is the sign of det [[1,1,1],[x_a,x_b,x_c],[y_a,y_b,y_c]].  Predicates
  read these signs from ``Config.sign_table()``, computed once per
  configuration.
* The dominance value of a point w in direction zeta is
  ``Re(zeta * w) = dx*x - dy*y`` (complex product).
* The "infinity" linear form for zeta is ``cross(zeta, w) = dx*y - dy*x``;
  a configuration is in general position including zeta-infinity when these
  values are pairwise distinct.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import DegeneratePosition, InvalidInput, PathNotGeneric
from .linalg import _frac

Q = Fraction


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

    def primitive(self) -> tuple[int, int]:
        """The unique primitive integer vector on the same ray."""
        scale = Fraction(
            math.lcm(self.dx.denominator, self.dy.denominator)
        )
        ax, ay = self.dx * scale, self.dy * scale
        g = math.gcd(int(abs(ax)), int(abs(ay)))
        return int(ax) // g, int(ay) // g

    def same_ray(self, other: "Dir") -> bool:
        return self.primitive() == other.primitive()

    def opposite(self) -> "Dir":
        return Dir(-self.dx, -self.dy)

    def conjugate(self) -> "Dir":
        return Dir(self.dx, -self.dy)

    def dominance_value(self, p: Pt) -> Fraction:
        """Re(zeta * w): growth order of exp(w z) along the zeta ray."""
        return self.dx * p.x - self.dy * p.y

    def infinity_form(self, p: Pt) -> Fraction:
        """cross(zeta, w) = Im(conj(zeta) w): position across the zeta ray."""
        return self.dx * p.y - self.dy * p.x


def direction(dx, dy) -> Dir:
    return Dir(_frac(dx), _frac(dy))


class Config:
    """An ordered tuple of pairwise distinct marked points w_1..w_N."""

    __slots__ = ("points", "_signs")

    def __init__(self, points: Iterable[Pt]):
        pts = tuple(points)
        if not pts:
            raise InvalidInput("a configuration needs at least one point")
        if len(set((p.x, p.y) for p in pts)) != len(pts):
            raise InvalidInput("configuration points must be pairwise distinct")
        object.__setattr__(self, "points", pts)

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

    def sign_table(self) -> list[list[list[int]]]:
        """t[i][j][k] = orient(self, i, j, k) for every ordered triple, 0 where
        an index repeats; computed on first use and kept."""
        try:
            return self._signs
        except AttributeError:
            pass
        n = len(self.points)
        t = [[[0] * n for _ in range(n)] for _ in range(n)]
        for i, j, k in itertools.combinations(range(n), 3):
            s = orient(self, i, j, k)
            t[i][j][k] = t[j][k][i] = t[k][i][j] = s
            t[i][k][j] = t[k][j][i] = t[j][i][k] = -s
        self._signs = t
        return t

    # JSON schema: {"points": [["x", "y"], ...]} with canonical "num/den"
    # strings (denominator omitted when 1).
    def to_json(self) -> dict:
        return {"points": [[str(p.x), str(p.y)] for p in self.points]}

    @staticmethod
    def from_json(data: dict) -> "Config":
        return Config(pt(x, y) for x, y in data["points"])


def config(*coords) -> Config:
    return Config(pt(x, y) for x, y in coords)


# ---------------------------------------------------------------------------
# predicates


def orient(A: Config, i: int, j: int, k: int) -> int:
    """Sign of the orientation determinant of (w_i, w_j, w_k); +1 = ccw."""
    if len({i, j, k}) != 3:
        raise InvalidInput("orient needs three distinct indices")
    a, b, c = A[i], A[j], A[k]
    d = (b - a).cross(c - a)
    return (d > 0) - (d < 0)


class Chirotope:
    """All orientation signs e_ijk of a configuration, extended alternating."""

    def __init__(self, A: Config):
        self.n = len(A)
        self._table = A.sign_table()
        self.signs = {
            (i, j, k): self._table[i][j][k]
            for i, j, k in itertools.combinations(range(self.n), 3)
        }

    def chi(self, i: int, j: int, k: int) -> int:
        """Alternating extension to arbitrary triples (0 on repeats)."""
        return self._table[i][j][k]

    @property
    def lin_general(self) -> bool:
        return all(s != 0 for s in self.signs.values())

    def exchange_axiom_holds(self) -> bool:
        """Three-term Grassmann-Pluecker sign condition on all index tuples.

        For every (i1..i4, j1, j2) the sign set
        {(-1)^v * chi(i.. without i_v ..) * chi(j1, j2, i_v)} must either
        contain {+1, -1} or equal {0}.
        """
        rng = range(self.n)
        for quad in itertools.combinations(rng, 4):
            for j1, j2 in itertools.permutations(rng, 2):
                vals = set()
                for v in range(4):
                    rest = tuple(x for t, x in enumerate(quad) if t != v)
                    s = (-1) ** (v + 1) * self.chi(*rest) * self.chi(j1, j2, quad[v])
                    vals.add(s)
                if not ({1, -1} <= vals or vals == {0}):
                    return False
        return True


def chirotope(A: Config) -> Chirotope:
    return Chirotope(A)


@dataclass(frozen=True)
class GPReport:
    lin_general: bool
    strong_lin_general: bool
    incl_infinity: Optional[bool]


def infinity_generic(A: Config, zeta: Dir) -> bool:
    """Whether the zeta-infinity form takes pairwise distinct values on A."""
    vals = [zeta.infinity_form(p) for p in A]
    return len(set(vals)) == len(vals)


def _slope(u: Pt):
    """Parallel class of a nonzero vector: its slope, None when vertical."""
    return u.y / u.x if u.x else None


def general_position(A: Config, zeta: Optional[Dir] = None) -> GPReport:
    """Check linear / strong linear general position, and distinctness of
    the zeta-infinity form when a direction is given.

    Two segments are parallel exactly when their slopes agree, so strong
    position holds when the C(N, 2) segments have pairwise distinct slopes.
    """
    n = len(A)
    t = A.sign_table()
    lin = all(t[i][j][k] for i, j, k in itertools.combinations(range(n), 3))
    slopes = {_slope(A[j] - A[i]) for i, j in itertools.combinations(range(n), 2)}
    strong = lin and len(slopes) == n * (n - 1) // 2
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
    idx = sorted(pts, key=lambda i: (A[i].x, A[i].y))
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
    """Indices sorted by increasing Re(zeta w).  Ties are an error."""
    keyed = sorted(range(len(A)), key=lambda i: zeta.dominance_value(A[i]))
    for a, b in zip(keyed, keyed[1:]):
        if zeta.dominance_value(A[a]) == zeta.dominance_value(A[b]):
            raise DegeneratePosition(
                f"dominance tie between points {a} and {b} for direction "
                f"({zeta.dx},{zeta.dy})"
            )
    return keyed


def anti_stokes_directions(A: Config) -> list[tuple[int, int, Dir]]:
    """For every pair {i, j} the two opposite switching directions are
    +-(dy, dx) where (dx, dy) = w_i - w_j.  One representative per pair."""
    out = []
    for i, j in itertools.combinations(range(len(A)), 2):
        d = A[i] - A[j]
        out.append((i, j, Dir(d.y, d.x)))
    return out


def anti_stokes_sequence(
    A: Config, zeta0: Dir, rotation: str = "ccw"
) -> list[int]:
    """Reduced word for the longest permutation read off the half-turn scan.

    Rotating zeta from zeta0 to -zeta0 (counterclockwise by default,
    clockwise with rotation="cw"), each anti-Stokes direction switches two
    adjacent elements of the dominance order; the word records the 1-based
    positions of those switches, i.e. letters s_1 .. s_{N-1}.
    """
    if rotation not in ("ccw", "cw"):
        raise InvalidInput("rotation must be 'ccw' or 'cw'")
    rep = general_position(A, zeta0)
    if not rep.strong_lin_general:
        raise DegeneratePosition("anti-Stokes scan needs strong general position")
    want_positive = rotation == "ccw"
    events = []
    for i, j, u in anti_stokes_directions(A):
        side = zeta0.dx * u.dy - zeta0.dy * u.dx  # cross(zeta0, u)
        if side == 0:
            raise DegeneratePosition(
                f"start direction is anti-Stokes for pair ({i},{j})"
            )
        if (side > 0) != want_positive:
            u = u.opposite()
        events.append((i, j, u))

    def earlier(u: Dir, v: Dir) -> bool:
        c = u.dx * v.dy - u.dy * v.dx
        if c == 0:
            raise DegeneratePosition("coincident anti-Stokes directions")
        return (c > 0) if want_positive else (c < 0)

    # insertion sort with the exact angular comparator
    ordered: list[tuple[int, int, Dir]] = []
    for ev in events:
        lo = 0
        while lo < len(ordered) and earlier(ordered[lo][2], ev[2]):
            lo += 1
        ordered.insert(lo, ev)

    order = dominance_order(A, zeta0)
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


# ---------------------------------------------------------------------------
# exact event times of degree <= 2


class AlgebraicTime:
    """A real algebraic number of degree <= 2 over Q.

    Rational values are stored exactly; irrational ones as the branch
    (-b + s*sqrt(disc)) / (2a) of a primitive integer quadratic
    a t^2 + b t + c with disc > 0 not a perfect square, together with an
    isolating interval containing this root and not its conjugate.
    """

    __slots__ = ("rational", "a", "b", "c", "branch", "lo", "hi")

    def __init__(self, rational=None, quad=None, branch=0, interval=None):
        self.rational = rational
        if rational is None:
            self.a, self.b, self.c = quad
            self.branch = branch
            self.lo, self.hi = interval
        else:
            self.a = self.b = self.c = None
            self.branch = 0
            self.lo = self.hi = rational

    @staticmethod
    def from_rational(r) -> "AlgebraicTime":
        return AlgebraicTime(rational=Fraction(r))

    @staticmethod
    def quadratic_roots(a: Fraction, b: Fraction, c: Fraction):
        """All real roots of a t^2 + b t + c (a != 0), each tagged with its
        multiplicity, as AlgebraicTime values sorted increasingly."""
        disc = b * b - 4 * a * c
        if disc < 0:
            return []
        if disc == 0:
            return [(AlgebraicTime.from_rational(-b / (2 * a)), 2)]
        root = _fraction_sqrt(disc)
        if root is not None:
            r1 = (-b - root) / (2 * a)
            r2 = (-b + root) / (2 * a)
            lo, hi = sorted((r1, r2))
            return [
                (AlgebraicTime.from_rational(lo), 1),
                (AlgebraicTime.from_rational(hi), 1),
            ]
        # primitive integer form, positive leading coefficient
        den = math.lcm(a.denominator, b.denominator, c.denominator)
        ia, ib, ic = int(a * den), int(b * den), int(c * den)
        g = math.gcd(math.gcd(abs(ia), abs(ib)), abs(ic))
        ia, ib, ic = ia // g, ib // g, ic // g
        if ia < 0:
            ia, ib, ic = -ia, -ib, -ic
        mid = Fraction(-ib, 2 * ia)
        idisc = Fraction(ib * ib - 4 * ia * ic)
        spread = 1 + idisc / (4 * ia * ia)  # 1 + x >= sqrt(x)
        out = []
        for s in (-1, 1):
            if s < 0:
                iv = (mid - spread, mid)
            else:
                iv = (mid, mid + spread)
            out.append(
                (AlgebraicTime(quad=(ia, ib, ic), branch=s, interval=iv), 1)
            )
        return out

    def _poly_at(self, t: Fraction) -> Fraction:
        return self.a * t * t + self.b * t + self.c

    def refine(self):
        """Halve the isolating interval (no-op for rationals)."""
        if self.rational is not None:
            return
        mid = (self.lo + self.hi) / 2
        vm = self._poly_at(mid)
        if vm == 0:  # cannot happen for irrational roots
            raise AssertionError("irrational root hit exactly")
        if (self._poly_at(self.lo) < 0) != (vm < 0):
            self.hi = mid
        else:
            self.lo = mid

    def key(self):
        if self.rational is not None:
            return ("rat", self.rational)
        return ("quad", self.a, self.b, self.c, self.branch)

    def __eq__(self, other):
        return isinstance(other, AlgebraicTime) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __lt__(self, other: "AlgebraicTime") -> bool:
        if self == other:
            return False
        if self.rational is not None and other.rational is not None:
            return self.rational < other.rational
        # distinct values: bisect until the isolating intervals separate
        # (irrational roots never sit on their rational interval endpoints)
        for _ in range(100000):
            if self.hi <= other.lo:
                return True
            if other.hi <= self.lo:
                return False
            self.refine()
            other.refine()
        raise AssertionError("isolating intervals failed to separate")

    def in_open_unit_interval(self) -> bool:
        if self.rational is not None:
            return 0 < self.rational < 1
        # 0 and 1 are never roots of an irrational-root quadratic
        while self.lo < 0 < self.hi:
            self.refine()
        if self.hi <= 0:
            return False
        while self.lo < 1 < self.hi:
            self.refine()
        return self.hi <= 1

    def hits(self, t) -> bool:
        """Exact test whether this number equals the rational t."""
        if self.rational is not None:
            return self.rational == t
        return False

    def to_float(self) -> float:
        if self.rational is not None:
            return float(self.rational)
        for _ in range(80):
            self.refine()
        return float((self.lo + self.hi) / 2)


def _fraction_sqrt(x: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


class QuadExt:
    """Exact arithmetic in Q(sqrt(d)) for sign tests at quadratic times."""

    __slots__ = ("p", "q", "d")

    def __init__(self, p: Fraction, q: Fraction, d: int):
        self.p, self.q, self.d = Fraction(p), Fraction(q), d

    @staticmethod
    def rational(r, d: int) -> "QuadExt":
        return QuadExt(Fraction(r), Fraction(0), d)

    def __add__(self, o: "QuadExt") -> "QuadExt":
        return QuadExt(self.p + o.p, self.q + o.q, self.d)

    def __sub__(self, o: "QuadExt") -> "QuadExt":
        return QuadExt(self.p - o.p, self.q - o.q, self.d)

    def __mul__(self, o: "QuadExt") -> "QuadExt":
        return QuadExt(
            self.p * o.p + self.q * o.q * self.d,
            self.p * o.q + self.q * o.p,
            self.d,
        )

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self.p, -self.q, self.d)

    def sign(self) -> int:
        p, q, d = self.p, self.q, self.d
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return (q > 0) - (q < 0)
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        # opposite signs: compare p^2 with q^2 d
        lhs, rhs = p * p, q * q * d
        if lhs == rhs:
            return 0
        if p > 0:
            return 1 if lhs > rhs else -1
        return -1 if lhs > rhs else 1


# ---------------------------------------------------------------------------
# wall events along straight configuration legs


@dataclass(frozen=True)
class WallEvent:
    """A single transversal wall crossing on the leg A0 -> A1.

    kind "horiz": point j passes the horizontal line through point i,
    moving 'above' or 'below', with re_cmp recording whether Re(w_j) is
    'left' (<) or 'right' (>) of Re(w_i) at the crossing time.

    kind "coll": point j crosses the open segment [w_i, w_k];
    eps_before is the orientation sign of (i, j, k) just before.
    """

    kind: str
    time: AlgebraicTime
    i: int
    j: int
    k: int = -1
    motion: str = ""
    re_cmp: str = ""
    eps_before: int = 0

    def reversed(self) -> "WallEvent":
        """The same wall met from the other side (for the reversed leg)."""
        if self.kind == "horiz":
            motion = "below" if self.motion == "above" else "above"
            return WallEvent(
                "horiz", self.time, self.i, self.j, motion=motion,
                re_cmp=self.re_cmp,
            )
        return WallEvent(
            "coll", self.time, self.i, self.j, self.k,
            eps_before=-self.eps_before,
        )


def _interp(p0: Pt, p1: Pt, t: Fraction) -> Pt:
    return Pt(p0.x + t * (p1.x - p0.x), p0.y + t * (p1.y - p0.y))


def _quad_coeff_of_orient(A0: Config, A1: Config, i: int, j: int, k: int):
    """Coefficients (a, b, c) of p_ijk(A(t)) as a quadratic in t: with
    u = w_j - w_i = u0 + t du and v = w_k - w_i = v0 + t dv, the cross
    product cross(u, v) expands in closed form."""
    u0, v0 = A0[j] - A0[i], A0[k] - A0[i]
    du, dv = A1[j] - A1[i] - u0, A1[k] - A1[i] - v0
    return du.cross(dv), u0.cross(dv) + du.cross(v0), u0.cross(v0)


def segment_wall_events(A0: Config, A1: Config) -> list[WallEvent]:
    """Ordered wall events met by the straight leg A(t) = (1-t)A0 + tA1.

    Both endpoints must be in linearly general position including the fixed
    horizontal infinity.  Any endpoint event, tangential contact, coincident
    times or degenerate crossing raises PathNotGeneric.
    """
    if len(A0) != len(A1):
        raise InvalidInput("configuration sizes differ")
    n = len(A0)
    horizontal = Dir(Q(1), Q(0))
    for A in (A0, A1):
        rep = general_position(A, horizontal)
        if not (rep.lin_general and rep.incl_infinity):
            raise PathNotGeneric(
                "endpoints must be in general position including horizontal "
                "infinity"
            )

    events: list[WallEvent] = []

    # horizontality: Im(w_j - w_i)(t) is linear in t
    for i, j in itertools.combinations(range(n), 2):
        d0 = A0[j].y - A0[i].y
        d1 = A1[j].y - A1[i].y
        if d0 == d1:
            continue  # constant difference: nonzero by endpoint genericity
        t = d0 / (d0 - d1)
        if t == 0 or t == 1:
            raise PathNotGeneric(f"horizontality of ({i},{j}) at an endpoint")
        if not (0 < t < 1):
            continue
        xi = _interp(A0[i], A1[i], t).x
        xj = _interp(A0[j], A1[j], t).x
        if xi == xj:
            raise PathNotGeneric(f"points {i} and {j} collide on the leg")
        motion = "above" if d1 > d0 else "below"
        re_cmp = "left" if xj < xi else "right"
        events.append(
            WallEvent(
                "horiz", AlgebraicTime.from_rational(t), i, j,
                motion=motion, re_cmp=re_cmp,
            )
        )

    # collinearity: p_ijk(A(t)) is quadratic in t
    for i, j, k in itertools.combinations(range(n), 3):
        a, b, c = _quad_coeff_of_orient(A0, A1, i, j, k)
        if a == 0 and b == 0:
            continue  # identically nonzero by endpoint genericity
        if a == 0:
            roots = [(AlgebraicTime.from_rational(-c / b), 1)]
        else:
            roots = AlgebraicTime.quadratic_roots(a, b, c)
        for root, mult in roots:
            if root.hits(Q(0)) or root.hits(Q(1)):
                raise PathNotGeneric(
                    f"collinearity of ({i},{j},{k}) at an endpoint"
                )
            if not root.in_open_unit_interval():
                continue
            if mult == 2:
                raise PathNotGeneric(
                    f"tangential collinearity of ({i},{j},{k})"
                )
            ev = _collinearity_event(A0, A1, i, j, k, (a, b, c), root)
            events.append(ev)

    events.sort(key=lambda e: e.time)
    for e, f in zip(events, events[1:]):
        if not (e.time < f.time):
            raise PathNotGeneric(
                f"coincident event times for {_name(e)} and {_name(f)}"
            )
    return events


def _name(e: WallEvent) -> str:
    if e.kind == "horiz":
        return f"D({e.i},{e.j})"
    return f"D({e.i},{e.j},{e.k})"


# the reported triple is (lo, mid, hi); the sign polynomial was computed for
# the ascending combination (i, j, k), so correct by the permutation parity
_MIDDLE_CASES = (
    # (middle, left, right, parity of (i,j,k) -> (left, middle, right))
    ("j", "i", "k", 1),
    ("i", "j", "k", -1),
    ("k", "i", "j", -1),
)


def _collinearity_event(A0, A1, i, j, k, quad, root) -> WallEvent:
    """Identify which point crosses which open segment and the sign before."""
    a, b, c = quad
    names = {"i": i, "j": j, "k": k}
    if root.rational is not None:
        t = root.rational
        pts = {m: _interp(A0[m], A1[m], t) for m in (i, j, k)}

        def strictly_between(m0, m1, m2) -> bool:
            u = pts[m2] - pts[m0]
            s = (pts[m1] - pts[m0]).dot(u)
            return 0 < s < u.dot(u)

        deriv = 2 * a * t + b
        eps_ijk_before = -1 if deriv > 0 else 1
    else:
        ia, ib, ic = root.a, root.b, root.c
        d = ib * ib - 4 * ia * ic
        tq = QuadExt(Fraction(-ib, 2 * ia), Fraction(root.branch, 2 * ia), d)

        def coord(m):
            p0, p1 = A0[m], A1[m]
            x = QuadExt.rational(p0.x, d) + tq * QuadExt.rational(p1.x - p0.x, d)
            y = QuadExt.rational(p0.y, d) + tq * QuadExt.rational(p1.y - p0.y, d)
            return x, y

        pos = {m: coord(m) for m in (i, j, k)}

        def strictly_between(m0, m1, m2) -> bool:
            ux = pos[m2][0] - pos[m0][0]
            uy = pos[m2][1] - pos[m0][1]
            sx = pos[m1][0] - pos[m0][0]
            sy = pos[m1][1] - pos[m0][1]
            s = sx * ux + sy * uy
            full = ux * ux + uy * uy
            return s.sign() > 0 and (full - s).sign() > 0

        # (ia, ib, ic) is (a, b, c) rescaled to a positive leading
        # coefficient, so its derivative carries an extra factor sign(a)
        deriv = QuadExt.rational(2 * Fraction(ia), d) * tq + QuadExt.rational(
            Fraction(ib), d
        )
        eps_ijk_before = -deriv.sign() * (1 if a > 0 else -1)

    for mid_name, lo_name, hi_name, parity in _MIDDLE_CASES:
        mid, lo, hi = names[mid_name], names[lo_name], names[hi_name]
        if strictly_between(lo, mid, hi):
            return WallEvent(
                "coll", root, lo, mid, hi,
                eps_before=parity * eps_ijk_before,
            )
    raise PathNotGeneric(
        f"collinearity of ({i},{j},{k}) with no point in the open segment"
    )
