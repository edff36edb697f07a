"""Exact dense linear algebra over the rationals.

A matrix is stored as integer rows over one positive denominator, with the
gcd of the denominator and every entry divided out, so that the form is
canonical and equality is a tuple comparison.  Products, sums (of many
matrices in one pass with `MatQ.total`), rank updates (self + sign a b in
one pass with `MatQ.plus_product`) and scaling are integer arithmetic on
those rows, and the package's one elimination step, the fraction-free
`_pivot`, reads them directly: ranks, inverses, kernels and the simplex of
`lp` all run on it.  Fractions are formed only at the edges (`__getitem__`,
`entries`), and `to_json` writes the entries from the integers.  A singular
inverse is an error (`NotInvertible`), never a tolerance call.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .errors import InvalidInput, NotInvertible, ShapeMismatch

Q = Fraction

_PLAIN_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")
_MAX_EXPONENT = 1000


def _ratio(x) -> tuple[int, int]:
    """An exact rational as (numerator, positive denominator) in lowest
    terms, from a Fraction, an int (not a bool) or a string.  Strings of the
    form "p" or "p/q" in ASCII digits are split and read with `int`; every
    other string goes to `Fraction(str)`, so the accepted strings are
    Fraction's, less those with a decimal exponent beyond +-_MAX_EXPONENT:
    Fraction would form that power of 10 before anything could refuse it."""
    if isinstance(x, str):
        plain = _PLAIN_RATIO.fullmatch(x)
        if plain is None:
            exp = _EXPONENT.search(x)
            digits = exp[1].replace("_", "").lstrip("0") if exp else ""
            if len(digits) > 4 or int(digits or 0) > _MAX_EXPONENT:
                raise InvalidInput(
                    f"decimal exponent outside -{_MAX_EXPONENT}..{_MAX_EXPONENT}: {x!r}")
            try:
                return Fraction(x).as_integer_ratio()
            except (ValueError, ZeroDivisionError):
                pass
        else:
            n, d = plain.groups()
            if d is None:
                return int(n), 1
            n, d = int(n), int(d)
            if d:
                g = math.gcd(n, d)
                return n // g, d // g
    elif isinstance(x, (Fraction, int)) and not isinstance(x, bool):
        return x.as_integer_ratio()
    raise InvalidInput(f"not an exact rational: {x!r}")


def _frac(x) -> Fraction:
    """An exact rational from a Fraction, an int or a "num/den" string."""
    return x if isinstance(x, Fraction) else Q(*_ratio(x))


def _int_row(vals: Sequence) -> tuple[list[int], int]:
    """Rationals as (ints, least positive common denominator)."""
    ratios = [
        v.as_integer_ratio() if type(v) in (int, Fraction) else _ratio(v)
        for v in vals
    ]
    den = math.lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def _reduce(row: list[int], den: int = 0) -> int:
    """Divide row and den by their gcd in place of row; returns the new den.
    With den 0 this divides the row by the gcd of its entries."""
    g = math.gcd(den, *row)
    if g > 1:
        row[:] = [v // g for v in row]
        den //= g
    return den


def _pivot(tab: list[list[int]], den: list[int], row: int, col: int) -> None:
    """One fraction-free elimination step, in place: row r of tab stands for
    tab[r] / den[r], or for tab[r] up to scale if den[r] is 0.  The pivot row
    gets a unit pivot (its pivot entry, made positive, becomes its den), and
    its multiples clear column col from the other rows, each changed row over
    the nonzeros of the pivot row and then reduced once by its gcd."""
    prow = tab[row]
    if prow[col] < 0:
        prow[:] = [-v for v in prow]
    pv = den[row] = _reduce(prow, prow[col])
    nz = None
    for r, t in enumerate(tab):
        f = t[col]
        if r == row or f == 0:
            continue
        # t/den[r] - (f/den[r]) prow/pv over the denominator den[r] pv,
        # with gcd(f, pv) cancelled
        g = math.gcd(f, pv)
        p, f = pv // g, f // g
        if p != 1:
            t = [a * p for a in t]
        if nz is None:
            nz = [(j, q) for j, q in enumerate(prow) if q]
        for j, q in nz:
            t[j] -= f * q
        tab[r] = t
        den[r] = _reduce(t, den[r] * p)


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    """The rank of integer rows (left as they are): on a copy, the first row
    pivots on its first nonzero entry, if any, and is set aside."""
    tab = [list(t) for t in rows]
    den = [0] * len(tab)
    rank = 0
    while tab:
        t = tab[0]
        v = next(filter(None, t), 0)
        if v:
            _pivot(tab, den, 0, t.index(v))
            rank += 1
        del tab[0], den[0]
    return rank


def _gauss_jordan(tab: list[list[int]], cols: int) -> tuple[list[int], list[int]]:
    """Gauss-Jordan elimination with row swaps over the first cols columns, in
    place; returns (dens, pivot columns): row k over dens[k] has a unit entry
    in the k-th pivot column and zeros in the others."""
    den = [0] * len(tab)
    pivots: list[int] = []
    for c in range(cols):
        k = len(pivots)
        r = next((r for r in range(k, len(tab)) if tab[r][c]), None)
        if r is not None:
            tab[k], tab[r] = tab[r], tab[k]
            _pivot(tab, den, k, c)
            pivots.append(c)
    return den, pivots


def int_kernel(rows: Sequence[Sequence[int]], cols: int) -> list[list[int]]:
    """A basis of the right kernel of integer rows of `cols` entries (left as
    they are), one primitive integer vector per free column of their reduced
    echelon form: positive in that column, which is its last nonzero entry,
    and 0 in every other free column."""
    tab = [list(t) for t in rows]
    dens, pivots = _gauss_jordan(tab, cols)
    den = math.lcm(*dens[:len(pivots)])
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        vec = [0] * cols
        vec[fc] = den
        for t, d, pc in zip(tab, dens, pivots):
            vec[pc] = -t[fc] * (den // d)
        _reduce(vec)
        basis.append(vec)
    return basis


def _over(rows: Sequence[Sequence[int]], dens: Sequence[int]) -> tuple[tuple, int]:
    """Integer rows, row k over dens[k], as rows over the lcm of the dens."""
    den = math.lcm(*dens)
    return tuple([
        tuple(row) if d == den else tuple([v * (den // d) for v in row])
        for row, d in zip(rows, dens)
    ]), den


class MatQ:
    """An immutable rows x cols matrix over Q: the integer rows `num` over the
    positive denominator `den`, with gcd(den, *num) == 1."""

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, entries: Iterable[Iterable]):
        # one pass: den is the lcm of the reduced denominators read so far,
        # and the rows read so far are rescaled when it grows.  That lcm
        # shares no factor with every rescaled numerator, so the form is
        # canonical with no gcd pass.
        num, den = [], 1
        for row in entries:
            if isinstance(row, str):
                raise InvalidInput(f"a matrix row is a list of rationals, not the string {row!r}")
            out = []
            for x in row:
                n, d = x.as_integer_ratio() if type(x) is Fraction else _ratio(x)
                if den % d:
                    m = d // math.gcd(den, d)
                    num = [[v * m for v in prev] for prev in num]
                    out = [v * m for v in out]
                    den *= m
                out.append(n * (den // d))
            num.append(out)
        cols = len(num[0]) if num else 0
        if any(len(row) != cols for row in num):
            raise ShapeMismatch("ragged matrix rows")
        self.rows, self.cols, self.num, self.den = len(num), cols, tuple(map(tuple, num)), den

    @classmethod
    def _wrap(cls, num: tuple[tuple[int, ...], ...], den: int, cols: int) -> "MatQ":
        """A matrix from integer rows of `cols` entries each over den > 0,
        already in canonical form; the width is given, so a matrix with no
        rows keeps it."""
        out = object.__new__(cls)
        out.rows, out.cols, out.num, out.den = len(num), cols, num, den
        return out

    @classmethod
    def _reduced(cls, num: tuple[tuple[int, ...], ...], den: int, cols: int) -> "MatQ":
        """`_wrap` after dividing den and the rows by their gcd."""
        g = den
        for row in num:
            if g == 1:
                return cls._wrap(num, den, cols)
            g = math.gcd(g, *row)
        if g > 1:
            num = tuple([tuple([v // g for v in row]) for row in num])
        return cls._wrap(num, den // g, cols)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "MatQ":
        return MatQ._wrap(((0,) * cols,) * rows, 1, cols)

    @staticmethod
    def identity(n: int) -> "MatQ":
        return MatQ._wrap(
            tuple((0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)), 1, n
        )

    @staticmethod
    def scalar(value, n: int = 1) -> "MatQ":
        return MatQ.identity(n).scale(value)

    @staticmethod
    def column(values: Sequence) -> "MatQ":
        return MatQ([[v] for v in values])

    @staticmethod
    def row(values: Sequence) -> "MatQ":
        return MatQ([list(values)])

    @staticmethod
    def from_blocks(blocks: Sequence[Sequence["MatQ"]]) -> "MatQ":
        """Assemble a block matrix from a grid of compatible blocks."""
        # each block is canonical, so its rows over the lcm of the block
        # denominators are too
        den = math.lcm(*[b.den for block_row in blocks for b in block_row])
        out = []
        width = sum(b.cols for b in blocks[0]) if blocks else 0
        for block_row in blocks:
            height = block_row[0].rows
            if any(b.rows != height for b in block_row):
                raise ShapeMismatch("block heights disagree")
            nums = [b.num if b.den == den
                    else [[v * (den // b.den) for v in row] for row in b.num]
                    for b in block_row]
            for r in range(height):
                out.append(tuple([v for n in nums for v in n[r]]))
        if any(sum(b.cols for b in block_row) != width for block_row in blocks):
            raise ShapeMismatch("ragged matrix rows")
        return MatQ._wrap(tuple(out), den, width)

    # -- the Fraction view -------------------------------------------------

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as a grid of Fractions, formed on each use: only tests
        and `repr` read it."""
        d = self.den
        return tuple([tuple([Q(v, d) for v in row]) for row in self.num])

    def __getitem__(self, rc) -> Fraction:
        r, c = rc
        return Q(self.num[r][c], self.den)

    def to_json(self) -> list[list[str]]:
        """The entries as "p" or "p/q" strings in lowest terms, as
        `str(Fraction)` writes them.  An integer past Python's int-to-str
        digit limit is refused (InvalidInput), as the reader refuses it."""
        d = self.den
        try:
            if d == 1:
                return [[str(v) for v in row] for row in self.num]
            out = []
            for row in self.num:
                strs = []
                for v in row:
                    g = math.gcd(v, d)
                    strs.append(str(v // g) if g == d else f"{v // g}/{d // g}")
                out.append(strs)
            return out
        except ValueError:
            raise InvalidInput(
                "a result entry has more digits than the int-to-str limit of "
                f"{sys.get_int_max_str_digits()}") from None

    # -- basic queries -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatQ)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.cols, self.den, self.num))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"MatQ[{self.rows}x{self.cols}: {body}]"

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other: "MatQ", sign: int, what: str) -> "MatQ":
        """self + sign * other, both over the lcm of their denominators."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch(f"matrix {what} shape mismatch")
        da, db = self.den, other.den
        if da == db:
            num = tuple([
                tuple([x + y for x, y in zip(ra, rb)] if sign > 0
                      else [x - y for x, y in zip(ra, rb)])
                for ra, rb in zip(self.num, other.num)
            ])
            return MatQ._reduced(num, da, self.cols)
        den = math.lcm(da, db)
        sa, sb = den // da, sign * (den // db)
        # with one operand over 1, the sum is the other's rows plus multiples
        # of den, and gcd(den, a + den b) = gcd(den, a) = 1: no gcd pass
        wrap = MatQ._wrap if da == 1 or db == 1 else MatQ._reduced
        return wrap(tuple([
            tuple([x * sa + y * sb for x, y in zip(ra, rb)])
            for ra, rb in zip(self.num, other.num)
        ]), den, self.cols)

    def __add__(self, other: "MatQ") -> "MatQ":
        return self._combine(other, 1, "sum")

    @staticmethod
    def total(mats: Sequence["MatQ"]) -> "MatQ":
        """The sum of one or more matrices of one shape in one pass: every
        matrix over the lcm of the denominators, then one gcd reduction."""
        first = mats[0]
        if len(mats) == 1:
            return first
        if any((m.rows, m.cols) != (first.rows, first.cols) for m in mats):
            raise ShapeMismatch("matrix sum shape mismatch")
        den = math.lcm(*[m.den for m in mats])
        nums = [m.num if m.den == den else [[v * (den // m.den) for v in row] for row in m.num]
                for m in mats]
        return MatQ._reduced(
            tuple([tuple(map(sum, zip(*rows))) for rows in zip(*nums)]), den, first.cols
        )

    def __sub__(self, other: "MatQ") -> "MatQ":
        return self._combine(other, -1, "difference")

    def __neg__(self) -> "MatQ":
        return MatQ._wrap(
            tuple([tuple([-x for x in row]) for row in self.num]), self.den, self.cols
        )

    def scale(self, s) -> "MatQ":
        n, d = _ratio(s)
        return MatQ._reduced(
            tuple([tuple([n * x for x in row]) for row in self.num]),
            self.den * d, self.cols,
        )

    def __matmul__(self, other: "MatQ") -> "MatQ":
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        if not self.cols:
            return MatQ.zeros(self.rows, other.cols)
        cols = list(zip(*other.num))
        return MatQ._reduced(tuple([
            tuple([sum(map(mul, row, col)) for col in cols]) for row in self.num
        ]), self.den * other.den, other.cols)

    def plus_product(self, a: "MatQ", b: "MatQ", sign: int = 1) -> "MatQ":
        """self + sign * (a @ b) for sign +-1, in one integer pass over the
        lcm of the two denominators and one gcd reduction; the product is
        never formed as a matrix."""
        if a.cols != b.rows or (a.rows, b.cols) != (self.rows, self.cols):
            raise ShapeMismatch(
                f"cannot add ({a.rows}x{a.cols})({b.rows}x{b.cols}) to "
                f"{self.rows}x{self.cols}"
            )
        if not a.cols:
            return self
        dp = a.den * b.den
        den = math.lcm(self.den, dp)
        ss, sp = den // self.den, sign * (den // dp)
        cols = list(zip(*b.num))
        return MatQ._reduced(tuple([
            tuple([x * ss + sp * sum(map(mul, row, col)) for x, col in zip(srow, cols)])
            for srow, row in zip(self.num, a.num)
        ]), den, self.cols)

    @property
    def T(self) -> "MatQ":
        num = tuple(zip(*self.num)) if self.rows else ((),) * self.cols
        return MatQ._wrap(num, self.den, self.rows)

    # -- elimination -------------------------------------------------------

    def rank(self) -> int:
        """Rank by fraction-free elimination on the integer rows."""
        return int_rank(self.num)

    def inverse(self) -> "MatQ":
        """Gauss-Jordan on [num | den Id], whose right half ends as the
        inverse of num / den."""
        if not self.is_square():
            raise ShapeMismatch("inverse of a non-square matrix")
        n, d = self.rows, self.den
        tab = [list(row) + [0] * i + [d] + [0] * (n - i - 1)
               for i, row in enumerate(self.num)]
        dens, pivots = _gauss_jordan(tab, n)
        if len(pivots) < n:
            raise NotInvertible("singular matrix")
        return MatQ._reduced(*_over([t[n:] for t in tab], dens), n)

    def nullspace(self) -> list["MatQ"]:
        """Basis of the right kernel, as column vectors, each 1 in its free
        column: the vectors of `int_kernel` over their last nonzero entry."""
        return [
            MatQ._wrap(tuple((v,) for v in vec), next(filter(None, reversed(vec))), 1)
            for vec in int_kernel(self.num, self.cols)
        ]
