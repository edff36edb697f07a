"""Exact dense linear algebra over the rationals.

All matrices are immutable grids of ``fractions.Fraction``.  Integer rows (a
row over its least common denominator, `_int_row`) live here, and so does the
package's one elimination step, the fraction-free `_pivot`: ranks, inverses,
kernels and the simplex of `lp` all run on it, and Fractions are formed only
from the final rows.  A singular inverse is an error (`NotInvertible`), never
a tolerance call.  Products and the forward substitution of
`solve_unit_upper_right` are integer dot products over a row and a column
denominator, with no Fraction formed per term.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .errors import InvalidInput, NotInvertible, ShapeMismatch

Q = Fraction
_ZERO, _ONE = Q(0), Q(1)


def _frac(x) -> Fraction:
    """An exact rational from a Fraction, an int or a "num/den" string."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise InvalidInput(f"not an exact rational: {x!r}")


def _int_row(vals: Sequence) -> tuple[list[int], int]:
    """Rationals as (ints, least positive common denominator)."""
    ratios = [
        (v if isinstance(v, (int, Fraction)) else Q(v)).as_integer_ratio()
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


def int_rank(rows: list[list[int]]) -> int:
    """The rank of integer rows (left as they are): on a copy, the first row
    pivots on its first nonzero entry, if any, and is set aside."""
    tab = [t[:] for t in rows]
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


class MatQ:
    """An immutable rows x cols matrix over Q."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        grid = tuple([tuple([_frac(x) for x in row]) for row in entries])
        self.entries = grid
        self.rows = len(grid)
        self.cols = len(grid[0]) if grid else 0
        for row in grid:
            if len(row) != self.cols:
                raise ShapeMismatch("ragged matrix rows")

    @classmethod
    def _trusted(cls, grid: tuple[tuple[Fraction, ...], ...], cols: int) -> "MatQ":
        """Wrap a tuple of rows of `cols` Fractions each as they are, with
        neither the per-entry conversion nor the ragged-row check.  The width
        is given, so a matrix with no rows keeps it."""
        out = object.__new__(cls)
        out.entries = grid
        out.rows = len(grid)
        out.cols = cols
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "MatQ":
        row = (_ZERO,) * cols
        return MatQ._trusted((row,) * rows, cols)

    @staticmethod
    def identity(n: int) -> "MatQ":
        return MatQ._trusted(tuple(
            (_ZERO,) * i + (_ONE,) + (_ZERO,) * (n - i - 1) for i in range(n)
        ), n)

    @staticmethod
    def scalar(value, n: int = 1) -> "MatQ":
        v = _frac(value)
        return MatQ([[v if i == j else Q(0) for j in range(n)] for i in range(n)])

    @staticmethod
    def column(values: Sequence) -> "MatQ":
        return MatQ([[v] for v in values])

    @staticmethod
    def row(values: Sequence) -> "MatQ":
        return MatQ([list(values)])

    @staticmethod
    def from_blocks(blocks: Sequence[Sequence["MatQ"]]) -> "MatQ":
        """Assemble a block matrix from a grid of compatible blocks."""
        out: list[list[Fraction]] = []
        width = sum(b.cols for b in blocks[0]) if blocks else 0
        for block_row in blocks:
            height = block_row[0].rows
            for b in block_row:
                if b.rows != height:
                    raise ShapeMismatch("block heights disagree")
            for r in range(height):
                out.append(tuple([x for b in block_row for x in b.entries[r]]))
        if any(sum(b.cols for b in block_row) != width for block_row in blocks):
            raise ShapeMismatch("ragged matrix rows")
        return MatQ._trusted(tuple(out), width)

    # -- basic queries -----------------------------------------------------

    def __getitem__(self, rc) -> Fraction:
        r, c = rc
        return self.entries[r][c]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatQ)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"MatQ[{self.rows}x{self.cols}: {body}]"

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "MatQ") -> "MatQ":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("matrix sum shape mismatch")
        return MatQ._trusted(tuple([
            tuple([a + b for a, b in zip(ra, rb)])
            for ra, rb in zip(self.entries, other.entries)
        ]), self.cols)

    def __sub__(self, other: "MatQ") -> "MatQ":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("matrix difference shape mismatch")
        return MatQ._trusted(tuple([
            tuple([a - b for a, b in zip(ra, rb)])
            for ra, rb in zip(self.entries, other.entries)
        ]), self.cols)

    def __neg__(self) -> "MatQ":
        return MatQ._trusted(
            tuple([tuple([-x for x in row]) for row in self.entries]), self.cols
        )

    def scale(self, s) -> "MatQ":
        s = _frac(s)
        return MatQ._trusted(
            tuple([tuple([s * x for x in row]) for row in self.entries]), self.cols
        )

    def __matmul__(self, other: "MatQ") -> "MatQ":
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        if not self.cols:
            return MatQ.zeros(self.rows, other.cols)
        cols = [_int_row(col) for col in zip(*other.entries)]
        out = []
        for row in self.entries:
            a, da = _int_row(row)
            out.append(tuple([Q(sum(map(mul, a, b)), da * db) for b, db in cols]))
        return MatQ._trusted(tuple(out), other.cols)

    @property
    def T(self) -> "MatQ":
        grid = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return MatQ._trusted(grid, self.rows)

    # -- elimination -------------------------------------------------------

    def rank(self) -> int:
        """Rank by fraction-free elimination: each row is scaled to integers
        over its least common denominator, and elimination runs on those."""
        return int_rank([_int_row(row)[0] for row in self.entries])

    def inverse(self) -> "MatQ":
        if not self.is_square():
            raise ShapeMismatch("inverse of a non-square matrix")
        n = self.rows
        ident = MatQ.identity(n).entries
        tab = [_int_row(row + e)[0] for row, e in zip(self.entries, ident)]
        den, pivots = _gauss_jordan(tab, n)
        if len(pivots) < n:
            raise NotInvertible("singular matrix")
        return MatQ._trusted(tuple([
            tuple([Q(v, d) for v in t[n:]]) for t, d in zip(tab, den)
        ]), n)

    def nullspace(self) -> list["MatQ"]:
        """Basis of the right kernel, as column vectors."""
        tab = [_int_row(row)[0] for row in self.entries]
        den, pivots = _gauss_jordan(tab, self.cols)
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            vec = [Q(0)] * self.cols
            vec[fc] = Q(1)
            for t, d, pc in zip(tab, den, pivots):
                vec[pc] = Q(-t[fc], d)
            basis.append(MatQ.column(vec))
        return basis

    # -- block access ------------------------------------------------------

    def submatrix(self, row_range, col_range) -> "MatQ":
        return MatQ._trusted(tuple([
            tuple([self.entries[r][c] for c in col_range]) for r in row_range
        ]), len(col_range))


def block_diagonal(blocks: Sequence[MatQ]) -> MatQ:
    return MatQ.from_blocks([
        [b if s == t else MatQ.zeros(b.rows, c.cols) for s, c in enumerate(blocks)]
        for t, b in enumerate(blocks)
    ])


def solve_unit_upper_right(b: MatQ, u: MatQ) -> MatQ:
    """X with X @ u == b for u upper unitriangular (ones on the diagonal,
    zeros below it), by forward substitution over the columns: column c of X
    is b_c - sum_{k<c} X_k u[k][c], one integer dot product per entry.
    Nothing is inverted."""
    n = u.rows
    if u.cols != n or b.cols != n:
        raise ShapeMismatch(f"cannot solve X @ ({n}x{u.cols}) = ({b.rows}x{b.cols})")
    ue = u.entries
    if any(ue[c][c] != 1 or any(ue[c][:c]) for c in range(n)):
        raise InvalidInput("matrix is not upper unitriangular")
    # column c of u above the diagonal, over its least common denominator
    above = [_int_row([ue[k][c] for k in range(c)]) for c in range(n)]
    out = []
    for row in b.entries:
        # x[:c] is xs / dx, kept in integer form as the entries are found
        x, xs, dx = [], [], 1
        for bc, (uc, du) in zip(row, above):
            s = sum(map(mul, xs, uc))
            if s:
                d = dx * du
                bc = Q(bc.numerator * d - s * bc.denominator, bc.denominator * d)
            x.append(bc)
            q = bc.denominator
            if dx % q:
                m = q // math.gcd(dx, q)
                xs = [v * m for v in xs]
                dx *= m
            xs.append(bc.numerator * (dx // q))
        out.append(tuple(x))
    return MatQ._trusted(tuple(out), n)
