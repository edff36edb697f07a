"""Exact dense linear algebra over the rationals.

All matrices are immutable grids of ``fractions.Fraction``.  Inverses and
kernels are computed by exact Gaussian elimination, ranks by fraction-free
elimination on integer rows; a singular inverse is an error
(`NotInvertible`), never a tolerance call.  Products and the forward
substitution of `solve_unit_upper_right` scale each row and column to
integers over its least common denominator: an entry is one integer dot
product over the product of a row and a column denominator, normalised once,
with no Fraction formed per term.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .errors import InvalidInput, NotInvertible, ShapeMismatch
from .lp import _int_row, _reduce

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


def int_rank(rows: list[list[int]]) -> int:
    """The rank of a list of integer rows.  Each step takes a pivot row,
    clears its column from the other rows by integer multiples of both and
    divides each changed row by its gcd, so no Fraction is formed and
    entries stay small."""
    rows = [row for row in rows if any(row)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((row for row in rows if row[c]), None)
        if pivot is None:
            continue
        rank += 1
        p = pivot[c]
        rest = []
        for row in rows:
            if row is pivot:
                continue
            f = row[c]
            if f:
                g = math.gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(row, pivot)]
                if not any(row):
                    continue
                _reduce(row)
            rest.append(row)
        rows = rest
    return rank


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

    def _rref(self):
        """Reduced row echelon form; returns (rref rows, pivot column list)."""
        m = [list(row) for row in self.entries]
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            pivot = next((i for i in range(r, self.rows) if m[i][c] != 0), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            inv = 1 / m[r][c]
            m[r] = [x * inv for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [x - f * y for x, y in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return m, pivots

    def rank(self) -> int:
        """Rank by fraction-free elimination: each row is scaled to integers
        over its least common denominator, and elimination runs on those."""
        return int_rank([_int_row(row)[0] for row in self.entries])

    def inverse(self) -> "MatQ":
        if not self.is_square():
            raise ShapeMismatch("inverse of a non-square matrix")
        n = self.rows
        aug = MatQ.from_blocks([[self, MatQ.identity(n)]])
        red, pivots = aug._rref()
        if pivots != list(range(n)):
            raise NotInvertible("singular matrix")
        return MatQ._trusted(tuple([tuple(row[n:]) for row in red]), n)

    def nullspace(self) -> list["MatQ"]:
        """Basis of the right kernel, as column vectors."""
        red, pivots = self._rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            vec = [Q(0)] * self.cols
            vec[fc] = Q(1)
            for r, pc in enumerate(pivots):
                vec[pc] = -red[r][fc]
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
