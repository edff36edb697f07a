"""Exact rational linear programming by simplex with Bland's rule.

Solves  max c.x  subject to  A x <= b  with x free and b >= 0.  Free
variables are split into differences of nonnegatives; with nonnegative
right-hand sides the slack basis is immediately feasible, so no phase-one is
needed.  The regularity systems solved here are homogeneous except for a
single normalization row, so this covers them.

The tableau is kept fraction-free, row by row: each row is a list of ints
with one positive denominator, and a pivot updates a row by integer
multiplies followed by one gcd reduction.  Only signs and ratio comparisons
of tableau entries steer the simplex, and both are read exactly from the
integers, so the pivot path (Bland's entering and leaving rule, ratio ties
broken by basis index) is that of the plain Fraction tableau; the value and
the solution come back as Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Q = Fraction


class Unbounded(Exception):
    pass


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


def maximize(
    c: Sequence[Fraction],
    a_rows: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
) -> tuple[Fraction, list[Fraction]]:
    """max c.x subject to A x <= b (x free, all b >= 0); returns (value, x)."""
    if any(Q(v) < 0 for v in b):
        raise ValueError("right-hand sides must be nonnegative")
    nfree = len(c)
    nrows = len(a_rows)
    ncols = 2 * nfree + nrows

    # row r of the tableau is tab[r] / den[r]; the last row is the objective
    tab: list[list[int]] = []
    den: list[int] = []
    for r in range(nrows):
        coef, d = _int_row([a_rows[r][i] for i in range(nfree)] + [b[r]])
        row = coef[:nfree] + [-v for v in coef[:nfree]] + [0] * nrows + coef[-1:]
        row[2 * nfree + r] = d
        tab.append(row)
        den.append(d)
    basis = list(range(2 * nfree, 2 * nfree + nrows))
    coef, d = _int_row(c)
    tab.append(coef + [-v for v in coef] + [0] * (nrows + 1))
    den.append(d)

    while True:
        objrow = tab[-1]
        col = next((j for j in range(ncols) if objrow[j] > 0), None)
        if col is None:
            break
        # leaving row: least ratio rhs/entry, ties to the least basis index;
        # a row's denominator cancels in its ratio
        row = None
        for r in range(nrows):
            t = tab[r]
            if t[col] > 0:
                if row is None:
                    row = r
                    continue
                lhs = t[-1] * tab[row][col]
                rhs = tab[row][-1] * t[col]
                if lhs < rhs or (lhs == rhs and basis[r] < basis[row]):
                    row = r
        if row is None:
            raise Unbounded()
        # scale the pivot row to a unit pivot: its pivot entry becomes its
        # denominator
        prow = tab[row]
        pv = den[row] = _reduce(prow, prow[col])
        nz = [(j, q) for j, q in enumerate(prow) if q]
        for r in range(nrows + 1):
            t = tab[r]
            f = t[col]
            if r == row or f == 0:
                continue
            # t/den[r] - (f/den[r]) prow/pv over the denominator den[r] pv,
            # with gcd(f, pv) cancelled; only the nonzeros of prow change t
            g = math.gcd(f, pv)
            p, f = pv // g, f // g
            if p != 1:
                t = [a * p for a in t]
            for j, q in nz:
                t[j] -= f * q
            tab[r] = t
            den[r] = _reduce(t, den[r] * p)
        basis[row] = col

    value = Q(-tab[-1][-1], den[-1])
    split = [Q(0)] * (2 * nfree)
    for r in range(nrows):
        if basis[r] < 2 * nfree:
            split[basis[r]] = Q(tab[r][-1], den[r])
    x = [split[i] - split[nfree + i] for i in range(nfree)]
    return value, x
