"""Exact rational linear programming by simplex with Bland's rule.

Solves  max c.x  subject to  A x <= b  with x free and b >= 0.  Free
variables are split into differences of nonnegatives; with nonnegative
right-hand sides the slack basis is immediately feasible, so no phase-one is
needed.  The regularity systems solved here are homogeneous except for a
single normalization row, so this covers them.

The tableau is kept fraction-free, row by row: each row is a list of ints
with one positive denominator, and each pivot is `linalg._pivot`.  Only signs
and ratio comparisons of tableau entries steer the simplex, and both are read
exactly from the integers, so the pivot path (Bland's entering and leaving
rule, ratio ties broken by basis index) is that of the plain Fraction
tableau; the value and the solution come back as Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .linalg import _int_row, _pivot

Q = Fraction


class Unbounded(Exception):
    pass


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
        _pivot(tab, den, row, col)
        basis[row] = col

    value = Q(-tab[-1][-1], den[-1])
    split = [Q(0)] * (2 * nfree)
    for r in range(nrows):
        if basis[r] < 2 * nfree:
            split[basis[r]] = Q(tab[r][-1], den[r])
    x = [split[i] - split[nfree + i] for i in range(nfree)]
    return value, x
