"""Seeded random instances for property tests and the check suite.

Matrix entries live in {-2..2}/{1..3}; generators reject candidates that
violate the model invariants, so every draw is valid and every run with the
same seed is identical.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import InvalidInput, NotInvertible
from .geometry import Config, Dir, Pt, general_position, infinity_generic
from .linalg import MatQ
from .perverse import Quiver, TransportData

Q = Fraction


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def rand_matrix(r: random.Random, rows: int, cols: int) -> MatQ:
    """Entries Fraction(randint(-2, 2), randint(1, 3)), drawn in row order,
    kept as integers over 6, the lcm of the denominators 1..3."""
    return MatQ._reduced(tuple([
        tuple([r.randint(-2, 2) * (6 // r.randint(1, 3)) for _ in range(cols)])
        for _ in range(rows)
    ]), 6, cols)


def rand_transport(
    r: random.Random, n: int, max_dim: int = 2, tries: int = 400
) -> TransportData:
    for _ in range(tries):
        dims = [r.randint(1, max_dim) for _ in range(n)]
        grid = [
            [rand_matrix(r, dims[j], dims[i]) for j in range(n)]
            for i in range(n)
        ]
        try:
            return TransportData(dims, grid)
        except NotInvertible:
            continue
    raise AssertionError("failed to draw valid transport data")


def rand_quiver(
    r: random.Random, n: int, max_dim: int = 2, tries: int = 400
) -> Quiver:
    for _ in range(tries):
        dims = [r.randint(1, max_dim) for _ in range(n)]
        d_psi = r.randint(1, max_dim + 1)
        a = [rand_matrix(r, d_psi, d) for d in dims]
        b = [rand_matrix(r, d, d_psi) for d in dims]
        try:
            return Quiver(dims, d_psi, a, b)
        except NotInvertible:
            continue
    raise AssertionError("failed to draw a valid quiver")


def rand_config(
    r: random.Random,
    n: int,
    require_strong: bool = True,
    extra_dirs: tuple[Dir, ...] = (),
    tries: int = 600,
    box: int = 12,
) -> Config:
    """A configuration in (strong) linearly general position, also generic
    for every direction in extra_dirs."""
    for _ in range(tries):
        pts = set()
        while len(pts) < n:
            pts.add(
                (
                    Fraction(r.randint(-box, box), r.randint(1, 3)),
                    Fraction(r.randint(-box, box), r.randint(1, 3)),
                )
            )
        A = Config(Pt(x, y) for x, y in sorted(pts))
        rep = general_position(A)
        if not rep.lin_general:
            continue
        if require_strong and not rep.strong_lin_general:
            continue
        if not all(infinity_generic(A, d) for d in extra_dirs):
            continue
        return A
    raise AssertionError("failed to draw a generic configuration")


def maximally_concave_config(r: random.Random, n: int, tries: int = 600) -> Config:
    """All points on a single right-convex chain (so every left-convex path
    between any two of them is the plain segment).

    Built by sampling strictly increasing heights with x chosen to keep the
    chain bulging rightward, then validating strong general position.
    """
    for _ in range(tries):
        ys = sorted(
            {Fraction(r.randint(-3 * n, 3 * n), r.randint(1, 2)) for _ in range(3 * n)}
        )
        if len(ys) < n:
            continue
        ys = ys[:n]
        # a concave cap: x = -(y - c)^2 scaled, plus small rational jitter
        c = (ys[0] + ys[-1]) / 2
        pts = []
        for y in ys:
            x = -((y - c) * (y - c)) + Fraction(r.randint(-1, 1), 7)
            pts.append(Pt(x, y))
        try:
            A = Config(pts)
        except InvalidInput:
            continue
        rep = general_position(A, Dir(Q(1), Q(0)))
        if not (rep.strong_lin_general and rep.incl_infinity):
            continue
        # counterclockwise turns up the chain kill every multi-segment
        # left-convex path, leaving only the plain segments
        t = A.sign_table()
        if all(t[k][k + 1][k + 2] > 0 for k in range(n - 2)):
            return A
    raise AssertionError("failed to draw a maximally concave configuration")
