"""Isomonodromic deformation of transport data along configuration paths.

Crossing a wall of horizontality D_ij changes only m_ij and m_ji by
sandwiching with a local monodromy T = Id - m_kk (k = i or j); crossing a
wall of collinearity D_ijk (point j sweeping through the open segment
[w_i, w_k]) changes only m_ik and m_ki by the Picard-Lefschetz correction

    m'_ik = m_ik - eps * m_jk m_ij,     m'_ki = m_ki + eps * m_ji m_kj,

where eps is the orientation of (i, j, k) just before the crossing and the
mirrored sign is its alternating extension eps_kji = -eps_ijk.  Both
updates are involutive: crossing back restores the data exactly.

Every crossing is a pair of fused rank updates, `MatQ.plus_product`: the
collinearity correction is one per changed block, and T is never formed,
since x T = x - x m_kk and T x = x - m_kk x; only T^{-1}, which the
transport data keeps, enters as a product.

A crossing is one record, `geometry.CrossingSpec`, whether the wall-event
engine met it on a leg (`segment_wall_events`, which also fills in its
time) or it was given by hand or read from JSON, so the algebra can be
exercised in isolation.  Every fold over crossings is `apply_crossings`: it
copies the block grid once, lets `apply_crossing` update it in place for
each crossing in turn, and assembles one `TransportData` at the end.  No
crossing changes a diagonal block, so the inverses T_i^{-1} of the input
carry over unchanged, and each new block is a product or rank update of
blocks of the grid, which raise `ShapeMismatch` on any shape that does not
fit, so no block is checked again.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .geometry import Config, CrossingSpec, segment_wall_events
from .linalg import MatQ
from .perverse import TransportData


def _times_t(x: MatQ, mkk: MatQ, t_inv: MatQ, on_right: bool, inverse: bool) -> MatQ:
    """x T if on_right else T x, with T^{-1} in place of T when inverse."""
    if inverse:
        return x @ t_inv if on_right else t_inv @ x
    return x.plus_product(x, mkk, -1) if on_right else x.plus_product(mkk, x, -1)


def apply_crossing(
    grid: list[list[MatQ]], t_inv: Sequence[MatQ], spec: CrossingSpec
) -> None:
    """Apply one crossing to the block grid in place; t_inv[k] is
    (Id - grid[k][k])^{-1}.

    Horizontality: four cases for m_ij (w_j the mover), mirrored for m_ji by
    swapping the roles of i and j; only those two blocks change.

    Collinearity: the sign convention pairs -eps on m_ik with +eps on m_ki;
    together with the orientation sign computed by the geometry engine this
    is the unique choice that keeps every convex-path transport sum
    invariant across the wall (tested blockwise in the suite), and it is its
    own alternating i <-> k mirror."""
    i, j = spec.i, spec.j
    if spec.kind == "horiz":
        # left: sandwich with T_i on the Phi_i side (m_ij T, T m_ji); right:
        # T_j on the Phi_j side (T m_ij, m_ji T); above multiplies m_ij by T
        # and m_ji by T^{-1}, below the other way
        left, below = spec.re_cmp == "left", spec.motion == "below"
        k = i if left else j
        mkk, tk = grid[k][k], t_inv[k]
        grid[i][j] = _times_t(grid[i][j], mkk, tk, left, below)
        grid[j][i] = _times_t(grid[j][i], mkk, tk, not left, not below)
    else:
        k, eps = spec.k, spec.eps_before
        grid[i][k] = grid[i][k].plus_product(grid[j][k], grid[i][j], -eps)
        grid[k][i] = grid[k][i].plus_product(grid[j][i], grid[k][j], eps)


def transport_along_path(
    m: TransportData, a0: Config, a1: Config
) -> tuple[TransportData, list[CrossingSpec]]:
    """Fold the ordered wall events of the straight leg a0 -> a1 through the
    two crossing updates; returns the new data and the event log."""
    events = segment_wall_events(a0, a1)
    return apply_crossings(m, events), events


def apply_crossings(
    m: TransportData, specs: Iterable[CrossingSpec]
) -> TransportData:
    """The data after the crossings in order: one grid copy, each crossing
    applied to it in place, one `TransportData` with the inverses of m."""
    grid = [list(row) for row in m.m]
    t_inv = m._t_inv
    for spec in specs:
        apply_crossing(grid, t_inv, spec)
    return TransportData._checked(m.dims, tuple(map(tuple, grid)), t_inv)
