"""Isomonodromic deformation of transport data along configuration paths.

Crossing a wall of horizontality D_ij changes only m_ij and m_ji by
sandwiching with a local monodromy T = Id - m_kk (k = i or j); crossing a
wall of collinearity D_ijk (point j sweeping through the open segment
[w_i, w_k]) changes only m_ik and m_ki by the Picard-Lefschetz correction

    m'_ik = m_ik + eps * m_jk m_ij,     m'_ki = m_ki - eps * m_ji m_kj,

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
exercised in isolation.  Every fold over crossings is `apply_crossings`.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InvalidInput
from .geometry import Config, CrossingSpec, segment_wall_events
from .linalg import MatQ
from .perverse import TransportData


def _times_t(x: MatQ, mkk: MatQ, t_inv: MatQ, on_right: bool, inverse: bool) -> MatQ:
    """x T if on_right else T x, with T^{-1} in place of T when inverse."""
    if inverse:
        return x @ t_inv if on_right else t_inv @ x
    return x.plus_product(x, mkk, -1) if on_right else x.plus_product(mkk, x, -1)


def cross_horizontality(m: TransportData, spec: CrossingSpec) -> TransportData:
    """Four cases for m_ij (w_j the mover), mirrored for m_ji by swapping
    the roles of i and j; only those two entries change."""
    if spec.kind != "horiz":
        raise InvalidInput("expected a horizontality spec")
    i, j = spec.i, spec.j
    # left: sandwich with T_i on the Phi_i side (m_ij T, T m_ji); right: T_j
    # on the Phi_j side (T m_ij, m_ji T); above multiplies m_ij by T and m_ji
    # by T^{-1}, below the other way
    left, below = spec.re_cmp == "left", spec.motion == "below"
    k = i if left else j
    mkk, t_inv = m.m[k][k], m.local_monodromy_inverse(k)
    return m.replace({
        (i, j): _times_t(m.m[i][j], mkk, t_inv, left, below),
        (j, i): _times_t(m.m[j][i], mkk, t_inv, not left, not below),
    })


def cross_collinearity(m: TransportData, spec: CrossingSpec) -> TransportData:
    """The sign convention pairs -eps on m_ik with +eps on m_ki; together
    with the orientation sign computed by the geometry engine this is the
    unique choice that keeps every convex-path transport sum invariant
    across the wall (tested blockwise in the suite), and it is its own
    alternating i <-> k mirror."""
    if spec.kind != "coll":
        raise InvalidInput("expected a collinearity spec")
    i, j, k, eps = spec.i, spec.j, spec.k, spec.eps_before
    g = m.m
    return m.replace({
        (i, k): g[i][k].plus_product(g[j][k], g[i][j], -eps),
        (k, i): g[k][i].plus_product(g[j][i], g[k][j], eps),
    })


def apply_crossing(m: TransportData, spec: CrossingSpec) -> TransportData:
    if spec.kind == "horiz":
        return cross_horizontality(m, spec)
    return cross_collinearity(m, spec)


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
    for spec in specs:
        m = apply_crossing(m, spec)
    return m
