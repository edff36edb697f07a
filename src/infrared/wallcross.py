"""Isomonodromic deformation of transport data along configuration paths.

Crossing a wall of horizontality D_ij changes only m_ij and m_ji by
sandwiching with a local monodromy T = Id - m_ii; crossing a wall of
collinearity D_ijk (point j sweeping through the open segment [w_i, w_k])
changes only m_ik and m_ki by the Picard-Lefschetz correction

    m'_ik = m_ik + eps * m_jk m_ij,     m'_ki = m_ki - eps * m_ji m_kj,

where eps is the orientation of (i, j, k) just before the crossing and the
mirrored sign is its alternating extension eps_kji = -eps_ijk.  Both
updates are involutive: crossing back restores the data exactly.

Crossing specs may come from exact geometry (`segment_wall_events`) or be
supplied directly, so the algebra can be exercised in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidInput
from .geometry import Config, WallEvent, segment_wall_events
from .perverse import TransportData


@dataclass(frozen=True)
class CrossingSpec:
    """kind "horiz": w_j passes above/below w_i with Re(w_j) left/right of
    Re(w_i); kind "coll": w_j crosses [w_i, w_k] with prior orientation
    eps_before."""

    kind: str
    i: int
    j: int
    k: int = -1
    motion: str = ""
    re_cmp: str = ""
    eps_before: int = 0

    def __post_init__(self):
        if self.kind == "horiz":
            if self.motion not in ("above", "below"):
                raise InvalidInput("horizontality needs motion above|below")
            if self.re_cmp not in ("left", "right"):
                raise InvalidInput("horizontality needs re_cmp left|right")
            if self.i == self.j:
                raise InvalidInput("indices must differ")
        elif self.kind == "coll":
            if len({self.i, self.j, self.k}) != 3:
                raise InvalidInput("collinearity needs three distinct indices")
            if type(self.eps_before) is not int or self.eps_before not in (-1, 1):
                raise InvalidInput("eps_before must be the integer 1 or -1")
        else:
            raise InvalidInput("kind must be 'horiz' or 'coll'")
        idx = (self.i, self.j) if self.kind == "horiz" else (self.i, self.j, self.k)
        if any(type(v) is not int or v < 0 for v in idx):
            raise InvalidInput("point indices must be nonnegative integers")

    @staticmethod
    def from_event(ev: WallEvent) -> "CrossingSpec":
        if ev.kind == "horiz":
            return CrossingSpec(
                "horiz", ev.i, ev.j, motion=ev.motion, re_cmp=ev.re_cmp
            )
        return CrossingSpec("coll", ev.i, ev.j, ev.k, eps_before=ev.eps_before)

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


def cross_horizontality(m: TransportData, spec: CrossingSpec) -> TransportData:
    """Four cases for m_ij (w_j the mover), mirrored for m_ji by swapping
    the roles of i and j; only those two entries change."""
    if spec.kind != "horiz":
        raise InvalidInput("expected a horizontality spec")
    i, j = spec.i, spec.j
    # left: sandwich with T_i on the Phi_i side; right: T_j on the Phi_j side;
    # above multiplies m_ij by T and m_ji by T^{-1}, below the other way
    k = i if spec.re_cmp == "left" else j
    t, t_inv = m.local_monodromy(k), m.local_monodromy_inverse(k)
    if spec.motion == "below":
        t, t_inv = t_inv, t
    mij, mji = m.m[i][j], m.m[j][i]
    if spec.re_cmp == "left":
        new_ij, new_ji = mij @ t, t_inv @ mji
    else:
        new_ij, new_ji = t @ mij, mji @ t_inv
    return m.replace({(i, j): new_ij, (j, i): new_ji})


def cross_collinearity(m: TransportData, spec: CrossingSpec) -> TransportData:
    """The sign convention pairs -eps on m_ik with +eps on m_ki; together
    with the orientation sign computed by the geometry engine this is the
    unique choice that keeps every convex-path transport sum invariant
    across the wall (tested blockwise in the suite), and it is its own
    alternating i <-> k mirror."""
    if spec.kind != "coll":
        raise InvalidInput("expected a collinearity spec")
    i, j, k, eps = spec.i, spec.j, spec.k, spec.eps_before
    new_ik = m.m[i][k] + (m.m[j][k] @ m.m[i][j]).scale(-eps)
    new_ki = m.m[k][i] + (m.m[j][i] @ m.m[k][j]).scale(eps)
    return m.replace({(i, k): new_ik, (k, i): new_ki})


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
    specs = [CrossingSpec.from_event(ev) for ev in events]
    for spec in specs:
        m = apply_crossing(m, spec)
    return m, specs


def transport_along_waypoints(
    m: TransportData, configs: Sequence[Config]
) -> tuple[TransportData, list[CrossingSpec]]:
    """Multi-leg version: consecutive configurations are straight legs."""
    log: list[CrossingSpec] = []
    for a0, a1 in zip(configs, configs[1:]):
        m, specs = transport_along_path(m, a0, a1)
        log.extend(specs)
    return m, log


def apply_crossings(
    m: TransportData, specs: Iterable[CrossingSpec]
) -> TransportData:
    for spec in specs:
        m = apply_crossing(m, spec)
    return m
