"""The registry of identities behind `infrared check`, shared with the tests.

Each entry of IDENTITIES is one identity: `draw(r, n, dim)` draws an
instance from a seeded `random.Random` as named parts, and
`holds(**parts)` decides the identity on them.  `entry(r, n, dim)` does
both and returns None when the identity holds, else the instance's JSON by
the parts' own `to_json`: an `infrared` instance file for the Fourier and
Stokes entries, the pair [start, target] of instance files that `infrared
walk start --to target` reads for a leg.  `run(seed, n, dim)` runs every
entry `draws` times from one stream rng(seed) and reports one boolean per
entry, `all_ok` and the seed; only when an entry fails does it add
`counterexamples`, each entry's first failing iteration (from 0) and its
instance.  The tests run the same entries with more draws.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction
from operator import eq
from typing import Callable, NamedTuple

from .errors import InvalidInput, PathNotGeneric
from .fourier import factorization_check, fourier_diagram, global_monodromy, monodromy_product
from .geometry import Dir, config, general_position, segment_wall_events
from .linalg import MatQ, int_rank
from .perverse import Quiver, braid_act_word, double_dual_check, jacobson, mu
from .randomgen import (
    maximally_concave_config, rand_config, rand_matrix, rand_quiver, rand_transport, rng)
from .secondary import (
    gkz_vector, induced_subdivision, is_regular, refinement_poset, refines, secondary_fan)
from .wallcross import CrossingSpec, apply_crossings, transport_along_path

Q = Fraction

# the largest block size `run` accepts: it draws matrices of up to dim + 1
# rows and columns, and at dim 24 the suite takes a few seconds
MAX_DIM = 24

# the default directions of `infrared fourier` and `infrared stokes`, so
# that a counterexample file replays with either command as it stands
ZETA = Dir(Q(1), Q(0))
ZETA0 = Dir(Q(-1), Q(0))


class Identity(NamedTuple):
    draws: int  # per run of `infrared check`
    draw: Callable  # (r, n, dim) -> the instance's parts by name
    holds: Callable  # (**parts) -> bool

    def __call__(self, r, n: int, dim: int):
        parts = self.draw(r, n, dim)
        if self.holds(**parts):
            return None
        doc = {name: [x.to_json() for x in part] if isinstance(part, list) else part.to_json()
               for name, part in parts.items() if name != "target"}
        return [doc, {"config": parts["target"].to_json()}] if "target" in parts else doc


def _draw_jacobson(r, n, dim):
    """u: Q^cols -> Q^rows and v back, 1..dim+1 each, with Id - uv invertible."""
    while True:
        rows, cols = r.randint(1, dim + 1), r.randint(1, dim + 1)
        u, v = rand_matrix(r, rows, cols), rand_matrix(r, cols, rows)
        if (MatQ.identity(rows) - u @ v).rank() == rows:
            return {"u": u, "v": v}


def _draw_arms(r, n, dim):
    q = rand_quiver(r, 1, max_dim=dim)
    return {"a": q.a[0], "b": q.b[0]}


def _draw_braid(r, n, dim):
    nn = max(2, min(n, 5))
    return {"quiver": rand_quiver(r, nn, max_dim=dim),
            "transport": rand_transport(r, nn, max_dim=dim)}


def _braid(quiver, transport):
    """On both models every relation (i, i+1, i) = (i+1, i, i+1), every
    commutation of generators two or more apart and every generator +-g
    undone by its inverse; and mu natural for every +-g."""
    n, collapsed = quiver.n, mu(quiver)
    relations = [([i, i + 1, i], [i + 1, i, i + 1]) for i in range(1, n - 1)] + [
        ([i, j], [j, i]) for i, j in itertools.combinations(range(1, n), 2) if j - i >= 2]
    return all(braid_act_word(x, lhs) == braid_act_word(x, rhs)
               for lhs, rhs in relations for x in (quiver, transport)) and all(
        all(braid_act_word(x, [g, -g]) == x for x in (quiver, transport))
        and mu(braid_act_word(quiver, [g])) == braid_act_word(collapsed, [g])
        for k in range(1, n) for g in (k, -k))


def _draw_crossings(r, n, dim):
    """Transport data and the crossings of the walls of a random triple
    i < j < k: collinearity of (i, j, k), horizontality of (i, j) with w_j
    left and right of w_i."""
    nn = max(3, min(n, 5))
    m = rand_transport(r, nn, max_dim=dim)
    i, j, k = sorted(r.sample(range(nn), 3))
    eps = r.choice((1, -1))
    return {"transport": m, "events": [CrossingSpec("coll", i, j, k, eps_before=eps)] + [
        CrossingSpec("horiz", i, j, motion="above", re_cmp=side) for side in ("left", "right")]}


def _involutive(transport, events):
    """Crossing each wall and back restores the data, in one fold and in two."""
    for spec in events:
        if spec.kind == "coll":
            back = replace(spec, eps_before=-spec.eps_before)
        else:
            back = replace(spec, motion="below" if spec.motion == "above" else "above")
        once = apply_crossings(transport, [spec, back])
        if not once == transport == apply_crossings(apply_crossings(transport, [spec]), [back]):
            return False
    return True


def _draw_fourier(r, n, dim):
    nn = min(n, 5)
    return {"config": rand_config(r, nn, require_strong=False, extra_dirs=(ZETA,)),
            "transport": rand_transport(r, nn, max_dim=dim)}


def _fourier_monodromy(config, transport):
    """Id - b-check a-check of the transform in direction ZETA is the
    clockwise (descending) monodromy product, and the transform is a
    one-point quiver: its constructor checks the arms' shapes and that
    Id - b-check a-check is invertible."""
    diag = fourier_diagram(transport, ZETA, config)
    if diag.monodromy() != monodromy_product(transport.permuted(diag.order), "descending"):
        return False
    Quiver([diag.d_psi], sum(diag.dims), [MatQ.from_blocks([[a] for a in diag.a_check])],
           [diag.b_check])
    return True


def _draw_stokes(r, n, dim):
    """Half the draws maximally concave, where every path sum is a single
    segment, half generic for the Stokes direction."""
    nn = min(n, 5)
    if r.randrange(2):
        A = maximally_concave_config(r, nn)
    else:
        A = rand_config(r, nn, extra_dirs=(ZETA,))
    return {"config": A, "transport": rand_transport(r, nn, max_dim=dim)}


def _draw_leg(r, n, dim):
    """A straight leg that moves one or two points of a generic configuration
    and meets at least one wall, both ends in strong general position, and
    transport data at its start.  Half the legs move points horizontally
    only, which keeps the heights and so meets collinearity walls only; two
    points moving on different lines meet walls at irrational times too."""
    nn = max(3, min(n, 5))
    flat = r.randrange(2)
    while True:
        a0 = rand_config(r, nn, extra_dirs=(ZETA,))
        pts = [[p.x, p.y] for p in a0.points]
        for k in r.sample(range(nn), r.randint(1, 2)):
            pts[k][0] += Q(r.randint(-40, 40), 2)
            pts[k][1] += 0 if flat else Q(r.randint(-12, 12), 2)
        try:
            a1 = config(*pts)  # InvalidInput: two points coincide
            events = segment_wall_events(a0, a1)
        except (InvalidInput, PathNotGeneric):
            continue
        if events and general_position(a1).strong_lin_general:
            return {"config": a0, "transport": rand_transport(r, nn, max_dim=dim), "target": a1}


def _isomonodromy(config, transport, target):
    """Walking the leg and back restores the data exactly.  A leg that meets
    collinearity walls only keeps the Stokes data: the factorization report
    (C+, C-, Delta, T_glob, the verdict) and the global monodromy."""
    out, log = transport_along_path(transport, config, target)
    if transport_along_path(out, target, config)[0] != transport:
        return False
    return any(s.kind != "coll" for s in log) or (
        factorization_check(transport, config, ZETA0) == factorization_check(out, target, ZETA0)
        and global_monodromy(transport, config, ZETA0) == global_monodromy(out, target, ZETA0))


def _gkz(config):
    """The secondary polytope from the regular subdivisions, their codims
    and the GKZ vectors of the triangulations (Gelfand, Kapranov and
    Zelevinsky, Ch. 7).  With N points, for every regular S:
      1. the GKZ vectors of the regular triangulations T <= S span an
         affine space of dimension N - 3 - codim S, the face of S;
      2. the sum over the regular T <= S of (-1)^(N - 3 - codim T) is 1;
      3. an S of codim N - 4 has two triangulations below it and one cell
         that is not a marked triangle; it has 4 marked points, and the two
         GKZ vectors differ exactly there;
    and the refinement poset has height N - 3."""
    A, top = config, len(config) - 3
    regular = [(s, rep.codim) for s, rep, wit in secondary_fan(A) if wit is not None]
    if refinement_poset(*zip(*regular))["height"] != top:
        return False
    vertex = {s: gkz_vector(A, s) for s, _ in regular if s.is_triangulation()}
    for S, codim in regular:
        below = [(T, c) for T, c in regular if refines(T, S)]
        vecs = [vertex[T] for T, _ in below if T in vertex]
        if (int_rank([[x - y for x, y in zip(v, vecs[0])] for v in vecs[1:]]) != top - codim
                or sum((-1) ** (top - c) for _, c in below) != 1):
            return False
        if codim == top - 1:
            odd = [cell.marked for cell in S.cells if len(cell.marked) != 3]
            differ = {w for w, (x, y) in enumerate(zip(*vecs)) if x != y}
            if len(vecs) != 2 or len(odd) != 1 or len(odd[0]) != 4 or differ != odd[0]:
                return False
    return True


def _draw_fan(r, n, dim):
    """Half the draws 5 or 6 random points, half an outer triangle and a
    shrunk, shifted copy inside it: six points with irregular subdivisions,
    which random draws of this size almost never have."""
    if r.randrange(2):
        return {"config": rand_config(r, r.randint(5, 6))}
    outer = [(Q(0), Q(0)), (Q(12), Q(0)), (Q(6), Q(12))]
    while True:
        s, dx, dy = Q(r.randint(2, 4), 10), Q(r.randint(-3, 3), 7), Q(r.randint(-3, 3), 7)
        A = config(*outer, *((6 + s * (x - 6) + dx, 4 + s * (y - 4) + dy) for x, y in outer))
        if general_position(A).lin_general:
            return {"config": A}


def _fan_lp(config):
    """`secondary_fan` decides every subdivision as the exact LP
    `is_regular` does, and each of its witnesses has slack 1 and induces
    its subdivision."""
    return all(
        (wit is None) == (is_regular(config, sub) is None)
        and (wit is None or wit.slack == 1 and induced_subdivision(config, wit.psi) == sub)
        for sub, _, wit in secondary_fan(config))


IDENTITIES = {
    "jacobson": Identity(20, _draw_jacobson, lambda u, v: eq(*jacobson(u, v))),
    "duality_round_trip": Identity(15, _draw_arms, double_dual_check),
    "braid_relations_naturality": Identity(3, _draw_braid, _braid),
    "wallcross_involutive": Identity(10, _draw_crossings, _involutive),
    "fourier_monodromy": Identity(6, _draw_fourier, _fourier_monodromy),
    "stokes_factorization": Identity(6, _draw_stokes, lambda config, transport:
                                     factorization_check(transport, config, ZETA0).ok),
    "isomonodromy_legs": Identity(4, _draw_leg, _isomonodromy),
    "secondary_gkz": Identity(
        2, lambda r, n, dim: {"config": rand_config(r, r.randint(5, 6))}, _gkz),
    "secondary_fan_lp": Identity(2, _draw_fan, _fan_lp),
}


def run(seed: int = 0, n: int = 4, dim: int = 2) -> dict:
    r = rng(seed)
    results, found = {}, {}
    for name, entry in IDENTITIES.items():
        for k in range(entry.draws):
            instance = entry(r, n, dim)
            if instance is not None and name not in found:
                found[name] = {"iteration": k, "instance": instance}
        results[name] = name not in found
    results["all_ok"] = not found
    results["seed"] = seed
    if found:
        results["counterexamples"] = found
    return results
