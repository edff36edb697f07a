"""Seeded instance pools for the benchmark workloads, and their output checks.

A pool is a list of instance items.  Each item names the CLI calls it makes
(one for `stokes` and `secondary`, two for the `walk` round trip) and carries
what its checks need.  Within a workload every instance has the same number
of points and the same total transport dimension, so that a run's latency
distribution depends on the seed as little as the geometry allows.

Generators redraw only for documented preconditions: strong general position,
genericity for the Stokes direction, a leg that `segment_wall_events`
accepts, and for `secondary` the number of hull corners its family
prescribes.  They never look at event root types, signs of leading
coefficients or LP outcomes.  Every redraw is counted.

Run as a script, this module is the set-up step that `run.py` times in a
fresh process:  python3 perfbench/workloads.py WORKLOAD SEED DIR
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def require_infrared():
    """Put the checkout's `src` first on sys.path; exit 2 when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "infrared", "__init__.py")):
        print(f"perfbench: no infrared package under {SRC}", file=sys.stderr)
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


Q = Fraction


# ---------------------------------------------------------------------------
# configuration families


def _draw(counter: dict, draw):
    """Call `draw` until it succeeds, counting each failed attempt."""
    while True:
        try:
            return draw()
        except AssertionError:  # randomgen's "failed to draw" after its tries
            counter["redraws"] += 1


def parabola_arc(r: random.Random, n: int, counter: dict):
    """n points on the arc x = (y - c)^2 with distinct integer heights and
    x-jitter in {-1/5, 0, 1/5}; the jitter is too small to break convex
    position, so every upward chain turns clockwise."""
    from infrared.geometry import Config, Pt, general_position

    while True:
        ys = sorted(r.sample(range(-3 * n, 3 * n + 1), n))
        c = Q(ys[0] + ys[-1], 2)
        A = Config(Pt((y - c) ** 2 + Q(r.randint(-1, 1), 5), Q(y)) for y in ys)
        if general_position(A).strong_lin_general:
            return A
        counter["redraws"] += 1


def nested_triangles(r: random.Random, counter: dict):
    """An outer triangle plus a seeded, shrunken and shifted copy inside it
    (the 3+3 configuration with irregular subdivisions).  The copy's edges
    are parallel to the outer ones, so only linear general position, which
    subdivision enumeration needs, is required."""
    from infrared.geometry import Config, Pt, general_position

    outer = [Pt(Q(0), Q(0)), Pt(Q(12), Q(0)), Pt(Q(6), Q(12))]
    cx, cy = Q(6), Q(4)
    while True:
        s = Q(r.randint(2, 4), 10)
        dx, dy = Q(r.randint(-3, 3), 7), Q(r.randint(-3, 3), 7)
        inner = [Pt(cx + s * (p.x - cx) + dx, cy + s * (p.y - cy) + dy) for p in outer]
        A = Config(outer + inner)
        if general_position(A).lin_general:
            return A
        counter["redraws"] += 1


def transport(r: random.Random, n: int, max_dim: int, counter: dict):
    """Random transport data whose dimension vector is a seeded shuffle of
    1, 2, .., max_dim repeated, so the total dimension depends on n only;
    redraws the matrices until every Id - m_ii is invertible."""
    from infrared.errors import NotInvertible
    from infrared.perverse import TransportData
    from infrared.randomgen import rand_matrix

    dims = [1 + i % max_dim for i in range(n)]
    r.shuffle(dims)
    while True:
        grid = [[rand_matrix(r, dims[j], dims[i]) for j in range(n)] for i in range(n)]
        try:
            return TransportData(dims, grid)
        except NotInvertible:
            counter["redraws"] += 1


# ---------------------------------------------------------------------------
# pools


def _stokes_item(A, m):
    return {
        "kind": "stokes",
        "size": len(A),
        "dim": sum(m.dims),
        "files": {"in.json": {"config": A.to_json(), "transport": m.to_json()}},
        "dims": list(m.dims),
    }


def pool_stokes_generic(r, counter):
    from infrared import randomgen
    from infrared.geometry import Dir

    # The CLI's default Stokes direction is zeta0 = -1/0; both convex-path
    # projections (along -conj(zeta0) and conj(zeta0)) are then the height y,
    # so "generic for the Stokes direction" means pairwise distinct heights.
    horiz = Dir(Q(1), Q(0))
    items = []
    n = 8
    for _ in range(48):
        A = _draw(counter, lambda: randomgen.rand_config(r, n, extra_dirs=(horiz,), tries=1))
        items.append(_stokes_item(A, transport(r, n, 2, counter)))
    return items


def pool_stokes_convex(r, counter):
    items = []
    n = 8
    for _ in range(48):
        items.append(_stokes_item(parabola_arc(r, n, counter), transport(r, n, 2, counter)))
    return items


def distinct_heights(r: random.Random, n: int):
    """n points drawn as in randomgen.rand_config (coordinates in [-12, 12]
    over denominators 1..3, indexed in (x, y) order) with pairwise distinct
    heights y."""
    from infrared.geometry import Config, Pt

    pts: dict = {}
    while len(pts) < n:
        x = Q(r.randint(-12, 12), r.randint(1, 3))
        pts.setdefault(Q(r.randint(-12, 12), r.randint(1, 3)), x)
    return Config(Pt(x, y) for x, y in sorted((x, y) for y, x in pts.items()))


def pool_walk(r, counter):
    """Straight legs between two random configurations; both are redrawn
    until segment_wall_events accepts the leg (which also checks general
    position of both ends, including horizontal infinity)."""
    from infrared.errors import PathNotGeneric
    from infrared.geometry import segment_wall_events

    items = []
    n = 8
    for _ in range(30):
        while True:
            A0, A1 = distinct_heights(r, n), distinct_heights(r, n)
            try:
                segment_wall_events(A0, A1)
                break
            except PathNotGeneric:
                counter["redraws"] += 1
        m = transport(r, n, 3, counter)
        items.append({
            "kind": "walk",
            "size": n,
            "dim": sum(m.dims),
            "files": {
                "a0.json": {"config": A0.to_json(), "transport": m.to_json()},
                "a1.json": {"config": A1.to_json()},
            },
        })
    return items


def _secondary_item(A, family):
    return {
        "kind": "secondary",
        "size": len(A),
        "dim": 0,
        "family": family,
        "files": {"in.json": {"config": A.to_json()}},
    }


def pool_secondary(r, counter):
    """5-point draws whose number of hull corners cycles through 4, 4, 5;
    the 5-corner draws are the convex pentagons."""
    from infrared import randomgen
    from infrared.geometry import convex_hull

    items = []
    for k in range(60):
        corners = 5 if k % 3 == 2 else 4
        while True:
            A = _draw(counter, lambda: randomgen.rand_config(r, 5, tries=1))
            if len(convex_hull(A)) == corners:
                break
            counter["redraws"] += 1
        items.append(_secondary_item(A, "convex" if corners == 5 else "random"))
    return items


def pool_secondary_nested(r, counter):
    return [_secondary_item(nested_triangles(r, counter), "nested")]


POOLS = {
    "stokes-generic": pool_stokes_generic,
    "stokes-convex": pool_stokes_convex,
    "walk": pool_walk,
    "secondary": pool_secondary,
    "secondary-nested": pool_secondary_nested,
}

# How many leading pool items the traced run repeats.
TRACE_ITEMS = {
    "stokes-generic": 4,
    "stokes-convex": 4,
    "walk": 3,
    "secondary": 3,
    "secondary-nested": 1,
}


def setup(workload: str, seed: int, out_dir: str) -> dict:
    """Generate the pool for (workload, seed), write every instance file under
    out_dir and a manifest.json describing the pool; returns the manifest."""
    import infrared  # noqa: F401  (the import is part of the timed set-up)

    r = random.Random(f"{workload}:{seed}")
    counter = {"redraws": 0}
    items = POOLS[workload](r, counter)
    os.makedirs(out_dir, exist_ok=True)
    for idx, item in enumerate(items):
        names = {}
        for name, body in item.pop("files").items():
            path = os.path.join(out_dir, f"{idx:03d}-{name}")
            with open(path, "w") as fh:
                json.dump(body, fh)
            names[name] = path
        item["paths"] = names
    manifest = {"workload": workload, "seed": seed, "redraws": counter["redraws"], "items": items}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    return manifest


# ---------------------------------------------------------------------------
# output checks (run outside the timed region)


def _catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def _block_unitriangular(entries, dims, lower: bool) -> bool:
    slot = [s for s, d in enumerate(dims) for _ in range(d)]
    for r, row in enumerate(entries):
        for c, x in enumerate(row):
            x = Q(x)
            if slot[r] == slot[c]:
                if x != (1 if r == c else 0):
                    return False
            elif (slot[r] < slot[c]) == lower and x != 0:
                return False
    return True


def check_stokes(item, out: dict) -> str | None:
    if out.get("factorization_ok") is not True:
        return "factorization_ok is not true"
    dims = [item["dims"][i] for i in out["order"]]
    # C+ sums upward paths (block row t > column s); C- the downward ones
    if not _block_unitriangular(out["Cplus"], dims, lower=True):
        return "C+ is not block lower unitriangular"
    if not _block_unitriangular(out["Cminus"], dims, lower=False):
        return "C- is not block upper unitriangular"
    return None


def check_walk(item, back: dict) -> str | None:
    with open(item["paths"]["a0.json"]) as fh:
        start = json.load(fh)["transport"]
    if back.get("transport") != start:
        return "round trip did not restore the input transport"
    return None


def check_secondary(item, out: dict) -> str | None:
    from infrared.geometry import Config
    from infrared.secondary import Subdivision, induced_subdivision

    n = out["n"]
    if out["poset_height"] != n - 3:
        return f"poset height {out['poset_height']} != n - 3 = {n - 3}"
    if item["family"] == "convex" and out["triangulations"] != _catalan(n - 2):
        return f"{out['triangulations']} triangulations, expected Catalan({n - 2})"
    if item["family"] == "nested" and out["subdivisions"] - out["regular"] <= 0:
        return "nested triangles gave no irregular subdivision"
    with open(item["paths"]["in.json"]) as fh:
        A = Config.from_json(json.load(fh)["config"])
    for k, rep in enumerate(out["reports"]):
        if rep["witness"] is None:
            continue
        sub = Subdivision.from_json(A, rep["subdivision"])
        if induced_subdivision(A, rep["witness"]) != sub:
            return f"witness of report {k} does not induce its subdivision"
    return None


if __name__ == "__main__":
    require_infrared()
    setup(sys.argv[1], int(sys.argv[2]), sys.argv[3])
