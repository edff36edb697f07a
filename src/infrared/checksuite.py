"""Seeded random invariant suite behind `infrared check`.

A compact, deterministic battery over the core identities: Jacobson,
duality round trip, braid relations and naturality, wall-crossing
involutivity, the Fourier monodromy product and the Stokes factorization.
`run` returns a bare pass/fail boolean per sub-suite, `all_ok` and the seed.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotInvertible
from .fourier import factorization_check, fourier_diagram, monodromy_product
from .geometry import Dir
from .perverse import (
    braid_act_quiver,
    braid_act_transport,
    double_dual_check,
    jacobson,
    mu,
)
from .randomgen import rand_config, rand_matrix, rand_quiver, rand_transport, rng
from .wallcross import CrossingSpec, apply_crossings

Q = Fraction

# the largest block size `run` accepts: it draws matrices of up to dim + 1
# rows and columns, and at dim 24 the suite takes a few seconds
MAX_DIM = 24


def run(seed: int = 0, n: int = 4, dim: int = 2) -> dict:
    r = rng(seed)
    results = {}

    ok = True
    for _ in range(20):
        rows, cols = r.randint(1, dim + 1), r.randint(1, dim + 1)
        u, v = rand_matrix(r, rows, cols), rand_matrix(r, cols, rows)
        try:
            lhs, rhs = jacobson(u, v)
        except NotInvertible:
            continue
        ok = ok and lhs == rhs
    results["jacobson"] = ok

    ok = True
    for _ in range(15):
        q = rand_quiver(r, 1, max_dim=dim)
        ok = ok and double_dual_check(q.a[0], q.b[0])
    results["duality_round_trip"] = ok

    ok = True
    for _ in range(8):
        nn = max(3, min(n, 5))
        q = rand_quiver(r, nn, max_dim=dim)
        lhs = braid_act_quiver(braid_act_quiver(braid_act_quiver(q, 1), 2), 1)
        rhs = braid_act_quiver(braid_act_quiver(braid_act_quiver(q, 2), 1), 2)
        ok = ok and lhs == rhs
        m = rand_transport(r, nn, max_dim=dim)
        g = r.choice([1, 2, -1, -2])
        ok = ok and braid_act_transport(braid_act_transport(m, g), -g) == m
        ok = ok and mu(braid_act_quiver(q, g)) == braid_act_transport(mu(q), g)
    results["braid_relations_naturality"] = ok

    ok = True
    for _ in range(10):
        nn = max(3, min(n, 5))
        m = rand_transport(r, nn, max_dim=dim)
        i, j, k = sorted(r.sample(range(nn), 3))
        eps = r.choice([1, -1])
        spec = CrossingSpec("coll", i, j, k, eps_before=eps)
        back = CrossingSpec("coll", i, j, k, eps_before=-eps)
        ok = ok and apply_crossings(m, [spec, back]) == m
        hspec = CrossingSpec(
            "horiz", i, j, motion="above", re_cmp="left"
        )
        hback = CrossingSpec("horiz", i, j, motion="below", re_cmp="left")
        ok = ok and apply_crossings(m, [hspec, hback]) == m
    results["wallcross_involutive"] = ok

    zeta = Dir(Q(1), Q(0))
    zeta0 = Dir(Q(-1), Q(0))
    ok = True
    for _ in range(6):
        nn = min(n, 5)
        A = rand_config(r, nn, extra_dirs=(zeta,))
        m = rand_transport(r, nn, max_dim=dim)
        diag = fourier_diagram(m, zeta, A)
        mono = diag.monodromy()
        mm = m.permuted(diag.order)
        ok = ok and mono == monodromy_product(mm, "descending")
    results["fourier_monodromy"] = ok

    ok = True
    for _ in range(5):
        nn = min(n, 4)
        A = rand_config(r, nn, extra_dirs=(zeta,))
        m = rand_transport(r, nn, max_dim=dim)
        ok = ok and factorization_check(m, A, zeta0).ok
    results["stokes_factorization"] = ok

    results["all_ok"] = all(results.values())
    results["seed"] = seed
    return results
