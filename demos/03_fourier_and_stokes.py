"""The decategorified Fourier transform and its Stokes matrices.

The transform of transport data is a one-singularity diagram whose
monodromy is the clockwise product of the local twists.  Its Stokes
matrices are sums of iterated rectilinear transports over convex polygonal
paths, and the global monodromy factors exactly as

    T_glob = C+ . Delta . (C-tilde)^{-1}

with Delta the block diagonal of inverse local monodromies and C-tilde the
block-twisted C-.  Crossing a collinearity wall rearranges the path sums
without changing any block value, so the factorization is chamber
independent.
"""

from fractions import Fraction as Q

from infrared.geometry import Dir, config, segment_wall_events
from infrared.fourier import (
    factorization_check,
    fourier_diagram,
    global_monodromy,
    monodromy_product,
    stokes_pair,
)
from infrared.paths import enumerate_zeta_convex_paths
from infrared.randomgen import maximally_concave_config, rand_transport, rng
from infrared.wallcross import transport_along_path

zeta0 = Dir(Q(-1), Q(0))
zeta = Dir(Q(1), Q(0))
zplus = zeta0.conjugate().opposite()   # the convexity of C+

r = rng(7)
A = config((0, 0), (-1, 1), (0, 2))      # left-convex middle point
m = rand_transport(r, 3, max_dim=2)

diag = fourier_diagram(m, zeta, A)
print("spider order:", diag.order)
print(
    "Id - b-check a-check equals the clockwise product:",
    diag.monodromy() == monodromy_product(m.permuted(diag.order), "descending"),
)

pair = stokes_pair(m, A, zeta0)
src, tgt = pair.order[0], pair.order[2]   # slots 0 and 2
print("\npaths feeding C+ block (0,2):",
      [list(p.vertices) for p in enumerate_zeta_convex_paths(A, src, tgt, zplus)])
rep = factorization_check(m, A, zeta0)
print("factorization holds:", rep.ok)

# maximally concave position: every convex path is a single segment
B = maximally_concave_config(r, 4)
mb = rand_transport(r, 4, max_dim=2)
pb = stokes_pair(mb, B, zeta0)
print("\nmaximally concave: every C+ block a single transport:",
      all(len(enumerate_zeta_convex_paths(B, pb.order[s], pb.order[t], zplus)) == 1
          for s in range(4) for t in range(s + 1, 4)))
print("factorization holds there too:", factorization_check(mb, B, zeta0).ok)

# wall-crossing: move a point across a segment; the isomonodromic update
# of the raw transports exactly compensates the change of chambers
a0 = config((-4, -2), (-1, 2), (4, "5/2"))
a1 = config((-4, -2), (0, -1), (4, "5/2"))
print("\nleg crosses:", [e.kind for e in segment_wall_events(a0, a1)])
m0 = rand_transport(r, 3, max_dim=2)
m1, log = transport_along_path(m0, a0, a1)
p0, p1 = stokes_pair(m0, a0, zeta0), stokes_pair(m1, a1, zeta0)
print("Stokes blocks unchanged:", p0.c_plus == p1.c_plus and p0.c_minus == p1.c_minus)
print(
    "global monodromy unchanged:",
    global_monodromy(m0, a0, zeta0) == global_monodromy(m1, a1, zeta0),
)
