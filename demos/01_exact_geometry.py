"""Exact planar geometry: chirotopes, dominance orders, anti-Stokes words
and wall events.

Everything below runs over exact rationals; no predicate ever touches a
float.  The anti-Stokes scan is the key example: rotating the direction
half a turn sorts the marked points into the reversed dominance order, and
the recorded switches spell a reduced word for the longest permutation.
"""

import itertools

from infrared import (
    config,
    convex_hull,
    direction,
    dominance_order,
    anti_stokes_sequence,
    general_position,
    segment_wall_events,
)

A = config((0, 0), (3, 1), (1, 2), (2, "7/2"))
print("configuration:", A)
print("convex hull cycle:", convex_hull(A))

t = A.sign_table()
signs = {(i, j, k): t[i][j][k] for i, j, k in itertools.combinations(range(len(A)), 3)}
print("chirotope signs:", signs)

zeta = direction(1, 0)
rep = general_position(A, zeta)
print("general position report:", rep)

print("dominance order for zeta=(1,0):", dominance_order(A, zeta))
print("dominance order for -zeta:   ", dominance_order(A, direction(-1, 0)))

word = anti_stokes_sequence(A, zeta, rotation="ccw")
print("anti-Stokes word (ccw):", word, "length", len(word))
word_cw = anti_stokes_sequence(A, zeta, rotation="cw")
print("anti-Stokes word (cw): ", word_cw)

# the triangle pattern: a positively oriented triple seen in dominance
# order (i, j, k) switches as (ijk) -> (ikj) -> (kij) -> (kji)
tri = config((0, 0), (1, -2), (3, -1))
print("\npositively oriented triangle, initial order:",
      dominance_order(tri, zeta))
print("ccw word:", anti_stokes_sequence(tri, zeta, "ccw"), "(expected [2, 1, 2])")

# wall events: carry the middle point across a segment
a0 = config((-4, -2), (-1, 2), (4, "5/2"))
a1 = config((-4, -2), (0, -1), (4, "5/2"))
print("\nwall events moving point 1 down across [w_0, w_2]:")
for ev in segment_wall_events(a0, a1):
    print("  ", ev.kind, (ev.i, ev.j, ev.k), "eps before:", ev.eps_before,
          "at t =", ev.time)
