"""Secondary polytope combinatorics: regular subdivisions, deformation
complexes and exceptionality.

Regularity is decided on the secondary fan (`secondary_fan`, as `infrared
secondary` does), with an exact rational LP (`is_regular`, used below) as
its oracle; the witness lift reproduces the subdivision through its lower
hull.  A `Subdivision` is checked when it is built.
The deformation complex counts piecewise-affine data: its middle cohomology
(the exceptionality) is the dimension of the space of parallel
deformations, and jumps the codimension of the corresponding face of the
secondary polytope.
"""

from fractions import Fraction as Q

from infrared.geometry import config, direction
from infrared.secondary import (
    Cell,
    Subdivision,
    coarse_subdivisions,
    content,
    deformation_complex,
    enumerate_subdivisions,
    enumerate_triangulations,
    framing,
    induced_subdivision,
    is_regular,
    parallel_deformations,
    refinement_poset,
)

# the circuit with an interior point: a 3 <-> 1 flip
circuit = config((0, 0), (4, 0), (1, 3), ("3/2", 1))
tris = enumerate_triangulations(circuit)
print("circuit triangulations:", len(tris))
for t in tris:
    print("  ", t, "regular:", is_regular(circuit, t) is not None)
print("lift the interior point high:", induced_subdivision(circuit, [0, 0, 0, 5]))

# the pentagon: the associahedron
pent = config(*[(Q(k), Q(k) * Q(k) + Q(1, k + 2)) for k in range(5)])
subs = enumerate_subdivisions(pent)
regs = [s for s in subs if is_regular(pent, s) is not None]
poset = refinement_poset(regs, [deformation_complex(pent, s).codim for s in regs])
print("\npentagon: triangulations", len(enumerate_triangulations(pent)),
      "| faces", len(regs),
      "| poset height", poset["height"],
      "| covers", len(poset["covers"]),
      "| coarse", len(coarse_subdivisions(pent)))

# concentric triangles: a regular but exceptional subdivision
outer = [(-4, -3), (4, -3), (0, 4)]
inner = [(Q(x) / 2, Q(y) / 2) for x, y in outer]
A = config(*outer, *inner)
sub = Subdivision(A, [
    Cell((3, 4, 5), frozenset((3, 4, 5))),
    Cell((0, 1, 4, 3), frozenset((0, 1, 4, 3))),
    Cell((1, 2, 5, 4), frozenset((1, 2, 5, 4))),
    Cell((2, 0, 3, 5), frozenset((2, 0, 3, 5))),
])
rep = deformation_complex(A, sub)
print("\nconcentric triangles:", rep)
print("exceptionality:", rep.exc, "| parallel deformations:",
      len(parallel_deformations(A, sub)))
print("the deformation rescales the inner triangle:",
      parallel_deformations(A, sub)[0])

# a non-regular triangulation: the pinwheel around a parallel inner triangle
P = config((0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2))
pin = Subdivision(P, [
    Cell((0, 1, 4), frozenset((0, 1, 4))),
    Cell((0, 4, 3), frozenset((0, 4, 3))),
    Cell((1, 2, 5), frozenset((1, 2, 5))),
    Cell((1, 5, 4), frozenset((1, 5, 4))),
    Cell((2, 0, 3), frozenset((2, 0, 3))),
    Cell((2, 3, 5), frozenset((2, 3, 5))),
    Cell((3, 4, 5), frozenset((3, 4, 5))),
])
print("\npinwheel triangulation regular:", is_regular(P, pin) is not None)

# content is additive over decompositions framed by one direction
z = direction(3, 1)
whole = content(A, framing(A, (0, 1, 2), z))
parts = sum(content(A, framing(A, c.polygon, z)) for c in sub.cells)
print("\ncontent additivity:", whole, "==", parts)
