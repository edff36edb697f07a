"""infrared: an exact-arithmetic workbench for the decategorified layer of
planar perverse-sheaf combinatorics.

Modules
-------
geometry   exact predicates, hulls, dominance orders, anti-Stokes words,
           wall events along configuration paths
paths      zeta-convex polygonal paths, height filtration, reductions and
           the incidence structure of the infrared differential
linalg     exact matrices over Q
perverse   quiver and transport-matrix models, their opposite involution,
           dualities, spherical maps, Calabi-Yau checks, braid actions
wallcross  isomonodromic wall-crossing engine on transport data
fourier    the decategorified Fourier transform, convex-path Stokes
           matrices and the monodromy factorization
secondary  marked subdivisions, regularity read off the secondary fan (the
           exact LP is its oracle), deformation complexes, exceptionality,
           framings and content
lp         exact simplex on fraction-free integer rows
plotting   CSV, SVG and DOT plot data for configurations and posets
checksuite the registry of identities behind `infrared check` and the tests
randomgen  seeded random configurations, matrices, quivers and transports
errors     the error hierarchy and its JSON error codes
cli        JSON-driven command line front end
"""

from .geometry import (
    Config,
    Dir,
    Pt,
    anti_stokes_sequence,
    area2,
    config,
    convex_hull,
    direction,
    dominance_order,
    general_position,
    orient,
    pt,
    segment_wall_events,
)
from .linalg import MatQ
from .paths import (
    PolyPath,
    enumerate_zeta_convex_paths,
    height_data,
    incidence,
    is_zeta_convex,
    reduce_path,
    zeta_hull,
)
from .perverse import (
    Quiver,
    TransportData,
    braid_act_quiver,
    braid_act_transport,
    cy_check,
    double_dual_check,
    dual_pair,
    gmv_embed,
    jacobson,
    mu,
    spherical_report,
)
from .wallcross import (
    CrossingSpec,
    apply_crossings,
    transport_along_path,
)
from .fourier import (
    FourierDiagram,
    StokesPair,
    factorization_check,
    fourier_diagram,
    global_monodromy,
    iterated_transport,
    monodromy_product,
    stokes_pair,
)
from .secondary import (
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

__all__ = [name for name in dir() if not name.startswith("_")]
