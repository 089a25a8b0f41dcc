"""Exact combinatorics of parametrized tropical stable maps.

The package computes with maps from marked metric graphs into rational
polyhedral fans: validation of the stable-map axioms, combinatorial types
and their moduli cones with superabundance detection, degeneration limits
of one-parameter families, and the well-spacedness analysis for genus-one
maps, all over exact rational arithmetic.
"""

from .curves import (
    INF,
    Edge,
    Marking,
    TropicalCurve,
    Vertex,
    betti_and_genus,
    contract_edges,
    curve_lints,
    is_smooth,
    tropical_curve,
    validate_curve,
)
from .exactgeom import (
    Cone,
    Fan,
    auto_rays_fan,
    build_fan,
    complete_orthant_fan,
    cone,
    cone_locate,
    fan_validate,
    format_rational,
    parse_rational,
    rank,
    rref,
    zero_cone,
)
from .maps import (
    CombinatorialType,
    EdgeMapData,
    TropicalStableMap,
    TypeAutomorphism,
    canonical_type,
    combinatorial_type,
    make_type,
    stable_map,
    star,
    type_automorphisms,
    validate_map,
)
from .moduli import (
    AffineFn,
    ConeMetrics,
    Family,
    FaceWitness,
    InfeasibleCone,
    LimitResult,
    ModuliCone,
    affine,
    cone_metrics,
    contract_type,
    is_face,
    limit_of_family,
    make_family,
    moduli_cone,
    overvalence,
    sample_interior,
)
from .wellspaced import (
    Assumptions,
    CertificateError,
    CycleData,
    CycleFrame,
    HyperplaneFlat,
    Verdict,
    WellSpacedReport,
    build_figure1_family,
    cycle_data,
    cycle_frame,
    enumerate_flats,
    figure1_member,
    hat_curve,
    is_well_spaced,
    realizability_verdict,
    subcurve_in_flat,
)

__version__ = "0.1.0"
