"""Exact combinatorics of parametrized tropical stable maps.

The package computes with maps from marked metric graphs into rational
polyhedral fans: validation of the stable-map axioms, combinatorial types
and their moduli cones with superabundance detection, degeneration limits
of one-parameter families, and the well-spacedness analysis for genus-one
maps, all over exact rational arithmetic.
"""

from .curves import (
    INF,
    DiscreteData,
    Edge,
    Marking,
    TropicalCurve,
    Vertex,
    betti_and_genus,
    contract_edge,
    contract_edges,
    curve_lints,
    discrete_data,
    genus,
    is_smooth,
    tropical_curve,
    validate_curve,
    validate_discrete_data,
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
    zero_cone,
)
from .maps import (
    CombinatorialType,
    EdgeMapData,
    RecessionType,
    TropicalStableMap,
    TypeAutomorphism,
    canonical_map,
    canonical_type,
    combinatorial_type,
    discrete_data_of,
    make_type,
    recession_type,
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
    evaluate_family,
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
    HyperplaneFlat,
    Verdict,
    WellSpacedReport,
    build_figure1_family,
    cycle_data,
    enumerate_flats,
    figure1_member,
    hat_curve,
    is_well_spaced,
    realizability_verdict,
    subcurve_in_flat,
    well_spaced_or_vacuous,
)

__version__ = "0.1.0"
