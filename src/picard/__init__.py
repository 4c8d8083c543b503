"""Reduction types and conductor exponents of Picard curves y^3 = f(x) over Q."""

from .clusters import ClusterTree, cluster_tree, splitting_ramification
from .conductor import (
    ConductorReport,
    GlobalConductor,
    analyze_p2,
    analyze_p3,
    analyze_prime,
    conductor_tame,
    global_conductor,
)
from .cover import SpecialFiber, classify_marked_tree, cover_fiber
from .curves import (
    EquivalenceWitness,
    InseparableCurveError,
    PicardCurve,
    curve_text,
    equivalent,
    exceptional_prime_candidate,
    good_reduction_at,
    normalize,
    parse_curve_text,
)
from .exact import (
    FactorizationBudgetError,
    Poly,
    discriminant,
    factor_integer,
    is_prime,
    poly_from_ints,
    resultant,
    valuation,
)
from .inertia import TameAnalysis, analyze_tame, inertia_quotient
from .localfield import (
    NewtonPolygon,
    PrecisionStallError,
    TameExtension,
    newton_polygon,
)
from .search import SearchConfig, SearchRecord, enumerate_search, rank, run_search
from .wild3 import WildWitness, WitnessInvalidError, verify_witness

__all__ = [
    "ClusterTree",
    "ConductorReport",
    "EquivalenceWitness",
    "FactorizationBudgetError",
    "GlobalConductor",
    "InseparableCurveError",
    "NewtonPolygon",
    "PicardCurve",
    "Poly",
    "PrecisionStallError",
    "SearchConfig",
    "SearchRecord",
    "SpecialFiber",
    "TameAnalysis",
    "TameExtension",
    "WildWitness",
    "WitnessInvalidError",
    "analyze_p2",
    "analyze_p3",
    "analyze_prime",
    "analyze_tame",
    "classify_marked_tree",
    "cluster_tree",
    "conductor_tame",
    "cover_fiber",
    "curve_text",
    "discriminant",
    "enumerate_search",
    "equivalent",
    "exceptional_prime_candidate",
    "factor_integer",
    "global_conductor",
    "good_reduction_at",
    "inertia_quotient",
    "is_prime",
    "newton_polygon",
    "normalize",
    "parse_curve_text",
    "poly_from_ints",
    "rank",
    "resultant",
    "run_search",
    "splitting_ramification",
    "valuation",
    "verify_witness",
]
