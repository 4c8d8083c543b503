"""The names picard exports."""

import picard


def test_every_exported_name_exists():
    # a name left in __all__ after its object is gone breaks `from picard import *`
    assert [name for name in picard.__all__ if not hasattr(picard, name)] == []
    exec("from picard import *", {})


def test_the_public_api_is_pinned():
    # adding or removing a public name is a deliberate change of this list
    assert sorted(picard.__all__) == [
        "ClusterTree",
        "ConductorReport",
        "EquivalenceWitness",
        "FactorizationBudgetError",
        "GlobalConductor",
        "InseparableCurveError",
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
