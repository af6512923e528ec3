"""Finite model engine for relational Horn theories.

Builds and verifies free models, finite limits, partial products and
exponentials over finite relational structures, and decides the convexity
and safety conditions that guarantee exponentiability.

Importing the package loads none of its modules.  The first read of a public
name imports every module listed in ``_EXPORTS`` and binds all of their names
here (PEP 562), so ``python -m hornmod.cli`` pays only for the modules its
command runs, while library callers get the whole API at once.
"""

# Public names, by the module that defines them, in the order they load.
_EXPORTS = {
    "core": (
        "DISCRETE", "EXPLICIT", "QUANTALE", "Edge", "Equality", "HornFormula", "HornmodError",
        "Morphism", "MorphismError", "RelationSymbol", "Signature", "SignatureError",
        "Structure", "StructureError", "Theory", "TheoryError", "base_axioms", "compose",
        "edge", "fresh_variables", "horn", "identity_morphism", "signature_order_closure",
        "validate_morphism", "var_set",
    ),
    "semantics": (
        "FreeModelResult", "GroundTheory", "Violation", "check_model", "entails",
        "find_formula_violation", "free_model", "ground_axioms", "is_model", "is_reflexive",
        "is_reflexive_theory", "is_transitive", "satisfies_formula",
    ),
    "limits": (
        "EqualizerResult", "ProductResult", "PullbackResult", "are_isomorphic", "bang",
        "enumerate_morphisms", "equalizer", "fibre_structure", "find_isomorphism", "hom_count",
        "pair_id", "product", "pullback", "terminal",
    ),
    "closure": (
        "ExponentialResult", "PartialProductResult", "VerificationReport", "exponential_object",
        "internal_hom", "partial_product", "partial_product_refl", "partial_product_str",
        "tensor", "tensor_unit", "verify_exponential", "verify_partial_product",
    ),
    "convexity": (
        "ConvexityReport", "SafetyResult", "TheoryClassification", "classify_theory",
        "convexity_report", "is_convex", "is_convex_via_lifting", "is_convex_wrt",
        "is_object_convex", "is_safe_axiom", "is_very_safe_axiom",
    ),
    "schema": (
        "AxiomSchema", "SchemaConvexityReport", "SchemaInstance", "SchemaSafetyResult",
        "SchematicClassification", "ch_condition_oracle", "classify_schematic_theory",
        "expand_instances", "generalized_transitivity_schema", "is_schema_convex",
        "is_schema_convex_wrt_instance", "is_schema_object_convex", "is_schema_safe",
        "is_schema_very_safe", "symmetry_schema",
    ),
    "quantale": (
        "Quantale", "QuantaleError", "QuantaleLawReport", "VFunctor", "VGraph",
        "boolean_quantale", "chain_meet_quantale", "check_quantale_laws", "is_heyting",
        "is_total_order", "lukasiewicz_quantale", "signature_of", "structure_to_vgraph",
        "theory_met", "theory_pmet", "theory_vcat", "theory_vgph", "theory_vrgph",
        "vfunctor_to_morphism", "vgraph_to_structure",
    ),
    "families": (
        "all_models", "all_structures", "dedup_by_iso", "default_test_family", "sample_family",
    ),
    "theories": (
        "chain", "discrete_poset", "poset_theory", "preorder_theory",
        "reflexive_symmetric_theory", "reflexive_theory",
    ),
}

__version__ = "0.1.0"


def __getattr__(name: str):
    from importlib import import_module

    namespace = globals()
    for module, names in _EXPORTS.items():
        loaded = import_module(f"{__name__}.{module}")
        namespace.update((n, getattr(loaded, n)) for n in names)
    if name in namespace:
        return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *(n for names in _EXPORTS.values() for n in names)})
