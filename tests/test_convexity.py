from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hornmod as hm
from hornmod.convexity import eligible_axioms
from hornmod.families import all_models, all_structures
from hornmod.limits import TERMINAL_ELEMENT
from hornmod.theories import (
    binary_signature,
    order_signature,
    symmetry_axiom,
    transitivity_axiom,
)

from conftest import (
    HORN_SIGNATURE,
    count_chases,
    dedup_morphisms,
    horn_edges,
    horn_theories,
    interp_fail_morphism,
    reference_is_convex_via_lifting,
    reference_is_convex_wrt,
    reference_is_object_convex,
    reference_is_reflexive_theory,
    reference_is_safe_axiom,
)

TRANSITIVITY_ONLY = hm.Theory(order_signature(), (transitivity_axiom(),), (), base_flag=False)


def interpolation_lifting(f):
    """Direct oracle: every codomain midpoint lifts to a domain midpoint."""
    x, z = f.source, f.target
    for x1 in x.carrier:
        for x3 in x.carrier:
            if not x.holds("le", (x1, x3)):
                continue
            for z2 in z.carrier:
                if z.holds("le", (f(x1), z2)) and z.holds("le", (z2, f(x3))):
                    if not any(
                        f(x2) == z2 and x.holds("le", (x1, x2)) and x.holds("le", (x2, x3))
                        for x2 in x.carrier
                    ):
                        return False
    return True


def test_interpolation_counterexample_is_not_convex(preord):
    f = interp_fail_morphism()
    report = hm.convexity_report(f, preord)
    assert not report.convex
    cex = report.counterexample
    assert dict(cex.valuation) == {"x": "c0", "y": "c1", "z": "c2"}
    assert cex.lifted == ("a", "c")
    assert not interpolation_lifting(f)


def test_identity_is_convex(preord, chain3):
    for ax in eligible_axioms(preord):
        assert hm.is_convex_wrt(hm.identity_morphism(chain3), ax, preord).convex


def test_unsatisfiable_premises_give_convexity(preord):
    x = hm.discrete_poset(2)
    f = hm.identity_morphism(x)
    # transitivity premises never fire through distinct points of a discrete poset
    antichain_axiom = hm.horn(
        [hm.edge("le", "x", "y"), hm.edge("le", "y", "x")], hm.edge("le", "x", "x")
    )
    theory = hm.Theory(preord.signature, (antichain_axiom,), (), base_flag=True)
    assert hm.is_convex_wrt(f, antichain_axiom, theory).convex


def test_convexity_requires_discrete_signature():
    v = hm.boolean_quantale()
    theory = hm.theory_vcat(v)
    one = hm.terminal(theory.signature)
    with pytest.raises(hm.SignatureError):
        hm.is_convex(hm.identity_morphism(one), theory)


def test_convexity_refuses_a_map_over_another_signature(preord):
    # a map of boolean V-categories, a map over a discrete signature without
    # `le`, and a map from a preorder into a structure over that signature
    vcat_map = hm.identity_morphism(hm.terminal(hm.signature_of(hm.boolean_quantale())))
    other = hm.identity_morphism(hm.terminal(hm.Signature((hm.RelationSymbol("R", 2),))))
    into_other = hm.Morphism(hm.terminal(preord.signature), other.target, {"*": "*"})
    for f in (vcat_map, other, into_other):
        for decide in (lambda: hm.convexity_report(f, preord), lambda: hm.is_convex(f, preord),
                       lambda: hm.is_convex_wrt(f, preord.axioms[0], preord)):
            with pytest.raises(hm.SignatureError, match="different signatures"):
                decide()
    for x in (vcat_map.source, other.source):
        with pytest.raises(hm.SignatureError, match="different signatures"):
            hm.is_object_convex(x, preord)


def test_convexity_refuses_an_axiom_outside_the_signature(preord, chain2):
    axiom = hm.horn((hm.edge("Q", "x", "y"),), hm.edge("Q", "y", "x"))
    with pytest.raises(hm.TheoryError, match="unknown symbol 'Q'"):
        hm.is_convex_wrt(hm.identity_morphism(chain2), axiom, preord)


def test_equality_axiom_rejected(pos, chain2):
    with pytest.raises(hm.TheoryError):
        hm.is_convex_wrt(hm.identity_morphism(chain2), pos.axioms[1], pos)


def test_equality_axioms_excluded_from_conjunction(pos):
    assert eligible_axioms(pos) == (pos.axioms[0],)


def test_empty_axiom_theory_makes_everything_convex():
    theory = hm.reflexive_theory()
    x = hm.Structure(theory.signature, ["a", "b"], [hm.edge("R", "a", "a"), hm.edge("R", "b", "b")])
    for f in hm.enumerate_morphisms(x, x):
        assert hm.is_convex(f, theory)


def test_constant_maps_between_posets_are_convex(pos):
    models = all_models(pos, 2, cap=None)
    for x in models:
        for y in models:
            for b in y.carrier:
                const = hm.Morphism(x, y, {a: b for a in x.carrier})
                assert hm.is_convex(const, pos)


def test_constant_map_into_two_cycle_preorder_is_not_convex(preord):
    # with an indiscrete target the middle premise variable lands on the other
    # point, whose fibre under a constant map is empty; the interpolation
    # oracle rejects the same maps
    indiscrete = hm.Structure(
        preord.signature,
        ["p", "q"],
        [hm.edge("le", a, b) for a in ("p", "q") for b in ("p", "q")],
    )
    point = hm.Structure(preord.signature, ["o"], [hm.edge("le", "o", "o")])
    const = hm.Morphism(point, indiscrete, {"o": "p"})
    assert not hm.is_convex(const, preord)
    assert not interpolation_lifting(const)


def test_lifting_oracle_agrees_small(preord):
    models = all_models(preord, 2, cap=None)
    maps = [f for x in models for z in models for f in hm.enumerate_morphisms(x, z)]
    for f in dedup_morphisms(maps):
        assert hm.is_convex(f, preord) == hm.is_convex_via_lifting(f, preord)


@pytest.mark.parametrize("make_theory", [hm.preorder_theory, hm.poset_theory])
def test_lifting_oracle_matches_its_reference(make_theory):
    # every map between models of at most 3 points, one per isomorphism class
    theory = make_theory()
    models = all_models(theory, 3, cap=None)
    maps = [f for x in models for z in models for f in hm.enumerate_morphisms(x, z)]
    reps = dedup_morphisms(maps)
    verdicts = [hm.is_convex_via_lifting(f, theory) for f in reps]
    assert verdicts == [reference_is_convex_via_lifting(f, theory) for f in reps]
    assert True in verdicts and False in verdicts


def test_the_lifting_oracle_chases_once_per_theory(monkeypatch):
    theory, f = hm.preorder_theory(), interp_fail_morphism()
    chased = count_chases(monkeypatch)
    assert not hm.is_convex_via_lifting(f, theory)
    assert len(chased) == 2 * len(eligible_axioms(theory))
    assert not hm.is_convex_via_lifting(f, theory)
    assert hm.is_convex_via_lifting(hm.identity_morphism(f.target), theory)
    assert len(chased) == 2 * len(eligible_axioms(theory))


def test_isomorphisms_lift(preord, chain3):
    assert hm.is_convex_via_lifting(hm.identity_morphism(chain3), preord)


def test_counterexample_fails_lifting_too(preord):
    assert not hm.is_convex_via_lifting(interp_fail_morphism(), preord)


def test_every_preorder_is_object_convex(preord):
    for x in all_models(preord, 3, cap=None):
        assert hm.is_object_convex(x, preord)


def test_terminal_is_object_convex(preord):
    assert hm.is_object_convex(hm.terminal(preord.signature), preord)


def test_object_convexity_agrees_with_bang(preord):
    for x in all_models(preord, 2, cap=None):
        assert reference_is_object_convex(x, preord) == hm.is_convex(hm.bang(x), preord)


def test_object_without_a_midpoint_is_not_object_convex():
    # le(a, c) is transitive, but no y has le(a, y) and le(y, c)
    x = hm.Structure(TRANSITIVITY_ONLY.signature, ["a", "c"], [hm.edge("le", "a", "c")])
    assert hm.is_model(x, TRANSITIVITY_ONLY)
    assert not hm.is_object_convex(x, TRANSITIVITY_ONLY)
    assert not reference_is_object_convex(x, TRANSITIVITY_ONLY)
    cex = hm.convexity_report(hm.bang(x), TRANSITIVITY_ONLY).counterexample
    assert cex.axiom == transitivity_axiom()
    assert cex.valuation == (("x", TERMINAL_ELEMENT), ("y", TERMINAL_ELEMENT),
                             ("z", TERMINAL_ELEMENT))
    assert cex.lifted == ("a", "c")


@lru_cache(maxsize=None)
def _structures_by_size(sig):
    structures = all_structures(sig, 3, cap=None)
    return {n: [s for s in structures if len(s.carrier) == n] for n in range(4)}


@st.composite
def maps_between_structures(draw, sig):
    """A map between structures of up to 3 points.

    Both ends are drawn from ``all_structures``, then the source keeps only
    the edges the drawn function preserves, so the function is a morphism.
    """
    by_size = _structures_by_size(sig)
    z = draw(st.sampled_from(by_size[draw(st.integers(0, 3))]))
    x = draw(st.sampled_from(by_size[draw(st.integers(0, 3 if z.carrier else 0))]))
    images = draw(st.tuples(*[st.sampled_from(z.sorted_carrier())] * len(x.carrier)))
    mapping = dict(zip(x.sorted_carrier(), images))
    kept = [e for e in x.edges if z.holds(e.symbol, tuple(mapping[a] for a in e.args))]
    return hm.Morphism(hm.Structure(sig, x.carrier, kept), z, mapping)


@settings(max_examples=500, deadline=None)
@given(theory=st.one_of(horn_theories(), st.just(TRANSITIVITY_ONLY)), data=st.data())
def test_lift_kernel_matches_the_reference_loops(theory, data):
    f = data.draw(maps_between_structures(theory.signature))
    for ax in eligible_axioms(theory):
        assert hm.is_convex_wrt(f, ax, theory) == reference_is_convex_wrt(f, ax, theory)
    for x in (f.source, f.target):
        assert hm.is_object_convex(x, theory) == reference_is_object_convex(x, theory)


LIFT_AXIOMS = [
    hm.horn([hm.edge("R", "x", "y")], hm.edge("R", "y", "x")),  # conclusion out of sorted order
    hm.horn([hm.edge("R", "x", "y")], hm.edge("R", "x", "x")),  # repeated conclusion variable
    hm.horn([hm.edge("R", "x", "y")], hm.edge("R", "x", "z")),  # conclusion-only variable
]


@pytest.mark.parametrize("axiom", LIFT_AXIOMS, ids=["swap", "repeat", "fresh"])
def test_lift_kernel_matches_the_reference_on_every_small_map(axiom):
    # every map between structures of up to 2 points: 521 maps per axiom
    sig = binary_signature()
    theory = hm.Theory(sig, (axiom,), (), base_flag=False)
    structures = all_structures(sig, 2, cap=None)
    maps = [f for x in structures for z in structures for f in hm.enumerate_morphisms(x, z)]
    assert len(maps) == 521
    for f in maps:
        assert hm.is_convex_wrt(f, axiom, theory) == reference_is_convex_wrt(f, axiom, theory)


def test_transitivity_safety(preord):
    result = hm.is_safe_axiom(preord.axioms[0], preord)
    assert result.safe
    assert not result.very_safe
    assert result.witness_dict() == {"x": "x", "y": "x", "z": "z"}
    assert not hm.is_very_safe_axiom(preord.axioms[0], preord)


def test_symmetry_very_safe():
    theory = hm.reflexive_symmetric_theory()
    result = hm.is_safe_axiom(theory.axioms[0], theory)
    assert result.safe and result.very_safe


def test_three_step_transitivity_is_safe(preord):
    # R x y, R y z, R z w => R x w; collapsing the middle onto x works
    axiom = hm.horn(
        [hm.edge("le", "x", "y"), hm.edge("le", "y", "z"), hm.edge("le", "z", "w")],
        hm.edge("le", "x", "w"),
    )
    theory = hm.Theory(preord.signature, (preord.axioms[0], axiom), (), base_flag=True)
    result = hm.is_safe_axiom(axiom, theory)
    assert result.safe
    witness = result.witness_dict()
    assert witness["x"] == "x" and witness["w"] == "w"
    assert set(witness.values()) <= {"x", "w"}


# Axioms with up to two premise-only variables (z and w) and conclusions
# that may repeat a variable.
safety_axioms = st.builds(
    hm.horn,
    st.frozensets(horn_edges(("x", "y", "z", "w")), max_size=3),
    horn_edges(("x", "y")),
)
# R x y => x = y merges the two variables of every R conclusion.
MERGING = hm.Theory(
    HORN_SIGNATURE, (hm.horn((hm.edge("R", "x", "y"),), hm.Equality("x", "y")),), (),
    base_flag=False,
)


@settings(max_examples=300, deadline=None)
@given(theory=st.one_of(horn_theories(), st.just(MERGING)), axiom=safety_axioms)
def test_safety_and_reflexivity_match_the_reference_loops(theory, axiom):
    for ax in eligible_axioms(theory) + (axiom,):
        assert hm.is_safe_axiom(ax, theory) == reference_is_safe_axiom(ax, theory)
    assert hm.is_reflexive_theory(theory) == reference_is_reflexive_theory(theory)


def _shipped_theories():
    yield from (hm.preorder_theory(), hm.poset_theory(), hm.reflexive_symmetric_theory(),
                hm.reflexive_theory())
    for v in (hm.boolean_quantale(), hm.chain_meet_quantale(3), hm.lukasiewicz_quantale()):
        for make in (hm.theory_vgph, hm.theory_vrgph, hm.theory_vcat, hm.theory_pmet,
                     hm.theory_met):
            yield make(v)


def test_safety_and_reflexivity_match_the_reference_on_shipped_theories():
    checked = 0
    for theory in _shipped_theories():
        instances = tuple(inst.formula for schema in theory.schemas
                          for inst in hm.expand_instances(schema, theory.signature))
        for ax in eligible_axioms(theory) + instances:
            assert hm.is_safe_axiom(ax, theory) == reference_is_safe_axiom(ax, theory)
            checked += 1
        assert hm.is_reflexive_theory(theory) == reference_is_reflexive_theory(theory)
    assert checked >= 85


def test_safety_witness_names_merged_points_by_their_first_variable():
    # y and x collapse to one point, which the witness calls y: the first
    # conclusion variable, as the reference loop tries it first
    axiom = hm.horn((hm.edge("R", "w", "x"),), hm.edge("R", "y", "x"))
    result = hm.is_safe_axiom(axiom, MERGING)
    assert result == reference_is_safe_axiom(axiom, MERGING)
    assert result.witness_dict() == {"w": "y", "x": "x", "y": "y"}


def test_safety_rejects_an_axiom_outside_the_signature(preord):
    # the first premise already fails every collapse, so only an up-front
    # check of the whole axiom sees the unknown symbol
    axiom = hm.horn([hm.edge("le", "z", "x"), hm.edge("zz", "y", "y")], hm.edge("le", "x", "z"))
    with pytest.raises(hm.TheoryError, match="'zz'"):
        hm.is_safe_axiom(axiom, preord)


def test_classify_preord_and_pos(preord, pos):
    for theory in (preord, pos):
        cls = hm.classify_theory(theory)
        assert cls.classification == "all_safe"
        assert cls.cartesian_closed
        assert not cls.locally_cartesian_closed
    assert hm.classify_theory(pos).has_equality


def test_classify_reflexive_symmetric():
    cls = hm.classify_theory(hm.reflexive_symmetric_theory())
    assert cls.classification == "all_very_safe"
    assert cls.locally_cartesian_closed
    assert cls.quasitopos


NOT_REFLEXIVE = "theory is not reflexive; the safety theorems do not apply"
AXIOM_NOTES = {
    "very_safe": ("all axioms very safe: every morphism of models is convex, "
                  "so the category of models is locally cartesian closed",
                  "no equality axioms: the category is moreover a quasitopos "
                  "(a topological universe)"),
    "safe": ("all axioms safe: every model is convex, "
             "so the category of models is cartesian closed",),
    "unsafe": ("some axiom is not safe; no closure property is implied",),
}


def _r_implies_s(base_flag):
    # S x y does not give back R x y, so the axiom is not safe
    sig = hm.Signature((hm.RelationSymbol("R", 2), hm.RelationSymbol("S", 2)))
    axiom = hm.horn((hm.edge("R", "x", "y"),), hm.edge("S", "x", "y"))
    return hm.Theory(sig, (axiom,), (), base_flag=base_flag)


def test_classification_notes(preord, pos):
    cases = [
        (hm.reflexive_symmetric_theory(), "all_very_safe", AXIOM_NOTES["very_safe"]),
        (preord, "all_safe", AXIOM_NOTES["safe"]),
        (pos, "all_safe", AXIOM_NOTES["safe"]),
        (_r_implies_s(True), "neither", AXIOM_NOTES["unsafe"]),
        (_r_implies_s(False), "neither", (NOT_REFLEXIVE,) + AXIOM_NOTES["unsafe"]),
        (TRANSITIVITY_ONLY, "neither", (NOT_REFLEXIVE,) + AXIOM_NOTES["unsafe"]),
        # safe and very safe, but not reflexive: no claim that an axiom is unsafe
        (hm.Theory(binary_signature(), (symmetry_axiom(),), (), base_flag=False), "neither",
         (NOT_REFLEXIVE,)),
    ]
    for theory, classification, notes in cases:
        cls = hm.classify_theory(theory)
        assert (cls.classification, cls.notes) == (classification, notes)


def test_every_morphism_convex_wrt_very_safe_axioms():
    theory = hm.reflexive_symmetric_theory()
    models = all_models(theory, 2, cap=None)
    axiom = theory.axioms[0]
    assert hm.is_safe_axiom(axiom, theory).very_safe
    for x in models:
        for z in models:
            for f in hm.enumerate_morphisms(x, z):
                assert hm.is_convex_wrt(f, axiom, theory).convex


def test_every_model_object_convex_wrt_safe_axioms(preord):
    axiom = preord.axioms[0]
    assert hm.is_safe_axiom(axiom, preord).safe
    for x in all_models(preord, 2, cap=None):
        assert hm.is_object_convex(x, preord)


def test_convex_partial_products_are_models(preord):
    models = all_models(preord, 2, cap=None)
    maps = dedup_morphisms(
        [f for x in models for z in models for f in hm.enumerate_morphisms(x, z)]
    )
    for f in maps:
        if not hm.is_convex(f, preord):
            continue
        for y in models:
            pp = hm.partial_product_refl(y, f)
            assert hm.is_model(pp.structure, preord)
