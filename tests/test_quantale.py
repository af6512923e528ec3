import dataclasses
import gc
import itertools
import warnings
import weakref

import pytest
from hypothesis import given, settings

import hornmod as hm
from hornmod.core import quantale_symbol_name
from hornmod.families import all_models, all_structures
from hornmod.quantale import LawFailure, all_vcategories, all_vgraphs

from conftest import (
    non_join_preserving_quantale,
    reference_vgraph_to_structure,
    small_vfunctors,
)


def test_builtin_quantales_pass_laws():
    for v in (hm.boolean_quantale(), hm.chain_meet_quantale(3), hm.lukasiewicz_quantale()):
        report = hm.check_quantale_laws(v)
        assert report.ok, report.failures
        assert hm.is_heyting(v)
        assert hm.is_total_order(v)


TENSOR_JOIN_FAILURES = (("a", "a", "b"), ("a", "0", "a", "b"), ("b", "a", "b"),
                        ("b", "0", "a", "b"))


@pytest.mark.parametrize("v, heyting, failures", [
    (hm.boolean_quantale(), True, ()),
    *((hm.chain_meet_quantale(n), True, ()) for n in (1, 2, 3, 4)),
    (hm.lukasiewicz_quantale(), True, ()),
    (non_join_preserving_quantale(), False,
     tuple(LawFailure("tensor-join-preservation", w) for w in TENSOR_JOIN_FAILURES)),
], ids=["boolean", "chain1", "chain2", "chain3", "chain4", "lukasiewicz", "broken"])
def test_law_and_heyting_verdicts(v, heyting, failures):
    assert hm.is_heyting(v) is heyting
    assert hm.check_quantale_laws(v) == hm.QuantaleLawReport(not failures, failures)


@pytest.mark.parametrize("make", [
    hm.boolean_quantale, lambda: hm.chain_meet_quantale(3), hm.lukasiewicz_quantale,
    non_join_preserving_quantale,
    lambda: hm.Quantale(("a", "b"), (), tuple((x, y, x) for x in "ab" for y in "ab"), "a"),
], ids=["boolean", "chain3", "lukasiewicz", "broken", "no-bounds"])
def test_law_report_is_computed_once_and_kept(make, monkeypatch):
    import hornmod.quantale as quantale

    fresh = hm.check_quantale_laws(make())
    calls = []

    def counting(v):
        calls.append(v)
        return fresh_check(v)

    fresh_check = quantale.check_quantale_laws
    monkeypatch.setattr(quantale, "check_quantale_laws", counting)
    v = make()
    verdicts = {hm.is_heyting(v) for _ in range(3)}
    assert v.law_report() == fresh and v.law_report() is v.law_report()
    assert len(calls) == 1
    assert verdicts == {fresh.ok and v.order.is_complete_heyting()}
    # The kept report is not part of the value.
    assert v == make() and hash(v) == hash(make())


def test_missing_bounds_raise_quantale_error():
    v = hm.Quantale(("a", "b"), (), tuple((x, y, x) for x in "ab" for y in "ab"), "a")
    for op in (lambda: v.join2("a", "b"), lambda: v.meet2("a", "b"), v.bottom, v.top,
               lambda: v.join("ab"), lambda: v.meet("ab")):
        with pytest.raises(hm.QuantaleError, match="not a complete lattice"):
            op()
    assert not hm.check_quantale_laws(v).ok and not hm.is_heyting(v)


def test_lukasiewicz_tensor_is_not_meet():
    v = hm.lukasiewicz_quantale()
    assert v.tensor("1", "1") == "0"
    assert v.meet2("1", "1") == "1"


def test_mutated_tensor_fails_with_witness():
    v = hm.chain_meet_quantale(3)
    cells = dict(((a, b), c) for a, b, c in v.tensor_pairs)
    cells[("0", "2")] = "2"  # breaks the unit law at 0
    mutated = hm.Quantale(
        v.elements, v.leq_pairs, tuple((a, b, c) for (a, b), c in cells.items()), v.unit
    )
    report = hm.check_quantale_laws(mutated)
    assert not report.ok
    assert any(f.witness for f in report.failures)


def test_signature_of_chain():
    sig = hm.signature_of(hm.chain_meet_quantale(3))
    assert sig.symbol_names() == ("~0", "~1", "~2")
    order = sig.order(2)
    assert order.leq("~0", "~1") and order.leq("~1", "~2")
    assert not order.leq("~2", "~0")


def test_met_adds_single_equality_axiom():
    v = hm.chain_meet_quantale(3)
    pmet, met = hm.theory_pmet(v), hm.theory_met(v)
    extra = [ax for ax in met.axioms if ax not in pmet.axioms]
    assert len(extra) == 1
    assert extra[0].has_equality()
    assert extra[0].premises == {hm.edge("~2", "x", "y")}


def test_vgraph_roundtrip_boolean():
    v = hm.boolean_quantale()
    theory = hm.theory_vgph(v)
    for size in (0, 1, 2):
        for s in all_structures(theory.signature, size, cap=None):
            if len(s.carrier) != size or not hm.is_model(s, theory):
                continue
            g = hm.structure_to_vgraph(s)
            assert hm.vgraph_to_structure(g) == s
    for g in all_vgraphs(v, 2):
        assert hm.structure_to_vgraph(hm.vgraph_to_structure(g)) == g


def test_bottom_distance_gives_bottom_edges_only():
    v = hm.boolean_quantale()
    g = hm.VGraph(v, ("a", "b"), tuple((x, y, "0") for x in "ab" for y in "ab"))
    s = hm.vgraph_to_structure(g)
    assert s.tuples("~1") == frozenset()
    assert len(s.tuples("~0")) == 4


def test_edge_present_iff_below_distance():
    v = hm.chain_meet_quantale(3)
    g = hm.VGraph(v, ("a", "b"), (("a", "a", "2"), ("a", "b", "1"), ("b", "a", "0"), ("b", "b", "2")))
    s = hm.vgraph_to_structure(g)
    for x in g.carrier:
        for y in g.carrier:
            for e in v.elements:
                assert s.holds(f"~{e}", (x, y)) == v.leq(e, g.d(x, y))


@settings(max_examples=300, deadline=None)
@given(small_vfunctors())
def test_vgraph_translation_matches_the_defining_scan(drawn):
    _, h = drawn
    for g in (h.source, h.target):
        s = hm.vgraph_to_structure(g)
        assert s == reference_vgraph_to_structure(g)
        assert hm.structure_to_vgraph(s) == g


def test_structure_to_vgraph_rejects_non_models():
    v = hm.boolean_quantale()
    sig = hm.signature_of(v)
    # a top edge without the bottom edge beneath it is not label-closed
    bad = hm.Structure(sig, ["a"], [hm.edge("~1", "a", "a")])
    with pytest.raises(hm.QuantaleError):
        hm.structure_to_vgraph(bad)


def test_vfunctor_condition_matches_morphism_validity():
    v = hm.boolean_quantale()
    for gx in all_vgraphs(v, 2):
        sx = hm.vgraph_to_structure(gx)
        for gz in all_vgraphs(v, 2):
            sz = hm.vgraph_to_structure(gz)
            for images in itertools.product(gz.carrier, repeat=len(gx.carrier)):
                h = hm.VFunctor(gx, gz, tuple(zip(gx.carrier, images)))
                m = hm.Morphism(sx, sz, dict(h.mapping))
                assert h.is_valid() == hm.validate_morphism(m)


def test_graph_classes_match_model_checks():
    v = hm.chain_meet_quantale(2)
    t_rgph = hm.theory_vrgph(v)
    t_vcat = hm.theory_vcat(v)
    t_pmet = hm.theory_pmet(v)
    for g in all_vgraphs(v, 2):
        s = hm.vgraph_to_structure(g)
        assert hm.is_model(s, t_rgph) == g.is_reflexive()
        assert hm.is_model(s, t_vcat) == (g.is_reflexive() and g.is_transitive())
        assert hm.is_model(s, t_pmet) == (
            g.is_reflexive() and g.is_transitive() and g.is_symmetric()
        )


def test_met_separation():
    v = hm.boolean_quantale()
    t_met = hm.theory_met(v)
    g = hm.VGraph(v, ("a", "b"), tuple((x, y, "1") for x in "ab" for y in "ab"))
    s = hm.vgraph_to_structure(g)
    assert not hm.is_model(s, t_met)  # distinct points at unit distance
    merged = hm.free_model(t_met, s)
    assert merged.model.size() == 1


def test_hom_bijection_with_monotone_maps(preord):
    from conftest import boolean_vcat_to_preorder

    v = hm.boolean_quantale()
    theory = hm.theory_vcat(v)
    for size in (1, 2):
        for g in all_vcategories(v, size):
            s = hm.vgraph_to_structure(g)
            p = boolean_vcat_to_preorder(s)
            for g2 in all_vcategories(v, size):
                s2 = hm.vgraph_to_structure(g2)
                p2 = boolean_vcat_to_preorder(s2)
                vc_homs = {
                    tuple(sorted(m.mapping.items())) for m in hm.enumerate_morphisms(s, s2)
                }
                pre_homs = {
                    tuple(sorted(m.mapping.items())) for m in hm.enumerate_morphisms(p, p2)
                }
                assert vc_homs == pre_homs


def test_quantale_rejects_bad_tables():
    with pytest.raises(hm.QuantaleError):
        hm.Quantale(("a",), (), (), "a")  # missing tensor entries
    with pytest.raises(hm.QuantaleError):
        hm.Quantale(("a",), (), (("a", "a", "a"),), "b")  # unknown unit


def _boolean_vgraph(carrier, distance="1"):
    return hm.VGraph(hm.boolean_quantale(), tuple(carrier),
                     tuple((a, b, distance) for a in carrier for b in carrier))


@pytest.mark.parametrize("refused, message", [
    (lambda: hm.chain_meet_quantale(0), "chain needs at least one element"),
    (lambda: hm.theory_vgph(non_join_preserving_quantale()),
     "quantale law check failed: "
     "LawFailure(law='tensor-join-preservation', witness=('a', 'a', 'b'))"),
    (lambda: hm.VGraph(hm.boolean_quantale(), ("a",), (("a", "b", "1"), ("a", "a", "1"))),
     "distance entry ('a', 'b') outside the carrier"),
    (lambda: hm.VGraph(hm.boolean_quantale(), ("a",), (("a", "a", "2"),)),
     "distance value '2' is not a quantale element"),
    (lambda: hm.VGraph(hm.boolean_quantale(), ("a", "b"), (("a", "a", "1"),)),
     "distance table missing entry ('a', 'b')"),
    (lambda: hm.VFunctor(_boolean_vgraph("a"), hm.VGraph(
        hm.chain_meet_quantale(3), ("a",), (("a", "a", "2"),)), (("a", "a"),)),
     "V-functor endpoints use different quantales"),
    (lambda: hm.VFunctor(_boolean_vgraph("a"), _boolean_vgraph("pq"), ()),
     "mapping must cover exactly the source carrier"),
    (lambda: hm.VFunctor(_boolean_vgraph("a"), _boolean_vgraph("pq"), (("a", "z"),)),
     "mapping has values outside the target carrier"),
    (lambda: hm.structure_to_vgraph(hm.chain(2)),
     "structure is not over a quantale-induced signature"),
], ids=["empty-chain", "laws", "distance-outside", "distance-value", "distance-missing",
        "two-quantales", "mapping-cover", "mapping-values", "not-a-quantale-signature"])
def test_quantale_values_refuse_with_their_messages(refused, message):
    with pytest.raises(hm.QuantaleError) as error:
        refused()
    assert str(error.value) == message


BOOLEAN_TENSOR = hm.boolean_quantale().tensor_pairs


@pytest.mark.parametrize("make, repeat, conflict, message", [
    (lambda extra: hm.Quantale(("0", "1"), (("0", "1"),), BOOLEAN_TENSOR + extra, "1"),
     (("1", "1", "1"),), (("1", "1", "0"),), "tensor lists ('1', '1') with two values"),
    (lambda extra: hm.VGraph(hm.boolean_quantale(), ("a",), (("a", "a", "1"),) + extra),
     (("a", "a", "1"),), (("a", "a", "0"),), "distance table lists ('a', 'a') with two values"),
    (lambda extra: hm.VFunctor(_boolean_vgraph("a"), _boolean_vgraph("pq"), (("a", "p"),) + extra),
     (("a", "p"),), (("a", "q"),), "mapping sends 'a' to two points"),
], ids=["tensor", "distances", "mapping"])
def test_a_key_listed_with_two_values_is_refused(make, repeat, conflict, message):
    assert make(repeat) == make(())  # an exact repeat is the same entry
    with pytest.raises(hm.QuantaleError) as error:
        make(conflict)
    assert str(error.value) == message


def unit_below_top_quantale():
    """Three-element chain whose tensor unit sits strictly below the top."""
    return hm.Quantale(
        elements=("0", "k", "t"),
        leq_pairs=(("0", "k"), ("k", "t")),
        tensor_pairs=(
            ("0", "0", "0"), ("0", "k", "0"), ("0", "t", "0"),
            ("k", "0", "0"), ("k", "k", "k"), ("k", "t", "t"),
            ("t", "0", "0"), ("t", "k", "t"), ("t", "t", "t"),
        ),
        unit="k",
    )


def test_unit_below_top_falls_back_to_flat_instances():
    v = unit_below_top_quantale()
    assert hm.check_quantale_laws(v).ok
    assert v.unit != v.top()
    rgph = hm.theory_vrgph(v)
    assert not rgph.base_flag and not rgph.schemas
    with pytest.warns(UserWarning):
        vcat = hm.theory_vcat(v)
    assert not vcat.schemas and not vcat.base_flag
    # reflexivity is required at the unit only: d(x, x) >= k but not necessarily top
    sig = vcat.signature
    edges = [
        hm.edge(s, a, b)
        for a in ("p",)
        for b in ("p",)
        for s in ("~0", "~k")
    ]
    just_unit = hm.Structure(sig, ["p"], edges)
    assert hm.is_model(just_unit, rgph)
    assert hm.is_model(just_unit, vcat)
    base = hm.Theory(sig, (), (), base_flag=True)
    assert not hm.is_model(just_unit, base)  # the base theory would demand the top loop


def test_flat_fallback_is_the_vrgph_axioms_plus_the_schema_instances():
    v = unit_below_top_quantale()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        vcat, pmet, met = hm.theory_vcat(v), hm.theory_pmet(v), hm.theory_met(v)
    rgph = hm.theory_vrgph(v).axioms
    sym = quantale_symbol_name
    transitivity = tuple(  # ~a x y, ~b y z => ~(a (x) b) x z, for every a then every b
        hm.horn((hm.edge(sym(a), "x", "y"), hm.edge(sym(b), "y", "z")),
                hm.edge(sym(v.tensor(a, b)), "x", "z"))
        for a in v.elements for b in v.elements)
    symmetry = tuple(hm.horn((hm.edge(sym(a), "x", "y"),), hm.edge(sym(a), "y", "x"))
                     for a in v.elements)
    separation = hm.horn((hm.edge("~k", "x", "y"),), hm.Equality("x", "y"))
    assert vcat.axioms == rgph + transitivity
    assert pmet.axioms == rgph + transitivity + symmetry
    assert met.axioms == rgph + transitivity + symmetry + (separation,)


def test_pmet_fallback_warns_once():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        hm.theory_pmet(unit_below_top_quantale())
    assert [w.category for w in caught] == [UserWarning]


def m3_top_quantale():
    """M3 with a top added (0 < a, b, c < m < T), unit T, every product without T is 0.

    A lawful integral quantale whose lattice is not distributive, so not Heyting.
    """
    elements = ("0", "a", "b", "c", "m", "T")
    return hm.Quantale(
        elements=elements,
        leq_pairs=(("0", "a"), ("0", "b"), ("0", "c"), ("a", "m"), ("b", "m"), ("c", "m"),
                   ("m", "T")),
        tensor_pairs=tuple((x, y, x if y == "T" else y if x == "T" else "0")
                           for x in elements for y in elements),
        unit="T",
    )


def translates(x):
    try:
        hm.structure_to_vgraph(x)
    except hm.QuantaleError:
        return False
    return True


# The defining laws of each rung, read off a V-graph's distance table.
RUNG_LAWS = {
    "vgph": lambda g: True,
    "vrgph": lambda g: g.is_reflexive(),
    "vcat": lambda g: g.is_reflexive() and g.is_transitive(),
    "pmet": lambda g: g.is_reflexive() and g.is_transitive() and g.is_symmetric(),
    "met": lambda g: g.is_reflexive() and g.is_transitive() and g.is_symmetric() and not any(
        a != b and g.quantale.leq(g.quantale.unit, g.d(a, b))
        for a in g.carrier for b in g.carrier),
}


@pytest.mark.parametrize("make", [
    hm.boolean_quantale, lambda: hm.chain_meet_quantale(3), lambda: hm.chain_meet_quantale(4),
    hm.lukasiewicz_quantale, unit_below_top_quantale,
], ids=["boolean", "chain3", "chain4", "lukasiewicz", "unit-below-top"])
@pytest.mark.parametrize("kind", list(RUNG_LAWS))
def test_ladder_matches_reference(make, kind):
    # A rung's models on at most 2 points are the V-graphs that its laws keep,
    # translated by the defining scan; it is schematic over the base theory
    # exactly when it is reflexive, the unit is top and the lattice is Heyting.
    v = make()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        theory = getattr(hm, f"theory_{kind}")(v)
    schematic = kind != "vgph" and v.unit == v.top() and hm.is_heyting(v)
    assert theory.base_flag == schematic
    assert bool(theory.schemas) == (schematic and kind not in ("vgph", "vrgph"))
    expected = {reference_vgraph_to_structure(g)
                for n in range(3) for g in all_vgraphs(v, n) if RUNG_LAWS[kind](g)}
    assert set(all_models(theory, 2, iso=False, cap=None)) == expected


def test_reflexive_rungs_over_a_non_heyting_lattice_carry_the_join_axioms():
    # Unit = top is not enough for the base theory: over a lattice that is not
    # Heyting it has no join axioms, and reflexive V-graphs built as the base
    # theory include 85 models of 123 whose labels are not join-closed.
    v = m3_top_quantale()
    assert hm.check_quantale_laws(v).ok and v.unit == v.top() and not hm.is_heyting(v)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        rungs = [hm.theory_vrgph(v), hm.theory_vcat(v), hm.theory_pmet(v), hm.theory_met(v)]
    old_vrgph = hm.Theory(hm.signature_of(v), (), (), base_flag=True)
    for theory in rungs:
        assert not theory.base_flag and not theory.schemas
        models = list(all_models(theory, 2, iso=False, cap=None))
        assert models
        assert all(hm.structure_to_vgraph(x).is_reflexive() for x in models)
    old_models = list(all_models(old_vrgph, 2, iso=False, cap=None))
    assert (len(old_models), sum(not translates(x) for x in old_models)) == (123, 85)


def test_free_models_exist_over_quantale_theories():
    v = hm.chain_meet_quantale(2)
    theory = hm.theory_vcat(v)
    seed = hm.Structure(theory.signature, ["x", "y"], [hm.edge("~1", "x", "y")])
    result = hm.free_model(theory, seed)
    assert hm.is_model(result.model, theory)
    assert result.model.holds("~1", ("x", "y"))


def test_a_used_quantale_theory_is_freed():
    v = hm.chain_meet_quantale(3)
    theory = hm.theory_vcat(v)
    theory.all_axioms()
    theory.signature.order(2)
    loops = [hm.edge(s, "a", "a") for s in theory.signature.symbol_names()]
    assert hm.is_model(hm.Structure(theory.signature, ["a"], loops), theory)
    refs = [weakref.ref(theory), weakref.ref(theory.signature), weakref.ref(v)]
    del v, theory
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_theories_over_one_quantale_share_its_symbol_order():
    v = hm.chain_meet_quantale(3)
    order = hm.theory_vcat(v).signature.order(2)
    assert order is hm.theory_pmet(v).signature.order(2)
    assert order is hm.signature_order_closure(hm.signature_of(v), 2)
    assert order.is_complete_heyting()
    # an equal but distinct quantale builds its own, equal order
    other = hm.signature_of(hm.chain_meet_quantale(3)).order(2)
    assert other is not order and other.symbols == order.symbols
    assert all(other.leq(a, b) == order.leq(a, b) for a in order.symbols for b in order.symbols)


def test_one_signature_per_quantale():
    v = hm.chain_meet_quantale(3)
    sig = hm.signature_of(v)
    assert sig is hm.signature_of(v) is hm.theory_vcat(v).signature is hm.theory_pmet(v).signature
    g = hm.VGraph(v, ("a",), (("a", "a", "2"),))
    assert hm.vgraph_to_structure(g).signature is sig
    assert hm.vfunctor_to_morphism(hm.VFunctor(g, g, (("a", "a"),))).target.signature is sig
    # an equal but distinct quantale keeps its own, equal signature
    other = hm.signature_of(hm.chain_meet_quantale(3))
    assert other is not sig and other == sig and hash(other) == hash(sig)


def test_kept_data_is_not_part_of_a_quantale_theory():
    used = hm.theory_vcat(hm.chain_meet_quantale(3))
    assert hm.is_model(hm.Structure(used.signature, [], []), used)
    fresh = hm.theory_vcat(hm.chain_meet_quantale(3))
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)


def test_dataclass_conversions_return():
    v = hm.chain_meet_quantale(3)
    theory = hm.theory_vcat(v)
    theory.all_axioms()
    assert theory.signature is hm.signature_of(v)
    assert dataclasses.astuple(v)[0] == v.elements
    assert dataclasses.asdict(v)["elements"] == v.elements
