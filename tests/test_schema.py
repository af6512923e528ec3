import dataclasses
import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hornmod as hm
from hornmod.families import all_models
from hornmod.limits import TERMINAL_ELEMENT
from hornmod.quantale import all_vcategories, all_vfunctors, all_vgraphs, vfunctor_to_morphism
from hornmod.schema import (
    ConstantSymbol,
    ExplicitTable,
    PLACEHOLDER,
    PremiseProjection,
    SchemaConvexityReport,
    SchemaCounterexample,
    SchemaError,
    _lift_join,
    _r_kappa_enumerated,
    apply_combine,
    expand_instances,
)

from conftest import (
    _r_kappa,
    boolean_bridge_models_agree,
    boolean_vcat_to_preorder,
    count_chases,
    interp_fail_morphism,
    non_join_preserving_quantale,
    preorder_to_boolean_vcat,
    reference_ch_condition_oracle,
    reference_is_schema_convex_wrt_instance,
    reference_is_schema_safe,
    reference_is_schema_object_convex,
    small_vfunctors,
)


def test_expand_generalized_transitivity_boolean():
    v = hm.boolean_quantale()
    instances = hm.expand_instances(hm.generalized_transitivity_schema(), hm.signature_of(v))
    assert len(instances) == 4
    by_labels = {inst.labels: inst.formula for inst in instances}
    top = by_labels[("~1", "~1")]
    assert top.conclusion == hm.edge("~1", "x", "z")
    mixed = by_labels[("~1", "~0")]
    assert mixed.conclusion == hm.edge("~0", "x", "z")


def test_expand_symmetry_boolean():
    v = hm.boolean_quantale()
    instances = hm.expand_instances(hm.symmetry_schema(), hm.signature_of(v))
    assert len(instances) == 2
    assert instances[0].formula.conclusion == hm.edge(instances[0].labels[0], "y", "x")


def test_expand_single_symbol_signature():
    v = hm.chain_meet_quantale(1)
    instances = hm.expand_instances(hm.generalized_transitivity_schema(), hm.signature_of(v))
    assert len(instances) == 1


def test_expand_arity_mismatch():
    sig = hm.Signature((hm.RelationSymbol("R", 1),))
    with pytest.raises(SchemaError):
        hm.expand_instances(hm.generalized_transitivity_schema(), sig)


def test_identity_is_schema_convex():
    v = hm.chain_meet_quantale(3)
    theory = hm.theory_vcat(v)
    for g in all_vcategories(v, 2):
        m = hm.identity_morphism(hm.vgraph_to_structure(g))
        assert hm.is_schema_convex(m, theory).convex


def test_transported_counterexample_fails():
    v = hm.boolean_quantale()
    theory = hm.theory_vcat(v)
    f = interp_fail_morphism()
    fv = hm.Morphism(
        preorder_to_boolean_vcat(f.source),
        preorder_to_boolean_vcat(f.target),
        dict(f.mapping),
    )
    report = hm.is_schema_convex(fv, theory)
    assert not report.convex
    assert report.counterexample.symbol == "~1"


def test_theory_rejects_schemas_over_non_heyting_order():
    sig = hm.Signature(
        tuple(hm.RelationSymbol(n, 2) for n in "RS"), hm.DISCRETE
    )  # two incomparable symbols: no lattice structure
    with pytest.raises(hm.TheoryError):
        hm.Theory(sig, (), (hm.symmetry_schema(),), base_flag=True)


def test_theory_rejects_schemas_over_a_discrete_order():
    # one symbol per arity passes the Heyting check, but flat convexity and
    # safety read only the axioms, and schema convexity never fails at the
    # bottom of a one-point order, so such a schema used to go unchecked
    t3 = hm.Signature((hm.RelationSymbol("T", 3),), hm.DISCRETE)
    unsafe = hm.AxiomSchema("s", 3, (hm.Edge(PLACEHOLDER, ("x", "y", "y")),),
                            hm.Edge(PLACEHOLDER, ("x", "x", "y")), PremiseProjection(0))
    with pytest.raises(hm.TheoryError, match="complete-Heyting"):
        hm.Theory(t3, (), (unsafe,), base_flag=True)
    transitivity = hm.AxiomSchema(
        "trans", 2, (hm.Edge(PLACEHOLDER, ("x", "y")), hm.Edge(PLACEHOLDER, ("y", "z"))),
        hm.Edge(PLACEHOLDER, ("x", "z")), PremiseProjection(0))
    with pytest.raises(hm.TheoryError, match="complete-Heyting"):
        hm.Theory(hm.preorder_theory().signature, (), (transitivity,), base_flag=True)


@pytest.mark.parametrize("arity", [0, 3])
def test_theory_rejects_a_schema_whose_arity_has_no_symbols(arity):
    schema = hm.AxiomSchema("lonely", arity, (hm.Edge(PLACEHOLDER, ("x",) * arity),),
                            hm.Edge(PLACEHOLDER, ("x",) * arity), PremiseProjection(0))
    with pytest.raises(SchemaError, match=f"'lonely' has arity {arity}, but the signature "
                                          f"has no symbols of arity {arity}"):
        hm.Theory(hm.signature_of(hm.boolean_quantale()), (), (schema,))


def test_schema_convexity_needs_heyting_order(preord, chain2):
    # the tensor combination needs a quantale signature
    schema = hm.generalized_transitivity_schema()
    with pytest.raises(SchemaError, match="tensor combination"):
        hm.is_schema_convex_wrt_instance(
            hm.identity_morphism(chain2),
            schema,
            hm.SchemaInstance(("le", "le"), preord.axioms[0]),
            preord,
        )
    # M3 is a complete lattice but not distributive, so the gate itself refuses it
    m3 = (("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1"))
    sig = hm.Signature(tuple(hm.RelationSymbol(n, 2) for n in "01abc"), hm.EXPLICIT, m3)
    theory = hm.Theory(sig)
    symmetry = hm.symmetry_schema()
    instance = hm.SchemaInstance(("a",), hm.horn([hm.edge("a", "x", "y")], hm.edge("a", "y", "x")))
    gate = "schemas need a complete-Heyting symbol order at arity 2"
    with pytest.raises(SchemaError, match=gate):
        hm.is_schema_convex_wrt_instance(
            hm.identity_morphism(hm.Structure(sig, (), ())), symmetry, instance, theory)
    with pytest.raises(SchemaError, match=gate):
        hm.is_schema_safe(symmetry, theory)


def test_instance_labels_outside_the_signature_raise():
    v = hm.chain_meet_quantale(3)
    theory = hm.theory_vcat(v)
    schema = theory.schemas[0]
    f = hm.identity_morphism(hm.vgraph_to_structure(next(all_vcategories(v, 2))))
    formula = expand_instances(schema, theory.signature)[0].formula
    with pytest.raises(SchemaError, match=r"\('~9',\) are not symbols of arity 2"):
        hm.is_schema_convex_wrt_instance(f, schema, hm.SchemaInstance(("~2", "~9"), formula),
                                         theory)


def test_schema_convexity_refuses_a_map_over_another_signature():
    theory = hm.theory_vcat(hm.boolean_quantale())
    schema = theory.schemas[0]
    instance = expand_instances(schema, theory.signature)[0]
    # a map of posets, and a map of V-categories over another quantale
    chain3_map = hm.identity_morphism(hm.terminal(hm.signature_of(hm.chain_meet_quantale(3))))
    for f in (interp_fail_morphism(), chain3_map):
        for decide in (lambda: hm.is_schema_convex(f, theory),
                       lambda: hm.is_schema_object_convex(f.source, theory),
                       lambda: hm.is_schema_convex_wrt_instance(f, schema, instance, theory)):
            with pytest.raises(hm.SignatureError, match="different signatures"):
                decide()


def test_instance_formula_must_match_its_labels():
    v = hm.chain_meet_quantale(3)
    theory = hm.theory_vcat(v)
    schema = theory.schemas[0]
    f = hm.identity_morphism(hm.vgraph_to_structure(next(all_vcategories(v, 2))))
    by_labels = {inst.labels: inst.formula for inst in expand_instances(schema, theory.signature)}
    swapped = by_labels["~1", "~2"]  # same conclusion ~1(x, z), premises swapped
    weaker = hm.horn(by_labels["~2", "~1"].premises, hm.edge("~0", "x", "z"))
    for formula in (swapped, weaker):
        with pytest.raises(SchemaError, match=r"not the expansion of labels \('~2', '~1'\)"):
            hm.is_schema_convex_wrt_instance(
                f, schema, hm.SchemaInstance(("~2", "~1"), formula), theory)
    instance = hm.SchemaInstance(("~2", "~1"), by_labels["~2", "~1"])
    assert hm.is_schema_convex_wrt_instance(f, schema, instance, theory).convex


def test_symmetry_schema_never_blocks_convexity():
    v = hm.chain_meet_quantale(2)
    theory = hm.theory_pmet(v)
    models = all_models(theory, 2, cap=None)
    schema = theory.schemas[1]
    assert schema.name == "symmetry"
    for x in models[:4]:
        for z in models[:4]:
            for f in hm.enumerate_morphisms(x, z):
                for inst in hm.expand_instances(schema, theory.signature):
                    assert hm.is_schema_convex_wrt_instance(f, schema, inst, theory).convex


def test_one_point_models_are_object_convex():
    v = hm.chain_meet_quantale(3)
    theory = hm.theory_vcat(v)
    for g in all_vcategories(v, 1):
        x = hm.vgraph_to_structure(g)
        assert hm.is_schema_object_convex(x, theory).convex


def test_safe_schema_gives_object_convexity_everywhere():
    v = hm.chain_meet_quantale(3)
    theory = hm.theory_vcat(v)
    assert hm.is_schema_safe(theory.schemas[0], theory).safe
    for size in (0, 1, 2):
        for g in all_vcategories(v, size):
            x = hm.vgraph_to_structure(g)
            assert hm.is_schema_object_convex(x, theory).convex


def test_non_transitive_vgraph_is_not_object_convex():
    # d(e0, e1) = 1 but both self-distances are 0, so no midpoint reaches 1
    v = hm.chain_meet_quantale(3)
    theory = hm.theory_vcat(v)
    g = hm.VGraph(v, ("e0", "e1"), (("e0", "e0", "0"), ("e0", "e1", "1"),
                                    ("e1", "e0", "1"), ("e1", "e1", "0")))
    assert not g.is_transitive()
    x = hm.vgraph_to_structure(g)
    report = hm.is_schema_object_convex(x, theory)
    assert not report.convex
    cex = report.counterexample
    assert (cex.schema, cex.labels, cex.lifted, cex.symbol) == (
        "generalized_transitivity", ("~1", "~1"), ("e0", "e1"), "~1")
    assert cex.valuation == tuple((w, TERMINAL_ELEMENT) for w in ("x", "y", "z"))
    assert reference_is_schema_object_convex(x, theory).counterexample == SchemaCounterexample(
        cex.schema, cex.labels, (), cex.lifted, cex.symbol)


SCHEMA_QUANTALES = {
    "boolean": hm.boolean_quantale(),
    "chain3": hm.chain_meet_quantale(3),
    "lukasiewicz": hm.lukasiewicz_quantale(),
}


@lru_cache(maxsize=None)
def _vgraphs(name, size):
    return tuple(all_vgraphs(SCHEMA_QUANTALES[name], size))


@st.composite
def maps_between_vgraphs(draw, name):
    """A V-functor between V-graphs of up to 2 points, as a morphism of structures.

    Both ends are drawn from ``all_vgraphs``, then each source distance is met
    with the target distance of its image, so the drawn function is a V-functor.
    """
    v = SCHEMA_QUANTALES[name]
    gz = draw(st.sampled_from(_vgraphs(name, draw(st.integers(0, 2)))))
    gx = draw(st.sampled_from(_vgraphs(name, draw(st.integers(0, 2 if gz.carrier else 0)))))
    images = draw(st.tuples(*[st.sampled_from(gz.carrier)] * len(gx.carrier)))
    h = dict(zip(gx.carrier, images))
    lowered = tuple((a, b, v.meet2(gx.d(a, b), gz.d(h[a], h[b])))
                    for a in gx.carrier for b in gx.carrier)
    return vfunctor_to_morphism(
        hm.VFunctor(hm.VGraph(v, gx.carrier, lowered), gz, tuple(h.items())))


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(SCHEMA_QUANTALES)),
       make_theory=st.sampled_from([hm.theory_vcat, hm.theory_pmet]), data=st.data())
def test_schema_lift_kernel_matches_the_reference_loops(name, make_theory, data):
    theory = make_theory(SCHEMA_QUANTALES[name])
    f = data.draw(maps_between_vgraphs(name))
    for schema in theory.schemas:
        for inst in expand_instances(schema, theory.signature):
            assert hm.is_schema_convex_wrt_instance(f, schema, inst, theory) == (
                reference_is_schema_convex_wrt_instance(f, schema, inst, theory))
    for x in (f.source, f.target):
        got = hm.is_schema_object_convex(x, theory)
        want = reference_is_schema_object_convex(x, theory)
        assert got.convex == want.convex
        if not want.convex:
            # the reference leaves the valuation empty; the kernel reports the
            # valuation into the terminal object
            g, w = got.counterexample, want.counterexample
            assert (g.schema, g.labels, g.lifted, g.symbol) == (
                w.schema, w.labels, w.lifted, w.symbol)
            assert w.valuation == ()
            schema = next(s for s in theory.schemas if s.name == g.schema)
            assert g.valuation == tuple((u, TERMINAL_ELEMENT) for u in sorted(schema.variables()))


@st.composite
def maps_of_raw_structures(draw, name):
    """A map from up to 3 points to 1 or 2, between structures over ``signature_of(v)``.

    The edge sets are arbitrary, not models of the base theory: a pair may
    carry no label, so a lift can meet a premise tuple without a largest
    label, where the lift join falls back to the defining join.  The source
    keeps a drawn subset of the edges its map preserves.
    """
    sig = hm.signature_of(SCHEMA_QUANTALES[name])
    symbols = sig.symbols_of_arity(2)

    def edges(carrier, allowed):
        slots = [hm.Edge(s, (a, b)) for s in symbols for a in carrier for b in carrier
                 if allowed(s, a, b)]
        keep = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
        return [e for e, k in zip(slots, keep) if k]

    zs = tuple(f"z{i}" for i in range(draw(st.integers(1, 2))))
    xs = tuple(f"x{i}" for i in range(draw(st.integers(0, 3))))
    z = hm.Structure(sig, zs, edges(zs, lambda s, a, b: True))
    h = dict(zip(xs, draw(st.tuples(*[st.sampled_from(zs)] * len(xs)))))
    x = hm.Structure(sig, xs, edges(xs, lambda s, a, b: z.holds(s, (h[a], h[b]))))
    return hm.Morphism(x, z, h)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(SCHEMA_QUANTALES)), data=st.data())
def test_whole_theory_reports_match_the_reference_instance_loop(name, data):
    # one theory's schemas share nothing but the source, so a table or memo
    # carried from one instance or schema to the next shows as a wrong report
    v = SCHEMA_QUANTALES[name]
    premise_only = _premise_only_schemas(v)
    pool = (hm.generalized_transitivity_schema(), hm.symmetry_schema(), *premise_only,
            dataclasses.replace(premise_only[0], name="meet_table_unchecked", monotone=False))
    schemas = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3,
                                 unique_by=lambda s: s.name))
    theory = hm.Theory(hm.signature_of(v), (), tuple(schemas), base_flag=True)
    f = data.draw(maps_of_raw_structures(name))
    want = SchemaConvexityReport(True, None)
    for schema in theory.schemas:
        for inst in expand_instances(schema, theory.signature):
            report = reference_is_schema_convex_wrt_instance(f, schema, inst, theory)
            assert hm.is_schema_convex_wrt_instance(f, schema, inst, theory) == report
            if want.convex and not report.convex:
                want = report
    assert hm.is_schema_convex(f, theory) == want


def test_schema_convexity_walks_the_lift_kernel_once_per_schema(monkeypatch):
    # all nine instances of generalized transitivity share one walk of the cases
    v = hm.chain_meet_quantale(3)
    theory = hm.theory_vcat(v)
    assert [len(expand_instances(s, theory.signature)) for s in theory.schemas] == [9]
    entries = []

    def counted(*args, **kwargs):
        entries.append(args[0])
        return kernel(*args, **kwargs)

    kernel = hm.schema._fibre_lifts
    monkeypatch.setattr(hm.schema, "_fibre_lifts", counted)
    maps = [hm.identity_morphism(hm.vgraph_to_structure(g)) for g in all_vcategories(v, 2)]
    maps.append(_earliest_failure_is_not_first_in_case_order())
    for f in maps:
        entries.clear()
        hm.is_schema_convex(f, theory)
        assert entries == [f]


def _earliest_failure_is_not_first_in_case_order():
    """A V-functor onto the indiscrete 2-point V-category over the 3-chain."""
    v = hm.chain_meet_quantale(3)
    x = hm.VGraph(v, ("e0", "e1", "e2"), (
        ("e0", "e0", "2"), ("e0", "e1", "0"), ("e0", "e2", "0"),
        ("e1", "e0", "0"), ("e1", "e1", "2"), ("e1", "e2", "1"),
        ("e2", "e0", "0"), ("e2", "e1", "1"), ("e2", "e2", "2")))
    z = hm.VGraph(v, ("e0", "e1"), tuple((a, b, "2") for a in ("e0", "e1")
                                         for b in ("e0", "e1")))
    return vfunctor_to_morphism(
        hm.VFunctor(x, z, (("e0", "e1"), ("e1", "e0"), ("e2", "e1"))))


def test_reported_instance_is_the_earliest_to_fail_not_the_first_in_case_order():
    # instance (~2, ~2) fails first in case order, at x = e0, y = e1, z = e0, but
    # (~1, ~1) comes first among the instances and fails later, so it is reported;
    # (~2, ~2) fails again after that, which must not replace the report
    theory = hm.theory_vcat(hm.chain_meet_quantale(3))
    schema = theory.schemas[0]
    f = _earliest_failure_is_not_first_in_case_order()
    per_instance = {
        inst.labels: reference_is_schema_convex_wrt_instance(f, schema, inst, theory)
        for inst in expand_instances(schema, theory.signature)
    }
    failing = [labels for labels, report in per_instance.items() if not report.convex]
    assert failing[0] == ("~1", "~1") and ("~2", "~2") in failing
    first_in_case_order = min(per_instance[labels].counterexample.valuation for labels in failing)
    assert first_in_case_order == (("x", "e0"), ("y", "e1"), ("z", "e0"))
    assert per_instance["~2", "~2"].counterexample.valuation == first_in_case_order
    report = hm.is_schema_convex(f, theory)
    assert report == per_instance["~1", "~1"] == SchemaConvexityReport(False, SchemaCounterexample(
        "generalized_transitivity", ("~1", "~1"), (("x", "e1"), ("y", "e0"), ("z", "e1")),
        ("e0", "e0"), "~1"))


def test_ch_oracle_identity():
    v = hm.boolean_quantale()
    for g in all_vcategories(v, 2):
        ident = hm.VFunctor(g, g, tuple((a, a) for a in g.carrier))
        assert hm.ch_condition_oracle(ident, v)


def test_ch_oracle_empty_fibre():
    v = hm.boolean_quantale()
    x = hm.VGraph(v, ("a",), (("a", "a", "1"),))
    z = hm.VGraph(
        v,
        ("p", "q"),
        (("p", "p", "1"), ("p", "q", "1"), ("q", "p", "1"), ("q", "q", "1")),
    )
    h = hm.VFunctor(x, z, (("a", "p"),))
    assert h.is_valid()
    # the fibre over q is empty while d(a, a) /\ (1 (x) 1) is the top
    assert not hm.ch_condition_oracle(h, v)


def test_ch_oracle_agrees_with_schema_convexity_boolean():
    v = hm.boolean_quantale()
    theory = hm.theory_vcat(v)
    cats = [g for size in (0, 1, 2) for g in all_vcategories(v, size)]
    for gx in cats:
        for gz in cats:
            for h in all_vfunctors(gx, gz):
                expected = hm.ch_condition_oracle(h, v)
                got = hm.is_schema_convex(vfunctor_to_morphism(h), theory).convex
                assert got == expected


@pytest.mark.parametrize("v", [hm.boolean_quantale(), hm.chain_meet_quantale(3)],
                         ids=["boolean", "chain3"])
def test_r_kappa_fast_path_agrees_with_defining_join(v):
    theory = hm.theory_vcat(v)
    sig = theory.signature
    cats = [g for size in (0, 1, 2) for g in all_vcategories(v, size)]
    for gx in cats:
        for gz in cats:
            for h in all_vfunctors(gx, gz):
                x = vfunctor_to_morphism(h).source
                for schema in theory.schemas:
                    order = sig.order(schema.arity)
                    lift_join = _lift_join(x, schema, sig, order)
                    variables = sorted(schema.variables())
                    for inst in expand_instances(schema, sig):
                        for values in itertools.product(x.sorted_carrier(),
                                                         repeat=len(variables)):
                            kappa = dict(zip(variables, values))
                            args = [tuple(kappa[w] for w in p.args) for p in schema.premises]
                            fast = lift_join(inst.labels, args)
                            slow = _r_kappa_enumerated(schema, sig, order, inst.labels, x, args)
                            assert fast == slow == _r_kappa(
                                schema, sig, order, inst.labels, x, kappa)


@settings(max_examples=300, deadline=None)
@given(small_vfunctors())
def test_ch_oracle_matches_the_defining_loop(drawn):
    v, h = drawn
    assert h.is_valid()
    assert hm.ch_condition_oracle(h, v) == reference_ch_condition_oracle(h, v)


def test_ch_oracle_requires_heyting():
    # tables whose tensor is not join-preserving fail the Heyting gate
    broken = non_join_preserving_quantale()
    assert not hm.is_heyting(broken)
    g = hm.VGraph(broken, ("p",), (("p", "p", "1"),))
    with pytest.raises(hm.QuantaleError):
        hm.ch_condition_oracle(hm.VFunctor(g, g, (("p", "p"),)), broken)


def test_ch_oracle_refuses_a_map_over_another_quantale():
    v = hm.chain_meet_quantale(3)
    g = hm.VGraph(v, ("p",), (("p", "p", "2"),))
    with pytest.raises(hm.QuantaleError, match="another quantale"):
        hm.ch_condition_oracle(hm.VFunctor(g, g, (("p", "p"),)), hm.boolean_quantale())
    assert hm.ch_condition_oracle(hm.VFunctor(g, g, (("p", "p"),)), hm.chain_meet_quantale(3))


def test_symmetry_schema_very_safe():
    for v in (hm.boolean_quantale(), hm.chain_meet_quantale(3), hm.lukasiewicz_quantale()):
        theory = hm.theory_pmet(v)
        result = hm.is_schema_safe(theory.schemas[1], theory)
        assert result.safe and result.very_safe
        assert hm.is_schema_very_safe(theory.schemas[1], theory)


def test_generalized_transitivity_safe_over_meet_chain():
    v = hm.chain_meet_quantale(3)
    theory = hm.theory_vcat(v)
    result = hm.is_schema_safe(theory.schemas[0], theory)
    assert result.safe and not result.very_safe
    assert result.witnesses is not None


def test_generalized_transitivity_unsafe_over_lukasiewicz():
    v = hm.lukasiewicz_quantale()
    theory = hm.theory_pmet(v)
    result = hm.is_schema_safe(theory.schemas[0], theory)
    assert not result.safe
    assert result.meet_violation is not None
    labels, s = result.meet_violation
    order = theory.signature.order(2)
    lowered = tuple(order.meet2(r, s) for r in labels)
    schema = theory.schemas[0]
    assert apply_combine(schema, theory.signature, lowered) != order.meet2(
        apply_combine(schema, theory.signature, labels), s
    )


LADDER_QUANTALES = (hm.boolean_quantale, lambda: hm.chain_meet_quantale(3),
                    hm.lukasiewicz_quantale)
LADDER_THEORIES = (hm.theory_vgph, hm.theory_vrgph, hm.theory_vcat, hm.theory_pmet,
                   hm.theory_met)


def _shape_schema(name, combine, conclusion=("x", "z")):
    """``? x y, ? y z => ? conclusion``: ``y`` occurs only in the premises."""
    return hm.AxiomSchema(
        name=name,
        arity=2,
        premises=(hm.Edge(PLACEHOLDER, ("x", "y")), hm.Edge(PLACEHOLDER, ("y", "z"))),
        conclusion=hm.Edge(PLACEHOLDER, conclusion),
        combine=combine,
    )


def _premise_only_schemas(v):
    order = hm.signature_of(v).order(2)
    meets = ExplicitTable(tuple(((a, b), order.meet2(a, b))
                                for a in order.symbols for b in order.symbols))
    return (
        _shape_schema("meet_table", meets),
        _shape_schema("bottom", ConstantSymbol(order.bottom())),
        _shape_schema("top", ConstantSymbol(order.top())),
        _shape_schema("left", PremiseProjection(0)),
        _shape_schema("right", PremiseProjection(1)),
        _shape_schema("right_loop", PremiseProjection(1), conclusion=("x", "x")),
    )


@pytest.mark.parametrize("make_v", LADDER_QUANTALES)
def test_schema_safety_matches_the_reference_on_the_ladder(make_v):
    v = make_v()
    schemas = (hm.generalized_transitivity_schema(), hm.symmetry_schema())
    schemas += _premise_only_schemas(v)
    for make_theory in LADDER_THEORIES:
        theory = make_theory(v)
        for schema in schemas:
            assert hm.is_schema_safe(schema, theory) == reference_is_schema_safe(schema, theory)


def test_schema_safety_reports_the_first_unsafe_instance():
    theory = hm.theory_vcat(hm.chain_meet_quantale(3))
    result = hm.is_schema_safe(hm.symmetry_schema(), theory)
    assert result == reference_is_schema_safe(hm.symmetry_schema(), theory)
    assert not result.safe and result.meet_violation is None
    assert result.unsafe_labels == ("~1",)


def test_schema_safety_chases_each_distinct_conclusion_once(monkeypatch):
    theory = hm.theory_vcat(hm.chain_meet_quantale(3))
    schema = hm.generalized_transitivity_schema()
    chased = count_chases(monkeypatch)
    result = hm.is_schema_safe(schema, theory)
    # 9 instances, but tensor = meet combines their labels to only 3 conclusions
    assert len(result.witnesses) == 9 and len(chased) == 3
    assert len(set(chased)) == 3
    assert result == reference_is_schema_safe(schema, theory)


def test_schema_safety_checks_the_signature_before_the_gate():
    theory = hm.theory_vcat(hm.boolean_quantale())
    ternary = hm.AxiomSchema("ternary", 3, (hm.edge(PLACEHOLDER, "x", "y", "z"),),
                             hm.edge(PLACEHOLDER, "z", "y", "x"), PremiseProjection(0))
    with pytest.raises(SchemaError, match="has arity 3, but the signature has no symbols "
                                          "of arity 3"):
        hm.is_schema_safe(ternary, theory)


def test_premise_only_variables_get_per_instance_collapses():
    v = hm.chain_meet_quantale(3)
    theory = hm.theory_vcat(v)
    meet_table, bottom, top, left, right, right_loop = _premise_only_schemas(v)
    result = hm.is_schema_safe(meet_table, theory)
    assert result.safe and not result.very_safe
    # y collapses onto x when the second label is the smaller, else onto z
    witnesses = dict(result.witnesses)
    assert witnesses["~1", "~2"] == (("x", "x"), ("y", "z"), ("z", "z"))
    assert witnesses["~2", "~1"] == (("x", "x"), ("y", "x"), ("z", "z"))
    assert hm.is_schema_safe(bottom, theory).unsafe_labels == ("~1", "~1")
    assert hm.is_schema_safe(top, theory).meet_violation == (("~0", "~0"), "~0")
    assert hm.is_schema_safe(left, theory).safe and hm.is_schema_safe(right, theory).safe
    assert dict(hm.is_schema_safe(right_loop, theory).witnesses)["~2", "~2"] == (
        ("x", "x"), ("y", "x"), ("z", "x"))


SCHEMA_NOTES = {
    "very_safe": ("all schemas very safe: every morphism of models is convex, "
                  "so the category of models is locally cartesian closed",
                  "no equality axioms: the category is moreover a quasitopos "
                  "(a topological universe)"),
    "safe": ("all schemas safe: every model is convex, "
             "so the category of models is cartesian closed",),
    "unsafe": ("some schema is not safe; no closure property is implied",),
    "not_schematic": ("theory is not a schematic extension of the base theory; "
                      "the schema-safety theorems do not apply",),
}


def test_schematic_classification_notes():
    c3, luk = hm.chain_meet_quantale(3), hm.lukasiewicz_quantale()
    cases = {
        "very_safe": hm.theory_vrgph(hm.boolean_quantale()),
        "safe": hm.theory_pmet(c3),
        "unsafe": hm.theory_pmet(luk),
        "not_schematic": hm.theory_vgph(hm.boolean_quantale()),
    }
    for case, theory in cases.items():
        assert hm.classify_schematic_theory(theory).notes == SCHEMA_NOTES[case]
    assert hm.classify_schematic_theory(hm.theory_met(c3)).notes == SCHEMA_NOTES["safe"]


def test_classify_schematic_theories():
    c3 = hm.chain_meet_quantale(3)
    pmet = hm.classify_schematic_theory(hm.theory_pmet(c3))
    assert pmet.schematic and pmet.cartesian_closed and not pmet.locally_cartesian_closed

    vrgph = hm.classify_schematic_theory(hm.theory_vrgph(hm.boolean_quantale()))
    assert vrgph.locally_cartesian_closed and vrgph.quasitopos

    met = hm.classify_schematic_theory(hm.theory_met(c3))
    assert met.has_equality and met.cartesian_closed and not met.quasitopos

    luk = hm.classify_schematic_theory(hm.theory_pmet(hm.lukasiewicz_quantale()))
    assert not luk.cartesian_closed


def test_partial_products_over_quantale_base_are_base_models():
    # reflexivity, downward closure and the join axioms all survive the
    # construction, for arbitrary maps of base models
    v = hm.boolean_quantale()
    base = hm.theory_vrgph(v)
    models = all_models(base, 2, cap=None)
    maps = [f for x in models[:4] for z in models[:4] for f in hm.enumerate_morphisms(x, z)]
    for f in maps[:12]:
        for y in models[:4]:
            pp = hm.partial_product_refl(y, f)
            assert hm.is_model(pp.structure, base)


def test_schema_convex_partial_products_are_models():
    v = hm.boolean_quantale()
    theory = hm.theory_vcat(v)
    models = all_models(theory, 2, cap=None)
    maps = [f for x in models for z in models for f in hm.enumerate_morphisms(x, z)]
    for f in maps:
        if not hm.is_schema_convex(f, theory).convex:
            continue
        for y in models:
            pp = hm.partial_product_refl(y, f)
            assert hm.is_model(pp.structure, theory)


def test_schema_convex_morphisms_pass_verification():
    v = hm.boolean_quantale()
    theory = hm.theory_vcat(v)
    models = all_models(theory, 2, cap=None)
    maps = [f for x in models[:4] for z in models[:4] for f in hm.enumerate_morphisms(x, z)]
    convex = [f for f in maps if hm.is_schema_convex(f, theory).convex]
    for f in convex[:10]:
        for y in models[:3]:
            pp = hm.partial_product_refl(y, f)
            assert hm.verify_partial_product(f, y, pp, models).passed


def test_explicit_table_monotonicity_checked():
    v = hm.boolean_quantale()
    sig = hm.signature_of(v)
    # a non-monotone table falsely declared monotone: swaps top and bottom
    table = ExplicitTable(
        entries=(
            (("~0",), "~1"),
            (("~1",), "~0"),
        )
    )
    schema = hm.AxiomSchema(
        name="swap",
        arity=2,
        premises=(hm.Edge(PLACEHOLDER, ("x", "y")),),
        conclusion=hm.Edge(PLACEHOLDER, ("x", "y")),
        combine=table,
        monotone=True,
    )
    theory = hm.Theory(sig, (), (schema,), base_flag=True)
    inst = hm.expand_instances(schema, sig)[0]
    # the empty structure has no lift, so only a check made once per call
    # catches the table there
    for x in (hm.terminal(sig), hm.Structure(sig, (), ())):
        f = hm.identity_morphism(x)
        with pytest.raises(SchemaError, match="declared monotone"):
            hm.is_schema_convex_wrt_instance(f, schema, inst, theory)
        with pytest.raises(SchemaError, match="declared monotone"):
            hm.is_schema_convex(f, theory)


def test_explicit_table_builds_its_dict_once_and_compares_by_entries():
    entries = ((("~0",), "~1"), (("~1",), "~0"))
    table = ExplicitTable(entries)
    assert table.lookup() is table.lookup() == {("~0",): "~1", ("~1",): "~0"}
    assert table == ExplicitTable(entries) and table != ExplicitTable(entries[:1])
    assert hash(table) == hash((entries,))
    assert repr(table) == "ExplicitTable(entries=((('~0',), '~1'), (('~1',), '~0')))"
    assert dataclasses.replace(table, entries=entries[:1]).lookup() == {("~0",): "~1"}


def test_constant_combine():
    v = hm.boolean_quantale()
    sig = hm.signature_of(v)
    schema = hm.AxiomSchema(
        name="const",
        arity=2,
        premises=(hm.Edge(PLACEHOLDER, ("x", "y")),),
        conclusion=hm.Edge(PLACEHOLDER, ("y", "x")),
        combine=ConstantSymbol("~1"),
        monotone=True,
    )
    assert apply_combine(schema, sig, ("~0",)) == "~1"
    assert len(hm.expand_instances(schema, sig)) == 2


def test_boolean_bridge_models():
    assert boolean_bridge_models_agree()


def test_boolean_bridge_convexity(preord):
    v = hm.boolean_quantale()
    theory = hm.theory_vcat(v)
    cats = [g for size in (0, 1, 2) for g in all_vcategories(v, size)]
    for gx in cats:
        for gz in cats:
            for h in all_vfunctors(gx, gz):
                f = vfunctor_to_morphism(h)
                monotone = hm.Morphism(
                    boolean_vcat_to_preorder(f.source),
                    boolean_vcat_to_preorder(f.target),
                    dict(f.mapping),
                )
                assert hm.is_schema_convex(f, theory).convex == hm.is_convex(
                    monotone, preord
                )
