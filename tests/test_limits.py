import itertools

import pytest
from hypothesis import given, settings, strategies as st

import hornmod as hm
from hornmod.families import all_structures, dedup_by_iso
from hornmod import semantics
from hornmod.limits import _hom_tuples, _pair_edges, _pair_ids

from conftest import (
    TRUST_SIGNATURE,
    reference_enumerate_morphisms,
    reference_pair_edges,
    reference_paired_structure,
    reference_value_tuples,
    trust_structures,
)


def test_terminal_order_signature(preord):
    one = hm.terminal(preord.signature)
    assert one.sorted_carrier() == ("*",)
    assert one.edges == {hm.edge("le", "*", "*")}


def test_terminal_empty_signature():
    one = hm.terminal(hm.Signature(()))
    assert one.size() == 1 and not one.edges


def test_terminal_boolean_quantale_signature():
    one = hm.terminal(hm.signature_of(hm.boolean_quantale()))
    assert one.edges == {hm.edge("~0", "*", "*"), hm.edge("~1", "*", "*")}


def test_product_with_terminal_is_isomorphic(chain2, preord):
    res = hm.product(chain2, hm.terminal(preord.signature))
    assert hm.are_isomorphic(res.structure, chain2)
    assert hm.validate_morphism(res.left) and hm.validate_morphism(res.right)


def test_product_of_chains_edge_count(chain2):
    # oracle: count componentwise-related pairs directly
    pairs = [(a, b) for a in chain2.carrier for b in chain2.carrier]
    expected = sum(
        1
        for (a, b), (c, d) in itertools.product(pairs, repeat=2)
        if chain2.holds("le", (a, c)) and chain2.holds("le", (b, d))
    )
    assert expected == 9
    res = hm.product(chain2, chain2)
    assert res.structure.size() == 4
    assert len(res.structure.edges) == 9


def test_product_edge_count_formula(preord):
    xs = dedup_by_iso(all_structures(preord.signature, 2))
    for x in xs:
        for y in xs:
            res = hm.product(x, y)
            for s in preord.signature.symbols:
                assert len(res.structure.tuples(s.name)) == len(x.tuples(s.name)) * len(
                    y.tuples(s.name)
                )


def test_pullback_along_identity(chain2, chain3):
    f = hm.Morphism(chain2, chain3, {"c0": "c0", "c1": "c2"})
    res = hm.pullback(f, hm.identity_morphism(chain3))
    assert hm.are_isomorphic(res.structure, chain2)


def test_pullback_over_terminal_is_product(chain2):
    res = hm.pullback(hm.bang(chain2), hm.bang(chain2))
    prod = hm.product(chain2, chain2)
    assert res.structure == prod.structure


@pytest.mark.parametrize("other_side", ["left", "right"])
def test_pullback_refuses_a_leg_over_another_signature(chain2, other_side):
    # A Morphism does not check signatures, so a leg whose source is over
    # another signature than the shared target can be built; the join of edges
    # would look up that signature's symbols in the other.
    other = hm.Structure(hm.Signature((hm.RelationSymbol("R", 2),)), ["a"], [])
    leg = hm.Morphism(other, chain2, {"a": "c0"})
    legs = (leg, hm.identity_morphism(chain2))
    with pytest.raises(hm.SignatureError) as refused:
        hm.pullback(*(legs if other_side == "left" else legs[::-1]))
    assert str(refused.value) == "pullback needs a shared signature"


@pytest.mark.parametrize("refused, error, message", [
    (lambda: hm.pullback(hm.identity_morphism(hm.chain(2)), hm.identity_morphism(hm.chain(3))),
     hm.StructureError, "pullback needs a common codomain"),
    (lambda: hm.equalizer(hm.identity_morphism(hm.chain(2)), hm.identity_morphism(hm.chain(3))),
     hm.StructureError, "equalizer needs a parallel pair"),
    (lambda: hm.product(hm.chain(2), hm.Structure(hm.Signature(()), ["a"], [])),
     hm.SignatureError, "product needs a shared signature"),
], ids=["pullback-codomains", "equalizer-ends", "product-signatures"])
def test_limits_refuse_with_their_messages(refused, error, message):
    with pytest.raises(error) as info:
        refused()
    assert str(info.value) == message


def test_pullback_of_point_is_fibre(chain3):
    from conftest import interp_fail_morphism

    f = interp_fail_morphism()
    one = hm.terminal(chain3.signature)
    for z in chain3.carrier:
        zbar = hm.Morphism(one, chain3, {"*": z})
        pb = hm.pullback(zbar, f)
        fib = hm.fibre_structure(f, z)
        assert pb.structure.size() == fib.size()
        assert hm.are_isomorphic(pb.structure, fib)


def test_fibre_of_identity(chain2):
    for a in chain2.carrier:
        fib = hm.fibre_structure(hm.identity_morphism(chain2), a)
        assert fib.sorted_carrier() == (a,)


def test_fibre_empty_preimage():
    from conftest import interp_fail_morphism

    f = interp_fail_morphism()
    fib = hm.fibre_structure(f, "c1")
    assert fib.size() == 0 and not fib.edges


def test_fibre_of_constant(chain2):
    one_pt = hm.Structure(chain2.signature, ["p"], [hm.edge("le", "p", "p")])
    const = hm.Morphism(chain2, one_pt, {"c0": "p", "c1": "p"})
    assert hm.fibre_structure(const, "p") == chain2


def test_fibre_unknown_point_raises(chain2):
    with pytest.raises(hm.StructureError):
        hm.fibre_structure(hm.identity_morphism(chain2), "zz")


def test_hom_chain2_chain2(chain2):
    homs = hm.enumerate_morphisms(chain2, chain2)
    assert len(homs) == 3
    maps = [tuple(sorted(h.mapping.items())) for h in homs]
    assert (("c0", "c0"), ("c1", "c0")) in maps  # constant at bottom
    assert (("c0", "c0"), ("c1", "c1")) in maps  # identity
    assert (("c0", "c1"), ("c1", "c1")) in maps  # constant at top
    assert (("c0", "c1"), ("c1", "c0")) not in maps  # the swap is rejected


def test_hom_from_terminal_counts_reflexive_points(preord):
    one = hm.terminal(preord.signature)
    for x in dedup_by_iso(all_structures(preord.signature, 2)):
        if hm.is_reflexive(x):
            assert hm.hom_count(one, x) == x.size()


def test_hom_to_terminal_is_singleton(preord, chain2):
    assert hm.hom_count(chain2, hm.terminal(preord.signature)) == 1


def test_hom_in_theory_requires_models(preord, chain2):
    broken = hm.Structure(preord.signature, ["a"], [])
    with pytest.raises(hm.StructureError):
        hm.enumerate_morphisms(broken, chain2, in_theory=preord)
    assert len(hm.enumerate_morphisms(chain2, chain2, in_theory=preord)) == 3


def test_equalizer_of_equal_pair(chain2):
    res = hm.equalizer(hm.identity_morphism(chain2), hm.identity_morphism(chain2))
    assert res.structure == chain2


def test_equalizer_into_terminal(chain2):
    res = hm.equalizer(hm.bang(chain2), hm.bang(chain2))
    assert res.structure == chain2


def test_equalizer_identity_vs_constant(chain2):
    const = hm.Morphism(chain2, chain2, {"c0": "c1", "c1": "c1"})
    res = hm.equalizer(hm.identity_morphism(chain2), const)
    assert res.structure.sorted_carrier() == ("c1",)
    assert hm.validate_morphism(res.inclusion)


def test_equalizer_needs_parallel_pair(chain2, chain3):
    f = hm.Morphism(chain2, chain3, {"c0": "c0", "c1": "c1"})
    with pytest.raises(hm.StructureError):
        hm.equalizer(f, hm.identity_morphism(chain2))


def _cones_family(sig):
    return dedup_by_iso(all_structures(sig, 2))


def test_product_universal_property(preord):
    family = _cones_family(preord.signature)
    xs = family[:6]
    for x in xs:
        for y in xs:
            res = hm.product(x, y)
            for q in family:
                for q1 in hm.enumerate_morphisms(q, x):
                    for q2 in hm.enumerate_morphisms(q, y):
                        mediating = [
                            m
                            for m in hm.enumerate_morphisms(q, res.structure)
                            if hm.compose(res.left, m) == q1
                            and hm.compose(res.right, m) == q2
                        ]
                        assert len(mediating) == 1


def test_pullback_universal_property(preord, chain2):
    family = _cones_family(preord.signature)
    z = chain2
    legs = [f for x in family[:5] for f in hm.enumerate_morphisms(x, z)]
    for f in legs[:8]:
        for g in legs[:8]:
            res = hm.pullback(f, g)
            for q in family:
                for q1 in hm.enumerate_morphisms(q, f.source):
                    for q2 in hm.enumerate_morphisms(q, g.source):
                        if hm.compose(f, q1) != hm.compose(g, q2):
                            continue
                        mediating = [
                            m
                            for m in hm.enumerate_morphisms(q, res.structure)
                            if hm.compose(res.left, m) == q1
                            and hm.compose(res.right, m) == q2
                        ]
                        assert len(mediating) == 1


def test_equalizer_universal_property(preord, chain2):
    family = _cones_family(preord.signature)
    parallel = hm.enumerate_morphisms(chain2, chain2)
    for f in parallel:
        for g in parallel:
            res = hm.equalizer(f, g)
            for q in family:
                for t in hm.enumerate_morphisms(q, chain2):
                    if hm.compose(f, t) != hm.compose(g, t):
                        continue
                    mediating = [
                        m
                        for m in hm.enumerate_morphisms(q, res.structure)
                        if hm.compose(res.inclusion, m) == t
                    ]
                    assert len(mediating) == 1


def test_limits_of_models_are_models(preord, pos):
    for theory in (preord, pos):
        models = [
            s
            for s in dedup_by_iso(all_structures(theory.signature, 2))
            if hm.is_model(s, theory)
        ]
        assert hm.is_model(hm.terminal(theory.signature), theory)
        for x in models:
            for y in models:
                assert hm.is_model(hm.product(x, y).structure, theory)
                for f in hm.enumerate_morphisms(x, y):
                    for g in hm.enumerate_morphisms(x, y):
                        assert hm.is_model(hm.pullback(f, g).structure, theory)


def test_carrier_sizes_match_set_limits(chain2, chain3):
    assert hm.product(chain2, chain3).structure.size() == 6
    f = hm.Morphism(chain2, chain2, {"c0": "c0", "c1": "c1"})
    g = hm.Morphism(chain2, chain2, {"c0": "c0", "c1": "c0"})
    pb = hm.pullback(f, g)
    assert pb.structure.size() == len(
        [(a, b) for a in chain2.carrier for b in chain2.carrier if f(a) == g(b)]
    )


@settings(max_examples=300, deadline=None)
@given(trust_structures("a"), trust_structures("b"))
def test_hom_search_against_the_naive_enumeration(x, y):
    expected = reference_enumerate_morphisms(x, y)
    got = hm.enumerate_morphisms(x, y)
    assert got == expected
    assert [list(m.mapping) for m in got] == [list(m.mapping) for m in expected]
    assert hm.hom_count(x, y) == len(expected)


def reference_hom_tuples(x, y):
    """The maps x -> y as image tuples over x's sorted carrier, by the product filter."""
    src = x.sorted_carrier()
    return reference_value_tuples(y, src, [y.sorted_carrier()] * len(src), x.edges)


@settings(max_examples=300, deadline=None)
@given(trust_structures("a"), trust_structures("b"))
def test_hom_tuples_against_the_product_filter(x, y):
    expected = reference_hom_tuples(x, y)
    assert _hom_tuples(x, y) == expected  # the same list in the same order
    assert _hom_tuples(x, y) == expected  # and again, through the kept plan


def test_a_hom_plan_is_built_once_per_source(monkeypatch):
    x, targets = hm.chain(3), [hm.chain(2), hm.chain(4)]
    assert not hasattr(x, "_plan")  # the constructor leaves the slot unset
    readers = []
    reader = semantics._reader
    monkeypatch.setattr(semantics, "_reader", lambda at: readers.append(at) or reader(at))
    got = [_hom_tuples(x, y) for y in targets]
    plan = x._plan
    assert [_hom_tuples(x, y) for y in targets] == got
    assert x._plan is plan and len(readers) == len(x.edges)  # one reader per edge, once
    assert got == [reference_hom_tuples(x, y) for y in targets]


def test_the_verifier_keeps_each_test_objects_plan(preord, chain2):
    family = hm.default_test_family(preord.signature, 2, theory=preord)
    exp = hm.exponential_object(chain2, chain2)
    assert hm.verify_exponential(chain2, chain2, exp, family).passed
    plans = [q._plan for q in family]
    assert hm.verify_exponential(chain2, chain2, exp, family).passed
    assert all(q._plan is plan for q, plan in zip(family, plans))


@settings(max_examples=300, deadline=None)
@given(trust_structures("a"), trust_structures("b"), st.data())
def test_pair_edges_against_the_nested_loop(x, y, data):
    pairs = [(a, b) for a in x.sorted_carrier() for b in y.sorted_carrier()]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    # all pairs, as in a product, and a subset, as in a pullback
    for chosen in (pairs, [p for p, k in zip(pairs, keep) if k]):
        order = data.draw(st.permutations(chosen))
        # labelled by rendered ids, as for a structure, and by positions, as for a plan
        for ids in (_pair_ids(chosen), {pair: i for i, pair in enumerate(order)}):
            # each side as x, so a symbol with fewer edges on one side runs the
            # loop over x's edges one way and over y's the other
            flipped = {(b, a): label for (a, b), label in ids.items()}
            for left, right, labels in ((x, y, ids), (y, x, flipped)):
                got = _pair_edges(TRUST_SIGNATURE, labels, left, right)
                reference = reference_pair_edges(TRUST_SIGNATURE, labels, left, right)
                # a join's list order is not a contract: a Structure files it by symbol;
                # each joined edge is a plain (symbol, labels) pair, not an Edge
                assert len(got) == len(reference)
                assert sorted(got) == sorted(map(tuple, reference))
                assert all(type(e) is tuple and type(e[1]) is tuple for e in got)


@settings(max_examples=300, deadline=None)
@given(trust_structures("a"), trust_structures("b"))
def test_product_against_the_combination_scan(x, y):
    pairs = [(a, b) for a in x.sorted_carrier() for b in y.sorted_carrier()]
    assert tuple(hm.product(x, y)) == reference_paired_structure(TRUST_SIGNATURE, pairs, x, y)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pullback_against_the_combination_scan(data):
    z = data.draw(trust_structures("c"))
    size = 0 if not z.carrier else 3
    x = data.draw(trust_structures("a", max_size=size))
    y = data.draw(trust_structures("b", max_size=size))
    points = st.sampled_from(z.sorted_carrier()) if z.carrier else st.nothing()
    f = hm.Morphism(x, z, {a: data.draw(points) for a in x.sorted_carrier()})
    g = hm.Morphism(y, z, {b: data.draw(points) for b in y.sorted_carrier()})
    pairs = [(a, b) for a in x.sorted_carrier() for b in y.sorted_carrier() if f(a) == g(b)]
    assert tuple(hm.pullback(f, g)) == reference_paired_structure(TRUST_SIGNATURE, pairs, x, y)
