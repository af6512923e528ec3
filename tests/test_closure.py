import itertools
import json

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import hornmod as hm
from hornmod import closure
from hornmod.closure import ExponentialResult, VerificationEntry, VerificationReport
from hornmod.families import all_models, all_structures, dedup_by_iso, edge_slots
from hornmod.limits import _pair_ids
from hornmod.serialize import parse_morphism, parse_structure, parse_theory

from conftest import (
    CORPUS,
    HORN_SIGNATURE,
    TRUST_SIGNATURE,
    count_chases,
    horn_theories,
    interp_fail_morphism,
    reference_hom_structure,
    reference_pair_edges,
    reference_partial_product_star,
    reference_value_tuples,
    reference_verify_partial_product,
)


def test_partial_product_str_counts(preord):
    x = hm.Structure(preord.signature, ["x0", "x1"], [])
    y = hm.Structure(preord.signature, ["y0", "y1"], [])
    pp = hm.partial_product_str(y, hm.bang(x))
    assert pp.structure.size() == 4  # functions from the 2-point fibre into y


def test_partial_product_str_terminal_object(preord, chain2):
    one = hm.terminal(preord.signature)
    f = interp_fail_morphism()
    pp = hm.partial_product_str(one, f)
    assert hm.are_isomorphic(pp.structure, f.target)


def test_partial_product_str_empty_domain(preord, chain3):
    empty = hm.Structure(preord.signature, [], [])
    f = hm.Morphism(empty, chain3, {})
    pp = hm.partial_product_str(chain3, f)
    assert hm.are_isomorphic(pp.structure, chain3)


def test_partial_product_refl_hom_count(chain2):
    pp = hm.partial_product_refl(chain2, hm.bang(chain2))
    assert pp.structure.size() == 3


def test_partial_product_refl_is_base_model(preord):
    base = hm.Theory(preord.signature, (), (), base_flag=True)
    models = [s for s in dedup_by_iso(all_structures(preord.signature, 2)) if hm.is_model(s, base)]
    for x in models[:4]:
        for z in models[:4]:
            for f in hm.enumerate_morphisms(x, z)[:3]:
                for y in models[:4]:
                    pp = hm.partial_product_refl(y, f)
                    assert hm.is_model(pp.structure, base)


def test_partial_product_refl_terminal_object(preord, chain3):
    one = hm.terminal(preord.signature)
    f = interp_fail_morphism()
    pp = hm.partial_product_refl(one, f)
    assert hm.are_isomorphic(pp.structure, f.target)


def test_partial_product_refl_rejects_non_models(preord, chain2):
    # with the message of partial_product over the base theory
    loopless = hm.Structure(preord.signature, ["a"], [])
    f = hm.Morphism(loopless, loopless, {"a": "a"})
    with pytest.raises(hm.StructureError,
                       match="^partial product source is not a model of the theory$"):
        hm.partial_product_refl(chain2, f)
    with pytest.raises(hm.StructureError,
                       match="^partial product object is not a model of the theory$"):
        hm.partial_product_refl(loopless, hm.bang(chain2))


def test_partial_product_refl_discrete_agrees_on_morphism_points(preord, chain2):
    # on a discrete signature the reflexive variant is the plain condition
    # restricted to edge-preserving points
    f = hm.bang(chain2)
    refl = hm.partial_product_refl(chain2, f)
    plain = hm.partial_product_str(chain2, f)
    kept = [pid for pid in plain.structure.carrier if pid in refl.structure.carrier]
    assert sorted(kept) == sorted(refl.structure.carrier)
    for e in refl.structure.edges:
        assert plain.structure.holds(e.symbol, e.args)


def test_exponential_of_chains_is_chain(chain2, chain3, preord):
    exp = hm.exponential_object(chain2, chain2)
    assert exp.structure.size() == 3
    assert hm.are_isomorphic(exp.structure, chain3)
    # order is constant-bottom <= identity <= constant-top
    bot = "[c0:c0,c1:c0]"
    ident = "[c0:c0,c1:c1]"
    top = "[c0:c1,c1:c1]"
    assert exp.structure.holds("le", (bot, ident))
    assert exp.structure.holds("le", (ident, top))
    assert not exp.structure.holds("le", (ident, bot))
    assert hm.is_model(exp.structure, preord)


def test_exponential_by_terminal(preord, chain2):
    one = hm.terminal(preord.signature)
    exp = hm.exponential_object(one, chain2)
    assert hm.are_isomorphic(exp.structure, chain2)
    exp2 = hm.exponential_object(chain2, one)
    assert hm.are_isomorphic(exp2.structure, one)


def test_internal_hom_examples(preord, chain2, chain3):
    one = hm.terminal(preord.signature)
    assert hm.are_isomorphic(hm.internal_hom(preord, one, chain2), chain2)
    hom = hm.internal_hom(preord, chain2, chain2)
    assert hm.are_isomorphic(hom, chain3)


def test_internal_hom_equals_exponential_for_transitive_theories(preord):
    models = all_models(preord, 2, cap=None)
    for x in models:
        for y in models:
            assert hm.internal_hom(preord, x, y) == hm.exponential_object(x, y).structure


def test_internal_hom_requires_models(preord, chain2):
    broken = hm.Structure(preord.signature, ["a"], [])
    with pytest.raises(hm.StructureError):
        hm.internal_hom(preord, broken, chain2)


@pytest.mark.parametrize("refused, error, message", [
    (lambda: hm.exponential_object(hm.chain(2), hm.Structure(hm.Signature(()), ["a"], [])),
     hm.SignatureError, "exponential needs a shared signature"),
    (lambda: hm.tensor(hm.preorder_theory(), hm.Structure(hm.chain(2).signature, ["a"], []),
                       hm.chain(2)),
     hm.StructureError, "tensor needs model endpoints"),
], ids=["exponential-signatures", "tensor-endpoints"])
def test_closed_structure_refuses_with_its_messages(refused, error, message):
    with pytest.raises(error) as info:
        refused()
    assert str(info.value) == message


def test_hom_points_reject_colliding_function_ids(preord):
    # {a: "p,b:q", b: "r"} and {a: "p", b: "q,b:r"} both render as [a:p,b:q,b:r].
    x = hm.Structure(preord.signature, ["a", "b"], [hm.edge("le", "a", "a"), hm.edge("le", "b", "b")])
    names = ["p,b:q", "r", "p", "q,b:r"]
    y = hm.Structure(preord.signature, names, [hm.edge("le", a, b) for a in names for b in names])
    assert len(hm.enumerate_morphisms(x, y)) == 16
    with pytest.raises(hm.StructureError):
        hm.exponential_object(x, y)
    with pytest.raises(hm.StructureError):
        hm.internal_hom(preord, x, y)


def test_tensor_unit_law(preord, chain2):
    unit = hm.tensor_unit(preord)
    assert unit.size() == 1 and hm.is_reflexive(unit)
    assert hm.are_isomorphic(hm.tensor(preord, chain2, unit), chain2)


def test_tensor_carrier_size(preord, chain2, chain3):
    assert hm.tensor(preord, chain2, chain3).size() == 6


def test_tensor_of_chains_saturates_to_product(preord, chain2):
    # axis edges close under transitivity to the componentwise order, so the
    # tensor and the cartesian product coincide here
    t = hm.tensor(preord, chain2, chain2)
    p = hm.product(chain2, chain2).structure
    assert t == p
    assert t.holds("le", ("(c0,c0)", "(c1,c1)"))
    assert t.holds("le", ("(c0,c0)", "(c1,c0)"))
    assert t.holds("le", ("(c1,c0)", "(c1,c1)"))
    assert not t.holds("le", ("(c0,c1)", "(c1,c0)"))
    assert not t.holds("le", ("(c1,c0)", "(c0,c1)"))


def test_tensor_rejects_colliding_pair_names(preord):
    # ("a,b", "c") and ("a", "b,c") both render as "(a,b,c)"
    def discrete(*points):
        return hm.Structure(preord.signature, points, [hm.edge("le", p, p) for p in points])

    with pytest.raises(hm.StructureError):
        hm.tensor(preord, discrete("a,b", "a"), discrete("c", "b,c"))


def test_tensor_matches_the_defining_seed_scan(preord):
    # the seed joins tuples of pairs constant in one coordinate and an edge in the other
    models = all_models(preord, 2, cap=None)
    for x in models:
        for y in models:
            pairs = [(a, b) for a in x.sorted_carrier() for b in y.sorted_carrier()]
            edges = [
                hm.Edge("le", tuple(hm.pair_id(*p) for p in combo))
                for combo in itertools.product(pairs, repeat=2)
                if (combo[0][0] == combo[1][0] and y.holds("le", (combo[0][1], combo[1][1])))
                or (combo[0][1] == combo[1][1] and x.holds("le", (combo[0][0], combo[1][0])))
            ]
            seed = hm.Structure(preord.signature, [hm.pair_id(*p) for p in pairs], edges)
            assert hm.tensor(preord, x, y) == hm.free_model(preord, seed).model


def test_verify_exponential_chain_family(preord, chain2):
    family = all_models(preord, 2, cap=None)
    exp = hm.exponential_object(chain2, chain2)
    report = hm.verify_exponential(chain2, chain2, exp, family)
    assert report.passed
    assert len(report.entries) == 5


def test_the_evaluation_domain_builds_no_edge_set():
    # P x_Z X is built, searched and compared by symbol; its Edge set is never read
    def load(name):
        return json.loads((CORPUS / name).read_text(encoding="utf-8"))

    theory = parse_theory(load("preord.theory.json"))
    chain2 = parse_structure(load("chain2.structure.json"))
    f = parse_morphism(load("interp-fail.morphism.json"))
    family = hm.default_test_family(theory.signature, 2, theory=theory)
    exp = hm.exponential_object(chain2, chain2)
    assert hm.verify_exponential(chain2, chain2, exp, family).passed
    pp = hm.partial_product_refl(chain2, f)
    assert hm.verify_partial_product(f, chain2, pp, family).passed
    assert exp.eval.source._edges is None and pp.eval.source._edges is None
    assert exp.eval.source.edges  # and is built when read


def test_verify_exponential_terminal_object_counts(preord, chain2):
    one = hm.terminal(preord.signature)
    exp = hm.exponential_object(chain2, chain2)
    report = hm.verify_exponential(chain2, chain2, exp, [one])
    assert report.passed
    # at the one-point test object the bijection reduces to |Hom(X, Y)| = |Y^X|
    assert report.entries[0].checked == hm.hom_count(chain2, chain2)


def test_verify_exponential_detects_corruption(preord, chain2):
    family = all_models(preord, 2, cap=None)
    exp = hm.exponential_object(chain2, chain2)
    pruned = hm.Structure(
        chain2.signature, exp.structure.carrier, sorted(exp.structure.edges)[:-1]
    )
    ev = hm.Morphism(hm.product(pruned, chain2).structure, chain2, dict(exp.eval.mapping))
    bad = ExponentialResult(pruned, ev, dict(exp.components))
    report = hm.verify_exponential(chain2, chain2, bad, family)
    assert not report.passed
    # the detail reaches `exponential --verify` stdout, so every entry is pinned;
    # a pruned edge loses maps Q -> C, so some map Q x X -> Y has no preimage;
    # `checked` counts the maps Q x X -> Y walked up to the first one
    assert [(e.checked, e.ok, e.detail) for e in report.entries] == [
        (1, True, ""),
        (3, False, "0 mediating morphisms for q={'e0': '*'}, "
                   "g={'(e0,c0)': 'c1', '(e0,c1)': 'c1'}"),
        (3, False, "0 mediating morphisms for q={'e0': '*', 'e1': '*'}, "
                   "g={'(e0,c0)': 'c0', '(e0,c1)': 'c0', '(e1,c0)': 'c1', '(e1,c1)': 'c1'}"),
        (3, False, "0 mediating morphisms for q={'e0': '*', 'e1': '*'}, "
                   "g={'(e0,c0)': 'c0', '(e0,c1)': 'c0', '(e1,c0)': 'c1', '(e1,c1)': 'c1'}"),
        (3, False, "0 mediating morphisms for q={'e0': '*', 'e1': '*'}, "
                   "g={'(e0,c0)': 'c1', '(e0,c1)': 'c1', '(e1,c0)': 'c1', '(e1,c1)': 'c1'}"),
    ]


def test_verify_exponential_detects_a_duplicated_point(preord, chain2):
    family = all_models(preord, 2, cap=None)
    exp = hm.exponential_object(chain2, chain2)
    c, twin = exp.structure, "[c0:c0,c1:c0]"
    assert twin == c.sorted_carrier()[0]

    def copies(args):  # every way of replacing the twin by its duplicate
        return itertools.product(*(((a, "dup") if a == twin else (a,)) for a in args))

    edges = [hm.Edge(e.symbol, args) for e in c.edges for args in copies(e.args)]
    doubled = hm.Structure(c.signature, c.carrier | {"dup"}, edges)
    ev = dict(exp.eval.mapping)
    ev.update({hm.pair_id("dup", b): ev[hm.pair_id(twin, b)] for b in chain2.carrier})
    bad = ExponentialResult(doubled, hm.Morphism(hm.product(doubled, chain2).structure,
                                                 chain2, ev))
    report = hm.verify_exponential(chain2, chain2, bad, family)
    assert not report.passed
    # both copies curry to the same map, so it is hit twice, and four times
    # from a two-point Q, one copy per point
    assert [(e.checked, e.ok, e.detail) for e in report.entries] == [
        (1, True, ""),
        (1, False, "2 mediating morphisms for q={'e0': '*'}, "
                   "g={'(e0,c0)': 'c0', '(e0,c1)': 'c0'}"),
        (1, False, "4 mediating morphisms for q={'e0': '*', 'e1': '*'}, "
                   "g={'(e0,c0)': 'c0', '(e0,c1)': 'c0', '(e1,c0)': 'c0', '(e1,c1)': 'c0'}"),
        (1, False, "4 mediating morphisms for q={'e0': '*', 'e1': '*'}, "
                   "g={'(e0,c0)': 'c0', '(e0,c1)': 'c0', '(e1,c0)': 'c0', '(e1,c1)': 'c0'}"),
        (1, False, "4 mediating morphisms for q={'e0': '*', 'e1': '*'}, "
                   "g={'(e0,c0)': 'c0', '(e0,c1)': 'c0', '(e1,c0)': 'c0', '(e1,c1)': 'c0'}"),
    ]


def test_verify_exponential_rejects_an_extra_edge_at_evaluation(preord, chain2):
    # A transpose is eval . (h x X), a composite of morphisms once eval is checked,
    # so an edge that breaks currying is caught as a broken evaluation map (the
    # anchor C -> 1 is always a morphism).
    exp = hm.exponential_object(chain2, chain2)
    extra = exp.structure.with_edges([hm.edge("le", "[c0:c1,c1:c1]", "[c0:c0,c1:c0]")])
    ev = hm.Morphism(hm.product(extra, chain2).structure, chain2, dict(exp.eval.mapping))
    report = hm.verify_exponential(chain2, chain2, ExponentialResult(extra, ev), [chain2])
    assert [(e.checked, e.ok, e.detail) for e in report.entries] == [
        (0, False, "anchor or evaluation is invalid")]


def retargeted(ev, target):
    """``ev`` into ``target``, with every value ``c1`` sent to ``c2``."""
    return hm.Morphism(ev.source, target,
                       {k: "c2" if v == "c1" else v for k, v in ev.mapping.items()})


def test_verifiers_reject_an_evaluation_into_another_codomain(preord, chain2, chain3):
    # eval into chain3 is still a morphism; the verifiers used to raise a bare
    # KeyError (exponential) or count 0 mediating maps (partial product) for it
    family = all_models(preord, 2, cap=None)
    exp = hm.exponential_object(chain2, chain2)
    bad = ExponentialResult(exp.structure, retargeted(exp.eval, chain3))
    assert hm.validate_morphism(bad.eval)
    report = hm.verify_exponential(chain2, chain2, bad, family)
    assert [(e.checked, e.ok, e.detail) for e in report.entries] == [
        (0, False, "evaluation codomain is not Y")]
    f = hm.bang(chain2)
    pp = hm.partial_product_str(chain2, f)
    bad_pp = hm.PartialProductResult(pp.structure, pp.p, retargeted(pp.eval, chain3),
                                     pp.variant, dict(pp.components))
    assert hm.validate_morphism(bad_pp.eval)
    report = hm.verify_partial_product(f, chain2, bad_pp, family)
    assert [(e.checked, e.ok, e.detail) for e in report.entries] == [
        (0, False, "evaluation codomain is not Y")]


def with_new_point(y):
    """``y`` with one more point, ``new``, on no edge."""
    return hm.Structure(y.signature, y.carrier | {"new"}, y.edges)


def test_verify_partial_product_small_exhaustive(preord):
    structures = dedup_by_iso(all_structures(preord.signature, 2))[:6]
    family = structures
    for x in structures:
        for z in structures:
            for f in hm.enumerate_morphisms(x, z)[:2]:
                for y in structures[:3]:
                    pp = hm.partial_product_str(y, f)
                    assert hm.verify_partial_product(f, y, pp, family).passed


def test_verify_partial_product_point_recovers_carrier(preord, chain2):
    f = interp_fail_morphism()
    pp = hm.partial_product_str(chain2, f)
    one = hm.terminal(preord.signature)
    report = hm.verify_partial_product(f, chain2, pp, [one])
    assert report.passed
    # cones from the point biject with the carrier of P over each anchor value
    assert report.entries[0].checked == sum(
        1
        for q in hm.enumerate_morphisms(one, f.target)
        for _ in hm.enumerate_morphisms(hm.pullback(q, f).structure, chain2)
    )


def test_verify_partial_product_detects_corruption(preord, chain2):
    f = interp_fail_morphism()
    pp = hm.partial_product_str(chain2, f)
    pruned_struct = hm.Structure(
        chain2.signature, pp.structure.carrier, sorted(pp.structure.edges)[:-1]
    )
    p = hm.Morphism(pruned_struct, f.target, dict(pp.p.mapping))
    pb = hm.pullback(p, f)
    ev = hm.Morphism(pb.structure, chain2, dict(pp.eval.mapping))
    bad = hm.PartialProductResult(pruned_struct, p, ev, pp.variant, dict(pp.components))
    family = dedup_by_iso(all_structures(preord.signature, 2))
    report = hm.verify_partial_product(f, chain2, bad, family)
    assert not report.passed
    witness = [e for e in report.entries if not e.ok]
    assert report.entries.index(witness[0]) == 2
    assert (witness[0].checked, witness[0].ok, witness[0].detail) == (
        5, False, "0 mediating morphisms for q={'e0': 'c2'}, g={'(e0,c)': 'c1'}")


PREORDER_SIGNATURE = hm.preorder_theory().signature
SMALL_STRUCTURES = all_structures(PREORDER_SIGNATURE, 2, cap=None)
SMALL_BASE_MODELS = [s for s in SMALL_STRUCTURES
                     if hm.is_model(s, hm.Theory(PREORDER_SIGNATURE, (), (), base_flag=True))]


def duplicated(struct, twin):
    """``struct`` with a new point ``dup`` that copies every edge through ``twin``."""
    edges = [hm.Edge(e.symbol, args) for e in struct.edges for args in
             itertools.product(*(((a, "dup") if a == twin else (a,)) for a in e.args))]
    return hm.Structure(struct.signature, struct.carrier | {"dup"}, edges)


@st.composite
def partial_product_candidates(draw):
    """f : X -> Z, Y, a partial product of either variant, possibly corrupted, and a family.

    A corruption drops an edge of P, adds an edge to P, adds a missing edge to P
    but keeps the old evaluation map on the old P x_Z X, duplicates a point of P
    with its edges, anchor and evaluation row, drops a point of P with the same,
    moves one value of the evaluation map, or keeps the evaluation map but into
    Y with a new point; the anchor keeps its mapping, and a duplicate lies over
    its twin's anchor.  A dropped point keeps the tables distinct, so only the
    counts can tell; a duplicate makes two tables collide.
    """
    variant = draw(st.sampled_from(["str", "refl"]))
    pool = SMALL_STRUCTURES if variant == "str" else SMALL_BASE_MODELS
    x, z, y = (draw(st.sampled_from(pool)) for _ in range(3))
    homs = hm.enumerate_morphisms(x, z)
    assume(homs)
    f = draw(st.sampled_from(homs))
    pp = (hm.partial_product_str if variant == "str" else hm.partial_product_refl)(y, f)
    struct, anchor, eval_map = pp.structure, dict(pp.p.mapping), dict(pp.eval.mapping)
    corruption = draw(st.sampled_from(["none", "drop-edge", "add-edge", "stale-domain",
                                       "duplicate", "drop-point", "eval-value",
                                       "wrong-codomain"]))
    ids = struct.sorted_carrier()
    missing = [hm.edge("le", a, b) for a in ids for b in ids if not struct.holds("le", (a, b))]
    if corruption == "drop-edge" and struct.edges:
        dropped = draw(st.sampled_from(struct.sorted_edges()))
        struct = hm.Structure(struct.signature, ids, struct.edges - {dropped})
    elif corruption == "add-edge" and ids:
        struct = struct.with_edges([hm.edge("le", draw(st.sampled_from(ids)),
                                            draw(st.sampled_from(ids)))])
    elif corruption == "stale-domain" and missing:
        struct = struct.with_edges([draw(st.sampled_from(missing))])
    elif corruption == "duplicate" and ids:
        twin = draw(st.sampled_from(ids))
        struct, anchor = duplicated(struct, twin), {**anchor, "dup": anchor[twin]}
        eval_map.update({hm.pair_id("dup", a): eval_map[hm.pair_id(twin, a)]
                         for a in x.carrier if f(a) == anchor[twin]})
    elif corruption == "drop-point" and ids:
        dropped = draw(st.sampled_from(ids))
        struct = struct.induced(set(ids) - {dropped})
        for a in x.carrier:
            if f(a) == anchor[dropped]:
                del eval_map[hm.pair_id(dropped, a)]
        del anchor[dropped]
    elif corruption == "eval-value" and eval_map:
        eval_map[draw(st.sampled_from(sorted(eval_map)))] = draw(
            st.sampled_from(y.sorted_carrier()))
    p = hm.Morphism(struct, z, anchor)
    ev = pp.eval if corruption == "stale-domain" else hm.Morphism(
        hm.pullback(p, f).structure,
        with_new_point(y) if corruption == "wrong-codomain" else y, eval_map)
    candidate = hm.PartialProductResult(struct, p, ev, pp.variant, dict(pp.components))
    family = draw(st.lists(st.sampled_from(dedup_by_iso(SMALL_STRUCTURES)),
                           min_size=1, max_size=3))
    return f, y, candidate, family


@settings(max_examples=200, deadline=None)
@given(partial_product_candidates())
def test_verify_partial_product_matches_reference(case):
    assert hm.verify_partial_product(*case) == reference_verify_partial_product(*case)


@pytest.mark.parametrize("extra", [("[c0:c0,c1:c1]@*", "[c0:c0,c1:c0]@*"),
                                   ("[c0:c1,c1:c1]@*", "[c0:c0,c1:c0]@*"),
                                   ("[c0:c1,c1:c1]@*", "[c0:c0,c1:c1]@*")])
def test_verify_partial_product_rejects_a_stale_evaluation_domain(pos, chain2, extra):
    # P gains an edge while eval keeps the old P x_Z X as its source, so eval is
    # not a morphism on the new P x_Z X; every count over the 2-point posets
    # still comes out 1, so only the domain check rejects it
    f = hm.bang(chain2)
    pp = hm.partial_product_refl(chain2, f)
    grown = pp.structure.with_edges([hm.edge("le", *extra)])
    assert grown != pp.structure
    p = hm.Morphism(grown, f.target, dict(pp.p.mapping))
    bad = hm.PartialProductResult(grown, p, pp.eval, pp.variant, dict(pp.components))
    family = all_models(pos, 2, cap=None)
    report = hm.verify_partial_product(f, chain2, bad, family)
    assert report == reference_verify_partial_product(f, chain2, bad, family)
    assert report == VerificationReport(
        False, (VerificationEntry(grown, 0, False, "evaluation domain is not P x_Z X"),))


def test_verify_partial_product_rejects_an_anchor_into_another_codomain(chain2):
    f = interp_fail_morphism()
    pp = hm.partial_product_str(chain2, f)
    wider = f.target.with_edges([hm.edge("le", "c2", "c0")])
    p = hm.Morphism(pp.structure, wider, dict(pp.p.mapping))
    bad = hm.PartialProductResult(pp.structure, p, pp.eval, pp.variant, dict(pp.components))
    report = hm.verify_partial_product(f, chain2, bad, [chain2])
    assert report == reference_verify_partial_product(f, chain2, bad, [chain2])
    assert [(e.checked, e.ok, e.detail) for e in report.entries] == [
        (0, False, "evaluation domain is not P x_Z X")]


def test_an_unreached_duplicate_makes_the_check_walk_and_pass(preord, chain2, monkeypatch):
    # z1 has no loop, so a Q with a loop on its one point maps only to z0; a
    # duplicate over z1 makes two tables collide, so the counts cannot decide
    # and the targets are walked, but no q reaches the duplicate
    sig = preord.signature
    z = hm.Structure(sig, ["z0", "z1"], [hm.edge("le", "z0", "z0")])
    f = hm.Morphism(hm.Structure(sig, ["a0", "a1"], []), z, {"a0": "z0", "a1": "z1"})
    pp = hm.partial_product_str(chain2, f)
    twin = "[a1:c0]@z1"
    struct = duplicated(pp.structure, twin)
    p = hm.Morphism(struct, z, {**pp.p.mapping, "dup": "z1"})
    ev = hm.Morphism(hm.pullback(p, f).structure, chain2,
                     {**pp.eval.mapping, hm.pair_id("dup", "a1"): pp.eval(hm.pair_id(twin, "a1"))})
    dup = hm.PartialProductResult(struct, p, ev, pp.variant, dict(pp.components))
    family = [hm.Structure(sig, ["q"], [hm.edge("le", "q", "q")])]
    walks = []
    transposer = closure._transposer
    monkeypatch.setattr(closure, "_transposer", lambda *a: walks.append(a) or transposer(*a))
    assert hm.verify_partial_product(f, chain2, pp, family) == VerificationReport(
        True, (VerificationEntry(family[0], 2, True),))
    assert not walks  # distinct tables and equal counts decide it
    report = hm.verify_partial_product(f, chain2, dup, family)
    assert report == reference_verify_partial_product(f, chain2, dup, family)
    assert report == VerificationReport(True, (VerificationEntry(family[0], 2, True),))
    assert len(walks) == 1  # the one q : Q -> Z was walked
    # a Q on no edge reaches z1, where the duplicate is a second mediating map
    loose = [hm.Structure(sig, ["q"], [])]
    report = hm.verify_partial_product(f, chain2, dup, loose)
    assert report == reference_verify_partial_product(f, chain2, dup, loose)
    assert not report.passed


# Explicitly ordered, and no complete lattice, so no base axiom makes a symbol full.
ORDERED_SIGNATURE = hm.Signature(
    tuple(hm.RelationSymbol(n, a) for n, a in (("P", 1), ("R", 2), ("S", 2), ("U", 2))),
    order_kind=hm.EXPLICIT, order_pairs=(("R", "S"), ("R", "U")))
# The tables {a0: "p,a1:p", a1: "p"} and {a0: "p", a1: "p,a1:p"} both render as
# [a0:p,a1:p,a1:p], so maps into these names can collide as points.
COLLIDING_NAMES = ("p", "p,a1:p", "q")


@st.composite
def structures_on(draw, sig, names, dense=st.booleans(), min_size=0):
    """A random structure over ``sig`` on a prefix of ``names``, of at least
    ``min_size`` points: a few edges, or all but a few when ``dense`` draws true."""
    carrier = names[:draw(st.integers(min_size, len(names)))]
    slots = edge_slots(sig, carrier)
    edges = draw(st.sets(st.sampled_from(slots))) if slots else set()
    return hm.Structure(sig, carrier, set(slots) - edges if draw(dense) else edges)


def function_space_objects(sig, max_size=3):
    """Y on 1 to ``max_size`` points, on plain names or on names whose function ids
    can collide; mostly dense, so that many maps land in it.  An empty Y is an
    explicit example."""
    return st.sampled_from([("b0", "b1", "b2"), COLLIDING_NAMES]).flatmap(
        lambda names: structures_on(sig, names[:max_size], st.integers(0, 2).map(bool),
                                    min_size=1))


def or_error(build, *args):
    """The result of ``build``, or the message of the ``StructureError`` it raises."""
    try:
        return build(*args)
    except hm.StructureError as exc:
        return str(exc)


def function_space(x, y, diagonal):
    if diagonal:
        return hm.internal_hom(hm.Theory(x.signature, (), (), base_flag=False), x, y)
    exp = hm.exponential_object(x, y)
    return exp.structure, exp.components, exp.eval


def reference_function_space(x, y, diagonal):
    tuples = {s.name: [(a,) * s.arity for a in x.carrier] if diagonal else x.tuples(s.name)
              for s in x.signature.symbols}
    struct, points = reference_hom_structure(x, y, tuples)
    if diagonal:
        return struct
    eval_map = {hm.pair_id(pid, a): points[pid][a] for pid in points for a in x.carrier}
    return struct, points, hm.Morphism(hm.product(struct, x).structure, y, eval_map)


EMPTY = hm.Structure(TRUST_SIGNATURE, [], [])
LOOPED_X = hm.Structure(TRUST_SIGNATURE, ["a0", "a1"], [hm.edge("R", "a0", "a0"),
                                                        hm.edge("P", "a1")])


@st.composite
def function_space_inputs(draw):
    """X and Y, each on 1-3 points, but a 3-point X only against a Y of at most 2:
    with 3 points each, Y^X can have 27 points, and T/3 gives the reference 27^3
    triples to scan, seconds per draw; a 2-point X into the same Y takes
    milliseconds."""
    x = draw(structures_on(TRUST_SIGNATURE, ("a0", "a1", "a2"), min_size=1))
    return x, draw(function_space_objects(TRUST_SIGNATURE, 2 if len(x.carrier) == 3 else 3))


PR_SIGNATURE = hm.Signature((hm.RelationSymbol("P", 1), hm.RelationSymbol("R", 2)))
# 3 points each over {P/1, R/2}: 12 of the 27 maps X -> Y preserve the edges
X3 = hm.Structure(PR_SIGNATURE, ["a0", "a1", "a2"], [hm.edge("R", "a0", "a1"),
                                                     hm.edge("R", "a1", "a1"), hm.edge("P", "a2")])
Y3 = hm.Structure(PR_SIGNATURE, ["b0", "b1", "b2"], [
    hm.edge("R", f"b{i}", f"b{j}") for i, j in ("00", "01", "11", "12", "22", "20")]
    + [hm.edge("P", "b0"), hm.edge("P", "b2")])


# X and Y are drawn non-empty; the empty ones, where the function space is one
# point or none, are the explicit examples.
@settings(max_examples=300, deadline=None)
@given(function_space_inputs(), st.booleans())
@example((hm.Structure(TRUST_SIGNATURE, ["a0", "a1"], []),
          hm.Structure(TRUST_SIGNATURE, COLLIDING_NAMES[:2], [])), False)
@example((EMPTY, hm.Structure(TRUST_SIGNATURE, ["b0"], [hm.edge("P", "b0")])), False)
@example((EMPTY, EMPTY), True)
@example((LOOPED_X, EMPTY), False)
@example((LOOPED_X, EMPTY), True)
@example((X3, Y3), False)
@example((X3, Y3), True)
def test_exponential_and_internal_hom_match_reference(inputs, diagonal):
    x, y = inputs
    assert or_error(function_space, x, y, diagonal) == or_error(
        reference_function_space, x, y, diagonal)


def base_model(sig, carrier, edges):
    base = hm.Theory(sig, (), (), base_flag=True)
    return hm.free_model(base, hm.Structure(sig, carrier, edges)).model


@st.composite
def partial_product_inputs(draw):
    """Y and a random map f : X -> Z; for ``refl`` over either signature, on base models."""
    reflexive = draw(st.booleans())
    sig = draw(st.sampled_from([TRUST_SIGNATURE, ORDERED_SIGNATURE])) if reflexive \
        else TRUST_SIGNATURE
    x = draw(structures_on(sig, ("a0", "a1", "a2"), min_size=1))
    z = draw(structures_on(sig, ("c0", "c1", "c2"), min_size=1))
    y = draw(function_space_objects(sig))
    if reflexive:
        x, z, y = (base_model(sig, s.carrier, s.edges) for s in (x, z, y))
    images = st.sampled_from(z.sorted_carrier())
    f = hm.Morphism(x, z, {a: draw(images) for a in x.sorted_carrier()})
    return y, f, reflexive


def partial_product(y, f, reflexive):
    pp = (hm.partial_product_refl if reflexive else hm.partial_product_str)(y, f)
    return pp, pp.components  # the dataclass compares without its components


def reference_partial_product_with_components(y, f, reflexive):
    """P* over the empty or the base theory by the brute-force reference, anchored
    and evaluated on the public pullback."""
    theory = hm.Theory(f.source.signature, base_flag=reflexive)
    struct, points = reference_partial_product_star(theory, y, f)
    p = hm.Morphism(struct, f.target, {pid: c for pid, (_, c) in points.items()})
    ev = hm.Morphism(hm.pullback(p, f).structure, y, {
        hm.pair_id(pid, a): b for pid, (table, _) in points.items() for a, b in table.items()})
    return hm.PartialProductResult(struct, p, ev, "refl" if reflexive else "str"), points


# An S-edge of the refl partial product needs R(b0, b2) here, from R <= S and
# R(a0, a1); an S-only condition would keep it.
BELOW_S = (
    base_model(ORDERED_SIGNATURE, ["b0", "b1", "b2"],
               [hm.edge(s, *pair) for s in "RS" for pair in (("b0", "b1"), ("b1", "b2"))]),
    hm.bang(base_model(ORDERED_SIGNATURE, ["a0", "a1"], [hm.edge("R", "a0", "a1")])),
    True)


@settings(max_examples=300, deadline=None)
@given(partial_product_inputs())
@example((hm.Structure(TRUST_SIGNATURE, COLLIDING_NAMES[:2], []),
          hm.bang(hm.Structure(TRUST_SIGNATURE, ["a0", "a1"], [])), False))
@example(BELOW_S)
# X and Y are drawn non-empty, so the empty ones are examples: an empty X over
# an empty Z (P* is empty), and an empty Y (no point over a non-empty fibre).
@example((hm.Structure(TRUST_SIGNATURE, ["b0"], []),
          hm.Morphism(EMPTY, EMPTY, {}), False))
@example((base_model(TRUST_SIGNATURE, ["b0"], []),
          hm.Morphism(EMPTY, EMPTY, {}), True))
@example((EMPTY, hm.Morphism(LOOPED_X, hm.Structure(TRUST_SIGNATURE, ["c0", "c1"], [
    hm.edge("R", "c0", "c0"), hm.edge("P", "c1")]), {"a0": "c0", "a1": "c1"}), False))
@example((EMPTY, hm.Morphism(
    base_model(TRUST_SIGNATURE, ["a0"], []), base_model(TRUST_SIGNATURE, ["c0", "c1"], []),
    {"a0": "c1"}), True))
def test_partial_products_match_reference(case):
    y, f, reflexive = case
    assert or_error(partial_product, y, f, reflexive) == or_error(
        reference_partial_product_with_components, y, f, reflexive)


@st.composite
def theory_partial_product_inputs(draw):
    """A random Horn theory over ``{P/1, R/2}``, equality axioms included, with
    Y and a map f : X -> Z between free models of random structures."""
    theory = draw(horn_theories())

    def model(names):
        seed = draw(structures_on(HORN_SIGNATURE, names, min_size=1))
        return hm.free_model(theory, seed).model

    x, z, y = model(("a0", "a1")), model(("c0", "c1")), model(("b0", "b1", "b2"))
    homs = hm.enumerate_morphisms(x, z)
    assume(homs)
    return theory, y, draw(st.sampled_from(homs))


@settings(max_examples=200, deadline=None)
@given(theory_partial_product_inputs())
def test_partial_product_matches_brute_force_reference(case):
    theory, y, f = case
    pp = hm.partial_product(theory, y, f)
    assert (pp.structure, pp.components) == reference_partial_product_star(theory, y, f)
    # P* is the partial product exactly when it is a model
    if hm.is_model(pp.structure, theory):
        assert hm.verify_partial_product(f, y, pp, all_models(theory, 1)).passed


def test_partial_product_rejects_non_models(preord, chain2):
    loopless = hm.Structure(preord.signature, ["a"], [])
    with pytest.raises(hm.StructureError, match="partial product object is not a model"):
        hm.partial_product(preord, loopless, hm.bang(chain2))


@pytest.mark.parametrize("build", [
    lambda y, f: hm.partial_product(hm.Theory(f.source.signature, (), (), base_flag=True), y, f),
    hm.partial_product_str, hm.partial_product_refl,
], ids=["partial_product", "str", "refl"])
def test_partial_products_check_the_shared_signature_first(chain2, build):
    # A Y over another signature is reported as such, not as a structure over
    # another signature than the theory's.
    y = hm.Structure(TRUST_SIGNATURE, ["b0"], [])
    with pytest.raises(hm.SignatureError, match="^partial product needs a shared signature$"):
        build(y, hm.bang(chain2))


# Explicitly ordered, lo <= hi with ot incomparable: no complete lattice, so
# the base theory is reflexivity and hi => lo.
LO_HI = hm.Signature(tuple(hm.RelationSymbol(n, 2) for n in ("hi", "lo", "ot")),
                     order_kind=hm.EXPLICIT, order_pairs=(("lo", "hi"),))


def lo_hi_structure(carrier, edges):
    loops = [hm.edge(s, a, a) for s in ("hi", "lo", "ot") for a in carrier]
    return hm.Structure(LO_HI, carrier, loops + [hm.edge(*e) for e in edges])


def test_exponential_over_an_ordered_signature_is_a_base_model():
    # An hi-edge of Y^X must also send lo(a, b) to a lo-edge: joined on the
    # hi-edges of X alone, [a:p,b:s] and [a:q,b:r] would be hi- but not
    # lo-related, since lo(p, r) fails, which breaks hi => lo.
    base = hm.Theory(LO_HI, (), (), base_flag=True)
    x = lo_hi_structure("ab", [("lo", "a", "b")])
    y = lo_hi_structure("pqrs", [(s, a, b) for s in ("hi", "lo") for a, b in ("pq", "sr")]
                        + [("lo", "p", "s"), ("lo", "q", "r")])
    exp = hm.exponential_object(x, y)
    assert hm.is_model(exp.structure, base)
    assert len(exp.structure.edges) == 42
    assert not exp.structure.holds("hi", ("[a:p,b:s]", "[a:q,b:r]"))
    assert hm.verify_exponential(x, y, exp, all_models(base, 2, cap=None)).passed
    pp = hm.partial_product_refl(y, hm.bang(x)).structure
    name = {pid: pid.removesuffix("@*") for pid in pp.carrier}
    assert exp.structure == hm.Structure(
        LO_HI, name.values(), [hm.Edge(s, tuple(map(name.get, args))) for s, args in pp.edges])


def test_a_map_that_is_exponentiable_but_not_convex():
    # The theory is not reflexive, so convexity is not necessary here: P* is a
    # model, and the partial product, for every Y on at most 3 points.
    le = hm.Signature((hm.RelationSymbol("le", 2),))
    theory = hm.Theory(le, (hm.horn([hm.edge("le", "x", "y")], hm.edge("le", "x", "x")),), (),
                       base_flag=False)
    x = hm.Structure(le, ["e0"], [hm.edge("le", "e0", "e0")])
    z = hm.Structure(le, ["e0", "e1"], [hm.edge("le", "e0", "e0"), hm.edge("le", "e0", "e1")])
    f = hm.Morphism(x, z, {"e0": "e0"})
    assert not hm.is_convex(f, theory)
    assert not hm.is_convex_via_lifting(f, theory)
    ys, family = all_models(theory, 3), all_models(theory, 2)
    assert len(ys) == 39
    for y in ys:
        pp = hm.partial_product(theory, y, f)
        assert hm.is_model(pp.structure, theory)
        assert hm.verify_partial_product(f, y, pp, family).passed


def test_currying_naturality(preord, chain2):
    # transposition commutes with precomposition along Q' -> Q
    exp = hm.exponential_object(chain2, chain2)
    c = exp.structure
    ev = exp.eval.mapping
    family = all_models(preord, 2, cap=None)
    q = family[3]
    for q_prime in family[:4]:
        for r in hm.enumerate_morphisms(q_prime, q):
            for h in hm.enumerate_morphisms(q, c):
                direct = {
                    hm.pair_id(a, b): ev[hm.pair_id(hm.compose(h, r)(a), b)]
                    for a in q_prime.carrier
                    for b in chain2.carrier
                }
                via_q = {
                    hm.pair_id(a, b): ev[hm.pair_id(h(r(a)), b)]
                    for a in q_prime.carrier
                    for b in chain2.carrier
                }
                assert direct == via_q


PREORDERS = all_models(hm.preorder_theory(), 3, cap=None)
SMALL_PREORDERS = all_models(hm.preorder_theory(), 2, cap=None)


@st.composite
def exponential_candidates(draw):
    """X, Y, an exponential candidate, possibly corrupted, and a family of Q.

    X and Y are preorders on up to 3 points, or random structures over
    ``{P/1, R/2, T/3}`` with X on up to 2 points and Y on up to 3 (a ternary
    symbol on 27 maps would give C x X half a million edges); each Q has up
    to 2 points.  A corruption drops an edge of C, adds an edge to C (eval on
    the new C x X, or kept on the old one), duplicates a point of C with its
    edges and eval row, drops a point of C with the same, moves one value of
    eval, or keeps eval but into Y with a new point.
    """
    if draw(st.booleans()):
        x, y = draw(st.sampled_from(PREORDERS)), draw(st.sampled_from(PREORDERS))
        objects = st.sampled_from(SMALL_PREORDERS)
    else:
        x = draw(structures_on(TRUST_SIGNATURE, ("a0", "a1")))
        y = draw(structures_on(TRUST_SIGNATURE, ("b0", "b1", "b2"), st.integers(0, 2).map(bool)))
        objects = structures_on(TRUST_SIGNATURE, ("q0", "q1"))
    exp = hm.exponential_object(x, y)
    c, ev = exp.structure, dict(exp.eval.mapping)
    ids = c.sorted_carrier()
    corruption = draw(st.sampled_from(["none", "drop-edge", "add-edge", "stale-domain",
                                       "duplicate", "drop-point", "eval-value",
                                       "wrong-codomain"]))
    if corruption == "drop-edge" and c.edges:
        c = hm.Structure(c.signature, ids, c.edges - {draw(st.sampled_from(c.sorted_edges()))})
    elif corruption == "add-edge" and ids:
        s = draw(st.sampled_from(c.signature.symbols))
        c = c.with_edges([hm.Edge(s.name, tuple(draw(st.sampled_from(ids)) for _ in range(s.arity)))])
    elif corruption == "stale-domain":
        # an added edge changes C x X only through a symbol that X has edges of
        missing = [hm.Edge(s.name, args) for s in c.signature.symbols if x.tuples(s.name)
                   for args in itertools.product(ids, repeat=s.arity) if not c.holds(s.name, args)]
        if missing:
            c = c.with_edges([draw(st.sampled_from(missing))])
    elif corruption == "duplicate" and ids:
        twin = draw(st.sampled_from(ids))
        c = duplicated(c, twin)
        ev.update({hm.pair_id("dup", b): ev[hm.pair_id(twin, b)] for b in x.carrier})
    elif corruption == "drop-point" and ids:
        dropped = draw(st.sampled_from(ids))
        c = c.induced(set(ids) - {dropped})
        for b in x.carrier:
            del ev[hm.pair_id(dropped, b)]
    elif corruption == "eval-value" and ev:
        ev[draw(st.sampled_from(sorted(ev)))] = draw(st.sampled_from(y.sorted_carrier()))
    domain = exp.eval.source if corruption == "stale-domain" else hm.product(c, x).structure
    codomain = with_new_point(y) if corruption == "wrong-codomain" else y
    family = draw(st.lists(objects, min_size=1, max_size=3))
    return x, y, ExponentialResult(c, hm.Morphism(domain, codomain, ev)), family


def along_bang(candidate):
    """An exponential candidate C as a partial product along X -> 1, anchored by C -> 1."""
    return hm.PartialProductResult(candidate.structure, hm.bang(candidate.structure),
                                   candidate.eval, "refl")


def assert_verify_exponential_matches_reference(x, y, candidate, family):
    # The report is the partial-product check's along X -> 1, word for word.
    assert hm.verify_exponential(x, y, candidate, family) == reference_verify_partial_product(
        hm.bang(x), y, along_bang(candidate), family)


@settings(max_examples=200, deadline=None)
@given(exponential_candidates())
def test_verify_exponential_matches_reference(case):
    assert_verify_exponential_matches_reference(*case)


def test_verify_exponential_matches_reference_on_an_added_edge():
    # Built when run, so that a builder fault fails this test and not collection.
    chain2 = hm.chain(2)
    exp = hm.exponential_object(chain2, chain2)
    added = exp.structure.with_edges([hm.edge("le", "[c0:c1,c1:c1]", "[c0:c0,c1:c0]")])
    assert_verify_exponential_matches_reference(  # eval on the old C x X
        chain2, chain2, ExponentialResult(added, exp.eval), [chain2])


def or_hornmod_error(verify, *args):
    """The report of ``verify``, or the type and message of the ``HornmodError`` it raises."""
    try:
        return verify(*args)
    except hm.HornmodError as exc:
        return type(exc).__name__, str(exc)


def test_verifiers_raise_as_their_references(preord):
    # ("p,q", "r") and ("p", "q,r") both render as "(p,q,r)"
    x = hm.Structure(TRUST_SIGNATURE, ["r", "q,r"], [])
    y = hm.Structure(TRUST_SIGNATURE, ["b0"], [])
    clash = hm.Structure(TRUST_SIGNATURE, ["p", "p,q"], [])
    other = hm.Structure(preord.signature, ["b0"], [])
    collision = ("StructureError", "carrier names collide under pair rendering")
    hom_signatures = ("SignatureError", "hom-set needs a shared signature")
    exp, f = hm.exponential_object(x, y), hm.bang(x)
    pp = hm.partial_product_str(y, f)
    # a C over another signature has no map into X's terminal structure, so the
    # evaluation domain is rejected as for a partial product
    other_c = ExponentialResult(other, exp.eval)
    other_domain = VerificationReport(False, (
        VerificationEntry(other, 0, False, "evaluation domain is not P x_Z X"),))
    for candidate, family, outcome in [
        (exp, [y, clash], collision),  # in Q x X
        (ExponentialResult(clash, exp.eval), [y], collision),  # in C x X
        (other_c, [y], other_domain),
        (exp, [other], hom_signatures),  # Q against 1
    ]:
        assert or_hornmod_error(hm.verify_exponential, x, y, candidate, family) == outcome
        assert or_hornmod_error(reference_verify_partial_product,
                                f, y, along_bang(candidate), family) == outcome
    for family, error in [([clash], collision),  # in Q x_Z X
                          ([other], hom_signatures)]:  # Q against Y
        assert or_hornmod_error(hm.verify_partial_product, f, y, pp, family) == error
        assert or_hornmod_error(reference_verify_partial_product, f, y, pp, family) == error


# The verifier counts and walks the targets g : Q x_Z X -> Y over the edge join
# at pair positions; the brute-force reference renders the pairs, joins them in
# a nested loop and filters the product of the domains.
# ("p,q", "r") and ("p", "q,r") both render as "(p,q,r)".
JOIN_NAMES = [(("a0", "a1", "a2"), ("b0", "b1", "b2")), (("p", "p,q", "a2"), ("r", "q,r", "b2"))]


@st.composite
def joins(draw):
    """Q and X over {P/1, R/2}, possibly on names whose pair ids collide, some of
    the pairs of Q x X in a drawn order, and Y."""
    q_names, x_names = draw(st.sampled_from(JOIN_NAMES))
    q, x = (draw(structures_on(PR_SIGNATURE, names, min_size=1)) for names in (q_names, x_names))
    product = [(a, b) for a in q.sorted_carrier() for b in x.sorted_carrier()]
    pairs = draw(st.lists(st.sampled_from(product), min_size=1, max_size=6, unique=True))
    return q, x, pairs, draw(structures_on(PR_SIGNATURE, ("c0", "c1", "c2"), min_size=1))


def reference_targets(q, x, pairs, y):
    """The maps into y of Q and X joined over ``pairs``, over the sorted pair ids,
    with neither ``_pair_edges`` nor the search kernel."""
    ids = _pair_ids(pairs)  # raises as the verifier does when two ids collide
    names = sorted(ids.values())
    edges = reference_pair_edges(q.signature, ids, q, x)
    return names, reference_value_tuples(y, names, [y.sorted_carrier()] * len(names), edges)


def walked_targets(q, x, pairs, y):
    names, _, targets = closure._joined_homs(q, x, pairs, y)
    return names, list(targets)


@settings(max_examples=300, deadline=None)
@given(joins())
@example((hm.Structure(PR_SIGNATURE, ["p", "p,q"], [hm.edge("R", "p", "p,q")]),
          hm.Structure(PR_SIGNATURE, ["r", "q,r"], [hm.edge("R", "q,r", "r")]),
          [("p,q", "r"), ("p", "q,r")], hm.Structure(PR_SIGNATURE, ["c0"], [])))
@example((X3, Y3, [("a0", "b0"), ("a1", "b1"), ("a1", "b0"), ("a2", "b2")], Y3))
def test_joined_count_matches_the_walked_targets(case):
    q, x, pairs, y = case
    reference = or_error(reference_targets, *case)
    assert or_error(walked_targets, *case) == reference
    counted = len(reference[1]) if isinstance(reference, tuple) else reference
    assert or_error(closure._joined_count, *case) == counted
    if closure._renders_apart(q, x):  # then no subset of the pairs collides
        assert closure._joined_count(q, x, pairs, y, True) == counted


def test_a_second_partial_product_on_a_signature_runs_no_chase(monkeypatch):
    sig = hm.Signature(TRUST_SIGNATURE.symbols)  # kept by no other test
    x = hm.Structure(sig, ["a0", "a1"], [hm.edge("R", "a0", "a1"), hm.edge("P", "a1")])
    y = hm.Structure(sig, ["b0", "b1"], [hm.edge("R", "b0", "b1"), hm.edge("R", "b1", "b1"),
                                         hm.edge("P", "b1")])
    f = hm.bang(x)
    chased = count_chases(monkeypatch, closure)
    first = hm.partial_product_str(y, f)
    assert len(chased) == 1 + len(sig.symbols)  # F(v), then F(s(v1..vn)) per symbol
    second = hm.partial_product_str(y, f)
    assert second == first and second.components == first.components
    assert len(chased) == 1 + len(sig.symbols)
    # the base theory is another variant: its P* is chased once, for refl and Y^X
    refl = hm.partial_product_refl(hm.free_model(sig.theory(True), y).model,
                                   hm.bang(hm.free_model(sig.theory(True), x).model))
    exp = hm.exponential_object(x, y)
    assert len(chased) == 2 * (1 + len(sig.symbols))
    assert refl.variant == "refl" and exp.structure.carrier
