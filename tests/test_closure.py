import itertools

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import hornmod as hm
from hornmod.closure import ExponentialResult, VerificationEntry, VerificationReport
from hornmod.families import all_models, all_structures, dedup_by_iso, edge_slots

from conftest import (
    TRUST_SIGNATURE,
    interp_fail_morphism,
    reference_hom_structure,
    reference_partial_product,
    reference_verify_exponential,
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
    loopless = hm.Structure(preord.signature, ["a"], [])
    f = hm.Morphism(loopless, loopless, {"a": "a"})
    with pytest.raises(hm.StructureError):
        hm.partial_product_refl(chain2, f)


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
    # a pruned edge loses maps Q -> C, so some map Q x X -> Y has no preimage
    assert [(e.checked, e.ok, e.detail) for e in report.entries] == [
        (1, True, ""),
        (3, False, "currying is not a bijection at {'(e0,c0)': 'c1', '(e0,c1)': 'c1'}"),
        (9, False, "currying is not a bijection at {'(e0,c0)': 'c0', '(e0,c1)': 'c0', "
                   "'(e1,c0)': 'c1', '(e1,c1)': 'c1'}"),
        (6, False, "currying is not a bijection at {'(e0,c0)': 'c0', '(e0,c1)': 'c0', "
                   "'(e1,c0)': 'c1', '(e1,c1)': 'c1'}"),
        (3, False, "currying is not a bijection at {'(e0,c0)': 'c1', '(e0,c1)': 'c1', "
                   "'(e1,c0)': 'c1', '(e1,c1)': 'c1'}"),
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
    # both copies curry to the same map, so it is hit twice
    assert [(e.checked, e.ok, e.detail) for e in report.entries] == [
        (1, True, ""),
        (3, False, "currying is not a bijection at {'(e0,c0)': 'c0', '(e0,c1)': 'c0'}"),
        (9, False, "currying is not a bijection at {'(e0,c0)': 'c0', '(e0,c1)': 'c0', "
                   "'(e1,c0)': 'c0', '(e1,c1)': 'c0'}"),
        (6, False, "currying is not a bijection at {'(e0,c0)': 'c0', '(e0,c1)': 'c0', "
                   "'(e1,c0)': 'c0', '(e1,c1)': 'c0'}"),
        (3, False, "currying is not a bijection at {'(e0,c0)': 'c0', '(e0,c1)': 'c0', "
                   "'(e1,c0)': 'c0', '(e1,c1)': 'c0'}"),
    ]


def test_verify_exponential_rejects_an_extra_edge_at_evaluation(preord, chain2):
    # A transpose is eval . (h x X), a composite of morphisms once eval is checked,
    # so an edge that breaks currying is caught as a broken evaluation map.
    exp = hm.exponential_object(chain2, chain2)
    extra = exp.structure.with_edges([hm.edge("le", "[c0:c1,c1:c1]", "[c0:c0,c1:c0]")])
    ev = hm.Morphism(hm.product(extra, chain2).structure, chain2, dict(exp.eval.mapping))
    report = hm.verify_exponential(chain2, chain2, ExponentialResult(extra, ev), [chain2])
    assert [(e.checked, e.ok, e.detail) for e in report.entries] == [
        (0, False, "evaluation map is not a morphism")]


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
    with its edges, anchor and evaluation row, or moves one value of the
    evaluation map; the anchor keeps its mapping, and a duplicate lies over
    its twin's anchor.
    """
    variant = draw(st.sampled_from(["str", "refl"]))
    pool = SMALL_STRUCTURES if variant == "str" else SMALL_BASE_MODELS
    x, z, y = (draw(st.sampled_from(pool)) for _ in range(3))
    homs = hm.enumerate_morphisms(x, z)
    assume(homs)
    f = draw(st.sampled_from(homs))
    pp = (hm.partial_product_str if variant == "str" else hm.partial_product_refl)(y, f)
    struct, anchor, eval_map = pp.structure, dict(pp.p.mapping), dict(pp.eval.mapping)
    corruption = draw(st.sampled_from(
        ["none", "drop-edge", "add-edge", "stale-domain", "duplicate", "eval-value"]))
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
    elif corruption == "eval-value" and eval_map:
        eval_map[draw(st.sampled_from(sorted(eval_map)))] = draw(
            st.sampled_from(y.sorted_carrier()))
    p = hm.Morphism(struct, z, anchor)
    ev = pp.eval if corruption == "stale-domain" else hm.Morphism(
        hm.pullback(p, f).structure, y, eval_map)
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


# Explicitly ordered, and no complete lattice, so no base axiom makes a symbol full.
ORDERED_SIGNATURE = hm.Signature(
    tuple(hm.RelationSymbol(n, a) for n, a in (("P", 1), ("R", 2), ("S", 2), ("U", 2))),
    order_kind=hm.EXPLICIT, order_pairs=(("R", "S"), ("R", "U")))
# The tables {a0: "p,a1:p", a1: "p"} and {a0: "p", a1: "p,a1:p"} both render as
# [a0:p,a1:p,a1:p], so maps into these names can collide as points.
COLLIDING_NAMES = ("p", "p,a1:p", "q")


@st.composite
def structures_on(draw, sig, names, dense=st.booleans()):
    """A random structure over ``sig`` on a prefix of ``names``: a few edges, or
    all but a few when ``dense`` draws true."""
    carrier = names[:draw(st.integers(0, len(names)))]
    slots = edge_slots(sig, carrier)
    edges = draw(st.sets(st.sampled_from(slots))) if slots else set()
    return hm.Structure(sig, carrier, set(slots) - edges if draw(dense) else edges)


def function_space_objects(sig):
    """Y on 0-3 points, on plain names or on names whose function ids can collide;
    mostly dense, so that many maps land in it."""
    return st.sampled_from([("b0", "b1", "b2"), COLLIDING_NAMES]).flatmap(
        lambda names: structures_on(sig, names, st.integers(0, 2).map(bool)))


def or_error(build, *args):
    """The result of ``build``, or the message of the ``StructureError`` it raises."""
    try:
        return build(*args)
    except hm.StructureError as exc:
        return str(exc)


ANY_STRUCTURE = hm.Theory(TRUST_SIGNATURE, (), (), base_flag=False)


def function_space(x, y, diagonal):
    if diagonal:
        return hm.internal_hom(ANY_STRUCTURE, x, y)
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


@settings(max_examples=300, deadline=None)
@given(structures_on(TRUST_SIGNATURE, ("a0", "a1", "a2")),
       function_space_objects(TRUST_SIGNATURE), st.booleans())
@example(hm.Structure(TRUST_SIGNATURE, ["a0", "a1"], []),
         hm.Structure(TRUST_SIGNATURE, COLLIDING_NAMES[:2], []), False)
def test_exponential_and_internal_hom_match_reference(x, y, diagonal):
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
    x = draw(structures_on(sig, ("a0", "a1", "a2")))
    z = draw(structures_on(sig, ("c0", "c1", "c2")).filter(lambda z: z.carrier or not x.carrier))
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
    pp = reference_partial_product(y, f, reflexive)
    return pp, pp.components


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
def test_partial_products_match_reference(case):
    y, f, reflexive = case
    assert or_error(partial_product, y, f, reflexive) == or_error(
        reference_partial_product_with_components, y, f, reflexive)


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
    edges and eval row, or moves one value of eval.
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
    corruption = draw(st.sampled_from(
        ["none", "drop-edge", "add-edge", "stale-domain", "duplicate", "eval-value"]))
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
    elif corruption == "eval-value" and ev:
        ev[draw(st.sampled_from(sorted(ev)))] = draw(st.sampled_from(y.sorted_carrier()))
    domain = exp.eval.source if corruption == "stale-domain" else hm.product(c, x).structure
    family = draw(st.lists(objects, min_size=1, max_size=3))
    return x, y, ExponentialResult(c, hm.Morphism(domain, y, ev)), family


CHAIN2 = hm.chain(2)
CHAIN2_EXP = hm.exponential_object(CHAIN2, CHAIN2)


@settings(max_examples=200, deadline=None)
@given(exponential_candidates())
@example((CHAIN2, CHAIN2, ExponentialResult(  # an added edge, eval on the old C x X
    CHAIN2_EXP.structure.with_edges([hm.edge("le", "[c0:c1,c1:c1]", "[c0:c0,c1:c0]")]),
    CHAIN2_EXP.eval), [CHAIN2]))
def test_verify_exponential_matches_reference(case):
    assert hm.verify_exponential(*case) == reference_verify_exponential(*case)


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
    product_signatures = ("SignatureError", "product needs a shared signature")
    exp, f = hm.exponential_object(x, y), hm.bang(x)
    pp = hm.partial_product_str(y, f)
    for verify, reference, args, error in [
        (hm.verify_exponential, reference_verify_exponential, (x, y, exp, [y, clash]),
         collision),  # in Q x X
        (hm.verify_exponential, reference_verify_exponential,
         (x, y, ExponentialResult(clash, exp.eval), [y]), collision),  # in C x X
        (hm.verify_exponential, reference_verify_exponential,
         (x, y, ExponentialResult(other, exp.eval), [y]), product_signatures),
        (hm.verify_exponential, reference_verify_exponential, (x, y, exp, [other]),
         product_signatures),
        (hm.verify_partial_product, reference_verify_partial_product, (f, y, pp, [clash]),
         collision),  # in Q x_Z X
        (hm.verify_partial_product, reference_verify_partial_product, (f, other, pp, [y]),
         ("SignatureError", "hom-set needs a shared signature")),
    ]:
        assert or_hornmod_error(verify, *args) == or_hornmod_error(reference, *args) == error
