import pytest

import hornmod as hm
from hornmod.closure import ExponentialResult
from hornmod.families import all_models, all_structures, dedup_by_iso

from conftest import interp_fail_morphism


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
    assert any(not e.ok for e in report.entries)


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
    assert witness and witness[0].detail


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
