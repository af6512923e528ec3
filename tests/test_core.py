import copy
import gc
import itertools
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import hornmod as hm
from hornmod.core import Edge, SymbolOrder, base_axioms, is_base_axiom
from hornmod.families import edge_slots
from hornmod.limits import _hom_tuples

from conftest import (
    TRUST_SIGNATURE,
    interp_fail_morphism,
    reference_distributive,
    reference_validate_morphism,
    trust_edges,
    trust_structures,
)


def test_validate_identity(chain2):
    assert hm.validate_morphism(hm.identity_morphism(chain2))


def test_validate_chain_embedding(chain3):
    f = interp_fail_morphism()
    assert hm.validate_morphism(f)


def test_validate_into_discrete_fails(preord):
    x = hm.Structure(
        preord.signature,
        ["a", "c"],
        [hm.edge("le", "a", "a"), hm.edge("le", "c", "c"), hm.edge("le", "a", "c")],
    )
    target = hm.discrete_poset(2)
    f = hm.Morphism(x, target, {"a": "c0", "c": "c1"})
    assert hm.validate_morphism(f) is False


def test_validate_signature_mismatch_raises(chain2):
    other = hm.Structure(hm.reflexive_theory().signature, ["p"], [hm.edge("R", "p", "p")])
    f = hm.Morphism(chain2, other, {"c0": "p", "c1": "p"})
    with pytest.raises(hm.SignatureError):
        hm.validate_morphism(f)


def test_morphism_requires_total_map(chain2, chain3):
    with pytest.raises(hm.MorphismError):
        hm.Morphism(chain2, chain3, {"c0": "c0"})
    with pytest.raises(hm.MorphismError):
        hm.Morphism(chain2, chain3, {"c0": "c0", "c1": "nope"})


@settings(max_examples=200, deadline=None)
@given(trust_structures("a"), trust_structures("b"), st.data())
def test_validate_morphism_against_the_reference(x, y, data):
    src = x.sorted_carrier()
    valid = _hom_tuples(x, y)
    maps = list(valid)
    if y.carrier:
        maps.append(tuple(data.draw(st.sampled_from(y.sorted_carrier())) for _ in src))
    for images in maps:
        h = hm.Morphism(x, y, dict(zip(src, images)))
        assert hm.validate_morphism(h) is reference_validate_morphism(h)
        assert hash(h) == hash((x, y, tuple(sorted(h.mapping.items()))))
    if valid and x.edges:
        # a valid map into y with the image of one source edge removed
        mapping = dict(zip(src, data.draw(st.sampled_from(valid))))
        e = data.draw(st.sampled_from(x.sorted_edges()))
        image = Edge(e.symbol, tuple(mapping[a] for a in e.args))
        h = hm.Morphism(x, hm.Structure(y.signature, y.carrier, y.edges - {image}), mapping)
        assert hm.validate_morphism(h) is False
        assert reference_validate_morphism(h) is False


def test_var_set():
    assert hm.var_set([]) == frozenset()
    assert hm.var_set([hm.edge("le", "x", "y"), hm.edge("le", "y", "z")]) == {"x", "y", "z"}
    assert hm.var_set([hm.edge("R", "v", "v")]) == {"v"}


def test_order_closure_discrete(preord):
    order = hm.signature_order_closure(preord.signature, 2)
    assert order.leq("le", "le")


def test_order_closure_explicit_transitive():
    sig = hm.Signature(
        tuple(hm.RelationSymbol(n, 2) for n in "RST"),
        hm.EXPLICIT,
        (("R", "S"), ("S", "T")),
    )
    order = hm.signature_order_closure(sig, 2)
    assert order.leq("R", "T")
    assert not order.leq("T", "R")


def test_order_closure_quantale():
    sig = hm.signature_of(hm.boolean_quantale())
    order = hm.signature_order_closure(sig, 2)
    assert order.leq("~0", "~1")
    assert not order.leq("~1", "~0")


def test_order_closure_reflexive_transitive_exhaustive():
    sig = hm.Signature(
        tuple(hm.RelationSymbol(n, 2) for n in "ABCD"),
        hm.EXPLICIT,
        (("A", "B"), ("B", "C")),
    )
    order = hm.signature_order_closure(sig, 2)
    for a in order.symbols:
        assert order.leq(a, a)
        for b in order.symbols:
            for c in order.symbols:
                if order.leq(a, b) and order.leq(b, c):
                    assert order.leq(a, c)


def test_explicit_pairs_across_arities_rejected():
    with pytest.raises(hm.SignatureError):
        hm.Signature(
            (hm.RelationSymbol("R", 1), hm.RelationSymbol("S", 2)),
            hm.EXPLICIT,
            (("R", "S"),),
        )


R1, R2, S2 = hm.RelationSymbol("R", 1), hm.RelationSymbol("R", 2), hm.RelationSymbol("S", 2)
BOOLEAN_SYMBOLS = (hm.RelationSymbol("~0", 2), hm.RelationSymbol("~1", 2))


@pytest.mark.parametrize("symbols, kind, pairs, quantale, message", [
    ((R2,), "dense", (), None, "unknown order kind 'dense'"),
    # one name at two arities is two RelationSymbols but one name
    ((R1, R2), hm.DISCRETE, (), None, "duplicate symbol names in signature"),
    ((R2,), hm.EXPLICIT, (("R", "S"),), None, "order pair ('R', 'S') uses unknown symbols"),
    ((R1, S2), hm.EXPLICIT, (("R", "S"),), None,
     "order pair ('R', 'S') relates symbols of different arities"),
    (BOOLEAN_SYMBOLS, hm.QUANTALE, (), None, "quantale-induced signature needs a quantale"),
    (BOOLEAN_SYMBOLS[:1], hm.QUANTALE, (), hm.boolean_quantale(),
     "quantale-induced signature must have exactly the binary symbols ~v for the quantale "
     "elements v"),
    (BOOLEAN_SYMBOLS + (S2,), hm.QUANTALE, (), hm.boolean_quantale(),
     "quantale-induced signature must have exactly the binary symbols ~v for the quantale "
     "elements v"),
    (BOOLEAN_SYMBOLS, hm.DISCRETE, (), hm.boolean_quantale(),
     "only quantale-induced signatures carry a quantale"),
    (BOOLEAN_SYMBOLS, hm.EXPLICIT, (), hm.boolean_quantale(),
     "only quantale-induced signatures carry a quantale"),
], ids=["kind", "duplicate-names", "pair-unknown", "pair-arities", "no-quantale",
        "quantale-too-few", "quantale-too-many", "discrete-quantale", "explicit-quantale"])
def test_signatures_refuse_with_their_messages(symbols, kind, pairs, quantale, message):
    with pytest.raises(hm.SignatureError) as refused:
        hm.Signature(symbols, kind, pairs, quantale)
    assert str(refused.value) == message


@pytest.mark.parametrize("name, arity, message", [
    ("R", True, "arity of 'R' must be an integer, got True"),
    ("R", 2.0, "arity of 'R' must be an integer, got 2.0"),
    ("R", "2", "arity of 'R' must be an integer, got '2'"),
    ("R", None, "arity of 'R' must be an integer, got None"),
    (2, 2, "symbol name must be a string, got 2"),
    (None, 1, "symbol name must be a string, got None"),
    ("R", 0, "arity of 'R' must be >= 1, got 0"),
])
def test_relation_symbols_refuse_bad_names_and_arities(name, arity, message):
    with pytest.raises(hm.SignatureError) as refused:
        hm.RelationSymbol(name, arity)
    assert str(refused.value) == message


@pytest.mark.parametrize("pair", [("R",), ("R", "S", "R"), ["R", "S"], ("R", 2), "RS", None])
def test_signatures_refuse_order_pairs_that_are_not_two_names(pair):
    symbols = (hm.RelationSymbol("R", 2), hm.RelationSymbol("S", 2))
    with pytest.raises(hm.SignatureError) as refused:
        hm.Signature(symbols, hm.EXPLICIT, (pair,))
    assert str(refused.value) == f"order pair {pair!r} is not a pair of symbol names"


@pytest.mark.parametrize("symbol", [("R", 2), "R", None])
def test_signatures_refuse_symbols_that_are_not_relation_symbols(symbol):
    with pytest.raises(hm.SignatureError) as refused:
        hm.Signature((hm.RelationSymbol("S", 1), symbol))
    assert str(refused.value) == f"signature symbol {symbol!r} is not a RelationSymbol"


# ("R", "ab") would otherwise read as R(a, b), and the others fail in the
# constructor's unpacking with an AttributeError, IndexError or TypeError
@pytest.mark.parametrize("bad", [
    ("R", "ab"), Edge("R", "ab"), ("R", ("a", "b"), "c"), ("R",), "Rab", ("R", None),
    (2, ("a", "b")), None,
])
def test_structures_refuse_edges_that_are_not_symbol_argument_pairs(bad):
    # after a good edge, and after one with an unknown symbol: a malformed edge
    # is refused first, wherever it stands
    for first in (Edge("P", ("a",)), Edge("Q", ("a",))):
        with pytest.raises(hm.StructureError) as refused:
            hm.Structure(TRUST_SIGNATURE, ["a", "b"], [first, bad])
        assert str(refused.value) == f"edge {bad!r} is not a (symbol, argument tuple) pair"


@pytest.mark.parametrize("bad, message", [
    (Edge("Q", ("a",)), "edge uses unknown symbol 'Q'"),
    (Edge("R", ("a",)), "edge Edge(symbol='R', args=('a',)) has wrong arity for 'R'"),
    (Edge("R", ("a", "z")),
     "edge Edge(symbol='R', args=('a', 'z')) mentions elements outside the carrier"),
])
def test_structure_errors_name_the_edge(bad, message):
    with pytest.raises(hm.StructureError) as info:
        hm.Structure(TRUST_SIGNATURE, ["a", "b"], [Edge("P", ("a",)), bad])
    assert str(info.value) == message


@pytest.mark.parametrize("refused, error, message", [
    (lambda: hm.chain(2).induced(["c0", "zz"]),
     hm.StructureError, "induced substructure needs a subset of the carrier"),
    (lambda: hm.compose(hm.identity_morphism(hm.chain(2)), hm.identity_morphism(hm.chain(3))),
     hm.MorphismError, "composition needs matching middle structure"),
], ids=["induced-subset", "compose-ends"])
def test_structure_operations_refuse_with_their_messages(refused, error, message):
    with pytest.raises(error) as info:
        refused()
    assert str(info.value) == message


@st.composite
def structure_inputs(draw):
    """The carrier and edges of a random structure as raw input: each edge an
    ``Edge``, an ``Edge`` or plain tuple with list args, or a plain tuple, some
    repeated, and possibly an unknown symbol, a wrong arity or an outside element."""
    x = draw(trust_structures("a"))
    point = st.sampled_from(x.sorted_carrier() or ("a0",))
    edges = list(x.sorted_edges())
    edges += draw(st.lists(st.sampled_from(edges), max_size=3)) if edges else []
    forms = [
        lambda e: e,
        lambda e: Edge(e.symbol, list(e.args)),
        lambda e: (e.symbol, list(e.args)),
        lambda e: (e.symbol, e.args),
    ]
    edges = [draw(st.sampled_from(forms))(e) for e in edges]
    if draw(st.booleans()):
        edges.append(Edge("Q", (draw(point),)))
    if draw(st.booleans()):
        edges.append(Edge("R", (draw(point),)))
    if draw(st.booleans()):
        edges.append(Edge("P", ("z",)))
    return x.sorted_carrier(), draw(st.permutations(edges))


def reference_structure(carrier, edges):
    """What the constructor must give, read edge by edge: the ``StructureError``
    message each bad edge would raise, and the edges as ``Edge``s over tuples."""
    arities, points = {s.name: s.arity for s in TRUST_SIGNATURE.symbols}, set(carrier)
    edges = {Edge(symbol, tuple(args)) for symbol, args in edges}
    errors = set()
    for e in edges:
        if e.symbol not in arities:
            errors.add(f"edge uses unknown symbol {e.symbol!r}")
        elif len(e.args) != arities[e.symbol]:
            errors.add(f"edge {e} has wrong arity for {e.symbol!r}")
        elif not set(e.args) <= points:
            errors.add(f"edge {e} mentions elements outside the carrier")
    return errors, edges


@settings(max_examples=300, deadline=None)
@given(structure_inputs())
def test_structure_against_the_reference_constructor(inputs):
    carrier, edges = inputs
    errors, expected = reference_structure(carrier, edges)
    if errors:
        with pytest.raises(hm.StructureError) as refused:
            hm.Structure(TRUST_SIGNATURE, carrier, edges)
        assert str(refused.value) in errors
        return
    got = hm.Structure(TRUST_SIGNATURE, carrier, edges)
    assert got.carrier == frozenset(carrier) and got.edges == expected
    assert all(type(e) is Edge and type(e.args) is tuple for e in got.edges)
    for s in TRUST_SIGNATURE.symbols:
        assert got.tuples(s.name) == {e.args for e in expected if e.symbol == s.name}
    assert hash(got) == hash((got.signature, got.carrier, got.edges))
    # sorted once, on first use, and kept
    assert got.sorted_carrier() == tuple(sorted(carrier))
    assert got.sorted_carrier() is got.sorted_carrier()


EDGE_FORMS = {
    "Edge": lambda e: e,
    "pair": lambda e: (e.symbol, e.args),
    "pair over a list": lambda e: (e.symbol, list(e.args)),
    "list": lambda e: [e.symbol, list(e.args)],
}


@settings(max_examples=200, deadline=None)
@given(trust_structures("a"), st.sampled_from(sorted(EDGE_FORMS)))
def test_the_edge_set_is_built_on_first_read(x, form):
    carrier = x.sorted_carrier()
    raw = [EDGE_FORMS[form](e) for e in x.sorted_edges()]
    errors, expected = reference_structure(carrier, raw)
    assert not errors
    read, unread = (hm.Structure(TRUST_SIGNATURE, carrier, raw) for _ in range(2))
    assert read._edges is None and unread._edges is None  # unset until the first read
    assert read == unread and unread._edges is None  # equality reads the tuple sets
    edges = read.edges
    assert edges == expected and read.edges is edges  # built once and kept
    assert all(type(e) is Edge and type(e.args) is tuple for e in edges)
    assert unread._edges is None and read == unread and unread == read
    assert hash(read) == hash(unread) == hash((TRUST_SIGNATURE, frozenset(carrier),
                                               frozenset(expected)))
    for round_trip in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        for original in (read, hm.Structure(TRUST_SIGNATURE, carrier, raw)):
            clone = round_trip(original)
            assert clone._edges is None and clone == original
            assert clone.edges == expected and hash(clone) == hash(read)


def test_edge_sets_deduplicate(preord):
    a = hm.Structure(preord.signature, ["p"], [hm.edge("le", "p", "p")])
    b = hm.Structure(
        preord.signature, ["p"], [hm.edge("le", "p", "p"), hm.edge("le", "p", "p")]
    )
    assert a == b


def test_equality_conclusion_variable_condition():
    with pytest.raises(hm.TheoryError, match="^equality conclusion requires the premise "
                                             "variables to be exactly the equated pair$"):
        hm.horn([hm.edge("le", "x", "y"), hm.edge("le", "y", "z")], hm.Equality("x", "y"))
    hm.horn([hm.edge("le", "x", "y"), hm.edge("le", "y", "x")], hm.Equality("x", "y"))


@pytest.mark.parametrize("axiom", [
    (frozenset({hm.edge("le", "x", "y")}), hm.edge("le", "y", "x")), hm.edge("le", "x", "x"), None,
])
def test_theories_refuse_axioms_that_are_not_horn_formulas(preord, axiom):
    with pytest.raises(hm.TheoryError) as refused:
        hm.Theory(preord.signature, [axiom])
    assert str(refused.value) == f"axiom {axiom!r} is not a HornFormula"


@pytest.mark.parametrize("schema", [
    "x", hm.horn([hm.edge("~1", "x", "y")], hm.edge("~1", "y", "x")), None,
])
def test_theories_refuse_schemas_that_are_not_axiom_schemas(schema):
    sig = hm.signature_of(hm.boolean_quantale())
    with pytest.raises(hm.TheoryError) as refused:
        hm.Theory(sig, (), (schema,))
    assert str(refused.value) == f"schema {schema!r} is not an AxiomSchema"


@pytest.mark.parametrize("premises, conclusion, message", [
    ([hm.edge("le", "x", "y")], "le", "conclusion 'le' is neither an Equality nor an Edge "
                                      "over a tuple of variable names"),
    ([("le", ("x", "y"))], hm.edge("le", "y", "x"),
     "premise ('le', ('x', 'y')) is not an Edge over a tuple of variable names"),
    ([Edge("le", "xy")], hm.edge("le", "y", "x"),
     "premise Edge(symbol='le', args='xy') is not an Edge over a tuple of variable names"),
    ([hm.edge("le", "x", "y")], Edge("le", "yx"), "conclusion Edge(symbol='le', args='yx') is "
                                                 "neither an Equality nor an Edge over a tuple "
                                                 "of variable names"),
    ([Edge("le", ("x", 1))], hm.edge("le", "x", "x"),
     "premise Edge(symbol='le', args=('x', 1)) is not an Edge over a tuple of variable names"),
])
def test_horn_formulas_refuse_premises_and_conclusions_of_the_wrong_shape(
        premises, conclusion, message):
    # unchecked, the first two raised AttributeError in Theory and the third read as le(x, y)
    with pytest.raises(hm.TheoryError) as refused:
        hm.HornFormula(premises, conclusion)
    assert str(refused.value) == message
    with pytest.raises(hm.TheoryError):
        hm.horn(premises, conclusion)


def test_base_axioms_discrete_are_reflexivity_only(preord):
    axs = base_axioms(preord.signature)
    assert len(axs) == 1
    assert not axs[0].premises
    assert all(is_base_axiom(ax, preord.signature) for ax in axs)
    assert not is_base_axiom(preord.axioms[0], preord.signature)


def test_base_axioms_quantale_cover_order_and_joins():
    sig = hm.signature_of(hm.chain_meet_quantale(3))
    axs = base_axioms(sig)
    # 3 reflexivity + 3 downward (total order) + 1 bottom axiom, no binary joins
    assert len(axs) == 7
    assert all(is_base_axiom(ax, sig) for ax in axs)


@st.composite
def small_structure(draw):
    sig = hm.preorder_theory().signature
    size = draw(st.integers(min_value=1, max_value=3))
    carrier = [f"e{i}" for i in range(size)]
    slots = [(a, b) for a in carrier for b in carrier]
    mask = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    edges = [hm.edge("le", a, b) for (a, b), keep in zip(slots, mask) if keep]
    return hm.Structure(sig, carrier, edges)


@settings(max_examples=60, deadline=None)
@given(small_structure(), small_structure(), st.randoms(use_true_random=False))
def test_composition_of_valid_morphisms_is_valid(x, y, rng):
    homs_xy = hm.enumerate_morphisms(x, y)
    if not homs_xy:
        return
    f = rng.choice(homs_xy)
    homs_yx = hm.enumerate_morphisms(y, x)
    if not homs_yx:
        return
    g = rng.choice(homs_yx)
    assert hm.validate_morphism(hm.compose(g, f))
    assert hm.validate_morphism(hm.identity_morphism(x))


def scan_bound(order, elems, upper):
    """The defining scan: the unique least upper (greatest lower) bound, else None."""
    elems = list(elems)
    if upper:
        cands = [s for s in order.symbols if all(order.leq(e, s) for e in elems)]
        best = [c for c in cands if all(order.leq(c, d) for d in cands)]
    else:
        cands = [s for s in order.symbols if all(order.leq(s, e) for e in elems)]
        best = [c for c in cands if all(order.leq(d, c) for d in cands)]
    return best[0] if len(best) == 1 else None


def subsets(symbols):
    return [s for r in range(len(symbols) + 1) for s in itertools.combinations(symbols, r)]


def scan_is_complete_lattice(order):
    syms = order.symbols
    return (
        bool(syms)
        and all(not (order.leq(a, b) and order.leq(b, a)) for a, b in itertools.combinations(syms, 2))
        and all(scan_bound(order, s, up) is not None
                for s in [(), *itertools.combinations(syms, 2)] for up in (True, False))
    )


def scan_is_complete_heyting(order):
    if not scan_is_complete_lattice(order):
        return False

    def join(s):
        return scan_bound(order, s, True)

    def meet(a, b):
        return scan_bound(order, (a, b), False)

    syms = order.symbols
    return all(
        meet(a, join((b, c))) == join((meet(a, b), meet(a, c)))
        for a, b, c in itertools.product(syms, repeat=3)
    ) and all(
        meet(a, join(s)) == join(meet(a, x) for x in s) for a in syms for s in subsets(syms)
    )


def assert_lattice_matches_scan(order):
    syms = order.symbols
    for a, b in itertools.product(syms, repeat=2):
        assert order.meet2(a, b) == scan_bound(order, (a, b), False)
        assert order.join2(a, b) == scan_bound(order, (a, b), True)
    for s in subsets(syms):
        assert order.join_of_set(s) == scan_bound(order, s, True)
        assert order.meet_of_set(iter(s)) == scan_bound(order, s, False)
    for t in syms:
        assert order.below(t) == tuple(s for s in syms if order.leq(s, t))
    assert order.bottom() == scan_bound(order, (), True)
    assert order.top() == scan_bound(order, (), False)
    assert order.is_complete_lattice() == scan_is_complete_lattice(order)
    heyting = scan_is_complete_heyting(order)
    assert order.is_complete_heyting() == heyting
    assert order.is_complete_heyting() == heyting  # the kept verdict


@st.composite
def small_preorder(draw):
    """Random preorders on up to 5 symbols: arbitrary, acyclic, or acyclic with bounds."""
    n = draw(st.integers(min_value=0, max_value=5))
    syms = "abcde"[:n]
    shape = draw(st.sampled_from(["any", "acyclic", "bounded"]))
    slots = [(i, j) for i in range(n) for j in range(n)
             if i != j and (shape == "any" or i < j)]
    keep = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    pairs = [(syms[i], syms[j]) for (i, j), k in zip(slots, keep) if k]
    if shape == "bounded" and n:
        pairs += [(syms[0], s) for s in syms] + [(s, syms[-1]) for s in syms]
    return SymbolOrder(syms, pairs)


@settings(max_examples=300, deadline=None)
@given(small_preorder())
def test_lattice_tables_match_the_defining_scan(order):
    assert_lattice_matches_scan(order)


def test_join_of_a_set_without_pairwise_joins():
    # a, b lie below both c and d, x only below c: {a, b} has no join, {a, b, x} has c
    order = SymbolOrder("abcdx", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("x", "c")])
    assert order.join2("a", "b") is None
    assert order.join_of_set(("a", "b", "x")) == "c"
    assert not order.is_complete_lattice()
    assert_lattice_matches_scan(order)


# M3: three atoms between 0 and 1
M3 = (("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1"))
# N5: 0 < a < b < 1 and 0 < c < 1
N5 = (("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1"))


@pytest.mark.parametrize("pairs", [M3, N5], ids=["M3", "N5"])
def test_non_distributive_lattices_are_not_heyting(pairs):
    names = sorted({s for pair in pairs for s in pair})
    sig = hm.Signature(tuple(hm.RelationSymbol(n, 2) for n in names), hm.EXPLICIT, pairs)
    order = sig.order(2)
    assert order.is_complete_lattice()
    assert not order.is_complete_heyting()
    assert_lattice_matches_scan(order)


def test_binary_join_axioms_are_base_axioms_over_a_heyting_explicit_order():
    # the four-element Boolean lattice, 0 < a, b < 1, is Heyting and a v b = 1
    pairs = (("0", "a"), ("0", "b"), ("a", "1"), ("b", "1"))
    sig = hm.Signature(tuple(hm.RelationSymbol(n, 2) for n in "01ab"), hm.EXPLICIT, pairs)
    axs = base_axioms(sig)
    assert any(len(ax.premises) == 2 for ax in axs)
    assert all(is_base_axiom(ax, sig) for ax in axs)
    premises = [hm.edge("a", "x", "y"), hm.edge("b", "x", "y")]
    assert is_base_axiom(hm.horn(premises, hm.edge("1", "x", "y")), sig)
    assert not is_base_axiom(hm.horn(premises, hm.edge("a", "x", "y")), sig)
    # M3 is a lattice but not Heyting: no join axiom is a base axiom there
    m3 = hm.Signature(tuple(hm.RelationSymbol(n, 2) for n in "01abc"), hm.EXPLICIT, M3)
    assert not is_base_axiom(hm.horn(premises, hm.edge("1", "x", "y")), m3)


@st.composite
def moore_lattices(draw):
    """Inclusion on a random Moore family over {0, 1, 2}: the full set and every
    intersection of drawn subsets, so always a lattice, chains, M3 and N5 among them."""
    subsets = [frozenset(c) for r in range(4) for c in itertools.combinations(range(3), r)]
    family = {frozenset(range(3))}
    for s in draw(st.lists(st.sampled_from(subsets), max_size=6)):
        family |= {s & t for t in family} | {s}
    name = {s: "".join(map(str, sorted(s))) or "-" for s in family}
    return SymbolOrder(name.values(), [(name[s], name[t]) for s in family for t in family if s < t])


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_preorder(), moore_lattices()))
@example(SymbolOrder("01abc", M3))
@example(SymbolOrder("01abc", N5))
@example(SymbolOrder("abcd", [("a", "b"), ("b", "c"), ("c", "d")]))
def test_binary_distributivity_decides_heyting_like_the_subset_check(order):
    assert order.is_complete_heyting() == (
        order.is_complete_lattice() and reference_distributive(order))


def test_signature_lookups():
    sig = hm.Signature((hm.RelationSymbol("P", 1), hm.RelationSymbol("R", 2)))
    assert sig.arity("P") == 1 and sig.arity("R") == 2
    assert sig.has_symbol("R") and not sig.has_symbol("Q")
    with pytest.raises(hm.SignatureError, match="unknown relation symbol 'Q'"):
        sig.arity("Q")
    same = hm.Signature((hm.RelationSymbol("R", 2), hm.RelationSymbol("P", 1)))
    assert sig == same and hash(sig) == hash(same)
    assert repr(sig) == (
        "Signature(symbols=(RelationSymbol(name='P', arity=1), "
        "RelationSymbol(name='R', arity=2)), order_kind='discrete', order_pairs=(), "
        "quantale=None)"
    )


def explicit_theory():
    sig = hm.Signature(tuple(hm.RelationSymbol(n, 2) for n in "RS"), hm.EXPLICIT, (("R", "S"),))
    return hm.Theory(sig, (hm.horn([hm.edge("R", "x", "y")], hm.edge("R", "y", "x")),))


def use_theory(theory):
    """Fill what the theory and its signature keep on first use."""
    sig = theory.signature
    theory.all_axioms()
    sig.order(2)
    loops = [hm.edge(s, "a", "a") for s in sig.symbol_names()]
    assert hm.is_model(hm.Structure(sig, ["a"], loops), theory)


def test_a_used_theory_and_its_signature_are_freed():
    theory = explicit_theory()
    use_theory(theory)
    refs = [weakref.ref(theory), weakref.ref(theory.signature)]
    del theory
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_kept_data_is_not_part_of_the_theory():
    used = explicit_theory()
    use_theory(used)
    assert used.all_axioms() is used.all_axioms()
    assert used.signature.order(2) is used.signature.order(2)
    fresh = explicit_theory()
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)


def lifting_theory():
    """A discrete theory that ran the lifting oracle, so it keeps its free models."""
    theory = hm.preorder_theory()
    assert not hm.is_convex_via_lifting(interp_fail_morphism(), theory)
    return theory


def test_a_theory_that_ran_the_lifting_oracle_is_freed():
    theory = lifting_theory()
    refs = [weakref.ref(theory), weakref.ref(theory.signature)]
    del theory
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_kept_lifting_models_are_not_part_of_the_theory():
    used, fresh = lifting_theory(), hm.preorder_theory()
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)


# The value types against the contract of the frozen dataclasses they
# replaced: a value is its fields, so ``==`` and order compare them, ``hash``
# hashes their tuple and ``repr`` prints them by name, a formula's premises
# sorted; set iteration order and every output byte depend on it.  A spec
# is refused exactly when it breaks one of the constructors' checks, with
# that check's error and message.

VALUE_FIELDS = {
    "RelationSymbol": ("name", "arity"),
    "Signature": ("symbols", "order_kind", "order_pairs", "quantale"),
    "Equality": ("left", "right"),
    "HornFormula": ("premises", "conclusion"),
    "Theory": ("signature", "axioms", "schemas", "base_flag"),
    "Violation": ("axiom", "valuation"),
    "FreeModelResult": ("model", "unit_map"),
    "GroundTheory": ("rules", "forbidden"),
}


def fields_of(value) -> tuple:
    return tuple(getattr(value, name) for name in VALUE_FIELDS[type(value).__name__])


def field_repr(value) -> str:
    """The dataclass repr of a value's fields, with a formula's premises sorted."""
    def shown(name, field):
        if name != "premises":
            return repr(field)
        return f"frozenset({{{', '.join(map(repr, sorted(field)))}}})" if field else "frozenset()"

    cls = type(value).__name__
    fields = zip(VALUE_FIELDS[cls], fields_of(value))
    return f"{cls}({', '.join(f'{name}={shown(name, field)}' for name, field in fields)})"


def assert_field_contract(a, b) -> None:
    """``a`` and ``b`` (each a value or None) keep the field contract, alone and as a pair."""
    for value in (a, b):
        if value is not None:
            assert repr(value) == field_repr(value) and hash(value) == hash(fields_of(value))
    state = [None if value is None else fields_of(value) for value in (a, b)]
    assert (a == b) == (state[0] == state[1])


SYMBOL_NAMES = ("P", "R", "S", "~0", "~1")
BOOLEAN = hm.boolean_quantale()
symbol_specs = st.tuples(st.sampled_from(SYMBOL_NAMES), st.integers(min_value=0, max_value=3))


@st.composite
def signature_specs(draw):
    """Raw signature arguments: symbols as (name, arity) pairs, an order kind,
    order pairs and a quantale.  A quarter of the draws may be invalid anywhere;
    the others are the boolean quantale's signature or a discrete or explicit
    one whose order pairs name its own symbols."""
    shape = draw(st.sampled_from(["raw", "quantale", "plain", "plain"]))
    if shape == "quantale":
        return (("~0", 2), ("~1", 2)), hm.QUANTALE, (), BOOLEAN
    if shape == "raw":
        kind = draw(st.sampled_from([hm.DISCRETE, hm.EXPLICIT, hm.QUANTALE, "dense"]))
        quantale = draw(st.sampled_from([None, BOOLEAN]))
        symbols = draw(st.lists(symbol_specs, max_size=3))
        names = SYMBOL_NAMES
    else:
        kind, quantale = draw(st.sampled_from([hm.DISCRETE, hm.EXPLICIT])), None
        names = draw(st.lists(st.sampled_from(SYMBOL_NAMES), min_size=1, max_size=3, unique=True))
        symbols = [(n, draw(st.integers(min_value=1, max_value=2))) for n in names]
    pairs = draw(st.lists(st.tuples(*[st.sampled_from(names)] * 2), max_size=2))
    return tuple(symbols), kind, tuple(pairs), quantale


def formula_specs(names=SYMBOL_NAMES):
    """Raw formula arguments: premises as (name, args) and an edge or equality conclusion."""
    edges = st.tuples(st.sampled_from(names),
                      st.lists(st.sampled_from("xyz"), min_size=1, max_size=2).map(tuple))
    conclusions = st.one_of(edges.map(lambda e: ("edge", *e)),
                            st.tuples(st.just("eq"), st.sampled_from("xyz"), st.sampled_from("xyz")))
    return st.tuples(st.lists(edges, max_size=2).map(tuple), conclusions)


@st.composite
def theory_specs(draw):
    """A signature spec, formula specs over its symbol names, and a base flag,
    one draw in four not a bool."""
    sig = draw(signature_specs())
    names = sorted({name for name, _ in sig[0]}) or SYMBOL_NAMES
    axioms = draw(st.lists(formula_specs(names), max_size=2))
    flags = st.one_of(*[st.booleans()] * 3, st.sampled_from(["false", 0, 1, None]))
    return sig, tuple(axioms), draw(flags)


def build_signature(spec):
    symbols, kind, pairs, quantale = spec
    return hm.Signature(tuple(hm.RelationSymbol(n, a) for n, a in symbols), kind, pairs, quantale)


def build_formula(spec):
    premises, (tag, *conclusion) = spec
    conclusion = Edge(*conclusion) if tag == "edge" else hm.Equality(*conclusion)
    return hm.HornFormula(frozenset(Edge(*p) for p in premises), conclusion)


def build_theory(spec):
    sig, axioms, base_flag = spec
    return hm.Theory(build_signature(sig), tuple(build_formula(ax) for ax in axioms), (), base_flag)


# What building a spec must raise, read off the spec in the constructors'
# order of checks: ``(error type, the messages it may carry)``, or None when
# the spec must be built.  More than one message is allowed only where the
# constructor checks a frozenset's members, in an order no spec fixes.

def signature_refusal(spec):
    symbols, kind, pairs, quantale = spec
    for name, arity in symbols:
        if arity < 1:
            return hm.SignatureError, {f"arity of {name!r} must be >= 1, got {arity}"}
    distinct = set(symbols)
    arities = dict(distinct)
    if kind not in (hm.DISCRETE, hm.EXPLICIT, hm.QUANTALE):
        return hm.SignatureError, {f"unknown order kind {kind!r}"}
    if len(arities) != len(distinct):
        return hm.SignatureError, {"duplicate symbol names in signature"}
    for low, high in sorted(set(pairs)):
        if low not in arities or high not in arities:
            return hm.SignatureError, {f"order pair ({low!r}, {high!r}) uses unknown symbols"}
        if arities[low] != arities[high]:
            return hm.SignatureError, {
                f"order pair ({low!r}, {high!r}) relates symbols of different arities"}
    if kind == hm.QUANTALE:
        if quantale is None:
            return hm.SignatureError, {"quantale-induced signature needs a quantale"}
        if distinct != {("~" + v, 2) for v in quantale.elements}:
            return hm.SignatureError, {
                "quantale-induced signature must have exactly the binary symbols ~v for the "
                "quantale elements v"}
    elif quantale is not None:
        return hm.SignatureError, {"only quantale-induced signatures carry a quantale"}
    return None


def formula_refusal(spec):
    premises, (tag, *conclusion) = spec
    if tag == "eq" and {v for _, args in premises for v in args} != set(conclusion):
        return hm.TheoryError, {"equality conclusion requires the premise variables to be "
                                "exactly the equated pair"}
    return None


def theory_refusal(spec):
    sig, axioms, base_flag = spec
    for refusal in [signature_refusal(sig)] + [formula_refusal(ax) for ax in axioms]:
        if refusal is not None:
            return refusal
    if type(base_flag) is not bool:
        return hm.TheoryError, {f"base_flag must be a bool, got {base_flag!r}"}
    arities = dict(sig[0])

    def faults(part, edges):
        for name, args in edges:
            if name not in arities:
                yield f"axiom {part} uses unknown symbol {name!r}"
            elif len(args) != arities[name]:
                yield f"axiom {part} {Edge(name, args)} has wrong arity"

    for premises, (tag, *conclusion) in axioms:
        messages = set(faults("premise", premises))
        if not messages and tag == "edge":
            messages = set(faults("conclusion", [conclusion]))
        if messages:
            return hm.TheoryError, messages
    return None


VALUE_KINDS = {"signature": (build_signature, signature_refusal, signature_specs()),
               "formula": (build_formula, formula_refusal, formula_specs()),
               "theory": (build_theory, theory_refusal, theory_specs())}


def built(build, spec):
    """``(error, None)`` if building ``spec`` raises, else ``(None, value)``."""
    try:
        return None, build(spec)
    except Exception as exc:
        return (type(exc), str(exc)), None


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(VALUE_KINDS)), st.data())
def test_value_types_match_their_dataclass_references(kind, data):
    build, refusal, specs = VALUE_KINDS[kind]
    first = data.draw(specs)
    second = data.draw(st.one_of(st.just(first), specs))
    values = []
    for spec in (first, second):
        error, value = built(build, spec)
        expected = refusal(spec)
        if expected is None:
            assert error is None
        else:
            assert error is not None and error[0] is expected[0] and error[1] in expected[1]
        values.append(value)
    assert_field_contract(*values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(SYMBOL_NAMES), st.integers(min_value=1, max_value=3)),
                max_size=5))
def test_relation_symbols_order_like_their_reference(specs):
    new = [hm.RelationSymbol(*spec) for spec in specs]
    assert [repr(s) for s in sorted(new)] == [field_repr(s) for s in sorted(new, key=fields_of)]
    for a, b in itertools.product(new, repeat=2):
        fa, fb = fields_of(a), fields_of(b)
        assert (a < b, a <= b, a == b) == (fa < fb, fa <= fb, fa == fb)


def test_replace_checks_like_dataclasses_replace():
    # dataclasses.replace builds a new value from the changed fields, so
    # _replace refuses what the constructor refuses
    spec = ((("R", ("x", "y")),), ("edge", "R", ("y", "x")))
    cases = [(hm.RelationSymbol("R", 2), {"arity": 0}),
             (build_formula(spec), {"conclusion": hm.Equality("x", "z")})]
    for value, change in cases:
        fields = dict(zip(VALUE_FIELDS[type(value).__name__], fields_of(value)), **change)
        errors = []
        for replace in (lambda: value._replace(**change), lambda: type(value)(**fields)):
            with pytest.raises(hm.HornmodError) as refused:
                replace()
            errors.append((type(refused.value), str(refused.value)))
        assert errors[0] == errors[1]


def semantics_results(theory, x) -> list:
    """The free model, grounding and violation (None for a model) of ``x``."""
    carrier = x.sorted_carrier()
    return [hm.free_model(theory, x),
            hm.ground_axioms(theory, carrier, edge_slots(x.signature, carrier)),
            hm.check_model(x, theory)]


@settings(max_examples=100, deadline=None)
@given(trust_structures("a", max_size=2), st.data(), st.lists(trust_edges("xyz"), max_size=2),
       trust_edges("xyz"), st.booleans())
def test_semantics_results_match_their_dataclass_references(x, data, premises, conclusion, base):
    y = data.draw(st.one_of(st.just(x), trust_structures("a", max_size=2)))
    theory = hm.Theory(x.signature, (hm.horn(premises, conclusion),), (), base)
    for a, b in zip(semantics_results(theory, x), semantics_results(theory, y)):
        assert_field_contract(a, b)


def fill_kept_data(theory) -> None:
    """Fill what a theory and its signature keep on first use."""
    from hornmod.semantics import _rules

    for n in theory.signature.arities():
        theory.signature.order(n)
    _rules(theory)
    object.__setattr__(theory, "_lifting_models", ())
    theory.signature.theory(theory.base_flag)
    object.__setattr__(theory, "_presentation", ())


@settings(max_examples=100, deadline=None)
@given(theory_specs())
@example(((((("~0", 2), ("~1", 2)), hm.QUANTALE, (), BOOLEAN), (), True)))
def test_signature_and_theory_keep_their_dataclass_contract(spec):
    error, theory = built(build_theory, spec)
    if error is not None:
        return
    fill_kept_data(theory)
    fresh = build_theory(spec)
    for value, other, fields in [(theory, fresh, ("signature", "axioms", "schemas", "base_flag")),
                                 (theory.signature, fresh.signature,
                                  ("symbols", "order_kind", "order_pairs", "quantale"))]:
        assert value == other and hash(value) == hash(other) and repr(value) == repr(other)
        for name in fields + ("_rules" if value is theory else "_orders", "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert weakref.ref(value)() is value
        # A copy rebuilds each premise frozenset, whose iteration order can
        # change; equality, hash and the sorted repr cannot.
        for copied in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(copied) is type(value)
            assert copied == value and hash(copied) == hash(value) and repr(copied) == repr(value)


def test_copies_and_pickles_carry_no_kept_theories_or_presentation():
    from hornmod.closure import _presentation

    sig = hm.Signature(TRUST_SIGNATURE.symbols)
    empty, base = sig.theory(False), sig.theory(True)
    assert sig.theory(False) is empty and sig.theory(True) is base and empty != base
    assert (empty.base_flag, base.base_flag) == (False, True)
    for theory in (empty, base):
        assert theory.signature is sig and _presentation(theory) is _presentation(theory)
    for copy_of in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        copied_sig, copied_base = copy_of(sig), copy_of(base)
        assert copied_sig == sig and repr(copied_sig) == repr(sig)
        assert copied_sig._theories == {}
        assert copied_base == base and repr(copied_base) == repr(base)
        assert copied_base._presentation is None and copied_base._rules is None
        assert copied_sig.theory(True) == base and copied_sig.theory(True) is not base


def test_a_quantale_theory_survives_a_copy_and_a_pickle_round_trip():
    v = hm.chain_meet_quantale(3)
    theory = hm.theory_vcat(v)
    fill_kept_data(theory)
    for copied in (copy.deepcopy(theory), pickle.loads(pickle.dumps(theory))):
        assert copied == theory and hash(copied) == hash(theory)
        assert copied.signature.quantale._signature is copied.signature
        assert hm.is_model(hm.Structure(copied.signature, [], []), copied)


# A formula prints its premises sorted, so equal formulas print alike.

def test_formula_reprs_are_pinned():
    le = hm.edge
    cases = [
        (hm.horn([le("le", "y", "z"), le("le", "x", "y")], le("le", "x", "z")),
         "HornFormula(premises=frozenset({Edge(symbol='le', args=('x', 'y')), "
         "Edge(symbol='le', args=('y', 'z'))}), conclusion=Edge(symbol='le', args=('x', 'z')))"),
        (hm.horn([], le("le", "v0", "v0")),
         "HornFormula(premises=frozenset(), conclusion=Edge(symbol='le', args=('v0', 'v0')))"),
        (hm.horn([le("le", "y", "x"), le("le", "x", "y")], hm.Equality("x", "y")),
         "HornFormula(premises=frozenset({Edge(symbol='le', args=('x', 'y')), "
         "Edge(symbol='le', args=('y', 'x'))}), conclusion=Equality(left='x', right='y'))"),
    ]
    for formula, text in cases:
        assert repr(formula) == text
        assert eval(text, {"HornFormula": hm.HornFormula, "Edge": Edge,
                           "Equality": hm.Equality}) == formula


def test_two_premise_formulas_print_alike_after_a_round_trip():
    edges = [hm.edge("le", a, b) for a in "wxyz" for b in "wxyz"]
    formulas = [hm.horn(pair, hm.edge("le", "w", "z"))
                for pair in itertools.combinations(edges, 2)]
    assert len(formulas) == 120
    for formula in formulas:
        for copied in (copy.deepcopy(formula), pickle.loads(pickle.dumps(formula))):
            assert copied == formula and repr(copied) == repr(formula)
        assert repr(formula) == repr(hm.HornFormula(reversed(formula.sorted_premises()),
                                                    formula.conclusion))


# Pickling a Structure or Morphism carries the compared fields alone: no kept
# hash, sorted carrier or hom-search plan.

ROUND_TRIP_VALUES = """
import hornmod as hm
x = hm.Structure(hm.preorder_theory().signature, ["a", "b"],
                 [hm.edge("le", "a", "a"), hm.edge("le", "b", "b"), hm.edge("le", "a", "b")])
h = hm.Morphism(x, hm.chain(2), {"a": "c0", "b": "c1"})
"""

DUMP = ROUND_TRIP_VALUES + """
import pickle, sys
hash(x), hash(h), x.sorted_carrier(), hm.hom_count(x, x)
sys.stdout.buffer.write(pickle.dumps((x, h)))
"""

LOAD = ROUND_TRIP_VALUES + """
import pickle, sys
loaded_x, loaded_h = pickle.loads(sys.stdin.buffer.read())
print(loaded_x == x, loaded_x in {x}, loaded_h == h, loaded_h in {h})
"""


def run_under_hash_seed(code: str, seed: str, stdin: bytes = b"") -> bytes:
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], input=stdin, env=env,
                          capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_a_pickled_structure_and_morphism_hash_afresh_in_another_process():
    dumped = run_under_hash_seed(DUMP, "1")
    assert run_under_hash_seed(LOAD, "2", dumped).split() == [b"True"] * 4


def test_a_structure_pickles_after_a_hom_search():
    x = hm.chain(3)
    h = hm.Morphism(x, x, {a: a for a in x.carrier})
    assert _hom_tuples(x, x) and x._plan is not None
    hash(x), hash(h)
    for copied_x, copied_h in (copy.deepcopy((x, h)), pickle.loads(pickle.dumps((x, h)))):
        assert not hasattr(copied_x, "_plan") and copied_x._hash is None
        assert copied_x._sorted_carrier is None and copied_h._hash is None
        assert copied_x == x and hash(copied_x) == hash(x) and copied_h == h
        assert copied_x.sorted_carrier() == x.sorted_carrier()
        assert copied_x.tuples("le") == x.tuples("le") and copied_h.source is copied_x
        assert _hom_tuples(copied_x, copied_x) == _hom_tuples(x, x)
