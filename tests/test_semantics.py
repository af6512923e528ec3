import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import hornmod as hm
from hornmod import semantics
from hornmod.families import all_structures
from hornmod.semantics import _value_tuples, check_model

from conftest import (
    HORN_SIGNATURE,
    TRUST_SIGNATURE,
    edge_axioms,
    equality_axioms,
    horn_theories,
    reference_check_model,
    reference_entails,
    reference_free_model,
    reference_value_tuples,
    trust_edges,
    trust_structures,
)


def reflexive_chain2_edges():
    return [hm.edge("le", "c0", "c0"), hm.edge("le", "c1", "c1"), hm.edge("le", "c0", "c1")]


def test_vacuous_premises_satisfied(preord, chain2):
    # no edge ever matches a premise on a fresh symbol tuple that is absent
    formula = hm.horn(
        [hm.edge("le", "x", "y"), hm.edge("le", "y", "x")], hm.edge("le", "x", "x")
    )
    no_loops = hm.Structure(preord.signature, ["a", "b"], [hm.edge("le", "a", "b")])
    assert hm.satisfies_formula(no_loops, formula)


def test_transitivity_on_chain(preord, chain2):
    assert hm.satisfies_formula(chain2, preord.axioms[0])


def test_antisymmetry_violation(pos):
    x = hm.Structure(
        pos.signature,
        ["a", "b"],
        [
            hm.edge("le", "a", "a"),
            hm.edge("le", "b", "b"),
            hm.edge("le", "a", "b"),
            hm.edge("le", "b", "a"),
        ],
    )
    antisym = pos.axioms[1]
    violation = hm.find_formula_violation(x, antisym)
    assert violation == {"x": "a", "y": "b"}
    assert not hm.satisfies_formula(x, antisym)


def test_terminal_is_model(preord):
    assert hm.is_model(hm.terminal(preord.signature), preord)


def test_missing_loop_witness(preord):
    x = hm.Structure(preord.signature, ["a", "b"], [hm.edge("le", "b", "b"), hm.edge("le", "a", "b")])
    violation = check_model(x, preord)
    assert violation is not None
    assert not violation.axiom.premises  # reflexivity fails first
    assert violation.valuation_dict()["v0"] == "a"


def test_transitivity_witness(preord):
    x = hm.Structure(
        preord.signature,
        ["a", "b", "c"],
        [
            hm.edge("le", "a", "a"),
            hm.edge("le", "b", "b"),
            hm.edge("le", "c", "c"),
            hm.edge("le", "a", "b"),
            hm.edge("le", "b", "c"),
        ],
    )
    violation = check_model(x, preord)
    assert violation is not None
    assert violation.axiom == preord.axioms[0]
    assert violation.valuation_dict() == {"x": "a", "y": "b", "z": "c"}


def test_free_model_fixpoint_is_identity(preord, chain2):
    result = hm.free_model(preord, chain2)
    assert result.model == chain2
    assert result.unit_map == hm.identity_morphism(chain2)


def test_free_model_merges_cycle(pos):
    x = hm.Structure(
        pos.signature, ["a", "b"], [hm.edge("le", "a", "b"), hm.edge("le", "b", "a")]
    )
    result = hm.free_model(pos, x)
    assert result.model.sorted_carrier() == ("a",)
    assert result.model.edges == {hm.edge("le", "a", "a")}
    assert result.unit_map.mapping == {"a": "a", "b": "a"}


def test_free_model_reflexive_closure(preord):
    x = hm.Structure(preord.signature, ["x", "z"], [hm.edge("le", "x", "z")])
    result = hm.free_model(preord, x)
    assert result.model.edges == {
        hm.edge("le", "x", "x"),
        hm.edge("le", "z", "z"),
        hm.edge("le", "x", "z"),
    }


def test_entails_examples(preord):
    assert hm.entails(preord, hm.horn([hm.edge("le", "x", "z")], hm.edge("le", "x", "x")))
    assert hm.entails(preord, hm.horn([hm.edge("le", "x", "z")], hm.edge("le", "x", "z")))
    assert not hm.entails(preord, hm.horn([hm.edge("le", "x", "z")], hm.edge("le", "z", "x")))


def test_reflexivity_checks(preord):
    assert hm.is_reflexive(hm.terminal(preord.signature))
    assert hm.is_reflexive_theory(preord)
    bare = hm.Theory(hm.reflexive_theory().signature, (), (), base_flag=False)
    assert not hm.is_reflexive_theory(bare)


def test_transitivity_checks(preord, chain3):
    assert hm.is_transitive(chain3)
    x = hm.Structure(
        preord.signature, ["a", "b", "c"], [hm.edge("le", "a", "b"), hm.edge("le", "b", "c")]
    )
    assert not hm.is_transitive(x)
    assert hm.is_transitive(hm.Structure(preord.signature, ["a"], []))


def test_transitivity_needs_binary():
    sig = hm.Signature((hm.RelationSymbol("T", 3),))
    with pytest.raises(hm.SignatureError):
        hm.is_transitive(hm.Structure(sig, ["a"], []))


def test_free_model_idempotent(pos):
    for x in all_structures(pos.signature, 2, cap=None):
        first = hm.free_model(pos, x).model
        assert hm.free_model(pos, first).model == first
        assert hm.is_model(first, pos)


def test_free_model_unit_is_morphism(pos):
    for x in all_structures(pos.signature, 2, cap=None):
        result = hm.free_model(pos, x)
        assert hm.validate_morphism(result.unit_map)


def test_satisfaction_invariant_under_renaming(preord, chain2):
    original = preord.axioms[0]
    renamed = hm.horn(
        [hm.edge("le", "p", "q"), hm.edge("le", "q", "r")], hm.edge("le", "p", "r")
    )
    for x in all_structures(preord.signature, 2, cap=None):
        assert hm.satisfies_formula(x, original) == hm.satisfies_formula(x, renamed)


def test_formula_checks_refuse_symbols_outside_the_signature(chain2):
    formula = hm.horn((hm.edge("Q", "x", "y"),), hm.edge("Q", "y", "x"))
    for check in (hm.find_formula_violation, hm.satisfies_formula):
        with pytest.raises(hm.TheoryError, match="formula premise uses unknown symbol 'Q'"):
            check(chain2, formula)


@pytest.mark.parametrize("premises, conclusion, message", [
    ([], hm.edge("nope", "x", "x"), "formula conclusion uses unknown symbol 'nope'"),
    ([], hm.edge("le", "x"), "formula conclusion .* has wrong arity"),
    ([hm.edge("nope", "x", "x")], hm.edge("le", "x", "x"), "formula premise uses unknown"),
    ([hm.edge("le", "x")], hm.edge("le", "x", "x"), "formula premise .* has wrong arity"),
], ids=["conclusion-symbol", "conclusion-arity", "premise-symbol", "premise-arity"])
def test_entails_rejects_formulas_outside_the_signature(preord, premises, conclusion, message):
    with pytest.raises(hm.TheoryError, match=message):
        hm.entails(preord, hm.horn(premises, conclusion))


def test_entails_agrees_with_model_enumeration(preord):
    # sound direction must hold; the converse is a sanity property that holds
    # for these formulas because the generic free models are small
    formulas = [
        hm.horn([hm.edge("le", "x", "z")], hm.edge("le", "x", "x")),
        hm.horn([hm.edge("le", "x", "z")], hm.edge("le", "z", "x")),
        hm.horn([hm.edge("le", "x", "y"), hm.edge("le", "y", "z")], hm.edge("le", "x", "z")),
        hm.horn([], hm.edge("le", "v", "v")),
        hm.horn([hm.edge("le", "x", "y")], hm.edge("le", "y", "x")),
    ]
    models = [s for s in all_structures(preord.signature, 3, cap=None) if hm.is_model(s, preord)]
    for formula in formulas:
        semantic = all(hm.satisfies_formula(m, formula) for m in models)
        assert hm.entails(preord, formula) == semantic


# Element names whose string order differs from their numeric order.
ELEMENTS = ("e10", "e2", "e1", "e0")


@st.composite
def horn_structures(draw, max_size=4):
    """Random structures over ``{P/1, R/2}`` on 0 to ``max_size`` points."""
    carrier = ELEMENTS[:draw(st.integers(0, max_size))]
    slots = [hm.edge("P", a) for a in carrier]
    slots += [hm.edge("R", a, b) for a in carrier for b in carrier]
    keep = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    return hm.Structure(HORN_SIGNATURE, carrier, [e for e, k in zip(slots, keep) if k])


@settings(max_examples=200, deadline=None)
@given(horn_theories(), horn_structures())
# The conclusion-only x sorts before the premise variables y and z.
@example(hm.Theory(HORN_SIGNATURE, (hm.horn([hm.edge("R", "y", "z")], hm.edge("P", "x")),), (),
                   base_flag=False),
         hm.Structure(HORN_SIGNATURE, ["e1", "e2"], [hm.edge("P", "e2"), hm.edge("R", "e2", "e1")]))
# Binding the premise variable y first would report x e2, y e1, not x e1, y e2.
@example(hm.Theory(HORN_SIGNATURE, (hm.horn([hm.edge("P", "y")], hm.edge("R", "x", "y")),), (),
                   base_flag=False),
         hm.Structure(HORN_SIGNATURE, ["e1", "e2"], [hm.edge("P", "e1"), hm.edge("P", "e2"),
                                                      hm.edge("R", "e1", "e1")]))
def test_check_model_matches_reference(theory, x):
    assert check_model(x, theory) == reference_check_model(x, theory)


def test_reader_reads_any_number_of_positions():
    values = ("a", "b", "c")
    assert [semantics._reader(at)(values) for at in ((), (1,), (2, 0, 2))] == [
        (), ("b",), ("c", "a", "c")]


@st.composite
def kernel_cases(draw):
    """A structure, distinct variables, one domain per variable drawn in any
    order and of any length (empty included), and edges on the variables."""
    x = draw(trust_structures("a"))
    carrier = x.sorted_carrier()
    variables = tuple(draw(st.lists(st.sampled_from("uvwx"), unique=True, max_size=4)))
    domain = st.lists(st.sampled_from(carrier), unique=True) if carrier else st.just([])
    domains = [draw(domain) for _ in variables]
    edges = draw(st.lists(trust_edges(variables), max_size=4)) if variables else []
    return x, variables, domains, edges


KERNEL_STRUCTURE = hm.Structure(TRUST_SIGNATURE, ["a0", "a1"], [
    hm.edge("P", "a0"), hm.edge("R", "a0", "a0"), hm.edge("R", "a0", "a1"),
    hm.edge("T", "a0", "a1", "a1"), hm.edge("T", "a0", "a0", "a1")])


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
# No variables; an empty domain; a repeated argument, with all three symbols.
@example((KERNEL_STRUCTURE, (), [], []))
@example((KERNEL_STRUCTURE, ("u", "v"), [["a1", "a0"], []], [hm.edge("R", "u", "v")]))
@example((KERNEL_STRUCTURE, ("u", "v", "w"), [["a1", "a0"], ["a0", "a1"], ["a1"]],
          [hm.edge("P", "u"), hm.edge("R", "u", "u"), hm.edge("T", "u", "v", "w")]))
def test_value_tuples_match_product_filter(case):
    x, variables, domains, edges = case
    assert list(_value_tuples(x, variables, domains, edges)) == reference_value_tuples(
        x, variables, domains, edges)


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
# No positions; an empty domain; an empty carrier; a last position with no check.
@example((KERNEL_STRUCTURE, (), [], []))
@example((KERNEL_STRUCTURE, ("u", "v"), [["a1", "a0"], []], [hm.edge("R", "u", "v")]))
@example((hm.Structure(TRUST_SIGNATURE, [], []), ("u", "v"), [[], []], [hm.edge("P", "u")]))
@example((KERNEL_STRUCTURE, ("u", "v", "w"), [["a0", "a1"], ["a1", "a0"], ["a0", "a1"]],
          [hm.edge("R", "u", "v"), hm.edge("P", "u")]))
@example((KERNEL_STRUCTURE, ("u",), [["a1", "a0"]], [hm.edge("R", "u", "u")]))
def test_count_matches_the_run(case):
    x, variables, domains, edges = case
    checks = semantics._checks(variables, ((x.tuples(s), args) for s, args in edges))
    assert semantics._count(checks, domains) == sum(1 for _ in semantics._run(checks, domains))


def _r(a, b):
    return hm.edge("R", a, b)


# Three premises on one symbol, so a round takes the middle premise from the
# delta with a premise on R before it (old edges) and after it (all edges);
# a seven-point R-cycle needs several rounds before the equality merges.
SEVEN_CYCLE = [f"e{i}" for i in range(7)]


@settings(max_examples=150, deadline=None)
@given(horn_theories(), horn_structures(),
       st.lists(st.one_of(edge_axioms, equality_axioms), max_size=3))
@example(
    hm.Theory(HORN_SIGNATURE, (
        hm.horn([_r("x", "y"), _r("y", "z"), _r("z", "w")], _r("x", "w")),
        hm.horn([_r("x", "y"), _r("y", "x")], hm.Equality("x", "y")),
    ), (), base_flag=False),
    hm.Structure(HORN_SIGNATURE, SEVEN_CYCLE, [hm.edge("P", "e0")] + [
        _r(a, b) for a, b in zip(SEVEN_CYCLE, SEVEN_CYCLE[1:] + SEVEN_CYCLE[:1])]),
    [hm.horn([_r("x", "y"), _r("y", "z")], _r("x", "z"))],
)
# The delta tuple R a b must not match the premise R y y of a round.
@example(
    hm.Theory(HORN_SIGNATURE, (
        hm.horn([hm.edge("P", "x")], _r("x", "y")),
        hm.horn([_r("y", "y")], hm.edge("P", "y")),
    ), (), base_flag=False),
    hm.Structure(HORN_SIGNATURE, ["a", "b"], [hm.edge("P", "a")]),
    [],
)
# Premise-free axioms fire in the round that merges b and c; the reflexive
# edge must hold at the representative b after the merge.
@example(
    hm.Theory(HORN_SIGNATURE, (
        hm.horn([], _r("x", "x")),
        hm.horn([hm.edge("P", "x"), hm.edge("P", "y")], hm.Equality("x", "y")),
    ), (), base_flag=False),
    hm.Structure(HORN_SIGNATURE, ["a", "b", "c"], [hm.edge("P", "b"), hm.edge("P", "c")]),
    [],
)
def test_free_model_matches_reference(theory, x, formulas):
    got, want = hm.free_model(theory, x), reference_free_model(theory, x)
    assert got.model == want.model and got.unit_map == want.unit_map
    for formula in formulas:
        assert hm.entails(theory, formula) == reference_entails(theory, formula)


def test_free_model_rematches_after_a_merge():
    # Merging e1 and e2 joins R e0 e1 and R e2 e3 into a path that no edge of
    # the merging round took part in; the next round must match it.
    theory = hm.Theory(HORN_SIGNATURE, (
        hm.horn([hm.edge("P", "x"), hm.edge("P", "y")], hm.Equality("x", "y")),
        hm.horn([hm.edge("R", "x", "y"), hm.edge("R", "y", "z")], hm.edge("R", "x", "z")),
    ), (), base_flag=False)
    x = hm.Structure(HORN_SIGNATURE, ["e0", "e1", "e2", "e3"], [
        hm.edge("R", "e0", "e1"), hm.edge("R", "e2", "e3"), hm.edge("P", "e1"), hm.edge("P", "e2"),
    ])
    got, want = hm.free_model(theory, x), reference_free_model(theory, x)
    assert got.model == want.model and got.unit_map == want.unit_map
    assert got.model.holds("R", ("e0", "e3"))


def layered_graph_with_back_edges(layers=8, width=3, seed=0):
    """24 points in layers of three, each point with edges into the next layer,
    and back edges closing cycles at both ends and in the middle."""
    rng = random.Random(seed)
    points = [[f"v{layer * width + i:02d}" for i in range(width)] for layer in range(layers)]
    pairs = set()
    for upper, lower in zip(points, points[1:]):
        for a in upper:
            pairs.update((a, b) for b in rng.sample(lower, 2))
        for b in lower:
            if not any((a, b) in pairs for a in upper):
                pairs.add((upper[0], b))
    for upper, lower in (points[0:2], points[3:5], points[-2:]):
        a, b = next((a, b) for a, b in sorted(pairs) if a in upper and b in lower)
        pairs.add((b, a))
    carrier = list(itertools.chain.from_iterable(points))
    return hm.Structure(hm.poset_theory().signature, carrier,
                        [hm.edge("le", a, b) for a, b in pairs])


def test_delta_rounds_match_only_valuations_that_use_a_new_edge(pos, preord, monkeypatch):
    # Semi-naive evaluation: every round matches only valuations that take some
    # premise from its delta, and between two merges no match is found twice,
    # in one round or in two.  Under pos the layered graph merges points in its
    # first round and a six-point cycle only in its third, so the round after
    # that merge has old edges to forget; under preord nothing merges, so
    # every round shares one carrier.
    found = []  # (carrier, delta, rule, values) of every premise match, deltas kept alive
    matches = semantics._Rule.matches

    def spy(rule, carrier, edges, old, delta):
        for values in matches(rule, carrier, edges, old, delta):
            if rule.premises:  # premise-free matches depend only on the carrier
                found.append((carrier, delta, rule, values))
            yield values

    monkeypatch.setattr(semantics._Rule, "matches", spy)
    layered = layered_graph_with_back_edges()
    cycle = [f"c{i}" for i in range(6)]
    six_cycle = hm.Structure(pos.signature, cycle, [
        hm.edge("le", a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])])
    for theory, x, merges in ((pos, layered, True), (preord, layered, False),
                              (pos, six_cycle, True)):
        found.clear()
        got, want = hm.free_model(theory, x), reference_free_model(theory, x)
        assert got.model == want.model and got.unit_map == want.unit_map
        between_merges = {}  # carrier -> (ids of the rounds' deltas, matches)
        for carrier, delta, rule, values in found:
            val = dict(zip(rule.variables, values))
            assert any(tuple(val[a] for a in p.args) in delta.get(p.symbol, ())
                       for p in rule.premises)
            rounds, matched = between_merges.setdefault(carrier, (set(), []))
            rounds.add(id(delta))
            matched.append((rule, values))
        assert (len(between_merges) > 1) == merges
        assert any(len(rounds) > 2 for rounds, _ in between_merges.values())
        for _, matched in between_merges.values():
            assert len(set(matched)) == len(matched)


def test_free_poset_of_layered_graph_matches_reference(pos):
    x = layered_graph_with_back_edges()
    got, want = hm.free_model(pos, x), reference_free_model(pos, x)
    assert got.model == want.model
    assert got.unit_map == want.unit_map
    # The back edges collapse some points, and the result is a poset.
    assert len(got.model.carrier) < len(x.carrier)
    assert hm.is_model(got.model, pos)
