import pytest

import hornmod as hm
from hornmod.families import all_structures
from hornmod.semantics import check_model


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
