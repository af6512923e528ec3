import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hornmod as hm
from hornmod.schema import ConstantSymbol, ExplicitTable, PremiseProjection, TensorComposite
from hornmod.serialize import (
    ParseError,
    dumps,
    formula_to_jsonable,
    morphism_to_jsonable,
    parse_formula,
    parse_morphism,
    parse_quantale,
    parse_signature,
    parse_structure,
    parse_theory,
    quantale_to_jsonable,
    signature_to_jsonable,
    structure_to_jsonable,
    theory_to_jsonable,
)

from conftest import interp_fail_morphism, mutated_document, preorder_to_boolean_vcat

CORPUS = Path(__file__).resolve().parents[1] / "src" / "hornmod" / "corpus"


def test_signature_roundtrip(preord):
    for sig in (
        preord.signature,
        hm.signature_of(hm.boolean_quantale()),
        hm.Signature(
            tuple(hm.RelationSymbol(n, 2) for n in "RS"), hm.EXPLICIT, (("R", "S"),)
        ),
    ):
        assert parse_signature(signature_to_jsonable(sig)) == sig


def test_structure_roundtrip(chain3):
    assert parse_structure(structure_to_jsonable(chain3)) == chain3


def test_morphism_roundtrip():
    f = interp_fail_morphism()
    assert parse_morphism(morphism_to_jsonable(f)) == f


def test_formula_roundtrip(pos):
    for ax in pos.axioms:
        assert parse_formula(formula_to_jsonable(ax)) == ax


def test_theory_roundtrip(preord, pos):
    # Named "symmetry" but combining to a constant, so it is not the builtin.
    symmetry = hm.symmetry_schema()
    custom = hm.AxiomSchema("symmetry", 2, symmetry.premises, symmetry.conclusion,
                            ConstantSymbol("~1"))
    # one custom schema per combine kind; the table is listed out of label order
    transitivity = hm.generalized_transitivity_schema()
    table = ExplicitTable(((("~1", "~0"), "~0"), (("~0", "~1"), "~0"),
                           (("~1", "~1"), "~1"), (("~0", "~0"), "~0")))
    combines = [(TensorComposite(), True), (PremiseProjection(1), False),
                (ConstantSymbol("~1"), True), (table, False)]
    composites = [hm.AxiomSchema("composite", 2, transitivity.premises, transitivity.conclusion,
                                 combine, monotone) for combine, monotone in combines]
    for theory in (
        preord,
        pos,
        hm.reflexive_symmetric_theory(),
        hm.theory_vcat(hm.boolean_quantale()),
        hm.theory_pmet(hm.lukasiewicz_quantale()),
        hm.theory_met(hm.chain_meet_quantale(3)),
        hm.theory_vgph(hm.boolean_quantale()),
        hm.Theory(hm.signature_of(hm.boolean_quantale()), (), (custom, symmetry)),
        hm.Theory(hm.signature_of(hm.boolean_quantale()), (), composites),
    ):
        assert parse_theory(theory_to_jsonable(theory)) == theory


def test_quantale_roundtrip():
    for v in (hm.boolean_quantale(), hm.chain_meet_quantale(3), hm.lukasiewicz_quantale()):
        assert parse_quantale(quantale_to_jsonable(v)) == v


def test_dumps_is_stable(chain2):
    doc = structure_to_jsonable(chain2)
    assert dumps(doc) == dumps(json.loads(dumps(doc)))


def test_parse_rejects_bad_conclusion():
    with pytest.raises(ParseError):
        parse_formula({"premises": [], "conclusion": {"nope": 1}})


def test_parse_rejects_unknown_format(chain2):
    doc = structure_to_jsonable(chain2)
    doc["format"] = 99
    with pytest.raises(ParseError):
        parse_structure(doc)


def test_corpus_files_match_builders():
    builders = {
        "preord.theory.json": theory_to_jsonable(hm.preorder_theory()),
        "pos.theory.json": theory_to_jsonable(hm.poset_theory()),
        "refl-sym.theory.json": theory_to_jsonable(hm.reflexive_symmetric_theory()),
        "boolean-vcat.theory.json": theory_to_jsonable(hm.theory_vcat(hm.boolean_quantale())),
        "chain3-meet-vcat.theory.json": theory_to_jsonable(
            hm.theory_vcat(hm.chain_meet_quantale(3))
        ),
        "chain3-lukasiewicz-pmet.theory.json": theory_to_jsonable(
            hm.theory_pmet(hm.lukasiewicz_quantale())
        ),
        "boolean.quantale.json": quantale_to_jsonable(hm.boolean_quantale()),
        "chain3-meet.quantale.json": quantale_to_jsonable(hm.chain_meet_quantale(3)),
        "chain3-lukasiewicz.quantale.json": quantale_to_jsonable(hm.lukasiewicz_quantale()),
        "chain2.structure.json": structure_to_jsonable(hm.chain(2)),
        "chain3.structure.json": structure_to_jsonable(hm.chain(3)),
        "interp-fail.morphism.json": morphism_to_jsonable(interp_fail_morphism()),
        "chain3-id.morphism.json": morphism_to_jsonable(
            hm.identity_morphism(hm.chain(3))
        ),
        "refl-entail.formula.json": formula_to_jsonable(
            hm.horn([hm.edge("le", "x", "z")], hm.edge("le", "x", "x"))
        ),
        "vcat-interp-fail.morphism.json": morphism_to_jsonable(
            hm.Morphism(
                preorder_to_boolean_vcat(interp_fail_morphism().source),
                preorder_to_boolean_vcat(interp_fail_morphism().target),
                dict(interp_fail_morphism().mapping),
            )
        ),
    }
    for name, payload in builders.items():
        on_disk = (CORPUS / name).read_text(encoding="utf-8")
        assert on_disk == dumps(payload), f"corpus file {name} drifted from its builder"


def test_corpus_files_all_parse():
    parsers = {"theory": parse_theory, "structure": parse_structure,
               "morphism": parse_morphism, "quantale": parse_quantale,
               "formula": parse_formula}
    for path in sorted(CORPUS.glob("*.json")):
        kind = path.name.split(".")[-2]
        doc = json.loads(path.read_text(encoding="utf-8"))
        parsers[kind](doc)


PARSERS = {"theory": parse_theory, "structure": parse_structure, "morphism": parse_morphism,
           "quantale": parse_quantale, "formula": parse_formula}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(CORPUS.glob("*.json"))), st.data())
def test_mutated_corpus_documents_raise_only_hornmod_errors(path, data):
    doc = mutated_document(json.loads(path.read_text(encoding="utf-8")), data)
    try:
        PARSERS[path.name.split(".")[-2]](doc)
    except hm.HornmodError:
        pass
