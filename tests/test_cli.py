import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hornmod as hm
from hornmod.cli import main
from hornmod.serialize import (
    dumps, morphism_to_jsonable, structure_to_jsonable, theory_to_jsonable,
)

from conftest import cli_corpus_commands, mutated_document

CORPUS = Path(__file__).resolve().parents[1] / "src" / "hornmod" / "corpus"


def run_cli(*argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


def corpus(name):
    return str(CORPUS / name)


def assert_one_line_input_error(*argv):
    """Run the CLI as a process: exit 2, no stdout, one ``error:`` line, no traceback."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-m", "hornmod.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    return proc.stderr


def test_check_model_affirmative():
    code, out = run_cli(
        "check-model", "--theory", corpus("preord.theory.json"),
        "--structure", corpus("chain2.structure.json"),
    )
    assert code == 0
    assert json.loads(out)["is_model"] is True


def test_check_model_negative_with_witness(tmp_path):
    broken = hm.Structure(hm.preorder_theory().signature, ["a"], [])
    path = tmp_path / "broken.structure.json"
    path.write_text(dumps(structure_to_jsonable(broken)), encoding="utf-8")
    code, out = run_cli(
        "check-model", "--theory", corpus("preord.theory.json"), "--structure", str(path)
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["is_model"] is False
    assert payload["witness"]["valuation"] == {"v0": "a"}


def test_signature_mismatch_is_input_error():
    code, _ = run_cli(
        "check-model", "--theory", corpus("boolean-vcat.theory.json"),
        "--structure", corpus("chain2.structure.json"),
    )
    assert code == 2


def test_malformed_json_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _ = run_cli("check-model", "--theory", str(bad),
                      "--structure", corpus("chain2.structure.json"))
    assert code == 2


@pytest.mark.parametrize("kind, message", [
    ("missing", "error: no such file: "), ("directory", "cannot read: "),
    ("not-utf8", "not UTF-8 text"), ("deep-nesting", "JSON nested too deeply"),
])
def test_unreadable_input_is_one_line_input_error(tmp_path, kind, message):
    path = tmp_path / "doc.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b'{"format": 1, "name": "\xff"}')
    elif kind == "deep-nesting":
        path.write_text("[" * 200_000, encoding="utf-8")
    err = assert_one_line_input_error("check-model", "--theory", corpus("preord.theory.json"),
                                      "--structure", str(path))
    assert message in err and str(path) in err


MALFORMED_DOCUMENTS = [
    ("check-model", "--theory", [], "--structure", "chain2.structure.json"),
    ("limit", "terminal", "--signature",
     {"format": 1, "symbols": [{"arity": 2}], "order": {"kind": "discrete"}}),
    ("entails", "--theory", "preord.theory.json", "--formula",
     {"premises": [], "conclusion": {"equal": ["x"]}}),
    ("entails", "--theory", "preord.theory.json", "--formula",
     {"premises": [], "conclusion": {"edge": {"symbol": "nope", "args": ["x", "x"]}}}),
    ("entails", "--theory", "preord.theory.json", "--formula",
     {"premises": [], "conclusion": {"edge": {"symbol": "le", "args": ["x"]}}}),
]


@pytest.mark.parametrize("argv", MALFORMED_DOCUMENTS, ids=[
    "list-theory", "nameless-symbol", "one-sided-equality", "unknown-conclusion-symbol",
    "conclusion-arity",
])
def test_malformed_document_is_one_line_input_error(tmp_path, argv):
    args = []
    for arg in argv:
        if isinstance(arg, (list, dict)):
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(arg), encoding="utf-8")
            arg = str(path)
        elif arg.endswith(".json"):
            arg = corpus(arg)
        args.append(arg)
    assert_one_line_input_error(*args)


@pytest.mark.parametrize("command, theory, morphism", [
    ("convexity", "preord.theory.json", "vcat-interp-fail.morphism.json"),
    ("schema-convexity", "boolean-vcat.theory.json", "interp-fail.morphism.json"),
    ("schema-convexity", "chain3-meet-vcat.theory.json", "vcat-interp-fail.morphism.json"),
], ids=["discrete-theory", "quantale-theory", "other-quantale"])
def test_convexity_of_a_map_over_another_signature_is_one_line_input_error(
        command, theory, morphism):
    err = assert_one_line_input_error(command, "--theory", corpus(theory),
                                      "--morphism", corpus(morphism))
    assert "different signatures" in err


def test_lifting_under_a_theory_over_another_signature_is_one_line_input_error(tmp_path):
    # A theory over R with no eligible axioms checks no square: the lifting
    # oracle must still refuse a map over le, as the direct method does.
    theory = tmp_path / "reflexive.theory.json"
    theory.write_text(dumps(theory_to_jsonable(hm.reflexive_theory())), encoding="utf-8")
    err = assert_one_line_input_error("convexity", "--method", "lifting", "--theory", str(theory),
                                      "--morphism", corpus("chain3-id.morphism.json"))
    assert "different signatures" in err


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_corpus_commands_keep_exit_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = data.draw(st.sampled_from(cli_corpus_commands(Path(tmp))))
        where = data.draw(st.sampled_from([i for i, a in enumerate(argv) if a.endswith(".json")]))
        doc = mutated_document(json.loads(Path(argv[where]).read_text(encoding="utf-8")), data)
        path = Path(tmp) / "mutated.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv[where] = str(path)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2)


def test_free_model(tmp_path):
    seed = hm.Structure(
        hm.poset_theory().signature,
        ["a", "b"],
        [hm.edge("le", "a", "b"), hm.edge("le", "b", "a")],
    )
    path = tmp_path / "seed.structure.json"
    path.write_text(dumps(structure_to_jsonable(seed)), encoding="utf-8")
    code, out = run_cli("free-model", "--theory", corpus("pos.theory.json"),
                        "--structure", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["model"]["carrier"] == ["a"]
    assert payload["unit_map"] == {"a": "a", "b": "a"}


def test_limit_terminal(tmp_path):
    sig_doc = json.loads((CORPUS / "chain2.structure.json").read_text())["signature"]
    path = tmp_path / "sig.json"
    path.write_text(dumps(sig_doc), encoding="utf-8")
    code, out = run_cli("limit", "terminal", "--signature", str(path))
    assert code == 0
    assert json.loads(out)["structure"]["carrier"] == ["*"]


def test_limit_product():
    code, out = run_cli("limit", "product", "--left", corpus("chain2.structure.json"),
                        "--right", corpus("chain2.structure.json"))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["structure"]["carrier"]) == 4
    assert len(payload["structure"]["edges"]) == 9


def test_exponential_verified():
    code, out = run_cli(
        "exponential", "--theory", corpus("preord.theory.json"),
        "--base", corpus("chain2.structure.json"),
        "--target", corpus("chain2.structure.json"),
        "--verify", "--max-q", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["exponential"]["carrier"]) == 3
    assert payload["is_model"] is True
    assert payload["verification"]["passed"] is True
    assert payload["verification"]["tested"] == 5


def test_partial_product_refl():
    code, out = run_cli(
        "partial-product", "--variant", "refl",
        "--morphism", corpus("interp-fail.morphism.json"),
        "--target", corpus("chain2.structure.json"), "--verify",
    )
    assert code == 0
    assert json.loads(out)["verification"]["passed"] is True


def test_partial_product_refl_of_a_non_base_model_is_one_line_input_error(tmp_path):
    doc = json.loads(Path(corpus("chain2.structure.json")).read_text(encoding="utf-8"))
    doc["edges"] = [e for e in doc["edges"] if e["args"] != ["c1", "c1"]]  # no loop at c1
    path = tmp_path / "loopless.structure.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    stderr = assert_one_line_input_error(
        "partial-product", "--variant", "refl",
        "--morphism", corpus("interp-fail.morphism.json"), "--target", str(path))
    assert stderr == "error: partial product object is not a model of the theory\n"


def test_convexity_both_methods_agree():
    code, out = run_cli(
        "convexity", "--theory", corpus("preord.theory.json"),
        "--morphism", corpus("interp-fail.morphism.json"), "--method", "both",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["by_method"]["direct"] == payload["by_method"]["lifting"] is False
    assert payload["counterexample"]["valuation"] == {"x": "c0", "y": "c1", "z": "c2"}


def test_safety_listing():
    code, out = run_cli("safety", "--theory", corpus("pos.theory.json"))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["axioms"]) == 1  # the equality axiom is not listed
    entry = payload["axioms"][0]
    assert entry["safe"] is True and entry["very_safe"] is False
    assert entry["witness"]["y"] == "x"


def test_safety_of_one_axiom_by_index(tmp_path):
    sig = hm.preorder_theory().signature
    symmetry = hm.horn([hm.edge("le", "x", "y")], hm.edge("le", "y", "x"))
    theory = hm.Theory(sig, hm.preorder_theory().axioms + (symmetry,))
    path = tmp_path / "equivalence.theory.json"
    path.write_text(dumps(theory_to_jsonable(theory)))
    code, out = run_cli("safety", "--theory", str(path))
    listed = json.loads(out)["axioms"]
    assert code == 0 and len(listed) == 2
    for index, entry in enumerate(listed):
        code, out = run_cli("safety", "--theory", str(path), "--axiom-index", str(index))
        assert code == 0 and json.loads(out)["axioms"] == [entry]
    for index in ("5", "-1"):
        err = assert_one_line_input_error("safety", "--theory", str(path), "--axiom-index", index)
        assert f"axiom index {index} out of range" in err


def test_schema_commands():
    code, out = run_cli(
        "schema-convexity", "--theory", corpus("boolean-vcat.theory.json"),
        "--morphism", corpus("vcat-interp-fail.morphism.json"),
    )
    assert code == 1
    assert json.loads(out)["convex"] is False

    code, out = run_cli("schema-safety", "--theory", corpus("chain3-lukasiewicz-pmet.theory.json"))
    assert code == 0
    payload = {s["schema"]: s for s in json.loads(out)["schemas"]}
    assert payload["generalized_transitivity"]["safe"] is False
    assert payload["generalized_transitivity"]["meet_violation"] is not None
    assert payload["symmetry"]["very_safe"] is True


def test_schema_convexity_rejects_a_table_falsely_declared_monotone(tmp_path):
    # the swap table is not monotone; the empty morphism has no lift to reach it
    sig = hm.signature_of(hm.boolean_quantale())
    theory = json.loads((CORPUS / "boolean-vcat.theory.json").read_text(encoding="utf-8"))
    theory["schemas"] = [{"schema": {
        "name": "swap", "arity": 2, "premises": [["x", "y"]], "conclusion": ["x", "y"],
        "combine": {"table": {"~0": "~1", "~1": "~0"}}, "monotone": True}}]
    empty = hm.identity_morphism(hm.Structure(sig, (), ()))
    theory_path, morphism_path = tmp_path / "swap.theory.json", tmp_path / "empty.morphism.json"
    theory_path.write_text(json.dumps(theory), encoding="utf-8")
    morphism_path.write_text(dumps(morphism_to_jsonable(empty)), encoding="utf-8")
    err = assert_one_line_input_error("schema-convexity", "--theory", str(theory_path),
                                      "--morphism", str(morphism_path))
    assert "declared monotone" in err


@pytest.mark.parametrize("command, combine", [
    ("check-model", {"constant": "~zz"}),
    ("classify", {"constant": "~zz"}),
    ("schema-safety", {"constant": "~zz"}),
    ("free-model", {"constant": "~zz"}),
    ("schema-safety", {"table": {"~0": "~1", "~1": "~zz"}}),
])
def test_schema_combining_to_an_unknown_symbol_is_one_line_input_error(tmp_path, command, combine):
    sig = hm.signature_of(hm.boolean_quantale())
    theory = json.loads((CORPUS / "boolean-vcat.theory.json").read_text(encoding="utf-8"))
    theory["schemas"] = [{"schema": {
        "name": "unknown", "arity": 2, "premises": [["x", "y"]], "conclusion": ["y", "x"],
        "combine": combine}}]
    theory_path, point_path = tmp_path / "unknown.theory.json", tmp_path / "point.structure.json"
    theory_path.write_text(json.dumps(theory), encoding="utf-8")
    point = hm.Structure(sig, ["a"], [hm.edge(s.name, "a", "a") for s in sig.symbols])
    point_path.write_text(dumps(structure_to_jsonable(point)), encoding="utf-8")
    argv = [command, "--theory", str(theory_path)]
    if command in ("check-model", "free-model"):
        argv += ["--structure", str(point_path)]
    assert "'~zz'" in assert_one_line_input_error(*argv)


def _schema_theory(tmp_path, base, schema, symbols=None):
    """The corpus theory ``base`` with ``schema`` for its axioms, and ``symbols`` if given."""
    theory = json.loads((CORPUS / base).read_text(encoding="utf-8"))
    theory["axioms"], theory["schemas"] = [], [{"schema": schema}]
    if symbols is not None:
        theory["signature"]["symbols"] = symbols
    path = tmp_path / "schema.theory.json"
    path.write_text(json.dumps(theory), encoding="utf-8")
    return str(path)


DISCRETE_SCHEMA_THEORIES = {
    # premise T x y y, conclusion T x x y: unsafe, yet classify used to say quasitopos
    "t3": ({"name": "unsafe", "arity": 3, "premises": [["x", "y", "y"]],
            "conclusion": ["x", "x", "y"], "combine": {"projection": 0}},
           [{"name": "T", "arity": 3}]),
    # transitivity as a schema: the non-convex interp-fail map used to read convex
    "preord": ({"name": "trans", "arity": 2, "premises": [["x", "y"], ["y", "z"]],
                "conclusion": ["x", "z"], "combine": {"projection": 0}}, None),
}


@pytest.mark.parametrize("command", ["classify", "convexity"])
@pytest.mark.parametrize("document", sorted(DISCRETE_SCHEMA_THEORIES))
def test_schemas_over_a_discrete_signature_are_one_line_input_errors(tmp_path, command, document):
    # a discrete order with one symbol per arity passes the Heyting check, but
    # flat convexity and safety read only the axioms and would ignore the schema
    schema, symbols = DISCRETE_SCHEMA_THEORIES[document]
    argv = [command, "--theory", _schema_theory(tmp_path, "preord.theory.json", schema, symbols)]
    if command == "convexity":
        argv += ["--method", "both", "--morphism", corpus("interp-fail.morphism.json")]
    assert "require a complete-Heyting symbol order" in assert_one_line_input_error(*argv)


@pytest.mark.parametrize("command", ["classify", "schema-safety", "schema-convexity"])
@pytest.mark.parametrize("arity", [0, 3])
def test_schema_arity_without_symbols_is_one_line_input_error(tmp_path, command, arity):
    schema = {"name": "lonely", "arity": arity, "premises": [["x"] * arity],
              "conclusion": ["x"] * arity, "combine": {"projection": 0}}
    argv = [command, "--theory", _schema_theory(tmp_path, "boolean-vcat.theory.json", schema)]
    if command == "schema-convexity":
        argv += ["--morphism", corpus("vcat-interp-fail.morphism.json")]
    err = assert_one_line_input_error(*argv)
    assert f"schema 'lonely' has arity {arity}, but the signature has no symbols" in err


def test_classify_discrete_and_schematic():
    code, out = run_cli("classify", "--theory", corpus("preord.theory.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "all_safe"
    assert payload["cartesian_closed"] is True

    code, out = run_cli("classify", "--theory", corpus("chain3-meet-vcat.theory.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["cartesian_closed"] is True
    assert payload["locally_cartesian_closed"] is False


def test_quantale_check_mutated(tmp_path):
    doc = json.loads((CORPUS / "chain3-meet.quantale.json").read_text())
    doc["tensor"]["0,2"] = "2"
    path = tmp_path / "mutated.quantale.json"
    path.write_text(dumps(doc), encoding="utf-8")
    code, out = run_cli("quantale-check", "--quantale", str(path))
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False and payload["failures"]


def test_entails_exit_codes(tmp_path):
    code, out = run_cli("entails", "--theory", corpus("preord.theory.json"),
                        "--formula", corpus("refl-entail.formula.json"))
    assert code == 0 and json.loads(out)["entails"] is True

    from hornmod.serialize import formula_to_jsonable

    converse = hm.horn([hm.edge("le", "x", "z")], hm.edge("le", "z", "x"))
    path = tmp_path / "converse.formula.json"
    path.write_text(dumps(formula_to_jsonable(converse)), encoding="utf-8")
    code, out = run_cli("entails", "--theory", corpus("preord.theory.json"),
                        "--formula", str(path))
    assert code == 1 and json.loads(out)["entails"] is False


def test_outputs_reparse():
    code, out = run_cli("free-model", "--theory", corpus("preord.theory.json"),
                        "--structure", corpus("chain2.structure.json"))
    assert code == 0
    from hornmod.serialize import parse_structure

    parse_structure(json.loads(out)["model"])


def _structure_file(tmp_path, name, carrier, le_pairs):
    sig = hm.preorder_theory().signature
    x = hm.Structure(sig, carrier, [hm.edge("le", a, b) for a, b in le_pairs])
    path = tmp_path / f"{name}.structure.json"
    path.write_text(dumps(structure_to_jsonable(x)), encoding="utf-8")
    return x, str(path)


# `exponential` builds Y^X among the base theory's models; --theory only picks
# the is_model check and the --verify family, so inputs are not checked.
LOOPS = [("a", "a"), ("b", "b"), ("c", "c")]


def test_exponential_verify_fails_on_a_family_outside_the_base_theory(tmp_path):
    # Under the empty theory the family holds the loop-free point Q: four maps
    # Q x chain2 -> chain2, but only three maps Q -> Y^X.
    doc = json.loads(Path(corpus("preord.theory.json")).read_text(encoding="utf-8"))
    doc.update(base=False, axioms=[])
    path = tmp_path / "empty.theory.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_cli(
        "exponential", "--theory", str(path), "--base", corpus("chain2.structure.json"),
        "--target", corpus("chain2.structure.json"), "--verify",
    )
    assert code == 1
    report = json.loads(out)["verification"]
    assert report["passed"] is False
    # every test is pinned: the detail names the first map Q x X -> Y that no
    # h : Q -> Y^X curries to, and `checked` counts the maps walked up to it
    q1, q2 = "q={'e0': '*'}", "q={'e0': '*', 'e1': '*'}"
    g2 = "g={'(e0,c0)': 'c0', '(e0,c1)': 'c0', '(e1,c0)': 'c1', '(e1,c1)': 'c0'}"
    assert [(t["checked"], t["ok"], t["detail"]) for t in report["tests"]] == [
        (1, True, ""),
        (3, False, f"0 mediating morphisms for {q1}, g={{'(e0,c0)': 'c1', '(e0,c1)': 'c0'}}"),
        (3, True, ""),
        (3, False, f"0 mediating morphisms for {q2}, {g2}"),
        (3, False, f"0 mediating morphisms for {q2}, {g2}"),
        (3, False, f"0 mediating morphisms for {q2}, {g2}"),
        (3, False, f"0 mediating morphisms for {q2}, {g2}"),
        (6, False, f"0 mediating morphisms for {q2}, "
                   "g={'(e0,c0)': 'c1', '(e0,c1)': 'c1', '(e1,c0)': 'c1', '(e1,c1)': 'c0'}"),
        (3, True, ""),
        (3, True, ""),
        (9, True, ""),
        (6, True, ""),
        (3, True, ""),
    ]


def test_exponential_accepts_a_non_transitive_base(tmp_path):
    base, path = _structure_file(tmp_path, "base", "abc", LOOPS + [("a", "b"), ("b", "c")])
    code, out = run_cli(
        "exponential", "--theory", corpus("preord.theory.json"), "--base", path,
        "--target", corpus("chain2.structure.json"), "--verify",
    )
    assert code == 0
    payload = json.loads(out)
    result = hm.exponential_object(base, hm.chain(2))
    assert payload["is_model"] is hm.is_model(result.structure, hm.preorder_theory())
    assert payload["verification"]["passed"] is True


def test_exponential_into_a_non_model_target_reports_is_model_false(tmp_path):
    _, base = _structure_file(tmp_path, "base", "p", [("p", "p")])
    _, target = _structure_file(tmp_path, "target", "abc", LOOPS + [("a", "b"), ("b", "c")])
    code, out = run_cli(
        "exponential", "--theory", corpus("preord.theory.json"), "--base", base,
        "--target", target,
    )
    assert code == 0
    assert json.loads(out)["is_model"] is False


def test_exponential_theory_over_another_signature_is_one_line_input_error():
    assert_one_line_input_error(
        "exponential", "--theory", corpus("boolean-vcat.theory.json"),
        "--base", corpus("chain2.structure.json"), "--target", corpus("chain2.structure.json"))


EXPONENTIAL_CHAIN2 = ("exponential", "--theory", corpus("preord.theory.json"),
                      "--base", corpus("chain2.structure.json"),
                      "--target", corpus("chain2.structure.json"), "--verify")
PARTIAL_PRODUCT_STR = ("partial-product", "--variant", "str",
                       "--morphism", corpus("interp-fail.morphism.json"),
                       "--target", corpus("chain2.structure.json"), "--verify")


@pytest.mark.parametrize("argv", [
    EXPONENTIAL_CHAIN2 + ("--cap", "-1"),
    PARTIAL_PRODUCT_STR + ("--cap", "0"),
    EXPONENTIAL_CHAIN2 + ("--max-q", "-1"),
], ids=["negative-cap", "zero-cap", "negative-max-q"])
def test_out_of_range_family_bounds_are_one_line_input_errors(argv):
    # A cap below 1 or a negative size bound would verify over no test object.
    assert_one_line_input_error(*argv)


@pytest.mark.parametrize("argv, size, slots", [(EXPONENTIAL_CHAIN2, 6, 36),
                                               (PARTIAL_PRODUCT_STR, 5, 25)],
                         ids=["exponential", "partial-product"])
def test_a_test_family_over_its_slot_budget_is_a_one_line_input_error(argv, size, slots):
    # Before, --max-q 6 generated all 6-point preorders, 15 s, before --cap applied.
    stderr = assert_one_line_input_error(*argv, "--max-q", str(size))
    assert stderr == (f"error: test family carrier size {size} has {slots} edge slots, "
                      "over the budget of 16\n")


# chain3 -> chain3 reversing the order breaks the edge le(c0, c1)
NOT_A_MORPHISM = {"c0": "c2", "c1": "c1", "c2": "c0"}


@pytest.mark.parametrize("argv", [
    ("convexity", "--theory", corpus("preord.theory.json"), "--method", "both"),
    ("partial-product", "--variant", "str", "--target", corpus("chain2.structure.json")),
    ("partial-product", "--variant", "str", "--target", corpus("chain2.structure.json"),
     "--verify"),
    ("partial-product", "--variant", "refl", "--target", corpus("chain2.structure.json")),
    ("partial-product", "--variant", "refl", "--target", corpus("chain2.structure.json"),
     "--verify"),
    ("limit", "pullback", "--left", corpus("chain3-id.morphism.json")),
    ("limit", "equalizer", "--left", corpus("chain3-id.morphism.json")),
], ids=["convexity", "pp-str", "pp-str-verify", "pp-refl", "pp-refl-verify", "pullback",
        "equalizer"])
def test_maps_that_are_not_morphisms_are_one_line_input_errors(tmp_path, argv):
    doc = json.loads(Path(corpus("chain3-id.morphism.json")).read_text(encoding="utf-8"))
    doc["map"] = NOT_A_MORPHISM
    path = tmp_path / "reversed.morphism.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    flag = "--right" if argv[0] == "limit" else "--morphism"
    stderr = assert_one_line_input_error(*argv, flag, str(path))
    assert stderr == f"error: {path}: the map does not preserve the edge 'le' ['c0', 'c1']\n"
