"""What a process imports: each CLI command loads only the modules it runs,
and the lazy package still offers the whole public API.

Module sets are read in fresh interpreters, since this test process has
imported everything already.
"""
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hornmod
from hornmod.serialize import parse_structure, parse_theory

SRC = Path(__file__).resolve().parents[1] / "src"
CORPUS = SRC / "hornmod" / "corpus"
CLI_MODULES = ["hornmod", "hornmod.cli", "hornmod.core", "hornmod.serialize"]

# The public names of the package, as its modules exported them when the
# package imported them all eagerly.
PUBLIC_NAMES = [
    "AxiomSchema", "ConvexityReport", "DISCRETE", "EXPLICIT", "Edge", "Equality",
    "EqualizerResult", "ExponentialResult", "FreeModelResult", "GroundTheory", "HornFormula",
    "HornmodError", "Morphism", "MorphismError", "PartialProductResult", "ProductResult",
    "PullbackResult", "QUANTALE", "Quantale", "QuantaleError", "QuantaleLawReport",
    "RelationSymbol", "SafetyResult", "SchemaConvexityReport", "SchemaInstance",
    "SchemaSafetyResult", "SchematicClassification", "Signature", "SignatureError", "Structure",
    "StructureError", "Theory", "TheoryClassification", "TheoryError", "VFunctor", "VGraph",
    "VerificationReport", "Violation", "__version__", "all_models", "all_structures",
    "are_isomorphic", "bang", "base_axioms", "boolean_quantale", "ch_condition_oracle", "chain",
    "chain_meet_quantale", "check_model", "check_quantale_laws", "classify_schematic_theory",
    "classify_theory", "compose", "convexity_report", "dedup_by_iso", "default_test_family",
    "discrete_poset", "edge", "entails", "enumerate_morphisms", "equalizer", "expand_instances",
    "exponential_object", "fibre_structure", "find_formula_violation", "find_isomorphism",
    "free_model", "fresh_variables", "generalized_transitivity_schema", "ground_axioms",
    "hom_count", "horn", "identity_morphism", "internal_hom", "is_convex",
    "is_convex_via_lifting", "is_convex_wrt", "is_heyting", "is_model", "is_object_convex",
    "is_reflexive", "is_reflexive_theory", "is_safe_axiom", "is_schema_convex",
    "is_schema_convex_wrt_instance", "is_schema_object_convex", "is_schema_safe",
    "is_schema_very_safe", "is_total_order", "is_transitive", "is_very_safe_axiom",
    "lukasiewicz_quantale", "pair_id", "partial_product", "partial_product_refl",
    "partial_product_str", "poset_theory", "preorder_theory", "product", "pullback",
    "reflexive_symmetric_theory", "reflexive_theory", "sample_family", "satisfies_formula",
    "signature_of", "signature_order_closure", "structure_to_vgraph", "symmetry_schema",
    "tensor", "tensor_unit", "terminal", "theory_met", "theory_pmet", "theory_vcat",
    "theory_vgph", "theory_vrgph", "validate_morphism", "var_set", "verify_exponential",
    "verify_partial_product", "vfunctor_to_morphism", "vgraph_to_structure",
]


def fresh(code: str) -> str:
    """The stdout of ``code`` run by a new interpreter that imports hornmod from ``src``."""
    paths = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = "sorted(m for m in sys.modules if m == 'hornmod' or m.startswith('hornmod.'))"


def modules_after_command(*argv: str) -> tuple[int, list[str]]:
    """The exit code of ``hornmod.cli.main(argv)`` and the hornmod modules it left loaded."""
    out = fresh(
        "import contextlib, io, json, sys\n"
        "from hornmod.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({list(argv)!r})\n"
        f"print(json.dumps([code, {LOADED}]))\n")
    code, loaded = json.loads(out)
    return code, loaded


def corpus(name: str) -> str:
    return str(CORPUS / name)


def test_importing_the_cli_loads_only_its_own_modules():
    assert json.loads(fresh(f"import json, sys, hornmod.cli; print(json.dumps({LOADED}))")) == (
        CLI_MODULES)


@pytest.mark.parametrize("argv", [
    ("check-model", "--theory", corpus("preord.theory.json"),
     "--structure", corpus("chain2.structure.json")),
    ("free-model", "--theory", corpus("pos.theory.json"),
     "--structure", corpus("chain3.structure.json")),
    ("entails", "--theory", corpus("preord.theory.json"),
     "--formula", corpus("refl-entail.formula.json")),
], ids=lambda argv: argv[0])
def test_schema_free_commands_load_only_semantics_besides(argv):
    assert modules_after_command(*argv) == (0, sorted(CLI_MODULES + ["hornmod.semantics"]))


def test_schematic_check_model_imports_schema_on_demand(tmp_path):
    theory_path = corpus("boolean-vcat.theory.json")
    doc = json.loads(Path(corpus("vcat-interp-fail.morphism.json")).read_text())
    structure_path = tmp_path / "vcat.structure.json"
    structure_path.write_text(json.dumps(doc["source"]))
    theory = parse_theory(json.loads(Path(theory_path).read_text()))
    structure = parse_structure(doc["source"])
    assert theory.schemas
    want = 0 if hornmod.check_model(structure, theory) is None else 1
    code, loaded = modules_after_command("check-model", "--theory", theory_path,
                                         "--structure", str(structure_path))
    assert code == want
    assert "hornmod.schema" in loaded


def test_public_names_are_unchanged():
    public = [n for n in dir(hornmod) if not n.startswith("_") or n == "__version__"]
    assert [n for n in public if not inspect.ismodule(getattr(hornmod, n))] == PUBLIC_NAMES


def test_each_name_is_the_object_of_its_defining_module():
    for module, names in hornmod._EXPORTS.items():
        defining = importlib.import_module(f"hornmod.{module}")
        for name in names:
            obj = getattr(hornmod, name)
            assert obj is getattr(defining, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == defining.__name__, name


def test_first_read_loads_the_whole_api_and_dir_does_not():
    out = fresh(f"import json, sys, hornmod\n"
                f"before, names = {LOADED}, dir(hornmod)\n"
                f"core = hornmod.core\n"
                f"print(json.dumps([before, names == dir(hornmod), core.__name__, {LOADED}]))")
    before, same_dir, core, after = json.loads(out)
    assert before == ["hornmod"]
    assert same_dir
    assert core == "hornmod.core"
    assert after == sorted(["hornmod"] + [f"hornmod.{m}" for m in hornmod._EXPORTS])


def test_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        hornmod.no_such_name
