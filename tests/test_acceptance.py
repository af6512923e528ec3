"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here is exact (discrete arithmetic, no tolerances).  Exhaustive
ranges are reduced to isomorphism-class representatives where the checked
property is isomorphism-invariant; sampling, where allowed, is seed-fixed.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import hornmod as hm
from hornmod.cli import main as cli_main
from hornmod.families import all_models, all_structures, dedup_by_iso, sample_family
from hornmod.quantale import all_vcategories, all_vfunctors, vfunctor_to_morphism

from conftest import (
    boolean_bridge_models_agree,
    boolean_vcat_to_preorder,
    cli_corpus_commands,
    dedup_morphisms,
)

CORPUS = Path(__file__).resolve().parents[1] / "src" / "hornmod" / "corpus"


def _report(num: int, passed: bool, description: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {num}: {description}"


def _labeled_models(theory, max_size):
    return [
        s
        for s in all_structures(theory.signature, max_size, cap=None)
        if hm.is_model(s, theory)
    ]


def test_criterion_01_free_model_correctness():
    pos = hm.poset_theory()
    cases = sample_family(dedup_by_iso(all_structures(pos.signature, 3, cap=None)), 500, 0)
    targets = all_models(pos, 2, cap=None)
    ok = True
    for a in cases:
        result = hm.free_model(pos, a)
        if not hm.is_model(result.model, pos):
            ok = False
            break
        for m in targets:
            lifts_pool = hm.enumerate_morphisms(result.model, m)
            for g in hm.enumerate_morphisms(a, m):
                lifts = [h for h in lifts_pool if hm.compose(h, result.unit_map) == g]
                if len(lifts) != 1:
                    ok = False
    _report(1, ok, f"free models over {len(cases)} structures are models and satisfy "
                   f"the universal property against {len(targets)} targets")


def test_criterion_02_str_partial_products():
    theory = hm.reflexive_theory()
    structures = dedup_by_iso(all_structures(theory.signature, 2, cap=None))
    family = structures
    checked = 0
    ok = True
    for x in structures:
        for z in structures:
            for f in hm.enumerate_morphisms(x, z):
                for y in structures:
                    pp = hm.partial_product_str(y, f)
                    checked += 1
                    if not hm.verify_partial_product(f, y, pp, family).passed:
                        ok = False
    _report(2, ok, f"{checked} plain partial products verified against "
                   f"{len(family)} test objects")


def test_criterion_03_cartesian_closure_of_preorders():
    preord = hm.preorder_theory()
    xs = all_models(preord, 3, cap=None)
    family = all_models(preord, 2, cap=None)
    ok = True
    for x in xs:
        for y in xs:
            exp = hm.exponential_object(x, y)
            if not hm.is_model(exp.structure, preord):
                ok = False
                continue
            if not hm.verify_exponential(x, y, exp, family).passed:
                ok = False
    chain2 = hm.chain(2)
    ok &= hm.hom_count(chain2, chain2) == 3
    ok &= hm.are_isomorphic(hm.exponential_object(chain2, chain2).structure, hm.chain(3))
    _report(3, ok, f"exponentials of {len(xs)}^2 preorder pairs verified against "
                   f"{len(family)} test objects; hom and chain shapes match")


def _all_poset_maps():
    pos = hm.poset_theory()
    posets = _labeled_models(pos, 3)
    return pos, [f for x in posets for z in posets for f in hm.enumerate_morphisms(x, z)]


def _interpolation_lifting(f):
    x, z = f.source, f.target
    for x1 in x.carrier:
        for x3 in x.carrier:
            if not x.holds("le", (x1, x3)):
                continue
            for z2 in z.carrier:
                if z.holds("le", (f(x1), z2)) and z.holds("le", (z2, f(x3))):
                    if not any(
                        f(x2) == z2 and x.holds("le", (x1, x2)) and x.holds("le", (x2, x3))
                        for x2 in x.carrier
                    ):
                        return False
    return True


def test_criterion_04_convexity_is_interpolation_lifting():
    pos, maps = _all_poset_maps()
    ok = all(hm.is_convex(f, pos) == _interpolation_lifting(f) for f in maps)
    _report(4, ok, f"convexity equals the interpolation-lifting oracle on "
                   f"{len(maps)} monotone maps")


def test_criterion_05_dual_oracle_convexity():
    pos, maps = _all_poset_maps()
    reps = dedup_morphisms(maps)
    ok = all(hm.is_convex(f, pos) == hm.is_convex_via_lifting(f, pos) for f in reps)
    _report(5, ok, f"direct and lifting-based convexity agree on {len(reps)} "
                   f"map classes covering {len(maps)} maps")


def test_criterion_06_safety_classification():
    preord = hm.preorder_theory()
    trans = hm.is_safe_axiom(preord.axioms[0], preord)
    sym_theory = hm.reflexive_symmetric_theory()
    sym = hm.is_safe_axiom(sym_theory.axioms[0], sym_theory)
    ok = (
        trans.safe
        and trans.witness_dict()["y"] == "x"
        and not trans.very_safe
        and sym.safe
        and sym.very_safe
    )
    _report(6, ok, "transitivity safe (witness collapses y to x) but not very safe; "
                   "symmetry very safe")


def test_criterion_07_convex_implies_exponentiable():
    # Both halves over posets: every convex map class passes partial-product
    # verification, and every other one has a Y whose P* is not a model,
    # which refutes its exponentiability.
    pos, maps = _all_poset_maps()
    reps = dedup_morphisms(maps)
    ys = all_models(pos, 2, cap=None)
    family = ys
    convex_failures = 0
    non_convex = refuted = 0
    for f in reps:
        convex = hm.is_convex(f, pos)
        saw_nonmodel = False
        for y in ys:
            pp = hm.partial_product(pos, y, f)
            model_ok = hm.is_model(pp.structure, pos)
            if convex and not (model_ok and hm.verify_partial_product(f, y, pp, family).passed):
                convex_failures += 1
            saw_nonmodel |= not model_ok
        if not convex:
            non_convex += 1
            refuted += saw_nonmodel
    ok = convex_failures == 0 and refuted == non_convex == 12
    _report(7, ok, f"all convex map classes pass partial-product verification; "
                   f"{refuted} of {non_convex} non-convex map classes have a Y on at most "
                   f"2 points whose P* is not a poset")


def test_criterion_08_convex_maps_form_a_topology():
    preord = hm.preorder_theory()
    objects = all_models(preord, 3, cap=None)
    by_source = {}
    all_maps = []
    for x in objects:
        for z in objects:
            for f in hm.enumerate_morphisms(x, z):
                all_maps.append(f)
                by_source.setdefault(hash(f.source), []).append(f)
    convex_maps = [f for f in all_maps if hm.is_convex(f, preord)]

    rng = random.Random(8)
    ok = True
    composed = 0
    while composed < 200:
        f = rng.choice(convex_maps)
        nexts = [g for g in by_source.get(hash(f.target), []) if g.source == f.target]
        candidates = [g for g in nexts if hm.is_convex(g, preord)]
        if not candidates:
            continue
        g = rng.choice(candidates)
        if not hm.is_convex(hm.compose(g, f), preord):
            ok = False
        composed += 1

    squares = 0
    while squares < 200:
        f = rng.choice(convex_maps)
        anchors = [g for g in all_maps if g.target == f.target]
        if not anchors:
            continue
        g = rng.choice(anchors)
        pb = hm.pullback(f, g)
        if not hm.is_convex(pb.right, preord):
            ok = False
        squares += 1

    iso_checked = 0
    for x in objects:
        for h in hm.enumerate_morphisms(x, x):
            inverse_exists = any(
                hm.compose(k, h) == hm.identity_morphism(x)
                and hm.compose(h, k) == hm.identity_morphism(x)
                for k in hm.enumerate_morphisms(x, x)
            )
            if inverse_exists:
                iso_checked += 1
                if not hm.is_convex(h, preord):
                    ok = False
    _report(8, ok, f"convexity closed under {composed} compositions and {squares} "
                   f"pullbacks; {iso_checked} isomorphisms convex (seed 8)")


def test_criterion_09_transitive_models_are_exponentiating():
    theory = hm.reflexive_theory()
    xs = all_models(theory, 2, cap=None)
    ys = [y for y in xs if hm.is_transitive(y)]
    family = xs
    ok = True
    for x in xs:
        for y in ys:
            exp = hm.exponential_object(x, y)
            if not hm.is_model(exp.structure, theory):
                ok = False
            if not hm.verify_exponential(x, y, exp, family).passed:
                ok = False
    _report(9, ok, f"exponentials into {len(ys)} transitive reflexive targets from "
                   f"{len(xs)} reflexive objects are models and verify")


def test_criterion_10_boolean_quantale_bridge():
    v = hm.boolean_quantale()
    vcat = hm.theory_vcat(v)
    preord = hm.preorder_theory()
    ok = boolean_bridge_models_agree()

    cats = [g for size in (0, 1, 2) for g in all_vcategories(v, size)]
    checked = 0
    for gx in cats:
        for gz in cats:
            for h in all_vfunctors(gx, gz):
                f = vfunctor_to_morphism(h)
                monotone = hm.Morphism(
                    boolean_vcat_to_preorder(f.source),
                    boolean_vcat_to_preorder(f.target),
                    dict(f.mapping),
                )
                checked += 1
                if hm.is_schema_convex(f, vcat).convex != hm.is_convex(monotone, preord):
                    ok = False
    _report(10, ok, f"model translation bijective at sizes <= 3; schema convexity "
                    f"matches order convexity on {checked} maps")


def test_criterion_11_distance_form_equivalence():
    ok = True
    checked = 0
    for v in (hm.boolean_quantale(), hm.chain_meet_quantale(3)):
        theory = hm.theory_vcat(v)
        cats = [g for size in (0, 1, 2) for g in all_vcategories(v, size)]
        for gx in cats:
            for gz in cats:
                for h in all_vfunctors(gx, gz):
                    checked += 1
                    got = hm.is_schema_convex(vfunctor_to_morphism(h), theory).convex
                    if got != hm.ch_condition_oracle(h, v):
                        ok = False
    _report(11, ok, f"schema convexity equals the distance-form condition on "
                    f"{checked} maps over two quantales")


def test_criterion_12_schema_safety():
    meet3 = hm.theory_vcat(hm.chain_meet_quantale(3))
    luk = hm.theory_pmet(hm.lukasiewicz_quantale())
    gen_meet = hm.is_schema_safe(meet3.schemas[0], meet3)
    gen_luk = hm.is_schema_safe(luk.schemas[0], luk)
    ok = gen_meet.safe and not gen_luk.safe and gen_luk.meet_violation is not None
    for v in (hm.boolean_quantale(), hm.chain_meet_quantale(3), hm.lukasiewicz_quantale()):
        pmet = hm.theory_pmet(v)
        sym = next(s for s in pmet.schemas if s.name == "symmetry")
        ok &= hm.is_schema_safe(sym, pmet).very_safe
    _report(12, ok, "generalized transitivity safe over the meet chain, unsafe over "
                    f"truncated addition (violation {gen_luk.meet_violation}); "
                    "symmetry very safe everywhere")


def test_criterion_13_quantale_law_checker():
    ok = all(
        hm.check_quantale_laws(v).ok
        for v in (hm.boolean_quantale(), hm.chain_meet_quantale(3), hm.lukasiewicz_quantale())
    )
    v = hm.chain_meet_quantale(3)
    cells = dict(((a, b), c) for a, b, c in v.tensor_pairs)
    cells[("1", "2")] = "0"
    mutated = hm.Quantale(
        v.elements, v.leq_pairs, tuple((a, b, c) for (a, b), c in cells.items()), v.unit
    )
    report = hm.check_quantale_laws(mutated)
    ok &= not report.ok and all(f.witness for f in report.failures[:1])
    _report(13, ok, "builtin quantales pass the laws; a one-cell tensor mutation "
                    "fails with a witness")


# Runs every command in one interpreter and prints their stdout as a JSON list.
HASH_SEED_SCRIPT = """
import io, json, sys
from contextlib import redirect_stdout
from hornmod.cli import main
outputs = []
for argv in json.loads(sys.argv[1]):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        main(argv)
    outputs.append(buffer.getvalue())
print(json.dumps(outputs))
"""


def test_criterion_14_cli_determinism(tmp_path):
    commands = cli_corpus_commands(tmp_path)
    runs = []
    for _ in range(2):  # twice in this process, so kept data cannot change the bytes
        outputs = []
        for argv in commands:
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                cli_main(argv)
            outputs.append(buffer.getvalue())
        runs.append(outputs)
    # and once per hash seed, one interpreter each, so set order cannot either
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT, json.dumps(commands)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout))
    ok = all(run == runs[0] for run in runs) and all(runs[0])
    _report(14, ok, f"{len(commands)} CLI commands produced byte-identical output "
                    "across repeated runs and under PYTHONHASHSEED 0 and 12345")
