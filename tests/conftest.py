import itertools
import json
from pathlib import Path

import pytest
from hypothesis import strategies as st

import hornmod as hm
from hornmod.families import all_models, all_structures

CORPUS = Path(__file__).resolve().parents[1] / "src" / "hornmod" / "corpus"


@pytest.fixture(scope="session")
def preord():
    return hm.preorder_theory()


@pytest.fixture(scope="session")
def pos():
    return hm.poset_theory()


@pytest.fixture(scope="session")
def chain2():
    return hm.chain(2)


@pytest.fixture(scope="session")
def chain3():
    return hm.chain(3)


def interp_fail_morphism():
    """Monotone {a<=c} -> 3-chain hitting the endpoints; the middle fibre is empty."""
    T = hm.preorder_theory()
    x = hm.Structure(
        T.signature,
        ["a", "c"],
        [hm.edge("le", "a", "a"), hm.edge("le", "c", "c"), hm.edge("le", "a", "c")],
    )
    return hm.Morphism(x, hm.chain(3), {"a": "c0", "c": "c2"})


def non_join_preserving_quantale():
    """The diamond 0 < a, b < 1 whose tensor (a (x) b = 0, unit 1) does not preserve joins."""
    return hm.Quantale(
        elements=("0", "a", "b", "1"),
        leq_pairs=(("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")),
        tensor_pairs=tuple(
            (x, y, x if y == "1" else y if x == "1" else "0")
            for x in ("0", "a", "b", "1")
            for y in ("0", "a", "b", "1")
        ),
        unit="1",
    )


def morphism_iso_key(f):
    """Canonical form of a morphism under independent relabelling of both ends."""
    xs, zs = f.source.sorted_carrier(), f.target.sorted_carrier()
    best = None
    for px in itertools.permutations(range(len(xs))):
        rx = {xs[i]: f"a{px[i]}" for i in range(len(xs))}
        xe = tuple(
            sorted(hm.Edge(e.symbol, tuple(rx[a] for a in e.args)) for e in f.source.edges)
        )
        for pz in itertools.permutations(range(len(zs))):
            rz = {zs[i]: f"b{pz[i]}" for i in range(len(zs))}
            ze = tuple(
                sorted(hm.Edge(e.symbol, tuple(rz[a] for a in e.args)) for e in f.target.edges)
            )
            mp = tuple(sorted((rx[k], rz[v]) for k, v in f.mapping.items()))
            key = (len(xs), len(zs), xe, ze, mp)
            if best is None or key < best:
                best = key
    return best


def dedup_morphisms(morphisms):
    seen, out = set(), []
    for f in morphisms:
        key = morphism_iso_key(f)
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out


def preorder_to_boolean_vcat(struct):
    """The structure over the Boolean-quantale signature matching a preorder."""
    sig = hm.signature_of(hm.boolean_quantale())
    edges = []
    for a in struct.carrier:
        for b in struct.carrier:
            edges.append(hm.edge("~0", a, b))
            if struct.holds("le", (a, b)):
                edges.append(hm.edge("~1", a, b))
    return hm.Structure(sig, struct.carrier, edges)


def boolean_vcat_to_preorder(struct):
    sig = hm.preorder_theory().signature
    edges = [hm.edge("le", *args) for args in struct.tuples("~1")]
    return hm.Structure(sig, struct.carrier, edges)


def boolean_bridge_models_agree():
    """Boolean-quantale V-categories translate onto the preorders, per size up to 3.

    The V-category side is generated; the preorder side filters all
    structures with ``is_model``, so it stays an independent oracle.
    """
    vcat = hm.theory_vcat(hm.boolean_quantale())
    preord = hm.preorder_theory()
    vcats = all_models(vcat, 3, iso=False, cap=None)
    ok = True
    for n in (0, 1, 2, 3):
        vb = [s for s in vcats if len(s.carrier) == n]
        pr = [
            s
            for s in all_structures(preord.signature, n, cap=None)
            if len(s.carrier) == n and hm.is_model(s, preord)
        ]
        translated = {boolean_vcat_to_preorder(s) for s in vb}
        ok &= len(vb) == len(pr) == len(translated) and translated == set(pr)
    return ok


def cli_corpus_commands(tmp_path):
    """The corpus CLI commands of criterion 14 (writes one signature file to tmp_path)."""
    def c(name):
        return str(CORPUS / name)

    sig_path = tmp_path / "sig.json"
    sig_doc = json.loads((CORPUS / "chain2.structure.json").read_text())["signature"]
    sig_path.write_text(json.dumps(sig_doc), encoding="utf-8")
    return [
        ["check-model", "--theory", c("preord.theory.json"),
         "--structure", c("chain2.structure.json")],
        ["free-model", "--theory", c("preord.theory.json"),
         "--structure", c("chain2.structure.json")],
        ["limit", "terminal", "--signature", str(sig_path)],
        ["limit", "product", "--left", c("chain2.structure.json"),
         "--right", c("chain3.structure.json")],
        ["limit", "pullback", "--left", c("interp-fail.morphism.json"),
         "--right", c("chain3-id.morphism.json")],
        ["limit", "equalizer", "--left", c("interp-fail.morphism.json"),
         "--right", c("interp-fail.morphism.json")],
        ["partial-product", "--variant", "str",
         "--morphism", c("interp-fail.morphism.json"),
         "--target", c("chain2.structure.json"), "--verify", "--seed", "0"],
        ["exponential", "--theory", c("preord.theory.json"),
         "--base", c("chain2.structure.json"), "--target", c("chain2.structure.json"),
         "--verify", "--max-q", "2", "--seed", "0"],
        ["partial-product", "--variant", "refl",
         "--morphism", c("interp-fail.morphism.json"),
         "--target", c("chain2.structure.json"), "--verify", "--seed", "0"],
        ["convexity", "--theory", c("preord.theory.json"),
         "--morphism", c("interp-fail.morphism.json"), "--method", "both"],
        ["safety", "--theory", c("pos.theory.json")],
        ["schema-convexity", "--theory", c("boolean-vcat.theory.json"),
         "--morphism", c("vcat-interp-fail.morphism.json")],
        ["schema-safety", "--theory", c("chain3-lukasiewicz-pmet.theory.json")],
        ["classify", "--theory", c("preord.theory.json")],
        ["classify", "--theory", c("chain3-meet-vcat.theory.json")],
        ["quantale-check", "--quantale", c("chain3-lukasiewicz.quantale.json")],
        ["entails", "--theory", c("preord.theory.json"),
         "--formula", c("refl-entail.formula.json")],
    ]


JSON_VALUES = st.sampled_from([None, 0, 2, "x", [], {}, True, 1.5, ["x"], ["x", "y", "z"]])


def _json_paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _json_paths(value, prefix + (key,))


def mutated_document(doc, data):
    """``doc`` with the value at one drawn path (the root included) replaced by a drawn one."""
    where = data.draw(st.sampled_from(list(_json_paths(doc))))
    value = data.draw(JSON_VALUES)
    if not where:
        return value
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    return doc
