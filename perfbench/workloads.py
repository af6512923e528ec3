"""The four workloads: seeded inputs, the query list, and each query's check.

A query is one user-level request: one family, one construction plus its
verification, one verdict, or one CLI call.  Set-up generates every input
from the seed (hornmod only ever receives the generated values or JSON
documents) and computes the reference answers it can compute up front.
Each query's ``check`` compares a result with its reference answer and
returns a message when they disagree.

Query lists have a fixed shape: the seed picks the structures, never how
many queries of each kind there are or their sizes, so a pass costs about
the same under every seed.  Queries look hornmod functions up when they run,
so the traced run sees its wrappers.
"""
from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Optional

import reference as ref


def canonical(value) -> str:
    """A text form of a result that does not depend on set iteration order."""
    if dataclasses.is_dataclass(value):
        return f"{type(value).__name__}({canonical(dataclasses.astuple(value))})"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(canonical(v) for v in value)) + "}"
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(canonical(v) for v in value) + ")"
    if isinstance(value, dict):
        return "{" + ", ".join(sorted(f"{canonical(k)}: {canonical(v)}"
                                      for k, v in value.items())) + "}"
    return repr(value)


@dataclass
class Query:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    canon: Callable[[Any], str] = canonical
    errored: Callable[[Any], bool] = lambda result: False
    replay: Optional[Callable[[], Any]] = None  # cli only: the same request in-process


# --- helpers shared by the in-process workloads ------------------------------

def edge_set(x) -> frozenset:
    return frozenset((e.symbol, tuple(e.args)) for e in x.edges)


def canon_structure(x) -> str:
    return f"{sorted(x.carrier)}|{sorted(edge_set(x))}"


def canon_structures(xs) -> str:
    return "\n".join(canon_structure(x) for x in xs)


def pairs_of(x, symbol="le") -> set:
    return {args for s, args in edge_set(x) if s == symbol}


def names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def random_preorder(rng, carrier, p=0.35) -> set:
    pairs = {(a, b) for a in carrier for b in carrier if a != b and rng.random() < p}
    return ref.reflexive_transitive_closure(carrier, pairs)


def random_poset(rng, carrier, p=0.45) -> set:
    hidden = list(carrier)
    rng.shuffle(hidden)
    pairs = {(a, b) for i, a in enumerate(hidden) for b in hidden[i + 1:] if rng.random() < p}
    return ref.reflexive_transitive_closure(carrier, pairs)


def random_relation(rng, carrier, share=0.5) -> set:
    """A fixed number of random pairs, so structures of one size cost about the same."""
    slots = [(a, b) for a in carrier for b in carrier]
    return set(rng.sample(slots, math.ceil(share * len(slots))))


def to_structure(hm, sig, carrier, pairs, symbol="le"):
    return hm.Structure(sig, carrier, [hm.Edge(symbol, ab) for ab in sorted(pairs)])


def first_problem(*problems) -> Optional[str]:
    return next((p for p in problems if p), None)


def expect(label, got, want) -> Optional[str]:
    return None if got == want else f"{label}: got {got!r}, want {want!r}"


# --- families ---------------------------------------------------------------

# (symbols, largest carrier, number of theories) for the random Horn theories.
# The many cheap ones put the median among them; the fixed ladder holds p90.
RANDOM_THEORY_SHAPES = (
    ((("R", 2),), 3, 20),
    ((("P", 1), ("R", 2)), 2, 100),
)
HORN_VARIABLES = ("x", "y", "z")


def random_edge(rng, symbols, variables):
    name, arity = rng.choice(symbols)
    return (name, tuple(rng.choice(variables) for _ in range(arity)))


def random_axioms(rng, symbols, with_equality: bool):
    """Two edge axioms, plus an equality axiom when asked."""
    axioms = []
    for _ in range(2):
        premises = {random_edge(rng, symbols, HORN_VARIABLES) for _ in range(rng.randint(1, 2))}
        axioms.append((tuple(sorted(premises)), ("edge",) + random_edge(rng, symbols, HORN_VARIABLES)))
    if with_equality:
        binary = [s for s in symbols if s[1] == 2]
        premises = {(rng.choice(binary)[0], rng.choice((("x", "y"), ("y", "x"))))}
        if rng.random() < 0.5:
            premises.add(random_edge(rng, symbols, ("x", "y")))
        axioms.append((tuple(sorted(premises)), ("eq", "x", "y")))
    return axioms


def to_theory(hm, symbols, axioms, base: bool):
    sig = hm.Signature(tuple(hm.RelationSymbol(n, a) for n, a in symbols))
    formulas = []
    for premises, conclusion in axioms:
        head = (hm.Equality(conclusion[1], conclusion[2]) if conclusion[0] == "eq"
                else hm.Edge(conclusion[1], conclusion[2]))
        formulas.append(hm.horn([hm.Edge(s, args) for s, args in premises], head))
    return hm.Theory(sig, tuple(formulas), (), base_flag=base)


def check_family(result, axioms, symbols, max_size, iso, counts=None, complete=False,
                 expected=None) -> Optional[str]:
    """Check a returned family against the naive checker and the references.

    Every member must be a model on a canonical carrier, members must be
    distinct (up to isomorphism when ``iso``), per-size counts must match
    ``counts``, and with ``complete`` the family must cover every model the
    naive enumeration finds (every class, when ``iso``).
    """
    seen = set()
    sizes = Counter()
    for x in result:
        n = len(x.carrier)
        carrier = names("e", n)
        if sorted(x.carrier) != carrier or n > max_size:
            return f"unexpected carrier {sorted(x.carrier)}"
        edges = edge_set(x)
        if not ref.is_model(carrier, edges, axioms):
            return f"returned a non-model {canon_structure(x)}"
        key = ref.canonical_form(carrier, edges) if iso else (n, edges)
        if key in seen:
            return f"duplicate member {canon_structure(x)}"
        seen.add(key)
        sizes[n] += 1
    if counts is not None:
        got = tuple(sizes[n] for n in range(len(counts)))
        if got != tuple(counts):
            return f"models per size {got}, want {tuple(counts)}"
    if expected is not None and seen != expected:
        return f"model set differs from the reference ({len(seen)} vs {len(expected)})"
    if complete:
        want = set()
        for n in range(max_size + 1):
            carrier = names("e", n)
            for edges in ref.all_edge_sets(symbols, carrier):
                if ref.is_model(carrier, edges, axioms):
                    want.add(ref.canonical_form(carrier, edges) if iso else (n, edges))
        if seen != want:
            return f"family has {len(seen)} members, the naive enumeration {len(want)}"
    return None


LADDER = (("boolean", 2), ("meet3", 3), ("lukasiewicz", 3))
# The theory ladder over a quantale and the laws its models' distances obey.
LADDER_LAWS = {
    "vgph": (),
    "vrgph": ("reflexive",),
    "vcat": ("reflexive", "transitive"),
    "pmet": ("reflexive", "transitive", "symmetric"),
    "met": ("reflexive", "transitive", "symmetric", "separated"),
}


def quantale_of(hm, name):
    return {"boolean": hm.boolean_quantale, "meet3": lambda: hm.chain_meet_quantale(3),
            "lukasiewicz": hm.lukasiewicz_quantale}[name]()


def ladder_models(name, levels, kind, max_size):
    """Reference model set of a ladder theory from distance tables."""
    tensor = ref.chain_tensor(name, levels)
    out = set()
    for n in range(max_size + 1):
        carrier = names("e", n)
        for d in ref.distance_tables(levels, carrier, tensor, LADDER_LAWS[kind]):
            out.add((n, ref.table_edges(d, carrier)))
    return out


def ladder_family(hm, v, kind):
    theory = getattr(hm, f"theory_{kind}")(v)
    return hm.default_test_family(theory.signature, 2, theory=theory)


def families(hm, seed, workdir):
    rng = random.Random(seed)
    queries = []
    discrete = (("preorder", hm.preorder_theory()), ("poset", hm.poset_theory()),
                ("reflexive", hm.reflexive_theory()),
                ("reflexive_symmetric", hm.reflexive_symmetric_theory()))
    for name, theory in discrete:
        axioms = ref.BUILTIN_AXIOMS[name]
        symbols = tuple((s.name, s.arity) for s in theory.signature.symbols)
        queries += [
            Query("all_models_iso", lambda t=theory: hm.all_models(t, 3, iso=True, cap=None),
                  lambda r, a=axioms, s=symbols, n=name: check_family(
                      r, a, s, 3, True, ref.UNLABELED_COUNTS[n][:4]), canon_structures),
            Query("all_models", lambda t=theory: hm.all_models(t, 3, iso=False, cap=None),
                  lambda r, a=axioms, s=symbols, n=name: check_family(
                      r, a, s, 3, False, ref.LABELED_COUNTS[n][:4]), canon_structures),
            Query("default_test_family",
                  lambda t=theory: hm.default_test_family(t.signature, 2, theory=t),
                  lambda r, a=axioms, s=symbols, n=name: check_family(
                      r, a, s, 2, True, ref.UNLABELED_COUNTS[n][:3]), canon_structures),
        ]
    for qname, levels in LADDER:
        v = quantale_of(hm, qname)
        for kind in LADDER_LAWS:
            want = ladder_models(qname, levels, kind, 2)
            classes = {ref.canonical_form(names("e", n), edges) for n, edges in want}
            queries += [
                Query("ladder_models",
                      lambda v=v, kind=kind: hm.all_models(
                          getattr(hm, f"theory_{kind}")(v), 2, iso=False, cap=None),
                      lambda r, want=want: check_family(r, (), (), 2, False, expected=want),
                      canon_structures),
                Query("ladder_family", lambda v=v, kind=kind: ladder_family(hm, v, kind),
                      lambda r, classes=classes: check_family(r, (), (), 2, True,
                                                              expected=classes),
                      canon_structures),
            ]
    index = 0
    for symbols, max_size, count in RANDOM_THEORY_SHAPES:
        for _ in range(count):
            base = index % 3 == 0
            axioms = random_axioms(rng, symbols, with_equality=index % 4 == 3)
            theory = to_theory(hm, symbols, axioms, base)
            if base:
                axioms = [ref.reflexivity(n, a) for n, a in symbols] + axioms
            iso = index % 2 == 1
            queries.append(Query(
                "random_theory",
                lambda t=theory, k=max_size, iso=iso: hm.all_models(t, k, iso=iso, cap=None),
                lambda r, a=axioms, s=symbols, k=max_size, iso=iso: check_family(
                    r, a, s, k, iso, complete=True),
                canon_structures))
            index += 1
    return queries


# --- constructions ----------------------------------------------------------

# (|X|, |Y|, fewest and most homs X -> Y): the hom count is the exponential's
# size and sets its cost, so each slot draws preorders until it fits.
EXPONENTIAL_SLOTS = ((3, 3, 12, 15), (3, 3, 8, 10), (3, 2, 4, 6), (3, 3, 12, 15), (2, 3, 5, 8),
                     (3, 3, 8, 10)) * 18
STR_SIZES = ((2, 2, 2), (2, 1, 2), (1, 2, 2), (2, 2, 1)) * 30
REFL_SIZES = ((3, 3, 2), (3, 2, 2), (2, 3, 2), (3, 3, 1)) * 24
LIMIT_SIZES = ((3, 3), (3, 2), (2, 3), (2, 2), (3, 3)) * 6


def random_map(rng, x_carrier, x_pairs, z_carrier, z_pairs):
    maps = ref.homs(x_carrier, x_pairs, z_carrier, z_pairs)
    return rng.choice(maps) if maps else None


def random_morphism(rng, make, xc, zc, convex_only=False):
    """Random relations from ``make`` on both carriers and a random map between them."""
    while True:
        xp, zp = make(rng, xc), make(rng, zc)
        f = random_map(rng, xc, xp, zc, zp)
        if f is not None and (not convex_only or ref.interpolation_convex(xc, xp, zc, zp, f)):
            return xp, zp, f


def check_verified(report, family_size) -> Optional[str]:
    if len(report.entries) != family_size:
        return f"verified against {len(report.entries)} test objects, want {family_size}"
    return None if report.passed else f"verification failed: {report.entries[-1].detail}"


def canon_construction(result) -> str:
    built, report = result
    structure = getattr(built, "structure", built)
    return f"{canon_structure(structure)}|{report.passed}|{report.counts()}"


def check_product(result, x_pairs, y_pairs, allowed) -> Optional[str]:
    """The carrier is in bijection with ``allowed`` pairs and edges are componentwise."""
    struct, left, right = result
    pair = {p: (left.mapping[p], right.mapping[p]) for p in struct.carrier}
    if sorted(pair.values()) != sorted(allowed):
        return "product carrier is not the set of allowed pairs"
    want = {(p, q) for p in struct.carrier for q in struct.carrier
            if (pair[p][0], pair[q][0]) in x_pairs and (pair[p][1], pair[q][1]) in y_pairs}
    return expect("product edges", pairs_of(struct), want)


def constructions(hm, seed, workdir):
    rng = random.Random(seed)
    preord, pos, refl = hm.preorder_theory(), hm.poset_theory(), hm.reflexive_theory()
    order_sig, rel_sig = preord.signature, refl.signature
    # The verifiers' test families are built here, so families work shows in setup_s.
    preorder_family = hm.all_models(preord, 2, cap=None)
    poset_family = hm.all_models(pos, 2, cap=None)
    relation_family = hm.dedup_by_iso(hm.all_structures(rel_sig, 2, cap=None))
    preorder_axioms, poset_axioms = ref.BUILTIN_AXIOMS["preorder"], ref.BUILTIN_AXIOMS["poset"]
    queries = []

    for a, b, fewest, most in EXPONENTIAL_SLOTS:
        xc, yc = names("x", a), names("y", b)
        for _ in range(10000):
            xp, yp = random_preorder(rng, xc), random_preorder(rng, yc)
            hom_count = len(ref.homs(xc, xp, yc, yp))
            if fewest <= hom_count <= most:
                break
        else:
            raise RuntimeError(f"no preorders {a} -> {b} with {fewest}..{most} homs")
        x, y = to_structure(hm, order_sig, xc, xp), to_structure(hm, order_sig, yc, yp)

        def run(x=x, y=y):
            exp = hm.exponential_object(x, y)
            return exp, hm.verify_exponential(x, y, exp, preorder_family)

        def check(result, hom_count=hom_count):
            exp, report = result
            carrier = sorted(exp.structure.carrier)
            return first_problem(
                expect("exponential points", len(carrier), hom_count),
                None if ref.is_model(carrier, edge_set(exp.structure), preorder_axioms)
                else "exponential of preorders is not a preorder",
                check_verified(report, len(preorder_family)))

        queries.append(Query("exponential", run, check, canon_construction))

    for a, c, b in STR_SIZES:
        xc, zc, yc = names("x", a), names("z", c), names("y", b)
        xp, zp, f = random_morphism(rng, random_relation, xc, zc)
        yp = random_relation(rng, yc)
        x, z = to_structure(hm, rel_sig, xc, xp, "R"), to_structure(hm, rel_sig, zc, zp, "R")
        fm, y = hm.Morphism(x, z, f), to_structure(hm, rel_sig, yc, yp, "R")

        def run(fm=fm, y=y):
            pp = hm.partial_product_str(y, fm)
            return pp, hm.verify_partial_product(fm, y, pp, relation_family)

        queries.append(Query("partial_product_str", run,
                             lambda r: check_verified(r[1], len(relation_family)),
                             canon_construction))

    for a, c, b in REFL_SIZES:
        xc, zc, yc = names("x", a), names("z", c), names("y", b)
        xp, zp, f = random_morphism(rng, random_poset, xc, zc, convex_only=True)
        y = to_structure(hm, order_sig, yc, random_poset(rng, yc))
        fm = hm.Morphism(to_structure(hm, order_sig, xc, xp),
                         to_structure(hm, order_sig, zc, zp), f)

        def run(fm=fm, y=y):
            pp = hm.partial_product_refl(y, fm)
            return pp, hm.verify_partial_product(fm, y, pp, poset_family)

        def check(result):
            pp, report = result
            carrier = sorted(pp.structure.carrier)
            return first_problem(
                None if ref.is_model(carrier, edge_set(pp.structure), poset_axioms)
                else "partial product over a convex map is not a poset",
                check_verified(report, len(poset_family)))

        queries.append(Query("partial_product_refl", run, check, canon_construction))

    for a, b in LIMIT_SIZES:
        xc, yc = names("x", a), names("y", b)
        xp, yp = random_preorder(rng, xc), random_preorder(rng, yc)
        x, y = to_structure(hm, order_sig, xc, xp), to_structure(hm, order_sig, yc, yp)
        allowed = [(p, q) for p in xc for q in yc]
        queries.append(Query(
            "product", lambda x=x, y=y: hm.product(x, y),
            lambda r, xp=xp, yp=yp, allowed=allowed: check_product(r, xp, yp, allowed),
            lambda r: canon_structure(r.structure)))

    for a, b in LIMIT_SIZES:
        zc = names("z", 2)
        zp = random_preorder(rng, zc)
        z = to_structure(hm, order_sig, zc, zp)
        legs = []
        for prefix, n in (("x", a), ("y", b)):
            while True:
                carrier = names(prefix, n)
                pairs = random_preorder(rng, carrier)
                m = random_map(rng, carrier, pairs, zc, zp)
                if m is not None:
                    break
            legs.append((pairs, m, hm.Morphism(to_structure(hm, order_sig, carrier, pairs), z, m)))
        (xp, f, fm), (yp, g, gm) = legs
        allowed = [(p, q) for p in f for q in g if f[p] == g[q]]
        queries.append(Query(
            "pullback", lambda fm=fm, gm=gm: hm.pullback(fm, gm),
            lambda r, xp=xp, yp=yp, allowed=allowed: check_product(r, xp, yp, allowed),
            lambda r: canon_structure(r.structure)))

    for a, b in LIMIT_SIZES:
        xc, yc = names("x", a), names("y", b)
        xp, yp = random_preorder(rng, xc), random_preorder(rng, yc)
        x, y = to_structure(hm, order_sig, xc, xp), to_structure(hm, order_sig, yc, yp)
        # The tensor of preorders is the closure of the axis-wise edges.
        cells = [f"({p},{q})" for p in xc for q in yc]
        axis = {(f"({p},{q})", f"({p2},{q2})") for p in xc for q in yc for p2 in xc for q2 in yc
                if (p == p2 and (q, q2) in yp) or (q == q2 and (p, p2) in xp)}
        want = ref.reflexive_transitive_closure(cells, axis)
        queries.append(Query(
            "tensor", lambda x=x, y=y: hm.tensor(preord, x, y),
            lambda r, cells=cells, want=want: first_problem(
                expect("tensor carrier", sorted(r.carrier), sorted(cells)),
                expect("tensor edges", pairs_of(r), want)),
            canon_structure))
    return queries


# --- deciders ---------------------------------------------------------------

CONVEXITY_SIZES = ((3, 3), (3, 2), (2, 3), (3, 3)) * 20
# (|X|, |Z|, share of the largest distance sum of Z): larger distances
# downstairs satisfy more premise valuations, which sets the decider's cost.
SCHEMA_SLOTS = ((2, 2, 0.5), (2, 1, 0), (1, 2, 0.5), (2, 2, 0.75), (2, 2, 0.25), (1, 1, 0)) * 60


def random_vfunctor(rng, levels, slot):
    """Random V-categories on a chain quantale and a random distance-increasing map."""
    xc, zc = names("x", slot[0]), names("z", slot[1])
    target = round(slot[2] * (levels - 1) * slot[1] * (slot[1] - 1))
    targets = [d for d in ref.distance_tables(levels, zc, min)
               if sum(d[a, b] for a in zc for b in zc if a != b) == target]
    while True:
        xd = rng.choice(list(ref.distance_tables(levels, xc, min)))
        zd = rng.choice(targets)
        maps = [m for m in ref.homs(xc, (), zc, ())
                if all(xd[a, b] <= zd[m[a], m[b]] for a in xc for b in xc)]
        if maps:
            return xc, xd, zc, zd, rng.choice(maps)


def to_vgraph(hm, v, carrier, d):
    return hm.VGraph(v, carrier, tuple((a, b, str(d[a, b])) for a in carrier for b in carrier))


def deciders(hm, seed, workdir):
    rng = random.Random(seed)
    theories = {"preorder": hm.preorder_theory(), "poset": hm.poset_theory(),
                "reflexive": hm.reflexive_theory(),
                "reflexive_symmetric": hm.reflexive_symmetric_theory()}
    queries = []

    for i, sizes in enumerate(CONVEXITY_SIZES):
        name = ("poset", "preorder")[i % 2]
        make = random_poset if name == "poset" else random_preorder
        theory = theories[name]
        xc, zc = names("x", sizes[0]), names("z", sizes[1])
        xp, zp, f = random_morphism(rng, make, xc, zc)
        convex = ref.interpolation_convex(xc, xp, zc, zp, f)
        sig = theory.signature
        fm = hm.Morphism(to_structure(hm, sig, xc, xp), to_structure(hm, sig, zc, zp), f)
        queries += [
            Query("convexity_direct", lambda fm=fm, t=theory: hm.convexity_report(fm, t),
                  lambda r, c=convex: expect("convex", r.convex, c)),
            Query("convexity_lifting", lambda fm=fm, t=theory: hm.is_convex_via_lifting(fm, t),
                  lambda r, c=convex: expect("convex via lifting", r, c)),
        ]

    vcats = {}
    for i, slot in enumerate(SCHEMA_SLOTS):
        qname, levels = LADDER[0] if i % 3 == 0 else LADDER[1]
        if qname not in vcats:
            v = quantale_of(hm, qname)
            vcats[qname] = (v, hm.theory_vcat(v))
        v, theory = vcats[qname]
        xc, xd, zc, zd, m = random_vfunctor(rng, levels, slot)
        h = hm.VFunctor(to_vgraph(hm, v, xc, xd), to_vgraph(hm, v, zc, zd), tuple(m.items()))
        want = ref.chain_distance_condition(xd, zd, m, xc, zc, levels)
        queries += [
            Query("schema_convex",
                  lambda h=h, t=theory: hm.is_schema_convex(hm.vfunctor_to_morphism(h), t),
                  lambda r, want=want: expect("schema convex", r.convex, want)),
            Query("distance_oracle", lambda h=h, v=v: hm.ch_condition_oracle(h, v),
                  lambda r, want=want: expect("distance-form condition", r, want)),
        ]

    for name, theory in theories.items():
        want = ref.DISCRETE_CLASSIFICATION[name]
        queries.append(Query(
            "classify", lambda t=theory: hm.classify_theory(t),
            lambda r, want=want: expect("classification", (
                r.classification, r.cartesian_closed, r.locally_cartesian_closed,
                r.quasitopos), want)))
    for name, very in (("preorder", False), ("poset", False), ("reflexive_symmetric", True)):
        theory = theories[name]

        def check(r, very=very):
            collapse = None if very or r.witness_dict().get("y") == "x" else "witness keeps y"
            return first_problem(expect("safe", (r.safe, r.very_safe), (True, very)), collapse)

        queries.append(Query("safe_axiom",
                             lambda t=theory: hm.is_safe_axiom(t.axioms[0], t), check))
    for qname, _ in LADDER:
        v = quantale_of(hm, qname)
        ladder = {kind: getattr(hm, f"theory_{kind}")(v) for kind in ("vrgph", "vcat", "pmet")}
        safe = ref.GENERALIZED_TRANSITIVITY_SAFE[qname]
        vcat, pmet = ladder["vcat"], ladder["pmet"]
        queries += [
            Query("schema_safe", lambda t=vcat: hm.is_schema_safe(t.schemas[0], t),
                  lambda r, safe=safe: first_problem(
                      expect("generalized transitivity safe", r.safe, safe),
                      None if safe or r.meet_violation else "no meet violation reported")),
            Query("schema_safe", lambda t=pmet: hm.is_schema_safe(t.schemas[1], t),
                  lambda r: expect("symmetry very safe", r.very_safe, True)),
        ]
        for kind, theory in ladder.items():
            # Without schemas every schema is vacuously very safe.
            want = (True, True, True) if kind == "vrgph" else (safe, False, False)
            queries.append(Query(
                "classify_schematic", lambda t=theory: hm.classify_schematic_theory(t),
                lambda r, want=want: expect("schematic closure", (
                    r.cartesian_closed, r.locally_cartesian_closed, r.quasitopos), want)))
    return queries


# --- cli --------------------------------------------------------------------

CORPUS = "src/hornmod/corpus/"
# 68 import-bound requests (corpus, check-model, entails, convexity) hold the
# median; the 20 largest free-model requests, all under pos, where the chase
# costs as much as starting the interpreter, are the top fifth and hold p90.
FREE_MODEL_SIZES = (12, 15, 18, 21) * 3 + (24,) * 20
CHECK_MODEL_SIZES = (4, 5, 6, 7) * 5
ENTAILS_COUNT = 18
CLI_CONVEXITY_SIZES = ((3, 3), (3, 2), (2, 3)) * 4 + ((3, 3),)
LAYER_WIDTH = 4


def signature_doc(symbol="le") -> dict:
    return {"format": 1, "symbols": [{"name": symbol, "arity": 2}], "order": {"kind": "discrete"}}


def structure_doc(carrier, pairs, symbol="le") -> dict:
    return {"format": 1, "signature": signature_doc(symbol), "carrier": sorted(carrier),
            "edges": [{"symbol": symbol, "args": list(ab)} for ab in sorted(pairs)]}


def corpus_requests(sig_path):
    """The 17 corpus commands with their exit codes (1 only on the interp-fail maps)."""
    def c(name):
        return CORPUS + name

    return [
        (["check-model", "--theory", c("preord.theory.json"),
          "--structure", c("chain2.structure.json")], 0),
        (["free-model", "--theory", c("preord.theory.json"),
          "--structure", c("chain2.structure.json")], 0),
        (["limit", "terminal", "--signature", sig_path], 0),
        (["limit", "product", "--left", c("chain2.structure.json"),
          "--right", c("chain3.structure.json")], 0),
        (["limit", "pullback", "--left", c("interp-fail.morphism.json"),
          "--right", c("chain3-id.morphism.json")], 0),
        (["limit", "equalizer", "--left", c("interp-fail.morphism.json"),
          "--right", c("interp-fail.morphism.json")], 0),
        (["partial-product", "--variant", "str", "--morphism", c("interp-fail.morphism.json"),
          "--target", c("chain2.structure.json"), "--verify", "--seed", "0"], 0),
        (["exponential", "--theory", c("preord.theory.json"), "--base", c("chain2.structure.json"),
          "--target", c("chain2.structure.json"), "--verify", "--max-q", "2", "--seed", "0"], 0),
        (["partial-product", "--variant", "refl", "--morphism", c("interp-fail.morphism.json"),
          "--target", c("chain2.structure.json"), "--verify", "--seed", "0"], 0),
        (["convexity", "--theory", c("preord.theory.json"),
          "--morphism", c("interp-fail.morphism.json"), "--method", "both"], 1),
        (["safety", "--theory", c("pos.theory.json")], 0),
        (["schema-convexity", "--theory", c("boolean-vcat.theory.json"),
          "--morphism", c("vcat-interp-fail.morphism.json")], 1),
        (["schema-safety", "--theory", c("chain3-lukasiewicz-pmet.theory.json")], 0),
        (["classify", "--theory", c("preord.theory.json")], 0),
        (["classify", "--theory", c("chain3-meet-vcat.theory.json")], 0),
        (["quantale-check", "--quantale", c("chain3-lukasiewicz.quantale.json")], 0),
        (["entails", "--theory", c("preord.theory.json"),
          "--formula", c("refl-entail.formula.json")], 0),
    ]


def random_graph(rng, carrier):
    """A random layered graph with two back edges, which posets collapse.

    Every point has an edge to the next layer (two of them, when it has two
    points) and an edge from the layer before, so the longest path, and with
    it the number of chase rounds, is fixed by the size.
    """
    hidden = list(carrier)
    rng.shuffle(hidden)
    layers = [hidden[i:i + LAYER_WIDTH] for i in range(0, len(hidden), LAYER_WIDTH)]
    pairs = set()
    for upper, lower in zip(layers, layers[1:]):
        for a in upper:
            pairs.update((a, b) for b in rng.sample(lower, min(2, len(lower))))
        for b in lower:
            if not any((a, b) in pairs for a in upper):
                pairs.add((rng.choice(upper), b))
    first = rng.choice(sorted(p for p in pairs if p[0] in layers[0] and p[1] in layers[1]))
    last = rng.choice(sorted(p for p in pairs if p[0] in layers[-2] and p[1] in layers[-1]
                             and first[1] != p[0]))
    pairs |= {(first[1], first[0]), (last[1], last[0])}
    return pairs


def subprocess_runner(argv, env):
    command = [sys.executable, "-m", "hornmod.cli", *argv]

    def run():
        done = subprocess.run(command, capture_output=True, env=env, timeout=120)
        return done.returncode, done.stdout, done.stderr

    return run


def replay_runner(hm, argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = hm.cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad usage this way
                code = exc.code
        return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")

    return run


def check_cli(result, code, payload_check=None) -> Optional[str]:
    got, stdout, _ = result
    if got != code:
        return f"exit code {got}, want {code}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON document"
    return payload_check(payload) if payload_check else None


def cli_errored(result) -> bool:
    code, _, stderr = result
    return code == 2 or b"Traceback" in stderr


def canon_cli(result) -> str:
    code, stdout, _ = result
    return f"{code}|{stdout.decode('utf-8', 'replace')}"


def cli(hm, seed, workdir):
    rng = random.Random(seed)
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))

    def write(name, doc):
        path = workdir / name
        path.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
        return str(path)

    requests = corpus_requests(write("sig.json", signature_doc()))
    theories = (("preord", CORPUS + "preord.theory.json"), ("pos", CORPUS + "pos.theory.json"))
    checks = [None] * len(requests)

    for i, n in enumerate(FREE_MODEL_SIZES):
        theory, path = theories[1] if n == max(FREE_MODEL_SIZES) else theories[i % 2]
        carrier = [f"v{k:02d}" for k in range(n)]
        pairs = random_graph(rng, carrier)
        free = ref.free_poset if theory == "pos" else ref.free_preorder
        want_carrier, want_pairs, want_unit = free(carrier, pairs)

        def payload_check(p, wc=want_carrier, wp=want_pairs, wu=want_unit):
            model = p["model"]
            got_pairs = {tuple(e["args"]) for e in model["edges"]}
            return first_problem(expect("free model carrier", model["carrier"], sorted(wc)),
                                 expect("free model edges", got_pairs, wp),
                                 expect("unit map", p["unit_map"], wu))

        doc = write(f"free-{i}.structure.json", structure_doc(carrier, pairs))
        requests.append((["free-model", "--theory", path, "--structure", doc], 0))
        checks.append(payload_check)

    for i, n in enumerate(CHECK_MODEL_SIZES):
        theory, path = theories[i % 2]
        carrier = names("c", n)
        pairs = random_preorder(rng, carrier, 0.3)
        off_diagonal = sorted((a, b) for a, b in pairs if a != b)
        if i % 4 >= 2 and off_diagonal:
            pairs.discard(rng.choice(off_diagonal))
        model = ref.is_model(carrier, {("le", ab) for ab in pairs},
                             ref.BUILTIN_AXIOMS["poset" if theory == "pos" else "preorder"])
        doc = write(f"check-{i}.structure.json", structure_doc(carrier, pairs))
        requests.append((["check-model", "--theory", path, "--structure", doc], 0 if model else 1))
        checks.append(lambda p, m=model: expect("is_model", p["is_model"], m))

    for i in range(ENTAILS_COUNT):
        theory, path = theories[i % 2]
        if i % 4 < 2:
            variables = names("v", 5)
            premises = {tuple(rng.sample(variables, 2)) for _ in range(5)}
            a, b = rng.sample(variables, 2)
            closed = ref.reflexive_transitive_closure(variables, premises)
            want = (a, b) in closed
            conclusion = {"edge": {"symbol": "le", "args": [a, b]}}
        else:
            premises = {("x", "y")} | ({("y", "x")} if rng.random() < 0.6 else set())
            want = theory == "pos" and ("y", "x") in premises
            conclusion = {"equal": ["x", "y"]}
        formula = {"premises": [{"symbol": "le", "args": list(ab)} for ab in sorted(premises)],
                   "conclusion": conclusion}
        doc = write(f"entails-{i}.formula.json", formula)
        requests.append((["entails", "--theory", path, "--formula", doc], 0 if want else 1))
        checks.append(lambda p, w=want: expect("entails", p["entails"], w))

    for i, sizes in enumerate(CLI_CONVEXITY_SIZES):
        theory, path = theories[i % 2]
        make = random_poset if theory == "pos" else random_preorder
        xc, zc = names("x", sizes[0]), names("z", sizes[1])
        xp, zp, f = random_morphism(rng, make, xc, zc)
        convex = ref.interpolation_convex(xc, xp, zc, zp, f)
        doc = write(f"convexity-{i}.morphism.json", {
            "format": 1, "source": structure_doc(xc, xp), "target": structure_doc(zc, zp),
            "map": f})
        requests.append((["convexity", "--theory", path, "--morphism", doc, "--method", "both"],
                         0 if convex else 1))
        checks.append(lambda p, c=convex: expect("convex", p["convex"], c))

    queries = [
        Query(argv[0], subprocess_runner(argv, env),
              lambda r, code=code, pc=pc: check_cli(r, code, pc), canon_cli,
              errored=cli_errored, replay=replay_runner(hm, argv))
        for (argv, code), pc in zip(requests, checks)
    ]
    # A fixed shuffle spreads each kind of request over the pass, so a slow
    # stretch of the host does not fall on one kind only.
    random.Random(0).shuffle(queries)
    return queries


WORKLOADS = {
    "families": families,
    "constructions": constructions,
    "deciders": deciders,
    "cli": cli,
}
