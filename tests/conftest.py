import itertools
import json
from pathlib import Path
from typing import Iterable, Sequence

import pytest
from hypothesis import strategies as st

import hornmod as hm
import hornmod.convexity as convexity
from hornmod.closure import (
    PartialProductResult,
    VerificationEntry,
    VerificationReport,
    function_id,
)
from hornmod.convexity import (
    ConvexityCounterexample,
    ConvexityReport,
    SafetyResult,
    _axiom_free_models,
    _require_discrete,
    eligible_axioms,
)
from hornmod.core import (
    Edge,
    Equality,
    HornFormula,
    Morphism,
    MorphismError,
    RelationSymbol,
    Signature,
    SignatureError,
    Structure,
    StructureError,
    SymbolOrder,
    Theory,
    TheoryError,
    compose,
    horn,
    quantale_symbol_name as _sym,
    validate_morphism,
    var_set,
)
from hornmod.families import all_models, all_structures, edge_slots, iso_key
from hornmod.limits import (
    _hom_tuples,
    _pair_ids,
    enumerate_morphisms,
    pair_id,
    pullback,
)
from hornmod.schema import (
    AxiomSchema,
    SchemaConvexityReport,
    SchemaCounterexample,
    SchemaInstance,
    SchemaSafetyResult,
    _monotone_verified,
    _r_kappa_enumerated,
    _require_heyting,
    apply_combine,
    expand_instances,
)
from hornmod.semantics import FreeModelResult, GroundTheory, Violation, entails

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


def morphism_structure(f):
    """A morphism as one two-sorted structure: isomorphic exactly when the morphisms are.

    Source points become ``s:a`` and target points ``t:b``; the source and
    target edges keep their symbols under the prefixes ``s:`` and ``t:``; a
    unary ``src`` marks each source point and a binary ``graph`` edge joins
    ``s:a`` to ``t:f(a)``.
    """
    symbols = [RelationSymbol("src", 1), RelationSymbol("graph", 2)]
    for s in f.source.signature.symbols:
        symbols += [RelationSymbol("s:" + s.name, s.arity), RelationSymbol("t:" + s.name, s.arity)]
    carrier = [f"s:{a}" for a in f.source.carrier] + [f"t:{b}" for b in f.target.carrier]
    edges = [Edge(f"{side}:{e.symbol}", tuple(f"{side}:{a}" for a in e.args))
             for side, x in (("s", f.source), ("t", f.target)) for e in x.edges]
    edges += [Edge("src", (f"s:{a}",)) for a in f.source.carrier]
    edges += [Edge("graph", (f"s:{a}", f"t:{b}")) for a, b in f.mapping.items()]
    return Structure(Signature(tuple(symbols)), carrier, edges)


def dedup_morphisms(morphisms):
    """Keep the first morphism of each isomorphism class, preserving order."""
    seen, out = set(), []
    for f in morphisms:
        key = iso_key(morphism_structure(f))
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out


def reference_iso_key(x: Structure) -> tuple:
    """A canonical form invariant under carrier relabelling."""
    carrier = x.sorted_carrier()
    best = None
    for perm in itertools.permutations(range(len(carrier))):
        rename = {carrier[i]: f"e{perm[i]}" for i in range(len(carrier))}
        edges = tuple(sorted(Edge(e.symbol, tuple(rename[a] for a in e.args)) for e in x.edges))
        if best is None or edges < best:
            best = edges
    return (len(carrier), best)


def reference_find_isomorphism(x: Structure, y: Structure):
    """An edge-preserving bijection with edge-preserving inverse, or None."""
    if x.signature != y.signature or len(x.carrier) != len(y.carrier):
        return None
    for images in itertools.permutations(y.sorted_carrier()):
        mapping = dict(zip(x.sorted_carrier(), images))
        h = Morphism(x, y, mapping)
        if not validate_morphism(h):
            continue
        inverse = Morphism(y, x, {v: k for k, v in mapping.items()})
        if validate_morphism(inverse):
            return h
    return None


def reference_distributive(order: SymbolOrder) -> bool:
    """The replaced distributivity check of a complete lattice's tables: the
    binary law, then a /\\ \\/S = \\/(a /\\ s for s in S) over every subset S."""
    meet, join, symbols = order._meet, order._join, order.symbols
    for a, b, c in itertools.product(symbols, repeat=3):
        if meet[a, join[b, c]] != join[meet[a, b], meet[a, c]]:
            return False
    for a in symbols:
        for r in range(len(symbols) + 1):
            for subset in itertools.combinations(symbols, r):
                lhs = meet[a, order.join_of_set(subset)]
                if lhs != order.join_of_set(meet[a, s] for s in subset):
                    return False
    return True


# The Edge-per-valuation grounding and the per-point profile scan that the
# per-position slot-bit lookups and the one-pass profiles replaced.

def reference_ground_axioms(
    theory: Theory, carrier: tuple[str, ...], slots: Sequence[Edge]
) -> GroundTheory:
    """Every valuation of every axiom into the carrier, over the given edge slots.

    An edge conclusion gives the rule ``(premise_mask, conclusion_bit)`` unless
    it is among its own premises; an equality conclusion under a valuation
    with two distinct values gives the forbidden mask ``premise_mask``.  The
    slots must cover every edge over the carrier.
    """
    bit = {e: 1 << i for i, e in enumerate(slots)}
    rules: set[tuple[int, int]] = set()
    forbidden: set[int] = set()
    for ax in theory.all_axioms():
        variables = tuple(sorted(ax.variables()))
        position = {v: i for i, v in enumerate(variables)}
        premises = [(e.symbol, tuple(position[a] for a in e.args)) for e in ax.premises]
        concl = ax.conclusion
        for values in itertools.product(carrier, repeat=len(variables)):
            mask = 0
            for symbol, args in premises:
                mask |= bit[Edge(symbol, tuple(values[i] for i in args))]
            if isinstance(concl, Equality):
                if values[position[concl.left]] != values[position[concl.right]]:
                    forbidden.add(mask)
            else:
                head = bit[Edge(concl.symbol, tuple(values[position[a]] for a in concl.args))]
                if not mask & head:
                    rules.add((mask, head))
    return GroundTheory(tuple(sorted(rules)), tuple(sorted(forbidden)))


def reference_canonical_labelling(x: Structure) -> tuple[tuple, tuple[str, ...]]:
    """The least relabelled edge tuple of a structure and the carrier order giving it.

    A point's profile lists the ``(symbol, argument position)`` of each of its
    edge occurrences, sorted.  Only the orders that list points by profile and
    permute points of equal profile are tried.  Isomorphisms keep profiles, so
    same-size structures have equal keys iff they are isomorphic.
    """
    profile = {a: sorted((s, i) for s, args in x.edges for i, b in enumerate(args) if b == a)
               for a in x.carrier}
    ranked = sorted(x.carrier, key=lambda a: (profile[a], a))
    groups = [tuple(g) for _, g in itertools.groupby(ranked, key=profile.__getitem__)]

    def relabelled(parts: tuple[tuple[str, ...], ...]) -> tuple[tuple, tuple[str, ...]]:
        label = {a: i for i, a in enumerate(itertools.chain.from_iterable(parts))}
        key = tuple(sorted((s, tuple(map(label.__getitem__, args))) for s, args in x.edges))
        return key, tuple(label)  # a dict keeps insertion order

    orders = itertools.product(*map(itertools.permutations, groups))
    return min(map(relabelled, orders), key=lambda labelled: labelled[0])


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


HORN_SYMBOLS = (("P", 1), ("R", 2))
HORN_SIGNATURE = hm.Signature(tuple(hm.RelationSymbol(n, a) for n, a in HORN_SYMBOLS))


def horn_edges(variables):
    return st.sampled_from(HORN_SYMBOLS).flatmap(
        lambda sym: st.tuples(*[st.sampled_from(variables)] * sym[1]).map(
            lambda args: hm.Edge(sym[0], args)))


# Conclusions draw from all three variables, so some occur only in the conclusion.
edge_axioms = st.builds(
    hm.horn, st.frozensets(horn_edges(("x", "y", "z")), max_size=2), horn_edges(("x", "y", "z")))
equality_axioms = st.frozensets(horn_edges(("x", "y")), min_size=1, max_size=2).filter(
    lambda ps: hm.var_set(ps) == {"x", "y"}).map(lambda ps: hm.horn(ps, hm.Equality("x", "y")))


@st.composite
def horn_theories(draw):
    """Random Horn theories over ``{P/1, R/2}``, with at most one equality axiom."""
    axioms = draw(st.lists(edge_axioms, max_size=3))
    axioms += draw(st.lists(equality_axioms, max_size=1))
    return hm.Theory(HORN_SIGNATURE, tuple(axioms), (), base_flag=draw(st.booleans()))


# The reference implementations below are the naive valuation search and
# chase that the library replaced; the faster ones are tested against them.

def reference_satisfying_valuations(
    x: Structure,
    premises: frozenset[Edge] | tuple[Edge, ...],
    variables: tuple[str, ...],
):
    """All valuations of ``variables`` into the carrier making every premise hold.

    Premises are matched by backtracking against the structure's edge sets;
    variables not occurring in any premise range over the whole carrier.
    Valuations come out in lexicographic order of the variable tuple.
    """
    prem = sorted(premises)
    carrier = x.sorted_carrier()
    prem_vars = var_set(prem)

    def extend(binding: dict[str, str], remaining: list[Edge]):
        if not remaining:
            yield dict(binding)
            return
        e, rest = remaining[0], remaining[1:]
        for args in sorted(x.tuples(e.symbol)):
            new = dict(binding)
            ok = True
            for var, val in zip(e.args, args):
                if new.setdefault(var, val) != val:
                    ok = False
                    break
            if ok:
                yield from extend(new, rest)

    free = [v for v in variables if v not in prem_vars]
    seen = set()
    partial: list[dict[str, str]] = []
    for binding in extend({}, prem):
        key = tuple(binding.get(v) for v in variables)
        if key in seen:
            continue
        seen.add(key)
        partial.append(binding)
    # canonical order over the full valuation tuples
    full: list[dict[str, str]] = []
    for binding in partial:
        for values in itertools.product(carrier, repeat=len(free)):
            val = dict(binding)
            val.update(zip(free, values))
            full.append(val)
    full.sort(key=lambda v: tuple(v[u] for u in variables))
    yield from full


def reference_check_model(x: Structure, theory) -> Violation | None:
    """The first violated axiom with its valuation, or None: per axiom the
    valuations of its sorted variables in canonical order, each conclusion
    checked on a dict, as the per-call model check that ``_Rule`` replaced."""
    for ax in theory.all_axioms():
        concl = ax.conclusion
        for val in reference_satisfying_valuations(x, ax.premises, tuple(sorted(ax.variables()))):
            if isinstance(concl, Equality):
                holds = val[concl.left] == val[concl.right]
            else:
                holds = x.holds(concl.symbol, tuple(val[a] for a in concl.args))
            if not holds:
                return Violation(ax, tuple(sorted(val.items())))
    return None


class _UnionFind:
    """Union-find whose representative is the least element in canonical order."""

    def __init__(self, items: tuple[str, ...]):
        self.parent = {i: i for i in items}

    def find(self, a: str) -> str:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: str, b: str) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        lo, hi = min(ra, rb), max(ra, rb)
        self.parent[hi] = lo
        return True


def reference_free_model(theory, x: Structure) -> FreeModelResult:
    """The least saturation of ``x`` under the theory, by the naive round-based chase.

    Every axiom is matched against the current structure, equality conclusions
    merge elements through a union-find (merges apply before edge additions
    within a round), and edge conclusions add edges, until a fixpoint.
    """
    if x.signature != theory.signature:
        raise SignatureError("structure and theory use different signatures")
    axioms = theory.all_axioms()
    uf = _UnionFind(x.sorted_carrier())
    edges = set(x.edges)

    def canonical(es: set[Edge]) -> set[Edge]:
        return {Edge(e.symbol, tuple(uf.find(a) for a in e.args)) for e in es}

    while True:
        carrier = sorted({uf.find(a) for a in x.carrier})
        current = Structure(theory.signature, carrier, edges)
        merges: list[tuple[str, str]] = []
        additions: set[Edge] = set()
        for ax in axioms:
            variables = tuple(sorted(ax.variables()))
            for val in reference_satisfying_valuations(current, ax.premises, variables):
                if isinstance(ax.conclusion, Equality):
                    a, b = val[ax.conclusion.left], val[ax.conclusion.right]
                    if a != b:
                        merges.append((a, b))
                else:
                    e = Edge(ax.conclusion.symbol, tuple(val[a] for a in ax.conclusion.args))
                    if not current.holds(e.symbol, e.args):
                        additions.add(e)
        changed = False
        for a, b in merges:
            changed |= uf.union(a, b)
        if changed or merges:
            edges = canonical(edges)
        new_edges = canonical(additions) - edges
        if new_edges:
            edges |= new_edges
            changed = True
        if not changed:
            break

    carrier = sorted({uf.find(a) for a in x.carrier})
    model = Structure(theory.signature, carrier, edges)
    unit = Morphism(x, model, {a: uf.find(a) for a in x.carrier})
    return FreeModelResult(model, unit)


def reference_entails(theory, formula) -> bool:
    """``entails`` decided on the reference chase."""
    variables = sorted(formula.variables())
    result = reference_free_model(theory, Structure(theory.signature, variables, formula.premises))
    unit = result.unit_map
    if isinstance(formula.conclusion, Equality):
        return unit(formula.conclusion.left) == unit(formula.conclusion.right)
    concl = formula.conclusion
    return result.model.holds(concl.symbol, tuple(unit(a) for a in concl.args))


# The per-lift join of schema convexity as it ran before its per-call
# invariants were computed once: every lift re-checks monotonicity, rescans
# every symbol at each premise tuple and combines again.
# ``schema._lift_join`` is tested against it, and the schema references below
# call it.

def _r_kappa(
    schema: AxiomSchema,
    sig: Signature,
    order: SymbolOrder,
    labels: tuple[str, ...],
    x: Structure,
    kappa: dict[str, str],
) -> str:
    """The join of combined labels over all premise labelings satisfied under kappa.

    When the combination function is monotone and each premise's labels are
    join-closed, the join collapses to one evaluation at the componentwise
    maxima, which a test checks against the defining join
    (:func:`_r_kappa_enumerated`, also the fallback).
    """
    args_per_premise = [tuple(kappa[v] for v in p.args) for p in schema.premises]
    if _monotone_verified(schema, sig):
        maxima = []
        for args in args_per_premise:
            present = [s for s in order.symbols if x.holds(s, args)]
            top = order.join_of_set(present)
            if top is None or top not in present:
                break  # labels not join-closed; fall back to the defining join
            maxima.append(top)
        else:
            meets = tuple(order.meet2(r, u) for r, u in zip(labels, maxima))
            return apply_combine(schema, sig, meets)
    return _r_kappa_enumerated(schema, sig, order, labels, x, args_per_premise)


# The four fibre-lift loops that convexity and schema convexity ran before
# they shared one kernel, kept as written; the kernel is tested against them.

def _reference_all_valuations(variables: tuple[str, ...], carrier: tuple[str, ...]):
    for values in itertools.product(carrier, repeat=len(variables)):
        yield dict(zip(variables, values))


def reference_is_convex_wrt(f: Morphism, axiom: HornFormula, theory: Theory) -> ConvexityReport:
    """Convexity of a morphism with respect to one equality-free axiom."""
    _require_discrete(theory)
    if axiom.has_equality():
        raise TheoryError("convexity is defined for axioms with edge conclusions")
    assert isinstance(axiom.conclusion, Edge)
    concl = axiom.conclusion
    x, z = f.source, f.target
    premise_vars = var_set(axiom.premises)
    variables = tuple(sorted(premise_vars | set(concl.args)))
    other_vars = tuple(sorted(premise_vars - set(concl.args)))
    fibre = {c: tuple(sorted(a for a in x.carrier if f(a) == c)) for c in z.carrier}

    for kz in _reference_all_valuations(variables, z.sorted_carrier()):
        if not all(z.holds(e.symbol, tuple(kz[v] for v in e.args)) for e in axiom.premises):
            continue
        fibres = [fibre[kz[v]] for v in concl.args]
        for xs in itertools.product(*fibres):
            if not x.holds(concl.symbol, xs):
                continue
            pinned: dict[str, str] = {}
            consistent = True
            for v, val in zip(concl.args, xs):
                if pinned.setdefault(v, val) != val:
                    consistent = False
                    break
            found = consistent and _reference_lift_exists(x, axiom, pinned, other_vars, fibre, kz)
            if not found:
                return ConvexityReport(
                    False,
                    ConvexityCounterexample(axiom, tuple(sorted(kz.items())), xs),
                )
    return ConvexityReport(True, None)


def _reference_lift_exists(
    x: Structure,
    axiom: HornFormula,
    pinned: dict[str, str],
    other_vars: tuple[str, ...],
    fibre: dict[str, tuple[str, ...]],
    kz: dict[str, str],
) -> bool:
    domains = [fibre[kz[v]] for v in other_vars]
    for values in itertools.product(*domains):
        kappa = dict(pinned)
        kappa.update(zip(other_vars, values))
        if all(x.holds(e.symbol, tuple(kappa[v] for v in e.args)) for e in axiom.premises):
            return True
    return False


def reference_is_convex_via_lifting(f: Morphism, theory: Theory) -> bool:
    """The weak right lifting test as one loop per square: the free models are
    chased on every call, the bottoms enumerated again for every top, and every
    filler scanned for every commuting square."""
    _require_discrete(theory)
    x, z = f.source, f.target
    for ax in eligible_axioms(theory):
        edge_model, impl_model, comparison = _axiom_free_models(ax, theory)
        fillers = enumerate_morphisms(impl_model, x)
        for top in enumerate_morphisms(edge_model, x):
            target = compose(f, top)
            for bottom in enumerate_morphisms(impl_model, z):
                if compose(bottom, comparison) != target:
                    continue
                if not any(
                    compose(d, comparison) == top and compose(f, d) == bottom
                    for d in fillers
                ):
                    return False
    return True


def count_chases(monkeypatch) -> list[Structure]:
    """Record every structure that convexity and safety chase from now on."""
    chase, chased = convexity.free_model, []

    def counting(theory, x):
        chased.append(x)
        return chase(theory, x)

    monkeypatch.setattr(convexity, "free_model", counting)
    return chased


def reference_is_object_convex(x: Structure, theory: Theory) -> bool:
    """Convexity of the unique map to the terminal object, computed directly."""
    _require_discrete(theory)
    for ax in eligible_axioms(theory):
        assert isinstance(ax.conclusion, Edge)
        concl = ax.conclusion
        other_vars = tuple(sorted(var_set(ax.premises) - set(concl.args)))
        full = {c: x.sorted_carrier() for c in ("*",)}
        for xs in sorted(x.tuples(concl.symbol)):
            pinned: dict[str, str] = {}
            consistent = True
            for v, val in zip(concl.args, xs):
                if pinned.setdefault(v, val) != val:
                    consistent = False
                    break
            if not consistent:
                return False
            if not _reference_lift_exists(
                x, ax, pinned, other_vars, full, {v: "*" for v in other_vars}
            ):
                return False
    return True


def reference_is_schema_convex_wrt_instance(
    f: Morphism, schema: AxiomSchema, instance: SchemaInstance, theory: Theory
) -> SchemaConvexityReport:
    """Convexity of a morphism with respect to one instance of a schema.

    The endpoints are assumed to be models of the signature's base theory.
    """
    sig = theory.signature
    order = _require_heyting(sig, schema.arity)
    x, z = f.source, f.target
    concl_args = schema.conclusion.args
    premise_vars = var_set(schema.premises)
    variables = tuple(sorted(premise_vars | set(concl_args)))
    other_vars = tuple(sorted(premise_vars - set(concl_args)))
    fibre = {c: tuple(sorted(a for a in x.carrier if f(a) == c)) for c in z.carrier}
    sigma = apply_combine(schema, sig, instance.labels)
    below = order.below(sigma)
    labeled_premises = [
        Edge(label, shape.args) for label, shape in zip(instance.labels, schema.premises)
    ]

    for values in itertools.product(z.sorted_carrier(), repeat=len(variables)):
        kz = dict(zip(variables, values))
        if not all(z.holds(e.symbol, tuple(kz[v] for v in e.args)) for e in labeled_premises):
            continue
        fibres = [fibre[kz[v]] for v in concl_args]
        for xs in itertools.product(*fibres):
            pinned: dict[str, str] = {}
            consistent = True
            for v, val in zip(concl_args, xs):
                if pinned.setdefault(v, val) != val:
                    consistent = False
                    break
            goods: list[dict[str, str]] = []
            if consistent:
                domains = [fibre[kz[v]] for v in other_vars]
                for assignment in itertools.product(*domains):
                    kappa = dict(pinned)
                    kappa.update(zip(other_vars, assignment))
                    goods.append(kappa)
            total = order.bottom()
            assert total is not None
            for kappa in goods:
                total = order.join2(
                    total, _r_kappa(schema, sig, order, instance.labels, x, kappa)
                )
            for t in below:
                if x.holds(t, xs) and not order.leq(t, total):
                    return SchemaConvexityReport(
                        False,
                        SchemaCounterexample(
                            schema.name, instance.labels, tuple(sorted(kz.items())), xs, t
                        ),
                    )
    return SchemaConvexityReport(True, None)


def reference_is_schema_object_convex(x: Structure, theory: Theory) -> SchemaConvexityReport:
    """Object convexity: good valuations only pin the conclusion tuple."""
    sig = theory.signature
    carrier = x.sorted_carrier()
    for schema in theory.schemas:
        order = _require_heyting(sig, schema.arity)
        concl_args = schema.conclusion.args
        other_vars = tuple(sorted(var_set(schema.premises) - set(concl_args)))
        for instance in expand_instances(schema, sig):
            sigma = apply_combine(schema, sig, instance.labels)
            below = order.below(sigma)
            for xs in itertools.product(carrier, repeat=len(concl_args)):
                pinned: dict[str, str] = {}
                consistent = True
                for v, val in zip(concl_args, xs):
                    if pinned.setdefault(v, val) != val:
                        consistent = False
                        break
                goods: list[dict[str, str]] = []
                if consistent:
                    for assignment in itertools.product(carrier, repeat=len(other_vars)):
                        kappa = dict(pinned)
                        kappa.update(zip(other_vars, assignment))
                        goods.append(kappa)
                total = order.bottom()
                assert total is not None
                for kappa in goods:
                    total = order.join2(
                        total, _r_kappa(schema, sig, order, instance.labels, x, kappa)
                    )
                for t in below:
                    if x.holds(t, xs) and not order.leq(t, total):
                        return SchemaConvexityReport(
                            False,
                            SchemaCounterexample(
                                schema.name, instance.labels, (), xs, t
                            ),
                        )
    return SchemaConvexityReport(True, None)


# The schema-safety search as it ran before it called the flat safety
# search on each instance, kept as written; ``is_schema_safe`` is tested
# against it.

def reference_is_schema_safe(schema: AxiomSchema, theory: Theory) -> SchemaSafetyResult:
    """Meet-compatibility of the combination function plus per-instance collapses.

    Safety requires the combination function to commute with meets by a fixed
    symbol, and for each label tuple a variable collapse under which the
    instance's premises follow from its conclusion.
    """
    sig = theory.signature
    order = _require_heyting(sig, schema.arity)
    k = len(schema.premises)
    for rbar in itertools.product(order.symbols, repeat=k):
        for s in order.symbols:
            lowered = tuple(order.meet2(r, s) for r in rbar)
            lhs = apply_combine(schema, sig, lowered)
            rhs = order.meet2(apply_combine(schema, sig, rbar), s)
            if lhs != rhs:
                return SchemaSafetyResult(False, False, None, (rbar, s))
    concl_args = schema.conclusion.args
    fixed = list(dict.fromkeys(concl_args))
    free = tuple(sorted(var_set(schema.premises) - set(concl_args)))
    very = not free
    witnesses = []
    for rbar in itertools.product(order.symbols, repeat=k):
        sigma = apply_combine(schema, sig, rbar)
        head = Edge(sigma, concl_args)
        found = None
        for values in itertools.product(fixed, repeat=len(free)):
            kappa = {v: v for v in fixed}
            kappa.update(zip(free, values))
            ok = all(
                entails(
                    theory,
                    horn((head,), Edge(label, tuple(kappa[v] for v in shape.args))),
                )
                for label, shape in zip(rbar, schema.premises)
            )
            if ok:
                found = tuple(sorted(kappa.items()))
                break
        if found is None:
            return SchemaSafetyResult(False, False, None, None, rbar)
        witnesses.append((rbar, found))
    return SchemaSafetyResult(True, very, tuple(witnesses), None)


# The flat safety search and the reflexivity test as they ran before they
# read one chased model: one ``entails`` call per premise per candidate
# collapse, and one per symbol.  ``is_safe_axiom`` and
# ``is_reflexive_theory`` are tested against them.

def reference_is_safe_axiom(axiom: HornFormula, theory: Theory) -> SafetyResult:
    """Search for a variable collapse making the premises follow from the conclusion.

    Candidate values for each free premise variable are tried in the order the
    conclusion tuple lists its variables, so the reported witness is the
    canonical first one.
    """
    if axiom.has_equality():
        raise TheoryError("safety is defined for axioms with edge conclusions")
    assert isinstance(axiom.conclusion, Edge)
    concl = axiom.conclusion
    fixed = list(dict.fromkeys(concl.args))
    free = tuple(sorted(var_set(axiom.premises) - set(concl.args)))
    very = not free
    for values in itertools.product(fixed, repeat=len(free)):
        kappa = {v: v for v in fixed}
        kappa.update(zip(free, values))
        ok = all(
            entails(
                theory,
                horn((concl,), Edge(e.symbol, tuple(kappa[v] for v in e.args))),
            )
            for e in sorted(axiom.premises)
        )
        if ok:
            witness = tuple(sorted(kappa.items()))
            return SafetyResult(True, very, witness)
    return SafetyResult(False, False, None)


def reference_is_reflexive_theory(theory: Theory) -> bool:
    """Whether the theory entails reflexivity of every symbol, one symbol at a time."""
    v = hm.fresh_variables(1)[0]
    return all(
        entails(theory, horn((), Edge(s.name, (v,) * s.arity)))
        for s in theory.signature.symbols
    )


# Hom-sets, products and pullbacks: the naive forms that the tuple kernel and
# the edge join replaced.

def reference_enumerate_morphisms(x: Structure, y: Structure) -> list[Morphism]:
    """Every function on the sorted carriers, kept when ``validate_morphism`` accepts it."""
    src = x.sorted_carrier()
    out = []
    for images in itertools.product(y.sorted_carrier(), repeat=len(src)):
        h = Morphism(x, y, dict(zip(src, images)))
        if validate_morphism(h):
            out.append(h)
    return out


def reference_paired_structure(
    sig: Signature, pairs: list[tuple[str, str]], x: Structure, y: Structure
) -> tuple[Structure, Morphism, Morphism]:
    """The scan over all |pairs| ** arity combinations, kept when both components hold."""
    ids = _pair_ids(pairs)
    edges = []
    for s in sig.symbols:
        for combo in itertools.product(pairs, repeat=s.arity):
            xs = tuple(p[0] for p in combo)
            ys = tuple(p[1] for p in combo)
            if x.holds(s.name, xs) and y.holds(s.name, ys):
                edges.append(Edge(s.name, tuple(ids[p] for p in combo)))
    struct = Structure(sig, ids.values(), edges)
    left = Morphism(struct, x, {ids[p]: p[0] for p in pairs})
    right = Morphism(struct, y, {ids[p]: p[1] for p in pairs})
    return struct, left, right


# The morphism check and the edge join as they ran before each did one pass
# with one lookup per edge: ``validate_morphism`` and ``limits._pair_edges`` are
# tested against them.

def reference_validate_morphism(h: Morphism) -> bool:
    if h.source.signature != h.target.signature:
        raise SignatureError("morphism endpoints have different signatures")
    if set(h.mapping) != h.source.carrier or not set(h.mapping.values()) <= h.target.carrier:
        raise MorphismError("mapping is not a total function into the target carrier")
    return all(
        h.target.holds(e.symbol, tuple(h.mapping[a] for a in e.args)) for e in h.source.edges
    )


def reference_pair_edges(
    sig: Signature, ids: dict[tuple[str, str], str], x: Structure, y: Structure
) -> list[Edge]:
    edges = []
    for s in sig.symbols:
        for xs in x.tuples(s.name):
            for ys in y.tuples(s.name):
                args = tuple(map(ids.get, zip(xs, ys)))
                if None not in args:
                    edges.append(Edge(s.name, args))
    return edges


TRUST_SIGNATURE = hm.Signature(
    tuple(hm.RelationSymbol(n, a) for n, a in (("P", 1), ("R", 2), ("T", 3))))


@st.composite
def trust_structures(draw, prefix: str, min_size: int = 0, max_size: int = 3):
    """A random structure over ``{P/1, R/2, T/3}`` on ``min_size``..``max_size`` points."""
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    carrier = [f"{prefix}{i}" for i in range(size)]
    slots = edge_slots(TRUST_SIGNATURE, tuple(carrier))
    mask = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    return Structure(TRUST_SIGNATURE, carrier, [e for e, keep in zip(slots, mask) if keep])


def trust_edges(variables):
    """Random edges over ``{P/1, R/2, T/3}`` on ``variables``, repeats (``R x x``) included."""
    return st.sampled_from(TRUST_SIGNATURE.symbols).flatmap(
        lambda s: st.tuples(*[st.sampled_from(variables)] * s.arity).map(
            lambda args: Edge(s.name, args)))


def reference_value_tuples(x: Structure, variables, domains, edges) -> list[tuple[str, ...]]:
    """The valuation kernel's oracle: each tuple of the domains' product under
    which every edge holds in ``x``, in product order."""
    out = []
    for values in itertools.product(*domains):
        val = dict(zip(variables, values))
        if all(x.holds(e.symbol, tuple(val[a] for a in e.args)) for e in edges):
            out.append(values)
    return out


# The partial-product verifier as it ran before the mediating maps were counted
# by the valuation kernel: every combination of per-point candidates is built
# as a ``Morphism`` and validated, for every g of every pullback Q x_Z X built
# by ``pullback``.  The evaluation domain is compared with the public
# ``pullback(p, f)``.  ``verify_partial_product`` is tested against it.

def reference_verify_partial_product(
    f: Morphism,
    y: Structure,
    candidate: PartialProductResult,
    test_family: Sequence[Structure],
) -> VerificationReport:
    """Check the partial-product universal property over a family of test objects.

    For every q : Q -> Z and g : Q x_Z X -> Y there must be exactly one
    h : Q -> P with p . h = q and eval . (h x_Z id) = g.
    """
    p, ev = candidate.p, candidate.eval
    struct = candidate.structure
    if not validate_morphism(p) or not validate_morphism(ev):
        return VerificationReport(
            False, (VerificationEntry(struct, 0, False, "anchor or evaluation is invalid"),)
        )
    if ev.target != y:
        return VerificationReport(
            False, (VerificationEntry(struct, 0, False, "evaluation codomain is not Y"),)
        )
    if p.target != f.target or ev.source != pullback(p, f).structure:
        return VerificationReport(
            False, (VerificationEntry(struct, 0, False, "evaluation domain is not P x_Z X"),)
        )
    z = f.target
    fibre_of = {c: sorted(a for a in f.source.carrier if f(a) == c) for c in z.carrier}
    # rows[c][pid] = evaluation row of the candidate point pid over the fibre of c
    rows: dict[str, dict[str, tuple[str, ...]]] = {c: {} for c in z.carrier}
    for pid in struct.carrier:
        c = p(pid)
        rows[c][pid] = tuple(ev.mapping[pair_id(pid, a)] for a in fibre_of[c])

    entries = []
    all_ok = True
    for q_obj in test_family:
        checked = 0
        ok = True
        detail = ""
        q_src = q_obj.sorted_carrier()
        for q in enumerate_morphisms(q_obj, z):
            pb = pullback(q, f)
            # g is an image tuple over the sorted carrier of Q x_Z X
            pb_src = pb.structure.sorted_carrier()
            at_pb = {k: i for i, k in enumerate(pb_src)}
            row_at = [(q(a), [at_pb[pair_id(a, s)] for s in fibre_of[q(a)]]) for a in q_src]
            for g in _hom_tuples(pb.structure, y):
                checked += 1
                candidates_per_point = []
                for c, cells in row_at:
                    row = tuple(g[i] for i in cells)
                    cands = [pid for pid, r in rows[c].items() if r == row]
                    candidates_per_point.append(sorted(cands))
                solutions = 0
                for combo in itertools.product(*candidates_per_point):
                    mapping = dict(zip(q_src, combo))
                    h = Morphism(q_obj, struct, mapping)
                    if validate_morphism(h):
                        solutions += 1
                if solutions != 1:
                    ok = False
                    detail = (
                        f"{solutions} mediating morphisms for q={dict(q.mapping)}, "
                        f"g={dict(zip(pb_src, g))}"
                    )
                    break
            if not ok:
                break
        entries.append(VerificationEntry(q_obj, checked, ok, detail))
        all_ok &= ok
    return VerificationReport(all_ok, tuple(entries))


# The function space as it was built before one valuation search built its
# edges: the exponential and internal-hom edges scan every |Hom(X, Y)| ** arity
# tuple of maps.  ``exponential_object`` and ``internal_hom`` are tested against it.

def reference_hom_structure(
    x: Structure, y: Structure, tuples: dict[str, Iterable[tuple[str, ...]]]
) -> tuple[Structure, dict[str, dict[str, str]]]:
    """The edge-preserving maps x -> y as points named by their function ids.

    An edge joins maps that send every tuple in ``tuples[symbol]`` to an edge of y.
    """
    src = x.sorted_carrier()
    homs = _hom_tuples(x, y)
    points = {function_id(table): table for table in (dict(zip(src, h)) for h in homs)}
    if len(points) != len(homs):
        raise StructureError("carrier names collide under function-table rendering")
    ids = sorted(points)
    edges = []
    for s in x.signature.symbols:
        for combo in itertools.product(ids, repeat=s.arity):
            mapped = (tuple(points[pid][a] for pid, a in zip(combo, xs)) for xs in tuples[s.name])
            if all(y.holds(s.name, args) for args in mapped):
                edges.append(Edge(s.name, combo))
    return Structure(x.signature, ids, edges), points


# P* as the category theory states it, with no valuation search: a point
# over c is a morphism F(v) x_Z X -> Y along c : F(v) -> Z, and each
# morphism F(s(v1..vn)) x_Z X -> Y along some k : F(s(v1..vn)) -> Z gives an
# s-edge on its restrictions at v1..vn.  Every candidate k is built and kept
# when ``validate_morphism`` accepts it; every function on its pullback is kept
# when it sends each edge there to an edge of Y.  The free models come from
# the naive chase.  ``partial_product`` and the ``str`` and ``refl`` partial
# products are tested against it.

def reference_partial_product_star(
    theory: Theory, y: Structure, f: Morphism
) -> tuple[Structure, dict[str, tuple[dict[str, str], str]]]:
    """P*(y, f) over the theory, with its points' function tables and keys."""
    sig, z = theory.signature, f.target

    def maps_from(free: Structure):
        """Each morphism k : free -> Z with each morphism free x_Z X -> y over it."""
        for images in itertools.product(z.sorted_carrier(), repeat=len(free.carrier)):
            k = Morphism(free, z, dict(zip(free.sorted_carrier(), images)))
            if not validate_morphism(k):
                continue
            pb = pullback(k, f)
            src = pb.structure.sorted_carrier()
            for values in itertools.product(y.sorted_carrier(), repeat=len(src)):
                g = dict(zip(src, values)).__getitem__
                if all(y.holds(s, tuple(map(g, args))) for s, args in pb.structure.edges):
                    yield k, pb, g

    def restriction(k, pb, g, u):
        table = {pb.right(q): g(q) for q in pb.structure.carrier if pb.left(q) == u}
        return function_id(table, k(u))

    points = {}
    point = reference_free_model(theory, Structure(sig, ("u",), ())).model
    for k, pb, g in maps_from(point):
        pid = restriction(k, pb, g, "u")
        entry = ({pb.right(q): g(q) for q in pb.structure.carrier}, k("u"))
        if points.setdefault(pid, entry) != entry:
            raise StructureError("carrier names collide under function-table rendering")
    edges = []
    for s in sig.symbols:
        vs = tuple(f"u{i}" for i in range(s.arity))
        free = reference_free_model(theory, Structure(sig, vs, [Edge(s.name, vs)]))
        for k, pb, g in maps_from(free.model):
            edges.append(Edge(s.name, tuple(restriction(k, pb, g, free.unit_map(v)) for v in vs)))
    return Structure(sig, points, edges), points


def reference_ch_condition_oracle(h: hm.VFunctor, v: hm.Quantale) -> bool:
    """The distance-form condition by the defining loop: each fibre rebuilt per
    (x1, x3, z2), u and u' found by scanning every element, the join folded by
    ``Quantale.join``."""
    if not hm.is_heyting(v):
        raise hm.QuantaleError("the distance-form condition needs a Heyting lattice")
    dx, dz = h.source, h.target
    for x1 in dx.carrier:
        for x3 in dx.carrier:
            for z2 in dz.carrier:
                fibre = [a for a in dx.carrier if h(a) == z2]
                for u in v.elements:
                    if not v.leq(u, dz.d(h(x1), z2)):
                        continue
                    for u2 in v.elements:
                        if not v.leq(u2, dz.d(z2, h(x3))):
                            continue
                        lhs = v.meet2(dx.d(x1, x3), v.tensor(u, u2))
                        rhs = v.join(
                            v.tensor(
                                v.meet2(dx.d(x1, x2), u), v.meet2(dx.d(x2, x3), u2)
                            )
                            for x2 in fibre
                        )
                        if not v.leq(lhs, rhs):
                            return False
    return True


def reference_vgraph_to_structure(g: hm.VGraph) -> Structure:
    """One edge ~e(a, b) per pair and element e, kept when e <= d(a, b)."""
    v = g.quantale
    edges = [
        Edge(_sym(e), (a, b))
        for a in g.carrier
        for b in g.carrier
        for e in v.elements
        if v.leq(e, g.d(a, b))
    ]
    return Structure(hm.signature_of(v), g.carrier, edges)


@st.composite
def small_vfunctors(draw, max_size: int = 3):
    """A V-functor between V-graphs of 0..max_size points over boolean, chain3 or
    Lukasiewicz.

    The target's distances and the map are arbitrary, so graphs need not be
    reflexive and fibres may be empty; each source distance is drawn below the
    target distance of its image pair, so the map is always distance-increasing.
    """
    v = draw(st.sampled_from(
        [hm.boolean_quantale(), hm.chain_meet_quantale(3), hm.lukasiewicz_quantale()]))
    n = draw(st.integers(min_value=0, max_value=max_size))
    m = draw(st.integers(min_value=1 if n else 0, max_value=max_size))
    src = tuple(f"x{i}" for i in range(n))
    tgt = tuple(f"z{i}" for i in range(m))
    element = st.sampled_from(v.elements)
    dz = {(a, b): draw(element) for a in tgt for b in tgt}
    images = {a: draw(st.sampled_from(tgt)) for a in src}
    dx = {
        (a, b): draw(st.sampled_from(v.order.below(dz[images[a], images[b]])))
        for a in src for b in src
    }
    gx = hm.VGraph(v, src, tuple((a, b, d) for (a, b), d in dx.items()))
    gz = hm.VGraph(v, tgt, tuple((a, b, d) for (a, b), d in dz.items()))
    return v, hm.VFunctor(gx, gz, tuple(images.items()))
