import itertools
import json
from pathlib import Path

import pytest
from hypothesis import strategies as st

import hornmod as hm
from hornmod.convexity import (
    ConvexityCounterexample,
    ConvexityReport,
    _require_discrete,
    eligible_axioms,
)
from hornmod.core import (
    Edge,
    Equality,
    HornFormula,
    Morphism,
    RelationSymbol,
    Signature,
    SignatureError,
    Structure,
    Theory,
    TheoryError,
    validate_morphism,
    var_set,
)
from hornmod.families import all_models, all_structures, iso_key
from hornmod.schema import (
    AxiomSchema,
    SchemaConvexityReport,
    SchemaCounterexample,
    SchemaInstance,
    _r_kappa,
    _require_heyting,
    apply_combine,
    expand_instances,
)
from hornmod.semantics import FreeModelResult

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
