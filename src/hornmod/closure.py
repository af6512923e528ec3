"""Closed-structure constructions and their brute-force verifiers.

Partial products come in two variants: the plain one, whose points pair a
codomain element with an arbitrary function on the fibre, and the reflexive
one, whose points pair a codomain element with an edge-preserving map on the
fibre and whose edge condition quantifies over all symbols below the given
one.  The verifiers replay the universal properties over a family of test
objects by exhaustive enumeration.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .core import (
    Edge,
    Morphism,
    SignatureError,
    Structure,
    StructureError,
    Theory,
    validate_morphism,
)
from .limits import (
    enumerate_functions,
    enumerate_morphisms,
    fibre_structure,
    pair_id,
    product,
    pullback,
)
from .semantics import free_model, is_model

STR_VARIANT = "str"
REFLEXIVE_VARIANT = "refl"


def function_id(table: dict[str, str], z: Optional[str] = None) -> str:
    """Readable canonical id for a (function table, codomain element) pair."""
    body = ",".join(f"{k}:{v}" for k, v in sorted(table.items()))
    return f"[{body}]" if z is None else f"[{body}]@{z}"


@dataclass(frozen=True)
class PartialProductResult:
    """A candidate partial product: the structure, its anchor and evaluation maps."""

    structure: Structure
    p: Morphism
    eval: Morphism
    variant: str
    components: dict = field(compare=False, repr=False, default_factory=dict)


@dataclass(frozen=True)
class ExponentialResult:
    structure: Structure
    eval: Morphism
    components: dict = field(compare=False, repr=False, default_factory=dict)


def _partial_product(y: Structure, f: Morphism, reflexive: bool) -> PartialProductResult:
    x, z = f.source, f.target
    sig = x.signature
    if sig != y.signature or sig != z.signature:
        raise SignatureError("partial product needs a shared signature")
    fibres = {c: fibre_structure(f, c) for c in z.sorted_carrier()}

    points: dict[str, tuple[dict[str, str], str]] = {}
    for c in z.sorted_carrier():
        fibre = fibres[c]
        tables: Iterable[dict[str, str]] = (
            (m.mapping for m in enumerate_morphisms(fibre, y)) if reflexive
            else enumerate_functions(fibre, y))
        for table in tables:
            pid = function_id(table, c)
            if pid in points:
                raise StructureError("carrier names collide under function-table rendering")
            points[pid] = (table, c)

    order_cache = {n: sig.order(n) for n in sig.arities()}
    edges: list[Edge] = []
    ids = sorted(points)
    for s in sig.symbols:
        below = order_cache[s.arity].below(s.name) if reflexive else (s.name,)
        for combo in itertools.product(ids, repeat=s.arity):
            zs = tuple(points[pid][1] for pid in combo)
            if not z.holds(s.name, zs):
                continue
            if _fibre_condition(x, y, points, combo, zs, below, fibres):
                edges.append(Edge(s.name, combo))
    struct = Structure(sig, ids, edges)
    p = Morphism(struct, z, {pid: points[pid][1] for pid in ids})
    pb = pullback(p, f)
    eval_map = {
        pair_id(pid, a): points[pid][0][a]
        for pid in ids
        for a in fibres[points[pid][1]].carrier
    }
    eps = Morphism(pb.structure, y, eval_map)
    return PartialProductResult(
        struct, p, eps, REFLEXIVE_VARIANT if reflexive else STR_VARIANT, dict(points)
    )


def _fibre_condition(
    x: Structure,
    y: Structure,
    points: dict[str, tuple[dict[str, str], str]],
    combo: tuple[str, ...],
    zs: tuple[str, ...],
    symbols: tuple[str, ...],
    fibres: dict[str, Structure],
) -> bool:
    fibre_sets = [fibres[c].sorted_carrier() for c in zs]
    for s in symbols:
        for xs in itertools.product(*fibre_sets):
            if not x.holds(s, xs):
                continue
            mapped = tuple(points[pid][0][a] for pid, a in zip(combo, xs))
            if not y.holds(s, mapped):
                return False
    return True


def partial_product_str(y: Structure, f: Morphism) -> PartialProductResult:
    """The partial product whose points are arbitrary functions on the fibres."""
    return _partial_product(y, f, reflexive=False)


def partial_product_refl(y: Structure, f: Morphism) -> PartialProductResult:
    """The partial product whose points are edge-preserving maps on the fibres.

    The inputs must be models of the signature's base theory; the edge
    condition quantifies over every symbol below the edge's symbol in the
    signature order.
    """
    base = Theory(f.source.signature, (), (), base_flag=True)
    for struct, name in ((f.source, "source"), (f.target, "target"), (y, "object")):
        if not is_model(struct, base):
            raise StructureError(f"partial product {name} is not a base-theory model")
    return _partial_product(y, f, reflexive=True)


def _hom_structure(
    x: Structure, y: Structure, tuples: dict[str, Iterable[tuple[str, ...]]]
) -> tuple[Structure, dict[str, dict[str, str]]]:
    """The edge-preserving maps x -> y as points named by their function ids.

    An edge joins maps that send every tuple in ``tuples[symbol]`` to an edge of y.
    """
    homs = enumerate_morphisms(x, y)
    points = {function_id(dict(h.mapping)): dict(h.mapping) for h in homs}
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


def exponential_object(x: Structure, y: Structure) -> ExponentialResult:
    """The structure of edge-preserving maps x -> y with the evaluation morphism.

    An edge holds between maps iff they send every related tuple of ``x`` to
    a related tuple of ``y``.
    """
    if x.signature != y.signature:
        raise SignatureError("exponential needs a shared signature")
    struct, points = _hom_structure(x, y, {s.name: x.tuples(s.name) for s in x.signature.symbols})
    prod = product(struct, x)
    eval_map = {pair_id(pid, a): points[pid][a] for pid in sorted(points) for a in x.carrier}
    return ExponentialResult(struct, Morphism(prod.structure, y, eval_map), dict(points))


def internal_hom(theory: Theory, x: Structure, y: Structure) -> Structure:
    """The monoidal-closed hom: model morphisms with the pointwise edge condition."""
    for struct in (x, y):
        if not is_model(struct, theory):
            raise StructureError("internal hom needs model endpoints")
    diagonal = {s.name: [(a,) * s.arity for a in x.carrier] for s in x.signature.symbols}
    return _hom_structure(x, y, diagonal)[0]


def tensor(theory: Theory, x: Structure, y: Structure) -> Structure:
    """The monoidal tensor: the free model on the axis-wise product structure."""
    for struct in (x, y):
        if not is_model(struct, theory):
            raise StructureError("tensor needs model endpoints")
    sig = x.signature
    pairs = [(a, b) for a in x.sorted_carrier() for b in y.sorted_carrier()]
    ids = {pr: pair_id(*pr) for pr in pairs}
    edges = []
    for s in sig.symbols:
        for combo in itertools.product(pairs, repeat=s.arity):
            xs = tuple(pr[0] for pr in combo)
            ys = tuple(pr[1] for pr in combo)
            if (len(set(xs)) == 1 and y.holds(s.name, ys)) or (
                len(set(ys)) == 1 and x.holds(s.name, xs)
            ):
                edges.append(Edge(s.name, tuple(ids[pr] for pr in combo)))
    seed = Structure(sig, ids.values(), edges)
    return free_model(theory, seed).model


def tensor_unit(theory: Theory) -> Structure:
    """The free model on a single edge-free point."""
    return free_model(theory, Structure(theory.signature, ("i",), ())).model


@dataclass(frozen=True)
class VerificationEntry:
    test_object: Structure
    checked: int
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    entries: tuple[VerificationEntry, ...]

    def counts(self) -> list[int]:
        return [e.checked for e in self.entries]


def verify_exponential(
    x: Structure,
    y: Structure,
    candidate: ExponentialResult,
    test_family: Sequence[Structure],
) -> VerificationReport:
    """Check the currying bijection Hom(Q, C) = Hom(Q x X, Y) over a family of Q."""
    c = candidate.structure
    if not validate_morphism(candidate.eval):
        return VerificationReport(
            False, (VerificationEntry(c, 0, False, "evaluation map is not a morphism"),)
        )
    prod_cx = product(c, x)
    if candidate.eval.source != prod_cx.structure:
        return VerificationReport(
            False, (VerificationEntry(c, 0, False, "evaluation domain is not C x X"),)
        )
    ev = candidate.eval.mapping
    entries = []
    all_ok = True
    for q in test_family:
        prod_qx = product(q, x)
        targets = enumerate_morphisms(prod_qx.structure, y)
        target_keys = {
            tuple(sorted(m.mapping.items())): 0 for m in targets
        }
        homs_qc = enumerate_morphisms(q, c)
        ok = True
        detail = ""
        for h in homs_qc:
            transposed = {
                pair_id(a, b): ev[pair_id(h(a), b)] for a in q.carrier for b in x.carrier
            }
            key = tuple(sorted(transposed.items()))
            if key not in target_keys:
                ok = False
                detail = f"transpose of {h!r} is not a morphism Q x X -> Y"
                break
            target_keys[key] += 1
        if ok:
            missed = [k for k, n in target_keys.items() if n != 1]
            if missed:
                ok = False
                detail = f"currying is not a bijection at {dict(missed[0])}"
        entries.append(VerificationEntry(q, len(targets), ok, detail))
        all_ok &= ok
    return VerificationReport(all_ok, tuple(entries))


def verify_partial_product(
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
        for q in enumerate_morphisms(q_obj, z):
            pb = pullback(q, f)
            for g in enumerate_morphisms(pb.structure, y):
                checked += 1
                candidates_per_point = []
                for a in q_obj.sorted_carrier():
                    row = tuple(g.mapping[pair_id(a, s)] for s in fibre_of[q(a)])
                    cands = [pid for pid, r in rows[q(a)].items() if r == row]
                    candidates_per_point.append(sorted(cands))
                solutions = 0
                for combo in itertools.product(*candidates_per_point):
                    mapping = dict(zip(q_obj.sorted_carrier(), combo))
                    h = Morphism(q_obj, struct, mapping)
                    if validate_morphism(h):
                        solutions += 1
                if solutions != 1:
                    ok = False
                    detail = (
                        f"{solutions} mediating morphisms for q={dict(q.mapping)}, "
                        f"g={dict(g.mapping)}"
                    )
                    break
            if not ok:
                break
        entries.append(VerificationEntry(q_obj, checked, ok, detail))
        all_ok &= ok
    return VerificationReport(all_ok, tuple(entries))
