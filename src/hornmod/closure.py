"""Closed-structure constructions and their brute-force verifiers.

Exponentials, internal homs and both partial products are one function
space: its points over a key (a codomain element, or none for the
exponential's single fibre) are maps of that key's fibre into the object,
and an edge joins maps that send the tuples it must preserve to edges of the
object.  The plain partial product takes arbitrary functions on the fibres
and preserves the edge's own symbol; the reflexive one takes edge-preserving
maps and preserves every symbol below the edge's symbol; the exponential and
the internal hom take edge-preserving maps of X and preserve the edges of X
or its diagonal.  Points and edges both come from the valuation search of
:mod:`hornmod.semantics`, the edges over tagged copies of the fibres' points.
The verifiers replay the universal properties exhaustively over a family of
test objects Q, without the builder: they join Q x X or Q x_Z X as pair ids
and edges, and count every map into the candidate at its transpose.
"""
from __future__ import annotations

import itertools
from collections import Counter
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
    _hom_tuples,
    _pair_edges,
    _pair_ids,
    fibre_structure,
    pair_id,
    product,
    pullback,
)
from .semantics import _value_tuples, free_model, is_model

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


def _function_space(
    y: Structure,
    fibres: dict[Optional[str], Structure],
    keep_edges: bool,
    over: Iterable[tuple[str, tuple[Optional[str], ...], Iterable[Edge]]],
) -> tuple[Structure, dict[str, tuple[dict[str, str], Optional[str]]]]:
    """A structure whose points over each key are maps of that key's fibre into y.

    The points over a key are the maps of its fibre into ``y``, edge-preserving
    when ``keep_edges``, named by ``function_id(table, key)``.  Each
    ``(s, keys, preserved)`` of ``over`` adds the s-edges between points over
    ``keys``: the tuples of maps that send every edge ``t(xs)`` of
    ``preserved``, with ``xs[i]`` in the fibre of ``keys[i]``, to a t-edge of y.
    Both come from the valuation search; the edges' variables are tagged copies
    ``(i, a)`` of the fibres' points.
    """
    tgt = y.sorted_carrier()
    points: dict[str, tuple[dict[str, str], Optional[str]]] = {}
    named: dict[tuple[Optional[str], tuple[str, ...]], str] = {}
    for key, fibre in fibres.items():
        src = fibre.sorted_carrier()
        for images in _value_tuples(y, src, [tgt] * len(src), fibre.edges if keep_edges else ()):
            table = dict(zip(src, images))
            pid = function_id(table, key)
            if pid in points:
                raise StructureError("carrier names collide under function-table rendering")
            points[pid] = (table, key)
            named[key, images] = pid
    edges = []
    for s, keys, preserved in over:
        copies = [[(i, a) for a in fibres[c].sorted_carrier()] for i, c in enumerate(keys)]
        variables = [v for copy in copies for v in copy]
        premises = [Edge(e.symbol, tuple(enumerate(e.args))) for e in preserved]
        if keep_edges:
            premises += [Edge(e.symbol, tuple((i, a) for a in e.args))
                         for i, c in enumerate(keys) for e in fibres[c].edges]
        ends = list(itertools.accumulate(map(len, copies)))
        spans = list(zip(keys, [0] + ends, ends))
        for values in _value_tuples(y, variables, [tgt] * len(variables), premises):
            edges.append(Edge(s, tuple(named[c, values[lo:hi]] for c, lo, hi in spans)))
    return Structure(y.signature, points, edges), points


def _partial_product(y: Structure, f: Morphism, reflexive: bool) -> PartialProductResult:
    x, z = f.source, f.target
    sig = x.signature
    if sig != y.signature or sig != z.signature:
        raise SignatureError("partial product needs a shared signature")
    fibres = {c: fibre_structure(f, c) for c in z.sorted_carrier()}
    # over_z[t, zs] = the t-edges of x whose image under f is zs
    over_z: dict[tuple[str, tuple[str, ...]], list[Edge]] = {}
    for e in x.edges:
        over_z.setdefault((e.symbol, tuple(map(f, e.args))), []).append(e)
    over = []
    for s in sig.symbols:
        below = sig.order(s.arity).below(s.name) if reflexive else (s.name,)
        for zs in z.tuples(s.name):
            over.append((s.name, zs, [e for t in below for e in over_z.get((t, zs), ())]))
    struct, points = _function_space(y, fibres, reflexive, over)
    ids = sorted(points)
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
    x: Structure, y: Structure, preserved: dict[str, Iterable[tuple[str, ...]]]
) -> tuple[Structure, dict[str, dict[str, str]]]:
    """The edge-preserving maps x -> y, joined by an s-edge when they send every
    tuple of ``preserved[s]`` to an s-edge of y: the one-fibre function space."""
    over = [(s.name, (None,) * s.arity, [Edge(s.name, xs) for xs in preserved[s.name]])
            for s in x.signature.symbols]
    struct, points = _function_space(y, {None: x}, True, over)
    return struct, {pid: table for pid, (table, _) in points.items()}


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
    return ExponentialResult(struct, Morphism(prod.structure, y, eval_map), points)


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
    ids = _pair_ids([(a, b) for a in x.sorted_carrier() for b in y.sorted_carrier()])
    edges = []
    for s in sig.symbols:
        for a in x.carrier:  # a fixed first coordinate, an edge of y along the second
            edges += (Edge(s.name, tuple(ids[a, b] for b in ys)) for ys in y.tuples(s.name))
        for b in y.carrier:
            edges += (Edge(s.name, tuple(ids[a, b] for a in xs)) for xs in x.tuples(s.name))
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


def _rejected(struct: Structure, detail: str) -> VerificationReport:
    return VerificationReport(False, (VerificationEntry(struct, 0, False, detail),))


def _product_pairs(a: Structure, b: Structure) -> list[tuple[str, str]]:
    if a.signature != b.signature:
        raise SignatureError("product needs a shared signature")
    return [(u, v) for u in a.sorted_carrier() for v in b.sorted_carrier()]


def _joined_ids(
    domain: Structure, a: Structure, b: Structure, pairs: list[tuple[str, str]]
) -> Optional[dict[tuple[str, str], str]]:
    """The ids of ``pairs`` when ``domain`` is a and b joined over them, else None."""
    ids = _pair_ids(pairs)
    joined = (a.signature, set(ids.values()), set(_pair_edges(a.signature, ids, a, b)))
    return ids if (domain.signature, domain.carrier, domain.edges) == joined else None


def _joined_homs(
    q: Structure, x: Structure, pairs: list[tuple[str, str]], y: Structure
) -> tuple[list[str], list[tuple[int, str]], list[tuple[str, ...]]]:
    """Q and X joined over ``pairs``, as no ``Structure``: its sorted pair ids, the
    cell (position in Q, point of X) of each, and its maps into y as image tuples
    over those ids in the order ``_hom_tuples`` gives for the built structure."""
    ids = _pair_ids(pairs)
    if q.signature != y.signature:
        raise SignatureError("hom-set needs a shared signature")
    at_q = {a: i for i, a in enumerate(q.sorted_carrier())}
    layout = sorted((pid, at_q[a], b) for (a, b), pid in ids.items())
    names = [pid for pid, _, _ in layout]
    edges = _pair_edges(q.signature, ids, q, x)
    targets = _value_tuples(y, names, [y.sorted_carrier()] * len(names), edges)
    return names, [(i, b) for _, i, b in layout], list(targets)


def verify_exponential(
    x: Structure,
    y: Structure,
    candidate: ExponentialResult,
    test_family: Sequence[Structure],
) -> VerificationReport:
    """Check the currying bijection Hom(Q, C) = Hom(Q x X, Y) over a family of Q.

    Every h : Q -> C is counted at its transpose eval . (h x X); each map
    Q x X -> Y must be hit exactly once.
    """
    c = candidate.structure
    if not validate_morphism(candidate.eval):
        return _rejected(c, "evaluation map is not a morphism")
    ids = _joined_ids(candidate.eval.source, c, x, _product_pairs(c, x))
    if ids is None:
        return _rejected(c, "evaluation domain is not C x X")
    # ev_at[c, b] = eval at the point (c, b) of C x X
    ev_at = {pair: candidate.eval.mapping[pid] for pair, pid in ids.items()}
    entries = []
    for q in test_family:
        # maps Q x X -> Y are image tuples over the sorted pair ids of Q x X
        names, cells, targets = _joined_homs(q, x, _product_pairs(q, x), y)
        hits = dict.fromkeys(targets, 0)
        for h in _hom_tuples(q, c):
            # the transpose eval . (h x X) composes morphisms, so it is one of the targets
            hits[tuple(ev_at[h[i], b] for i, b in cells)] += 1
        missed = [k for k, n in hits.items() if n != 1]
        detail = f"currying is not a bijection at {dict(zip(names, missed[0]))}" if missed else ""
        entries.append(VerificationEntry(q, len(targets), not missed, detail))
    return VerificationReport(all(e.ok for e in entries), tuple(entries))


def verify_partial_product(
    f: Morphism,
    y: Structure,
    candidate: PartialProductResult,
    test_family: Sequence[Structure],
) -> VerificationReport:
    """Check the partial-product universal property over a family of test objects.

    For every q : Q -> Z and g : Q x_Z X -> Y there must be exactly one
    h : Q -> P with p . h = q and eval . (h x_Z id) = g.  The h over each q
    are enumerated once and counted at their transposes; the g are walked in
    canonical order, and the first one not hit exactly once fails the check.
    """
    p, ev = candidate.p, candidate.eval
    struct = candidate.structure
    if not validate_morphism(p) or not validate_morphism(ev):
        return _rejected(struct, "anchor or evaluation is invalid")
    x, z = f.source, f.target
    fibre_of = {c: [a for a in x.sorted_carrier() if f(a) == c] for c in z.carrier}
    over = {c: [pid for pid in struct.sorted_carrier() if p(pid) == c] for c in z.carrier}
    pairs = [(pid, a) for pid in struct.sorted_carrier() for a in fibre_of.get(p(pid), ())]
    ids = _joined_ids(ev.source, struct, x, pairs) if p.target == z else None
    if ids is None:
        return _rejected(struct, "evaluation domain is not P x_Z X")
    # ev_at[pid, a] = eval at the point (pid, a) of P x_Z X
    ev_at = {pair: ev.mapping[pid] for pair, pid in ids.items()}
    entries = []
    for q_obj in test_family:
        checked, detail = 0, ""
        q_src = q_obj.sorted_carrier()
        for q in _hom_tuples(q_obj, z):
            pairs = [(a, s) for a, c in zip(q_src, q) for s in fibre_of[c]]
            names, cells, targets = _joined_homs(q_obj, x, pairs, y)
            # h(a) ranges over the points above q(a); each h lands at its transpose
            hs = _value_tuples(struct, q_src, [over[c] for c in q], q_obj.edges)
            hits = Counter(tuple(ev_at[h[i], s] for i, s in cells) for h in hs)
            for g in targets:
                checked += 1
                if hits[g] != 1:
                    detail = (f"{hits[g]} mediating morphisms for q={dict(zip(q_src, q))}, "
                              f"g={dict(zip(names, g))}")
                    break
            if detail:
                break
        entries.append(VerificationEntry(q_obj, checked, not detail, detail))
    return VerificationReport(all(e.ok for e in entries), tuple(entries))
