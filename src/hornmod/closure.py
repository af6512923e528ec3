"""Closed-structure constructions and their brute-force verifiers.

Partial products and exponentials are one construction, P*, read off the
free models of a theory T.  In T's models a point is a map from F(v), the
free model on one point, and an s-edge a map from F(s(v1..vn)), the free
model on one s-edge; so the partial product of Y over f : X -> Z, when it
exists, has the maps F(v) x_Z X -> Y as its points and gets an s-edge from
each map F(s(v1..vn)) x_Z X -> Y.  The theory is the variant: all structures
are the empty theory's models, so the plain partial product is P* over the
empty theory, the reflexive one over the signature's base theory, and the
exponential Y^X the base theory's P* along X -> 1.  The free models depend
on the theory alone, so they are chased once and kept on it, and each
signature keeps its empty and base theories (``Signature.theory``).  Points
and edges both come from the valuation search of :mod:`hornmod.semantics`,
the edges over the edge join of a free model and X at pair positions
(:func:`_joined_checks`).  The internal hom joins maps pointwise.  One
universal-property check replays P*'s over a family of test objects Q,
without the builder or anything it keeps, and decides each q : Q -> Z by
counting: the maps Q x_Z X -> Y are counted over the same join, of Q and X,
with no pair id rendered, and the pair ids of the whole of Q x X are
rendered once per Q, to raise when two collide.  Two facts are checked
once per candidate: the evaluation is a morphism on exactly P x_Z X, which
the verifier joins itself and compares with the domain's tuple sets symbol
by symbol, never building the domain's ``Edge`` set, so every transpose
eval . (h x_Z X) of a map h : Q -> P over q is a map g : Q x_Z X -> Y; and
the points of P over each point of Z have pairwise distinct evaluation
tables, so h is read back off its transpose.  Then h -> transpose is
injective, and every g is hit exactly once iff the h over q are as many as
the g.  When the tables collide or the counts differ, every h is counted at
its transpose and the g are walked over the same join, its pairs in the
order of their ids, to the first one not hit exactly once.  The exponential's check is this one along X -> 1, where
Q x_1 X is Q x X.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Container, Iterator, Optional, Sequence

from .core import (
    Edge,
    Morphism,
    SignatureError,
    Structure,
    StructureError,
    Theory,
    fresh_variables,
    validate_morphism,
)
from .limits import (
    _hom_tuples,
    _pair_edges,
    _pair_ids,
    bang,
    pair_id,
)
from .semantics import (
    _count,
    _hom_checks,
    _plan,
    _reader,
    _run,
    free_model,
    is_model,
)

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


def _presentation(theory: Theory) -> tuple[tuple[Optional[str], Structure, list[int]], ...]:
    """The free models that present P* in the theory's models, chased on first use
    and kept on the theory.

    First F(v), the free model on one point, keyed None; then F(s(v1..vn)), the
    free model on one s-edge, keyed s, for each symbol s.  Each comes with the
    positions in its sorted carrier of the points v, resp. v1..vn, land on.
    """
    if theory._presentation is None:
        sig = theory.signature
        seeds: list[tuple[Optional[str], tuple[str, ...], list[Edge]]] = [
            (None, fresh_variables(1), [])]
        for s in sig.symbols:
            vs = fresh_variables(s.arity)
            seeds.append((s.name, vs, [Edge(s.name, vs)]))
        kept = []
        for name, vs, edges in seeds:
            free = free_model(theory, Structure(sig, vs, edges))
            us = free.model.sorted_carrier()
            kept.append((name, free.model, [us.index(free.unit_map(v)) for v in vs]))
        object.__setattr__(theory, "_presentation", tuple(kept))
    return theory._presentation


def _partial_product(
    theory: Theory, y: Structure, f: Morphism, key: Callable[[str], Optional[str]]
) -> tuple[Structure, dict[str, tuple[dict[str, str], str]]]:
    """P*, the partial product of y over f that the theory's free models present.

    The points over a point c of Z are the maps F(v) x_Z X -> y along
    c : F(v) -> Z, F(v) the free model on one point, named
    ``function_id(table, key(c))`` by their table on c's fibre.  For each
    symbol s and each k : F(s(v1..vn)) -> Z, each map F(s(v1..vn)) x_Z X -> y
    adds the s-edge on the points it restricts to at v1..vn; variables the
    chase merged are one point of the free model, so they share one copy.
    The maps over a k come from the valuation search over tagged copies
    ``(u, a)``, u a point of the free model and a one of k(u)'s fibre, joined
    with X (:func:`_joined_checks`).
    The free models are the theory's kept :func:`_presentation`.
    """
    x, z = f.source, f.target
    fibre: dict[str, list[str]] = {c: [] for c in z.carrier}
    for a in x.sorted_carrier():
        fibre[f(a)].append(a)
    tgt = y.sorted_carrier()

    def maps(model: Structure, at: list[int]) -> Iterator[tuple]:
        """Each map model x_Z X -> y over each k : model -> Z, read at the points
        of the positions ``at`` as a ``(k(u), images of u's copy)`` pair per point u."""
        us = model.sorted_carrier()
        for k in _hom_tuples(model, z):
            copies = [[(u, a) for a in fibre[c]] for u, c in zip(us, k)]
            pairs = [pair for copy in copies for pair in copy]
            ends = list(itertools.accumulate(map(len, copies)))
            cells = [(k[i], ends[i] - len(copies[i]), ends[i]) for i in at]
            for values in _run(_joined_checks(model, x, pairs, y), [tgt] * len(pairs)):
                yield tuple((c, values[lo:hi]) for c, lo, hi in cells)

    (_, point, at), *symbols = _presentation(theory)
    points: dict[str, tuple[dict[str, str], str]] = {}
    named: dict[tuple[str, tuple[str, ...]], str] = {}
    for (c, images), in maps(point, at):
        table = dict(zip(fibre[c], images))
        pid = function_id(table, key(c))
        if pid in points:
            raise StructureError("carrier names collide under function-table rendering")
        points[pid] = (table, c)
        named[c, images] = pid
    edges = [Edge(name, tuple(map(named.__getitem__, cells)))
             for name, model, at in symbols for cells in maps(model, at)]
    return Structure(x.signature, points, edges), points


def _result(theory: Theory, y: Structure, f: Morphism, key: Callable) -> PartialProductResult:
    """P* with its anchor p : P* -> Z and its evaluation P* x_Z X -> y; ``key``
    names the points over each point of Z, as in :func:`_partial_product`."""
    struct, points = _partial_product(theory, y, f, key)
    ids = sorted(points)
    p = Morphism(struct, f.target, {pid: points[pid][1] for pid in ids})
    # P x_Z X pairs each point of P with the fibre its table is defined on
    pair_ids = _pair_ids([(pid, a) for pid in ids for a in points[pid][0]])
    domain = Structure(struct.signature, pair_ids.values(),
                       _pair_edges(struct.signature, pair_ids, struct, f.source))
    eval_map = {pair_ids[pid, a]: b for pid in ids for a, b in points[pid][0].items()}
    variant = REFLEXIVE_VARIANT if theory.base_flag else STR_VARIANT
    return PartialProductResult(struct, p, Morphism(domain, y, eval_map), variant,
                                dict(points))


def partial_product(theory: Theory, y: Structure, f: Morphism) -> PartialProductResult:
    """P*(y, f) in the theory's models, which y and the ends of f must be.

    It is the partial product whenever one exists, so a P* that is not a
    model shows that f is not exponentiable.  The variant is ``refl`` when
    the theory includes its signature's base axioms, else ``str``.
    """
    if not f.source.signature == y.signature == f.target.signature:
        raise SignatureError("partial product needs a shared signature")
    for struct, name in ((f.source, "source"), (f.target, "target"), (y, "object")):
        if not is_model(struct, theory):
            raise StructureError(f"partial product {name} is not a model of the theory")
    return _result(theory, y, f, lambda c: c)


def partial_product_str(y: Structure, f: Morphism) -> PartialProductResult:
    """The partial product among all structures, the empty theory's models: its
    points are arbitrary functions on the fibres, and an s-edge's maps send the
    s-edges of X over it to s-edges of y."""
    return partial_product(f.source.signature.theory(False), y, f)


def partial_product_refl(y: Structure, f: Morphism) -> PartialProductResult:
    """The partial product among the base theory's models, which the inputs must be.

    Its points are edge-preserving maps on the fibres, and an s-edge's maps
    send every t-edge of X over it, for t below s in the signature order, to
    a t-edge of y.
    """
    return partial_product(f.source.signature.theory(True), y, f)


def exponential_object(x: Structure, y: Structure) -> ExponentialResult:
    """The exponential y^x among the base theory's models, with its evaluation.

    It is the base theory's partial product of y along x -> 1, with the
    terminal point keyed None, so a point is the edge-preserving map x -> y
    named ``function_id(table)``.  Neither input needs to be a model: two maps
    are joined by an s-edge iff they send every t-edge of x, for t below s in
    the signature order, to a t-edge of y; the result is a base-theory model
    when x and y are.
    """
    if x.signature != y.signature:
        raise SignatureError("exponential needs a shared signature")
    pp = _result(x.signature.theory(True), y, bang(x), lambda c: None)
    tables = {pid: table for pid, (table, _) in pp.components.items()}
    return ExponentialResult(pp.structure, pp.eval, tables)


def internal_hom(theory: Theory, x: Structure, y: Structure) -> Structure:
    """The monoidal-closed hom: model morphisms with the pointwise edge condition.

    Maps h1..hn are joined by an s-edge iff s(h1(a), .., hn(a)) holds in y
    for every point a of x.
    """
    for struct in (x, y):
        if not is_model(struct, theory):
            raise StructureError("internal hom needs model endpoints")
    src = x.sorted_carrier()
    homs = _hom_tuples(x, y)
    ids = {h: function_id(dict(zip(src, h))) for h in homs}
    if len(set(ids.values())) != len(homs):
        raise StructureError("carrier names collide under function-table rendering")
    edges = [Edge(s.name, tuple(map(ids.get, hs))) for s in x.signature.symbols
             for hs in itertools.product(homs, repeat=s.arity)
             if all(map(y.tuples(s.name).__contains__, zip(*hs)))]
    return Structure(x.signature, ids.values(), edges)


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


def _joined_ids(
    domain: Structure, a: Structure, b: Structure, pairs: list[tuple[str, str]]
) -> Optional[dict[tuple[str, str], str]]:
    """The ids of ``pairs`` when ``domain`` is a and b joined over them, else None.

    The join is grouped by symbol and compared with the domain's tuple sets, so
    the domain's ``Edge`` set is never built."""
    ids = _pair_ids(pairs)
    joined: dict[str, set] = {name: set() for name in a._by_symbol}
    for name, labels in _pair_edges(a.signature, ids, a, b):
        joined[name].add(labels)
    same = domain.signature == a.signature and domain.carrier == set(ids.values())
    return ids if same and domain._by_symbol == joined else None


def _transposer(cells: list[tuple[int, str]], ev_at: dict) -> Callable[[tuple], tuple]:
    """The transpose of an image tuple h of Q: ``ev_at[h[i], b]`` for each cell (i, b)."""
    pick, bs = _reader([i for i, _ in cells]), [b for _, b in cells]
    ev = ev_at.__getitem__
    return lambda h: tuple(map(ev, zip(pick(h), bs)))


def _renders_apart(q: Structure, x: Structure) -> bool:
    """Whether the rendered ids of the pairs of Q x X are pairwise distinct, so
    that those of every join of Q and X over some of the pairs are too."""
    return len({pair_id(a, b) for a in q.carrier for b in x.carrier}) == (
        len(q.carrier) * len(x.carrier))


def _joined_checks(a: Structure, b: Structure, pairs: list[tuple[str, str]],
                   y: Structure) -> list[list[tuple[Container, Callable]]]:
    """The plan of a search for the maps into y of a and b joined over ``pairs``,
    variable i the pair at position i: the edge join labelled by positions, each
    joined s-edge checked against y's s-tuples (:func:`semantics._plan`)."""
    positions = {pair: i for i, pair in enumerate(pairs)}
    return _plan(len(pairs), _pair_edges(a.signature, positions, a, b), y._by_symbol)


def _joined_count(q: Structure, x: Structure, pairs: list[tuple[str, str]], y: Structure,
                  apart: bool = False) -> int:
    """The number of maps into y of Q and X joined over ``pairs``, the targets of
    :func:`_joined_homs`.  The pair ids are rendered only to raise as it does when
    two collide, and not at all when ``apart`` says that the pairs of the whole
    of Q x X render apart (:func:`_renders_apart`)."""
    if not apart:
        _pair_ids(pairs)
    return _count(_joined_checks(q, x, pairs, y), [y.sorted_carrier()] * len(pairs))


def _joined_homs(
    q: Structure, x: Structure, pairs: list[tuple[str, str]], y: Structure
) -> tuple[list[str], list[tuple[int, str]], Iterator[tuple[str, ...]]]:
    """Q and X joined over ``pairs``, as no ``Structure``: its sorted pair ids, the
    cell (position in Q, point of X) of each, and its maps into y as image tuples
    over those ids, lazily, in the order ``_hom_tuples`` gives for the built structure."""
    ids = _pair_ids(pairs)
    at_q = {a: i for i, a in enumerate(q.sorted_carrier())}
    order = sorted(pairs, key=ids.__getitem__)
    targets = _run(_joined_checks(q, x, order, y), [y.sorted_carrier()] * len(order))
    return [ids[pair] for pair in order], [(at_q[a], b) for a, b in order], targets


def verify_exponential(
    x: Structure,
    y: Structure,
    candidate: ExponentialResult,
    test_family: Sequence[Structure],
) -> VerificationReport:
    """Check y^x's universal property as the partial product of y along x -> 1.

    The candidate C is anchored by its map into the terminal structure, so
    C x_1 X is C x X and each Q has one map into 1: every h : Q -> C is counted
    at its transpose eval . (h x X), and each map Q x X -> Y must be hit once.
    """
    c = candidate.structure
    return _verify_partial_product(bang(x), y, c, bang(c), candidate.eval, test_family)


def verify_partial_product(
    f: Morphism,
    y: Structure,
    candidate: PartialProductResult,
    test_family: Sequence[Structure],
) -> VerificationReport:
    """Check the partial-product universal property over a family of test objects.

    For every q : Q -> Z and g : Q x_Z X -> Y there must be exactly one
    h : Q -> P with p . h = q and eval . (h x_Z id) = g.  The first g, in
    canonical order, that is not hit exactly once fails the check; ``checked``
    counts the g up to it, or all of them.
    """
    return _verify_partial_product(f, y, candidate.structure, candidate.p, candidate.eval,
                                   test_family)


def _verify_partial_product(f: Morphism, y: Structure, struct: Structure, p: Morphism,
                            ev: Morphism, test_family: Sequence[Structure]) -> VerificationReport:
    """:func:`verify_partial_product` of the candidate ``(struct, p, ev)``; both
    public verifiers call it, so the tracer counts each case once.

    Once ev is a morphism on exactly P x_Z X, each transpose eval . (h x_Z X)
    is one of the targets g : Q x_Z X -> Y.  When moreover the points of P over
    each point c of Z have pairwise distinct tables ``ev_at[pid, a]``, a over
    c's fibre, h -> transpose is injective, so every g is hit exactly once iff
    the h over q are as many as the g: both sides are counted, and ``checked``
    grows by the count.  When the tables collide or the counts differ, the h
    are counted at their transposes and the g walked in canonical order, so
    the first g not hit exactly once and ``checked`` are the walk's either way.
    """
    if not validate_morphism(p) or not validate_morphism(ev):
        return _rejected(struct, "anchor or evaluation is invalid")
    if ev.target != y:
        return _rejected(struct, "evaluation codomain is not Y")
    x, z = f.source, f.target
    fibre_of = {c: [a for a in x.sorted_carrier() if f(a) == c] for c in z.carrier}
    over = {c: [pid for pid in struct.sorted_carrier() if p(pid) == c] for c in z.carrier}
    pairs = [(pid, a) for pid in struct.sorted_carrier() for a in fibre_of.get(p(pid), ())]
    ids = _joined_ids(ev.source, struct, x, pairs) if p.target == z else None
    if ids is None:
        return _rejected(struct, "evaluation domain is not P x_Z X")
    # ev_at[pid, a] = eval at the point (pid, a) of P x_Z X
    ev_at = {pair: ev.mapping[pid] for pair, pid in ids.items()}
    # distinct tables over each c: an h is read back off its transpose
    tables = {(c, tuple(ev_at[pid, a] for a in fibre_of[c])) for c in over for pid in over[c]}
    injective = len(tables) == len(struct.carrier)
    entries = []
    for q_obj in test_family:
        checked, detail = 0, ""
        q_src = q_obj.sorted_carrier()
        qs = _hom_tuples(q_obj, z)
        h_checks = _hom_checks(q_obj, struct)  # h : Q -> P preserves Q's edges
        apart = injective and _renders_apart(q_obj, x)
        for q in qs:
            pairs = [(a, s) for a, c in zip(q_src, q) for s in fibre_of[c]]
            domains = [over[c] for c in q]  # h(a) ranges over the points above q(a)
            if injective:
                n = _joined_count(q_obj, x, pairs, y, apart)
                if _count(h_checks, domains) == n:
                    checked += n
                    continue
            names, cells, targets = _joined_homs(q_obj, x, pairs, y)
            # each h lands at its transpose
            hits = Counter(map(_transposer(cells, ev_at), _run(h_checks, domains)))
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
