"""Finite limits of structures, computed concretely, and hom-set enumeration.

Carriers of limits are the underlying set-level limits; edges are computed
componentwise.  Product elements get readable pair ids; a collision guard
rejects carrier names that would make the rendering ambiguous.
"""
from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Optional

from .core import (
    Edge,
    Morphism,
    Signature,
    SignatureError,
    Structure,
    StructureError,
    Theory,
)
from .families import _canonical_labelling
from .semantics import is_model

TERMINAL_ELEMENT = "*"


class ProductResult(NamedTuple):
    structure: Structure
    left: Morphism
    right: Morphism


class PullbackResult(NamedTuple):
    structure: Structure
    left: Morphism
    right: Morphism


class EqualizerResult(NamedTuple):
    structure: Structure
    inclusion: Morphism


def pair_id(a: str, b: str) -> str:
    return f"({a},{b})"


def terminal(sig: Signature) -> Structure:
    """The one-point structure with every full edge."""
    edges = [Edge(s.name, (TERMINAL_ELEMENT,) * s.arity) for s in sig.symbols]
    return Structure(sig, (TERMINAL_ELEMENT,), edges)


def bang(x: Structure) -> Morphism:
    """The unique map into the terminal structure."""
    return Morphism(x, terminal(x.signature), {a: TERMINAL_ELEMENT for a in x.carrier})


def _paired_structure(
    sig: Signature, pairs: list[tuple[str, str]], x: Structure, y: Structure
) -> tuple[Structure, Morphism, Morphism]:
    ids = {p: pair_id(*p) for p in pairs}
    if len(set(ids.values())) != len(pairs):
        raise StructureError("carrier names collide under pair rendering")
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


def product(x: Structure, y: Structure) -> ProductResult:
    """The binary product with componentwise edges and the two projections."""
    if x.signature != y.signature:
        raise SignatureError("product needs a shared signature")
    pairs = [(a, b) for a in x.sorted_carrier() for b in y.sorted_carrier()]
    return ProductResult(*_paired_structure(x.signature, pairs, x, y))


def pullback(f: Morphism, g: Morphism) -> PullbackResult:
    """The pullback of a cospan: pairs agreeing in the codomain, componentwise edges."""
    if f.target != g.target:
        raise StructureError("pullback needs a common codomain")
    x, y = f.source, g.source
    pairs = [
        (a, b) for a in x.sorted_carrier() for b in y.sorted_carrier() if f(a) == g(b)
    ]
    return PullbackResult(*_paired_structure(x.signature, pairs, x, y))


def equalizer(f: Morphism, g: Morphism) -> EqualizerResult:
    """The induced substructure on the agreement set of a parallel pair."""
    if f.source != g.source or f.target != g.target:
        raise StructureError("equalizer needs a parallel pair")
    subset = [a for a in f.source.sorted_carrier() if f(a) == g(a)]
    struct = f.source.induced(subset)
    return EqualizerResult(struct, Morphism(struct, f.source, {a: a for a in subset}))


def fibre_structure(f: Morphism, z: str) -> Structure:
    """The restriction of the source to the preimage of ``z``."""
    if z not in f.target.carrier:
        raise StructureError(f"{z!r} is not in the codomain carrier")
    return f.source.induced([a for a in f.source.carrier if f(a) == z])


def pair_morphism(f: Morphism, g: Morphism, target: ProductResult) -> Morphism:
    """The mediating morphism <f, g> into a product."""
    if f.source != g.source:
        raise StructureError("pairing needs a common domain")
    return Morphism(
        f.source, target.structure, {a: pair_id(f(a), g(a)) for a in f.source.carrier}
    )


def enumerate_functions(
    x: Structure, y: Structure
) -> Iterator[dict[str, str]]:
    """All functions between the carriers, in canonical order (no validity check)."""
    src = x.sorted_carrier()
    for images in itertools.product(y.sorted_carrier(), repeat=len(src)):
        yield dict(zip(src, images))


def enumerate_morphisms(
    x: Structure, y: Structure, in_theory: Optional[Theory] = None
) -> list[Morphism]:
    """All edge-preserving maps from ``x`` to ``y``, in canonical order.

    With ``in_theory`` the endpoints are first checked to be models, so the
    result is the hom-set of the theory's category of models.  Enumeration
    prunes prefixes that already break a fully-instantiated edge; cost is
    bounded by |Y| ** |X|.
    """
    if x.signature != y.signature:
        raise SignatureError("hom-set needs a shared signature")
    if in_theory is not None:
        for struct in (x, y):
            if not is_model(struct, in_theory):
                raise StructureError("hom-set in a theory needs model endpoints")
    src = x.sorted_carrier()
    tgt = y.sorted_carrier()
    position = {a: i for i, a in enumerate(src)}
    # edges grouped by the highest source position they mention
    ready: list[list[Edge]] = [[] for _ in src]
    for e in x.edges:
        ready[max(position[a] for a in e.args)].append(e)

    out: list[Morphism] = []
    images: list[str] = []

    def ok(i: int) -> bool:
        for e in ready[i]:
            mapped = tuple(images[position[a]] for a in e.args)
            if not y.holds(e.symbol, mapped):
                return False
        return True

    def search(i: int) -> None:
        if i == len(src):
            out.append(Morphism(x, y, dict(zip(src, images))))
            return
        for t in tgt:
            images.append(t)
            if ok(i):
                search(i + 1)
            images.pop()

    if not src:
        return [Morphism(x, y, {})]
    search(0)
    return out


def hom_count(x: Structure, y: Structure) -> int:
    return len(enumerate_morphisms(x, y))


def find_isomorphism(x: Structure, y: Structure) -> Optional[Morphism]:
    """The canonical isomorphism x -> y, or None when the two are not isomorphic.

    It pairs the carriers in canonical-labelling order, not permutation order.
    """
    if x.signature != y.signature or len(x.carrier) != len(y.carrier):
        return None
    (key_x, order_x), (key_y, order_y) = _canonical_labelling(x), _canonical_labelling(y)
    return Morphism(x, y, dict(zip(order_x, order_y))) if key_x == key_y else None


def are_isomorphic(x: Structure, y: Structure) -> bool:
    return find_isomorphism(x, y) is not None
