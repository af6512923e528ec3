"""Finite limits of structures, computed concretely, and hom-set enumeration.

Carriers of limits are the underlying set-level limits.  Edges of products
and pullbacks are the componentwise join of the two factors' edges, kept
when every component pair is a point, as plain ``(symbol, labels)`` pairs
that the ``Structure`` constructor files by symbol without an ``Edge``.
Product elements get readable pair ids; a collision guard rejects carrier
names that would make the rendering ambiguous.  Hom-sets are image tuples
over the sorted source carrier, found by the valuation search of
:mod:`hornmod.semantics` with the source's points as variables and its
edges as premises; ``Morphism`` objects are built only at the public
boundary.
"""
from __future__ import annotations

from typing import Hashable, NamedTuple, Optional

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
from .semantics import _hom_checks, _run, is_model

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


def _pair_ids(pairs: list[tuple[str, str]]) -> dict[tuple[str, str], str]:
    """The rendered id of each pair; raises when two pairs render alike."""
    ids = {p: pair_id(*p) for p in pairs}
    if len(set(ids.values())) != len(pairs):
        raise StructureError("carrier names collide under pair rendering")
    return ids


def _pair_edges(
    sig: Signature, ids: dict[tuple[str, str], Hashable], x: Structure, y: Structure
) -> list[tuple[str, tuple]]:
    """The edge join over the pairs of ``ids``: each s-edge of x zipped with each
    s-edge of y, kept when every component pair is a point, and labelled by
    ``ids``: rendered pair ids for a structure, or positions for a search plan.
    Each joined edge is a plain ``(symbol, labels)`` pair, which ``Structure``
    and :func:`semantics._plan` take as they are, so no ``Edge`` is built.

    A symbol with no edge on one side is skipped.  Otherwise the loop runs
    over the side with fewer edges, and the other side is read a column at a
    time: its argument lists per position, each mapped to the labels paired
    with the outer edge's point there; the rows by y's points are built only
    if some symbol needs them.  The order of the list is not part of the
    contract.
    """
    by_x: dict[str, dict[str, Hashable]] = {}  # by_x[a][b] = by_y[b][a] = the label of (a, b)
    for (a, b), label in ids.items():
        by_x.setdefault(a, {})[b] = label
    by_y: Optional[dict[str, dict[str, Hashable]]] = None
    edges = []
    for s in sig.symbols:
        name = s.name
        outer, inner, rows = x.tuples(name), y.tuples(name), by_x
        if not (outer and inner):
            continue  # an empty side joins nothing
        if len(inner) < len(outer):
            if by_y is None:
                by_y = {}
                for (a, b), label in ids.items():
                    by_y.setdefault(b, {})[a] = label
            outer, inner, rows = inner, outer, by_y
        columns = list(zip(*inner))  # columns[i] = the i-th points of the inner edges
        for args in outer:
            row = [rows.get(a) for a in args]
            if None in row:  # some point of args is paired with nothing
                continue
            edges += [(name, joined) for joined in zip(*map(map, [r.get for r in row], columns))
                      if None not in joined]
    return edges


def _paired_structure(
    sig: Signature, pairs: list[tuple[str, str]], x: Structure, y: Structure
) -> tuple[Structure, Morphism, Morphism]:
    ids = _pair_ids(pairs)
    struct = Structure(sig, ids.values(), _pair_edges(sig, ids, x, y))
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
    if not x.signature == y.signature == f.target.signature:
        raise SignatureError("pullback needs a shared signature")
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


def _hom_tuples(x: Structure, y: Structure) -> list[tuple[str, ...]]:
    """The edge-preserving maps x -> y as image tuples over ``x.sorted_carrier()``.

    One run of the valuation search: x's points are the variables, each over
    the sorted carrier of y, and x's edges are the premises, read through the
    plan kept on x and bound to y's tuple sets (:func:`semantics._hom_checks`).
    The tuples come in canonical (lexicographic) order.
    """
    if x.signature != y.signature:
        raise SignatureError("hom-set needs a shared signature")
    return list(_run(_hom_checks(x, y), [y.sorted_carrier()] * len(x.carrier)))


def enumerate_morphisms(
    x: Structure, y: Structure, in_theory: Optional[Theory] = None
) -> list[Morphism]:
    """All edge-preserving maps from ``x`` to ``y``, in canonical order.

    With ``in_theory`` the endpoints are first checked to be models, so the
    result is the hom-set of the theory's category of models.  The search
    (``_hom_tuples``) prunes prefixes that already break a fully-instantiated
    edge; cost is bounded by |Y| ** |X|.  Each image tuple becomes a
    ``Morphism`` only here.
    """
    if x.signature != y.signature:
        raise SignatureError("hom-set needs a shared signature")
    if in_theory is not None:
        for struct in (x, y):
            if not is_model(struct, in_theory):
                raise StructureError("hom-set in a theory needs model endpoints")
    src = x.sorted_carrier()
    return [Morphism(x, y, dict(zip(src, images))) for images in _hom_tuples(x, y)]


def hom_count(x: Structure, y: Structure) -> int:
    return len(_hom_tuples(x, y))


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
