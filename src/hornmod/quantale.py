"""Finite commutative unital quantales, V-graphs, and the induced theories.

A quantale ships as explicit tables and is law-checked exhaustively before
use.  The theory generators produce the standard ladder of theories over the
induced signature: V-graphs, reflexive V-graphs, V-categories, pseudo-metric
and metric variants.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .core import (
    _order_axioms,
    Edge,
    Equality,
    HornmodError,
    Morphism,
    RelationSymbol,
    Signature,
    Structure,
    SymbolOrder,
    Theory,
    QUANTALE,
    horn,
    quantale_symbol_name,
)


class QuantaleError(HornmodError):
    pass


@dataclass(frozen=True)
class Quantale:
    """A finite commutative unital quantale given by explicit tables.

    ``leq_pairs`` may be any generating set; the reflexive-transitive closure
    is taken at construction.  Laws are not enforced here: run
    :func:`check_quantale_laws` (the theory generators do).  The quantale
    holds only tuples, so :meth:`law_report` computes that report once and
    keeps it, and :func:`signature_of` likewise the signature, which keeps
    the order on the symbols ``~v``.
    """

    elements: tuple[str, ...]
    leq_pairs: tuple[tuple[str, str], ...]
    tensor_pairs: tuple[tuple[str, str, str], ...]
    unit: str

    def __post_init__(self) -> None:
        elements = tuple(sorted(set(self.elements)))
        object.__setattr__(self, "elements", elements)
        if self.unit not in elements:
            raise QuantaleError(f"unit {self.unit!r} is not an element")
        for a, b in self.leq_pairs:
            if a not in elements or b not in elements:
                raise QuantaleError(f"order pair ({a!r}, {b!r}) uses unknown elements")
        tensor: dict[tuple[str, str], str] = {}
        for a, b, c in self.tensor_pairs:
            for x in (a, b, c):
                if x not in elements:
                    raise QuantaleError(f"tensor entry mentions unknown element {x!r}")
            tensor[(a, b)] = c
        missing = [(a, b) for a in elements for b in elements if (a, b) not in tensor]
        if missing:
            raise QuantaleError(f"tensor table is not total, missing {missing[:3]}")
        object.__setattr__(
            self, "tensor_pairs", tuple(sorted((a, b, c) for (a, b), c in tensor.items()))
        )
        order = SymbolOrder(elements, self.leq_pairs)
        closed = tuple((a, b) for a in elements for b in elements if order.leq(a, b))
        object.__setattr__(self, "leq_pairs", closed)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_tensor", tensor)
        # Kept by signature_of.  Not a field: the signature holds this quantale, so
        # asdict would recurse forever; set on every instance, so all share one layout.
        object.__setattr__(self, "_signature", None)

    order: SymbolOrder = field(default=None, init=False, compare=False, repr=False)
    _tensor: dict = field(default_factory=dict, compare=False, repr=False)
    _laws: Optional["QuantaleLawReport"] = field(
        default=None, init=False, compare=False, repr=False
    )

    def law_report(self) -> "QuantaleLawReport":
        """The :func:`check_quantale_laws` report, computed on first use and kept."""
        if self._laws is None:
            object.__setattr__(self, "_laws", check_quantale_laws(self))
        return self._laws

    def leq(self, a: str, b: str) -> bool:
        return self.order.leq(a, b)

    def tensor(self, a: str, b: str) -> str:
        return self._tensor[(a, b)]

    @staticmethod
    def _exists(bound: Optional[str], what: str) -> str:
        if bound is None:
            raise QuantaleError(f"{what} does not exist; not a complete lattice")
        return bound

    def join(self, items: Iterable[str]) -> str:
        return self._exists(self.order.join_of_set(items), "join")

    def meet(self, items: Iterable[str]) -> str:
        return self._exists(self.order.meet_of_set(items), "meet")

    def join2(self, a: str, b: str) -> str:
        return self._exists(self.order.join2(a, b), "join")

    def meet2(self, a: str, b: str) -> str:
        return self._exists(self.order.meet2(a, b), "meet")

    def bottom(self) -> str:
        return self._exists(self.order.bottom(), "join")

    def top(self) -> str:
        return self._exists(self.order.top(), "meet")


@dataclass(frozen=True)
class LawFailure:
    law: str
    witness: tuple[str, ...]


@dataclass(frozen=True)
class QuantaleLawReport:
    ok: bool
    failures: tuple[LawFailure, ...]


def check_quantale_laws(v: Quantale) -> QuantaleLawReport:
    """Exhaustively verify the quantale laws, reporting every failure with a witness."""
    fails: list[LawFailure] = []
    els = v.elements

    def bad(law: str, *witness: str) -> None:
        fails.append(LawFailure(law, witness))

    for a, b in itertools.combinations(els, 2):
        if v.leq(a, b) and v.leq(b, a):
            bad("antisymmetry", a, b)
    # order is reflexive and transitive by construction
    for pair in itertools.combinations(els, 2):
        if v.order.join_of_set(pair) is None:
            bad("join-exists", *pair)
        if v.order.meet_of_set(pair) is None:
            bad("meet-exists", *pair)
    if v.order.bottom() is None:
        bad("bottom-exists")
    if v.order.top() is None:
        bad("top-exists")
    for a, b in itertools.product(els, repeat=2):
        if v.tensor(a, b) != v.tensor(b, a):
            bad("commutativity", a, b)
    for a, b, c in itertools.product(els, repeat=3):
        if v.tensor(v.tensor(a, b), c) != v.tensor(a, v.tensor(b, c)):
            bad("associativity", a, b, c)
    for a in els:
        if v.tensor(a, v.unit) != a:
            bad("unit", a)
    if not any(f.law in ("join-exists", "bottom-exists", "antisymmetry") for f in fails):
        # tensor must preserve all joins in each variable, empty join included
        for a in els:
            for r in range(len(els) + 1):
                for subset in itertools.combinations(els, r):
                    lhs = v.tensor(a, v.join(subset))
                    rhs = v.join(v.tensor(a, s) for s in subset)
                    if lhs != rhs:
                        bad("tensor-join-preservation", a, *subset)
    return QuantaleLawReport(not fails, tuple(fails))


def is_heyting(v: Quantale) -> bool:
    """Whether the quantale laws hold and the lattice is a complete Heyting algebra.

    The Heyting check is the order's (:meth:`SymbolOrder.is_complete_heyting`):
    binary distributivity and the arbitrary-join form over all subsets.
    """
    return v.law_report().ok and v.order.is_complete_heyting()


def is_total_order(v: Quantale) -> bool:
    return all(v.leq(a, b) or v.leq(b, a) for a, b in itertools.combinations(v.elements, 2))


def boolean_quantale() -> Quantale:
    """The two-element quantale ({0, 1}, <=, /\\, 1)."""
    return Quantale(
        elements=("0", "1"),
        leq_pairs=(("0", "1"),),
        tensor_pairs=(("0", "0", "0"), ("0", "1", "0"), ("1", "0", "0"), ("1", "1", "1")),
        unit="1",
    )


def chain_meet_quantale(length: int) -> Quantale:
    """The chain 0 < 1 < ... < length-1 with tensor = meet and unit = top."""
    if length < 1:
        raise QuantaleError("chain needs at least one element")
    els = tuple(str(i) for i in range(length))
    leq = tuple((str(i), str(j)) for i in range(length) for j in range(length) if i <= j)
    tensor = tuple(
        (str(i), str(j), str(min(i, j))) for i in range(length) for j in range(length)
    )
    return Quantale(els, leq, tensor, els[-1])


def lukasiewicz_quantale() -> Quantale:
    """The chain 0 < 1 < 2 with truncated addition v (x) w = max(0, v + w - 2)."""
    els = ("0", "1", "2")
    leq = tuple((str(i), str(j)) for i in range(3) for j in range(3) if i <= j)
    tensor = tuple(
        (str(i), str(j), str(max(0, i + j - 2))) for i in range(3) for j in range(3)
    )
    return Quantale(els, leq, tensor, "2")


def signature_of(v: Quantale) -> Signature:
    """The signature with one binary symbol per quantale element, quantale-ordered.

    Built on first use and kept on the quantale, so every theory, V-graph and
    V-functor over ``v`` shares one signature; equal quantales give equal ones.
    """
    if v._signature is None:
        symbols = tuple(RelationSymbol(quantale_symbol_name(e), 2) for e in v.elements)
        object.__setattr__(v, "_signature", Signature(symbols, QUANTALE, quantale=v))
    return v._signature


def _require_laws(v: Quantale) -> None:
    report = v.law_report()
    if not report.ok:
        raise QuantaleError(f"quantale law check failed: {report.failures[0]}")


def _ladder(v: Quantale, reflexive: bool, schemas: tuple = (), extra: tuple = ()) -> Theory:
    """One rung of the theory ladder over ``v``, reflexive or not, with ``schemas`` and ``extra``.

    When the rung is reflexive, the unit is top and the lattice is Heyting,
    the base theory holds the rung's graph axioms, joins included, so the rung
    is ``extra`` and ``schemas`` over it.  Otherwise it is flat: the order and
    join axioms, the unit's reflexivity if asked, the schemas' instances, then
    ``extra``.
    """
    _require_laws(v)
    sig = signature_of(v)
    if reflexive and v.unit == v.top() and is_heyting(v):
        return Theory(sig, extra, schemas, base_flag=True)
    axioms = _order_axioms(sig.order(2), ("x", "y"), joins=True)
    if reflexive:
        axioms.append(horn((), Edge(quantale_symbol_name(v.unit), ("x", "x"))))
    if schemas:
        from .schema import expand_instances

        warnings.warn("schematic form needs unit = top and a Heyting lattice; using flat instances")
        axioms.extend(inst.formula for s in schemas for inst in expand_instances(s, sig))
    return Theory(sig, tuple(axioms) + extra, (), base_flag=False)


def theory_vgph(v: Quantale) -> Theory:
    """V-graphs: down-closed, join-closed edge labels; no reflexivity."""
    return _ladder(v, reflexive=False)


def theory_vrgph(v: Quantale) -> Theory:
    """Reflexive V-graphs: V-graphs with every loop at least the unit."""
    return _ladder(v, reflexive=True)


def theory_vcat(v: Quantale) -> Theory:
    """V-categories: reflexive V-graphs with tensor transitivity."""
    from .schema import generalized_transitivity_schema

    return _ladder(v, True, (generalized_transitivity_schema(),))


def theory_pmet(v: Quantale) -> Theory:
    """Pseudo-V-metric spaces: symmetric V-categories."""
    from .schema import generalized_transitivity_schema, symmetry_schema

    return _ladder(v, True, (generalized_transitivity_schema(), symmetry_schema()))


def theory_met(v: Quantale) -> Theory:
    """V-metric spaces: pseudo-metric plus the separation equality axiom."""
    from .schema import generalized_transitivity_schema, symmetry_schema

    separation = horn((Edge(quantale_symbol_name(v.unit), ("x", "y")),), Equality("x", "y"))
    return _ladder(v, True, (generalized_transitivity_schema(), symmetry_schema()), (separation,))


@dataclass(frozen=True)
class VGraph:
    """A finite set with a quantale-valued distance table."""

    quantale: Quantale
    carrier: tuple[str, ...]
    distances: tuple[tuple[str, str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "carrier", tuple(sorted(set(self.carrier))))
        table: dict[tuple[str, str], str] = {}
        for a, b, d in self.distances:
            if a not in self.carrier or b not in self.carrier:
                raise QuantaleError(f"distance entry ({a!r}, {b!r}) outside the carrier")
            if d not in self.quantale.elements:
                raise QuantaleError(f"distance value {d!r} is not a quantale element")
            table[(a, b)] = d
        for a in self.carrier:
            for b in self.carrier:
                if (a, b) not in table:
                    raise QuantaleError(f"distance table missing entry ({a!r}, {b!r})")
        object.__setattr__(
            self, "distances", tuple(sorted((a, b, d) for (a, b), d in table.items()))
        )
        object.__setattr__(self, "_d", table)

    _d: dict = field(default_factory=dict, compare=False, repr=False)

    def d(self, a: str, b: str) -> str:
        return self._d[(a, b)]

    def is_reflexive(self) -> bool:
        return all(self.quantale.leq(self.quantale.unit, self.d(a, a)) for a in self.carrier)

    def is_transitive(self) -> bool:
        v = self.quantale
        return all(
            v.leq(v.tensor(self.d(a, b), self.d(b, c)), self.d(a, c))
            for a in self.carrier
            for b in self.carrier
            for c in self.carrier
        )

    def is_symmetric(self) -> bool:
        return all(self.d(a, b) == self.d(b, a) for a in self.carrier for b in self.carrier)


@dataclass(frozen=True)
class VFunctor:
    """A distance-increasing map between V-graphs over the same quantale."""

    source: VGraph
    target: VGraph
    mapping: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if self.source.quantale != self.target.quantale:
            raise QuantaleError("V-functor endpoints use different quantales")
        table = dict(self.mapping)
        if set(table) != set(self.source.carrier):
            raise QuantaleError("mapping must cover exactly the source carrier")
        if not set(table.values()) <= set(self.target.carrier):
            raise QuantaleError("mapping has values outside the target carrier")
        object.__setattr__(self, "mapping", tuple(sorted(table.items())))
        object.__setattr__(self, "_map", table)

    _map: dict = field(default_factory=dict, compare=False, repr=False)

    def __call__(self, x: str) -> str:
        return self._map[x]

    def is_valid(self) -> bool:
        v = self.source.quantale
        return all(
            v.leq(self.source.d(a, b), self.target.d(self(a), self(b)))
            for a in self.source.carrier
            for b in self.source.carrier
        )


def structure_to_vgraph(x: Structure) -> VGraph:
    """Translate a down/join-closed structure over a quantale signature into a V-graph."""
    sig = x.signature
    if sig.order_kind != QUANTALE or sig.quantale is None:
        raise QuantaleError("structure is not over a quantale-induced signature")
    v = sig.quantale
    below = signature_of(v).order(2).below
    dist = []
    for a in x.sorted_carrier():
        for b in x.sorted_carrier():
            labels = [e for e in v.elements if x.holds(quantale_symbol_name(e), (a, b))]
            down_closed = all(x.holds(lo, (a, b))
                              for hi in labels for lo in below(quantale_symbol_name(hi)))
            if not down_closed or v.join(labels) not in labels:
                raise QuantaleError(
                    f"edge labels at ({a!r}, {b!r}) are not down-closed and join-closed"
                )
            dist.append((a, b, v.join(labels)))
    return VGraph(v, x.sorted_carrier(), tuple(dist))


def vgraph_to_structure(g: VGraph) -> Structure:
    """The structure with an edge ~v(a, b) for every v <= d(a, b).

    Each pair's edges are the kept down-set of ``~d(a, b)`` in the symbol order.
    """
    sig = signature_of(g.quantale)
    below = sig.order(2).below
    edges = [Edge(s, (a, b)) for a in g.carrier for b in g.carrier
             for s in below(quantale_symbol_name(g.d(a, b)))]
    return Structure(sig, g.carrier, edges)


def vfunctor_to_morphism(h: VFunctor) -> Morphism:
    return Morphism(vgraph_to_structure(h.source), vgraph_to_structure(h.target), dict(h.mapping))


def all_vgraphs(v: Quantale, size: int) -> Iterator[VGraph]:
    """All V-graphs on the canonical carrier of the given size."""
    carrier = tuple(f"e{i}" for i in range(size))
    slots = [(a, b) for a in carrier for b in carrier]
    for values in itertools.product(v.elements, repeat=len(slots)):
        yield VGraph(v, carrier, tuple((a, b, d) for (a, b), d in zip(slots, values)))


def all_vcategories(v: Quantale, size: int) -> Iterator[VGraph]:
    """The V-graphs of :func:`all_vgraphs` that are reflexive and transitive."""
    return (g for g in all_vgraphs(v, size) if g.is_reflexive() and g.is_transitive())


def all_vfunctors(source: VGraph, target: VGraph) -> Iterator[VFunctor]:
    """All distance-increasing maps, in canonical order."""
    src = source.carrier
    for images in itertools.product(target.carrier, repeat=len(src)):
        h = VFunctor(source, target, tuple(zip(src, images)))
        if h.is_valid():
            yield h
