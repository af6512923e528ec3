"""Relational signatures, structures, morphisms, Horn formulas and theories.

Everything here is an immutable value with a total canonical order on its
parts (symbols and elements sort by name, edges by (symbol, args)), so that
every enumeration in the package is deterministic.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Mapping, NamedTuple, Optional, TYPE_CHECKING

if TYPE_CHECKING:
    from .quantale import Quantale

DISCRETE = "discrete"
EXPLICIT = "explicit"
QUANTALE = "quantale"

ORDER_KINDS = (DISCRETE, EXPLICIT, QUANTALE)

# The budget of all_models and all_structures, the most edge sets their largest
# carrier may have, and the most objects sample_family keeps: the CLI's --cap.
DEFAULT_CAP = 512


class HornmodError(Exception):
    """Base class for all errors raised by this package."""


class SignatureError(HornmodError):
    pass


class StructureError(HornmodError):
    pass


class MorphismError(HornmodError):
    pass


class TheoryError(HornmodError):
    pass


class _RelationSymbol(NamedTuple):
    name: str
    arity: int


class RelationSymbol(_RelationSymbol):
    """A relation symbol with a fixed arity >= 1, ordered by (name, arity)."""

    __slots__ = ()

    def __new__(cls, name: str, arity: int) -> "RelationSymbol":
        if not isinstance(name, str):
            raise SignatureError(f"symbol name must be a string, got {name!r}")
        if not isinstance(arity, int) or isinstance(arity, bool):
            raise SignatureError(f"arity of {name!r} must be an integer, got {arity!r}")
        if arity < 1:
            raise SignatureError(f"arity of {name!r} must be >= 1, got {arity}")
        return tuple.__new__(cls, (name, arity))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too


class Edge(NamedTuple):
    """An edge: a relation symbol name applied to a tuple of element or variable names."""

    symbol: str
    args: tuple[str, ...]


def edge(symbol: str, *args: str) -> Edge:
    return Edge(symbol, tuple(args))


def quantale_symbol_name(element: str) -> str:
    """Name of the binary symbol associated with a quantale element."""
    return "~" + element


class _Value:
    """A value with read-only public fields, kept data besides, and explicit equality.

    ``__getstate__`` gives the compared fields, the constructor's arguments:
    ``==`` and ``hash`` read it, and pickling and copying restore it through
    ``__setstate__``, which sets the fields and empty kept data unchecked.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self.__getstate__() == other.__getstate__()

    def __hash__(self) -> int:
        return hash(self.__getstate__())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Signature(_Value):
    """A finite relational signature, optionally carrying a per-arity preorder.

    The preorder is one of: discrete (equality only), explicit (the
    reflexive-transitive closure of declared pairs between symbols of equal
    arity), or induced by a finite quantale, in which case the symbols are
    exactly the binary symbols named ``~v`` for the quantale elements ``v``.
    """

    # Kept data: the name index, the order per arity, and the empty and base
    # theories (``theory``), keyed by ``base_flag``.  Each theory refers back to
    # this signature; the cycle is outside ``==``, ``hash``, ``repr`` and pickling.
    __slots__ = ("symbols", "order_kind", "order_pairs", "quantale", "_arities", "_orders",
                 "_theories", "__weakref__")

    def __init__(
        self,
        symbols: Iterable[RelationSymbol],
        order_kind: str = DISCRETE,
        order_pairs: Iterable[tuple[str, str]] = (),
        quantale: Optional["Quantale"] = None,
    ) -> None:
        symbols, order_pairs = tuple(symbols), tuple(order_pairs)
        for s in symbols:
            if not isinstance(s, RelationSymbol):
                raise SignatureError(f"signature symbol {s!r} is not a RelationSymbol")
        for pair in order_pairs:
            if not (isinstance(pair, tuple) and len(pair) == 2
                    and all(isinstance(name, str) for name in pair)):
                raise SignatureError(f"order pair {pair!r} is not a pair of symbol names")
        self.__setstate__((tuple(sorted(set(symbols))), order_kind,
                           tuple(sorted(set(order_pairs))), quantale))
        if self.order_kind not in ORDER_KINDS:
            raise SignatureError(f"unknown order kind {self.order_kind!r}")
        arities = self._arities
        if len(arities) != len(self.symbols):
            raise SignatureError("duplicate symbol names in signature")
        for low, high in self.order_pairs:
            if low not in arities or high not in arities:
                raise SignatureError(f"order pair ({low!r}, {high!r}) uses unknown symbols")
            if arities[low] != arities[high]:
                raise SignatureError(
                    f"order pair ({low!r}, {high!r}) relates symbols of different arities"
                )
        if self.order_kind == QUANTALE:
            if self.quantale is None:
                raise SignatureError("quantale-induced signature needs a quantale")
            expected = sorted(
                RelationSymbol(quantale_symbol_name(v), 2) for v in self.quantale.elements
            )
            if list(self.symbols) != expected:
                raise SignatureError(
                    "quantale-induced signature must have exactly the binary "
                    "symbols ~v for the quantale elements v"
                )
        elif self.quantale is not None:
            raise SignatureError("only quantale-induced signatures carry a quantale")

    def __getstate__(self) -> tuple:
        return (self.symbols, self.order_kind, self.order_pairs, self.quantale)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(("symbols", "order_kind", "order_pairs", "quantale"), state):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_arities", {s.name: s.arity for s in self.symbols})
        object.__setattr__(self, "_orders", {})
        object.__setattr__(self, "_theories", {})

    def __repr__(self) -> str:
        return (f"Signature(symbols={self.symbols!r}, order_kind={self.order_kind!r}, "
                f"order_pairs={self.order_pairs!r}, quantale={self.quantale!r})")

    def arity(self, name: str) -> int:
        try:
            return self._arities[name]
        except KeyError:
            raise SignatureError(f"unknown relation symbol {name!r}") from None

    def has_symbol(self, name: str) -> bool:
        return name in self._arities

    def check_formula(self, formula: "HornFormula", role: str) -> None:
        """Raise TheoryError unless every edge of the formula uses a known symbol at its arity."""
        edges = [("premise", e) for e in formula.premises]
        if isinstance(formula.conclusion, Edge):
            edges.append(("conclusion", formula.conclusion))
        for part, e in edges:
            if not self.has_symbol(e.symbol):
                raise TheoryError(f"{role} {part} uses unknown symbol {e.symbol!r}")
            if len(e.args) != self.arity(e.symbol):
                raise TheoryError(f"{role} {part} {e} has wrong arity")

    def symbol_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.symbols)

    def arities(self) -> tuple[int, ...]:
        return tuple(sorted({s.arity for s in self.symbols}))

    def symbols_of_arity(self, n: int) -> tuple[str, ...]:
        return tuple(s.name for s in self.symbols if s.arity == n)

    def theory(self, base_flag: bool) -> "Theory":
        """The theory with no axioms of its own over this signature, built on first use
        and kept: the base theory when ``base_flag`` is set, else the empty theory,
        whose models are all structures."""
        theory = self._theories.get(base_flag)
        if theory is None:
            theory = self._theories[base_flag] = Theory(self, base_flag=base_flag)
        return theory

    def order(self, n: int) -> "SymbolOrder":
        """The (closed) preorder on the symbols of arity ``n``, built on first use and kept.

        A quantale signature orders its symbols ``~v`` as the quantale orders ``v``.
        """
        order = self._orders.get(n)
        if order is None:
            symbols = self.symbols_of_arity(n)
            if self.quantale is not None:
                pairs = [(quantale_symbol_name(a), quantale_symbol_name(b))
                         for a, b in self.quantale.leq_pairs]
            else:
                pairs = self.order_pairs if self.order_kind == EXPLICIT else ()
            order = self._orders[n] = SymbolOrder(
                symbols, [(a, b) for a, b in pairs if a in symbols])
        return order


class SymbolOrder:
    """The reflexive-transitive closure of a preorder on same-arity symbols.

    Also the package's one finite lattice.  The down-set of every symbol, the
    binary meet and join tables, ``bottom`` and ``top`` are built once: each
    down-set from the closed order matrix, in canonical order, and each bound
    by the defining scan for a greatest lower or least upper bound, ``None``
    where that bound does not exist.  ``below``, ``meet2``, ``join2``,
    ``bottom`` and ``top`` are lookups.
    On a complete lattice the join (meet) of a set folds the table from
    ``bottom`` (``top``).  Any other order keeps the scan, because a finite
    poset that is not a lattice can have the join of a set some of whose pairs
    have none.  The Heyting verdict is computed when first asked and kept.
    """

    __slots__ = ("symbols", "_index", "_leq", "_below", "_meet", "_join", "_bottom", "_top",
                 "_lattice", "_heyting")

    def __init__(self, symbols: Iterable[str], pairs: Iterable[tuple[str, str]]):
        self.symbols = tuple(sorted(symbols))
        self._index = {s: i for i, s in enumerate(self.symbols)}
        n = len(self.symbols)
        leq = [[False] * n for _ in range(n)]
        for i in range(n):
            leq[i][i] = True
        for low, high in pairs:
            leq[self._index[low]][self._index[high]] = True
        for k in range(n):  # Warshall
            for i in range(n):
                if leq[i][k]:
                    row_k = leq[k]
                    row_i = leq[i]
                    for j in range(n):
                        if row_k[j]:
                            row_i[j] = True
        self._leq = leq
        self._below = {
            t: tuple(s for s, row in zip(self.symbols, leq) if row[j])
            for j, t in enumerate(self.symbols)
        }
        self._meet: dict[tuple[str, str], Optional[str]] = {}
        self._join: dict[tuple[str, str], Optional[str]] = {}
        for a, b in itertools.combinations_with_replacement(self.symbols, 2):
            self._meet[a, b] = self._meet[b, a] = self._bound((a, b), upper=False)
            self._join[a, b] = self._join[b, a] = self._bound((a, b), upper=True)
        self._bottom = self._bound((), upper=True)
        self._top = self._bound((), upper=False)
        # A diagonal entry is None exactly when its symbol has an equivalent,
        # so full tables also mean a partial order.
        self._lattice = (
            self._bottom is not None
            and self._top is not None
            and None not in self._meet.values()
            and None not in self._join.values()
        )
        self._heyting: Optional[bool] = None

    def leq(self, low: str, high: str) -> bool:
        return self._leq[self._index[low]][self._index[high]]

    def below(self, top: str) -> tuple[str, ...]:
        """All symbols <= top, in canonical order."""
        return self._below[top]

    def is_partial_order(self) -> bool:
        return all(
            not (self.leq(a, b) and self.leq(b, a))
            for a, b in itertools.combinations(self.symbols, 2)
        )

    def _bound(self, elems: Iterable[str], upper: bool) -> Optional[str]:
        elems = list(elems)
        if upper:
            cands = [s for s in self.symbols if all(self.leq(e, s) for e in elems)]
            best = [c for c in cands if all(self.leq(c, d) for d in cands)]
        else:
            cands = [s for s in self.symbols if all(self.leq(s, e) for e in elems)]
            best = [c for c in cands if all(self.leq(d, c) for d in cands)]
        return best[0] if len(best) == 1 else None

    def join_of_set(self, elems: Iterable[str]) -> Optional[str]:
        if not self._lattice:
            return self._bound(elems, upper=True)
        out, join = self._bottom, self._join
        for e in elems:
            out = join[out, e]
        return out

    def meet_of_set(self, elems: Iterable[str]) -> Optional[str]:
        if not self._lattice:
            return self._bound(elems, upper=False)
        out, meet = self._top, self._meet
        for e in elems:
            out = meet[out, e]
        return out

    def join2(self, a: str, b: str) -> Optional[str]:
        return self._join[a, b]

    def meet2(self, a: str, b: str) -> Optional[str]:
        return self._meet[a, b]

    def bottom(self) -> Optional[str]:
        return self._bottom

    def top(self) -> Optional[str]:
        return self._top

    def is_complete_lattice(self) -> bool:
        return self._lattice

    def is_complete_heyting(self) -> bool:
        """Complete lattice in which binary meets distribute over all joins.

        Checked in the binary form a /\\ (b \\/ c), which on a finite lattice
        gives the form a /\\ \\/S for every subset S (see :meth:`_distributive`).
        """
        if self._heyting is None:
            self._heyting = self._lattice and self._distributive()
        return self._heyting

    def _distributive(self) -> bool:
        # On a finite lattice \/S folds \/ over S from bottom, so the binary law
        # gives every join by induction on |S|: a /\ \/{} = a /\ bottom = bottom
        # = \/{}, and a /\ (\/S \/ s) = (a /\ \/S) \/ (a /\ s).
        meet, join = self._meet, self._join
        return all(meet[a, join[b, c]] == join[meet[a, b], meet[a, c]]
                   for a, b, c in itertools.product(self.symbols, repeat=3))


def signature_order_closure(sig: Signature, n: int) -> SymbolOrder:
    """The per-arity preorder of a signature, closed under reflexivity and transitivity."""
    return sig.order(n)


def _as_edge(e: object) -> Edge:
    """The ``Edge`` of a (symbol, argument tuple or list) pair, else StructureError."""
    if not (isinstance(e, (tuple, list)) and len(e) == 2 and isinstance(e[0], str)
            and isinstance(e[1], (tuple, list))):
        raise StructureError(f"edge {e!r} is not a (symbol, argument tuple) pair")
    return Edge(e[0], tuple(e[1]))


class Structure:
    """A finite carrier with a set of edges over a signature, checked in one pass.

    Besides the compared fields it keeps derived data: the edges filed by
    symbol, set at construction; the hash and the sorted carrier, computed when
    first asked for; and the hom-search plan of :func:`semantics._hom_checks`,
    whose slot is set only when a search first needs it.  Pickling and copying
    carry the compared fields alone and construct the copy from them, so
    nothing kept crosses into another process, whose string hashes differ.
    """

    __slots__ = ("signature", "carrier", "edges", "_by_symbol", "_hash", "_sorted_carrier",
                 "_plan")

    def __init__(self, signature: Signature, carrier: Iterable[str], edges: Iterable[Edge]):
        self.signature = signature
        self.carrier = carrier = frozenset(carrier)
        self.edges = frozenset(e if type(e) is Edge and type(e[1]) is tuple
                               else _as_edge(e) for e in edges)
        arities = signature._arities
        by_symbol: dict[str, set[tuple[str, ...]]] = {name: set() for name in arities}
        for e in self.edges:
            name, args = e
            tuples = by_symbol.get(name)
            if tuples is None:
                raise StructureError(f"edge uses unknown symbol {name!r}")
            if len(args) != arities[name]:
                raise StructureError(f"edge {e} has wrong arity for {name!r}")
            if not carrier.issuperset(args):
                raise StructureError(f"edge {e} mentions elements outside the carrier")
            tuples.add(args)
        self._by_symbol = {s: frozenset(ts) for s, ts in by_symbol.items()}
        self._hash: Optional[int] = None
        self._sorted_carrier: Optional[tuple[str, ...]] = None

    def __getstate__(self) -> tuple:
        return (self.signature, self.carrier, self.edges)

    def __setstate__(self, state: tuple) -> None:
        Structure.__init__(self, *state)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Structure)
            and self.signature == other.signature
            and self.carrier == other.carrier
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.signature, self.carrier, self.edges))
        return self._hash

    def __repr__(self) -> str:
        return f"Structure(|X|={sorted(self.carrier)}, edges={sorted(self.edges)})"

    def sorted_carrier(self) -> tuple[str, ...]:
        if self._sorted_carrier is None:
            self._sorted_carrier = tuple(sorted(self.carrier))
        return self._sorted_carrier

    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    def holds(self, symbol: str, args: tuple[str, ...]) -> bool:
        return args in self._by_symbol[symbol]

    def tuples(self, symbol: str) -> frozenset[tuple[str, ...]]:
        return self._by_symbol[symbol]

    def size(self) -> int:
        return len(self.carrier)

    def with_edges(self, extra: Iterable[Edge]) -> "Structure":
        return Structure(self.signature, self.carrier, self.edges | frozenset(extra))

    def induced(self, subset: Iterable[str]) -> "Structure":
        """The induced substructure on a subset of the carrier."""
        sub = frozenset(subset)
        if not sub <= self.carrier:
            raise StructureError("induced substructure needs a subset of the carrier")
        kept = [e for e in self.edges if set(e.args) <= sub]
        return Structure(self.signature, sub, kept)


class Morphism:
    """A carrier function between structures; edge preservation is checked, not assumed.

    Its hash is kept once computed; pickling and copying carry the compared
    fields alone, as for :class:`Structure`.
    """

    __slots__ = ("source", "target", "mapping", "_hash")

    def __init__(self, source: Structure, target: Structure, mapping: Mapping[str, str]):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        if self.mapping.keys() != source.carrier:
            raise MorphismError("mapping must be defined on exactly the source carrier")
        if not target.carrier.issuperset(self.mapping.values()):
            raise MorphismError("mapping has values outside the target carrier")
        self._hash: Optional[int] = None

    def __getstate__(self) -> tuple:
        return (self.source, self.target, self.mapping)

    def __setstate__(self, state: tuple) -> None:
        Morphism.__init__(self, *state)

    def __call__(self, x: str) -> str:
        return self.mapping[x]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Morphism)
            and self.source == other.source
            and self.target == other.target
            and self.mapping == other.mapping
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.source, self.target, tuple(sorted(self.mapping.items()))))
        return self._hash

    def __repr__(self) -> str:
        items = ", ".join(f"{k}->{v}" for k, v in sorted(self.mapping.items()))
        return f"Morphism({items})"


def identity_morphism(X: Structure) -> Morphism:
    return Morphism(X, X, {x: x for x in X.carrier})


def compose(outer: Morphism, inner: Morphism) -> Morphism:
    """The composite ``outer . inner`` (apply ``inner`` first)."""
    if inner.target != outer.source:
        raise MorphismError("composition needs matching middle structure")
    return Morphism(inner.source, outer.target, {x: outer(inner(x)) for x in inner.source.carrier})


def validate_morphism(h: Morphism) -> bool:
    """True iff every source edge maps to a target edge.

    Raises on structural defects (signature mismatch, non-total map), which
    are distinct from a clean ``False``.
    """
    if h.source.signature != h.target.signature:
        raise SignatureError("morphism endpoints have different signatures")
    if h.mapping.keys() != h.source.carrier or not h.target.carrier.issuperset(h.mapping.values()):
        raise MorphismError("mapping is not a total function into the target carrier")
    image, tuples = h.mapping.__getitem__, h.target._by_symbol
    # column-wise: the images of each argument position, zipped back into tuples
    return all(tuples[name].issuperset(zip(*[map(image, column) for column in zip(*ts)]))
               for name, ts in h.source._by_symbol.items())


class Equality(NamedTuple):
    """An equality conclusion between two variables."""

    left: str
    right: str


_is_str = str.__instancecheck__  # isinstance(v, str) as one C function, for map


def _is_variable_edge(e: object) -> bool:
    """Whether ``e`` is an ``Edge`` of a symbol name and a tuple of variable names."""
    return isinstance(e, Edge) and _is_str(e[0]) and type(e[1]) is tuple and all(map(_is_str, e[1]))


class _HornFormula(NamedTuple):
    premises: frozenset[Edge]
    conclusion: Edge | Equality


class HornFormula(_HornFormula):
    """An implication from a finite set of premise edges to an edge or equality.

    All variables are implicitly universally quantified, including any that
    appear only in the conclusion. Equality conclusions require the premise
    variables to be exactly the two equated variables. Every premise, and an
    edge conclusion, must be an ``Edge`` whose args are a tuple of strings.
    """

    __slots__ = ()

    def __new__(cls, premises: Iterable[Edge], conclusion: Edge | Equality) -> "HornFormula":
        # checked before hashing; a frozenset is kept as it is, so its repr does not move
        premises = premises if isinstance(premises, frozenset) else tuple(premises)
        for e in premises:
            if not _is_variable_edge(e):
                raise TheoryError(f"premise {e!r} is not an Edge over a tuple of variable names")
        if not (isinstance(conclusion, Equality) or _is_variable_edge(conclusion)):
            raise TheoryError(f"conclusion {conclusion!r} is neither an Equality nor an Edge "
                              "over a tuple of variable names")
        premises = frozenset(premises)
        if isinstance(conclusion, Equality) and var_set(premises) != set(conclusion):
            raise TheoryError(
                "equality conclusion requires the premise variables to be "
                "exactly the equated pair"
            )
        return tuple.__new__(cls, (premises, conclusion))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __repr__(self) -> str:
        # the premises in sorted order, as Structure prints its edges, so that
        # equal formulas print alike whatever their frozensets' insertion history
        premises = ", ".join(map(repr, self.sorted_premises()))
        premises = f"frozenset({{{premises}}})" if premises else "frozenset()"
        return f"HornFormula(premises={premises}, conclusion={self.conclusion!r})"

    def variables(self) -> frozenset[str]:
        concl = self.conclusion
        return var_set(self.premises) | set(concl if isinstance(concl, Equality) else concl.args)

    def has_equality(self) -> bool:
        return isinstance(self.conclusion, Equality)

    def sorted_premises(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.premises))


def horn(premises: Iterable[Edge], conclusion: Edge | Equality) -> HornFormula:
    return HornFormula(frozenset(premises), conclusion)


def var_set(edges: Iterable[Edge]) -> frozenset[str]:
    """The set of variables occurring in a set of edges."""
    out: set[str] = set()
    for e in edges:
        out.update(e.args)
    return frozenset(out)


def fresh_variables(count: int) -> tuple[str, ...]:
    """The deterministic variable names ``v0`` .. ``v{count-1}``."""
    return tuple(f"v{i}" for i in range(count))


class Theory(_Value):
    """A relational Horn theory: a signature, axioms, and optional axiom schemas.

    When ``base_flag`` is set the base axioms of the signature (reflexivity,
    the downward order axioms, and for complete-Heyting signatures the join
    axioms) are implicitly part of the theory.
    """

    # Kept data: all_axioms(); the lifting oracle's free models, aligned with
    # convexity.eligible_axioms; the compiled axioms (semantics._Rule), aligned
    # with all_axioms(); the free models that present P* (closure._presentation).
    __slots__ = ("signature", "axioms", "schemas", "base_flag", "_all_axioms",
                 "_lifting_models", "_rules", "_presentation", "__weakref__")

    def __init__(
        self,
        signature: Signature,
        axioms: Iterable[HornFormula] = (),
        schemas: Iterable = (),
        base_flag: bool = True,
    ) -> None:
        self.__setstate__((signature, tuple(axioms), tuple(schemas), base_flag))
        if not isinstance(base_flag, bool):
            raise TheoryError(f"base_flag must be a bool, got {base_flag!r}")
        for ax in self.axioms:
            if not isinstance(ax, HornFormula):
                raise TheoryError(f"axiom {ax!r} is not a HornFormula")
            self.signature.check_formula(ax, "axiom")
        if self.schemas:
            from .schema import AxiomSchema  # schema-free theories never load schema

            for s in self.schemas:
                if not isinstance(s, AxiomSchema):
                    raise TheoryError(f"schema {s!r} is not an AxiomSchema")
            heyting = self.signature.order_kind != DISCRETE and all(
                self.signature.order(n).is_complete_heyting() for n in self.signature.arities()
            )
            if not heyting:
                raise TheoryError(
                    "axiom schemas require a complete-Heyting symbol order "
                    "(quantale-induced, or explicit passing the Heyting check)"
                )
            for s in self.schemas:
                s.check_signature(self.signature)

    def __getstate__(self) -> tuple:
        return (self.signature, self.axioms, self.schemas, self.base_flag)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(("signature", "axioms", "schemas", "base_flag"), state):
            object.__setattr__(self, name, value)
        for name in ("_all_axioms", "_lifting_models", "_rules", "_presentation"):
            object.__setattr__(self, name, None)

    def __repr__(self) -> str:
        return (f"Theory(signature={self.signature!r}, axioms={self.axioms!r}, "
                f"schemas={self.schemas!r}, base_flag={self.base_flag!r})")

    def all_axioms(self) -> tuple[HornFormula, ...]:
        """Base axioms, explicit axioms and expanded schema instances, in that order, kept."""
        if self._all_axioms is None:
            out = list(base_axioms(self.signature)) if self.base_flag else []
            out.extend(self.axioms)
            if self.schemas:
                from .schema import expand_instances  # schema-free theories never load schema

                for s in self.schemas:
                    out.extend(inst.formula for inst in expand_instances(s, self.signature))
            object.__setattr__(self, "_all_axioms", tuple(out))
        return self._all_axioms

    def non_base_axioms(self) -> tuple[HornFormula, ...]:
        """The explicit axioms that are not base axioms of the signature."""
        return tuple(ax for ax in self.axioms if not is_base_axiom(ax, self.signature))

    def has_equality_axiom(self) -> bool:
        return any(ax.has_equality() for ax in self.axioms)


def base_axioms(sig: Signature) -> tuple[HornFormula, ...]:
    """The base theory of a signature: reflexivity, order and join axioms.

    Reflexivity for every symbol; for non-discrete signatures the downward
    axioms R v1..vn => S v1..vn whenever R >= S; for complete-Heyting orders
    additionally the empty-join axiom (bottom holds everywhere) and binary
    join axioms for incomparable pairs.  Arbitrary joins reduce to these on a
    finite lattice.
    """
    out: list[HornFormula] = []
    for s in sig.symbols:
        v = fresh_variables(1)[0]
        out.append(horn((), Edge(s.name, (v,) * s.arity)))
    if sig.order_kind == DISCRETE:
        return tuple(out)
    for n in sig.arities():
        order = sig.order(n)
        out.extend(_order_axioms(order, fresh_variables(n), order.is_complete_heyting()))
    return tuple(out)


def _order_axioms(
    order: SymbolOrder, variables: tuple[str, ...], joins: bool
) -> list[HornFormula]:
    """The downward axioms of ``order`` over ``variables``, then its join axioms if ``joins``.

    R vs => S vs whenever R > S; the join axioms are the empty join (bottom
    holds everywhere) and the binary join of each incomparable pair, so
    ``joins`` needs a complete lattice.
    """
    out = [horn((Edge(high, variables),), Edge(low, variables))
           for high in order.symbols for low in order.symbols
           if low != high and order.leq(low, high)]
    if joins:
        bot = order.bottom()
        assert bot is not None
        out.append(horn((), Edge(bot, variables)))
        for a, b in itertools.combinations(order.symbols, 2):
            if order.leq(a, b) or order.leq(b, a):
                continue  # join is already one of the two premises
            j = order.join2(a, b)
            assert j is not None
            out.append(horn((Edge(a, variables), Edge(b, variables)), Edge(j, variables)))
    return out


def is_base_axiom(ax: HornFormula, sig: Signature) -> bool:
    """Whether an axiom has the shape of a base axiom of the signature."""
    if isinstance(ax.conclusion, Equality):
        return False
    concl = ax.conclusion
    if not ax.premises:
        # reflexivity  => R v...v, or the empty-join (bottom) axiom
        if len(set(concl.args)) == 1:
            return True
        order = sig.order(sig.arity(concl.symbol))
        return (
            sig.order_kind != DISCRETE
            and order.is_complete_heyting()
            and concl.symbol == order.bottom()
            and len(set(concl.args)) == len(concl.args)
        )
    if sig.order_kind == DISCRETE:
        return False
    prem = sorted(ax.premises)
    args = concl.args
    if len(set(args)) != len(args) or any(p.args != args for p in prem):
        return False
    order = sig.order(sig.arity(concl.symbol))
    if len(prem) == 1:
        return order.leq(concl.symbol, prem[0].symbol)
    if len(prem) == 2 and order.is_complete_heyting():
        return order.join2(prem[0].symbol, prem[1].symbol) == concl.symbol
    return False

