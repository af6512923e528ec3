"""Axiom schemas over complete-Heyting signatures and schema convexity/safety.

A schema is a premise/conclusion shape in a placeholder symbol together with
a combination function sending a tuple of actual symbols (one per premise)
to the conclusion symbol.  Expanding a schema over a finite signature yields
one Horn axiom per label tuple.  Schema convexity replaces the existence of
a single lifted valuation with a join inequality over all lifted valuations,
computed in the symbol lattice; it runs over the same fibre-lift kernel as
flat convexity (:mod:`hornmod.convexity`), and object convexity is schema
convexity of the unique map to the terminal object.  A call checks the
Heyting gate and a declared monotonicity once per schema, walks the lift
cases of the schema's shape once for all its instances, and keeps each
premise tuple's largest label, so a lift costs one lookup per premise.
Schema safety is meet compatibility of the combination function plus flat
safety (:func:`hornmod.convexity.is_safe_axiom`) of each instance, with one
chase per distinct conclusion, and the schematic classification shares the
flat classifier's closure notes.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import reduce
from typing import Optional, Union

from .core import (
    Edge,
    HornFormula,
    HornmodError,
    Morphism,
    QUANTALE,
    Signature,
    Structure,
    SymbolOrder,
    Theory,
    _is_variable_edge,
    horn,
    var_set,
)
from .convexity import (
    _chase_conclusion,
    _closure_notes,
    _collapse,
    _fibre_lifts,
    _lift_order,
    _require_signature,
    eligible_axioms,
)
from .limits import bang
from .quantale import Quantale, QuantaleError, VFunctor, is_heyting
from .semantics import _reader

PLACEHOLDER = "?"


class SchemaError(HornmodError):
    pass


@dataclass(frozen=True)
class TensorComposite:
    """Combine labels of a quantale signature by tensoring their elements in order."""


@dataclass(frozen=True)
class PremiseProjection:
    """Return the label of one premise unchanged."""

    index: int


@dataclass(frozen=True)
class ConstantSymbol:
    symbol: str


@dataclass(frozen=True)
class ExplicitTable:
    """A total table from label tuples (in canonical premise order) to symbols.

    The entries are kept in label order, so equal mappings make equal tables,
    and a label tuple listed twice is refused.  They are read into a dict once,
    when the table is built; equality, hash and repr see only ``entries``.
    """

    entries: tuple[tuple[tuple[str, ...], str], ...]
    _lookup: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        entries = tuple(sorted(self.entries))
        for (labels, _), (later, _) in zip(entries, entries[1:]):
            if labels == later:
                raise SchemaError(f"table lists the labels {labels} more than once")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_lookup", dict(entries))

    def lookup(self) -> dict[tuple[str, ...], str]:
        """The table as a dict, built once; callers must not change it."""
        return self._lookup


Combine = Union[TensorComposite, PremiseProjection, ConstantSymbol, ExplicitTable]


@dataclass(frozen=True)
class AxiomSchema:
    """An axiom shape in a placeholder symbol plus a label combination function."""

    name: str
    arity: int
    premises: tuple[Edge, ...]
    conclusion: Edge
    combine: Combine
    monotone: bool = True

    def __post_init__(self) -> None:
        premises = tuple(self.premises)
        for e in premises + (self.conclusion,):
            if not _is_variable_edge(e):
                raise SchemaError(f"schema shape {e!r} is not an Edge over a tuple of variable names")
        object.__setattr__(self, "premises", tuple(sorted(set(premises))))
        for e in self.premises + (self.conclusion,):
            if e.symbol != PLACEHOLDER:
                raise SchemaError("schema shapes must use the placeholder symbol")
            if len(e.args) != self.arity:
                raise SchemaError("schema shape has an edge of the wrong arity")
        if isinstance(self.combine, PremiseProjection):
            if not 0 <= self.combine.index < len(self.premises):
                raise SchemaError("projection index out of range")
        if isinstance(self.combine, ExplicitTable):
            for labels, _ in self.combine.entries:
                if len(labels) != len(self.premises):
                    raise SchemaError("table entry has the wrong number of labels")

    def variables(self) -> frozenset[str]:
        return frozenset(var_set(self.premises) | set(self.conclusion.args))

    def check_signature(self, sig: Signature) -> None:
        """Raise unless ``sig`` has symbols of the schema's arity and every symbol
        the combination can return is one of them; no instance is expanded."""
        allowed = sig.symbols_of_arity(self.arity)
        if not allowed:
            raise SchemaError(f"schema {self.name!r} has arity {self.arity}, "
                              f"but the signature has no symbols of arity {self.arity}")
        named = []
        if isinstance(self.combine, ConstantSymbol):
            named = [self.combine.symbol]
        elif isinstance(self.combine, ExplicitTable):
            named = [symbol for _, symbol in self.combine.entries]
        for symbol in named:
            if symbol not in allowed:
                raise SchemaError(
                    f"schema {self.name!r} combines to {symbol!r}, "
                    f"which is not a symbol of arity {self.arity}"
                )


@dataclass(frozen=True)
class SchemaInstance:
    labels: tuple[str, ...]
    formula: HornFormula


def generalized_transitivity_schema() -> AxiomSchema:
    return AxiomSchema(
        name="generalized_transitivity",
        arity=2,
        premises=(Edge(PLACEHOLDER, ("x", "y")), Edge(PLACEHOLDER, ("y", "z"))),
        conclusion=Edge(PLACEHOLDER, ("x", "z")),
        combine=TensorComposite(),
        monotone=True,
    )


def symmetry_schema() -> AxiomSchema:
    return AxiomSchema(
        name="symmetry",
        arity=2,
        premises=(Edge(PLACEHOLDER, ("x", "y")),),
        conclusion=Edge(PLACEHOLDER, ("y", "x")),
        combine=PremiseProjection(0),
        monotone=True,
    )


def apply_combine(schema: AxiomSchema, sig: Signature, labels: tuple[str, ...]) -> str:
    if len(labels) != len(schema.premises):
        raise SchemaError("one label per premise is required")
    combine = schema.combine
    if isinstance(combine, TensorComposite):
        if sig.order_kind != QUANTALE or sig.quantale is None:
            raise SchemaError("tensor combination needs a quantale-induced signature")
        v = sig.quantale
        elements = [label[1:] for label in labels]  # strip the ~ prefix
        return "~" + reduce(v.tensor, elements, v.unit)
    if isinstance(combine, PremiseProjection):
        return labels[combine.index]
    if isinstance(combine, ConstantSymbol):
        return combine.symbol
    table = combine.lookup()
    if labels not in table:
        raise SchemaError(f"table has no entry for labels {labels}")
    return table[labels]


def _label_tuples(schema: AxiomSchema, sig: Signature) -> tuple[tuple[str, ...], ...]:
    """Every labelling of the schema's premises over the signature, in canonical order."""
    schema.check_signature(sig)
    symbols = sig.symbols_of_arity(schema.arity)
    return tuple(itertools.product(symbols, repeat=len(schema.premises)))


def expand_instances(schema: AxiomSchema, sig: Signature) -> tuple[SchemaInstance, ...]:
    """All instances of the schema over the signature, in canonical label order."""
    return tuple(
        SchemaInstance(labels, _instance_formula(schema, sig, labels))
        for labels in _label_tuples(schema, sig)
    )


def _instance_formula(schema: AxiomSchema, sig: Signature, labels: tuple[str, ...]) -> HornFormula:
    """The Horn formula the labels make of the schema's shape."""
    conclusion = Edge(apply_combine(schema, sig, labels), schema.conclusion.args)
    premises = [Edge(label, shape.args) for label, shape in zip(labels, schema.premises)]
    return horn(premises, conclusion)


def _monotone_verified(schema: AxiomSchema, sig: Signature) -> bool:
    """Whether the declared monotonicity of the combination function holds.

    Builtin combinations are monotone whenever the quantale laws hold; an
    explicit table declared monotone is checked exhaustively and a false
    declaration raises.
    """
    if not schema.monotone:
        return False
    if not isinstance(schema.combine, ExplicitTable):
        return True
    order = sig.order(schema.arity)
    k = len(schema.premises)
    for low in itertools.product(order.symbols, repeat=k):
        for high in itertools.product(order.symbols, repeat=k):
            if all(order.leq(a, b) for a, b in zip(low, high)):
                if not order.leq(
                    apply_combine(schema, sig, low), apply_combine(schema, sig, high)
                ):
                    raise SchemaError(
                        f"table declared monotone but fails at {low} <= {high}"
                    )
    return True


def _require_heyting(sig: Signature, arity: int) -> SymbolOrder:
    order = sig.order(arity)
    if not order.is_complete_heyting():
        raise SchemaError(f"schemas need a complete-Heyting symbol order at arity {arity}")
    return order


def _r_kappa_enumerated(
    schema: AxiomSchema,
    sig: Signature,
    order: SymbolOrder,
    labels: tuple[str, ...],
    x: Structure,
    args_per_premise: list[tuple[str, ...]],
) -> str:
    terms = []
    for sbar in itertools.product(order.symbols, repeat=len(labels)):
        if all(x.holds(s, args) for s, args in zip(sbar, args_per_premise)):
            meets = tuple(order.meet2(r, s) for r, s in zip(labels, sbar))
            terms.append(apply_combine(schema, sig, meets))
    out = order.join_of_set(terms)
    assert out is not None
    return out


def _lift_join(x: Structure, schema: AxiomSchema, sig: Signature, order: SymbolOrder):
    """``r_kappa(labels, args_per_premise)``: the join of the combined meets of
    ``labels`` with every premise labelling that holds in ``x`` at those tuples.

    For a monotone combination and tuples that each have a largest label it is
    one combine at the meets with those maxima, else the defining join
    (:func:`_r_kappa_enumerated`), which a test checks the collapse against.
    Each tuple's maximum (``None`` if none) and each combine is kept on first use.
    """
    monotone = _monotone_verified(schema, sig)
    maxima: dict[tuple[str, ...], Optional[str]] = {}
    combined: dict[tuple[str, ...], str] = {}

    def r_kappa(labels: tuple[str, ...], args_per_premise: list[tuple[str, ...]]) -> str:
        if monotone:
            for args in args_per_premise:
                if args not in maxima:
                    present = [s for s in order.symbols if x.holds(s, args)]
                    top = order.join_of_set(present)
                    maxima[args] = top if top in present else None
                if maxima[args] is None:
                    break  # labels not join-closed; fall back to the defining join
            else:
                meets = tuple(map(order.meet2, labels, [maxima[a] for a in args_per_premise]))
                if meets not in combined:
                    combined[meets] = apply_combine(schema, sig, meets)
                return combined[meets]
        return _r_kappa_enumerated(schema, sig, order, labels, x, args_per_premise)

    return r_kappa


@dataclass(frozen=True)
class SchemaCounterexample:
    schema: str
    labels: tuple[str, ...]
    valuation: tuple[tuple[str, str], ...]
    lifted: tuple[str, ...]
    symbol: str


@dataclass(frozen=True)
class SchemaConvexityReport:
    convex: bool
    counterexample: Optional[SchemaCounterexample]


def _first_nonconvex(
    f: Morphism, schema: AxiomSchema, labellings: tuple[tuple[str, ...], ...], sig: Signature
) -> SchemaConvexityReport:
    """The report of the first instance, named by its labels, that ``f`` is not convex for.

    The Heyting gate, the monotonicity check and the lift join are set up
    once, and the fibre-lift cases of the schema's shape are walked once, for
    all the instances.  The downstairs search checks only the premise labels
    that every instance shares; a valuation counts for an instance when its
    premise tuples carry that instance's labels, so each instance meets its
    own cases in its own canonical order and fails first where a walk of its
    own would.  Only counted valuations have their lifts searched; a failing
    instance drops every later one, and the walk stops when none is left.
    """
    x, z = f.source, f.target
    order = _require_heyting(sig, schema.arity)
    r_kappa = _lift_join(x, schema, sig, order)
    premise_args = [p.args for p in schema.premises]
    sigmas = [apply_combine(schema, sig, labels) for labels in labellings]
    shared = [
        Edge(labels[0], args)
        for args, *labels in zip(premise_args, *labellings)
        if len(set(labels)) == 1
    ]
    bottom = order.bottom()
    assert bottom is not None  # a complete lattice, by the Heyting gate
    upper = [t for t in order.symbols if t != bottom]  # bottom is below every join
    variables, concl_args = tuple(sorted(schema.variables())), schema.conclusion.args
    lift_vars = _lift_order(variables, concl_args)
    readers = [_reader(tuple(map(lift_vars.index, args))) for args in premise_args]
    limit, report = len(labellings), SchemaConvexityReport(True, None)
    for kz, cases in _fibre_lifts(f, variables, shared, concl_args):
        tuples = [tuple(map(kz.__getitem__, args)) for args in premise_args]
        live = [i for i in range(limit) if all(map(z.holds, labellings[i], tuples))]
        if not live:
            continue  # no instance reads this valuation's lifts
        for xs, lifts in cases:
            held = [t for t in upper if x.holds(t, xs)]
            lifted = None
            for j, i in enumerate(live):
                candidates = [t for t in held if order.leq(t, sigmas[i])]
                if not candidates:
                    continue
                if lifted is None:
                    lifted = [[read(lift) for read in readers] for lift in lifts]
                labels = labellings[i]
                total = bottom
                for args in lifted:
                    total = order.join2(total, r_kappa(labels, args))
                t = next((t for t in candidates if not order.leq(t, total)), None)
                if t is not None:
                    limit, report = i, SchemaConvexityReport(
                        False, SchemaCounterexample(schema.name, labels, tuple(kz.items()), xs, t)
                    )
                    del live[j:]
                    break
            if not live:
                break
        if limit == 0:
            break
    return report


def is_schema_convex_wrt_instance(
    f: Morphism, schema: AxiomSchema, instance: SchemaInstance, theory: Theory
) -> SchemaConvexityReport:
    """Convexity of a morphism with respect to one instance of a schema.

    The endpoints are assumed to be models of the signature's base theory.
    The instance's formula must be the one its labels expand to.
    """
    _require_signature(f, theory)
    sig = theory.signature
    symbols = sig.symbols_of_arity(schema.arity)
    unknown = tuple(label for label in instance.labels if label not in symbols)
    if unknown:
        raise SchemaError(f"instance labels {unknown} are not symbols of arity {schema.arity}")
    if instance.formula != _instance_formula(schema, sig, instance.labels):
        raise SchemaError(f"instance formula is not the expansion of labels {instance.labels}")
    return _first_nonconvex(f, schema, (instance.labels,), sig)


def is_schema_convex(f: Morphism, theory: Theory) -> SchemaConvexityReport:
    """Convexity with respect to every instance of every schema of the theory."""
    _require_signature(f, theory)
    for schema in theory.schemas:
        labellings = _label_tuples(schema, theory.signature)
        report = _first_nonconvex(f, schema, labellings, theory.signature)
        if not report.convex:
            return report
    return SchemaConvexityReport(True, None)


def is_schema_object_convex(x: Structure, theory: Theory) -> SchemaConvexityReport:
    """Object convexity: schema convexity of the unique map to the terminal object.

    A counterexample's ``valuation`` is therefore a valuation into the
    terminal object, sending every schema variable to its one point.
    """
    return is_schema_convex(bang(x), theory)


def ch_condition_oracle(h: VFunctor, v: Quantale) -> bool:
    """The distance-form exponentiability condition for maps of reflexive V-graphs.

    For all x1, x3 upstairs, z2 downstairs and u <= d(f(x1), z2),
    u' <= d(z2, f(x3)):

        d(x1, x3) /\\ (u (x) u')
            <= \\/ over x2 in the fibre of z2 of
               (d(x1, x2) /\\ u) (x) (d(x2, x3) /\\ u')

    An independent check of schema convexity: it reads only the distance
    tables and the quantale, and shares no code with the lift kernel or the
    schema deciders.  It reads the lattice from kept tables: the fibres are
    built once per call, ``u`` and ``u'`` range over the order's down-sets,
    and the right-hand join folds the join table from bottom (the Heyting
    gate guarantees a complete lattice, so an empty fibre gives bottom).
    ``v`` must be the quantale ``h`` is over.
    """
    if h.source.quantale != v:
        raise QuantaleError("the V-functor is over another quantale")
    if not is_heyting(v):
        raise QuantaleError("the distance-form condition needs a Heyting lattice")
    dx, dz = h.source, h.target
    order, tensor = v.order, v.tensor
    below, meet, join, leq = order.below, order.meet2, order.join2, order.leq
    bottom = order.bottom()
    fibres = {z: [a for a in dx.carrier if h(a) == z] for z in dz.carrier}
    for x1 in dx.carrier:
        for x3 in dx.carrier:
            d13 = dx.d(x1, x3)
            for z2 in dz.carrier:
                fibre = fibres[z2]
                from_x1 = [dx.d(x1, x2) for x2 in fibre]
                to_x3 = [dx.d(x2, x3) for x2 in fibre]
                for u in below(dz.d(h(x1), z2)):
                    left = [meet(d, u) for d in from_x1]
                    for u2 in below(dz.d(z2, h(x3))):
                        lhs = meet(d13, tensor(u, u2))
                        rhs = bottom
                        for a, d in zip(left, to_x3):
                            rhs = join(rhs, tensor(a, meet(d, u2)))
                        if not leq(lhs, rhs):
                            return False
    return True


@dataclass(frozen=True)
class SchemaSafetyResult:
    safe: bool
    very_safe: bool
    witnesses: Optional[tuple[tuple[tuple[str, ...], tuple[tuple[str, str], ...]], ...]]
    meet_violation: Optional[tuple[tuple[str, ...], str]]
    unsafe_labels: Optional[tuple[str, ...]] = None


def is_schema_safe(schema: AxiomSchema, theory: Theory) -> SchemaSafetyResult:
    """Meet compatibility of the combination function plus flat safety of each instance.

    Safety requires the combination function to commute with meets by a fixed
    symbol, and each instance to be a safe axiom (:func:`is_safe_axiom`); the
    witnesses are the instances' label tuples with their collapses, and the
    first unsafe instance's labels are reported.  The schema is checked
    against the signature before the Heyting gate.  An instance's conclusion
    depends only on its combined label, so each distinct conclusion edge is
    chased once per call and its free model is read by every instance that
    shares it.
    """
    sig = theory.signature
    schema.check_signature(sig)
    order = _require_heyting(sig, schema.arity)
    k = len(schema.premises)
    for rbar in itertools.product(order.symbols, repeat=k):
        for s in order.symbols:
            lowered = tuple(order.meet2(r, s) for r in rbar)
            lhs = apply_combine(schema, sig, lowered)
            rhs = order.meet2(apply_combine(schema, sig, rbar), s)
            if lhs != rhs:
                return SchemaSafetyResult(False, False, None, (rbar, s))
    witnesses, chased = [], {}
    for inst in expand_instances(schema, sig):
        concl = inst.formula.conclusion
        if concl not in chased:
            chased[concl] = _chase_conclusion(concl, theory)
        res = _collapse(inst.formula, chased[concl])
        if not res.safe:
            return SchemaSafetyResult(False, False, None, None, inst.labels)
        witnesses.append((inst.labels, res.witness))
    # every instance has the schema's variables, so the last one speaks for all
    return SchemaSafetyResult(True, res.very_safe, tuple(witnesses), None)


def is_schema_very_safe(schema: AxiomSchema, theory: Theory) -> bool:
    return is_schema_safe(schema, theory).very_safe


@dataclass(frozen=True)
class SchematicClassification:
    schematic: bool
    per_schema: tuple[tuple[str, SchemaSafetyResult], ...]
    has_equality: bool
    cartesian_closed: bool
    locally_cartesian_closed: bool
    quasitopos: bool
    notes: tuple[str, ...]


def classify_schematic_theory(theory: Theory) -> SchematicClassification:
    """Closure advisory for a schematic extension of the base theory.

    All schemas safe gives cartesian closure; all very safe gives local
    cartesian closure; very safe without any equality axiom additionally
    makes the category of models a quasitopos (a topological universe).
    """
    has_eq = theory.has_equality_axiom()
    if not theory.base_flag or eligible_axioms(theory):
        notes = ("theory is not a schematic extension of the base theory; "
                 "the schema-safety theorems do not apply",)
        return SchematicClassification(False, (), has_eq, False, False, False, notes)
    results = tuple((s.name, is_schema_safe(s, theory)) for s in theory.schemas)
    all_safe = all(r.safe for _, r in results)
    all_very = all(r.very_safe for _, r in results)
    return SchematicClassification(
        schematic=True,
        per_schema=results,
        has_equality=has_eq,
        cartesian_closed=all_safe,
        locally_cartesian_closed=all_very,
        quasitopos=all_very and not has_eq,
        notes=_closure_notes("schema", all_safe, all_very, has_eq),
    )
