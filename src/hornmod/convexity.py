"""Convexity of morphisms and objects, safety of axioms, and classification.

Convexity with respect to an axiom asks that every premise-satisfying
valuation downstairs, together with a lift of the conclusion tuple, extends
to a premise-satisfying valuation upstairs with the remaining premise
variables lifted within their fibres.  One kernel, ``_fibre_lifts``, finds
these cases with the valuation search of :mod:`hornmod.semantics`, for flat
convexity here and for schema convexity in :mod:`hornmod.schema`; an object
is convex when its unique map to the terminal object is.  An equivalent
reformulation via weak right lifting against the axiom's free-model
inclusion is an independent oracle.  Safe axioms are those whose premises
follow from their conclusion under a variable-collapsing substitution; they
force convexity of objects (and, when very safe, of all morphisms).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .core import (
    DISCRETE,
    Edge,
    HornFormula,
    Morphism,
    SignatureError,
    Structure,
    Theory,
    TheoryError,
    compose,
    fresh_variables,
    var_set,
)
from .limits import bang, enumerate_morphisms
from .semantics import _checks, _reader, _run, free_model, is_reflexive_theory


@dataclass(frozen=True)
class ConvexityCounterexample:
    """The lexicographically first failing (downstairs valuation, lifted tuple)."""

    axiom: HornFormula
    valuation: tuple[tuple[str, str], ...]
    lifted: tuple[str, ...]


@dataclass(frozen=True)
class ConvexityReport:
    convex: bool
    counterexample: Optional[ConvexityCounterexample]


def eligible_axioms(theory: Theory) -> tuple[HornFormula, ...]:
    """The equality-free axioms of the theory that are not base axioms."""
    return tuple(
        ax
        for ax in theory.non_base_axioms()
        if not ax.has_equality()
    )


def _require_discrete(theory: Theory) -> None:
    if theory.signature.order_kind != DISCRETE:
        raise SignatureError("convexity in this form is defined over discrete signatures")


def _require_signature(f: Morphism, theory: Theory) -> None:
    if f.source.signature != theory.signature or f.target.signature != theory.signature:
        raise SignatureError("morphism and theory use different signatures")


def _lift_order(variables: tuple[str, ...], concl_args: tuple[str, ...]) -> tuple[str, ...]:
    """The variables of a lift tuple: the conclusion's by first occurrence, then the rest."""
    return tuple(dict.fromkeys(concl_args + variables))


def _fibre_lifts(f: Morphism, variables, edges, concl_args: tuple[str, ...], lift_edges=()):
    """The cases that flat and schema convexity of ``f`` quantify over.

    For each valuation of the sorted ``variables`` into the target under which
    ``edges`` hold, found by the valuation search of :mod:`hornmod.semantics`
    in canonical order, yields ``(valuation, cases)``, the valuation as a dict.
    ``cases`` lazily lists ``(xs, lifts)`` for each ``xs`` in the product of
    the fibres over the conclusion variables: ``lifts`` lazily lists the source
    value tuples over :func:`_lift_order` that pin the conclusion variables to
    ``xs``, lift the others within their fibres and satisfy ``lift_edges``
    (none if ``xs`` gives a repeated variable two values).  The fibres and the
    lift plan are built once per call; the plan runs once per valuation, when
    its cases are first read.
    """
    x, z = f.source, f.target
    lift_vars = _lift_order(variables, concl_args)
    checks = _checks(lift_vars, lift_edges, x)
    conclusion = _reader(tuple(map(lift_vars.index, concl_args)))
    fibre = {c: tuple(sorted(a for a in x.carrier if f(a) == c)) for c in z.carrier}
    for values in _run(_checks(variables, edges, z), [z.sorted_carrier()] * len(variables)):
        kz = dict(zip(variables, values))
        groups = itertools.groupby(_run(checks, [fibre[kz[v]] for v in lift_vars]), conclusion)
        yield kz, _cases([fibre[kz[v]] for v in concl_args], groups)


def _cases(concl_fibres, groups):
    """Each ``xs`` of the product of ``concl_fibres`` with its group (same order) or ``()``."""
    key, group = next(groups, (None, ()))
    for xs in itertools.product(*concl_fibres):
        if key == xs:
            yield xs, group
            key, group = next(groups, (None, ()))
        else:
            yield xs, ()


def is_convex_wrt(f: Morphism, axiom: HornFormula, theory: Theory) -> ConvexityReport:
    """Convexity of a morphism with respect to one equality-free axiom."""
    _require_discrete(theory)
    _require_signature(f, theory)
    if axiom.has_equality():
        raise TheoryError("convexity is defined for axioms with edge conclusions")
    theory.signature.check_formula(axiom, "axiom")
    assert isinstance(axiom.conclusion, Edge)
    concl = axiom.conclusion
    x, premises, variables = f.source, axiom.premises, tuple(sorted(axiom.variables()))
    for kz, cases in _fibre_lifts(f, variables, premises, concl.args, premises):
        for xs, lifts in cases:
            if x.holds(concl.symbol, xs) and next(iter(lifts), None) is None:
                witness = ConvexityCounterexample(axiom, tuple(kz.items()), xs)
                return ConvexityReport(False, witness)
    return ConvexityReport(True, None)


def convexity_report(f: Morphism, theory: Theory) -> ConvexityReport:
    """Convexity with respect to every eligible axiom, with the first counterexample."""
    _require_discrete(theory)
    _require_signature(f, theory)
    for ax in eligible_axioms(theory):
        report = is_convex_wrt(f, ax, theory)
        if not report.convex:
            return report
    return ConvexityReport(True, None)


def is_convex(f: Morphism, theory: Theory) -> bool:
    return convexity_report(f, theory).convex


def _axiom_free_models(axiom: HornFormula, theory: Theory):
    """The free models R_T -> (premises + conclusion)_T and the comparison morphism."""
    assert isinstance(axiom.conclusion, Edge)
    concl = axiom.conclusion
    n = len(concl.args)
    generators = fresh_variables(n)
    generic = Structure(theory.signature, generators, (Edge(concl.symbol, generators),))
    edge_model = free_model(theory, generic)
    variables = sorted(axiom.variables())
    implication = Structure(
        theory.signature, variables, set(axiom.premises) | {concl}
    )
    impl_model = free_model(theory, implication)
    mapping = {}
    for g, v in zip(generators, concl.args):
        image = impl_model.unit_map(v)
        key = edge_model.unit_map(g)
        if mapping.setdefault(key, image) != image:
            raise TheoryError("axiom free models are inconsistent")  # pragma: no cover
    comparison = Morphism(edge_model.model, impl_model.model, mapping)
    return edge_model.model, impl_model.model, comparison


def _lifting_models(theory: Theory) -> tuple:
    """:func:`_axiom_free_models` of each eligible axiom, in order, kept on the theory."""
    if theory._lifting_models is None:
        models = tuple(_axiom_free_models(ax, theory) for ax in eligible_axioms(theory))
        object.__setattr__(theory, "_lifting_models", models)
    return theory._lifting_models


def is_convex_via_lifting(f: Morphism, theory: Theory) -> bool:
    """Convexity decided through the weak right lifting property.

    For each eligible axiom, every commutative square from the comparison
    morphism of its free models to ``f`` must admit a diagonal filler.  The
    free models are chased once per theory and kept on it.  Per axiom the
    fillers ``d`` are enumerated once, as the set of the squares they fill,
    ``(d . comparison, f . d)``; the bottoms once, grouped by
    ``bottom . comparison``; and the tops once, each looking up its squares
    with the bottoms over ``f . top``.  Agrees with :func:`is_convex` on all
    inputs and shares none of its search; the pair is a dual-oracle check.
    """
    _require_discrete(theory)
    _require_signature(f, theory)
    x, z = f.source, f.target
    for edge_model, impl_model, comparison in _lifting_models(theory):
        filled = {
            (compose(d, comparison), compose(f, d)) for d in enumerate_morphisms(impl_model, x)
        }
        bottoms: dict[Morphism, list[Morphism]] = {}
        for bottom in enumerate_morphisms(impl_model, z):
            bottoms.setdefault(compose(bottom, comparison), []).append(bottom)
        for top in enumerate_morphisms(edge_model, x):
            if any((top, bottom) not in filled for bottom in bottoms.get(compose(f, top), ())):
                return False
    return True


def is_object_convex(x: Structure, theory: Theory) -> bool:
    """Convexity of an object: convexity of its unique map to the terminal object."""
    return convexity_report(bang(x), theory).convex


@dataclass(frozen=True)
class SafetyResult:
    safe: bool
    very_safe: bool
    witness: Optional[tuple[tuple[str, str], ...]]

    def witness_dict(self) -> Optional[dict[str, str]]:
        return dict(self.witness) if self.witness is not None else None


def _chase_conclusion(concl: Edge, theory: Theory):
    """The free model of the conclusion edge, its variables as the generators."""
    return free_model(theory, Structure(theory.signature, dict.fromkeys(concl.args), (concl,)))


def is_safe_axiom(axiom: HornFormula, theory: Theory) -> SafetyResult:
    """Search for a variable collapse making the premises follow from the conclusion.

    A collapse exists exactly when the premises map into the free model of the
    conclusion edge with the conclusion's variables fixed (containment on the
    chased canonical instance), so the conclusion is chased once
    (:func:`_chase_conclusion`) and the premises are matched there by one
    valuation search (:func:`_collapse`).  Each point of that model is named
    by the first conclusion variable sent to it, and the free premise
    variables range over the points in that order, so the reported witness is
    the canonical first one.
    """
    if axiom.has_equality():
        raise TheoryError("safety is defined for axioms with edge conclusions")
    theory.signature.check_formula(axiom, "axiom")
    assert isinstance(axiom.conclusion, Edge)
    return _collapse(axiom, _chase_conclusion(axiom.conclusion, theory))


def _collapse(axiom: HornFormula, chased) -> SafetyResult:
    """The safety verdict of ``axiom`` read off ``chased``, its conclusion's free model."""
    assert isinstance(axiom.conclusion, Edge)
    fixed = tuple(dict.fromkeys(axiom.conclusion.args))
    free = tuple(sorted(var_set(axiom.premises) - set(fixed)))
    names: dict[str, str] = {}
    for v in fixed:
        names.setdefault(chased.unit_map(v), v)
    domains = [(chased.unit_map(v),) for v in fixed] + [tuple(names)] * len(free)
    for values in _run(_checks(fixed + free, axiom.premises, chased.model), domains):
        kappa = {v: v for v in fixed}
        kappa.update(zip(free, map(names.__getitem__, values[len(fixed):])))
        return SafetyResult(True, not free, tuple(sorted(kappa.items())))
    return SafetyResult(False, False, None)


def is_very_safe_axiom(axiom: HornFormula, theory: Theory) -> bool:
    return is_safe_axiom(axiom, theory).very_safe


ALL_VERY_SAFE = "all_very_safe"
ALL_SAFE = "all_safe"
NEITHER = "neither"


@dataclass(frozen=True)
class TheoryClassification:
    classification: str
    reflexive: bool
    per_axiom: tuple[SafetyResult, ...]
    has_equality: bool
    cartesian_closed: bool
    locally_cartesian_closed: bool
    quasitopos: bool
    notes: tuple[str, ...]


def _closure_notes(
    kind: str, all_safe: bool, all_very: bool, has_equality: bool
) -> tuple[str, ...]:
    """The closure properties that safety of every axiom (or schema) of ``kind`` gives."""
    if all_very:
        notes = (f"all {kind}s very safe: every morphism of models is convex, "
                 "so the category of models is locally cartesian closed",)
        if not has_equality:
            notes += ("no equality axioms: the category is moreover a quasitopos "
                      "(a topological universe)",)
        return notes
    if all_safe:
        return (f"all {kind}s safe: every model is convex, "
                "so the category of models is cartesian closed",)
    return (f"some {kind} is not safe; no closure property is implied",)


def classify_theory(theory: Theory) -> TheoryClassification:
    """Which closure properties the safety of the axioms guarantees.

    All axioms safe makes every model exponentiable, hence the category of
    models cartesian closed; all axioms very safe makes every morphism
    exponentiable, hence local cartesian closure; very safe without equality
    axioms additionally gives a quasitopos (a topological universe).
    """
    _require_discrete(theory)
    reflexive = is_reflexive_theory(theory)
    results = tuple(is_safe_axiom(ax, theory) for ax in eligible_axioms(theory))
    all_safe = all(r.safe for r in results)
    all_very = all(r.safe and r.very_safe for r in results)
    has_eq = theory.has_equality_axiom()
    notes: tuple[str, ...] = ()
    if not reflexive:
        notes = ("theory is not reflexive; the safety theorems do not apply",)
    if reflexive or not all_safe:
        notes += _closure_notes("axiom", all_safe, all_very, has_eq)
    if reflexive and all_very:
        classification = ALL_VERY_SAFE
    elif reflexive and all_safe:
        classification = ALL_SAFE
    else:
        classification = NEITHER
    return TheoryClassification(
        classification=classification,
        reflexive=reflexive,
        per_axiom=results,
        has_equality=has_eq,
        cartesian_closed=reflexive and all_safe,
        locally_cartesian_closed=reflexive and all_very,
        quasitopos=reflexive and all_very and not has_eq,
        notes=notes,
    )
