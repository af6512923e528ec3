"""Satisfaction of Horn formulas, model checking, free models and entailment.

The free model is computed by a round-based chase: every axiom is matched
against the current structure, equality conclusions merge elements through a
union-find (merges apply before edge additions within a round), and edge
conclusions add edges, until a fixpoint.  Termination holds because the
carrier only shrinks and the edge set over a fixed carrier only grows.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from .core import (
    Edge,
    Equality,
    HornFormula,
    Morphism,
    SignatureError,
    Structure,
    Theory,
    fresh_variables,
    horn,
    var_set,
)


# A valuation assigns carrier elements to the variables a check cares about;
# values outside that set never influence satisfaction.
Valuation = dict[str, str]


@dataclass(frozen=True)
class Violation:
    """A failed axiom together with the valuation that witnesses the failure."""

    axiom: HornFormula
    valuation: tuple[tuple[str, str], ...]

    def valuation_dict(self) -> dict[str, str]:
        return dict(self.valuation)


@dataclass(frozen=True)
class FreeModelResult:
    model: Structure
    unit_map: Morphism


def satisfying_valuations(
    x: Structure,
    premises: frozenset[Edge] | tuple[Edge, ...],
    variables: tuple[str, ...],
) -> Iterator[dict[str, str]]:
    """All valuations of ``variables`` into the carrier making every premise hold.

    Premises are matched by backtracking against the structure's edge sets;
    variables not occurring in any premise range over the whole carrier.
    Valuations come out in lexicographic order of the variable tuple.
    """
    prem = sorted(premises)
    carrier = x.sorted_carrier()
    prem_vars = var_set(prem)

    def extend(binding: dict[str, str], remaining: list[Edge]) -> Iterator[dict[str, str]]:
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


def _conclusion_holds(x: Structure, concl: Edge | Equality, val: Mapping[str, str]) -> bool:
    if isinstance(concl, Equality):
        return val[concl.left] == val[concl.right]
    return x.holds(concl.symbol, tuple(val[a] for a in concl.args))


def find_formula_violation(x: Structure, formula: HornFormula) -> Optional[dict[str, str]]:
    """The first (canonical-order) valuation violating the formula, or None."""
    variables = tuple(sorted(formula.variables()))
    for val in satisfying_valuations(x, formula.premises, variables):
        if not _conclusion_holds(x, formula.conclusion, val):
            return val
    return None


def satisfies_formula(x: Structure, formula: HornFormula) -> bool:
    """Whether every premise-satisfying valuation also satisfies the conclusion."""
    return find_formula_violation(x, formula) is None


def check_model(x: Structure, theory: Theory) -> Optional[Violation]:
    """The first violated axiom with its valuation, or None if ``x`` is a model."""
    if x.signature != theory.signature:
        raise SignatureError("structure and theory use different signatures")
    for ax in theory.all_axioms():
        val = find_formula_violation(x, ax)
        if val is not None:
            return Violation(ax, tuple(sorted(val.items())))
    return None


def is_model(x: Structure, theory: Theory) -> bool:
    return check_model(x, theory) is None


@dataclass(frozen=True)
class GroundTheory:
    """A theory's axioms instantiated on one carrier, as bitmask clauses.

    Bit ``i`` of a mask stands for the ``i``-th edge slot.  An edge set is a
    model exactly when it contains the conclusion bit of every rule whose
    premise mask it contains, and contains no forbidden mask.
    """

    rules: tuple[tuple[int, int], ...]
    forbidden: tuple[int, ...]


def ground_axioms(
    theory: Theory, carrier: tuple[str, ...], slots: Sequence[Edge]
) -> GroundTheory:
    """Every valuation of every axiom into the carrier, over the given edge slots.

    An edge conclusion gives the rule ``(premise_mask, conclusion_bit)`` unless
    it is among its own premises; an equality conclusion under a valuation
    with two distinct values gives the forbidden mask ``premise_mask``.  The
    slots must cover every edge over the carrier.
    """
    bit = {e: 1 << i for i, e in enumerate(slots)}
    rules: set[tuple[int, int]] = set()
    forbidden: set[int] = set()
    for ax in theory.all_axioms():
        variables = tuple(sorted(ax.variables()))
        position = {v: i for i, v in enumerate(variables)}
        premises = [(e.symbol, tuple(position[a] for a in e.args)) for e in ax.premises]
        concl = ax.conclusion
        for values in itertools.product(carrier, repeat=len(variables)):
            mask = 0
            for symbol, args in premises:
                mask |= bit[Edge(symbol, tuple(values[i] for i in args))]
            if isinstance(concl, Equality):
                if values[position[concl.left]] != values[position[concl.right]]:
                    forbidden.add(mask)
            else:
                head = bit[Edge(concl.symbol, tuple(values[position[a]] for a in concl.args))]
                if not mask & head:
                    rules.add((mask, head))
    return GroundTheory(tuple(sorted(rules)), tuple(sorted(forbidden)))


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


def free_model(theory: Theory, x: Structure) -> FreeModelResult:
    """The least saturation of ``x`` under the theory, with the projection map."""
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
            for val in satisfying_valuations(current, ax.premises, variables):
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


def entails(theory: Theory, formula: HornFormula) -> bool:
    """Whether every model of the theory satisfies the formula.

    Decided exactly on the free model of the formula's premises: the carrier
    is the formula's variable set, the edges are its premises, and the
    conclusion is checked on the saturation under the generic valuation.
    """
    theory.signature.check_formula(formula, "formula")
    variables = sorted(formula.variables())
    generic = Structure(theory.signature, variables, formula.premises)
    result = free_model(theory, generic)
    unit = result.unit_map
    if isinstance(formula.conclusion, Equality):
        return unit(formula.conclusion.left) == unit(formula.conclusion.right)
    concl = formula.conclusion
    return result.model.holds(concl.symbol, tuple(unit(a) for a in concl.args))


def is_reflexive(x: Structure) -> bool:
    """Whether every relation of the structure is reflexive."""
    return all(
        x.holds(s.name, (a,) * s.arity) for s in x.signature.symbols for a in x.carrier
    )


def is_reflexive_theory(theory: Theory) -> bool:
    """Whether the theory entails reflexivity of every symbol.

    Exact: it asks :func:`entails` for the formula => R v...v for each
    symbol R, which is sound and complete.
    """
    v = fresh_variables(1)[0]
    return all(
        entails(theory, horn((), Edge(s.name, (v,) * s.arity)))
        for s in theory.signature.symbols
    )


def is_transitive(x: Structure) -> bool:
    """Relational transitivity of every symbol; defined for all-binary signatures."""
    if any(s.arity != 2 for s in x.signature.symbols):
        raise SignatureError("transitivity check needs an all-binary signature")
    for s in x.signature.symbols:
        pairs = x.tuples(s.name)
        for a, b in pairs:
            for c, d in pairs:
                if b == c and (a, d) not in pairs:
                    return False
    return True
