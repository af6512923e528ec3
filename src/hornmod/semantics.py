"""Satisfaction of Horn formulas, model checking, free models and entailment.

One search, ``_value_tuples``, assigns values to ordered variables, one domain
each, checking each edge as soon as its variables are bound.  A valuation of
a formula's premises is a morphism from the structure they present, so it
also finds hom-sets, function tables, fibre valuations and mediating maps for
:mod:`hornmod.limits`, :mod:`hornmod.closure` and :mod:`hornmod.convexity`.

Each axiom is compiled once, on its theory, into a :class:`_Rule`: its
variable order and argument readers.  The model check, the chase and the
grounding of :mod:`hornmod.families` all read it.

The free model is computed by a semi-naive chase that matches premises with
the same search, over tuple sets per symbol that the chase keeps itself.  A
round matches the axioms against the edges as they stand at its start;
equality conclusions merge elements through a union-find whose representatives
are class minima, and edge conclusions add edges.  A round matches only the
valuations that use at least one edge of its delta, each once.  The delta is
the edges the previous round added; in the first round and after a merge it
is every edge, and no edge is old.  The chase ends at a fixpoint, which
exists because the carrier only shrinks and the edge set over a fixed carrier
only grows, and which is the least model above the input, so it does not
depend on the order of matching.
"""
from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Callable, Container, Iterable, Iterator, NamedTuple, Optional, Sequence

from .core import (
    Edge,
    Equality,
    HornFormula,
    Morphism,
    SignatureError,
    Structure,
    StructureError,
    Theory,
    fresh_variables,
)


class Violation(NamedTuple):
    """A failed axiom together with the valuation that witnesses the failure."""

    axiom: HornFormula
    valuation: tuple[tuple[str, str], ...]

    def valuation_dict(self) -> dict[str, str]:
        return dict(self.valuation)


class FreeModelResult(NamedTuple):
    model: Structure
    unit_map: Morphism


def _checks(
    variables: Sequence[str], constraints: Iterable[tuple[Container, Sequence[str]]]
) -> list[list[tuple[Container, Callable]]]:
    """The plan of a search: per position, the ``(tuple set, reader)`` checks
    of the ``(tuple set, args)`` constraints whose last variable sits there.

    Every variable of every constraint must be in ``variables``; a reader
    takes the value list and returns the constraint's argument tuple.
    """
    checks: list[list[tuple[Container, Callable]]] = [[] for _ in variables]
    for tuples, args in constraints:
        at = tuple(map(variables.index, args))
        checks[max(at)].append((tuples, _reader(at)))
    return checks


def _reader(at: Sequence[int]) -> Callable:
    """A function reading the values at positions ``at`` as a tuple, of any length."""
    if len(at) > 1:
        return itemgetter(*at)
    return (lambda vs, p=at[0]: (vs[p],)) if at else (lambda vs: ())


def _run(
    checks: Sequence[Sequence[tuple[Container, Callable]]], domains: Sequence[Iterable[str]]
) -> Iterator[tuple[str, ...]]:
    """The value tuples passing every check of a plan, position ``i`` over ``domains[i]``.

    Tuples come out lazily in lexicographic order of the domains, as their
    product if the plan has no checks; a prefix stops at the first check it breaks.
    """
    if not any(checks):
        yield from itertools.product(*domains)
        return
    n = len(checks)
    values = [""] * n
    levels = [iter(domains[0])]  # levels[k] runs over the untried values of position k
    while levels:
        k = len(levels) - 1
        here = checks[k]
        for value in levels[k]:
            values[k] = value
            for tuples, read in here:
                if read(values) not in tuples:
                    break
            else:
                break  # every check passed: keep this value
        else:
            levels.pop()
            continue
        if k + 1 == n:
            yield tuple(values)
        else:
            levels.append(iter(domains[k + 1]))


def _value_tuples(
    x: Structure,
    variables: Sequence[str],
    domains: Sequence[Sequence[str]],
    edges: Iterable[Edge],
) -> Iterator[tuple[str, ...]]:
    """The value tuples for ``variables`` under which every edge holds in ``x``.

    Position ``i`` ranges over ``domains[i]``, so tuples come out lazily in
    lexicographic order of the domains.  Every variable of every edge must be
    in ``variables``; an edge is checked against ``x.tuples(symbol)`` as soon
    as its last variable is bound, so a prefix stops at the first edge it breaks.
    The plan (:func:`_checks`) is built at the call, and the generator returned
    is its run (:func:`_run`), the product of the domains when there is no edge.
    """
    return _run(_checks(variables, ((x.tuples(s), args) for s, args in edges)), domains)


def find_formula_violation(x: Structure, formula: HornFormula) -> Optional[dict[str, str]]:
    """The first (canonical-order) valuation violating the formula, or None."""
    x.signature.check_formula(formula, "formula")
    rule = _Rule(formula)
    values = rule.violation(x)
    return None if values is None else dict(zip(rule.variables, values))


def satisfies_formula(x: Structure, formula: HornFormula) -> bool:
    """Whether every premise-satisfying valuation also satisfies the conclusion."""
    return find_formula_violation(x, formula) is None


def check_model(x: Structure, theory: Theory) -> Optional[Violation]:
    """The first violated axiom with its valuation, or None if ``x`` is a model."""
    if x.signature != theory.signature:
        raise SignatureError("structure and theory use different signatures")
    for rule in _rules(theory):
        values = rule.violation(x)
        if values is not None:
            return Violation(rule.axiom, tuple(zip(rule.variables, values)))
    return None


def is_model(x: Structure, theory: Theory) -> bool:
    return check_model(x, theory) is None


class GroundTheory(NamedTuple):
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
    slots must list every edge over the carrier once: a slot list that misses
    an edge or repeats one raises ``StructureError`` naming that edge.  With
    one dict per symbol from argument tuple to slot bit, a valuation of a kept
    :class:`_Rule` costs one lookup per premise.
    """
    bits: dict[str, dict[tuple[str, ...], int]] = {s.name: {} for s in theory.signature.symbols}
    for i, (symbol, args) in enumerate(slots):
        slot = bits.setdefault(symbol, {})
        if args in slot:
            raise StructureError(f"edge slots list {Edge(symbol, args)} twice")
        slot[args] = 1 << i
    for s in theory.signature.symbols:
        for args in itertools.product(carrier, repeat=s.arity):
            if args not in bits[s.name]:
                raise StructureError(f"edge slots miss {Edge(s.name, args)}")

    rules: set[tuple[int, int]] = set()
    forbidden: set[int] = set()
    for rule in _rules(theory):
        lookups = [(bits[s], read) for s, _, read in rule.plan]
        heads, read_head = bits.get(rule.symbol), rule.read_head  # no heads for an equality
        for values in itertools.product(carrier, repeat=len(rule.variables)):
            mask = 0
            for slot, read in lookups:
                mask |= slot[read(values)]
            head = read_head(values)
            if heads is None:
                if head[0] != head[1]:
                    forbidden.add(mask)
            elif not mask & (bit := heads[head]):
                rules.add((mask, bit))
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


# The chase keeps its edges, its old edges and its delta as plain dicts from
# a symbol to its set of argument tuples.

def _add(tuples: dict, edges: Iterable[tuple[str, tuple[str, ...]]]) -> dict:
    for symbol, args in edges:
        tuples.setdefault(symbol, set()).add(args)
    return tuples


def _pairs(tuples: dict) -> Iterator[tuple[str, tuple[str, ...]]]:
    return ((symbol, args) for symbol, ts in tuples.items() for args in ts)


class _Rule:
    """An axiom compiled once, for the model check, the chase and the grounding.

    A value tuple lists one value per variable, in canonical order.  Per
    premise, in canonical order, ``plan`` holds ``(symbol, level, reader)``:
    the reader takes a value tuple to the argument tuple, and a search checks
    the premise at its level, the position of its last variable.  ``symbol``
    is the conclusion's, None for an equality; ``read_head`` reads the
    conclusion's arguments, or the equality's two sides.
    """

    def __init__(self, ax: HornFormula) -> None:
        self.axiom = ax
        self.variables = tuple(sorted(ax.variables()))
        self.premises = ax.sorted_premises()
        position = {v: k for k, v in enumerate(self.variables)}.__getitem__
        at = [tuple(map(position, p.args)) for p in self.premises]
        self.plan = tuple((p.symbol, max(a), _reader(a)) for p, a in zip(self.premises, at))
        concl, equality = ax.conclusion, isinstance(ax.conclusion, Equality)
        self.symbol = None if equality else concl.symbol
        head = concl if equality else concl.args  # an Equality is its two sides
        self.read_head = _reader(tuple(map(position, head)))

    def _search(self, tuple_sets: Sequence[Container], domains: Sequence[Iterable[str]]):
        """:func:`_run` over ``domains`` with premise j checked against ``tuple_sets[j]``."""
        checks: list[list[tuple[Container, Callable]]] = [[] for _ in self.variables]
        for (_, level, read), tuples in zip(self.plan, tuple_sets):
            checks[level].append((tuples, read))
        return _run(checks, domains)

    def violation(self, x: Structure) -> Optional[tuple[str, ...]]:
        """The first value tuple over the sorted carrier under which every premise
        holds in ``x`` and the conclusion fails, or None."""
        tuples = x.tuples
        found = self._search([tuples(s) for s, _, _ in self.plan],
                             [x.sorted_carrier()] * len(self.variables))
        for values in found:
            head = self.read_head(values)
            if (head[0] != head[1]) if self.symbol is None else (head not in tuples(self.symbol)):
                return values
        return None

    def matches(self, carrier, edges: dict, old: dict, delta: dict):
        """The value tuples of one chase round (see :func:`free_model`), one
        search per premise i with delta tuples; premise i's variables range over
        the values the delta holds at their positions, the others over the carrier."""
        premises, variables = self.premises, self.variables
        if not (premises or old):  # premise-free: only while no edge is old
            yield from itertools.product(carrier, repeat=len(variables))
        for i, premise in enumerate(premises):
            sources = [old] * i + [delta] + [edges] * (len(premises) - i - 1)
            tuple_sets = [src.get(p.symbol) for src, p in zip(sources, premises)]
            if not all(tuple_sets):
                continue  # some premise has no tuples to match
            at = {a: k for k, a in enumerate(premise.args)}
            domains = [sorted({t[at[v]] for t in tuple_sets[i]}) if v in at else carrier
                       for v in variables]
            yield from self._search(tuple_sets, domains)

    def fire(self, values, edges: dict, merges: list, additions: set) -> None:
        head = self.read_head(values)
        if self.symbol is None:
            if head[0] != head[1]:
                merges.append(head)
        elif head not in edges.get(self.symbol, ()):
            additions.add((self.symbol, head))


def _rules(theory: Theory) -> tuple[_Rule, ...]:
    """The :class:`_Rule` of each of ``theory.all_axioms()``, in order, kept on the theory."""
    if theory._rules is None:
        object.__setattr__(theory, "_rules", tuple(map(_Rule, theory.all_axioms())))
    return theory._rules


def free_model(theory: Theory, x: Structure) -> FreeModelResult:
    """The least saturation of ``x`` under the theory, with the projection map.

    A semi-naive chase (see the module docstring) that keeps its edges as
    tuple sets per symbol and finds premise matches with :func:`_run`, the
    search behind :func:`_value_tuples`.  Each round fires every axiom on the
    matches that take some premise from the delta: for each such premise i,
    one plan checks the premises before i against the old edges, premise i
    against the delta and the premises after i against all edges, so a match
    is found once, at the first premise it takes from the delta.  The first
    round and every round after a merge take every edge as the delta and no
    edge as old; merges canonicalise every edge.  Premise-free axioms fire
    only while no edge is old, since their matches depend only on the carrier
    and a merge maps their conclusions onto the representatives.  Only the
    final model is built as a ``Structure``.
    """
    if x.signature != theory.signature:
        raise SignatureError("structure and theory use different signatures")
    uf = _UnionFind(x.sorted_carrier())
    carrier = x.sorted_carrier()
    edges = _add({}, x.edges)
    old, delta = {}, edges
    while True:
        merges: list[tuple[str, str]] = []
        additions: set[tuple[str, tuple[str, ...]]] = set()
        for rule in _rules(theory):
            for values in rule.matches(carrier, edges, old, delta):
                rule.fire(values, edges, merges, additions)
        merged = False
        for a, b in merges:
            merged |= uf.union(a, b)
        if merged:
            carrier = tuple(sorted({uf.find(a) for a in carrier}))
            pairs = itertools.chain(_pairs(edges), additions)
            edges = _add({}, ((symbol, tuple(map(uf.find, args))) for symbol, args in pairs))
            old, delta = {}, edges
        elif additions:
            old, edges = edges, _add({s: set(ts) for s, ts in edges.items()}, additions)
            delta = _add({}, additions)
        else:
            break

    model = Structure(theory.signature, carrier, _pairs(edges))
    unit = Morphism(x, model, {a: uf.find(a) for a in x.carrier})
    return FreeModelResult(model, unit)


def entails(theory: Theory, formula: HornFormula) -> bool:
    """Whether every model of the theory satisfies the formula.

    Decided exactly on the free model of the formula's premises: the carrier
    is the formula's variable set, the edges are its premises, and the
    conclusion is checked on the saturation under the generic valuation.
    """
    theory.signature.check_formula(formula, "formula")
    rule = _Rule(formula)
    result = free_model(theory, Structure(theory.signature, rule.variables, formula.premises))
    head = rule.read_head(tuple(map(result.unit_map, rule.variables)))
    return head[0] == head[1] if rule.symbol is None else result.model.holds(rule.symbol, head)


def is_reflexive(x: Structure) -> bool:
    """Whether every relation of the structure is reflexive."""
    return all(
        x.holds(s.name, (a,) * s.arity) for s in x.signature.symbols for a in x.carrier
    )


def is_reflexive_theory(theory: Theory) -> bool:
    """Whether the theory entails reflexivity of every symbol.

    Exact: every formula => R v...v presents the same edge-free point, so one
    free model of that point decides the formula for every symbol R.
    """
    v = fresh_variables(1)[0]
    result = free_model(theory, Structure(theory.signature, (v,), ()))
    point = result.unit_map(v)
    return all(
        result.model.holds(s.name, (point,) * s.arity) for s in theory.signature.symbols
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
