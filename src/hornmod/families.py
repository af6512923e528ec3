"""Deterministic families of small structures used as test objects.

Structures are edge subsets of canonical carriers (e0, e1, ...), numbered by
bitmask over the edge slots (bit 0 is the first slot).  The family is named
by a theory alone: all structures are the models of the empty theory.  Models
are generated, not filtered: on a fixed carrier the models of the edge axioms
are the closed sets of a closure system, listed by Ganter's NextClosure in
increasing mask order (every mask, for no axioms), and the equality axioms
then drop some of them.  A carrier with more masks than a cap is sampled with
a fixed seed and filtered to its models.  A family can be reduced to one model
per isomorphism class: a generated carrier keeps the least mask of each orbit
under relabelling its points, by table lookups and no labelling; a sampled one
keeps the first model per canonical labelling, which ``limits.find_isomorphism``
shares.  All output orders are canonical, so the same inputs always give the
same family.
"""
from __future__ import annotations

import itertools
import random
from typing import Iterator, Optional

from .core import (
    DEFAULT_CAP, Edge, HornmodError, Signature, SignatureError, Structure, StructureError, Theory,
)
from .semantics import ground_axioms, is_model


def canonical_carrier(size: int) -> tuple[str, ...]:
    return tuple(f"e{i}" for i in range(size))


def edge_slots(sig: Signature, carrier: tuple[str, ...]) -> list[Edge]:
    """All possible edges over a carrier, in canonical order."""
    out = []
    for s in sig.symbols:
        for args in itertools.product(carrier, repeat=s.arity):
            out.append(Edge(s.name, args))
    return out


def structures_on_carrier(
    sig: Signature, size: int, cap: Optional[int] = DEFAULT_CAP, seed: int = 0
) -> Iterator[Structure]:
    """All structures on the canonical carrier of a size, sampled beyond the cap.

    A ``size`` that is not an int of at least 0, or a ``cap`` that is not
    ``None`` or an int of at least 1, raises ``HornmodError`` when iterated.
    """
    _check_bounds(size, cap)
    carrier = canonical_carrier(size)
    slots = edge_slots(sig, carrier)
    total = 2 ** len(slots)
    if cap is None or total <= cap:
        chosen: Iterator[int] = iter(range(total))
    else:
        if len(slots) > 62:
            raise StructureError("edge-slot space too large to sample by index")
        rng = random.Random(seed)
        chosen = iter(sorted(rng.sample(range(total), cap)))
    for mask in chosen:
        yield _structure_of_mask(sig, carrier, slots, mask)


def _structure_of_mask(
    sig: Signature, carrier: tuple[str, ...], slots: list[Edge], mask: int
) -> Structure:
    return Structure(sig, carrier, [e for i, e in enumerate(slots) if mask >> i & 1])


def all_structures(
    sig: Signature, max_size: int, cap: Optional[int] = DEFAULT_CAP, seed: int = 0
) -> list[Structure]:
    """All structures with carrier size up to ``max_size`` (sampled per size beyond cap):
    the models of the empty theory, in mask order."""
    return all_models(Theory(sig, base_flag=False), max_size, iso=False, cap=cap, seed=seed)


def _check_bounds(max_size: int, cap: Optional[int]) -> None:
    if isinstance(max_size, bool) or not isinstance(max_size, int):
        raise HornmodError(f"family size bound must be an int, got {max_size!r}")
    if max_size < 0:
        raise HornmodError(f"family size bound must be at least 0, got {max_size}")
    if cap is not None:
        _check_cap(cap)


def _check_cap(cap: object) -> None:
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise HornmodError(f"family cap must be an int of at least 1, got {cap!r}")


def _canonical_labelling(x: Structure) -> tuple[tuple, tuple[str, ...]]:
    """The least relabelled edge tuple of a structure and the carrier order giving it.

    A point's profile lists the ``(symbol, argument position)`` of each of its
    edge occurrences, sorted.  Only the orders that list points by profile and
    permute points of equal profile are tried.  Isomorphisms keep profiles, so
    same-size structures have equal keys iff they are isomorphic.
    """
    profile: dict[str, list[tuple[str, int]]] = {a: [] for a in x.carrier}
    for s, args in x.edges:
        for i, b in enumerate(args):
            profile[b].append((s, i))
    for occurrences in profile.values():
        occurrences.sort()
    ranked = sorted(x.carrier, key=lambda a: (profile[a], a))
    groups = [tuple(g) for _, g in itertools.groupby(ranked, key=profile.__getitem__)]

    def relabelled(parts: tuple[tuple[str, ...], ...]) -> tuple[tuple, tuple[str, ...]]:
        label = {a: i for i, a in enumerate(itertools.chain.from_iterable(parts))}
        key = tuple(sorted((s, tuple(map(label.__getitem__, args))) for s, args in x.edges))
        return key, tuple(label)  # a dict keeps insertion order

    orders = itertools.product(*map(itertools.permutations, groups))
    return min(map(relabelled, orders), key=lambda labelled: labelled[0])


def iso_key(x: Structure) -> tuple:
    """A canonical form invariant under carrier relabelling."""
    return (len(x.carrier), _canonical_labelling(x)[0])


def dedup_by_iso(structures: list[Structure]) -> list[Structure]:
    """Keep the first representative of each isomorphism class, preserving order.

    In the library only ``all_models`` calls it, on a sampled carrier size;
    generated sizes are reduced by mask orbits, with this as their reference.
    """
    seen = set()
    out = []
    for s in structures:
        key = iso_key(s)
        if key not in seen:
            seen.add(key)
            out.append(s)
    return out


def all_models(
    theory: Theory,
    max_size: int,
    iso: bool = True,
    cap: Optional[int] = DEFAULT_CAP,
    seed: int = 0,
) -> list[Structure]:
    """All models of the theory up to a carrier size, optionally one per iso class.

    Per carrier size the models are generated as closed edge sets, in the
    mask order of :func:`structures_on_carrier`.  A size whose 2^slots
    structures exceed ``cap`` is sampled by that function and filtered to
    its models.  Each size is grounded once, from the compiled axioms the
    theory keeps.  One per iso class keeps the least mask of each orbit under
    relabelling the carrier (a sampled size keeps :func:`dedup_by_iso`'s
    choice).  Bounds are checked as in :func:`structures_on_carrier`.
    """
    _check_bounds(max_size, cap)
    sig = theory.signature
    models: list[Structure] = []
    for size in range(max_size + 1):
        carrier = canonical_carrier(size)
        slots = edge_slots(sig, carrier)
        if cap is not None and 2 ** len(slots) > cap:
            sampled = [s for s in structures_on_carrier(sig, size, cap, seed)
                       if is_model(s, theory)]
            models.extend(dedup_by_iso(sampled) if iso else sampled)
            continue
        clauses = ground_axioms(theory, carrier, slots)
        masks = (mask for mask in _closed_masks(clauses.rules, len(slots))
                 if not any(mask & f == f for f in clauses.forbidden))
        models.extend(_structure_of_mask(sig, carrier, slots, mask)
                      for mask in (_least_of_orbits(masks, carrier, slots) if iso else masks))
    return models


def _least_of_orbits(masks: Iterator[int], carrier: tuple[str, ...], slots: list[Edge]
                     ) -> Iterator[int]:
    """The first mask of each orbit under relabelling the carrier, from increasing masks.

    Entry ``i`` of each non-identity relabelling's table is the bit of slot
    ``i``'s relabelled edge; tables permute bits, so a mask's image is the sum
    of its bits' entries.  A kept mask marks its images as seen.
    """
    bit = {e: 1 << i for i, e in enumerate(slots)}
    renames = (dict(zip(carrier, perm)) for perm in itertools.permutations(carrier))
    next(renames)  # the identity
    tables = [[bit[Edge(s, tuple(map(rename.__getitem__, args)))] for s, args in slots]
              for rename in renames]
    seen: set[int] = set()
    for mask in masks:
        if mask not in seen:
            yield mask
            bits = [i for i in range(len(slots)) if mask >> i & 1]
            seen.update(sum(map(table.__getitem__, bits)) for table in tables)


def _closed_masks(rules: tuple[tuple[int, int], ...], width: int) -> Iterator[int]:
    """Every mask closed under the rules, in increasing order (Ganter's NextClosure).

    A mask is closed when it holds the conclusion bit of every rule whose
    premise mask it holds.  The successor of a closed mask ``a`` is the
    closure of ``a``'s bits above ``i`` plus bit ``i``, for the lowest bit
    ``i`` not in ``a`` whose closure adds no bit above ``i``.
    """

    def close(mask: int) -> int:
        grown = True
        while grown:
            grown = False
            for premise, head in rules:
                if mask & premise == premise and not mask & head:
                    mask |= head
                    grown = True
        return mask

    full = (1 << width) - 1
    mask = close(0)
    while True:
        yield mask
        if mask == full:
            return
        for i in range(width):
            bit = 1 << i
            if mask & bit:
                continue
            upper = full & ~(2 * bit - 1)
            candidate = close(mask & upper | bit)
            if candidate & upper == mask & upper:
                mask = candidate
                break


def sample_family(structures: list[Structure], cap: int, seed: int) -> list[Structure]:
    """A deterministic subfamily: everything when under the cap, else a seeded sample.

    A ``cap`` that is not an int of at least 1 raises ``HornmodError``.
    """
    _check_cap(cap)
    if len(structures) <= cap:
        return list(structures)
    rng = random.Random(seed)
    indices = sorted(rng.sample(range(len(structures)), cap))
    return [structures[i] for i in indices]


def default_test_family(
    sig: Signature,
    max_size: int = 2,
    cap: int = DEFAULT_CAP,
    seed: int = 0,
    theory: Optional[Theory] = None,
) -> list[Structure]:
    """The default family for the universal-property verifiers.

    One representative per isomorphism class of the theory's models up to
    the size bound, sampled past the cap; with no theory, of all structures,
    the models of the empty theory over ``sig``.  A theory over another
    signature than ``sig`` raises ``SignatureError``.
    """
    if theory is None:
        theory = Theory(sig, base_flag=False)
    elif theory.signature != sig:
        raise SignatureError("test family and theory use different signatures")
    return sample_family(all_models(theory, max_size, iso=True, cap=None), cap, seed)
