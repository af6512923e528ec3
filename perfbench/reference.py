"""Reference answers that share no code with hornmod.

Every verdict the benchmark checks is compared against something computed
here from first principles: published integer sequences, a naive
``itertools.product`` Horn checker, Warshall closure with strongly connected
components, the interpolation-lifting condition for convexity of monotone
maps, the distance-form condition on chain quantales, and theorem-level
answers from the paper.

Structures are plain values: a carrier (a sequence of names) and a set of
edges ``(symbol, args)``.  Axioms are ``(premises, conclusion)`` where the
conclusion is ``("edge", symbol, args)`` or ``("eq", left, right)``.
"""
from __future__ import annotations

import itertools

# Model counts of each exact carrier size, from the OEIS.
UNLABELED_COUNTS = {
    "preorder": (1, 1, 3, 9, 33),  # A001930
    "poset": (1, 1, 2, 5, 16),  # A000112
    "reflexive": (1, 1, 3, 16),  # A000273
    "reflexive_symmetric": (1, 1, 2, 4, 11),  # A000088
}
LABELED_COUNTS = {
    "preorder": (1, 1, 4, 29, 355),  # A000798
    "poset": (1, 1, 3, 19, 219),  # A001035
    "reflexive": tuple(2 ** (n * n - n) for n in range(5)),
    "reflexive_symmetric": tuple(2 ** (n * (n - 1) // 2) for n in range(5)),
}


def edge_axiom(premises, symbol, args):
    return (tuple(premises), ("edge", symbol, tuple(args)))


def reflexivity(symbol, arity):
    return edge_axiom((), symbol, ("v",) * arity)


def transitivity(symbol):
    return edge_axiom(((symbol, ("x", "y")), (symbol, ("y", "z"))), symbol, ("x", "z"))


def symmetry(symbol):
    return edge_axiom(((symbol, ("x", "y")),), symbol, ("y", "x"))


def antisymmetry(symbol):
    return (((symbol, ("x", "y")), (symbol, ("y", "x"))), ("eq", "x", "y"))


# The builtin discrete theories, written out from their definitions.
BUILTIN_AXIOMS = {
    "preorder": (reflexivity("le", 2), transitivity("le")),
    "poset": (reflexivity("le", 2), transitivity("le"), antisymmetry("le")),
    "reflexive": (reflexivity("R", 2),),
    "reflexive_symmetric": (reflexivity("R", 2), symmetry("R")),
}


def axiom_variables(axiom):
    premises, conclusion = axiom
    names = {a for _, args in premises for a in args}
    names.update(conclusion[2] if conclusion[0] == "edge" else conclusion[1:])
    return tuple(sorted(names))


def satisfies(carrier, edges, axiom) -> bool:
    """Naive check of one axiom: try every valuation of its variables."""
    premises, conclusion = axiom
    variables = axiom_variables(axiom)
    for values in itertools.product(carrier, repeat=len(variables)):
        val = dict(zip(variables, values))
        if not all((s, tuple(val[a] for a in args)) in edges for s, args in premises):
            continue
        if conclusion[0] == "eq":
            if val[conclusion[1]] != val[conclusion[2]]:
                return False
        elif (conclusion[1], tuple(val[a] for a in conclusion[2])) not in edges:
            return False
    return True


def is_model(carrier, edges, axioms) -> bool:
    return all(satisfies(carrier, edges, ax) for ax in axioms)


def all_edge_sets(symbols, carrier):
    """Every edge set over the carrier for ``symbols`` = ((name, arity), ...)."""
    slots = [(s, args) for s, n in symbols for args in itertools.product(carrier, repeat=n)]
    for mask in range(2 ** len(slots)):
        yield frozenset(e for i, e in enumerate(slots) if mask >> i & 1)


def canonical_form(carrier, edges):
    """The least relabelled edge list over all permutations (tiny carriers only)."""
    carrier = sorted(carrier)
    best = None
    for perm in itertools.permutations(range(len(carrier))):
        rename = dict(zip(carrier, perm))
        key = tuple(sorted((s, tuple(rename[a] for a in args)) for s, args in edges))
        if best is None or key < best:
            best = key
    return (len(carrier), best)


# --- closures -------------------------------------------------------------

def reflexive_transitive_closure(carrier, pairs):
    """Warshall's algorithm on a binary relation, with the diagonal added."""
    reach = {a: {a} for a in carrier}
    for a, b in pairs:
        reach[a].add(b)
    for k in carrier:
        row_k = reach[k]
        for a in carrier:
            if k in reach[a]:
                reach[a] |= row_k
    return {(a, b) for a in carrier for b in reach[a]}


def free_preorder(carrier, pairs):
    """Free preorder on a relation: its reflexive-transitive closure."""
    return list(carrier), reflexive_transitive_closure(carrier, pairs), {a: a for a in carrier}


def free_poset(carrier, pairs):
    """Free poset: the closure with each strongly connected component collapsed.

    A component is named by its least element in string order.
    """
    closed = reflexive_transitive_closure(carrier, pairs)
    rep = {a: min(b for b in carrier if (a, b) in closed and (b, a) in closed) for a in carrier}
    return sorted(set(rep.values())), {(rep[a], rep[b]) for a, b in closed}, rep


# --- morphisms ------------------------------------------------------------

def homs(x_carrier, x_pairs, y_carrier, y_pairs):
    """All edge-preserving maps between binary relations, by brute force."""
    src = sorted(x_carrier)
    out = []
    for images in itertools.product(sorted(y_carrier), repeat=len(src)):
        m = dict(zip(src, images))
        if all((m[a], m[b]) in y_pairs for a, b in x_pairs):
            out.append(m)
    return out


def interpolation_convex(x_carrier, x_le, z_carrier, z_le, f) -> bool:
    """Convexity of a monotone map of preorders by interpolation lifting.

    For x1 <= x3 and f(x1) <= z2 <= f(x3) some x2 with f(x2) = z2 must sit
    between x1 and x3.
    """
    for x1, x3 in x_le:
        for z2 in z_carrier:
            if (f[x1], z2) in z_le and (z2, f[x3]) in z_le:
                if not any(
                    f[x2] == z2 and (x1, x2) in x_le and (x2, x3) in x_le for x2 in x_carrier
                ):
                    return False
    return True


# --- chain quantales ------------------------------------------------------

def chain_distance_condition(src_d, tgt_d, mapping, src_carrier, tgt_carrier, levels) -> bool:
    """Distance-form exponentiability on a chain quantale with tensor = meet.

    Values are integers 0..levels-1; meet is ``min`` and join is ``max``.
    For x1, x3 upstairs, z2 downstairs, u <= d(f x1, z2), u' <= d(z2, f x3):
    d(x1,x3) /\\ u /\\ u' <= max over x2 in f^-1(z2) of d(x1,x2) /\\ u /\\ d(x2,x3) /\\ u'.
    """
    for x1 in src_carrier:
        for x3 in src_carrier:
            for z2 in tgt_carrier:
                fibre = [a for a in src_carrier if mapping[a] == z2]
                for u in range(levels):
                    if u > tgt_d[mapping[x1], z2]:
                        continue
                    for u2 in range(levels):
                        if u2 > tgt_d[z2, mapping[x3]]:
                            continue
                        lhs = min(src_d[x1, x3], u, u2)
                        rhs = max(
                            (min(src_d[x1, x2], u, src_d[x2, x3], u2) for x2 in fibre),
                            default=0,
                        )
                        if lhs > rhs:
                            return False
    return True


def chain_tensor(name: str, levels: int):
    """Tensor of the builtin chain quantales on 0..levels-1 (top is the unit)."""
    if name == "lukasiewicz":
        return lambda a, b: max(0, a + b - (levels - 1))
    return min


def distance_tables(levels: int, carrier, tensor, laws=("reflexive", "transitive")):
    """Every distance table on the carrier obeying ``laws``.

    The laws are reflexive (d(a,a) is the top, the unit), transitive
    (d(a,b) (x) d(b,c) <= d(a,c)), symmetric, and separated (distinct points
    are never at the top distance).
    """
    top = levels - 1
    slots = [(a, b) for a in carrier for b in carrier]
    for values in itertools.product(range(levels), repeat=len(slots)):
        d = dict(zip(slots, values))
        if "reflexive" in laws and any(d[a, a] != top for a in carrier):
            continue
        if "separated" in laws and any(d[a, b] == top for a, b in slots if a != b):
            continue
        if "symmetric" in laws and any(d[a, b] != d[b, a] for a, b in slots):
            continue
        if "transitive" in laws and any(
            tensor(d[a, b], d[b, c]) > d[a, c] for a in carrier for b in carrier for c in carrier
        ):
            continue
        yield d


def table_edges(d, carrier):
    """The structure of a distance table: an edge ~v(a, b) for every v <= d(a, b)."""
    return frozenset(
        (f"~{v}", (a, b)) for a in carrier for b in carrier for v in range(d[a, b] + 1)
    )


# --- theorem-level answers ------------------------------------------------

# classify_theory: (classification, cartesian closed, locally cc, quasitopos).
# Transitivity is safe but not very safe; symmetry is very safe; theories
# with no eligible axiom are vacuously very safe.
DISCRETE_CLASSIFICATION = {
    "preorder": ("all_safe", True, False, False),
    "poset": ("all_safe", True, False, False),
    "reflexive": ("all_very_safe", True, True, True),
    "reflexive_symmetric": ("all_very_safe", True, True, True),
}

# Generalized transitivity is safe exactly when the tensor commutes with
# meets by a fixed element: true for meet tensors, false for truncated
# addition.  Symmetry is very safe over every quantale.
GENERALIZED_TRANSITIVITY_SAFE = {"boolean": True, "meet3": True, "lukasiewicz": False}
