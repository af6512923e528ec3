import itertools

import pytest

import hornmod as hm
from hornmod.families import all_models, all_structures


@pytest.fixture(scope="session")
def preord():
    return hm.preorder_theory()


@pytest.fixture(scope="session")
def pos():
    return hm.poset_theory()


@pytest.fixture(scope="session")
def chain2():
    return hm.chain(2)


@pytest.fixture(scope="session")
def chain3():
    return hm.chain(3)


def interp_fail_morphism():
    """Monotone {a<=c} -> 3-chain hitting the endpoints; the middle fibre is empty."""
    T = hm.preorder_theory()
    x = hm.Structure(
        T.signature,
        ["a", "c"],
        [hm.edge("le", "a", "a"), hm.edge("le", "c", "c"), hm.edge("le", "a", "c")],
    )
    return hm.Morphism(x, hm.chain(3), {"a": "c0", "c": "c2"})


def morphism_iso_key(f):
    """Canonical form of a morphism under independent relabelling of both ends."""
    xs, zs = f.source.sorted_carrier(), f.target.sorted_carrier()
    best = None
    for px in itertools.permutations(range(len(xs))):
        rx = {xs[i]: f"a{px[i]}" for i in range(len(xs))}
        xe = tuple(
            sorted(hm.Edge(e.symbol, tuple(rx[a] for a in e.args)) for e in f.source.edges)
        )
        for pz in itertools.permutations(range(len(zs))):
            rz = {zs[i]: f"b{pz[i]}" for i in range(len(zs))}
            ze = tuple(
                sorted(hm.Edge(e.symbol, tuple(rz[a] for a in e.args)) for e in f.target.edges)
            )
            mp = tuple(sorted((rx[k], rz[v]) for k, v in f.mapping.items()))
            key = (len(xs), len(zs), xe, ze, mp)
            if best is None or key < best:
                best = key
    return best


def dedup_morphisms(morphisms):
    seen, out = set(), []
    for f in morphisms:
        key = morphism_iso_key(f)
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out


def preorder_to_boolean_vcat(struct):
    """The structure over the Boolean-quantale signature matching a preorder."""
    sig = hm.signature_of(hm.boolean_quantale())
    edges = []
    for a in struct.carrier:
        for b in struct.carrier:
            edges.append(hm.edge("~0", a, b))
            if struct.holds("le", (a, b)):
                edges.append(hm.edge("~1", a, b))
    return hm.Structure(sig, struct.carrier, edges)


def boolean_vcat_to_preorder(struct):
    sig = hm.preorder_theory().signature
    edges = [hm.edge("le", *args) for args in struct.tuples("~1")]
    return hm.Structure(sig, struct.carrier, edges)


def boolean_bridge_models_agree():
    """Boolean-quantale V-categories translate onto the preorders, per size up to 3.

    The V-category side is generated; the preorder side filters all
    structures with ``is_model``, so it stays an independent oracle.
    """
    vcat = hm.theory_vcat(hm.boolean_quantale())
    preord = hm.preorder_theory()
    vcats = all_models(vcat, 3, iso=False, cap=None)
    ok = True
    for n in (0, 1, 2, 3):
        vb = [s for s in vcats if len(s.carrier) == n]
        pr = [
            s
            for s in all_structures(preord.signature, n, cap=None)
            if len(s.carrier) == n and hm.is_model(s, preord)
        ]
        translated = {boolean_vcat_to_preorder(s) for s in vb}
        ok &= len(vb) == len(pr) == len(translated) and translated == set(pr)
    return ok
