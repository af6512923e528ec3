"""Generated model families and isomorphism reduction against their references.

``all_models`` generates models as closed edge sets; the reference here is
the plain filter ``is_model`` over ``all_structures``, which must give the
same list in the same order.  ``iso_key``, ``find_isomorphism`` and the
test-side ``dedup_morphisms`` share one canonical labelling; the references
are the permutation scans it replaced.
"""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hornmod as hm
from hornmod.core import Edge, Structure
from hornmod.families import all_models, all_structures, dedup_by_iso, edge_slots, iso_key

from conftest import (
    HORN_SIGNATURE,
    dedup_morphisms,
    horn_theories,
    morphism_iso_key,
    reference_find_isomorphism,
    reference_iso_key,
)

DISCRETE_THEORIES = {
    "preorder": hm.preorder_theory,
    "poset": hm.poset_theory,
    "reflexive": hm.reflexive_theory,
    "reflexive_symmetric": hm.reflexive_symmetric_theory,
}
QUANTALES = {
    "boolean": hm.boolean_quantale,
    "meet3": lambda: hm.chain_meet_quantale(3),
    "lukasiewicz": hm.lukasiewicz_quantale,
}
LADDER = ("vgph", "vrgph", "vcat", "pmet", "met")


def filtered_models(theory, max_size, cap=None, seed=0):
    return [s for s in all_structures(theory.signature, max_size, cap=cap, seed=seed)
            if hm.is_model(s, theory)]


def assert_generated_equals_filtered(theory, max_size):
    want = filtered_models(theory, max_size)
    assert all_models(theory, max_size, iso=False, cap=None) == want
    assert all_models(theory, max_size, iso=True, cap=None) == dedup_by_iso(want)


@pytest.mark.parametrize("name", sorted(DISCRETE_THEORIES))
def test_discrete_theories_up_to_three_points(name):
    assert_generated_equals_filtered(DISCRETE_THEORIES[name](), 3)


@pytest.mark.parametrize("quantale", sorted(QUANTALES))
@pytest.mark.parametrize("kind", LADDER)
def test_quantale_ladder_up_to_two_points(kind, quantale):
    theory = getattr(hm, f"theory_{kind}")(QUANTALES[quantale]())
    assert_generated_equals_filtered(theory, 2)


@pytest.mark.parametrize("cap", [1, 16, 64])
def test_sampled_sizes_filter_the_sample(cap):
    # Sizes with more than ``cap`` structures are a seeded sample of
    # structures, filtered to models, exactly as before generation.
    preord = hm.preorder_theory()
    for seed in (0, 5):
        got = all_models(preord, 3, iso=False, cap=cap, seed=seed)
        assert got == filtered_models(preord, 3, cap=cap, seed=seed)
        assert all_models(preord, 3, iso=True, cap=cap, seed=seed) == dedup_by_iso(got)


@settings(max_examples=60, deadline=None)
@given(horn_theories())
def test_random_horn_theories_up_to_two_points(theory):
    assert_generated_equals_filtered(theory, 2)


def test_ground_axioms_of_preorders_on_two_points():
    carrier = ("e0", "e1")
    slots = [hm.edge("le", a, b) for a in carrier for b in carrier]
    ground = hm.ground_axioms(hm.preorder_theory(), carrier, slots)
    # le e0 e0, le e0 e1, le e1 e0, le e1 e1 are bits 1, 2, 4, 8.
    assert ground.rules == ((0, 1), (0, 8), (2 | 4, 1), (2 | 4, 8))
    assert ground.forbidden == ()
    ground = hm.ground_axioms(hm.poset_theory(), carrier, slots)
    assert ground.forbidden == (2 | 4,)


# The canonical labelling behind iso_key and find_isomorphism, against the
# permutation scans it replaced.
POINT_NAMES = ("p", "q", "r", "s", "t", "u")


def relabel(x, rename):
    return Structure(x.signature, [rename[a] for a in x.carrier],
                     [Edge(e.symbol, tuple(rename[a] for a in e.args)) for e in x.edges])


@st.composite
def structure_pairs(draw):
    """A structure on 0-4 points and a random relabelling of it with up to two edges flipped."""
    carrier = draw(st.lists(st.sampled_from(POINT_NAMES), unique=True, max_size=4))
    slots = edge_slots(HORN_SIGNATURE, tuple(carrier))
    edges = draw(st.frozensets(st.sampled_from(slots))) if slots else frozenset()
    flips = draw(st.frozensets(st.sampled_from(slots), max_size=2)) if slots else frozenset()
    rename = dict(zip(carrier, draw(st.permutations(POINT_NAMES))))
    x = Structure(HORN_SIGNATURE, carrier, edges)
    return x, relabel(Structure(HORN_SIGNATURE, carrier, edges ^ flips), rename)


@settings(max_examples=300, deadline=None)
@given(structure_pairs())
def test_canonical_labelling_against_permutation_scans(pair):
    x, y = pair
    carrier = x.sorted_carrier()
    for perm in itertools.permutations(carrier):
        assert iso_key(relabel(x, dict(zip(carrier, perm)))) == iso_key(x)
    assert (iso_key(x) == iso_key(y)) == (reference_iso_key(x) == reference_iso_key(y))
    h = hm.find_isomorphism(x, y)
    assert (h is None) == (reference_find_isomorphism(x, y) is None)
    if h is not None:
        assert set(h.mapping.values()) == y.carrier
        assert hm.validate_morphism(h)
        assert hm.validate_morphism(hm.Morphism(y, x, {b: a for a, b in h.mapping.items()}))


def dedup_by(key, items):
    seen, out = set(), []
    for item in items:
        k = key(item)
        if k not in seen:
            seen.add(k)
            out.append(item)
    return out


@pytest.mark.parametrize("name", sorted(DISCRETE_THEORIES))
def test_dedup_by_iso_equals_reference_dedup(name):
    models = all_models(DISCRETE_THEORIES[name](), 3, iso=False, cap=None)
    assert dedup_by_iso(models) == dedup_by(reference_iso_key, models)


def test_dedup_morphisms_equals_reference_dedup():
    posets = all_models(hm.poset_theory(), 2, iso=False, cap=None)
    maps = [f for x in posets for z in posets for f in hm.enumerate_morphisms(x, z)]
    assert dedup_morphisms(maps) == dedup_by(morphism_iso_key, maps)
