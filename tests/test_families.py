"""Generated model families against the filter over all structures.

``all_models`` generates models as closed edge sets; the reference here is
the plain filter ``is_model`` over ``all_structures``, which must give the
same list in the same order.
"""
import pytest
from hypothesis import given, settings

import hornmod as hm
from hornmod.families import all_models, all_structures, dedup_by_iso

from conftest import horn_theories

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
