"""Generated model families and isomorphism reduction against their references.

``all_models`` generates models as closed edge sets; the reference here is
the plain filter ``is_model`` over ``all_structures``, which must give the
same list in the same order; its one model per class, the least mask of each
orbit under relabelling, must equal the reference labelling's first
representatives.  ``iso_key``, ``find_isomorphism`` and the
test-side ``dedup_morphisms`` share one canonical labelling; the references
are the permutation scans it replaced.  ``ground_axioms`` and the labelling's
profiles are checked against the code they replaced, kept in ``conftest``.
"""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hornmod as hm
from hornmod import families
from hornmod.core import DEFAULT_CAP, Edge, HornmodError, Structure, StructureError
from hornmod.families import (
    _canonical_labelling,
    all_models,
    all_structures,
    canonical_carrier,
    dedup_by_iso,
    default_test_family,
    edge_slots,
    iso_key,
    sample_family,
)

from conftest import (
    HORN_SIGNATURE,
    dedup_morphisms,
    horn_theories,
    morphism_iso_key,
    reference_canonical_labelling,
    reference_find_isomorphism,
    reference_ground_axioms,
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


def filtered_models(theory, max_size):
    return [s for s in all_structures(theory.signature, max_size, cap=None)
            if hm.is_model(s, theory)]


def assert_generated_equals_filtered(theory, max_size):
    assert_grounding_equals_reference(theory, max_size)
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


def assert_grounding_equals_reference(theory, max_size):
    # Canonical slots, and the same slots reversed, so that slot bits do not
    # follow the order in which valuations meet the edges.
    for size in range(max_size + 1):
        carrier = canonical_carrier(size)
        slots = edge_slots(theory.signature, carrier)
        for order in (slots, slots[::-1]):
            assert hm.ground_axioms(theory, carrier, order) == reference_ground_axioms(
                theory, carrier, order)


@settings(max_examples=100, deadline=None)
@given(horn_theories())
def test_grounding_of_random_horn_theories_equals_reference(theory):
    assert_grounding_equals_reference(theory, 3)


def test_ground_axioms_refuses_slots_that_miss_or_repeat_an_edge():
    carrier = canonical_carrier(2)
    slots = edge_slots(hm.preorder_theory().signature, carrier)
    with pytest.raises(StructureError) as missed:
        hm.ground_axioms(hm.preorder_theory(), carrier, slots[:-1])
    assert str(missed.value) == "edge slots miss Edge(symbol='le', args=('e1', 'e1'))"
    with pytest.raises(StructureError) as repeated:
        hm.ground_axioms(hm.preorder_theory(), carrier, slots + [slots[1]])
    assert str(repeated.value) == "edge slots list Edge(symbol='le', args=('e0', 'e1')) twice"


def test_negative_size_bounds_are_refused():
    preord = hm.preorder_theory()
    message = "family size bound must be at least 0, got -1"
    for call in (lambda: all_models(preord, -1),
                 lambda: all_structures(preord.signature, -1),
                 lambda: default_test_family(preord.signature, -1),
                 lambda: default_test_family(preord.signature, -1, theory=preord)):
        with pytest.raises(HornmodError) as refused:
            call()
        assert str(refused.value) == message


@pytest.mark.parametrize("max_size, cap, message", [
    (2, 0, "family cap must be an int of at least 1, got 0"),
    (2, -1, "family cap must be an int of at least 1, got -1"),
    (2, 2.5, "family cap must be an int of at least 1, got 2.5"),
    (2, True, "family cap must be an int of at least 1, got True"),
    (2.0, DEFAULT_CAP, "family size bound must be an int, got 2.0"),
    (True, DEFAULT_CAP, "family size bound must be an int, got True"),
    ("2", DEFAULT_CAP, "family size bound must be an int, got '2'"),
    (2, "3", "family cap must be an int of at least 1, got '3'"),
    (2, None, "family cap must be an int of at least 1, got None"),
], ids=["cap-0", "cap-negative", "cap-float", "cap-bool", "size-float", "size-bool", "size-str",
        "cap-str", "cap-none"])
def test_bad_size_bounds_and_caps_are_refused(max_size, cap, message):
    # Before, cap=0 dropped even the empty structure, cap=-1 and the floats
    # raised ValueError or TypeError, and max_size=True was read as 1; a
    # sampled test family raised a bare TypeError and read cap=True as 1.
    preord = hm.preorder_theory()
    calls = [lambda: default_test_family(preord.signature, max_size, cap=cap)]
    if message.startswith("family cap"):
        calls.append(lambda: sample_family([], cap, 0))
    if cap is not None:  # None lifts a generator's budget; a sample needs a cap
        calls += [lambda: all_models(preord, max_size, cap=cap),
                  lambda: all_structures(preord.signature, max_size, cap=cap)]
    for call in calls:
        with pytest.raises(HornmodError) as refused:
            call()
        assert str(refused.value) == message


@pytest.mark.parametrize("family", [
    lambda theory, size, **cap: all_models(theory, size, iso=True, **cap),
    lambda theory, size, **cap: all_models(theory, size, iso=False, **cap),
    lambda theory, size, **cap: all_structures(theory.signature, size, **cap),
], ids=["models-iso", "models-labelled", "structures"])
def test_families_over_their_cap_are_refused_before_anything_is_built(family, monkeypatch):
    # A family is exact or refused: the cap bounds the 2 ** slots edge sets of
    # the largest carrier, and is checked before any carrier is generated.
    preord, horn = hm.preorder_theory(), hm.Theory(HORN_SIGNATURE, base_flag=False)
    assert family(horn, 2, cap=64) == family(horn, 2, cap=None)  # 2 + 4 slots at 2 points

    def generated(*args):
        raise AssertionError("a family over its cap was generated")

    monkeypatch.setattr(families, "canonical_carrier", generated)
    monkeypatch.setattr(Structure, "__init__", generated)
    huge = 10 ** 6  # neither its 10 ** 12 slots nor 2 ** slots are built
    for theory, size, cap, slots in [(horn, 2, {"cap": 63}, 6), (preord, 4, {}, 16),
                                     (horn, huge, {"cap": 2 ** 64}, huge + huge ** 2)]:
        with pytest.raises(HornmodError) as refused:
            family(theory, size, **cap)
        assert str(refused.value) == (
            f"carrier size {size} has 2^{slots} edge sets, over the family cap "
            f"{cap.get('cap', DEFAULT_CAP)}; pass cap=None for all of them")


def test_a_test_family_over_its_slot_budget_is_refused_before_anything_is_built(monkeypatch):
    # Before, 6-point preorders were all generated, 15 s, before the sample.
    preord = hm.preorder_theory()
    assert families.TEST_FAMILY_SLOTS == 16
    assert len(default_test_family(preord.signature, 4, theory=preord)) == 47  # 16 slots

    def generated(*args):
        raise AssertionError("a test family over its budget was generated")

    monkeypatch.setattr(families, "canonical_carrier", generated)
    monkeypatch.setattr(Structure, "__init__", generated)
    for sig, size, theory, slots in [(preord.signature, 6, preord, 36),
                                     (preord.signature, 5, None, 25),
                                     (HORN_SIGNATURE, 4, None, 4 + 16)]:
        with pytest.raises(HornmodError) as refused:
            default_test_family(sig, size, theory=theory)
        assert str(refused.value) == (
            f"test family carrier size {size} has {slots} edge slots, over the budget of 16")


def test_a_family_over_its_cap_is_sampled_in_family_order():
    family = all_models(hm.preorder_theory(), 3)  # 14 classes on at most 3 points
    assert sample_family(family, len(family), 0) == family
    for cap in (1, 4, len(family) - 1):
        for seed in (0, 1, 7):
            sample = sample_family(family, cap, seed)
            at = [next(i for i, s in enumerate(family) if s is member) for member in sample]
            assert len(sample) == cap and at == sorted(set(at))  # cap members, in order
            assert sample_family(family, cap, seed) == sample
    assert default_test_family(hm.preorder_theory().signature, 3, cap=4, seed=1,
                               theory=hm.preorder_theory()) == sample_family(family, 4, 1)


def test_iso_keys_tell_signatures_apart():
    # Same carrier and edges, other signatures: not isomorphic, so not one class.
    a = hm.chain(2)
    b = Structure(hm.Signature(a.signature.symbols + (hm.RelationSymbol("P", 1),)),
                  a.carrier, a.edges)
    assert not hm.are_isomorphic(a, b)
    assert iso_key(a) != iso_key(b)
    assert dedup_by_iso([a, b]) == [a, b]


def test_a_test_family_over_another_signature_than_its_theory_is_refused():
    preord = hm.preorder_theory()
    unary = hm.Signature((hm.RelationSymbol("P", 1),))
    with pytest.raises(hm.SignatureError) as refused:
        default_test_family(unary, 1, theory=preord)
    assert str(refused.value) == "test family and theory use different signatures"
    same = hm.Signature(preord.signature.symbols)
    assert same is not preord.signature
    assert default_test_family(same, 1, theory=preord) == all_models(preord, 1)


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
    for z in pair:  # one-pass profiles give the same key and order as the per-point scan
        assert _canonical_labelling(z) == reference_canonical_labelling(z)
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


# One model per class on generated sizes: the least mask of each orbit under
# relabelling, against the reference labelling over the labelled models.

@settings(max_examples=80, deadline=None)
@given(horn_theories())
def test_orbit_representatives_equal_reference_dedup_up_to_three_points(theory):
    models = all_models(theory, 3, iso=False, cap=None)
    assert all_models(theory, 3, iso=True, cap=None) == dedup_by(reference_iso_key, models)


@pytest.mark.parametrize("name, classes", [
    ("preorder", 33),  # OEIS A001930
    ("poset", 16),  # A000112
    ("reflexive_symmetric", 11),  # A000088
])
def test_class_counts_at_exactly_four_points(name, classes):
    family = all_models(DISCRETE_THEORIES[name](), 4, iso=True, cap=None)
    assert sum(len(x.carrier) == 4 for x in family) == classes


def test_three_point_vgph_family_has_one_model_per_class():
    family = all_models(hm.theory_vgph(hm.chain_meet_quantale(3)), 3, iso=True, cap=None)
    assert len(family) == 3460
    assert len(set(map(iso_key, family))) == 3460


@pytest.mark.parametrize("name", sorted(DISCRETE_THEORIES))
def test_an_iso_family_builds_only_its_representatives(name, monkeypatch):
    theory = DISCRETE_THEORIES[name]()
    built = []
    init = Structure.__init__

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(Structure, "__init__", counting_init)
    family = all_models(theory, 3, iso=True, cap=None)
    assert len(built) == len(family)
