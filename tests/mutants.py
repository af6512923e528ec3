"""The mutation table: named mutants of the library, each killed by named tests.

Run from anywhere, with no options:

    python tests/mutants.py

Each row of ``MUTANTS`` names a file under ``src/hornmod/``, an exact snippet
that must occur there exactly once, its replacement, and the tier-1 tests that
must fail once the snippet is replaced.  For each row the script copies
``src/`` and ``tests/`` into a fresh temporary directory, applies the row
there, and runs

    python -m pytest -x -q -p no:cacheprovider --hypothesis-seed=0 <tests>

with the copy as working directory, ``PYTHONPATH=<copy>/src`` and
``PYTHONHASHSEED=0``, so the repository's own ``.hypothesis/`` and
``.pytest_cache/`` are never written, and every run draws the same examples
and iterates its sets in the same order.  A row is killed only when pytest
exits 1; exit 0 means the mutant survived, and any other exit (a collection
or usage error, no test collected, a timeout) means the row itself is broken.
Before the first row, on an unmutated copy, a child process checks that
``hornmod`` is imported from the copy, so an installed package cannot shadow
a mutant, and every test the table names is run once and must pass, so a
kill is owed to the mutant and not to the copy.  The script prints one line
per row and the total wall time, and exits non-zero if that check fails, on
any survivor, any broken row and any snippet that does not occur exactly
once.

A change that edits a mutated snippet updates its row in the same change;
``tests/test_mutants.py`` (tier-1) fails until it does.  The table follows
DeMillo, Lipton and Sayward, "Hints on test data selection" (1978).
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    file: str  # under src/hornmod/
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root


def _m(name: str, file: str, old: str, new: str, *tests: str) -> Mutant:
    return Mutant(name, file, old, new, tests)


ACCEPTANCE, CLOSURE, CONVEXITY = ("tests/test_acceptance.py", "tests/test_closure.py",
                                  "tests/test_convexity.py")
CORE, FAMILIES, LIMITS = "tests/test_core.py", "tests/test_families.py", "tests/test_limits.py"
QUANTALE, SCHEMA, SEMANTICS = ("tests/test_quantale.py", "tests/test_schema.py",
                               "tests/test_semantics.py")

MUTANTS: tuple[Mutant, ...] = (
    # The universal-property verifier: one check for partial products and,
    # along X -> 1, for exponentials.
    _m("verifier: no domain comparison", "closure.py",
       "    return ids if same and domain._by_symbol == joined else None",
       "    return ids",
       f"{CLOSURE}::test_verify_partial_product_matches_reference"),
    _m("verifier: carrier-only domain comparison", "closure.py",
       "    return ids if same and domain._by_symbol == joined else None",
       "    return ids if domain.carrier == set(ids.values()) else None",
       f"{CLOSURE}::test_verify_partial_product_matches_reference"),
    _m("verifier: one symbol skipped in the domain comparison", "closure.py",
       "    return ids if same and domain._by_symbol == joined else None",
       "    return ids if same and all(domain._by_symbol[s] == joined[s]\n"
       "                               for s in list(joined)[1:]) else None",
       f"{CLOSURE}::test_verify_exponential_matches_reference"),
    _m("verifier: no anchor-codomain check", "closure.py",
       "    ids = _joined_ids(ev.source, struct, x, pairs) if p.target == z else None",
       "    ids = _joined_ids(ev.source, struct, x, pairs)",
       f"{CLOSURE}::test_verify_partial_product_rejects_an_anchor_into_another_codomain"),
    _m("verifier: both counts capped at 1", "closure.py",
       "                if _count(h_checks, domains) == n:",
       "                if min(_count(h_checks, domains), 1) == min(n, 1):",
       f"{CLOSURE}::test_verify_partial_product_matches_reference"),
    _m("verifier: a positional join constraint dropped", "closure.py",
       "    return _plan(len(pairs), _pair_edges(a.signature, positions, a, b), y._by_symbol)",
       "    return _plan(len(pairs), [e for e in _pair_edges(a.signature, positions, a, b)\n"
       "                              if len(set(e[1])) > 1], y._by_symbol)",
       f"{CLOSURE}::test_joined_count_matches_the_walked_targets"),
    _m("verifier: one joined edge unchecked", "closure.py",
       "    return _plan(len(pairs), _pair_edges(a.signature, positions, a, b), y._by_symbol)",
       "    return _plan(len(pairs), _pair_edges(a.signature, positions, a, b)[1:], y._by_symbol)",
       f"{CLOSURE}::test_joined_count_matches_the_walked_targets"),
    _m("verifier: the count's collision guard skipped", "closure.py",
       """    if not apart:
        _pair_ids(pairs)
""",
       "",
       f"{CLOSURE}::test_joined_count_matches_the_walked_targets"),
    _m("verifier: the collision fallback skipped", "closure.py",
       "        apart = injective and _renders_apart(q_obj, x)",
       "        apart = injective",
       f"{CLOSURE}::test_verifiers_raise_as_their_references"),
    _m("verifier: reversed targets", "closure.py",
       "            for g in targets:",
       "            for g in reversed(list(targets)):",
       f"{CLOSURE}::test_verify_partial_product_matches_reference"),
    _m("verifier: stopping after the first q", "closure.py",
       "        for q in qs:",
       "        for q in qs[:1]:",
       f"{CLOSURE}::test_verify_partial_product_matches_reference"),
    _m("verifier: exponential checked on the first test object only", "closure.py",
       "    return _verify_partial_product(bang(x), y, c, bang(c), candidate.eval, test_family)",
       "    return _verify_partial_product(bang(x), y, c, bang(c), candidate.eval, test_family[:1])",
       f"{CLOSURE}::test_verify_exponential_matches_reference"),
    _m("edge join: a swapped symbol read through the rows of x", "limits.py",
       "            outer, inner, rows = inner, outer, by_y",
       "            outer, inner, rows = inner, outer, by_x",
       f"{LIMITS}::test_pair_edges_against_the_nested_loop"),
    _m("edge join: a symbol with one edge on a side skipped", "limits.py",
       "        if not (outer and inner):",
       "        if not (outer and len(inner) > 1):",
       f"{LIMITS}::test_pair_edges_against_the_nested_loop"),
    _m("edge join: partial pairs kept", "limits.py",
       "                      if None not in joined]",
       "                      ]",
       f"{LIMITS}::test_pair_edges_against_the_nested_loop"),
    _m("hom-set: signature check dropped", "limits.py",
       '''    if x.signature != y.signature:
        raise SignatureError("hom-set needs a shared signature")
    return list(_run(''',
       "    return list(_run(",
       f"{CLOSURE}::test_verifiers_raise_as_their_references"),

    # The partial-product construction P*.
    _m("P*: the chase of F(v) skipped", "closure.py",
       "            free = free_model(theory, Structure(sig, vs, edges))",
       "            free = free_model(theory if edges else Theory(sig, base_flag=False),"
       " Structure(sig, vs, edges))",
       f"{CLOSURE}::test_partial_product_matches_brute_force_reference"),
    _m("P*: s-edges read at the reversed ends", "closure.py",
       "            kept.append((name, free.model, [us.index(free.unit_map(v)) for v in vs]))",
       "            kept.append((name, free.model,"
       " [us.index(free.unit_map(v)) for v in reversed(vs)]))",
       f"{CLOSURE}::test_partial_products_match_reference"),
    _m("P*: the presentation chased per call", "closure.py",
       "    if theory._presentation is None:",
       "    if True:",
       f"{CLOSURE}::test_a_second_partial_product_on_a_signature_runs_no_chase"),
    _m("P*: kept theory keyed without the variant", "core.py",
       "        theory = self._theories.get(base_flag)",
       "        theory = next(iter(self._theories.values()), None)",
       f"{CLOSURE}::test_partial_products_match_reference"),
    _m("P*: a map over k checks no fibre edge", "closure.py",
       "            for values in _run(_joined_checks(model, x, pairs, y), [tgt] * len(pairs)):",
       "            for values in _run([[] for _ in pairs], [tgt] * len(pairs)):",
       f"{CLOSURE}::test_partial_products_match_reference"),
    _m("P*: evaluation domain built without edges", "closure.py",
       "                       _pair_edges(struct.signature, pair_ids, struct, f.source))",
       "                       ())",
       f"{CLOSURE}::test_partial_products_match_reference"),

    # Schema convexity: one walk of the lift cases per schema.
    _m("schema convexity: reports in case order", "schema.py",
       '''                    del live[j:]
                    break''',
       '''                    return report''',
       f"{SCHEMA}::test_reported_instance_is_the_earliest_to_fail_not_the_first_in_case_order"),
    _m("schema convexity: never drops later instances", "schema.py",
       "                    limit, report = i, SchemaConvexityReport(",
       "                    limit, report = limit, SchemaConvexityReport(",
       f"{SCHEMA}::test_schema_lift_kernel_matches_the_reference_loops"),
    _m("schema convexity: no label check", "schema.py",
       "    if unknown:",
       "    if False:",
       f"{SCHEMA}::test_instance_labels_outside_the_signature_raise"),
    _m("schema convexity: formula check skipped", "schema.py",
       "    if instance.formula != _instance_formula(schema, sig, instance.labels):",
       "    if False:",
       f"{SCHEMA}::test_instance_formula_must_match_its_labels"),

    # Safety and reflexivity, read off one chased model.
    _m("safety: last name for a merged point", "convexity.py",
       "        names.setdefault(chased.unit_map(v), v)",
       "        names[chased.unit_map(v)] = v",
       f"{CONVEXITY}::test_safety_and_reflexivity_match_the_reference_loops"),
    _m("safety: reversed point order", "convexity.py",
       "    domains = [(chased.unit_map(v),) for v in fixed] + [tuple(names)] * len(free)",
       "    domains = [(chased.unit_map(v),) for v in fixed] + [tuple(names)[::-1]] * len(free)",
       f"{CONVEXITY}::test_safety_and_reflexivity_match_the_reference_on_shipped_theories"),
    _m("safety: free domains for conclusion variables", "convexity.py",
       "    domains = [(chased.unit_map(v),) for v in fixed] + [tuple(names)] * len(free)",
       "    domains = [tuple(names)] * (len(fixed) + len(free))",
       f"{CONVEXITY}::test_safety_and_reflexivity_match_the_reference_on_shipped_theories"),
    _m("safety: no up-front signature check", "convexity.py",
       '''        raise TheoryError("safety is defined for axioms with edge conclusions")
    theory.signature.check_formula(axiom, "axiom")''',
       '''        raise TheoryError("safety is defined for axioms with edge conclusions")''',
       f"{CONVEXITY}::test_safety_rejects_an_axiom_outside_the_signature"),
    _m("reflexivity: read at arity 1", "semantics.py",
       "        result.model.holds(s.name, (point,) * s.arity) for s in theory.signature.symbols",
       "        result.model.holds(s.name, (point,)) for s in theory.signature.symbols",
       f"{CONVEXITY}::test_safety_and_reflexivity_match_the_reference_on_shipped_theories"),
    _m("schema safety: one chase per instance", "schema.py",
       "        if concl not in chased:",
       "        if True:",
       f"{SCHEMA}::test_schema_safety_chases_each_distinct_conclusion_once"),
    _m("schema safety: Heyting gate first", "schema.py",
       '''    schema.check_signature(sig)
    order = _require_heyting(sig, schema.arity)
    k = len(schema.premises)''',
       '''    order = _require_heyting(sig, schema.arity)
    schema.check_signature(sig)
    k = len(schema.premises)''',
       f"{SCHEMA}::test_schema_safety_checks_the_signature_before_the_gate"),

    # The semi-naive chase.
    _m("chase: every round full", "semantics.py",
       '''            old, edges = edges, _add({s: set(ts) for s, ts in edges.items()}, additions)
            delta = _add({}, additions)''',
       '''            edges = _add({s: set(ts) for s, ts in edges.items()}, additions)
            old, delta = {}, edges''',
       f"{SEMANTICS}::test_delta_rounds_match_only_valuations_that_use_a_new_edge"),
    _m("chase: premises before i against all edges", "semantics.py",
       "            sources = [old] * i + [delta] + [edges] * (len(premises) - i - 1)",
       "            sources = [edges] * i + [delta] + [edges] * (len(premises) - i - 1)",
       f"{SEMANTICS}::test_delta_rounds_match_only_valuations_that_use_a_new_edge"),
    _m("chase: premises after i against old edges", "semantics.py",
       "            sources = [old] * i + [delta] + [edges] * (len(premises) - i - 1)",
       "            sources = [old] * i + [delta] + [old] * (len(premises) - i - 1)",
       f"{SEMANTICS}::test_free_model_matches_reference"),
    _m("chase: no full round after a merge", "semantics.py",
       '''            old, delta = {}, edges
        elif additions:''',
       '''            old, delta = edges, {}
        elif additions:''',
       f"{SEMANTICS}::test_free_model_rematches_after_a_merge"),
    _m("chase: old edges kept after a merge", "semantics.py",
       '''            old, delta = {}, edges
        elif additions:''',
       '''            delta = edges
        elif additions:''',
       f"{SEMANTICS}::test_delta_rounds_match_only_valuations_that_use_a_new_edge"),

    # Flat convexity and the lifting oracle.
    _m("flat convexity: no lift edges", "convexity.py",
       "    for kz, cases in _fibre_lifts(f, variables, premises, concl.args, premises):",
       "    for kz, cases in _fibre_lifts(f, variables, premises, concl.args):",
       f"{CONVEXITY}::test_lift_kernel_matches_the_reference_on_every_small_map"),
    _m("flat convexity: lift tuples in sorted-variable order", "convexity.py",
       '''    lift_vars = _lift_order(variables, concl_args)
    checks = _checks(lift_vars, lift_edges, x)''',
       '''    lift_vars = variables
    checks = _checks(lift_vars, lift_edges, x)''',
       f"{CONVEXITY}::test_lift_kernel_matches_the_reference_on_every_small_map"),
    _m("lifting oracle: lookup keyed on the top alone", "convexity.py",
       "            if any((top, bottom) not in filled for bottom in bottoms.get(compose(f, top), ())):",
       "            if bottoms.get(compose(f, top)) and top not in {d for d, _ in filled}:",
       f"{CONVEXITY}::test_lifting_oracle_matches_its_reference"),
    _m("lifting oracle: bottoms enumerated over x instead of z", "convexity.py",
       "        for bottom in enumerate_morphisms(impl_model, z):",
       "        for bottom in enumerate_morphisms(impl_model, x):",
       f"{CONVEXITY}::test_lifting_oracle_matches_its_reference"),
    _m("lifting oracle: free models not kept", "convexity.py",
       "    if theory._lifting_models is None:",
       "    if True:",
       f"{CONVEXITY}::test_the_lifting_oracle_chases_once_per_theory"),
    _m("convexity: a source-only signature check", "convexity.py",
       "    if f.source.signature != theory.signature or f.target.signature != theory.signature:",
       "    if f.source.signature != theory.signature:",
       f"{CONVEXITY}::test_convexity_refuses_a_map_over_another_signature"),
    _m("lifting oracle: no signature check", "convexity.py",
       '''    _require_signature(f, theory)
    x, z = f.source, f.target''',
       "    x, z = f.source, f.target",
       f"{CONVEXITY}::test_the_lifting_oracle_refuses_a_map_over_another_signature"),

    # The distance-form oracle, the lattice tables and the V-graph translation.
    _m("distance oracle: u over every element", "schema.py",
       "                for u in below(dz.d(h(x1), z2)):",
       "                for u in v.elements:",
       f"{SCHEMA}::test_ch_oracle_matches_the_defining_loop"),
    _m("distance oracle: u' over every element", "schema.py",
       "                    for u2 in below(dz.d(z2, h(x3))):",
       "                    for u2 in v.elements:",
       f"{SCHEMA}::test_ch_oracle_matches_the_defining_loop"),
    _m("distance oracle: join folded from top", "schema.py",
       "                        rhs = bottom",
       "                        rhs = order.top()",
       f"{SCHEMA}::test_ch_oracle_matches_the_defining_loop"),
    _m("distance oracle: the fibre of z2 read as the whole carrier", "schema.py",
       "    fibres = {z: [a for a in dx.carrier if h(a) == z] for z in dz.carrier}",
       "    fibres = {z: list(dx.carrier) for z in dz.carrier}",
       f"{SCHEMA}::test_ch_oracle_matches_the_defining_loop"),
    _m("distance oracle: no quantale check", "schema.py",
       "    if h.source.quantale != v:",
       "    if False:",
       f"{SCHEMA}::test_ch_oracle_refuses_a_map_over_another_quantale"),
    _m("lattice: down-set read as up-set", "core.py",
       "            t: tuple(s for s, row in zip(self.symbols, leq) if row[j])",
       "            t: tuple(s for s in self.symbols if leq[j][self._index[s]])",
       f"{CORE}::test_lattice_tables_match_the_defining_scan"),
    _m("lattice: down-set without equivalent symbols", "core.py",
       "            t: tuple(s for s, row in zip(self.symbols, leq) if row[j])",
       "            t: tuple(s for s, row in zip(self.symbols, leq)\n"
       "                     if row[j] and (s == t or not leq[j][self._index[s]]))",
       f"{CORE}::test_lattice_tables_match_the_defining_scan"),
    _m("lattice: distributivity always true", "core.py",
       "        return all(meet[a, join[b, c]] == join[meet[a, b], meet[a, c]]",
       "        return True or all(meet[a, join[b, c]] == join[meet[a, b], meet[a, c]]",
       f"{CORE}::test_binary_distributivity_decides_heyting_like_the_subset_check"),
    _m("translation: only the distance's own edge", "quantale.py",
       "             for s in below(quantale_symbol_name(g.d(a, b)))]",
       "             for s in (quantale_symbol_name(g.d(a, b)),)]",
       f"{QUANTALE}::test_vgraph_translation_matches_the_defining_scan"),

    # Compiled axioms: the model check and the grounding.
    _m("reader: reversed positions", "semantics.py",
       "        return itemgetter(*at)",
       "        return itemgetter(*reversed(at))",
       f"{SEMANTICS}::test_value_tuples_match_product_filter"),
    _m("reader: the empty reader reads (None,)", "semantics.py",
       "    return (lambda vs, p=at[0]: (vs[p],)) if at else (lambda vs: ())",
       "    return (lambda vs, p=at[0]: (vs[p],)) if at else (lambda vs: (None,))",
       f"{SEMANTICS}::test_reader_reads_any_number_of_positions"),
    _m("rules: premise-first variable order", "semantics.py",
       "        self.variables = tuple(sorted(ax.variables()))",
       "        self.variables = tuple(sorted(ax.variables(),\n"
       "                                      key=lambda v: (all(v not in p.args for p in ax.premises), v)))",
       f"{SEMANTICS}::test_check_model_matches_reference"),
    _m("rules: an equality read as (left, left)", "semantics.py",
       "        head = concl if equality else concl.args  # an Equality is its two sides",
       "        head = (concl[0], concl[0]) if equality else concl.args",
       f"{FAMILIES}::test_grounding_of_random_horn_theories_equals_reference"),
    _m("grounding: rules whose head is a premise kept", "semantics.py",
       "            elif not mask & (bit := heads[head]):",
       "            elif (bit := heads[head]):",
       f"{FAMILIES}::test_grounding_of_random_horn_theories_equals_reference"),
    _m("grounding: equality forbidden on equal sides", "semantics.py",
       '''                if head[0] != head[1]:
                    forbidden.add(mask)''',
       '''                if True:
                    forbidden.add(mask)''',
       f"{FAMILIES}::test_grounding_of_random_horn_theories_equals_reference"),
    _m("model check: a reversed witness", "semantics.py",
       "            return Violation(rule.axiom, tuple(zip(rule.variables, values)))",
       "            return Violation(rule.axiom, tuple(zip(rule.variables, values[::-1])))",
       f"{SEMANTICS}::test_check_model_matches_reference"),

    # Families: bounds, labelling and orbit representatives.
    _m("families: no bounds check", "families.py",
       '''    _check_bounds(max_size, cap)
    sig = theory.signature''',
       "    sig = theory.signature",
       f"{FAMILIES}::test_negative_size_bounds_are_refused"),
    _m("families: no cap on the edge sets", "families.py",
       "        if width >= cap.bit_length():  # 2 ** width > cap, without the power",
       "        if False:",
       f"{FAMILIES}::test_families_over_their_cap_are_refused_before_anything_is_built"),
    _m("families: iso keys without the signature", "families.py",
       "    return (x.signature, len(x.carrier), _canonical_labelling(x)[0])",
       "    return (len(x.carrier), _canonical_labelling(x)[0])",
       f"{FAMILIES}::test_iso_keys_tell_signatures_apart"),
    _m("families: unsorted profiles", "families.py",
       '''    for occurrences in profile.values():
        occurrences.sort()
''',
       "",
       f"{FAMILIES}::test_canonical_labelling_against_permutation_scans"),
    _m("orbits: the last permutation table dropped", "families.py",
       "              for rename in renames]",
       "              for rename in renames][:-1]",
       f"{FAMILIES}::test_orbit_representatives_equal_reference_dedup_up_to_three_points"),
    _m("orbits: the last mask of each orbit kept", "families.py",
       "    for mask in masks:",
       "    for mask in sorted(masks, reverse=True):",
       f"{FAMILIES}::test_orbit_representatives_equal_reference_dedup_up_to_three_points"),

    # The quantale ladder and the base axioms.
    _m("ladder: no Heyting gate", "quantale.py",
       "    if reflexive and v.unit == v.top() and is_heyting(v):",
       "    if reflexive and v.unit == v.top():",
       f"{QUANTALE}::test_reflexive_rungs_over_a_non_heyting_lattice_carry_the_join_axioms"),
    _m("ladder: no unit loop", "quantale.py",
       '''        axioms.append(horn((), Edge(quantale_symbol_name(v.unit), ("x", "x"))))''',
       "        pass",
       f"{QUANTALE}::test_ladder_matches_reference"),
    _m("ladder: extra before the instances", "quantale.py",
       '''    if schemas:
        from .schema import expand_instances
''',
       '''    axioms.extend(extra)
    extra = ()
    if schemas:
        from .schema import expand_instances
''',
       f"{QUANTALE}::test_flat_fallback_is_the_vrgph_axioms_plus_the_schema_instances"),
    _m("order axioms: upward", "core.py",
       "    out = [horn((Edge(high, variables),), Edge(low, variables))",
       "    out = [horn((Edge(low, variables),), Edge(high, variables))",
       f"{QUANTALE}::test_ladder_matches_reference"),
    _m("order axioms: no bottom axiom", "core.py",
       "        out.append(horn((), Edge(bot, variables)))",
       "        pass",
       f"{QUANTALE}::test_ladder_matches_reference"),

    # Value types and the Structure constructor.
    _m("formula: repr in premise iteration order", "core.py",
       "        premises = \", \".join(map(repr, self.sorted_premises()))",
       "        premises = \", \".join(map(repr, self.premises))",
       f"{CORE}::test_value_types_match_their_dataclass_references"),
    _m("formula: equality-conclusion variable check dropped", "core.py",
       "        if isinstance(conclusion, Equality) and var_set(premises) != set(conclusion):",
       "        if False:",
       f"{CORE}::test_equality_conclusion_variable_condition"),
    _m("relation symbol: _replace unchecked", "core.py",
       '''        return tuple.__new__(cls, (name, arity))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too''',
       '''        return tuple.__new__(cls, (name, arity))''',
       f"{CORE}::test_replace_checks_like_dataclasses_replace"),
    _m("signature: unknown order kind accepted", "core.py",
       "        if self.order_kind not in ORDER_KINDS:",
       "        if False:",
       f"{CORE}::test_signatures_refuse_with_their_messages"),
    _m("signature: duplicate symbol names accepted", "core.py",
       "        if len(arities) != len(self.symbols):",
       "        if False:",
       f"{CORE}::test_signatures_refuse_with_their_messages"),
    _m("signature: order pairs over unknown symbols accepted", "core.py",
       "            if low not in arities or high not in arities:",
       "            if False:",
       f"{CORE}::test_signatures_refuse_with_their_messages"),
    _m("signature: a quantale-induced signature without a quantale accepted", "core.py",
       "            if self.quantale is None:",
       "            if False:",
       f"{CORE}::test_signatures_refuse_with_their_messages"),
    _m("signature: quantale symbols unchecked", "core.py",
       "            if list(self.symbols) != expected:",
       "            if False:",
       f"{CORE}::test_signatures_refuse_with_their_messages"),
    _m("signature: a quantale on another order kind accepted", "core.py",
       "        elif self.quantale is not None:",
       "        elif False:",
       f"{CORE}::test_signatures_refuse_with_their_messages"),
    _m("signature: order pairs of different arities accepted", "core.py",
       "            if arities[low] != arities[high]:",
       "            if False:",
       f"{CORE}::test_explicit_pairs_across_arities_rejected"),
    _m("structure: arity unchecked", "core.py",
       "            elif len(args) != arities[name]:",
       "            elif False:",
       f"{CORE}::test_structure_against_the_reference_constructor"),
    _m("structure: carrier unchecked", "core.py",
       "            elif not carrier.issuperset(args):",
       "            elif False:",
       f"{CORE}::test_structure_against_the_reference_constructor"),
    _m("structure: an Edge over a list kept", "core.py",
       """            if type(args) is not tuple:
                name, args = _as_edge(e)
""",
       "",
       f"{CORE}::test_structure_against_the_reference_constructor"),
    _m("structure: a plain pair's symbol unchecked", "core.py",
       "            if not (type(e) is tuple and len(e) == 2 and type(e[0]) is str or type(e) is Edge):",
       "            if not (type(e) is tuple and len(e) == 2 or type(e) is Edge):",
       f"{CORE}::test_structures_refuse_edges_that_are_not_symbol_argument_pairs"),
    _m("structure: a misplaced edge refused before a malformed one", "core.py",
       '                refusal = refusal or f"edge uses unknown symbol {name!r}"',
       '                raise StructureError(f"edge uses unknown symbol {name!r}")',
       f"{CORE}::test_structures_refuse_edges_that_are_not_symbol_argument_pairs"),
    _m("structure: the lazy edge set drops an edge", "core.py",
       "            self._edges = frozenset(Edge(name, args)\n"
       "                                    for name, ts in self._by_symbol.items() for args in ts)",
       "            self._edges = frozenset(list(Edge(name, args)\n"
       "                                    for name, ts in self._by_symbol.items() for args in ts)[1:])",
       f"{CORE}::test_structure_against_the_reference_constructor"),
    _m("hom search: each edge checked at its first point", "semantics.py",
       "        edges = ((symbol, tuple(map(position, args))) for symbol, args in _pairs(x._by_symbol))",
       "        edges = ((symbol, tuple(map(position, args[:1]))) for symbol, args in _pairs(x._by_symbol))",
       f"{LIMITS}::test_hom_tuples_against_the_product_filter"),
    _m("search plan: each constraint laid out at its least position", "semantics.py",
       "        plan[max(at)].append((tuple_sets[key], _reader(at)))",
       "        plan[min(at)].append((tuple_sets[key], _reader(at)))",
       f"{LIMITS}::test_hom_tuples_against_the_product_filter",
       f"{CLOSURE}::test_joined_count_matches_the_walked_targets",
       f"{SEMANTICS}::test_value_tuples_match_product_filter"),

    # Serialization.
    _m("serialize: carrier written in set order", "serialize.py",
       '''        "carrier": list(x.sorted_carrier()),''',
       '''        "carrier": list(x.carrier),''',
       f"{ACCEPTANCE}::test_criterion_14_cli_determinism"),

    # Boundary checks.
    _m("pullback: legs over another signature accepted", "limits.py",
       '''    if not x.signature == y.signature == f.target.signature:
        raise SignatureError("pullback needs a shared signature")
''',
       "",
       f"{LIMITS}::test_pullback_refuses_a_leg_over_another_signature"),
    _m("theory: schemas not checked to be AxiomSchemas", "core.py",
       "                if not isinstance(s, AxiomSchema):",
       "                if False:",
       f"{CORE}::test_theories_refuse_schemas_that_are_not_axiom_schemas"),
    _m("theory: a base flag that is not a bool accepted", "core.py",
       """        if not isinstance(base_flag, bool):
            raise TheoryError(f"base_flag must be a bool, got {base_flag!r}")
""",
       "",
       f"{CORE}::test_value_types_match_their_dataclass_references"),
    _m("schema table: entries kept in the order listed", "schema.py",
       "        entries = tuple(sorted(self.entries))",
       "        entries = tuple(self.entries)",
       "tests/test_serialize.py::test_theory_roundtrip"),
    _m("schema table: a repeated label tuple accepted", "schema.py",
       """            if labels == later:
                raise SchemaError(f"table lists the labels {labels} more than once")
""",
       """            pass
""",
       f"{SCHEMA}::test_explicit_table_builds_its_dict_once_and_compares_by_entries"),
    _m("quantale: a tensor pair listed with two values resolved to the last", "quantale.py",
       """            if tensor.setdefault((a, b), c) != c:
                raise QuantaleError(f"tensor lists ({a!r}, {b!r}) with two values")
""",
       """            tensor[(a, b)] = c
""",
       f"{QUANTALE}::test_a_key_listed_with_two_values_is_refused[tensor]"),
    _m("V-graph: a distance listed with two values resolved to the last", "quantale.py",
       """            if table.setdefault((a, b), d) != d:
                raise QuantaleError(f"distance table lists ({a!r}, {b!r}) with two values")
""",
       """            table[(a, b)] = d
""",
       f"{QUANTALE}::test_a_key_listed_with_two_values_is_refused[distances]"),
    _m("V-functor: a point mapped twice resolved to the last", "quantale.py",
       """            if table.setdefault(a, b) != b:
                raise QuantaleError(f"mapping sends {a!r} to two points")
""",
       """            table[a] = b
""",
       f"{QUANTALE}::test_a_key_listed_with_two_values_is_refused[mapping]"),
    _m("serialize: a name with a comma written into a key", "serialize.py",
       '''        if "," in name:''',
       "        if False:",
       "tests/test_serialize.py::test_a_name_with_a_comma_is_refused_at_a_written_key"),
    _m("test family: slot budget unchecked", "families.py",
       "    if width > TEST_FAMILY_SLOTS:",
       "    if False:",
       f"{FAMILIES}::test_a_test_family_over_its_slot_budget_is_refused_before_anything_is_built"),
    _m("family sample: cap unchecked", "families.py",
       '''    _check_cap(cap)
    if len(structures) <= cap:''',
       '''    if len(structures) <= cap:''',
       f"{FAMILIES}::test_bad_size_bounds_and_caps_are_refused"),
)


def snippet_count(row: Mutant) -> int:
    """How often the row's old snippet occurs in its file."""
    return (ROOT / "src" / "hornmod" / row.file).read_text(encoding="utf-8").count(row.old)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)


def _env(copy: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONHASHSEED": "0"}


def _pytest(copy: Path, tests: tuple[str, ...]) -> int | None:
    """The exit code of pytest on ``tests`` in ``copy``, or None on a timeout."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *tests]
    try:
        return subprocess.run(command, cwd=copy, env=_env(copy), stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def check_copy() -> str:
    """Why an unmutated copy cannot judge the rows, or "" if it can: a child
    process must import ``hornmod`` from the copy, and every named test must pass."""
    with tempfile.TemporaryDirectory(prefix="hornmod-mutant-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        found = subprocess.run(
            [sys.executable, "-c", "import hornmod; print(hornmod.__file__)"],
            cwd=copy, env=_env(copy), capture_output=True, text=True)
        path = Path(found.stdout.strip()).resolve()
        if found.returncode != 0 or not path.is_relative_to(copy.resolve()):
            return ("hornmod does not import from the copy of src/; "
                    "an installed package may shadow it")
        code = _pytest(copy, tuple(dict.fromkeys(t for row in MUTANTS for t in row.tests)))
        if code != 0:
            return f"the named tests do not all pass on the unmutated copy (pytest exit {code})"
    return ""


def run_row(row: Mutant) -> tuple[str, str]:
    """The row's outcome, ``killed``, ``SURVIVED`` or ``BROKEN``, with the reason if broken."""
    count = snippet_count(row)
    if count != 1:
        return "BROKEN", f"the snippet occurs {count} times"
    with tempfile.TemporaryDirectory(prefix="hornmod-mutant-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        path = copy / "src" / "hornmod" / row.file
        path.write_text(path.read_text(encoding="utf-8").replace(row.old, row.new),
                        encoding="utf-8")
        code = _pytest(copy, row.tests)
    if code is None:
        return "BROKEN", f"no exit within {TIMEOUT_S} s"
    if code == 1:
        return "killed", ""
    return ("SURVIVED", "") if code == 0 else ("BROKEN", f"pytest exit {code}")


def main() -> int:
    start = time.perf_counter()
    problem = check_copy()
    if problem:
        print(problem)
        return 2
    failures = 0
    for row in MUTANTS:
        began = time.perf_counter()
        outcome, reason = run_row(row)
        failures += outcome != "killed"
        print(f"{outcome:<8} {time.perf_counter() - began:5.1f} s  {row.name}"
              + (f" ({reason})" if reason else ""), flush=True)
    print(f"{len(MUTANTS)} rows, {len(MUTANTS) - failures} killed, {failures} not; "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
