"""Span tracing of hornmod from the outside, and the per-layer metrics.

The tracer replaces every public function of every ``hornmod`` module at
every binding site (``from``-imports included) with a wrapper that records a
span: function, start, end, parent span and query id.  Constructors of
``Structure`` and ``Morphism`` and the lattice operations of ``SymbolOrder``
and ``Quantale`` are wrapped on their classes.  Generator functions are not
spanned (their work happens while the caller iterates); their items are
counted instead, and their time falls to the consuming span.  Nothing inside
``src/`` is edited: the wrappers live only in the traced process.

A layer is a ``hornmod`` module.  A span's self time is its duration minus its
direct children.  Self time goes to the metric group of the span's function;
a function without a group inherits the group of its nearest ancestor in the
same layer, or else falls in ``<layer>.other``.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# Explicit metric groups; every other public function inherits (see above).
GROUPS = {
    "core.Structure.__init__": "core.construct",
    "core.Morphism.__init__": "core.construct",
    "semantics.is_model": "semantics.check",
    "semantics.check_model": "semantics.check",
    "semantics.find_formula_violation": "semantics.check",
    "semantics.satisfies_formula": "semantics.check",
    "semantics.free_model": "semantics.chase",
    "limits.enumerate_morphisms": "limits.hom",
    "limits.enumerate_functions": "limits.hom",
    "limits.hom_count": "limits.hom",
    "limits.find_isomorphism": "limits.hom",
    "limits.are_isomorphic": "limits.hom",
    "limits.product": "limits.product",
    "limits.pullback": "limits.product",
    "limits.equalizer": "limits.product",
    "limits.terminal": "limits.product",
    "limits.bang": "limits.product",
    "limits.fibre_structure": "limits.product",
    "limits.pair_morphism": "limits.product",
    "closure.exponential_object": "closure.build",
    "closure.partial_product_str": "closure.build",
    "closure.partial_product_refl": "closure.build",
    "closure.internal_hom": "closure.build",
    "closure.tensor": "closure.build",
    "closure.tensor_unit": "closure.build",
    "closure.verify_exponential": "closure.verify",
    "closure.verify_partial_product": "closure.verify",
    "convexity.is_convex": "convexity.direct",
    "convexity.convexity_report": "convexity.direct",
    "convexity.is_convex_wrt": "convexity.direct",
    "convexity.is_object_convex": "convexity.direct",
    "convexity.is_convex_via_lifting": "convexity.lifting",
    "convexity.is_safe_axiom": "convexity.safety",
    "convexity.is_very_safe_axiom": "convexity.safety",
    "convexity.classify_theory": "convexity.safety",
    "schema.is_schema_convex": "schema.convex",
    "schema.is_schema_convex_wrt_instance": "schema.convex",
    "schema.is_schema_object_convex": "schema.convex",
    "schema.ch_condition_oracle": "schema.oracle",
    "schema.is_schema_safe": "schema.safety",
    "schema.is_schema_very_safe": "schema.safety",
    "schema.classify_schematic_theory": "schema.safety",
    "quantale.check_quantale_laws": "quantale.law",
    "quantale.is_heyting": "quantale.law",
    "families.all_structures": "families.scan",
    "families.all_models": "families.scan",
    "families.default_test_family": "families.scan",
    "families.sample_family": "families.scan",
    "families.iso_key": "families.iso",
    "families.dedup_by_iso": "families.iso",
}
LATTICE_OPS = ("join_of_set", "meet_of_set", "join2", "meet2", "join", "meet", "bottom", "top")
CLASS_METHODS = {
    ("core", "Structure"): ("__init__",),
    ("core", "Morphism"): ("__init__",),
    ("core", "SymbolOrder"): LATTICE_OPS[:4] + ("bottom", "top", "below", "is_partial_order",
                                                "is_complete_lattice", "is_complete_heyting"),
    ("quantale", "Quantale"): LATTICE_OPS[2:],
}
CONVEXITY_VERDICTS = (
    "is_convex", "convexity_report", "is_convex_wrt", "is_object_convex",
    "is_convex_via_lifting", "is_safe_axiom", "is_very_safe_axiom", "classify_theory",
)
# Layers each workload must reach; a zero call count there means a wrapper
# lost its target (a rename), which must fail loudly rather than report 0.
DOMINANT_LAYERS = {
    "families": ("families", "core", "semantics"),
    "constructions": ("limits", "closure", "core"),
    "deciders": ("convexity", "schema", "quantale", "core", "semantics"),
    "cli": ("serialize", "cli", "semantics"),
}


def group_of(name: str):
    """The metric group of a wrapped function, or None to inherit one."""
    layer, _, func = name.partition(".")
    if name in GROUPS:
        return GROUPS[name]
    if layer == "serialize":
        return "serialize.parse" if func.startswith("parse_") else "serialize.dump"
    if layer == "cli":
        return "cli.command"
    if "." in func and (layer, func.partition(".")[0]) in CLASS_METHODS:
        return "core.lattice"  # SymbolOrder and Quantale lattice operations
    return None


class Tracer:
    """Wrappers, spans kept in memory, and counters recorded at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        # One span per index across these arrays, in the order calls began.
        self.fids, self.parents, self.queries = array("i"), array("i"), array("i")
        self.starts, self.ends = array("d"), array("d")
        self.stack: list[int] = []
        self.query = -1
        self.counters: Counter = Counter()
        self.generator_calls: Counter = Counter()
        self._originals: dict[int, object] = {}

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == package.__name__ or name.startswith(package.__name__ + ".")
        }
        replacements: dict[int, object] = {}
        for modname, mod in sorted(modules.items()):
            layer = modname.rpartition(".")[2]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                target = getattr(obj, "__wrapped__", obj)
                if getattr(target, "__module__", None) != modname:
                    continue
                replacements[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                self._originals[id(obj)] = obj
        for (layer, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(modules[f"{package.__name__}.{layer}"], cls_name)
            for method in methods:
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", original))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacements and obj is self._originals[id(obj)]:
                    setattr(mod, attr, replacements[id(obj)])

    def unwrapped_bindings(self, package) -> list[str]:
        """Binding sites still holding an original function after installation."""
        out = []
        for name, mod in sys.modules.items():
            if name == package.__name__ or name.startswith(package.__name__ + "."):
                for attr, obj in vars(mod).items():
                    if id(obj) in self._originals and obj is self._originals[id(obj)]:
                        out.append(f"{name}.{attr}")
        return sorted(out)

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        counters = self.counters
        if inspect.isgeneratorfunction(fn):
            calls = self.generator_calls

            @functools.wraps(fn)
            def counting(*args, **kwargs):
                calls[name] += 1
                for item in fn(*args, **kwargs):
                    counters[name + ":items"] += 1
                    yield item

            return counting

        fids, parents, queries = self.fids, self.parents, self.queries
        starts, ends, stack, clock = self.starts, self.ends, self.stack, time.perf_counter
        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            queries.append(self.query)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, idx, args, result)
            return result

        return wrapper

    # -- analysis ----------------------------------------------------------

    def analyse(self):
        """Self time per group, span counts per function and per layer."""
        names, fids, parents = self.names, self.fids, self.parents
        child = [0.0] * len(fids)
        for start, end, parent in zip(self.starts, self.ends, parents):
            if parent >= 0:
                child[parent] += end - start
        group: list = [None] * len(fids)
        self_time: Counter = Counter()
        calls: Counter = Counter()
        layer_calls: Counter = Counter(
            {n.partition(".")[0]: c for n, c in self.generator_calls.items()}
        )
        outermost: Counter = Counter()
        for idx, (fid, start, end, parent) in enumerate(
                zip(fids, self.starts, self.ends, parents)):
            name = names[fid]
            layer = name.partition(".")[0]
            g = group_of(name)
            if g is None and parent >= 0 and names[fids[parent]].partition(".")[0] == layer:
                g = group[parent]
            group[idx] = g or f"{layer}.other"
            self_time[group[idx]] += end - start - child[idx]
            calls[name] += 1
            layer_calls[layer] += 1
            parent_name = names[fids[parent]] if parent >= 0 else ""
            short = name.rpartition(".")[2]
            if short in LATTICE_OPS and parent_name.rpartition(".")[2] not in LATTICE_OPS:
                outermost["lattice_ops"] += 1
            if (layer == "convexity" and short in CONVEXITY_VERDICTS
                    and not parent_name.startswith("convexity.")):
                outermost["convexity_verdicts"] += 1
        return self_time, calls, layer_calls, outermost

    def write(self, path: Path) -> None:
        """Write every span as a tab-separated line (times in ns from the first span)."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tquery\tfunction\tstart_ns\tend_ns\n")
            for idx, (fid, start, end, parent, query) in enumerate(
                    zip(self.fids, self.starts, self.ends, self.parents, self.queries)):
                fh.write(f"{idx}\t{parent}\t{query}\t{self.names[fid]}\t"
                         f"{round((start - origin) * 1e9)}\t{round((end - origin) * 1e9)}\n")


def _parent_layer(tracer, idx) -> str:
    parent = tracer.parents[idx]
    return tracer.names[tracer.fids[parent]].partition(".")[0] if parent >= 0 else ""


def _check_model(tracer, idx, args, result):
    tracer.counters["semantics.model_true"] += result is None


def _is_model(tracer, idx, args, result):
    if result and _parent_layer(tracer, idx) == "families":
        tracer.counters["families.models_kept"] += 1


def _free_model(tracer, idx, args, result):
    tracer.counters["semantics.chase_edges_out"] += len(result.model.edges)


def _enumerate_morphisms(tracer, idx, args, result):
    x, y = args[0], args[1]
    tracer.counters["limits.homs_found"] += len(result)
    tracer.counters["limits.hom_space"] += len(y.carrier) ** len(x.carrier)


def _built(tracer, idx, args, result):
    structure = getattr(result, "structure", result)
    tracer.counters["closure.points_built"] += len(structure.carrier)


def _verified(tracer, idx, args, result):
    tracer.counters["closure.verify_cases"] += sum(e.checked for e in result.entries)


def _count_len(key):
    def hook(tracer, idx, args, result):
        tracer.counters[key] += len(result)
    return hook


RESULT_HOOKS = {
    "semantics.check_model": _check_model,
    "semantics.is_model": _is_model,
    "semantics.free_model": _free_model,
    "limits.enumerate_morphisms": _enumerate_morphisms,
    "closure.exponential_object": _built,
    "closure.partial_product_str": _built,
    "closure.partial_product_refl": _built,
    "closure.internal_hom": _built,
    "closure.tensor": _built,
    "closure.verify_exponential": _verified,
    "closure.verify_partial_product": _verified,
    "schema.expand_instances": _count_len("schema.instances"),
    "families.dedup_by_iso": _count_len("families.iso_reps"),
    "serialize.dumps": _count_len("serialize.bytes_out"),
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer):
    """Per-layer metrics (name -> (value, unit)) of one traced pass, and calls per layer."""
    self_time, calls, layer_calls, outermost = tracer.analyse()
    c = tracer.counters
    model_checks = calls["semantics.check_model"]
    scanned = c["families.structures_on_carrier:items"]
    m = {
        "core.structures_built": (calls["core.Structure.__init__"], "count"),
        "core.morphisms_built": (calls["core.Morphism.__init__"], "count"),
        "core.construct_s": (float(self_time["core.construct"]), "s"),
        "core.lattice_ops": (outermost["lattice_ops"], "count"),
        "core.lattice_s": (float(self_time["core.lattice"]), "s"),
        "semantics.model_checks": (model_checks, "count"),
        "semantics.model_true_ratio": (_ratio(c["semantics.model_true"], model_checks), "ratio"),
        "semantics.valuations": (c["semantics.satisfying_valuations:items"], "count"),
        "semantics.check_s": (float(self_time["semantics.check"]), "s"),
        "semantics.chase_calls": (calls["semantics.free_model"], "count"),
        "semantics.chase_edges_out": (c["semantics.chase_edges_out"], "count"),
        "semantics.chase_s": (float(self_time["semantics.chase"]), "s"),
        "semantics.entails_calls": (calls["semantics.entails"], "count"),
        "limits.hom_searches": (calls["limits.enumerate_morphisms"], "count"),
        "limits.homs_found": (c["limits.homs_found"], "count"),
        "limits.hom_yield": (_ratio(c["limits.homs_found"], c["limits.hom_space"]), "ratio"),
        "limits.hom_s": (float(self_time["limits.hom"]), "s"),
        "limits.product_s": (float(self_time["limits.product"]), "s"),
        "closure.points_built": (c["closure.points_built"], "count"),
        "closure.build_s": (float(self_time["closure.build"]), "s"),
        "closure.verify_cases": (c["closure.verify_cases"], "count"),
        "closure.verify_s": (float(self_time["closure.verify"]), "s"),
        "convexity.verdicts": (outermost["convexity_verdicts"], "count"),
        "convexity.direct_s": (float(self_time["convexity.direct"]), "s"),
        "convexity.lifting_s": (float(self_time["convexity.lifting"]), "s"),
        "convexity.safety_s": (float(self_time["convexity.safety"]), "s"),
        "schema.instances": (c["schema.instances"], "count"),
        "schema.convex_s": (float(self_time["schema.convex"]), "s"),
        "schema.oracle_s": (float(self_time["schema.oracle"]), "s"),
        "schema.safety_s": (float(self_time["schema.safety"]), "s"),
        "quantale.law_checks": (calls["quantale.check_quantale_laws"], "count"),
        "quantale.law_s": (float(self_time["quantale.law"]), "s"),
        "quantale.vfunctors": (calls["quantale.vfunctor_to_morphism"], "count"),
        "families.structures_scanned": (scanned, "count"),
        "families.models_kept": (c["families.models_kept"], "count"),
        "families.model_yield": (_ratio(c["families.models_kept"], scanned), "ratio"),
        "families.iso_keys": (calls["families.iso_key"], "count"),
        "families.iso_reps": (c["families.iso_reps"], "count"),
        "families.scan_s": (float(self_time["families.scan"]), "s"),
        "families.iso_s": (float(self_time["families.iso"]), "s"),
        "serialize.parse_s": (float(self_time["serialize.parse"]), "s"),
        "serialize.dump_s": (float(self_time["serialize.dump"]), "s"),
        "serialize.bytes_out": (c["serialize.bytes_out"], "count"),
        "cli.command_s": (float(self_time["cli.command"]), "s"),
    }
    return m, layer_calls
