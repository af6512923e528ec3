"""Command-line interface: every check bound to JSON files with stable output.

Exit codes: 0 for an affirmative verdict, 1 for a negative verdict (with a
witness in the payload), 2 for usage or input errors.  All output is
canonical JSON, so identical inputs give byte-identical output.

Each command imports the modules it runs when it runs, so a process pays only
for its own command's imports.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

# Parsing loads core and serialize for every command, so their names are bound here.
from .core import DEFAULT_CAP, DISCRETE, HornmodError, Morphism, validate_morphism
from .serialize import (
    ParseError,
    dumps,
    formula_to_jsonable,
    parse_formula,
    parse_morphism,
    parse_quantale,
    parse_signature,
    parse_structure,
    parse_theory,
    structure_to_jsonable,
)

if TYPE_CHECKING:
    from typing import Any, Optional, Sequence

    from .closure import PartialProductResult, VerificationReport
    from .convexity import ConvexityReport

OK, NEGATIVE, INPUT_ERROR = 0, 1, 2


def _load(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}")
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror}")
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text")
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")


def _load_morphism(path: str) -> Morphism:
    """The morphism in ``path``; a map that breaks an edge of its source is bad input."""
    f = parse_morphism(_load(path))
    if not validate_morphism(f):
        broken = next(e for e in f.source.sorted_edges()
                      if not f.target.holds(e.symbol, tuple(map(f, e.args))))
        raise ParseError(f"{path}: the map does not preserve the edge "
                         f"{broken.symbol!r} {list(broken.args)!r}")
    return f


def _violation_payload(violation) -> Optional[dict]:
    if violation is None:
        return None
    return {
        "axiom": formula_to_jsonable(violation.axiom),
        "valuation": dict(violation.valuation),
    }


def _verification_payload(report: VerificationReport) -> dict:
    return {
        "passed": report.passed,
        "tested": len(report.entries),
        "tests": [
            {
                "carrier_size": len(e.test_object.carrier),
                "edge_count": sum(map(len, e.test_object._by_symbol.values())),
                "checked": e.checked,
                "ok": e.ok,
                "detail": e.detail,
            }
            for e in report.entries
        ],
    }


def _convexity_payload(report: ConvexityReport) -> dict:
    if report.counterexample is None:
        return {"convex": report.convex, "counterexample": None}
    cex = report.counterexample
    return {
        "convex": report.convex,
        "counterexample": {
            "axiom": formula_to_jsonable(cex.axiom),
            "valuation": dict(cex.valuation),
            "lifted": list(cex.lifted),
        },
    }


def cmd_check_model(args) -> tuple[dict, int]:
    from .semantics import check_model

    theory = parse_theory(_load(args.theory))
    structure = parse_structure(_load(args.structure))
    violation = check_model(structure, theory)
    payload = {"is_model": violation is None, "witness": _violation_payload(violation)}
    return payload, OK if violation is None else NEGATIVE


def cmd_free_model(args) -> tuple[dict, int]:
    from .semantics import free_model

    theory = parse_theory(_load(args.theory))
    structure = parse_structure(_load(args.structure))
    result = free_model(theory, structure)
    payload = {
        "model": structure_to_jsonable(result.model),
        "unit_map": dict(sorted(result.unit_map.mapping.items())),
    }
    return payload, OK


def cmd_limit(args) -> tuple[dict, int]:
    from .limits import equalizer, product, pullback, terminal

    if args.which == "terminal":
        sig = parse_signature(_load(args.signature))
        return {"structure": structure_to_jsonable(terminal(sig))}, OK
    if args.which == "equalizer":
        res = equalizer(_load_morphism(args.left), _load_morphism(args.right))
        return {
            "structure": structure_to_jsonable(res.structure),
            "inclusion": dict(sorted(res.inclusion.mapping.items())),
        }, OK
    if args.which == "product":
        res = product(parse_structure(_load(args.left)), parse_structure(_load(args.right)))
    else:
        res = pullback(_load_morphism(args.left), _load_morphism(args.right))
    return {
        "structure": structure_to_jsonable(res.structure),
        "projections": [
            dict(sorted(res.left.mapping.items())),
            dict(sorted(res.right.mapping.items())),
        ],
    }, OK


def cmd_exponential(args) -> tuple[dict, int]:
    from .closure import exponential_object, verify_exponential
    from .families import default_test_family
    from .semantics import check_model

    theory = parse_theory(_load(args.theory))
    base = parse_structure(_load(args.base))
    target = parse_structure(_load(args.target))
    result = exponential_object(base, target)
    payload: dict[str, Any] = {
        "exponential": structure_to_jsonable(result.structure),
        "eval": dict(sorted(result.eval.mapping.items())),
        "is_model": check_model(result.structure, theory) is None,
    }
    code = OK
    if args.verify:
        family = default_test_family(theory.signature, args.max_q, args.cap, args.seed,
                                     theory=theory)
        report = verify_exponential(base, target, result, family)
        payload["verification"] = _verification_payload(report)
        code = OK if report.passed else NEGATIVE
    return payload, code


def cmd_partial_product(args) -> tuple[dict, int]:
    from .closure import partial_product, verify_partial_product
    from .families import default_test_family

    f = _load_morphism(args.morphism)
    y = parse_structure(_load(args.target))
    # the variant names the theory: the empty one (all structures) or the base one
    theory = f.source.signature.theory(args.variant == "refl")
    result: PartialProductResult = partial_product(theory, y, f)
    payload: dict[str, Any] = {
        "variant": result.variant,
        "P": structure_to_jsonable(result.structure),
        "p": dict(sorted(result.p.mapping.items())),
        "eval": dict(sorted(result.eval.mapping.items())),
    }
    code = OK
    if args.verify:
        family = default_test_family(theory.signature, args.max_q, args.cap, args.seed,
                                     theory=theory)
        report = verify_partial_product(f, y, result, family)
        payload["verification"] = _verification_payload(report)
        code = OK if report.passed else NEGATIVE
    return payload, code


def cmd_convexity(args) -> tuple[dict, int]:
    from .convexity import convexity_report, is_convex_via_lifting

    theory = parse_theory(_load(args.theory))
    f = _load_morphism(args.morphism)
    payload: dict[str, Any] = {"method": args.method}
    verdicts = {}
    if args.method in ("direct", "both"):
        report = convexity_report(f, theory)
        verdicts["direct"] = report.convex
        payload.update(_convexity_payload(report))
    if args.method in ("lifting", "both"):
        lifting = is_convex_via_lifting(f, theory)
        verdicts["lifting"] = lifting
        payload.setdefault("convex", lifting)
    payload["by_method"] = verdicts
    convex = all(verdicts.values())
    payload["convex"] = convex
    return payload, OK if convex else NEGATIVE


def cmd_safety(args) -> tuple[dict, int]:
    from .convexity import eligible_axioms, is_safe_axiom

    theory = parse_theory(_load(args.theory))
    axioms = eligible_axioms(theory)
    if args.axiom_index is not None:
        if not 0 <= args.axiom_index < len(axioms):
            raise ParseError(f"axiom index {args.axiom_index} out of range")
        axioms = (axioms[args.axiom_index],)
    results = []
    for ax in axioms:
        res = is_safe_axiom(ax, theory)
        results.append(
            {
                "axiom": formula_to_jsonable(ax),
                "safe": res.safe,
                "very_safe": res.very_safe,
                "witness": res.witness_dict(),
            }
        )
    return {"axioms": results}, OK


def cmd_schema_convexity(args) -> tuple[dict, int]:
    from .schema import is_schema_convex

    theory = parse_theory(_load(args.theory))
    f = _load_morphism(args.morphism)
    report = is_schema_convex(f, theory)
    payload: dict[str, Any] = {"convex": report.convex, "counterexample": None}
    if report.counterexample is not None:
        cex = report.counterexample
        payload["counterexample"] = {
            "schema": cex.schema,
            "labels": list(cex.labels),
            "valuation": dict(cex.valuation),
            "lifted": list(cex.lifted),
            "symbol": cex.symbol,
        }
    return payload, OK if report.convex else NEGATIVE


def cmd_schema_safety(args) -> tuple[dict, int]:
    from .schema import is_schema_safe

    theory = parse_theory(_load(args.theory))
    results = []
    for schema in theory.schemas:
        res = is_schema_safe(schema, theory)
        results.append(
            {
                "schema": schema.name,
                "safe": res.safe,
                "very_safe": res.very_safe,
                "meet_violation": None
                if res.meet_violation is None
                else {"labels": list(res.meet_violation[0]), "symbol": res.meet_violation[1]},
                "unsafe_labels": None
                if res.unsafe_labels is None
                else list(res.unsafe_labels),
                "witnesses": None
                if res.witnesses is None
                else {",".join(labels): dict(kappa) for labels, kappa in res.witnesses},
            }
        )
    return {"schemas": results}, OK


def cmd_classify(args) -> tuple[dict, int]:
    from .convexity import classify_theory

    theory = parse_theory(_load(args.theory))
    if theory.signature.order_kind == DISCRETE:
        cls = classify_theory(theory)
        payload = {
            "kind": "discrete",
            "classification": cls.classification,
            "reflexive": cls.reflexive,
            "has_equality": cls.has_equality,
            "cartesian_closed": cls.cartesian_closed,
            "locally_cartesian_closed": cls.locally_cartesian_closed,
            "quasitopos": cls.quasitopos,
            "axioms": [
                {"safe": r.safe, "very_safe": r.very_safe, "witness": r.witness_dict()}
                for r in cls.per_axiom
            ],
            "notes": list(cls.notes),
        }
    else:
        from .schema import classify_schematic_theory

        scls = classify_schematic_theory(theory)
        payload = {
            "kind": "schematic",
            "schematic": scls.schematic,
            "has_equality": scls.has_equality,
            "cartesian_closed": scls.cartesian_closed,
            "locally_cartesian_closed": scls.locally_cartesian_closed,
            "quasitopos": scls.quasitopos,
            "schemas": [
                {"schema": name, "safe": r.safe, "very_safe": r.very_safe}
                for name, r in scls.per_schema
            ],
            "notes": list(scls.notes),
        }
    return payload, OK


def cmd_quantale_check(args) -> tuple[dict, int]:
    from .quantale import is_heyting, is_total_order

    v = parse_quantale(_load(args.quantale))
    report = v.law_report()
    payload = {
        "ok": report.ok,
        "failures": [{"law": f.law, "witness": list(f.witness)} for f in report.failures],
        "heyting": is_heyting(v) if report.ok else False,
        "total_order": is_total_order(v),
    }
    return payload, OK if report.ok else NEGATIVE


def cmd_entails(args) -> tuple[dict, int]:
    from .semantics import entails

    theory = parse_theory(_load(args.theory))
    formula = parse_formula(_load(args.formula))
    result = entails(theory, formula)
    return {"entails": result}, OK if result else NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hornmod",
        description="finite-model checks for relational Horn theories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-model", help="verify a structure against a theory")
    p.add_argument("--theory", required=True)
    p.add_argument("--structure", required=True)
    p.set_defaults(func=cmd_check_model)

    p = sub.add_parser("free-model", help="saturate a structure under a theory")
    p.add_argument("--theory", required=True)
    p.add_argument("--structure", required=True)
    p.set_defaults(func=cmd_free_model)

    p = sub.add_parser("limit", help="compute a finite limit")
    p.add_argument("which", choices=["terminal", "product", "pullback", "equalizer"])
    p.add_argument("--signature")
    p.add_argument("--left")
    p.add_argument("--right")
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser(
        "exponential", help="the structure of maps with evaluation",
        description="Build the exponential Y^X of --base X and --target Y among the models "
                    "of their signature's base theory; neither needs to be a model. A "
                    "--theory over another signature is an input error.")
    p.add_argument("--theory", required=True,
                   help="chooses only the is_model check of the result and the --verify "
                        "test family (its models up to --max-q points)")
    p.add_argument("--base", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--max-q", type=int, default=2)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_exponential)

    p = sub.add_parser("partial-product", help="partial product of an object over a morphism")
    p.add_argument("--variant", choices=["str", "refl"], default="str")
    p.add_argument("--morphism", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--max-q", type=int, default=2)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_partial_product)

    p = sub.add_parser("convexity", help="convexity of a morphism of models")
    p.add_argument("--theory", required=True)
    p.add_argument("--morphism", required=True)
    p.add_argument("--method", choices=["direct", "lifting", "both"], default="direct")
    p.set_defaults(func=cmd_convexity)

    p = sub.add_parser("safety", help="safety of the theory's axioms")
    p.add_argument("--theory", required=True)
    p.add_argument("--axiom-index", type=int, default=None)
    p.set_defaults(func=cmd_safety)

    p = sub.add_parser("schema-convexity", help="schema convexity of a morphism")
    p.add_argument("--theory", required=True)
    p.add_argument("--morphism", required=True)
    p.set_defaults(func=cmd_schema_convexity)

    p = sub.add_parser("schema-safety", help="safety of the theory's axiom schemas")
    p.add_argument("--theory", required=True)
    p.set_defaults(func=cmd_schema_safety)

    p = sub.add_parser("classify", help="closure advisory for a theory")
    p.add_argument("--theory", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("quantale-check", help="law report for a quantale")
    p.add_argument("--quantale", required=True)
    p.set_defaults(func=cmd_quantale_check)

    p = sub.add_parser("entails", help="whether the theory entails a formula")
    p.add_argument("--theory", required=True)
    p.add_argument("--formula", required=True)
    p.set_defaults(func=cmd_entails)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "limit":
        needed = {"terminal": ["signature"], "product": ["left", "right"],
                  "pullback": ["left", "right"], "equalizer": ["left", "right"]}
        for name in needed[args.which]:
            if getattr(args, name) is None:
                parser.error(f"limit {args.which} requires --{name}")
    try:
        payload, code = args.func(args)
    except (ParseError, HornmodError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return INPUT_ERROR
    payload["format"] = 1
    payload["command"] = args.command
    sys.stdout.write(dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
