"""JSON documents for signatures, structures, morphisms, theories and quantales.

Serialization is canonical (all lists sorted) and round-trips: parsing the
output of ``to_jsonable`` reproduces an equal value.  Every document carries
``"format": 1``.  Parsing checks the JSON type of every field it reads, so a
malformed document raises :class:`ParseError` and nothing else.
"""
from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Mapping, Optional

from .core import (
    DISCRETE,
    EXPLICIT,
    QUANTALE,
    Edge,
    Equality,
    HornFormula,
    HornmodError,
    Morphism,
    RelationSymbol,
    Signature,
    Structure,
    Theory,
    horn,
)

if TYPE_CHECKING:
    from .quantale import Quantale
    from .schema import AxiomSchema

FORMAT = 1


class ParseError(HornmodError):
    pass


_JSON_NAMES = {
    dict: "an object", list: "a list", str: "a string", int: "an integer",
    bool: "a boolean", float: "a number", type(None): "null",
}


def _shape(value: Any, kind: type, what: str) -> Any:
    """``value`` itself, if it has the JSON type ``kind``; otherwise a ParseError."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        got = _JSON_NAMES.get(type(value), type(value).__name__)
        raise ParseError(f"{what} must be {_JSON_NAMES[kind]}, got {got}")
    return value


def _strings(value: Any, what: str) -> tuple[str, ...]:
    return tuple(_shape(v, str, f"each entry of {what}") for v in _shape(value, list, what))


def _pairs(value: Any, what: str) -> tuple[tuple[str, str], ...]:
    out = []
    for pair in _shape(value, list, what):
        items = _strings(pair, f"each entry of {what}")
        if len(items) != 2:
            raise ParseError(f"each entry of {what} must be a pair, got {len(items)} items")
        out.append((items[0], items[1]))
    return tuple(out)


def _expect(doc: Mapping[str, Any], key: str, what: str, kind: Optional[type] = None) -> Any:
    if key not in doc:
        raise ParseError(f"{what} document is missing the {key!r} field")
    if kind is None:
        return doc[key]
    return _shape(doc[key], kind, f"{what} field {key!r}")


def _check_format(doc: Any, what: str) -> None:
    _shape(doc, dict, f"{what} document")
    if doc.get("format", FORMAT) != FORMAT:
        raise ParseError(f"unsupported {what} format {doc.get('format')!r}")


def quantale_to_jsonable(v: Quantale) -> dict:
    return {
        "format": FORMAT,
        "elements": list(v.elements),
        "leq": [list(p) for p in v.leq_pairs],
        "tensor": {f"{a},{b}": c for a, b, c in v.tensor_pairs},
        "unit": v.unit,
    }


def parse_quantale(doc: Mapping[str, Any]) -> Quantale:
    from .quantale import Quantale

    _check_format(doc, "quantale")
    tensor = []
    for key, value in _expect(doc, "tensor", "quantale", dict).items():
        parts = key.split(",")
        if len(parts) != 2:
            raise ParseError(f"tensor key {key!r} is not of the form 'a,b'")
        tensor.append((parts[0], parts[1], _shape(value, str, f"tensor entry {key!r}")))
    return Quantale(
        elements=_strings(_expect(doc, "elements", "quantale"), "quantale field 'elements'"),
        leq_pairs=_pairs(_expect(doc, "leq", "quantale"), "quantale field 'leq'"),
        tensor_pairs=tuple(tensor),
        unit=_expect(doc, "unit", "quantale", str),
    )


def signature_to_jsonable(sig: Signature) -> dict:
    order: dict[str, Any] = {"kind": sig.order_kind}
    if sig.order_kind == EXPLICIT:
        order["pairs"] = [list(p) for p in sig.order_pairs]
    if sig.order_kind == QUANTALE:
        assert sig.quantale is not None
        order["quantale"] = quantale_to_jsonable(sig.quantale)
    return {
        "format": FORMAT,
        "symbols": [{"name": s.name, "arity": s.arity} for s in sig.symbols],
        "order": order,
    }


def parse_signature(doc: Mapping[str, Any]) -> Signature:
    _check_format(doc, "signature")
    symbols = []
    for s in _expect(doc, "symbols", "signature", list):
        _shape(s, dict, "symbol")
        symbols.append(RelationSymbol(_expect(s, "name", "symbol", str),
                                      _expect(s, "arity", "symbol", int)))
    order = _shape(doc.get("order", {"kind": DISCRETE}), dict, "signature field 'order'")
    kind = _shape(order.get("kind", DISCRETE), str, "order field 'kind'")
    if kind == QUANTALE:
        return Signature(tuple(symbols), QUANTALE, (),
                         parse_quantale(_expect(order, "quantale", "order")))
    pairs = _pairs(order.get("pairs", []), "order field 'pairs'")
    return Signature(tuple(symbols), kind, pairs, None)


def _edge_to_jsonable(e: Edge) -> dict:
    return {"symbol": e.symbol, "args": list(e.args)}


def _parse_edge(doc: Any) -> Edge:
    _shape(doc, dict, "edge")
    return Edge(_expect(doc, "symbol", "edge", str),
                _strings(_expect(doc, "args", "edge"), "edge field 'args'"))


def structure_to_jsonable(x: Structure) -> dict:
    return {
        "format": FORMAT,
        "signature": signature_to_jsonable(x.signature),
        "carrier": list(x.sorted_carrier()),
        "edges": [_edge_to_jsonable(e) for e in x.sorted_edges()],
    }


def parse_structure(doc: Mapping[str, Any]) -> Structure:
    _check_format(doc, "structure")
    sig = parse_signature(_expect(doc, "signature", "structure"))
    carrier = _strings(_expect(doc, "carrier", "structure"), "structure field 'carrier'")
    edges = [_parse_edge(e) for e in _expect(doc, "edges", "structure", list)]
    return Structure(sig, carrier, edges)


def morphism_to_jsonable(h: Morphism) -> dict:
    return {
        "format": FORMAT,
        "source": structure_to_jsonable(h.source),
        "target": structure_to_jsonable(h.target),
        "map": dict(sorted(h.mapping.items())),
    }


def parse_morphism(doc: Mapping[str, Any]) -> Morphism:
    _check_format(doc, "morphism")
    return Morphism(
        parse_structure(_expect(doc, "source", "morphism")),
        parse_structure(_expect(doc, "target", "morphism")),
        {k: _shape(v, str, f"map entry {k!r}")
         for k, v in _expect(doc, "map", "morphism", dict).items()},
    )


def formula_to_jsonable(f: HornFormula) -> dict:
    if isinstance(f.conclusion, Equality):
        conclusion: dict[str, Any] = {"equal": [f.conclusion.left, f.conclusion.right]}
    else:
        conclusion = {"edge": _edge_to_jsonable(f.conclusion)}
    return {
        "premises": [_edge_to_jsonable(e) for e in f.sorted_premises()],
        "conclusion": conclusion,
    }


def parse_formula(doc: Any) -> HornFormula:
    _shape(doc, dict, "formula document")
    premises = [_parse_edge(e) for e in _expect(doc, "premises", "formula", list)]
    concl = _expect(doc, "conclusion", "formula", dict)
    if "equal" in concl:
        pair = _strings(concl["equal"], "conclusion field 'equal'")
        if len(pair) != 2:
            raise ParseError(f"conclusion field 'equal' must name two variables, got {len(pair)}")
        return horn(premises, Equality(*pair))
    if "edge" in concl:
        return horn(premises, _parse_edge(concl["edge"]))
    raise ParseError("formula conclusion must be an 'edge' or an 'equal' pair")


def schema_to_jsonable(s: AxiomSchema) -> dict:
    from .schema import (
        ConstantSymbol,
        PremiseProjection,
        TensorComposite,
        generalized_transitivity_schema,
        symmetry_schema,
    )

    # Only the builtin values, not any schema that shares a builtin's name.
    if s in (generalized_transitivity_schema(), symmetry_schema()):
        return {"schema": s.name}
    combine: dict[str, Any]
    if isinstance(s.combine, TensorComposite):
        combine = {"tensor": True}
    elif isinstance(s.combine, PremiseProjection):
        combine = {"projection": s.combine.index}
    elif isinstance(s.combine, ConstantSymbol):
        combine = {"constant": s.combine.symbol}
    else:
        combine = {"table": {",".join(k): v for k, v in s.combine.entries}}
    return {
        "schema": {
            "name": s.name,
            "arity": s.arity,
            "premises": [list(p.args) for p in s.premises],
            "conclusion": list(s.conclusion.args),
            "combine": combine,
            "monotone": s.monotone,
        }
    }


def parse_schema(doc: Any) -> AxiomSchema:
    from .schema import (
        PLACEHOLDER,
        AxiomSchema,
        ConstantSymbol,
        ExplicitTable,
        PremiseProjection,
        TensorComposite,
        generalized_transitivity_schema,
        symmetry_schema,
    )

    _shape(doc, dict, "schema document")
    body = _expect(doc, "schema", "schema")
    if body == "generalized_transitivity":
        return generalized_transitivity_schema()
    if body == "symmetry":
        return symmetry_schema()
    if isinstance(body, str):
        raise ParseError(f"unknown builtin schema {body!r}")
    _shape(body, dict, "schema field 'schema'")
    combine_doc = _expect(body, "combine", "schema", dict)
    if "tensor" in combine_doc:
        combine: Any = TensorComposite()
    elif "projection" in combine_doc:
        combine = PremiseProjection(_expect(combine_doc, "projection", "combine", int))
    elif "constant" in combine_doc:
        combine = ConstantSymbol(_expect(combine_doc, "constant", "combine", str))
    elif "table" in combine_doc:
        table = _expect(combine_doc, "table", "combine", dict)
        combine = ExplicitTable(
            tuple(
                (tuple(k.split(",")), _shape(v, str, f"table entry {k!r}"))
                for k, v in sorted(table.items())
            )
        )
    else:
        raise ParseError("schema combine must be tensor/projection/constant/table")
    premises = _expect(body, "premises", "schema", list)
    return AxiomSchema(
        name=_shape(body.get("name", "custom"), str, "schema field 'name'"),
        arity=_expect(body, "arity", "schema", int),
        premises=tuple(
            Edge(PLACEHOLDER, _strings(args, "each schema premise")) for args in premises
        ),
        conclusion=Edge(PLACEHOLDER, _strings(_expect(body, "conclusion", "schema"),
                                              "schema field 'conclusion'")),
        combine=combine,
        monotone=_shape(body.get("monotone", True), bool, "schema field 'monotone'"),
    )


def theory_to_jsonable(t: Theory) -> dict:
    return {
        "format": FORMAT,
        "signature": signature_to_jsonable(t.signature),
        "axioms": [formula_to_jsonable(a) for a in t.axioms],
        "schemas": [schema_to_jsonable(s) for s in t.schemas],
        "base": t.base_flag,
    }


def parse_theory(doc: Mapping[str, Any]) -> Theory:
    _check_format(doc, "theory")
    sig = parse_signature(_expect(doc, "signature", "theory"))
    axioms = tuple(parse_formula(a) for a in _expect(doc, "axioms", "theory", list))
    schemas = tuple(
        parse_schema(s) for s in _shape(doc.get("schemas", []), list, "theory field 'schemas'")
    )
    return Theory(sig, axioms, schemas, _shape(doc.get("base", True), bool, "theory field 'base'"))


def dumps(payload: Any) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=True) + "\n"
