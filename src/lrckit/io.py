"""JSON serialization: matrices, codes, graphs, local structures.

Schemas are versioned ("matrix/1", "code/1", "graph/1"); loaders reject
unknown fields so stale files fail loudly.  Matrix round-trips are bit-exact
(field elements are plain ints).
"""

from __future__ import annotations

import json
from typing import List

from .code import CodeParams, LinearCode
from .field import GF, field_make
from .graphs import Graph
from .matrix import Mat
from .mr_codes import LocalStructure

_INT = {int}


class SchemaError(ValueError):
    """A malformed input file (docs/schemas.md, Errors)."""


_OPT = type(None)  # in a field's types: the field may be left out
_OPT_INT = (int, _OPT)


def _check_fields(obj: dict, kinds: dict, what: str) -> None:
    """SchemaError unless `obj` is an object whose fields are keys of
    `kinds`, each of a type listed there (`_OPT` among them: the field may
    be left out; None in place of the types: any value)."""
    if type(obj) is not dict:
        raise SchemaError(f"{what} must be an object, got {obj!r}")
    unknown = set(obj) - set(kinds)
    if unknown:
        raise SchemaError(f"unknown fields in {what}: {sorted(unknown)}")
    for key, types in kinds.items():
        if types is not None and type(obj.get(key)) not in types:
            raise SchemaError(f"malformed {what}.{key}: {obj[key]!r}"
                              if key in obj else f"{what} has no {key}")


def field_to_json(gf: GF) -> dict:
    return {"p": gf.p, "m": gf.m, "modulus": list(gf.modulus)}


def field_from_json(obj: dict) -> GF:
    _check_fields(obj, {"p": (int,), "m": _OPT_INT,
                        "modulus": (list, _OPT)}, "field")
    m = obj.get("m")
    if m is None or m == 1:
        return field_make(obj["p"])
    return field_make(obj["p"], m, obj.get("modulus") or None)


def matrix_to_json(M: Mat) -> dict:
    return {"schema": "matrix/1", "field": field_to_json(M.gf),
            "rows": M.to_lists(), "cols": M.cols}


def matrix_from_json(obj: dict) -> Mat:
    _check_fields(obj, {"schema": None, "field": (dict,), "rows": (list,),
                        "cols": _OPT_INT, "manifest": None}, "matrix")
    if obj.get("schema") != "matrix/1":
        raise SchemaError(f"unsupported matrix schema {obj.get('schema')}")
    gf = field_from_json(obj["field"])
    return Mat(gf, obj["rows"], cols=obj.get("cols"))


def structure_to_json(s: LocalStructure) -> dict:
    return {"groups": [list(g) for g in s.groups], "delta": s.delta}


def structure_from_json(obj: dict) -> LocalStructure:
    _check_fields(obj, {"groups": (list,), "delta": _OPT_INT},
                  "local_structure")
    if any(type(g) is not list or set(map(type, g)) - _INT
           for g in obj["groups"]):
        raise SchemaError(f"malformed local_structure.groups: "
                          f"{obj['groups']!r}")
    try:
        return LocalStructure(tuple(tuple(g) for g in obj["groups"]),
                              delta=obj.get("delta", 1))
    except ValueError as e:
        raise SchemaError(f"local_structure: {e}") from None


def code_to_json(code: LinearCode) -> dict:
    out = {"schema": "code/1", "field": field_to_json(code.gf),
           "rows": code.H.to_lists(), "cols": code.n}
    if code.params is not None:
        out["params"] = code.params.as_dict()
    prov = {k: v for k, v in code.provenance.items()
            if k != "local_structure"}
    if prov:
        out["provenance"] = prov
    structure = code.provenance.get("local_structure")
    if structure is not None:
        out["local_structure"] = structure_to_json(structure)
    return out


def code_from_json(obj: dict) -> LinearCode:
    _check_fields(obj, {"schema": None, "field": (dict,), "rows": (list,),
                        "cols": _OPT_INT, "params": None,
                        "provenance": (dict, _OPT), "local_structure": None,
                        "manifest": None, "verdict": None}, "code")
    if obj.get("schema") != "code/1":
        raise SchemaError(f"unsupported code schema {obj.get('schema')}")
    gf = field_from_json(obj["field"])
    H = Mat(gf, obj["rows"], cols=obj.get("cols"))
    params = None
    if "params" in obj:
        _check_fields(obj["params"], dict(
            n=(int,), k=(int,), r=_OPT_INT, t=_OPT_INT, d_min=_OPT_INT,
            q=_OPT_INT, role=(str, _OPT)), "params")
        params = CodeParams(**obj["params"])
    provenance = dict(obj.get("provenance") or {})
    if "local_structure" in obj:
        provenance["local_structure"] = structure_from_json(
            obj["local_structure"])
    return LinearCode(H, params=params, provenance=provenance)


def graph_to_json(g: Graph) -> dict:
    return {"schema": "graph/1", "nodes": g.node_count,
            "edges": [list(e) for e in g.edges],
            "labels": {k: list(v) for k, v in g.labels.items()}}


def graph_from_json(obj: dict) -> Graph:
    _check_fields(obj, {"schema": None, "nodes": (int,), "edges": (list,),
                        "labels": (dict, _OPT), "manifest": None}, "graph")
    if obj.get("schema") != "graph/1":
        raise SchemaError(f"unsupported graph schema {obj.get('schema')}")
    return Graph(obj["nodes"], [tuple(e) for e in obj["edges"]],
                 labels=obj.get("labels"))


def dumps(obj) -> str:
    """`json.dumps(obj, indent=1, sort_keys=True)`, byte for byte.

    With any indent the standard library falls back to its pure-Python
    encoder, which emits every matrix entry as its own token.  Here a list
    of plain ints is written with one `str.join`, and only keys and other
    scalars go through `json.dumps`.
    """
    out: List[str] = []
    _write(obj, "\n", out.append)
    return "".join(out)


def _write(obj, newline: str, put) -> None:
    if isinstance(obj, (list, tuple)):
        if not obj:
            put("[]")
            return
        inner = newline + " "
        if set(map(type, obj)) == _INT:
            put("[" + inner + ("," + inner).join(map(str, obj)) + newline
                + "]")
            return
        sep = "[" + inner
        for x in obj:
            put(sep)
            _write(x, inner, put)
            sep = "," + inner
        put(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        inner = newline + " "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                if key is not None and not isinstance(key, (int, float)):
                    raise TypeError("keys must be str, int, float, bool or "
                                    f"None, not {type(key).__name__}")
                key = json.dumps(key)  # 1 -> "1", True -> "true", as json
            put(sep + json.dumps(key) + ": ")
            _write(value, inner, put)
            sep = "," + inner
        put(newline + "}")
    else:
        put(json.dumps(obj))


def load(path: str) -> dict:
    """The JSON value in the file at `path`; SchemaError if its bytes are
    not UTF-8 JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as e:  # UnicodeDecodeError, JSONDecodeError
            raise SchemaError(f"{path} is not UTF-8 JSON: {e}") from None
