"""JSON serialization of codes and their local structures.

A code file is versioned by its schema ("code/1"); the loader rejects
unknown fields so stale files fail loudly.  Field elements are plain ints,
so round-trips are bit-exact.

GF(2) parity checks go between bit rows and text with no dense lists: `dump`
writes a GF(2) `Mat` straight from its bit masks, and `load_code` reads rows
in exactly that layout back into bit masks, parsing only the rest of the
file as JSON.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterator, List, Optional, Sequence, Tuple

from .code import BudgetExceeded, CodeParams, LinearCode
from .field import GF, field_make
from .matrix import Mat
from .mr_codes import LocalStructure

_INT = {int}

#: the most entries (rows x cols of the parity-check matrix) a code file may
#: hold: `code_to_json` raises BudgetExceeded above it, before any row is
#: made.  2 * 10^8 GF(2) entries are about 1.2 GB of code/1 text.
MAX_CODE_ENTRIES = 2 * 10 ** 8


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
    """The code/1 payload of `code`, with the matrix H itself in `rows`;
    `dump` writes it as lists of ints.  BudgetExceeded if H has more than
    MAX_CODE_ENTRIES entries."""
    H = code.H
    if H.rows * H.cols > MAX_CODE_ENTRIES:
        raise BudgetExceeded(
            f"the parity-check matrix has {H.rows} x {H.cols} = "
            f"{H.rows * H.cols} entries, above MAX_CODE_ENTRIES = "
            f"{MAX_CODE_ENTRIES}")
    out = {"schema": "code/1", "field": field_to_json(code.gf),
           "rows": H, "cols": code.n}
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


def code_from_json(obj: dict, H: Optional[Mat] = None) -> LinearCode:
    """The code of a code/1 payload, as `json.loads` gives it.  `H`, when
    given, is the matrix of its rows, already read by `load_code`, and
    `obj["rows"]` only stands in for it.  SchemaError for a code of length
    0."""
    _check_fields(obj, {"schema": None, "field": (dict,), "rows": (list,),
                        "cols": _OPT_INT, "params": None,
                        "provenance": (dict, _OPT), "local_structure": None,
                        "manifest": None, "verdict": None}, "code")
    if obj.get("schema") != "code/1":
        raise SchemaError(f"unsupported code schema {obj.get('schema')}")
    gf = field_from_json(obj["field"])
    if H is None:
        H = Mat(gf, obj["rows"], cols=obj.get("cols"))
    if not H.cols:
        raise SchemaError("a code needs at least one coordinate, got cols 0")
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


def dumps(obj) -> str:
    """`json.dumps(obj, indent=1, sort_keys=True)`, byte for byte, where a
    `Mat` in `obj` stands for its rows as lists of ints.

    With any indent the standard library falls back to its pure-Python
    encoder, which emits every matrix entry as its own token.  Here a list
    of plain ints is written with one `str.join`, a GF(2) `Mat` straight
    from its bit masks, and only keys and other scalars go through
    `json.dumps`.
    """
    out: List[bytes] = []
    dump(obj, out.append)
    return b"".join(out).decode()


def dump(obj, put) -> None:
    """Put the text of `dumps(obj)`, in order, as ASCII byte strings."""
    _write(obj, "\n", put)


def _write(obj, newline: str, put) -> None:
    if isinstance(obj, Mat):
        if obj.bits is None:
            _write(obj.data, newline, put)
        else:
            for piece in _bit_matrix(obj.bits, obj.cols, newline):
                put(piece)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            put(b"[]")
            return
        inner = newline + " "
        if set(map(type, obj)) == _INT:
            put(("[" + inner + ("," + inner).join(map(str, obj)) + newline
                 + "]").encode())
            return
        sep = "[" + inner
        for x in obj:
            put(sep.encode())
            _write(x, inner, put)
            sep = "," + inner
        put((newline + "]").encode())
    elif isinstance(obj, dict):
        if not obj:
            put(b"{}")
            return
        inner = newline + " "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                if key is not None and not isinstance(key, (int, float)):
                    raise TypeError("keys must be str, int, float, bool or "
                                    f"None, not {type(key).__name__}")
                key = json.dumps(key)  # 1 -> "1", True -> "true", as json
            put((sep + json.dumps(key) + ": ").encode())
            _write(value, inner, put)
            sep = "," + inner
        put((newline + "}").encode())
    else:
        put(json.dumps(obj).encode())


def _bit_matrix(bits: Sequence[int], cols: int,
                newline: str) -> Iterator[bytes]:
    """The text of the GF(2) matrix with rows `bits` as `_write` writes its
    lists at `newline`, in pieces: `[`, each row, the separators, `]`."""
    if not bits:
        yield b"[]"
        return
    inner = newline + " "
    sep = ("[" + inner).encode()
    for row in _bit_rows(bits, cols, inner):
        yield sep
        yield row
        sep = ("," + inner).encode()
    yield (newline + "]").encode()


def _row_template(cols: int, newline: str) -> Tuple[bytes, int, int]:
    """The text of an all-zero row of `cols` entries at `newline`, and the
    offset of its first digit and the step between digits."""
    inner = (newline + " ").encode()
    text = (b"[" + inner + (b"," + inner).join([b"0"] * cols)
            + newline.encode() + b"]")
    return text, 1 + len(inner), 2 + len(inner)


def _bit_rows(bits: Sequence[int], cols: int,
              newline: str) -> Iterator[bytearray]:
    """The text of each bit row at `newline`: a copy of the zero row's text
    whose digits one extended-slice assignment sets.  After the last digit
    the template holds fewer bytes than a step, so the slice has exactly
    `cols` places."""
    if not cols:
        for _ in bits:
            yield bytearray(b"[]")
        return
    template, first, step = _row_template(cols, newline)
    digits = f"0{cols}b"
    for v in bits:
        row = bytearray(template)
        row[first::step] = format(v, digits)[::-1].encode()
        yield row


# `dump`'s layout of a code's top-level rows: this key, then the rows at
# depth 1 (each at depth 2, one entry a line at depth 3).
_ROWS_KEY = b'\n "rows": '
_ROWS_AT, _ROW_AT = "\n ", "\n  "


def load_code(path: str) -> Tuple[LinearCode, str]:
    """The code in the file at `path`, and the SHA-256 of the file's bytes.

    The file is read once, as bytes.  If its field is GF(2) and its
    top-level `rows` are exactly in `dump`'s layout, as `lrckit construct`
    writes them, the rows become bit masks without being parsed as JSON,
    and only the rest of the file goes through `json.loads` and the checks
    of `code_from_json`.  Any other field or layout takes `code_from_json`
    on the whole file, so both ways accept the same files and reject the
    others with the same errors.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    fast = _gf2_code_file(data)
    if fast is None:
        return code_from_json(_parse(data, path)), digest
    return code_from_json(*fast), digest


def _gf2_code_file(data: bytes) -> Optional[Tuple[dict, Mat]]:
    """(the file's JSON with its rows left out, its rows as a GF(2) `Mat`)
    if its field is GF(2) and its top-level rows are in `dump`'s layout;
    otherwise None."""
    key = data.find(_ROWS_KEY)
    if key < 0:
        return None
    start = key + len(_ROWS_KEY)
    end = data.rfind((_ROWS_AT + "]").encode()) + len(_ROWS_AT) + 1
    if end <= start:
        return None
    # The rest of the file, with NaN standing in for the rows: the parse
    # must meet that NaN once, as the value of the top-level "rows", else
    # the rows were not where they were looked for.
    stand_in: List[str] = []

    def constant(name: str) -> list:
        stand_in.append(name)
        return stand_in

    try:
        obj = json.loads((data[:start] + b"NaN" + data[end:]).decode("utf-8"),
                         parse_constant=constant)
    except ValueError:  # UnicodeDecodeError, JSONDecodeError
        return None
    if (type(obj) is not dict or obj.get("rows") is not stand_in
            or len(stand_in) != 1):
        return None
    field = obj.get("field")
    if (type(field) is not dict or field.get("p") != 2
            or field.get("m") not in (None, 1)):
        return None
    read = _read_bit_rows(data, start, end)
    if read is None or obj.get("cols", read[1]) != read[1]:
        return None
    return obj, Mat.from_bits(field_make(2), *read)


def _read_bit_rows(data: bytes, start: int,
                   end: int) -> Optional[Tuple[List[int], int]]:
    """(bit masks, cols) of the rows that `data[start:end]` holds, if it is
    exactly the text `_bit_matrix` makes of them at depth 1: the first row's
    length gives cols, each row's digits its mask, and the text rebuilt from
    the masks must be the bytes read.  Otherwise None."""
    head, sep = len("[" + _ROW_AT), len("," + _ROW_AT)
    # a row of c entries is c * (len(_ROW_AT) + 3) + len(_ROW_AT) + 1 bytes
    size = data.find((_ROW_AT + "]").encode(), start) + len(_ROW_AT) + 1 \
        - (start + head)
    cols = (size - len(_ROW_AT) - 1) // (len(_ROW_AT) + 3)
    if cols < 1:
        return None
    _, first, step = _row_template(cols, _ROW_AT)
    bits = []
    for at in range(start + head, end, size + sep):
        digits = data[at + first:at + size:step]
        if digits.translate(None, b"01"):
            return None
        bits.append(int(digits[::-1], 2))
    at = start
    for piece in _bit_matrix(bits, cols, _ROWS_AT):
        if not data.startswith(piece, at):
            return None
        at += len(piece)
    return (bits, cols) if at == end else None


def _parse(data: bytes, path: str):
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as e:  # UnicodeDecodeError, JSONDecodeError
        raise SchemaError(f"{path} is not UTF-8 JSON: {e}") from None


def load(path: str) -> dict:
    """The JSON value in the file at `path`; SchemaError if its bytes are
    not UTF-8 JSON."""
    with open(path, "rb") as fh:
        return _parse(fh.read(), path)
