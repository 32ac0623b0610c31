"""JSON serialization of codes and their local structures.

A code file is versioned by its schema ("code/1"); the loader rejects
unknown fields so stale files fail loudly.  Field elements are plain ints,
so round-trips are bit-exact.

Every JSON output is written by `dump`: `json.dumps(indent=1,
sort_keys=True)`, with a Fraction as {"num", "den", "float"}, except a
code's matrix rows, which `json` writes as NaN and `dump` splices in; a
GF(2) `Mat` is written straight from its bit masks.  `load_code` checks
rows in that layout against the zero row's text, reads them into masks and
parses the rest as JSON, hashing a file of 1 MiB or more on a second thread.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import threading
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .code import BudgetExceeded, CodeParams, LinearCode
from .field import GF, field_make
from .matrix import Mat
from .mr_codes import LocalStructure

_INT = {int}

#: the most entries (rows x cols of the parity-check matrix) a code file may
#: hold: `code_to_json` raises BudgetExceeded above it, before any row is
#: made.  2 * 10^8 GF(2) entries are about 1.2 GB of code/1 text.
MAX_CODE_ENTRIES = 2 * 10 ** 8

#: `load_code` hashes a file of at least this many bytes on a second thread
HASH_THREAD_BYTES = 1 << 20


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
    Fraction stands for {"num", "den", "float"} and a `Mat` at the
    top-level "rows" for its rows as lists of ints."""
    out: List[bytes] = []
    dump(obj, out.append)
    return b"".join(out).decode()


def dump(obj, put) -> None:
    """Put the text of `dumps(obj)`, in order, as ASCII byte strings.

    With any indent the standard library's encoder emits every matrix entry
    as its own token, so a `Mat` at the top-level "rows" (`code_to_json`
    puts it there) is written by `json` as NaN, and the rows' text is
    spliced in at `\n "rows": NaN`: JSON strings hold no raw newline, so
    only that key gives this text, the stand-in `load_code` reads around.
    A GF(2) matrix is written straight from its bit masks, a GF(q) row with
    one `str.join`.  A `Mat` anywhere else is a TypeError, as in `json`.
    """
    rows = obj.get("rows") if isinstance(obj, dict) else None
    if not isinstance(rows, Mat):
        put(_json(obj).encode())
        return
    head, _, tail = _json({**obj, "rows": float("nan")}).partition(
        _ROWS_KEY + "NaN")
    put((head + _ROWS_KEY).encode())
    for piece in _rows_text(_bit_rows(rows.bits, rows.cols)
                            if rows.bits is not None else
                            map(_int_row, rows.data)):
        put(piece)
    put(tail.encode())


def _json(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True, default=_fraction)


def _fraction(v) -> dict:
    """`json`'s `default`: a Fraction as {"num", "den", "float"}; anything
    else it cannot write is a TypeError, as in `json`."""
    if isinstance(v, Fraction):
        return {"num": v.numerator, "den": v.denominator, "float": float(v)}
    raise TypeError(f"Object of type {type(v).__name__} is not JSON "
                    "serializable")


# `dump`'s layout of a code's top-level rows: this key, then the rows at
# depth 1 (each at depth 2, one entry a line at depth 3).
_ROWS_KEY = '\n "rows": '
_ROWS_AT, _ROW_AT = "\n ", "\n  "


def _rows_text(rows: Iterable[bytes]) -> Iterator[bytes]:
    """The text of the list at depth 1 whose items have the texts `rows`,
    in pieces: `[`, each row, the separators, `]`."""
    first = sep = ("[" + _ROW_AT).encode()
    for row in rows:
        yield sep
        yield row
        sep = ("," + _ROW_AT).encode()
    yield b"[]" if sep is first else (_ROWS_AT + "]").encode()


def _int_row(row: Sequence[int]) -> bytes:
    """The text of a row of ints at depth 2."""
    if not row:
        return b"[]"
    inner = _ROW_AT + " "
    return ("[" + inner + ("," + inner).join(map(str, row)) + _ROW_AT
            + "]").encode()


def _row_template(cols: int) -> Tuple[bytes, int, int]:
    """The text of an all-zero row of `cols` entries at depth 2, and the
    offset of its first digit and the step between digits."""
    inner = (_ROW_AT + " ").encode()
    text = (b"[" + inner + (b"," + inner).join([b"0"] * cols)
            + _ROW_AT.encode() + b"]")
    return text, 1 + len(inner), 2 + len(inner)


def _bit_rows(bits: Sequence[int], cols: int) -> Iterator[bytearray]:
    """The text of each bit row at depth 2: a copy of the zero row's text
    whose digits one extended-slice assignment sets.  After the last digit
    the template holds fewer bytes than a step, so the slice has exactly
    `cols` places."""
    if not cols:
        for _ in bits:
            yield bytearray(b"[]")
        return
    template, first, step = _row_template(cols)
    digits = f"0{cols}b"
    for v in bits:
        row = bytearray(template)
        row[first::step] = format(v, digits)[::-1].encode()
        yield row


def load_code(path: str) -> Tuple[LinearCode, str]:
    """The code in the file at `path`, and the SHA-256 of the file's bytes.

    A GF(2) file whose top-level `rows` are in `dump`'s layout, as `lrckit
    construct` writes them, has them read by `_read_bit_rows` and the rest
    parsed as JSON; any other file takes `code_from_json` whole.  Both ways
    accept the same files and reject the others with the same errors.  A
    file of HASH_THREAD_BYTES or more is hashed on a second thread meanwhile
    (`hashlib` lets go of the interpreter lock), or here if that one fails.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    digest: List[str] = []

    def hash_data() -> None:  # on an error, hashed again below, inline
        with contextlib.suppress(Exception):
            digest.append(hashlib.sha256(data).hexdigest())
    hasher = threading.Thread(target=hash_data)
    if len(data) >= HASH_THREAD_BYTES:
        with contextlib.suppress(RuntimeError):  # no thread to be had
            hasher.start()
    try:
        code = code_from_json(*(_gf2_code_file(data) or (_parse(data, path),)))
    finally:
        if hasher.is_alive():
            hasher.join()
    return code, digest[0] if digest else hashlib.sha256(data).hexdigest()


def _gf2_code_file(data: bytes) -> Optional[Tuple[dict, Mat]]:
    """(the file's JSON with its rows left out, its rows as a GF(2) `Mat`)
    if its field is GF(2) and its top-level rows are in `dump`'s layout;
    otherwise None."""
    key = data.find(_ROWS_KEY.encode())
    start = key + len(_ROWS_KEY)
    end = data.rfind((_ROWS_AT + "]").encode()) + len(_ROWS_AT) + 1
    if key < 0 or end <= start:
        return None
    # The rest of the file, NaN in place of the rows: the parse must meet
    # that NaN once, as the top-level "rows", or the rows were elsewhere.
    seen: List[str] = []
    try:
        obj = json.loads((data[:start] + b"NaN" + data[end:]).decode("utf-8"),
                         parse_constant=lambda c: seen.append(c) or seen)
    except ValueError:  # UnicodeDecodeError, JSONDecodeError
        return None
    if type(obj) is not dict or obj.get("rows") is not seen or len(seen) != 1:
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
    """(bit masks, cols) of the rows in `data[start:end]` if it is exactly
    `dump`'s text of them, else None.  The first row gives cols; each row
    and the separator after it, 1s made 0s, must be the zero row's text and
    that separator (only its digits are 0s); a strided slice reads a mask."""
    head, sep = ("[" + _ROW_AT).encode(), ("," + _ROW_AT).encode()
    top = start + len(head)
    # a row is "[" and c entries, c * (len(_ROW_AT) + 3) bytes, _ROW_AT, "]"
    cols = (data.find(b"]", top) - top) // (len(_ROW_AT) + 3)
    zero, first, step = _row_template(cols)
    stride, last = len(zero) + len(sep), first + (cols - 1) * step
    # the last row is closed by _ROWS_AT + "]", a byte shorter than sep
    if (cols < 1 or not data.startswith(head, start)
            or (end - top + 1) % stride):
        return None
    between, closing = zero + sep, zero + (_ROWS_AT + "]").encode()
    bits = []
    for at in range(top, end, stride):
        text = between if at + stride < end else closing
        if data[at:at + len(text)].replace(b"1", b"0") != text:
            return None
        bits.append(int(data[at + last:at + first - 1:-step], 2))
    return bits, cols


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
