"""The GF(2) code-file codec.

`io.dump` writes a GF(2) `Mat` straight from its bit rows, and
`io.load_code` reads rows in exactly that layout back into bit rows,
parsing only the rest of the file as JSON.  Both are held to the plain
path: the writer to `json.dumps(indent=1, sort_keys=True)` of the lists,
byte for byte, and the reader to `io.load` -> `code_from_json`, which must
give the same code or fail with the same error on every file.  The digest
`io.load_code` returns, hashed on a second thread for a file of 1 MiB or
more, must be the SHA-256 of the file's bytes either way.
"""

import hashlib
import json
import random
import sys
import threading
import time
from fractions import Fraction

import pytest

from lrckit import io as lio
from lrckit.cli import main
from lrckit.code import LinearCode
from lrckit.field import field_make
from lrckit.matrix import Mat

from test_io_cli import CONSTRUCT_FAMILIES, _dumps_reference

GF2 = field_make(2)


def _outcome(read, path):
    """What reading `path` gives: the code's matrix, parameters, provenance
    and dimension, or the error's kind and message."""
    try:
        code = read(path)
    except Exception as e:
        return type(e).__name__, str(e)
    H = code.H
    return (H.gf, H.rows, H.cols, H.bits, H.bits is None and H.data,
            code.params, code.provenance, code.k)


def _fast(path):
    return lio.load_code(path)[0]


def _plain(path):
    return lio.code_from_json(lio.load(path))


@pytest.fixture
def plain_reads(monkeypatch):
    """How many times `code_from_json` runs on rows it parses itself, that
    is, the plain path."""
    calls = []
    real = lio.code_from_json

    def counted(obj, H=None):
        if H is None:
            calls.append(1)
        return real(obj, H)

    monkeypatch.setattr(lio, "code_from_json", counted)
    return calls


def _differ(path, plain_reads):
    """The reader's and the plain path's outcomes on `path`, and whether
    the reader took the plain path."""
    fast = _outcome(_fast, path)
    took_plain = bool(plain_reads)
    return fast, _outcome(_plain, path), took_plain


@pytest.mark.parametrize("args", CONSTRUCT_FAMILIES)
def test_reader_matches_plain_path_on_every_family(tmp_path, plain_reads,
                                                   args):
    path = str(tmp_path / "code.json")
    assert main(["construct"] + args.split() + ["--out", path]) == 0
    fast, plain, took_plain = _differ(path, plain_reads)
    assert fast == plain
    assert not isinstance(fast[0], str)
    # GF(2) files take the bit-row reader, the others the plain path
    assert took_plain is (fast[0] != GF2)


@pytest.fixture(scope="module")
def petersen(tmp_path_factory):
    path = tmp_path_factory.mktemp("codec") / "petersen.json"
    assert main(["construct", "moore", "--r", "2", "--t", "4",
                 "--out", str(path)]) == 0
    return path.read_bytes()


def _rows_span(data):
    start = data.index(b'\n "rows": ') + len(b'\n "rows": ')
    return start, data.index(b"\n ]", start) + 3


def _digit(rng, data, digits=b"01"):
    start, end = _rows_span(data)
    return rng.choice([i for i in range(start, end) if data[i] in digits])


def _at(rng, data, byte):
    start, end = _rows_span(data)
    return rng.choice([i for i in range(start, end) if data[i] == byte])


def _frame(rng, data):
    """A byte around the digits of the rows, set to another of the bytes
    the rows' text is made of: the positions of the digits stay."""
    i = _at(rng, data, rng.choice(b" ,\n[]"))
    return _replace(data, i, bytes([rng.choice(
        [b for b in b" ,\n[]1" if b != data[i]])]))


def _replace(data, i, new):
    return data[:i] + new + data[i + 1:]


OTHER_ROWS = b'"rows": [[1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]], '

# Edits of the Petersen code file at a place a seeded Random picks.
SEEDED = {
    "digit 2": lambda d, rng: _replace(d, _digit(rng, d), b"2"),
    "true for 1": lambda d, rng: _replace(d, _digit(rng, d, b"1"), b"true"),
    "extra space": lambda d, rng: _replace(d, _at(rng, d, 32), b"  "),
    "missing space": lambda d, rng: _replace(d, _at(rng, d, 32), b""),
    "missing comma": lambda d, rng: _replace(d, _at(rng, d, 44), b""),
    "truncated": lambda d, rng: d[:rng.randrange(len(d))],
    # int(digits, 2) would take a row's digits, read last to first, with a
    # sign in front
    "sign": lambda d, rng: _replace(d, rng.choice(
        [i - 1 for i in range(*_rows_span(d)) if d.startswith(b"\n  ]", i)]),
        b"-"),
    "frame byte": lambda d, rng: _frame(rng, d),
    "any byte": lambda d, rng: _replace(d, rng.randrange(len(d)),
                                        bytes([rng.choice(b'0 1,[]\n"2-+_')])),
}

# Edits of the Petersen code file with one place each.
FIXED = {
    "CRLF": lambda d: d.replace(b"\n", b"\r\n"),
    "BOM": lambda d: b"\xef\xbb\xbf" + d,
    "second rows before": lambda d: d.replace(b"{", b"{" + OTHER_ROWS, 1),
    "second rows after": lambda d: d.replace(b'"schema"',
                                             OTHER_ROWS + b'"schema"'),
    "second rows NaN after": lambda d: d.replace(
        b'"schema"', b'"rows": NaN, "schema"'),
    "cols disagree": lambda d: d.replace(b'"cols": 15', b'"cols": 14'),
    "field GF(3)": lambda d: d.replace(b'"p": 2', b'"p": 3'),
    "row of no entries": lambda d: d.replace(d[slice(*_rows_span(d))],
                                             b"[\n  [\n  ]\n ]"),
    # "schema" first, so that the rows end the object; they close on an
    # empty row slot, and "}" ends the file: the slot has no digits at all
    "empty last row slot": lambda d: d.replace(
        b"{", b'{"schema": "code/1", ', 1).replace(
        b'\n  ]\n ],\n "schema": "code/1"\n}\n', b"\n  ],\n  \n ]}"),
}


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("edit", SEEDED.values(), ids=list(SEEDED))
def test_reader_matches_plain_path_on_seeded_edits(tmp_path, plain_reads,
                                                   petersen, edit, seed):
    path = tmp_path / "bad.json"
    path.write_bytes(edit(petersen, random.Random(seed)))
    fast, plain, _ = _differ(str(path), plain_reads)
    assert fast == plain


@pytest.mark.parametrize("edit", FIXED.values(), ids=list(FIXED))
def test_reader_matches_plain_path_on_fixed_edits(tmp_path, plain_reads,
                                                  petersen, edit):
    path = tmp_path / "bad.json"
    path.write_bytes(edit(petersen))
    fast, plain, _ = _differ(str(path), plain_reads)
    assert fast == plain


def test_reader_takes_the_last_rows_as_json_does(tmp_path, plain_reads,
                                                 petersen):
    """A "rows" key before the written one is overridden by it, so the
    bit-row reader may read the file; one after it overrides the written
    rows, so the file takes the plain path."""
    path = tmp_path / "twice.json"
    path.write_bytes(FIXED["second rows before"](petersen))
    fast, plain, took_plain = _differ(str(path), plain_reads)
    assert fast == plain and fast[1:3] == (9, 15) and not took_plain
    path.write_bytes(FIXED["second rows after"](petersen))
    fast, plain, took_plain = _differ(str(path), plain_reads)
    assert fast == plain and fast[1:3] == (1, 15) and took_plain


def test_bit_row_reader_takes_only_a_span_of_whole_rows(petersen):
    start, end = _rows_span(petersen)
    assert lio._read_bit_rows(petersen, start, end)[1] == 15
    for cut in (-4, -1, 1, 2):
        assert lio._read_bit_rows(petersen, start, end + cut) is None


def _shapes():
    rng = random.Random(7)
    yield Mat.from_bits(GF2, [1, 0, 1], 1)  # cols 1
    yield Mat.from_bits(GF2, [], 5)  # no rows
    yield Mat.from_bits(GF2, [], 0)
    yield Mat(GF2, [[], []])  # rows of no entries
    yield Mat.from_bits(GF2, [2 ** 13 - 1, 0, 5], 13)  # all ones; 13 wide
    yield Mat.from_bits(GF2, [2 ** 16 - 1], 16)
    for cols in (2, 7, 8, 9, 63, 64, 65, 200):
        yield Mat.from_bits(GF2, [rng.getrandbits(cols)
                                  for _ in range(rng.randrange(1, 6))], cols)


SHAPES = list(_shapes())


# GF(q) matrices, which `dump` writes a row at a time
GFQ_SHAPES = [Mat(field_make(3), [], cols=4),  # no rows
              Mat(field_make(3), [[], []]),  # rows of no entries
              Mat(field_make(7), [[6]]),
              Mat(field_make(2, 2), [[0, 3, 1, 2], [2, 0, 0, 1]])]


@pytest.mark.parametrize("M", SHAPES + GFQ_SHAPES,
                         ids=[repr(M) for M in SHAPES + GFQ_SHAPES])
def test_writer_is_json_dumps_on_edge_shapes(M):
    lists = [list(r) for r in M.data]
    assert lio.dumps({"rows": M, "cols": M.cols}) == \
        _dumps_reference({"rows": lists, "cols": M.cols})


FRACTION = Fraction(-7, 3)
FRACTION_JSON = {"num": -7, "den": 3, "float": -7 / 3}

# (payload, what `json` writes in its place)
PAYLOADS = {
    # the rows of a report table, as `report t3-blocklength` writes them
    "rows a list": ({"report": "t3", "rows": [{"k": 5, "n": 10}, {"k": 8}]},
                    {"report": "t3", "rows": [{"k": 5, "n": 10}, {"k": 8}]}),
    "rows NaN": ({"rows": float("nan"), "x": "NaN"},
                 {"rows": float("nan"), "x": "NaN"}),
    "fraction": ({"value": FRACTION, "detail": {"f": [FRACTION, 1]}},
                 {"value": FRACTION_JSON,
                  "detail": {"f": [FRACTION_JSON, 1]}}),
    "fraction beside a Mat": (
        {"rows": SHAPES[0], "value": FRACTION},
        {"rows": [list(r) for r in SHAPES[0].data], "value": FRACTION_JSON}),
}


@pytest.mark.parametrize("payload,native", PAYLOADS.values(),
                         ids=list(PAYLOADS))
def test_writer_is_json_dumps_on_payloads(payload, native):
    assert lio.dumps(payload) == _dumps_reference(native)


B = SHAPES[4]


@pytest.mark.parametrize("obj", [
    B, [B], {"a": B}, {"rows": [B]}, {"x": {"rows": B}}, {"rows": B, "x": B},
    {"x": object()}, {"rows": B, "x": object()}, {"rows": B, "x": {1, 2}},
], ids=["bare", "in a list", "under another key", "rows a list of Mats",
        "nested rows", "second Mat", "object", "object beside a Mat",
        "set beside a Mat"])
def test_writer_refuses_what_json_cannot_write(obj):
    """Of the types `json` does not know, `dump` writes a Fraction, and a
    `Mat` only at the top-level "rows"; anything else is a TypeError, as in
    `json`."""
    with pytest.raises(TypeError):
        lio.dumps(obj)


STAND_IN = '\n "rows": NaN'


@pytest.mark.parametrize("M", [SHAPES[4], GFQ_SHAPES[3]], ids=repr)
def test_writer_splices_rows_at_the_top_level_key_only(tmp_path, plain_reads,
                                                       M):
    """Strings that hold NaN, or the stand-in's own text, ahead of the rows
    (provenance and manifest sort before "rows") are escaped by `json`, and
    a nested "rows" is indented deeper, so the rows go in at the top-level
    key, and the file reads back the same as it does on the plain path."""
    code = LinearCode(M, provenance={"rows": STAND_IN, STAND_IN: ["NaN"],
                                     "note": "NaN"})
    payload = dict(lio.code_to_json(code),
                   manifest={"command": ["NaN", STAND_IN]})
    lists = [list(r) for r in M.data]
    text = lio.dumps(payload)
    assert text == _dumps_reference(dict(payload, rows=lists))
    path = tmp_path / "code.json"
    path.write_text(text)
    fast, plain, took_plain = _differ(str(path), plain_reads)
    assert fast == plain == _outcome(lambda _: code, path)
    assert took_plain is (M.bits is None)
    nested = dict(payload, manifest={"rows": float("nan")})
    assert lio.dumps(nested) == _dumps_reference(dict(nested, rows=lists))


@pytest.mark.parametrize("M", SHAPES, ids=[repr(M) for M in SHAPES])
def test_reader_round_trips_edge_shapes(tmp_path, plain_reads, M):
    path = tmp_path / "code.json"
    path.write_text(lio.dumps(lio.code_to_json(LinearCode(M))))
    fast, plain, took_plain = _differ(str(path), plain_reads)
    assert fast == plain
    # a code of length 0 is refused on both paths
    assert fast[3] == M.bits if M.cols else fast[0] == "SchemaError"
    assert took_plain is (M.rows == 0 or M.cols == 0)


def test_output_guard_exits_2_before_writing(tmp_path, capsys, monkeypatch):
    """The Petersen code's H is 9 x 15 = 135 entries."""
    out = tmp_path / "code.json"
    argv = ["construct", "moore", "--r", "2", "--t", "4", "--out", str(out)]
    monkeypatch.setattr(lio, "MAX_CODE_ENTRIES", 134)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    err = json.loads(captured.err)
    assert err["error"] == "BudgetExceeded"
    assert "135" in err["message"] and "134" in err["message"]
    monkeypatch.setattr(lio, "MAX_CODE_ENTRIES", 135)
    assert main(argv) == 0


def test_manifest_records_input_hash_python_and_platform(tmp_path, capsys):
    code, report, bound = (tmp_path / f"{name}.json"
                           for name in ("code", "report", "bound"))
    assert main(["construct", "moore", "--r", "2", "--t", "4",
                 "--out", str(code)]) == 0
    assert main(["verify", "seq", "--code", str(code),
                 "--out", str(report)]) == 0
    assert main(["bound", "seq-rate", "--r", "3", "--t", "5",
                 "--out", str(bound)]) == 0
    made, checked, bound = (json.loads(p.read_text())
                            for p in (code, report, bound))
    assert checked["manifest"]["input_sha256"] == \
        hashlib.sha256(code.read_bytes()).hexdigest()
    for payload in (made, checked, bound):
        assert payload["manifest"]["python"] == sys.version.split()[0]
        assert payload["manifest"]["platform"] == sys.platform
    assert "input_sha256" not in made["manifest"]


def _counted_starts(monkeypatch):
    """The threads started from now on, each as it starts."""
    starts = []
    real = threading.Thread.start

    def start(self):
        starts.append(self)
        real(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return starts


@pytest.mark.parametrize("extra", [-1, 0])
def test_load_code_hashes_on_a_thread_from_one_mib(tmp_path, monkeypatch,
                                                   extra):
    """A code file one byte short of HASH_THREAD_BYTES is hashed inline, one
    of exactly that size on a second thread; both digests are the bytes'."""
    M = Mat.from_bits(GF2, [(0b1011 << i) % 2 ** 1800 for i in range(97)],
                      1800)
    text = lio.dumps(lio.code_to_json(LinearCode(M))).encode()
    # pad the file to size with spaces at its end, which JSON skips
    pad = lio.HASH_THREAD_BYTES + extra - len(text)
    assert lio.HASH_THREAD_BYTES == 1 << 20 and 0 <= pad < 10 ** 5
    path = tmp_path / "code.json"
    path.write_bytes(text + b" " * pad)
    starts = _counted_starts(monkeypatch)
    code, digest = lio.load_code(str(path))
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert code.H.bits == M.bits
    assert len(starts) == (extra == 0) and not any(t.is_alive()
                                                   for t in starts)


def test_load_code_hashes_inline_when_no_thread_starts(tmp_path, petersen,
                                                      monkeypatch):
    path = tmp_path / "code.json"
    path.write_bytes(petersen)
    monkeypatch.setattr(lio, "HASH_THREAD_BYTES", 0)

    def refuse(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    code, digest = lio.load_code(str(path))
    assert digest == hashlib.sha256(petersen).hexdigest()
    assert _outcome(_fast, str(path)) == _outcome(_plain, str(path))


def test_load_code_hashes_inline_when_the_thread_fails(tmp_path, petersen,
                                                      monkeypatch):
    path = tmp_path / "code.json"
    path.write_bytes(petersen)
    monkeypatch.setattr(lio, "HASH_THREAD_BYTES", 0)
    real = hashlib.sha256

    def sha256(data):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError
        return real(data)

    monkeypatch.setattr(hashlib, "sha256", sha256)
    failed = []
    monkeypatch.setattr(threading, "excepthook", failed.append)
    starts = _counted_starts(monkeypatch)
    assert lio.load_code(str(path))[1] == real(petersen).hexdigest()
    assert len(starts) == 1 and failed == []  # no traceback on stderr


def test_load_code_joins_the_hash_thread_when_reading_fails(
        tmp_path, petersen, monkeypatch):
    """The hash thread is still hashing when the read fails: the error
    propagates, and no thread is left running."""
    path = tmp_path / "code.json"
    path.write_bytes(petersen)
    monkeypatch.setattr(lio, "HASH_THREAD_BYTES", 0)
    real = hashlib.sha256

    def slow(data):
        time.sleep(0.2)
        return real(data)

    def fail(data):
        raise KeyError("read failed")

    monkeypatch.setattr(hashlib, "sha256", slow)
    monkeypatch.setattr(lio, "_gf2_code_file", fail)
    starts = _counted_starts(monkeypatch)
    before = threading.active_count()
    with pytest.raises(KeyError, match="read failed"):
        lio.load_code(str(path))
    assert len(starts) == 1
    assert threading.active_count() == before
