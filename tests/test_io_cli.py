import builtins
import hashlib
import json
import re
import time

import pytest

from lrckit import cli, verify
from lrckit import io as lio
from lrckit.cli import main
from lrckit.code import LinearCode
from lrckit.field import field_make
from lrckit.matrix import Mat, MatrixError, columns_independent
from lrckit.mr_codes import mr_r12
from lrckit.seq_codes import moore_code
from lrckit.verify import seq_recovery_check


def test_matrix_round_trip_bit_exact():
    # GF(2^4) modulo x^4 + x^3 + 1, not the default x^4 + x + 1
    gf = field_make(2, 4, [1, 0, 0, 1, 1])
    M = Mat(gf, [[0, 1, 7, 15], [3, 3, 0, 9]])
    again = lio.code_from_json(json.loads(lio.dumps(
        lio.code_to_json(LinearCode(M)))))
    assert again.H == M and again.H.data == M.data
    assert again.gf.modulus == gf.modulus


def test_code_round_trip_with_structure():
    code = mr_r12(3, 2)
    again = lio.code_from_json(json.loads(lio.dumps(lio.code_to_json(code))))
    assert again.H == code.H
    assert again.params == code.params
    st = again.provenance["local_structure"]
    assert st.groups == code.provenance["local_structure"].groups


def test_unknown_fields_rejected():
    obj = json.loads(lio.dumps(lio.code_to_json(moore_code(2, 4))))
    obj["surprise"] = 1
    with pytest.raises(lio.SchemaError, match="unknown fields"):
        lio.code_from_json(obj)
    del obj["surprise"]
    obj["schema"] = "code/9"
    with pytest.raises(lio.SchemaError, match="unsupported code schema"):
        lio.code_from_json(obj)


def test_malformed_field_and_groups_rejected():
    with pytest.raises(lio.SchemaError, match="^field must be an object, "
                       "got 5$"):
        lio.field_from_json(5)
    with pytest.raises(lio.SchemaError, match=re.escape(
            "malformed local_structure.groups: [[0, 1], [2, 'x']]")):
        lio.structure_from_json({"groups": [[0, 1], [2, "x"]]})


def test_cli_unreadable_code_file_is_an_io_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["verify", "seq", "--code", str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err) == {
        "error": "io",
        "message": f"[Errno 2] No such file or directory: '{missing}'"}


def test_cli_construct_verify_round_trip(tmp_path):
    """A construct -> file -> verify pipeline gives the same verdict as the
    in-memory pipeline."""
    out = tmp_path / "code.json"
    assert main(["construct", "moore", "--r", "2", "--t", "4",
                 "--out", str(out)]) == 0
    assert main(["verify", "seq", "--code", str(out)]) == 0
    # in-memory comparison
    from lrckit.verify import seq_recovery_check
    assert seq_recovery_check(moore_code(2, 4), 2, 4).verdict
    # asking beyond the true recovery radius fails with exit 1
    assert main(["verify", "seq", "--code", str(out), "--t", "5"]) == 1
    # a Tamo-Barg code has locality r by construction, also at n > 14: its
    # dual of 16^5 words is walked, since the light rows of its stored H
    # miss coordinate 10
    tb = tmp_path / "tamobarg.json"
    assert main(["construct", "tamobarg", "--n", "15", "--k", "10", "--r",
                 "4", "--q", "16", "--out", str(tb)]) == 0
    for prop in ("avail", "seq"):
        assert main(["verify", prop, "--code", str(tb), "--t", "1"]) == 0


def test_cli_bound_values(tmp_path, capsys):
    assert main(["bound", "seq-rate", "--r", "3", "--t", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == {"num": 27, "den": 52,
                                "float": pytest.approx(27 / 52)}
    assert main(["bound", "hamming-type", "--n", "31", "--r", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 20


def test_cli_bound_inputs_name_the_oracle(capsys):
    """A report's `inputs` are the row's flags as given, `--oracle` among
    them, so reports from different oracles tell which ran; the command is
    not an input."""
    argv = ["bound", "lr-dim", "--n", "10", "--d", "3", "--r", "2", "--q", "2"]
    seen = {}
    for oracle in (None, "singleton", "singleton,hamming,plotkin,griesmer"):
        assert main(argv + (["--oracle", oracle] if oracle else [])) == 0
        rep = json.loads(capsys.readouterr().out)
        seen[oracle] = rep["value"]
        assert rep["inputs"] == dict(n=10, d=3, r=2, q=2, **(
            {"oracle": oracle} if oracle else {}))
    assert seen == {None: 5, "singleton": 6,
                    "singleton,hamming,plotkin,griesmer": 5}


def test_cli_bound_errors(capsys):
    assert main(["bound", "hamming-type", "--n", "31", "--r", "20"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BoundError"


def test_cli_report_tables(capsys):
    assert main(["report", "t3-blocklength"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(r["k"], r["r"], r["prior_bound"], r["new_bound"],
             r["catalog_code_n"]) for r in rows] == \
        [(5, 3, 9, 10, 10), (8, 4, 13, 14, 14)]


def test_cli_report_csvs(tmp_path):
    out = tmp_path / "rates.csv"
    assert main(["report", "rate-curve", "--t", "4", "--rmax", "10",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,product_form_bound,transpose_bound"
    assert len(lines) == 11


def test_cli_construct_families(tmp_path):
    cases = [
        ["construct", "turan", "--r", "2", "--beta", "2"],
        ["construct", "near-regular", "--k", "6", "--r", "2"],
        ["construct", "t3", "--which", "ex1"],
        ["construct", "pyramid", "--n", "7", "--k", "4", "--r", "2",
         "--q", "8"],
        ["construct", "tamobarg", "--n", "8", "--k", "4", "--r", "3",
         "--q", "9"],
        ["construct", "wang", "--r", "2", "--t", "2"],
        ["construct", "steiner", "--s", "3"],
        ["construct", "pmr-split", "--m", "2", "--r", "3", "--delta", "2",
         "--q", "7"],
        ["construct", "mr-rd2", "--m", "2", "--r", "2", "--delta", "2",
         "--psi", "4"],
        ["construct", "incidence", "--graph", "petersen"],
        ["construct", "incidence", "--graph", "petersen", "--q", "4",
         "--coeffs", "random", "--seed", "5"],
    ]
    for i, argv in enumerate(cases):
        out = tmp_path / f"c{i}.json"
        assert main(argv + ["--out", str(out)]) == 0, argv
        code = lio.code_from_json(lio.load(str(out)))
        assert code.n > 0


def test_cli_verify_pmds_and_structure(tmp_path):
    out = tmp_path / "mr.json"
    assert main(["construct", "mr-r12", "--m", "3", "--r", "2",
                 "--out", str(out)]) == 0
    assert main(["verify", "pmds", "--code", str(out), "--delta", "1",
                 "--s-extra", "2"]) == 0
    assert main(["verify", "pmr", "--code", str(out)]) == 0
    assert main(["verify", "mr-shape", "--code", str(out)]) == 0


def test_cli_pmds_exhaustive_over_the_pattern_budget(tmp_path, capsys):
    """mr-r12 (8, 3) at s = 2 has 18 087 936 patterns, past the pmds
    budget.  The local reduction decides them: `--mode exhaustive` exits 0
    with an exact report that counts every pattern.  With its last global
    row zeroed, a reduced pattern is dependent: `exhaustive` and `auto` both
    exit 1 with an exact FAIL, whose witness is that pattern with one
    coordinate of each other group added, 8 + 2 dependent columns."""
    code = mr_r12(8, 3)
    rows = [list(r) for r in code.H.data]
    rows[-1] = [0] * code.n
    files = {"mr": code, "zeroed": LinearCode(Mat(code.gf, rows),
                                              provenance=code.provenance)}
    for name, c in files.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(lio.dumps(lio.code_to_json(c)))
    argv = ["verify", "pmds", "--delta", "1", "--s-extra", "2", "--code"]
    assert main(argv + [str(files["mr"]), "--mode", "exhaustive"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["mode"] == "exhaustive" and rep["verdict"]
    assert rep["budgets"]["checked"] == rep["budgets"]["patterns"] \
        == 18087936 > rep["budgets"]["budget"]
    zeroed, _ = lio.load_code(str(files["zeroed"]))
    groups = code.provenance["local_structure"].groups
    for mode in ("exhaustive", "auto"):
        assert main(argv + [str(files["zeroed"]), "--mode", mode]) == 1
        rep = json.loads(capsys.readouterr().out)
        assert (rep["mode"], rep["verdict"]) == ("exhaustive", False)
        witness = rep["witness"]
        assert len(set(witness)) == len(witness) == 8 + 2
        assert all(set(g) & set(witness) for g in groups)
        assert not columns_independent(zeroed.full_rank_checks(), witness)


def test_cli_verify_jobs_parallel(tmp_path):
    out = tmp_path / "pet.json"
    main(["construct", "moore", "--r", "2", "--t", "4", "--out", str(out)])
    rc = main(["verify", "seq", "--code", str(out), "--mode", "sampled",
               "--samples", "400", "--jobs", "2", "--seed", "3"])
    assert rc == 0


def test_cli_verify_jobs_report_replays(tmp_path, capsys):
    out = tmp_path / "k4.json"
    main(["construct", "moore", "--r", "2", "--t", "2", "--out", str(out)])
    capsys.readouterr()
    argv = ["verify", "seq", "--code", str(out), "--t", "3", "--mode",
            "sampled", "--samples", "10", "--jobs", "3"]
    assert main(argv + ["--seed", "8"]) == 0
    budgets = json.loads(capsys.readouterr().out)["budgets"]
    assert budgets["samples"] == 10 and budgets["seed"] == 8
    assert budgets["chunks"] == [{"seed": 8, "samples": 4},
                                 {"seed": 9, "samples": 3},
                                 {"seed": 10, "samples": 3}]
    # K4 has triangles: seed 9 passes its first two chunks, fails the last
    assert main(argv + ["--seed", "9"]) == 1
    rep = json.loads(capsys.readouterr().out)
    failed = rep["budgets"]["failed_chunk"]
    assert failed == 2
    chunk = rep["budgets"]["chunks"][failed]
    replay = seq_recovery_check(moore_code(2, 2), 2, 3, mode="sampled",
                                **chunk)
    assert not replay.verdict
    assert replay.witness == rep["witness"]
    assert replay.budgets["failed_at"] == rep["budgets"]["failed_at"]


@pytest.mark.parametrize("bad", [1.7, "1", True, False, 1.0, None, 2])
def test_cli_rejects_non_integer_entries(tmp_path, capsys, bad):
    obj = json.loads(lio.dumps(lio.code_to_json(moore_code(2, 4))))
    obj["rows"][0][1] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", "seq", "--code", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MatrixError"
    with pytest.raises(MatrixError):
        lio.code_from_json(obj)


@pytest.mark.parametrize("exc", [AssertionError("invariant"),
                                 ZeroDivisionError("division by zero"),
                                 KeyError("rows"), RecursionError("depth")])
def test_cli_internal_error_is_json_exit_2(monkeypatch, capsys, exc):
    def broken(args, argv):
        raise exc

    monkeypatch.setattr(cli, "cmd_bound", broken)
    assert main(["bound", "seq-rate", "--r", "3", "--t", "5"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "internal"
    assert err["message"].startswith(type(exc).__name__)


def test_cli_internal_error_survives_memory_error(monkeypatch, capsys):
    """A MemoryError leaves so little memory that an import in the handler
    can raise again: the handler imports nothing, so the run still ends
    with exit 2 and an `internal` error, not a raw traceback."""
    def broken(args, argv):
        raise MemoryError

    def no_traceback(name, *args, **kwargs):
        if name == "traceback":
            raise MemoryError
        return real_import(name, *args, **kwargs)

    real_import = builtins.__import__
    monkeypatch.setattr(cli, "cmd_bound", broken)
    monkeypatch.setattr(builtins, "__import__", no_traceback)
    assert main(["bound", "seq-rate", "--r", "3", "--t", "5"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "internal"
    assert err["message"].startswith("MemoryError")
    assert err["traceback"].endswith("in broken\nMemoryError: ")


def test_cli_value_error_subclass_is_value_error(monkeypatch, capsys):
    def broken(args, argv):
        raise json.JSONDecodeError("Expecting value", "x", 0)

    monkeypatch.setattr(cli, "cmd_bound", broken)
    assert main(["bound", "seq-rate", "--r", "3", "--t", "5"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"


# SHA-256 of the code JSON, `manifest` removed, of every seeded GF(2)
# construct family, pinned from the output before GF(2) matrices were
# bit-packed: the JSON must stay byte-identical.
CONSTRUCT_DIGESTS = {
    "moore --r 2 --t 4":
        "3fbabbc659cfb84d5d8acd1a15cb698995a26b6d11e2113acf15625f8d969a62",
    "moore --r 6 --t 4":
        "e199f46fa1228c37facd3654b2666ed9b9eca8f2fe68a30102a33bb205c843e8",
    "seq --r 3 --t 2":
        "beddbf6a0214b76c4782cdef02d9118ec9830d836a8cc468ee0c5ad1f0a56d10",
    "seq --r 3 --t 3":
        "434fca9549ca57ae5114216e83bd5feca54b8ec19e1c07899a96bf59af3fc7a2",
    "seq --r 3 --t 5":
        "afc5f20ab923c59d8dbadba4ec911611d1ab20df41bc6bba1dc9c6b66fc4d714",
    "near-regular --k 12 --r 4":
        "d29cd5ad9255d46cfa2245f2cc31cca80798ad10b9dfb3c4a9295ed994adf87f",
    "near-regular --k 7 --r 2":
        "78a7d48e9123635968aae137da4b68ee0d0dc2614821d6c6e70e116acebe3de1",
    "turan --r 2 --beta 2":
        "699777372f0783396cf774549a3b90b3dde608b1eddbd9cc8d5317bf0abc95dc",
    "dim-optimal --m 5 --r 7":
        "ca91b4b407b85f61b289e8faec1d280821d06460380d5d3a4a93698638e343b5",
    "t3 --which ex1":
        "9a9906124e0d82368644f47a6bea94d3b27c757fc06144d67314c1e110d512dc",
    "t3 --which ex2":
        "2e2f245c23694f96b5cb30e64b414c39d3c29167bc89b682a39b6af7b51911f5",
    "product --r 2 --t 2":
        "198e12b59a230c0d27583e19ee711cc11ec7acab089e26e1d3bdef7ac348f7d3",
    "wang --r 3 --t 2":
        "a99c3729ccabef4c9b6cd3b816cc398776ef3d08b1fb47e25f1b09d8c1059dfa",
    "pgplane --s 2":
        "adf1de2866376344818e4fe1a48ed8e77c6e25307746ec15ea16e25811082014",
    "steiner --s 4":
        "febc62e7b1081b10160a3a040e576ea7ca646840d911f1040953bfcabb511626",
    "incidence --graph petersen":
        "37e231d41155ca0af709f7e9bb5a156df1a71b4a6268699c8bbeced01f027236",
    "incidence --graph heawood":
        "02777b927c21be6f81f7fa9f88d0de9ffcdbb651dfd264645e1790c151b6360f",
    "pyramid --n 9 --k 5 --r 2 --q 11":
        "3b36986752e57a98b84d5d11e1302a4e749120489d3712f8125cd72df6e174a2",
    "tamobarg --n 8 --k 4 --r 3 --q 9":
        "f9080f93ceb94aeef146966b36b7ce592dd70bcf53d801587640ddcec2b9f409",
    "pmr-split --m 2 --r 3 --delta 2 --q 7":
        "244e1329933ff1b80407f38829486ba45954c97ecd5afb0bdc05636e1003d235",
    "mr-r12 --m 3 --r 2":
        "1f9896d3e1dfed258bfcb911e98aaa274d2c3c2db5ed3c0bd480f49972c9d5cf",
    "mr-rd2 --m 4 --r 2 --delta 2 --psi 4":
        "90c9d1bfa0387337d1f64897cbc9d9267d7be7c0870bed89d90d8d5bed58c1be",
    "pmr-a1 --m 2 --r 2 --delta 3 --base-q 7":
        "f1dd24994f027db39955ce361487c7f6da72ee3094f2434b2a9c19bfb7dc94a1",
    "mr-coset --n 6 --d-param 1 --q 13":
        "6f3cae8af02d86e9ada526d34aa372adbad9649b5a53e7c75cfa1a71bb4a0749",
}


@pytest.mark.parametrize("args,digest", CONSTRUCT_DIGESTS.items(),
                         ids=list(CONSTRUCT_DIGESTS))
def test_construct_json_is_byte_identical(tmp_path, capsys, args, digest):
    out = tmp_path / "code.json"
    assert main(["construct"] + args.split() + ["--out", str(out)]) == 0
    body = {k: v for k, v in lio.load(str(out)).items() if k != "manifest"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_cli_usage_error():
    assert main(["construct", "nosuch"]) == 2
    assert main(["construct", "mr-coset", "--n", "6", "--d-param", "1",
                 "--q", "12"]) == 2  # 12 is not a prime power


def test_cli_tamobarg_dimension_too_large_exit_2(capsys):
    assert main(["construct", "tamobarg", "--n", "6", "--k", "5", "--r", "2",
                 "--q", "7"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "top exponent" in err["message"]


def test_cli_construction_failed_exit_2(monkeypatch, capsys):
    """A construction that misses its bound or its declared k is a
    ConstructionFailed error (exit 2), not an internal one."""
    from fractions import Fraction
    from lrckit import code as lcode, lr_codes, seq_codes
    monkeypatch.setattr(seq_codes, "seq_rate_bound", lambda r, t: Fraction(0))
    assert main(["construct", "seq", "--r", "3", "--t", "3"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConstructionFailed" and "rate" in err["message"]

    def drop_last_row(G, **kw):  # the rank falls one short of the declared k
        return lcode.code_from_generator(Mat(G.gf, G.data[:-1], cols=G.cols),
                                         **kw)
    monkeypatch.setattr(lr_codes, "code_from_generator", drop_last_row)
    assert main(["construct", "tamobarg", "--n", "8", "--k", "4", "--r", "3",
                 "--q", "9"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ConstructionFailed",
                   "message": "LR code has (n, k) = (8, 3), declared (8, 4)"}


def test_cli_mr_coset_negative_d_exit_2(capsys):
    assert main(["construct", "mr-coset", "--n", "6", "--d-param", "-1",
                 "--q", "13"]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": "need D >= 0"}


def test_cli_missing_flags_exit_2(tmp_path, capsys):
    assert main(["bound", "lr-singleton", "--n", "10"]) == 2  # no --k/--r
    capsys.readouterr()
    out = tmp_path / "pet.json"
    main(["construct", "moore", "--r", "2", "--t", "4", "--out", str(out)])
    # strip the declared params, then ask for a verify without --r/--t
    obj = lio.load(str(out))
    obj.pop("params")
    import json as _json
    bare = tmp_path / "bare.json"
    bare.write_text(_json.dumps(obj))
    assert main(["verify", "seq", "--code", str(bare)]) == 2
    assert main(["bound", "avail-tradeoff", "--n", "60", "--k", "40",
                 "--nc", "60", "--rc", "2/3", "--rmax", "3/4"]) == 0


def test_cli_pmr_a1_output_reloads(tmp_path):
    out = tmp_path / "a1.json"
    rc = main(["construct", "pmr-a1", "--m", "3", "--r", "3", "--delta", "5",
               "--base-q", "16", "--seed", "0", "--out", str(out)])
    assert rc == 0  # verdict pass doubles as the exit code
    code = lio.code_from_json(lio.load(str(out)))
    assert (code.n, code.k) == (12, 4)
    assert main(["verify", "pmr", "--code", str(out)]) == 0


# Sampled reports, `manifest` removed, pinned from the output made while
# patterns were drawn by `random.Random(seed).sample`: lrckit's own draw must
# replay the same patterns, so seeds, `failed_at`, witnesses and `checked`
# stay as they were.
def _sampled(prop, code, **flags):
    argv = ["verify", prop, "--code", code, "--mode", "sampled"]
    for flag, value in flags.items():
        argv += ["--" + flag.replace("_", "-"), str(value)]
    return argv


def _seq_report(budgets, witness=None):
    return {"budgets": budgets, "detail": {}, "mode": "sampled",
            "property": "seq-recovery", "verdict": witness is None,
            "witness": witness}


def _pmds_report(budgets, witness=None, detail=None):
    return {"budgets": dict(budget=10 ** 7, **budgets),
            "detail": detail or {}, "mode": "sampled",
            "property": "partial-mds", "verdict": witness is None,
            "witness": witness}


PINNED_SAMPLED = {
    "seq n=1352 seed 0": (
        _sampled("seq", "seq-3-5", samples=100000, seed=0),
        _seq_report({"samples": 100000, "seed": 0})),
    "seq n=1352 seed 5": (
        _sampled("seq", "seq-3-5", samples=100000, seed=5),
        _seq_report({"samples": 100000, "seed": 5})),
    "petersen t=5 seed 0": (
        _sampled("seq", "petersen", t=5, samples=5000, seed=0),
        _seq_report({"failed_at": 117, "samples": 5000, "seed": 0},
                    [0, 1, 2, 3, 4])),
    "petersen t=5 seed 2": (
        _sampled("seq", "petersen", t=5, samples=5000, seed=2),
        _seq_report({"failed_at": 605, "samples": 5000, "seed": 2},
                    [1, 2, 6, 11, 13])),
    "k4 t=3 jobs 3 seed 9": (
        _sampled("seq", "k4", t=3, samples=10, jobs=3, seed=9),
        _seq_report({"chunks": [{"samples": 4, "seed": 9},
                                {"samples": 3, "seed": 10},
                                {"samples": 3, "seed": 11}],
                     "failed_at": 0, "failed_chunk": 2, "jobs": 3,
                     "samples": 10, "seed": 9}, [3, 4, 5])),
    "mr-rd2 pmds delta 2 s 2": (
        _sampled("pmds", "mr-rd2", delta=2, s_extra=2, samples=5000,
                 seed=3),
        _pmds_report({"checked": 5000, "patterns": 36288, "samples": 5000,
                      "seed": 3}, detail={"delta": 2, "s_extra": 2})),
    "mr-rd2 pmds delta 1 s 5 seed 3": (
        _sampled("pmds", "mr-rd2", delta=1, s_extra=5, samples=5000,
                 seed=3),
        _pmds_report({"checked": 30, "patterns": 202752, "samples": 5000,
                      "seed": 3}, [0, 1, 2, 3, 7, 10, 12, 13, 15])),
    "mr-rd2 pmds delta 1 s 5 seed 4": (
        _sampled("pmds", "mr-rd2", delta=1, s_extra=5, samples=5000,
                 seed=4),
        _pmds_report({"checked": 9, "patterns": 202752, "samples": 5000,
                      "seed": 4}, [0, 1, 2, 4, 5, 6, 7, 10, 13])),
}


@pytest.fixture(scope="module")
def code_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("codes")
    files = {}
    for name, args in (("seq-3-5", "seq --r 3 --t 5"),
                       ("petersen", "moore --r 2 --t 4"),
                       ("k4", "moore --r 2 --t 2"),
                       ("mr-rd2", "mr-rd2 --m 4 --r 2 --delta 2 --psi 4")):
        files[name] = str(root / f"{name}.json")
        assert main(["construct"] + args.split()
                    + ["--out", files[name]]) == 0
    return files


@pytest.mark.parametrize("argv,expected", PINNED_SAMPLED.values(),
                         ids=list(PINNED_SAMPLED))
def test_sampled_reports_replay_pinned(code_files, tmp_path, argv, expected):
    argv = list(argv)
    argv[3] = code_files[argv[3]]
    out = tmp_path / "report.json"
    rc = main(argv + ["--out", str(out)])
    assert rc == (0 if expected["verdict"] else 1)
    report = lio.load(str(out))
    assert report.pop("manifest")["seed"] == expected["budgets"]["seed"]
    assert report == expected


def test_hoffman_singleton_gf3_stopping_set(tmp_path, capsys):
    """Over GF(3) a 5-cycle does not decide the certificate, and C(175, <= 5)
    patterns are past the budget; both `auto` and an explicit `exhaustive`
    search, and find a stopping set of at most 5 coordinates."""
    hs = str(tmp_path / "hs3.json")
    assert main(["construct", "incidence", "--graph", "hoffman-singleton",
                 "--q", "3", "--out", hs]) == 0
    capsys.readouterr()
    argv = ["verify", "seq", "--code", hs, "--r", "6", "--t", "5"]
    for mode in ("auto", "exhaustive"):
        assert main(argv + ["--mode", mode]) == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["mode"] == "exhaustive" and 1 <= len(rep["witness"]) <= 5
        assert rep["budgets"]["nodes"] <= rep["budgets"]["budget"]


# Inputs that leave a verifier no pattern to check, that split its work into
# empty chunks, or that ask for parallel jobs a verifier would ignore.  Each
# used to pass with exit 0; each must exit 2 with one JSON error on stderr.
NO_WORK = {
    "seq samples 0": _sampled("seq", "petersen", r=2, t=5, samples=0),
    "seq samples -3 jobs 2": _sampled("seq", "petersen", r=2, t=5,
                                      samples=-3, jobs=2),
    "seq t 0": ["verify", "seq", "--code", "petersen", "--t", "0"],
    "seq t -2": ["verify", "seq", "--code", "petersen", "--t", "-2"],
    "seq jobs 0": ["verify", "seq", "--code", "petersen", "--jobs", "0"],
    "pmds samples 0": _sampled("pmds", "mr-rd2", delta=2, s_extra=2,
                               samples=0),
    "pmds no pattern": ["verify", "pmds", "--code", "mr-rd2", "--delta", "1",
                        "--s-extra", "40"],
    # --jobs > 1 is honoured by sampled seq alone; elsewhere it was ignored
    "seq exhaustive jobs 2": ["verify", "seq", "--code", "petersen", "--t",
                              "3", "--mode", "exhaustive", "--jobs", "2"],
    "seq auto jobs 2": ["verify", "seq", "--code", "petersen", "--t", "3",
                        "--jobs", "2"],
    "avail jobs 3": ["verify", "avail", "--code", "petersen", "--t", "2",
                     "--jobs", "3"],
    "pmds sampled jobs 2": _sampled("pmds", "mr-rd2", delta=2, s_extra=2,
                                    samples=50, jobs=2),
}


@pytest.mark.parametrize("argv", NO_WORK.values(), ids=list(NO_WORK))
def test_verify_without_work_exits_2(code_files, capsys, argv):
    argv = list(argv)
    argv[3] = code_files[argv[3]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert set(json.loads(captured.err)) == {"error", "message"}


def _dumps_reference(obj):
    return json.dumps(obj, indent=1, sort_keys=True)


CONSTRUCT_FAMILIES = [
    "moore --r 2 --t 4", "seq --r 3 --t 5", "near-regular --k 7 --r 2",
    "turan --r 2 --beta 2", "dim-optimal --m 5 --r 7", "t3 --which ex2",
    "pyramid --n 9 --k 5 --r 2 --q 11", "tamobarg --n 8 --k 4 --r 3 --q 9",
    "product --r 2 --t 2", "wang --r 3 --t 2", "pgplane --s 2",
    "steiner --s 4", "pmr-split --m 2 --r 3 --delta 2 --q 7",
    "pmr-a1 --m 2 --r 2 --delta 3 --base-q 7", "mr-r12 --m 3 --r 2",
    "mr-rd2 --m 4 --r 2 --delta 2 --psi 4",
    "mr-coset --n 6 --d-param 1 --q 13", "incidence --graph heawood",
    "incidence --graph petersen --q 4 --coeffs random --seed 5",
]


def test_dumps_matches_json_on_every_payload(monkeypatch, tmp_path):
    """The CLI's writer equals `json.dumps(indent=1, sort_keys=True)` on the
    JSON-native payload of every construct family (where the code's matrix
    stands for its rows as lists), of verify reports, and of bounds, and
    each file written holds exactly that text."""
    payloads = []
    real_emit = cli._emit

    def capture(payload, out, argv, seed=None, **manifest):
        real_emit(payload, out, argv, seed, **manifest)
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        native = {k: [list(r) for r in v.data] if isinstance(v, Mat) else v
                  for k, v in payload.items()}
        # the manifest the file holds: its timestamp may have ticked
        native["manifest"] = json.loads(text)["manifest"]
        payloads.append((dict(payload, manifest=native["manifest"]), native,
                         text))

    monkeypatch.setattr(cli, "_emit", capture)
    files = {}
    for i, args in enumerate(CONSTRUCT_FAMILIES):
        files[args.split()[0]] = out = str(tmp_path / f"c{i}.json")
        assert main(["construct"] + args.split() + ["--out", out]) == 0
    for argv in (["seq", "--code", files["moore"], "--t", "5"],
                 ["classify-t2", "--code", files["near-regular"]],
                 ["staircase", "--code", files["seq"]],
                 ["pmds", "--code", files["mr-r12"], "--delta", "1",
                  "--s-extra", "2"],
                 ["pmr", "--code", files["pmr-a1"]]):
        assert main(["verify"] + argv + ["--out", str(tmp_path / "v.json")]) \
            in (0, 1)
    assert main(["bound", "lr-dim", "--n", "31", "--d", "5", "--r", "4",
                 "--q", "2", "--out", str(tmp_path / "b.json")]) == 0
    assert len(payloads) == len(CONSTRUCT_FAMILIES) + 6
    assert sum(isinstance(p["rows"], Mat) for p, _, _ in payloads
               if "rows" in p) == len(CONSTRUCT_FAMILIES)
    for payload, native, text in payloads:
        assert lio.dumps(payload) == _dumps_reference(native)
        assert text == _dumps_reference(native) + "\n"


@pytest.mark.parametrize("obj", [
    [], {}, [[]], [{}], {"a": [], "b": {}}, [[], [[]]],
    [True, 1, 0], [1, False], [False, True], [0, 1, True, 2],
    [1.5, 2], [0.1, -0.0, 1e300, float("nan"), float("inf"),
               -float("inf")],
    [None, 1], None, True, 7, -3, 10 ** 40, 2.5, "",
    "café \"quoted\" back\\slash\ttab\n☃ \U0001f600 \x00",
    {"é": ["☃"], "\\": "\"", " ": {"": None}},
    {1: "a", 10: "b", 9: [1, 2], -2: {}}, {2.5: 1, 1: 2, 0.5: 3},
    {True: "t", 0: "zero"}, {None: [1]}, {False: 1},
    (1, 2), [(1, 2), (3,), ()], {"t": (True, 1)},
    {"x": {"y": {"z": [[1], [2, [3, {"w": [4, 5]}]]]}}},
])
def test_dumps_edge_cases(obj):
    assert lio.dumps(obj) == _dumps_reference(obj)


@pytest.mark.parametrize("obj", [{(1, 2): 0}, [object()], {"a": {1, 2}},
                                 {"a": 1, 2: "mixed keys"}])
def test_dumps_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        _dumps_reference(obj)
    with pytest.raises(TypeError):
        lio.dumps(obj)


@pytest.mark.parametrize("argv,needle", [
    (["construct", "nosuch"], "invalid choice: 'nosuch'"),
    (["verify", "seq"], "required: --code"),
    (["construct", "seq", "--r", "three"], "invalid int value: 'three'"),
    (["bound", "seq-rate", "--r", "3", "--t", "5", "--bogus"],
     "unrecognized arguments: --bogus"),
    ([], "required: cmd"),
    (["construct", "moore", "--r", "2", "--t", "4", "--k", "3"],
     "lrckit construct moore: unrecognized arguments: --k 3"),
])
def test_argparse_errors_are_json_exit_2(capsys, argv, needle):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "usage" and needle in err["message"]
    assert err["message"].startswith("lrckit")


def test_help_still_exits_0(capsys):
    assert main(["verify", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: lrckit verify")


def _set(path, value):
    """Code JSON of the Petersen code with the field at `path` set."""
    def edit(obj):
        *outer, key = path.split(".")
        for k in outer:
            obj = obj.setdefault(k, {"groups": [[0, 1]]})
        obj[key] = value
    return edit


def _drop(key):
    """Code JSON of the Petersen code without the field `key`."""
    return lambda obj: obj.pop(key)


# Malformed input is rejected where it enters: a --modulus or a --q by the
# field, a code file (bytes, or an edit of the Petersen code JSON) by the
# loader, an --oracle by the bound and a pmds --delta or --s-extra by the
# verifier.
# Each used to end as an internal error, as a usage error guessed from a
# TypeError, under a standard-library name, or was accepted silently.
MALFORMED = {
    "modulus not JSON": ("x", "FieldError"),
    "modulus 5": ("5", "FieldError"),
    "modulus string": ('"x"', "FieldError"),
    "modulus object": ('{"a":1}', "FieldError"),
    "modulus float": ("[1.5,0,1]", "FieldError"),
    "q not a prime power": (["--q", "6"], "FieldError"),
    # --q reads --modulus as --p/--mdeg does: only null means "none given"
    **{f"q, modulus {v}": (["--q", "8", "--modulus", v], "FieldError")
       for v in ("0", "false", '""', "{}", "[]")},
    "field.p string": (_set("field.p", "2"), "SchemaError"),
    "field.modulus int": (_set("field.modulus", 7), "SchemaError"),
    "params.n string": (_set("params.n", "x"), "SchemaError"),
    "groups int": (_set("local_structure.groups", 5), "SchemaError"),
    "provenance list": (_set("provenance", [1, 2]), "SchemaError"),
    "cols string": (_set("cols", "x"), "SchemaError"),
    "params.role int": (_set("params.role", 5), "SchemaError"),
    "delta string": (_set("local_structure.delta", "x"), "SchemaError"),
    "not JSON": (b'{"schema": "code/1",', "SchemaError"),
    "not UTF-8": (b'{"schema": "code/1\xff"}', "SchemaError"),
    "no rows": (_drop("rows"), "SchemaError"),
    "no field": (_drop("field"), "SchemaError"),
    "groups overlap": (_set("local_structure.groups", [[0, 1], [1, 2]]),
                       "SchemaError"),
    # a whole command line; {mr} is an mr-r12 code with groups of 3
    **{f"oracle {v!r}": (("bound", "lr-dim", "--n", "10", "--d", "3", "--r",
                          "2", "--q", "2", "--oracle", v), "BoundError")
       for v in ("foo", ",", "singleton,foo")},
    **{f"pmds {flags}": (("verify", "pmds", "--code", "{mr}",
                          *flags.split()), "ValueError")
       for flags in ("--delta -1 --s-extra 1", "--delta 1 --s-extra -1",
                     "--delta 4 --s-extra 0", "--delta 5 --s-extra 0")},
}


@pytest.mark.parametrize("bad,kind", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_input_error_kind(tmp_path, capsys, bad, kind):
    if isinstance(bad, tuple):
        mr = tmp_path / "mr.json"
        mr.write_text(lio.dumps(lio.code_to_json(mr_r12(2, 2))))
        argv = [arg.format(mr=mr) for arg in bad]
    elif isinstance(bad, (str, list)):
        field = bad if isinstance(bad, list) else \
            ["--p", "2", "--mdeg", "3", "--modulus", bad]
        argv = ["construct", "pyramid", "--n", "7", "--k", "4", "--r", "2"] \
            + field
    else:
        path = tmp_path / "bad.json"
        if isinstance(bad, bytes):
            path.write_bytes(bad)
        else:
            obj = json.loads(lio.dumps(lio.code_to_json(moore_code(2, 4))))
            bad(obj)
            path.write_text(json.dumps(obj))
        argv = ["verify", "seq", "--code", str(path)]
        with pytest.raises(lio.SchemaError):
            lio.code_from_json(lio.load(str(path)))
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == kind


def test_modulus_null_is_no_modulus(capsys):
    """`--modulus null` is the default modulus, over --q and --p/--mdeg."""
    codes = []
    for field in (["--q", "8"], ["--p", "2", "--mdeg", "3"]):
        for modulus in ([], ["--modulus", "null"]):
            argv = ["construct", "pyramid", "--n", "7", "--k", "4", "--r",
                    "2"] + field + modulus
            assert main(argv) == 0, argv
            out = json.loads(capsys.readouterr().out)
            del out["manifest"]
            codes.append(out)
    assert all(code == codes[0] for code in codes)


def test_code_of_length_zero_is_refused(tmp_path, capsys):
    """A code with no coordinate is refused where it enters, so no verifier
    reports a vacuous PASS on it."""
    for argv in (["wang", "--r", "0", "--t", "2"],
                 ["wang", "--r", "1", "--t", "0"],
                 ["incidence", "--graph", "complete:1"]):
        out = tmp_path / "never.json"
        assert main(["construct"] + argv + ["--out", str(out)]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == (
            "GraphError" if argv[0] == "incidence" else "ValueError")
        assert not out.exists()
    empty = {"schema": "code/1", "field": {"p": 2}, "rows": [], "cols": 0}
    no_cols = {k: v for k, v in empty.items() if k != "cols"}
    for obj in (empty, dict(empty, rows=[[], []]), no_cols):
        with pytest.raises(lio.SchemaError, match="cols 0"):
            lio.code_from_json(obj)
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(empty))
    for prop in (["seq"], ["seq", "--mode", "sampled"], ["avail"], ["sa"]):
        argv = ["verify"] + prop + ["--code", str(path), "--r", "1",
                                    "--t", "1"]
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert json.loads(captured.err)["error"] == "SchemaError", argv


def test_cols_that_disagree_with_the_rows_exit_2(tmp_path, capsys):
    # the Petersen code, 15 columns, used to load with "cols": 3 as well
    obj = json.loads(lio.dumps(lio.code_to_json(moore_code(2, 4))))
    obj["cols"] = 3
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", "seq", "--code", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "MatrixError"


def test_field_above_the_ceiling_exit_2(capsys):
    # GF(7^12) has about 1.4 * 10^10 elements: its tables would fill memory.
    # A prime near 10^18 is refused before it is trial-divided, which would
    # take minutes, whether it is a characteristic, a field size or the
    # order of a projective plane.
    huge = "1000000000000000003"
    for flags in (["pyramid", "--n", "7", "--k", "4", "--r", "2",
                   "--p", "7", "--mdeg", "12"],
                  ["pyramid", "--n", "7", "--k", "4", "--r", "2",
                   "--p", huge, "--mdeg", "1"],
                  ["pyramid", "--n", "7", "--k", "4", "--r", "2", "--q", huge],
                  ["pmr-a1", "--m", "2", "--r", "2", "--delta", "3",
                   "--base-q", huge],
                  ["moore", "--r", huge, "--t", "5"]):
        start = time.perf_counter()
        assert main(["construct"] + flags) == 2, flags
        assert time.perf_counter() - start < 2, flags
        assert json.loads(capsys.readouterr().err)["error"] == "FieldError"


def test_certificate_needs_checks_of_weight_r_plus_1(tmp_path, capsys):
    """The Petersen code has girth 5, but its checks have weight 3: with
    locality 1 a leaf's check cannot recover its edge, so no certificate
    PASS; the run peels every pattern and fails at once."""
    pet = str(tmp_path / "pet.json")
    assert main(["construct", "moore", "--r", "2", "--t", "4",
                 "--out", pet]) == 0
    capsys.readouterr()
    assert main(["verify", "seq", "--code", pet, "--r", "1", "--t", "4",
                 "--mode", "certificate"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["mode"] == "exhaustive" and rep["witness"] == [0]


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def test_certificate_on_a_forest_reports_a_null_girth(tmp_path, capsys):
    """A graph with no cycle has no girth: the certificate reports `girth`
    null, not the `Infinity` that strict JSON rejects.  So for K2 in
    certificate mode, and for H = I_100 (a star on the virtual node) at
    t = 5 in `auto`, past the search budget."""
    k2, eye = str(tmp_path / "k2.json"), tmp_path / "eye.json"
    assert main(["construct", "incidence", "--graph", "complete:2",
                 "--out", k2]) == 0
    eye.write_text(lio.dumps(lio.code_to_json(LinearCode(Mat(
        field_make(2), [[int(i == j) for j in range(100)]
                        for i in range(100)])))))
    capsys.readouterr()
    for argv, t in (([k2, "--r", "1", "--mode", "certificate"], 1),
                    ([str(eye), "--r", "1"], 5)):
        assert main(["verify", "seq", "--code", *argv, "--t", str(t)]) == 0
        rep = json.loads(capsys.readouterr().out, parse_constant=_not_json)
        assert (rep["mode"], rep["detail"]) == ("certificate", {
            "girth": None, "required": t + 1})


def test_explicit_exhaustive_never_samples(tmp_path, capsys, monkeypatch):
    """C(175, <= 5) patterns exceed the budget: `auto` takes the girth
    certificate, an explicit `exhaustive` searches for a stopping set, and
    is refused once its search passes the budget."""
    hs = str(tmp_path / "hs.json")
    assert main(["construct", "incidence", "--graph", "hoffman-singleton",
                 "--out", hs]) == 0
    capsys.readouterr()
    argv = ["verify", "seq", "--code", hs, "--r", "6", "--t", "5"]
    assert main(argv + ["--mode", "exhaustive"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["mode"] == "exhaustive" and len(rep["witness"]) <= 5
    monkeypatch.setattr(verify, "SEQ_EXHAUSTIVE_BUDGET",
                        rep["budgets"]["nodes"] - 1)
    assert main(argv + ["--mode", "exhaustive"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "BudgetExceeded"
    assert main(argv + ["--mode", "auto"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["mode"] == "certificate" and rep["witness"] == [0, 1, 2, 3, 4]
