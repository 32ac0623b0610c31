import hashlib
import json

import pytest

from lrckit import cli
from lrckit import io as lio
from lrckit.cli import main
from lrckit.field import field_make
from lrckit.graphs import petersen_graph
from lrckit.matrix import Mat, MatrixError
from lrckit.mr_codes import mr_r12
from lrckit.seq_codes import moore_code
from lrckit.verify import seq_recovery_check


def test_matrix_round_trip_bit_exact():
    gf = field_make(2, 4)
    M = Mat(gf, [[0, 1, 7, 15], [3, 3, 0, 9]])
    again = lio.matrix_from_json(lio.matrix_to_json(M))
    assert again == M
    assert again.gf.modulus == gf.modulus


def test_code_round_trip_with_structure():
    code = mr_r12(3, 2)
    obj = lio.code_to_json(code)
    text = json.dumps(obj)
    again = lio.code_from_json(json.loads(text))
    assert again.H == code.H
    assert again.params == code.params
    st = again.provenance["local_structure"]
    assert st.groups == code.provenance["local_structure"].groups


def test_graph_round_trip():
    g = petersen_graph()
    again = lio.graph_from_json(lio.graph_to_json(g))
    assert again.edges == g.edges and again.node_count == g.node_count


def test_unknown_fields_rejected():
    obj = lio.code_to_json(moore_code(2, 4))
    obj["surprise"] = 1
    with pytest.raises(lio.SchemaError):
        lio.code_from_json(obj)
    mobj = lio.matrix_to_json(Mat(field_make(2), [[1, 0]]))
    mobj["schema"] = "matrix/9"
    with pytest.raises(lio.SchemaError):
        lio.matrix_from_json(mobj)


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


def test_cli_bound_values(tmp_path, capsys):
    assert main(["bound", "seq-rate", "--r", "3", "--t", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == {"num": 27, "den": 52,
                                "float": pytest.approx(27 / 52)}
    assert main(["bound", "hamming-type", "--n", "31", "--r", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 20


def test_cli_bound_errors(capsys):
    assert main(["bound", "hamming-type", "--n", "31", "--r", "20"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "OutOfRegime"


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
    obj = lio.code_to_json(moore_code(2, 4))
    obj["rows"][0][1] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", "seq", "--code", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MatrixError"
    mobj = lio.matrix_to_json(Mat(field_make(2), [[1, 0]]))
    mobj["rows"][0][0] = bad
    with pytest.raises(MatrixError):
        lio.matrix_from_json(mobj)


@pytest.mark.parametrize("exc", [AssertionError("invariant"),
                                 ZeroDivisionError("division by zero")])
def test_cli_internal_error_is_json_exit_2(monkeypatch, capsys, exc):
    def broken(args, argv):
        raise exc

    monkeypatch.setattr(cli, "cmd_bound", broken)
    assert main(["bound", "seq-rate", "--r", "3", "--t", "5"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "internal"
    assert err["message"].startswith(type(exc).__name__)


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
