import json

import pytest

from lrckit import io as lio
from lrckit.cli import main
from lrckit.field import field_make
from lrckit.graphs import petersen_graph
from lrckit.matrix import Mat
from lrckit.mr_codes import mr_r12
from lrckit.seq_codes import moore_code


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
