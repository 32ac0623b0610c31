"""Generated-input test of `lrckit.cli.main`.

A fixed-seed stdlib `random` draws argument sets over every command, family,
bound, property and mode, with integer flags in [-2, 12] on small codes.
Every run must end in one of three ways:
  - exit 0;
  - exit 1, with a report that carries a witness;
  - exit 2, with one JSON error object on stderr.
A PASS must also rest on work: no report may count zero patterns.
"""

import concurrent.futures
import json
import random

import pytest

from lrckit.cli import main

RUNS = 1200
INTS = (-2, 12)
# Families whose code grows exponentially in their flags draw small ints:
# `seq --r 5 --t 5` or `pgplane --s 5` alone take seconds.
SMALL_INTS = (-2, 3)

CONSTRUCT_FLAGS = {
    "moore": "r t", "seq": "r t", "near-regular": "k r", "turan": "r beta",
    "dim-optimal": "m r", "t3": "", "pyramid": "n k r q",
    "tamobarg": "n k r q", "product": "r t", "wang": "r t",
    "pgplane": "s", "steiner": "s", "pmr-split": "m r delta q",
    "pmr-a1": "m r delta base-q", "mr-r12": "m r",
    "mr-rd2": "m r delta psi", "mr-coset": "n d-param q", "incidence": "q",
}
SMALL_FAMILIES = {"seq", "product", "wang", "pgplane", "steiner"}
BOUND_FLAGS = {
    "lr-singleton": "n k r", "msw": "n b1 r", "hamming-type": "n r",
    "lr-dim": "n d r q", "lr-dmin": "n k r q", "seq-rate": "r t",
    "seq-blocklength": "k r t", "seq-dim-t2": "m r", "avail-rate": "r t",
    "avail-dmin": "n k r t", "avail-tradeoff": "n k nc rc rmax",
    "sa-blocklength": "r t", "moore": "r t", "msr-subpkt": "n k d w mode",
    "cutset": "n k d alpha beta", "msr-point": "n k d",
    "mbr-point": "k d beta",
}
REPORTS = ["t3-blocklength", "dim-bounds", "rate-curve", "dmin-curve",
           "minlen-curve"]
PROPERTIES = ["seq", "avail", "sa", "pmds", "pmr", "mr-shape", "staircase",
              "classify-t2"]
MODES = ["auto", "exhaustive", "sampled", "certificate"]
# Small code files to verify: n <= 21, and q^(n-k) <= 10^4 wherever the
# verifiers enumerate the whole dual (n <= 14).  The last three carry local
# groups.
CODES = {"k4": "moore --r 2 --t 2", "petersen": "moore --r 2 --t 4",
         "heawood-gf3": "incidence --graph heawood --q 3",
         "t2": "turan --r 2 --beta 2",
         "mr-rd2": "mr-rd2 --m 2 --r 2 --delta 1 --psi 4",
         "pmr-split": "pmr-split --m 2 --r 3 --delta 2 --q 7",
         "mr-coset": "mr-coset --n 6 --d-param 1 --q 13"}


def _value(rng, flag, ints):
    if flag in ("rc", "rmax"):  # fractions
        return f"{rng.randint(*ints)}/{rng.randint(*ints)}"
    if flag == "mode":
        return rng.choice(["exact", "optimal-access", "nonsense"])
    if rng.random() < 0.02:
        return "x"  # not an integer
    return str(rng.randint(*ints))


def _flags(rng, names, ints, keep=0.9):
    argv = []
    for name in names.split():
        if rng.random() < keep:
            argv += ["--" + name, _value(rng, name, ints)]
    return argv


def _argv(rng, files):
    cmd = rng.choices(["construct", "bound", "verify", "report"],
                      weights=[3, 2, 6, 1])[0]
    if cmd == "construct":
        family = rng.choice(list(CONSTRUCT_FLAGS))
        ints = SMALL_INTS if family in SMALL_FAMILIES else INTS
        argv = [cmd, family] + _flags(rng, CONSTRUCT_FLAGS[family], ints)
        if family == "t3":
            argv += ["--which", rng.choice(["ex1", "ex2"])]
        if family == "incidence":
            argv += ["--graph", rng.choice(
                ["k4", "petersen", "heawood", "cycle:5", "complete:4",
                 "cycle:x", "nonsense"])]
        if family in ("incidence", "pmr-a1") and rng.random() < 0.5:
            argv += ["--seed", _value(rng, "seed", INTS)]
        return argv
    if cmd == "bound":
        name = rng.choice(list(BOUND_FLAGS))
        return [cmd, name] + _flags(rng, BOUND_FLAGS[name], INTS)
    if cmd == "report":
        return [cmd, rng.choice(REPORTS)] + _flags(
            rng, "n d q k t rmax", INTS, keep=0.5)
    argv = [cmd, rng.choice(PROPERTIES), "--code",
            files[rng.choice(list(files))],
            "--samples", _value(rng, "samples", INTS)]
    argv += _flags(rng, "r t delta s-extra", INTS, keep=0.6)
    argv += _flags(rng, "seed jobs", INTS, keep=0.3)
    if rng.random() < 0.8:
        argv += ["--mode", rng.choice(MODES)]
    return argv


@pytest.fixture(scope="module")
def code_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("generated")
    files = {}
    for name, args in CODES.items():
        files[name] = str(root / f"{name}.json")
        assert main(["construct"] + args.split()
                    + ["--out", files[name]]) == 0
    return files


def test_cli_contract_on_generated_input(code_files, capsys, monkeypatch):
    # `verify seq --jobs` runs its chunks in a process pool; threads stand in
    # here, so that a thousand runs start no process.  Chunks are independent
    # and seeded, so their reports are the same either way.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        concurrent.futures.ThreadPoolExecutor)
    rng = random.Random(20261018)
    capsys.readouterr()
    exits = {0: 0, 1: 0, 2: 0}
    for _ in range(RUNS):
        argv = _argv(rng, code_files)
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc in exits, argv
        exits[rc] += 1
        if rc == 2:
            assert out == "" and err.count("\n") == 1, argv
            assert {"error", "message"} <= set(json.loads(err)), argv
            continue
        assert err == "", argv
        if argv[0] == "report":  # CSV or JSON tables
            assert rc == 0, argv
            continue
        payload = json.loads(out)
        # a verify report, or the verdict that `construct pmr-a1` carries
        report = payload if argv[0] == "verify" else payload.get("verdict")
        if report is None:
            assert rc == 0, argv
            continue
        assert report["verdict"] is (rc == 0), argv
        if rc == 1:
            assert report["witness"] not in (None, "unspecified failure"), \
                argv
        else:
            counted = [report["budgets"][k] for k in
                       ("patterns", "checked", "samples")
                       if k in report["budgets"]]
            assert all(c >= 1 for c in counted), argv
    # the draw reaches every outcome
    assert min(exits.values()) >= RUNS // 20, exits
