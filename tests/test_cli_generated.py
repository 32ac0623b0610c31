"""Generated-input test of `lrckit.cli.main`.

A fixed-seed stdlib `random` draws argument sets over every row of the CLI's
tables (families, bounds, properties, reports), each with the flags that
row declares, integer flags in [-2, 12], on small codes.  Every run must end
in one of three ways:
  - exit 0;
  - exit 1, with a report that carries a witness;
  - exit 2, with one JSON error object on stderr whose `error` is one of
    the documented kinds, never an internal error.
A PASS must also rest on work: no report may count zero patterns.

The documented kinds are also held against the source: lrckit defines one
exception class per failure kind, exports each, and docs/schemas.md names
each.
"""

import concurrent.futures
import importlib
import inspect
import json
import pathlib
import pkgutil
import random

import pytest

import lrckit
from lrckit import cli
from lrckit.cli import main

# The closed set of exit-2 `error` kinds: three of the CLI's own, then
# ValueError and lrckit's exception classes, one per failure kind.
ERROR_KINDS = ("usage", "io", "internal", "ValueError",
               "FieldError", "DivideByZero", "MatrixError", "GraphError",
               "SchemaError", "BoundError", "NotInCatalog", "SearchExhausted",
               "BudgetExceeded", "ConstructionFailed")
EXCEPTION_CLASSES = ERROR_KINDS[4:]

RUNS = 1200
SEED = 20261018
INTS = (-2, 12)
# Families whose code grows exponentially in their flags draw small ints:
# `seq --r 5 --t 5` or `pgplane --s 5` alone take seconds.  So does a field
# GF(p^mdeg): --mdeg draws small ints everywhere.
SMALL_INTS = (-2, 3)
SMALL_FAMILIES = {"seq", "product", "wang", "pgplane", "steiner"}
# Values of the flags that are neither integers nor choices; some malformed.
STRINGS = {
    "graph": ["k4", "petersen", "heawood", "cycle:5", "complete:4",
              "cycle:x", "nonsense"],
    "modulus": ["[1,1,0,1]", "[1,0,1]", "5", '"x"', '{"a":1}', "[1.5,0,1]",
                "x", "[]"],
    "oracle": ["hamming", "singleton,plotkin", "griesmer"],
}
# Flags drawn on every run: the default of 10^5 samples takes seconds.
ALWAYS = {"samples"}
COMMANDS = {"construct": 3, "bound": 2, "verify": 6, "report": 1}
# Small code files to verify: n <= 21.  The last four carry local groups;
# mr-r12 is a short code over GF(16) whose whole dual (16^5 words) the
# verifiers walk.
CODES = {"k4": "moore --r 2 --t 2", "petersen": "moore --r 2 --t 4",
         "heawood-gf3": "incidence --graph heawood --q 3",
         "t2": "turan --r 2 --beta 2",
         "mr-rd2": "mr-rd2 --m 2 --r 2 --delta 1 --psi 4",
         "pmr-split": "pmr-split --m 2 --r 3 --delta 2 --q 7",
         "mr-coset": "mr-coset --n 6 --d-param 1 --q 13",
         "mr-r12": "mr-r12 --m 3 --r 2"}


def _value(rng, flag, spec, ints, files):
    if flag == "code":
        return files[rng.choice(list(files))]
    if "choices" in spec:
        return rng.choice(spec["choices"]) if rng.random() < 0.95 \
            else "nonsense"
    if flag in STRINGS:
        return rng.choice(STRINGS[flag])
    if "type" not in spec:  # the fractions --rc and --rmax
        return f"{rng.randint(*ints)}/{rng.randint(*ints)}"
    if rng.random() < 0.02:
        return "x"  # not an integer
    return str(rng.randint(*(SMALL_INTS if flag == "mdeg" else ints)))


def _argv(rng, files):
    """A command, one row of its table, and a draw of the flags that row
    declares: a required flag is left out one time in ten."""
    cmd = rng.choices(list(COMMANDS), weights=list(COMMANDS.values()))[0]
    name = rng.choice(list(cli.TABLES[cmd]))
    ints = SMALL_INTS if cmd == "construct" and name in SMALL_FAMILIES \
        else INTS
    argv = [cmd, name]
    for flag in cli.TABLES[cmd][name][0].split():
        spec = cli.FLAGS[cmd].get(flag, {"type": int, "required": True})
        keep = 1 if flag in ALWAYS else 0.9 if spec.get("required") else 0.4
        if rng.random() < keep:
            argv += ["--" + flag, _value(rng, flag, spec, ints, files)]
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


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def test_cli_contract_on_generated_input(code_files, capsys, monkeypatch):
    # `verify seq --jobs` runs its chunks in a process pool; threads stand in
    # here, so that a thousand runs start no process.  Chunks are independent
    # and seeded, so their reports are the same either way.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        concurrent.futures.ThreadPoolExecutor)
    rng = random.Random(SEED)
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
            error = json.loads(err)
            assert {"error", "message"} <= set(error), argv
            assert error["error"] in ERROR_KINDS, (argv, error)
            assert error["error"] != "internal", (argv, error)
            continue
        assert err == "", argv
        if argv[0] == "report":  # CSV or JSON tables
            assert rc == 0, argv
            continue
        payload = json.loads(out, parse_constant=_not_json)
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


def test_one_exception_class_per_failure_kind():
    defined = {}
    for info in pkgutil.iter_modules(lrckit.__path__):
        mod = importlib.import_module(f"lrckit.{info.name}")
        defined.update((name, cls) for name, cls in
                       inspect.getmembers(mod, inspect.isclass)
                       if issubclass(cls, BaseException)
                       and cls.__module__ == mod.__name__)
    assert defined.pop("_UsageError") is cli._UsageError
    assert sorted(defined) == sorted(EXCEPTION_CLASSES)
    exported = {name: cls for name, cls in vars(lrckit).items()
                if inspect.isclass(cls) and issubclass(cls, BaseException)}
    assert exported == defined
    assert sorted(cls.__name__ for cls in cli.ERRORS) == sorted(defined)
    docs = pathlib.Path(__file__).parents[1] / "docs" / "schemas.md"
    errors = docs.read_text().split("\n## Errors\n")[1].split("\n## ")[0]
    assert [kind for kind in ERROR_KINDS if f"`{kind}`" not in errors] == []
