"""The CLI's tables: every row's parser takes exactly the flags its call
reads, names a missing or foreign flag in a usage error, and has --help."""

import inspect
import json

import pytest

from lrckit import cli
from lrckit.cli import main

ROWS = [(cmd, name) for cmd, table in cli.TABLES.items() for name in table]
IDS = [f"{cmd} {name}" for cmd, name in ROWS]


def _spec(cmd, flag):
    return cli.FLAGS[cmd].get(flag, {"type": int, "required": True})


def _required(cmd, name):
    return [f for f in cli.TABLES[cmd][name][0].split()
            if _spec(cmd, f).get("required")]


def _dummy(cmd, flag):
    """A value the parser accepts for `flag` (the call may still reject
    it)."""
    spec = _spec(cmd, flag)
    if "choices" in spec:
        return spec["choices"][0]
    if spec.get("type") is int:
        return "1"
    return {"graph": "k4", "modulus": "[1,1]", "oracle": "hamming",
            "code": "code.json"}.get(flag, "1/2")  # --rc, --rmax: fractions


def _foreign(cmd, name):
    """A flag of another row of the same command."""
    own = set(cli.TABLES[cmd][name][0].split())
    return min({f for other in cli.TABLES[cmd].values()
                for f in other[0].split()} - own)


def _full_argv(cmd, name):
    argv = [cmd, name]
    for flag in cli.TABLES[cmd][name][0].split():
        argv += ["--" + flag, _dummy(cmd, flag)]
    return argv


@pytest.mark.parametrize("cmd,name", ROWS, ids=IDS)
def test_row_parser_takes_exactly_the_flags_its_call_reads(cmd, name):
    flags, call = cli.TABLES[cmd][name]
    dests = {f.replace("-", "_") for f in flags.split()}
    params = inspect.signature(call).parameters.values()
    named = {p.name for p in params if p.kind != p.VAR_KEYWORD}
    if any(p.kind == p.VAR_KEYWORD for p in params):  # the field flags
        named |= set(inspect.signature(cli._field).parameters)
    assert named == dests
    argv = _full_argv(cmd, name)
    args = cli.row_parser(cmd, name).parse_args(argv[2:])
    assert set(vars(args)) == dests | {"out"}


@pytest.mark.parametrize("cmd,name", ROWS, ids=IDS)
def test_row_names_a_foreign_flag(cmd, name, capsys):
    foreign = _foreign(cmd, name)
    argv = _full_argv(cmd, name) + ["--" + foreign, _dummy(cmd, foreign)]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage"
    assert f"unrecognized arguments: --{foreign}" in err["message"]


@pytest.mark.parametrize("cmd,name", [row for row in ROWS if _required(*row)],
                         ids=[i for row, i in zip(ROWS, IDS)
                              if _required(*row)])
def test_row_names_a_missing_flag(cmd, name, capsys):
    flag = _required(cmd, name)[0]
    argv = _full_argv(cmd, name)
    at = argv.index("--" + flag)
    assert main(argv[:at] + argv[at + 2:]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage" and f"required: --{flag}" in err["message"]


@pytest.mark.parametrize("cmd,name", ROWS, ids=IDS)
def test_row_help_exits_0(cmd, name, capsys):
    assert main([cmd, name, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: lrckit {cmd} {name}")


def _broken_call(cmd, name):
    """A usage error: a required flag left out, or if the row has none, a
    flag of another row."""
    argv = _full_argv(cmd, name)
    required = _required(cmd, name)
    if required:
        at = argv.index("--" + required[0])
        return argv[:at] + argv[at + 2:]
    foreign = _foreign(cmd, name)
    return argv + ["--" + foreign, _dummy(cmd, foreign)]


def _run(argv, capsys, fresh):
    if fresh:
        cli.build_parser.cache_clear()
        cli.row_parser.cache_clear()
    rc = main(argv)
    return (rc,) + tuple(capsys.readouterr())


@pytest.mark.parametrize("cmd,name", ROWS, ids=IDS)
def test_a_reused_parser_leaks_nothing_between_calls(cmd, name, capsys,
                                                     monkeypatch):
    """The parsers are built once per process: --help and a usage error
    read the same through them, in either order, as through new ones."""
    monkeypatch.setenv("COLUMNS", "80")
    calls = [[cmd, name, "--help"], _broken_call(cmd, name)]
    seen = {}
    for order in (calls, calls[::-1]):
        for fresh in (False, True):
            for argv in order:
                seen.setdefault(tuple(argv), []).append(
                    _run(argv, capsys, fresh))
    help_out, usage = (seen[tuple(argv)] for argv in calls)
    assert help_out[0][0] == 0 and "usage: lrckit" in help_out[0][1]
    assert usage[0][0] == 2 and json.loads(usage[0][2])["error"] == "usage"
    for outcomes in (help_out, usage):
        assert len(outcomes) == 4 and len(set(outcomes)) == 1, outcomes


def test_a_repeated_call_prints_the_same_but_its_timestamp(capsys,
                                                            monkeypatch):
    stamps = iter([1_000_000_000, 2_000_000_000])
    monkeypatch.setattr(cli.time, "time", lambda: next(stamps))
    argv = ["bound", "lr-singleton", "--n", "12", "--k", "6", "--r", "3"]
    (rc1, out1, err1), (rc2, out2, err2) = (
        _run(argv, capsys, fresh=False) for _ in range(2))
    assert (rc1, err1, rc2, err2) == (0, "", 0, "")
    assert json.loads(out1)["manifest"]["timestamp"] == 1_000_000_000
    assert out1.replace("1000000000", "2000000000") == out2
