"""Pytest plugin: fail the run when a line of `src/lrckit/verify.py` is never
reached.  Needs Python >= 3.12 (`sys.monitoring`); lines that run only in a
subprocess are not seen.  From the repository root:

    PYTHONPATH=src:tests python -m pytest -q -p line_reach
"""

import pathlib
import sys

TARGET = str(pathlib.Path(__file__).resolve().parents[1]
             / "src" / "lrckit" / "verify.py")
_mon = sys.monitoring
_reached = set()


def _line(code, line):
    if code.co_filename == TARGET:
        _reached.add(line)
    return _mon.DISABLE  # each line of each code object is reported once


def _executable(code):
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable(const)
    return lines


def pytest_configure(config):
    _mon.use_tool_id(_mon.COVERAGE_ID, "line_reach")
    _mon.register_callback(_mon.COVERAGE_ID, _mon.events.LINE, _line)
    _mon.set_events(_mon.COVERAGE_ID, _mon.events.LINE)


def pytest_sessionfinish(session):
    _mon.set_events(_mon.COVERAGE_ID, 0)
    with open(TARGET) as fh:
        code = compile(fh.read(), TARGET, "exec")
    session.config.unreached = sorted(_executable(code) - _reached)
    if session.config.unreached:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter, config):
    terminalreporter.write_line(
        f"line_reach: {len(config.unreached)} unreached lines of {TARGET}: "
        f"{config.unreached}")
