"""Pytest plugin: fail the run when a line of a checked module is never
reached, unless `ALLOWED` names it, or when an entry of `ALLOWED` names no
unreached line.  Needs Python >= 3.12 (`sys.monitoring`); lines that run
only in a subprocess are not seen.  From the repository root:

    PYTHONPATH=src:tests python -m pytest -q -p line_reach
"""

import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "lrckit"
TARGETS = {str(path): path.name for path in sorted(SRC.glob("*.py"))}
# (module, stripped source line) -> why no test reaches it.  Only invariant
# raises belong here: checks that hold unless the construction has a defect.
_FIXTURE = "invariant: a fixed construction, checked as it is built"
ALLOWED = {
    ("graphs.py", 'raise ConstructionFailed("Hoffman-Singleton fixture '
                  'failed checks")'): _FIXTURE,
    ("graphs.py", 'raise ConstructionFailed("projective plane incidence '
                  'girth != 6")'): _FIXTURE,
    ("graphs.py", 'raise ConstructionFailed("generalized quadrangle '
                  'incidence failed")'): _FIXTURE,
    ("graphs.py", 'raise ConstructionFailed("12-cage fixture failed '
                  'checks")'): _FIXTURE,
    ("graphs.py", 'raise ConstructionFailed("no perfect matching found")'):
        "invariant: each round leaves a regular bipartite graph, which has "
        "a perfect matching (Konig)",
    ("graphs.py", 'raise ConstructionFailed("matchings do not give a proper '
                  'coloring")'):
        "invariant: disjoint perfect matchings color properly",
    ("graphs.py", 'raise ConstructionFailed("catalog graph fails Moore '
                  'checks")'): _FIXTURE,
    ("field.py", 'raise FieldError(f"no irreducible polynomial of degree '
                 '{m} over GF({p})")'):
        "invariant: every degree has a monic irreducible polynomial",
    ("field.py", 'raise FieldError("no primitive element found")'):
        "invariant: GF(q)* is cyclic, so it has a generator",
    ("field.py", 'raise FieldError("primitive element does not generate '
                 'the group")'):
        "invariant: the table walk's self-check of the powers it built",
    ("field.py", 'raise FieldError("modulus has no root in the extension")'):
        "invariant: a subfield holds the roots of its own modulus",
    ("lr_codes.py", 'raise ConstructionFailed(f"MDS generator not '
                    'systematic: {pivots}")'):
        "invariant: every k columns of a Vandermonde matrix at distinct "
        "points are independent, so its RREF pivots are the first k",
    ("lr_codes.py", 'raise ConstructionFailed("cosets must be pairwise '
                    'disjoint")'):
        "invariant: distinct cosets of a subgroup are disjoint",
    ("lr_codes.py", 'raise ConstructionFailed(f"x^{r + 1} is not constant '
                    'on {coset}")'):
        "invariant: x^(r+1) is constant on each coset of the order-(r+1) "
        "subgroup",
    ("mr_codes.py", 'raise ConstructionFailed("theta points collide")'):
        "invariant: mr-r12 puts each group in its own coset of <beta>, as "
        "r(q-1) > (2^l - 1)mr, and beta has order above r; pmr-a1 draws "
        "distinct roots per group, each group in its own coset",
    ("seq_codes.py", 'raise ConstructionFailed("cyclic orbits not all full '
                     'size")'):
        "invariant: gcd(L+1, m) = 1, checked first, gives every "
        "weight-(L+1) orbit m members",
    ("seq_codes.py", 'raise ConstructionFailed(f"a check does not have '
                     'weight r+1 = {r + 1}")'):
        "invariant: a row lies in C(m-1, w-1) columns of each weight "
        "w <= L and in J orbit columns, 1 + r in all",
    ("seq_codes.py", 'raise ConstructionFailed(f"{count} leaves of color '
                     '{c}, not a "'):
        "invariant: four identically colored trees give each color a "
        "multiple of 4 leaves",
    ("seq_codes.py", 'raise ConstructionFailed("base graph coloring is not '
                     'proper")'):
        "invariant: a child edge takes a color its parent edge leaves "
        "free, and each gadget is properly colored in its leaves' free "
        "colors",
    ("seq_codes.py", 'raise ConstructionFailed("auxiliary girth '
                     'insufficient")'):
        "invariant: bipartite_regular_girth gives the girth it is asked "
        "for or raises",
    ("seq_codes.py", 'raise ConstructionFailed("auxiliary coloring is not '
                     'perfect")'):
        "invariant: each color of a regular bipartite graph's coloring is "
        "a perfect matching (edge_color_bipartite)",
    ("seq_codes.py", 'raise ConstructionFailed(f"expanded graph girth '
                     '{got_girth} < {t+1}")'):
        "invariant: the expansion inherits the auxiliary graph's girth",
}
_mon = sys.monitoring
_reached = {path: set() for path in TARGETS}


def _line(code, line):
    lines = _reached.get(code.co_filename)
    if lines is not None:
        lines.add(line)
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
    unreached, stale = [], set(ALLOWED)
    for path, name in TARGETS.items():
        with open(path) as fh:
            source = fh.read()
        text = source.splitlines()
        for line in sorted(_executable(compile(source, path, "exec"))
                           - _reached[path]):
            key = (name, text[line - 1].strip())
            if key in ALLOWED:
                stale.discard(key)
            else:
                unreached.append(f"{name}:{line}")
    session.config.line_reach = unreached, sorted(stale)
    if unreached or stale:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter, config):
    unreached, stale = config.line_reach
    terminalreporter.write_line(
        f"line_reach: {len(unreached)} unreached lines outside the "
        f"allowlist: {unreached}")
    if stale:
        terminalreporter.write_line(
            f"line_reach: allowlist entries that name no unreached line: "
            f"{stale}")
