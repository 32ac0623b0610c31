import ast
import json
import os
import pathlib
import random
import subprocess
import sys
from itertools import combinations, product

import pytest

import lrckit
from lrckit import code as lcode, graphs
from lrckit.bounds import msw_sequence
from lrckit.code import (BudgetExceeded, LinearCode, code_from_generator,
                         is_mds, min_distance, puncture, support_weight,
                         _gaussian_binomial, _min_distance_columns)
from lrckit.field import field_make, field_of_size
from lrckit.lr_codes import tamo_barg_code
from lrckit.matrix import (Mat, first_deficient, first_dependent, mat_rank,
                           rref, subspaces, vandermonde)
from lrckit.mr_codes import pmr_general_a1

GF2 = field_make(2)


def row_span(M):
    """Every linear combination of the rows of M, the zero word first; the
    coefficients count up in base q, the first row's fastest.  The plain
    reference for the span walks of `matrix.subspaces`."""
    gf = M.gf
    for msg in product(range(gf.q), repeat=M.rows):  # the last digit fastest
        word = [0] * M.cols
        for a, row in zip(msg[::-1], M.data):
            if a:
                word = [gf.add(w, gf.mul(a, x)) for w, x in zip(word, row)]
        yield tuple(word)


def codeword_set(c):
    return set(row_span(c.generator()))


def small_random_code(gf, n, rng):
    rows = [[rng.randrange(gf.q) for _ in range(n)]
            for _ in range(rng.randrange(1, n))]
    return LinearCode(Mat(gf, rows, cols=n))


def test_dimension_from_rank_not_metadata():
    # redundant rows must not inflate the row count that matters
    H = Mat(GF2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])  # rank 2
    c = LinearCode(H)
    assert c.k == 1


def test_repetition_distance():
    H = Mat(GF2, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    c = LinearCode(H)
    assert (c.n, c.k) == (4, 1)
    assert min_distance(c) == 4


def test_puncture_shorten_duality():
    # dual of puncture = shorten of dual, as codeword sets, n <= 12: a dual
    # is the span of the parity checks, and shortening on S keeps the words
    # that vanish on S, without S
    rng = random.Random(7)
    for gf in (GF2, field_make(3)):
        for _ in range(8):
            c = small_random_code(gf, 8, rng)
            S = sorted(rng.sample(range(8), rng.randrange(1, 4)))
            keep = [j for j in range(8) if j not in S]
            left = set(row_span(puncture(c, S).H))
            right = {tuple(w[j] for j in keep) for w in row_span(c.H)
                     if not any(w[j] for j in S)}
            assert left == right


def test_shortened_tamo_barg_dimension():
    # shortening on the support of i local checks keeps dim >= k + i - e_i
    gf = field_make(13)
    c = tamo_barg_code(12, 6, 3, gf)
    groups = c.provenance["groups"]
    seq = msw_sequence(12, 3, 3)
    for i in (1, 2):
        S = [x for g in groups[:i] for x in g]
        extra = [j for j in range(12) if j not in S]
        S = S + extra[: seq[i - 1] - len(S)]
        # the codewords that vanish on S: the messages G_S maps to zero
        shortened_k = c.k - mat_rank(c.generator().select_columns(S))
        assert shortened_k >= c.k + i - seq[i - 1]


def random_code(gf, n, rows, rng):
    """The code of a random H with `rows` rows over GF(q); each code draws
    how many entries are nonzero, so that the distances spread."""
    density = rng.choice((0.5, 0.8, 1.0))
    return LinearCode(Mat(gf, [[rng.randrange(gf.q) if rng.random() < density
                                else 0 for _ in range(n)]
                               for _ in range(rows)], cols=n))


def test_min_distance_strategies_agree(monkeypatch):
    """The column walk, on either side, agrees with the codewords listed
    outright; each walk is counted by the w it decides (n - size on G's
    side), and G's side runs exactly when k <= n - k."""
    walked, sides, ran = [], set(), set()

    def on_h(M, stages):
        walked.append(stages[0][1])
        sides.add("H")
        return first_dependent(M, stages)

    def on_g(M, size):
        walked.append(M.cols - size)
        sides.add("G")
        return first_deficient(M, size)

    monkeypatch.setattr(lcode, "first_dependent", on_h)
    monkeypatch.setattr(lcode, "first_deficient", on_g)
    rng = random.Random(11)
    seen = set()
    for gf in (GF2, field_make(3), field_make(2, 2)):
        codes = [small_random_code(gf, 7, rng) for _ in range(10)]
        codes += [random_code(gf, n, rows, rng)
                  for n, rows in ((7, 2), (7, 5), (8, 4), (6, 3))]
        for c in codes:
            if c.k == 0:
                continue
            reference = min(sum(map(bool, w)) for w in codeword_set(c)
                            if any(w))
            by_walk = support_weight(c, 1)
            walked.clear()
            sides.clear()
            by_cols = _min_distance_columns(c)
            side = "G" if c.k <= c.n - c.k else "H"
            assert sides == ({side} if c.k < c.n else set())
            ran |= sides
            # guess = 1 deepens from 1; any other guess moves only the start
            assert walked == list(range(1, min(reference, c.n - c.k) + 1))
            assert by_walk == by_cols == reference == min_distance(c)
            for guess in range(c.n + 3):
                assert _min_distance_columns(c, guess) == reference, guess
                assert min_distance(c, guess) == reference, guess
            if 2 <= reference <= c.n - c.k:
                seen.add(reference)
                walked.clear()
                _min_distance_columns(c, reference)
                assert walked == [reference - 1, reference]
    assert len(seen) >= 3
    assert ran == {"G", "H"}


def _distance_by_dependent_columns(c):
    """The smallest w for which some w columns of a full-rank H are
    dependent: d by H's walk alone."""
    H = c.full_rank_checks()
    return next(w for w in range(1, c.n - c.k + 2)
                if first_dependent(H, [(None, w)])[1] is not None)


def test_min_distance_sides_match_dependent_columns():
    """`min_distance` and the column walk agree with H's walk alone at
    several guesses, on codes with k below, equal to and above n - k over
    GF(2^8) and GF(13^3), and on pmr-a1 codes, whose k <= n - k puts them
    on G's side."""
    rng = random.Random(24)
    codes = []
    for gf in (field_make(2, 8), field_make(13, 3)):
        for n, rows in ((8, 5), (9, 6), (8, 4), (10, 5), (8, 3), (9, 4)):
            codes += [random_code(gf, n, rows, rng) for _ in range(2)]
    codes += [pmr_general_a1(3, 3, delta, 13)[0] for delta in (3, 4, 5)]
    sides, distances = set(), set()
    for c in codes:
        d = _distance_by_dependent_columns(c)
        sides.add((c.k > c.n - c.k) - (c.k < c.n - c.k))
        distances.add(d)
        for guess in {0, 1, d - 1, d, d + 1, c.n - c.k, c.n + 1}:
            assert _min_distance_columns(c, guess) == d, guess
            assert min_distance(c, guess) == d, guess
    assert sides == {-1, 0, 1}
    assert len(distances) >= 4


def test_min_distance_budget(monkeypatch):
    H = Mat(field_make(2, 4), [[1] * 30])
    c = LinearCode(H)
    assert min_distance(c) == 2
    monkeypatch.setattr(lcode, "MIN_DISTANCE_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        min_distance(c)


def test_support_weight_first_is_distance():
    gf5 = field_make(5)
    G = vandermonde(gf5, [1, 2, 3, 4], 2)  # [4, 2] MDS
    c = code_from_generator(G)
    assert support_weight(c, 1) == min_distance(c) == 3
    assert support_weight(c, 2) == 4


def test_support_weight_monotone():
    # strictly increasing prefixes on a handful of binary codes
    rng = random.Random(13)
    for _ in range(6):
        c = small_random_code(GF2, 9, rng)
        if c.k < 2:
            continue
        vals = [support_weight(c, i) for i in range(1, min(c.k, 4) + 1)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def _support_weight_reference(c, i):
    """Smallest support over every i-subset of nonzero codewords that spans
    an i-dimensional subcode, by listing the codewords outright; only those
    whose first nonzero entry is 1, since scaling keeps a word's support."""
    words = [w for w in row_span(c.generator())
             if any(w) and next(x for x in w if x) == 1]
    best = c.n + 1
    for subset in combinations(words, i):
        if mat_rank(Mat(c.gf, list(subset))) == i:
            support = {j for w in subset for j, x in enumerate(w) if x}
            best = min(best, len(support))
    return best


@pytest.mark.parametrize("m", range(7))
def test_gray_flips_walk_every_combination_once(m):
    # over GF(2), the 1-dimensional subspaces of the span of m unit vectors
    # are its 2^m - 1 nonzero words, each walked once
    unit = Mat(GF2, [[int(i == j) for j in range(m)] for i in range(m)])
    seen = [0] + [word for (word,) in subspaces(unit, 1)]
    assert sorted(seen) == list(range(1 << m))


def _entries(gf, word, n):
    """A word that `subspaces` yields, as a tuple of entries."""
    if gf.q == 2:
        return Mat.from_bits(gf, [word], n).data[0]
    return tuple(gf._exp[x] if x >= 0 else 0 for x in word)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_subspaces_walk_each_subspace_once(q):
    gf = field_of_size(q)
    rng = random.Random(q)
    for k in range(1, 5):
        n = k + rng.randrange(3)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        while mat_rank(Mat(gf, rows, cols=n)) < k:
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        M = Mat(gf, rows, cols=n)
        span = set(row_span(M))
        for i in range(1, min(k, 3) + 1):
            seen = set()
            for words in subspaces(M, i):
                basis = [_entries(gf, w, n) for w in words]
                assert len(basis) == i and set(basis) <= span
                R, _ = rref(Mat(gf, basis, cols=n))
                assert R.rows == i
                seen.add(R)
            assert len(seen) == _gaussian_binomial(k, i, q)


def test_support_weight_gf2_matches_reference():
    rng = random.Random(7)
    for gf, count in ((GF2, 12), (field_make(3), 6), (field_make(2, 2), 6)):
        checked = 0
        while checked < count:
            c = small_random_code(gf, rng.randrange(4, 8), rng)
            if not 1 <= c.k <= (4 if gf.q == 2 else 3):
                continue
            for i in range(1, c.k + 1):
                assert support_weight(c, i) == _support_weight_reference(c, i)
            checked += 1


def test_is_mds():
    assert is_mds(LinearCode(Mat(GF2, [[1, 1, 0], [0, 1, 1]])))  # [3,1,3]
    assert is_mds(LinearCode(Mat(GF2, [[1, 1, 1, 1]])))          # [4,3,2]
    c = tamo_barg_code(8, 4, 3, field_make(3, 2))
    assert min_distance(c) == 4 < 8 - 4 + 1
    assert not is_mds(c)


def test_is_mds_is_the_singleton_distance():
    """`is_mds` asks `min_distance`'s column test once, at w = n - k, so
    is_mds(c) holds exactly when d = n - k + 1: on the corpus of
    `test_min_distance_sides_match_dependent_columns` with pmr-a1's
    punctured codes, and on seeded small codes over GF(2), GF(3) and GF(4),
    k = 0 and k = n among them."""
    rng = random.Random(24)
    codes = []
    for gf in (field_make(2, 8), field_make(13, 3)):
        for n, rows in ((8, 5), (9, 6), (8, 4), (10, 5), (8, 3), (9, 4)):
            codes += [random_code(gf, n, rows, rng) for _ in range(2)]
    for delta in (3, 4, 5):
        c = pmr_general_a1(3, 3, delta, 13)[0]
        pattern = c.provenance["local_structure"].admissible_pattern()
        codes += [c, puncture(c, list(pattern))]
    rng = random.Random(31)
    for gf in (GF2, field_make(3), field_make(2, 2)):
        for n in range(2, 8):
            codes += [small_random_code(gf, n, rng) for _ in range(6)]
        for n in (1, 2, 5):
            codes += [LinearCode(Mat(gf, [[0] * n])),  # k = n
                      LinearCode(Mat(gf, [[int(i == j) for j in range(n)]
                                          for i in range(n)]))]  # k = 0
    sides, verdicts = set(), set()
    for c in codes:
        if c.k == 0:  # the zero code has no nonzero word: MDS vacuously
            assert is_mds(c)
            continue
        mds = is_mds(c)
        assert mds == (min_distance(c) == c.n - c.k + 1), c
        verdicts.add(mds)
        if c.k < c.n:
            sides.add("G" if c.k <= c.n - c.k else "H")
    assert sides == {"G", "H"} and verdicts == {True, False}


def test_cross_oracle_distance_vs_dependent_columns():
    # smallest dependent column count of a full-rank H equals min distance
    rng = random.Random(17)
    for _ in range(10):
        c = small_random_code(field_make(3), 8, rng)
        if c.k == 0:
            continue
        H = c.full_rank_checks()
        best = None
        for w in range(1, c.n - c.k + 2):
            found = any(mat_rank(H.select_columns(cols)) < w
                        for cols in combinations(range(c.n), w))
            if found:
                best = w
                break
        assert best == min_distance(c)


def test_generator_parity_orthogonal():
    rng = random.Random(23)
    c = small_random_code(field_make(2, 2), 6, rng)
    G = c.generator()
    assert c.H.mul(G.transpose()).is_zero()


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_the_package():
    """Invariants are explicit raises of their own exception classes, so
    `python -O` keeps every one: no `assert`, and no `raise AssertionError`
    standing in for one."""
    found = [f"{path.name}:{node.lineno}"
             for path in pathlib.Path(lrckit.__file__).parent.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert) or (
                 isinstance(node, ast.Raise) and node.exc is not None
                 and _raises_assertion_error(node))]
    assert found == []


# Public names that no module of the package reaches by name, and why each
# stays.
UNREFERENCED_ALLOWED = {
    "heawood_graph": "`cli.graph` reaches it by getattr, from --graph heawood",
    "load": "the plain-path reader that the codec tests compare against",
    "dumps": "`io.dump` as a string, which the codec tests compare with "
             "`json.dumps`",
}


UNSET_OPTIONS_ALLOWED = {
    "main(argv)": "the entry point: the console script calls `main()`, and "
                  "the tests pass argv",
}


def test_no_public_name_is_reached_only_from_the_package_exports():
    """A public top-level function or class of `src/lrckit`, or a public
    method or property of one of its public classes, is referenced, as a
    Name or an Attribute, from some module other than `__init__.py`, or it
    is dead API and is deleted; UNREFERENCED_ALLOWED lists the exceptions.
    Likewise a defaulted parameter of a public function or method, or of
    the `__init__` of a public class, is set, by position or by
    keyword, by some call in `src/lrckit` (a `*` argument sets every
    positional one, a `**` argument every one), or it is an option nobody
    uses and becomes a constant; UNSET_OPTIONS_ALLOWED lists the
    exceptions.

    The scan matches bare names, so a name that some other attribute or
    local variable shares hides from it: a method `order`, `split`, `n` or
    `classes` would pass whoever calls it, and so does `io.dumps`, which
    `json.dumps` shares.  Calls too are matched by bare name: a parameter
    passes when any function of the same name, `json.dumps` for
    `io.dumps`, is called with it.  A subscript such as `Mat.__getitem__`
    is not seen at all."""
    defined, referenced = set(), set()
    options, calls = [], []  # (function, position or None, parameter)
    for path in pathlib.Path(lrckit.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        members = [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                   and not cls.name.startswith("_") for node in cls.body]
        defined.update(node.name for node in tree.body + members
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and not node.name.startswith("_"))
        functions = [(node.name, node) for node in tree.body + members
                     if isinstance(node, ast.FunctionDef)
                     and not node.name.startswith("_")]
        # a public class's __init__ is called by the class's name
        functions += [(cls.name, node) for cls in tree.body
                      if isinstance(cls, ast.ClassDef)
                      and not cls.name.startswith("_") for node in cls.body
                      if isinstance(node, ast.FunctionDef)
                      and node.name == "__init__"]
        for name, node in functions:
            args = node.args
            positional = args.posonlyargs + args.args
            if node in members:  # self or cls is not passed in the call
                positional = positional[1:]
            options += [(name, i, p.arg)
                        for i, p in enumerate(positional)
                        if i >= len(positional) - len(args.defaults)]
            options += [(name, None, p.arg) for p, default
                        in zip(args.kwonlyargs, args.kw_defaults)
                        if default is not None]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.Call):
                calls.append(node)
    assert set(UNREFERENCED_ALLOWED) <= defined
    assert sorted(defined - referenced - set(UNREFERENCED_ALLOWED)) == []

    def sets(call, name, i, param):
        fn = call.func
        return getattr(fn, "id", getattr(fn, "attr", None)) == name and (
            any(k.arg in (None, param) for k in call.keywords)
            or i is not None and (len(call.args) > i or any(
                isinstance(a, ast.Starred) for a in call.args)))

    unset = {f"{name}({param})" for name, i, param in options
             if not any(sets(call, name, i, param) for call in calls)}
    assert set(UNSET_OPTIONS_ALLOWED) <= {f"{name}({param})"
                                          for name, _, param in options}
    assert sorted(unset - set(UNSET_OPTIONS_ALLOWED)) == []


_BROKEN_CONSTRUCTIONS = """
import json, sys
from fractions import Fraction
from lrckit import mr_codes, seq_codes
from lrckit.cli import main

def attempt(build):
    try:
        build()
    except Exception as e:
        return type(e).__name__
    return "built"

seq_codes.seq_rate_bound = lambda r, t: Fraction(0)
out = {"debug": __debug__,
       "seq": attempt(lambda: seq_codes.seq_general_code(3, 3)),
       "cli": main(["construct", "seq", "--r", "3", "--t", "3"])}
mr_codes._n_k = lambda m, r, delta, s: (m * (r + delta), m * r - s + 1)
out["mr"] = attempt(lambda: mr_codes.mr_r12(3, 2))
sys.stdout.write(json.dumps(out))
"""


def test_construction_invariants_hold_under_python_O():
    """A rate that misses its bound, or a declared k that misses the rank,
    raises ConstructionFailed with asserts stripped; the CLI exits 2."""
    src = str(pathlib.Path(lrckit.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_CONSTRUCTIONS],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert json.loads(proc.stdout) == {"debug": False,
                                       "seq": "ConstructionFailed",
                                       "cli": 2, "mr": "ConstructionFailed"}
    assert json.loads(proc.stderr)["error"] == "ConstructionFailed"


def test_construction_failed_is_one_class():
    assert lrckit.ConstructionFailed is graphs.ConstructionFailed \
        is lcode.ConstructionFailed


def test_linear_code_refusals(monkeypatch):
    """A generator that disagrees with H, a puncture outside the code, the
    zero code's distance, a support weight past k, and walks past their
    budgets are refused with their exact messages."""
    H = Mat(GF2, [[1, 1, 0], [0, 1, 1]])  # the [3, 1] repetition code
    code = LinearCode(H)
    assert repr(code) == "LinearCode[n=3, k=1] over GF(2)"
    with pytest.raises(ValueError, match="^generator inconsistent with "
                       "parity check$"):
        LinearCode(H, G=Mat(GF2, [[1, 1, 1], [1, 0, 0]]))
    with pytest.raises(ValueError, match=r"^G H\^T != 0$"):
        LinearCode(H, G=Mat(GF2, [[1, 0, 0]]))
    with pytest.raises(ValueError, match=r"^coordinate set outside \[0, 3\)$"):
        puncture(code, [3])
    with pytest.raises(ValueError, match="^the zero code has no nonzero "
                       "codeword$"):
        min_distance(LinearCode(Mat(GF2, [[1, 0], [0, 1]])))
    with pytest.raises(ValueError, match="^need 1 <= i <= k, got 2$"):
        support_weight(code, 2)
    even = LinearCode(Mat(GF2, [[1, 1, 1]]))  # [3, 2]: 3 one-dim subspaces
    with pytest.raises(BudgetExceeded, match="^3 subspaces > budget 2$"):
        support_weight(even, 1, budget=2)
    monkeypatch.setattr(lcode, "IS_MDS_BUDGET", 2)
    with pytest.raises(BudgetExceeded, match=r"^C\(3,1\) column subsets > 2$"):
        is_mds(even)
