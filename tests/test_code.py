import ast
import json
import os
import pathlib
import random
import subprocess
import sys
from itertools import combinations

import pytest

import lrckit
from lrckit import code as lcode, graphs
from lrckit.bounds import msw_sequence
from lrckit.code import (BudgetExceeded, LinearCode, code_from_generator,
                         dual, is_mds, min_distance,
                         puncture, shorten, support_weight,
                         _gaussian_binomial, _min_distance_columns)
from lrckit.field import field_make, field_of_size
from lrckit.lr_codes import tamo_barg_code
from lrckit.matrix import (Mat, lines, mat_rank, rref, subspaces,
                           vandermonde)

GF2 = field_make(2)


def codeword_set(c):
    return set(c.codewords())


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


def test_dual_involution_small():
    rng = random.Random(3)
    for gf in (GF2, field_make(3)):
        for _ in range(10):
            c = small_random_code(gf, 6, rng)
            dd = dual(dual(c))
            assert codeword_set(dd) == codeword_set(c)


def test_shorten_empty_set_is_identity():
    rng = random.Random(4)
    c = small_random_code(GF2, 7, rng)
    s = shorten(c, [])
    assert codeword_set(s) == codeword_set(c)


def test_puncture_shorten_duality():
    # dual of puncture = shorten of dual, as codeword sets, n <= 12
    rng = random.Random(7)
    for gf in (GF2, field_make(3)):
        for _ in range(8):
            c = small_random_code(gf, 8, rng)
            S = sorted(rng.sample(range(8), rng.randrange(1, 4)))
            left = dual(puncture(c, S))
            right = shorten(dual(c), S)
            assert codeword_set(left) == codeword_set(right)


def test_shortened_tamo_barg_dimension():
    # shortening on the support of i local checks keeps dim >= k + i - e_i
    gf = field_make(13)
    c = tamo_barg_code(12, 6, 3, gf)
    groups = c.provenance["groups"]
    seq = msw_sequence(12, 3, 3)
    for i in (1, 2):
        S = [x for g in groups[:i] for x in g]
        S = S + [max(S) + 1] * 0
        extra = [j for j in range(12) if j not in S]
        S = S + extra[: seq.term(i) - len(S)]
        sh = shorten(c, S)
        assert sh.k >= c.k + i - seq.term(i)


def test_min_distance_strategies_agree():
    rng = random.Random(11)
    for gf in (GF2, field_make(3), field_make(2, 2)):
        for _ in range(10):
            c = small_random_code(gf, 7, rng)
            if c.k == 0:
                continue
            reference = min(sum(map(bool, w)) for w in c.codewords()
                            if any(w))
            by_walk = support_weight(c, 1)
            by_cols = _min_distance_columns(c)
            assert by_walk == by_cols == reference == min_distance(c)


def test_min_distance_budget():
    H = Mat(field_make(2, 4), [[1] * 30])
    c = LinearCode(H)
    with pytest.raises(BudgetExceeded):
        min_distance(c, budget=10)


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
    words = [w for w in c.codewords()
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
    seen = [0] + [word for (word,) in subspaces(Mat.identity(GF2, m), 1)]
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
        span = set(code_from_generator(M).codewords())
        for i in range(1, min(k, 3) + 1):
            seen = set()
            for words in subspaces(M, i):
                basis = [_entries(gf, w, n) for w in words]
                assert len(basis) == i and set(basis) <= span
                R, _ = rref(Mat(gf, basis, cols=n))
                assert R.rows == i
                seen.add(R)
            assert len(seen) == _gaussian_binomial(k, i, q)
        assert list(lines(M)) == [_entries(gf, w, n)
                                  for (w,) in subspaces(M, 1)]


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


@pytest.mark.parametrize("q", [2, 3])
def test_codewords_are_the_generator_span_in_counter_order(q):
    gf = field_make(q)
    rng = random.Random(11)
    codes = [small_random_code(gf, rng.randrange(3, 8), rng)
             for _ in range(10)]
    codes.append(LinearCode(Mat.identity(gf, 4)))  # the zero code
    for c in codes:
        Gt = c.generator().transpose()
        assert (Gt.rows, Gt.cols) == (c.n, c.k)
        expected = [Gt.mul_vec([m // q ** i % q for i in range(c.k)])
                    for m in range(q ** c.k)]  # first row's digit fastest
        assert list(c.codewords()) == expected
    assert list(codes[-1].codewords()) == [(0, 0, 0, 0)]


def test_is_mds():
    assert is_mds(LinearCode(Mat(GF2, [[1, 1, 0], [0, 1, 1]])))  # [3,1,3]
    assert is_mds(LinearCode(Mat(GF2, [[1, 1, 1, 1]])))          # [4,3,2]
    c = tamo_barg_code(8, 4, 3, field_make(3, 2))
    assert min_distance(c) == 4 < 8 - 4 + 1
    assert not is_mds(c)


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
mr_codes.MrParams.k = property(lambda s: s.m * s.r - s.s + 1)
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
