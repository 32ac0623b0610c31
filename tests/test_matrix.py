import random
from itertools import combinations

import pytest

from lrckit.field import field_make
from lrckit.matrix import (Mat, MatrixError,
                           columns_independent, first_deficient,
                           first_dependent,
                           mat_nullspace, mat_rank, rref,
                           vandermonde)


def random_matrix(gf, rows, cols, rng):
    return Mat(gf, [[rng.randrange(gf.q) for _ in range(cols)]
                    for _ in range(rows)])


def test_identity_rank():
    gf = field_make(7)
    assert mat_rank(Mat(gf, [[int(i == j) for j in range(6)]
                             for i in range(6)])) == 6


def test_zero_matrix_nullspace():
    gf = field_make(2)
    N = mat_nullspace(Mat(gf, [[0] * 3] * 2))
    assert N.rows == 3 and mat_rank(N) == 3


def test_single_parity_nullspace_gf2():
    gf = field_make(2)
    M = Mat(gf, [[1, 1, 1]])
    N = mat_nullspace(M)
    assert N.rows == 2
    words = {tuple(r) for r in N.data}
    for w in words:
        assert sum(w) % 2 == 0


@pytest.mark.parametrize("q", [(2, 1), (2, 4), (3, 2), (7, 1)])
def test_rank_transpose_and_nullspace_randomized(q):
    gf = field_make(*q)
    rng = random.Random(99)
    for _ in range(25):
        M = random_matrix(gf, rng.randrange(1, 6), rng.randrange(1, 7), rng)
        r = mat_rank(M)
        assert r == mat_rank(M.transpose())
        N = mat_nullspace(M)
        assert N.rows == M.cols - r
        if N.rows:
            assert M.mul(N.transpose()).is_zero()
            assert mat_rank(N) == N.rows


def test_gf2_bitrows_path_consistency():
    gf2 = field_make(2)
    rng = random.Random(5)
    for _ in range(25):
        rows = [[rng.randrange(2) for _ in range(8)] for _ in range(5)]
        M = Mat(gf2, rows)
        R, pivots = rref(M)
        assert mat_rank(M) == len(pivots)
        # every original row lies in the row space of the rref rows
        for row in rows:
            aug = Mat(gf2, list(R.data) + [row])
            assert mat_rank(aug) == R.rows


def test_vandermonde_all_ones_row():
    gf = field_make(7)
    V = vandermonde(gf, [1, 2, 3], 1)
    assert V.data == ((1, 1, 1),)


def test_vandermonde_minors_mds():
    gf = field_make(7)
    V = vandermonde(gf, [1, 2, 3, 4, 5, 6], 2)
    for cols in combinations(range(6), 2):
        assert columns_independent(V, cols)
    # nonsingular square case on k distinct points, k <= 6
    for k in range(2, 7):
        Vk = vandermonde(gf, list(range(k)), k)
        assert mat_rank(Vk) == k


def test_vandermonde_gf16_rank():
    gf = field_make(2, 4)
    pts = [gf.pow(gf.primitive, i) for i in range(9)]
    V = vandermonde(gf, pts, 5)
    assert mat_rank(V) == 5


def test_vandermonde_duplicate_point():
    gf = field_make(7)
    with pytest.raises(MatrixError, match="distinct"):
        vandermonde(gf, [1, 1, 2], 2)


# Fields of every kind the elimination kernel serves: GF(2) bits, binary
# extensions, a prime field and odd-characteristic extensions.
KERNEL_FIELDS = [(2, 1), (2, 2), (2, 6), (17, 1), (5, 2), (13, 3)]


def _planted_matrix(gf, rng, rows=5, cols=9):
    """Sparse random matrix with column 7 = a*col0 + b*col3 and column 8 a
    multiple of column 1, so some small column subsets are dependent."""
    data = [[rng.randrange(gf.q) if rng.random() < 0.6 else 0
             for _ in range(cols)] for _ in range(rows)]
    a, b, c = (rng.randrange(1, gf.q) for _ in range(3))
    for row in data:
        row[7] = gf.add(gf.mul(a, row[0]), gf.mul(b, row[3]))
        row[8] = gf.mul(c, row[1])
    return Mat(gf, data)


def _rref_reference(M):
    """Gauss-Jordan elimination with per-entry field operations."""
    gf = M.gf
    mat = [list(r) for r in M.data]
    pivots = []
    for c in range(M.cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = gf.inv(mat[r][c])
        mat[r] = [gf.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [gf.sub(x, gf.mul(f, y))
                          for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
    return [tuple(r) for r in mat[:len(pivots)]], pivots


@pytest.mark.parametrize("pm", KERNEL_FIELDS, ids=str)
def test_columns_independent_matches_rank(pm):
    gf = field_make(*pm)
    rng = random.Random(31)
    outcomes = set()
    for _ in range(4):
        M = _planted_matrix(gf, rng)
        assert not columns_independent(M, [0, 3, 7])
        assert not columns_independent(M, [8, 1])
        for w in range(1, M.rows + 2):
            for cols in combinations(range(M.cols), w):
                got = columns_independent(M, cols)
                assert got == (mat_rank(M.select_columns(cols)) == w), cols
                outcomes.add(got)
        assert not columns_independent(M, [2, 2])
        assert columns_independent(M, [])
    assert outcomes == {True, False}


def _first_dependent_flat(M, stages):
    """Every subset of `stages` in `combinations` order, each checked on its
    own: (subsets checked, first dependent subset or None)."""
    checked = 0

    def walk(s, taken):
        nonlocal checked
        if s == len(stages):
            checked += 1
            return None if columns_independent(M, taken) else taken
        items, count = stages[s]
        if items is None:
            items = [i for i in range(M.cols) if i not in taken]
        for pick in combinations(items, count):
            found = walk(s + 1, taken + list(pick))
            if found is not None:
                return found
        return None

    found = walk(0, [])
    return checked, found


@pytest.mark.parametrize("pm", KERNEL_FIELDS + [(3, 1)], ids=str)
def test_first_dependent_matches_per_subset_checks(pm):
    gf = field_make(*pm)
    rng = random.Random(17)
    verdicts = set()
    for _ in range(12):
        rows, cols = rng.randint(2, 4), rng.randint(5, 8)
        M = random_matrix(gf, rows, cols, rng)
        items = rng.sample(range(cols), rng.randint(2, cols))
        half = cols // 2
        cases = [[(None, w)] for w in range(rows + 2)] + [
            [(items, min(rows, len(items)))],
            [(range(half), 1), (range(half, cols), 1), (None, 1)],
            [(items[:2], 1), (None, rng.randint(0, rows))],
        ]
        for stages in cases:
            got = first_dependent(M, stages)
            assert got == _first_dependent_flat(M, stages), stages
            verdicts.add(got[1] is None)
    assert verdicts == {True, False}


# The column view behind `Echelon.insert_column`, on each kind of field:
# GF(2) bits, a binary extension, a prime field and an odd extension.
VIEW_FIELDS = [(2, 1), (2, 4), (13, 1), (3, 3)]


def _view_matrices(gf, rng):
    """A matrix with no rows, the planted matrix, and sparse random ones
    whose column 1 is all zero."""
    out = [Mat(gf, [], cols=4), _planted_matrix(gf, rng)]
    for rows, cols in ((3, 6), (6, 4), (4, 8)):
        data = [[rng.randrange(gf.q) if rng.random() < 0.5 else 0
                 for _ in range(cols)] for _ in range(rows)]
        for row in data:
            row[1] = 0
        out.append(Mat(gf, data, cols=cols))
    return out


def _independent_by_rank(M, cols):
    return mat_rank(M.select_columns(cols)) == len(cols)


def _first_dependent_by_rank(M, w):
    """(subsets checked, first dependent w-subset or None), by rank."""
    subsets = list(combinations(range(M.cols), w))
    for i, cols in enumerate(subsets):
        if not _independent_by_rank(M, cols):
            return i + 1, list(cols)
    return len(subsets), None


def _first_deficient_by_rank(M, size):
    """The first `size`-subset of M's columns whose rank is below M's row
    count, or None, by rank."""
    return next((list(cols) for cols in combinations(range(M.cols), size)
                 if mat_rank(M.select_columns(cols)) < M.rows), None)


def _full_row_rank_matrix(gf, rng, rows, cols):
    """A sparse random matrix of full row rank; when there is room, column
    0 is zero and column 2 repeats column 1."""
    while True:
        data = [[rng.randrange(gf.q) if rng.random() < 0.6 else 0
                 for _ in range(cols)] for _ in range(rows)]
        if cols >= rows + 2:
            for row in data:
                row[0], row[2] = 0, row[1]
        M = Mat(gf, data, cols=cols)
        if mat_rank(M) == rows:
            return M


@pytest.mark.parametrize("pm", [(2, 1), (3, 1), (2, 2), (2, 8), (13, 3)],
                         ids=str)
def test_first_deficient_matches_rank(pm):
    """`first_deficient` finds the first subset in `combinations` order
    that fails to span, for every size from 0 (below the rank: the first
    columns) to n (all of them), on matrices with a zero column and a
    repeated one, over GF(2) bit masks and larger fields."""
    gf = field_make(*pm)
    rng = random.Random(24)
    verdicts = set()
    for rows, cols in ((0, 3), (1, 4), (2, 5), (3, 6), (3, 8), (4, 4),
                       (4, 7), (5, 9)):
        for _ in range(2):
            M = _full_row_rank_matrix(gf, rng, rows, cols)
            for size in range(cols + 1):
                got = first_deficient(M, size)
                assert got == _first_deficient_by_rank(M, size), size
                if size < rows:
                    assert got == list(range(size))
                verdicts.add(got is None)
    assert verdicts == {True, False}


@pytest.mark.parametrize("pm", VIEW_FIELDS, ids=str)
def test_column_view_queries_match_rank(pm):
    """`columns_independent` and `first_dependent` agree with the rank of
    the selected columns, on one matrix queried again and again before and
    after its column view fills, in a shuffled order with repeated column
    sets, and with walks and single checks interleaved."""
    gf = field_make(*pm)
    rng = random.Random(2026)
    outcomes = set()
    for M in _view_matrices(gf, rng):
        assert columns_independent(M, [])  # no insert: the view stays unbuilt
        assert M._columns is None
        subsets = [list(c) for w in range(min(M.cols, M.rows + 1) + 1)
                   for c in combinations(range(M.cols), w)]
        rng.shuffle(subsets)
        for cols in subsets + subsets[:25]:
            got = columns_independent(M, cols)
            assert got == _independent_by_rank(M, cols), cols
            outcomes.add(got)
        # a fresh twin: the walk fills its view, then single checks read it
        twin = Mat(gf, M.data, cols=M.cols)
        for w in range(min(M.cols, M.rows + 1) + 1):
            assert first_dependent(twin, [(None, w)]) == \
                first_dependent(M, [(None, w)]) == \
                _first_dependent_by_rank(M, w), w
            for cols in subsets[:10]:
                assert columns_independent(twin, cols) == \
                    _independent_by_rank(M, cols)
    assert outcomes == {True, False}


@pytest.mark.parametrize("pm", VIEW_FIELDS, ids=str)
def test_column_view_is_lazy_and_changes_nothing(pm):
    """A matrix holds no column view until a column insert reads it; once
    built, the view changes neither equality nor the hash, and no query
    changes the view."""
    gf = field_make(*pm)
    M = _planted_matrix(gf, random.Random(5))
    twin = Mat(gf, M.data)
    unit = Mat(gf, [[int(i == j) for j in range(3)] for i in range(3)])
    made = [M, twin, unit, M.transpose(), rref(M)[0],
            M.select_columns([0, 2]), mat_nullspace(M)]
    if gf.q == 2:
        made.append(Mat.from_bits(gf, M.bits, M.cols))
    mat_rank(M), rref(M), M.row_supports(), M.column_supports(), M.data
    assert all(X._columns is None for X in made)
    h = hash(M)
    assert not columns_independent(M, [0, 3, 7])
    assert M._columns is not None and twin._columns is None
    assert M == twin and twin == M and hash(M) == hash(twin) == h
    view = repr(M._columns)
    for w in range(1, M.rows + 2):
        first_dependent(M, [(None, w)])
        for cols in combinations(range(M.cols), w):
            columns_independent(M, cols)
    assert repr(M._columns) == view
    assert M == twin and hash(M) == h


@pytest.mark.parametrize("pm", KERNEL_FIELDS, ids=str)
def test_rref_matches_entrywise_elimination(pm):
    gf = field_make(*pm)
    rng = random.Random(8)
    for _ in range(6):
        M = _planted_matrix(gf, rng, rows=rng.randrange(1, 8))
        R, pivots = rref(M)
        assert (list(R.data), pivots) == _rref_reference(M)
        assert mat_rank(M) == len(pivots)


def _gf2_shapes(rng):
    """Seeded GF(2) row lists, wide, tall and square, sparse and dense, each
    with a zero row and a duplicated row planted when it has three rows."""
    for rows, cols in ((3, 17), (5, 70), (40, 9), (12, 12), (1, 130),
                       (9, 1), (30, 200), (0, 5)):
        for density in (0.1, 0.5):
            data = [[int(rng.random() < density) for _ in range(cols)]
                    for _ in range(rows)]
            if rows >= 3:
                data[1] = [0] * cols
                data[-1] = list(data[0])
            yield data, cols


def test_gf2_rank_and_rref_match_entrywise_elimination():
    gf = field_make(2)
    rng = random.Random(12)
    for data, cols in _gf2_shapes(rng):
        M = Mat(gf, data, cols=cols)
        assert M.data == tuple(map(tuple, data))
        ref_rows, ref_pivots = _rref_reference(M)
        R, pivots = rref(M)
        assert (list(R.data), pivots) == (ref_rows, ref_pivots)
        assert mat_rank(M) == len(ref_pivots) == mat_rank(M.transpose())
        assert Mat.from_bits(gf, M.bits, M.cols) == M


@pytest.mark.parametrize("pm", [(2, 1), (2, 2), (17, 1), (5, 2)], ids=str)
def test_row_and_column_supports_match_dense_scan(pm):
    gf = field_make(*pm)
    rng = random.Random(4)
    for rows, cols in ((6, 11), (1, 40), (13, 3)):
        data = [[rng.randrange(gf.q) if rng.random() < 0.3 else 0
                 for _ in range(cols)] for _ in range(rows)]
        data[0] = [0] * cols
        M = Mat(gf, data)
        assert M.row_supports() == [
            tuple(j for j in range(cols) if data[i][j]) for i in range(rows)]
        assert M.column_supports() == [
            tuple(i for i in range(rows) if data[i][j]) for j in range(cols)]


def test_gf2_is_zero_on_bits():
    gf = field_make(2)
    rng = random.Random(6)
    for data, cols in _gf2_shapes(rng):
        M = Mat(gf, data, cols=cols)
        assert M.is_zero() == (not any(map(any, data)))


@pytest.mark.parametrize("pm", [(2, 1), (17, 1), (5, 2)], ids=str)
def test_constructor_rejects_entries_outside_the_field(pm):
    gf = field_make(*pm)
    for bad in (1.7, 1.0, "1", True, False, None, -1, gf.q, 256, 2 ** 70):
        with pytest.raises(MatrixError):
            Mat(gf, [[1, 0, 1], [0, bad, 1]])
    for rows in ([5], [[1, 0], [1]], 7):
        with pytest.raises(MatrixError):
            Mat(gf, rows)
    assert Mat(gf, ([1, 0], (0, 1))).data == ((1, 0), (0, 1))


def test_constructor_rejects_cols_that_disagree_with_the_rows():
    for pm in ((2, 1), (5, 1)):
        gf = field_make(*pm)
        for cols in (2, 4, 0):
            with pytest.raises(MatrixError, match="declared cols"):
                Mat(gf, [[1, 0, 1], [0, 1, 1]], cols=cols)
        assert Mat(gf, [[1, 0, 1]], cols=3).cols == 3
        assert (Mat(gf, [], cols=3).rows, Mat(gf, [], cols=3).cols) == (0, 3)


def test_matrix_refusals():
    """Bit rows outside GF(2), a product of mismatched shapes or fields,
    and a Vandermonde matrix with more rows than points are refused."""
    gf2, gf3 = field_make(2), field_make(3)
    with pytest.raises(MatrixError, match=r"^bit rows require GF\(2\)$"):
        Mat.from_bits(gf3, [1], 2)
    for a, b in ((Mat(gf2, [[1, 0]]), Mat(gf2, [[1, 0]])),
                 (Mat(gf2, [[1]]), Mat(gf3, [[1]]))):
        with pytest.raises(MatrixError, match="^matmul shape/field mismatch$"):
            a.mul(b)
    with pytest.raises(MatrixError, match="^more rows than points$"):
        vandermonde(gf3, [1, 2], 3)
