"""Exact matrices over GF(p^m): rank, row reduction, null space.

Matrices are immutable.  Over GF(2) each row is stored as one int bit mask,
since the binary parity-check matrices of the graph constructions run to
thousands of columns, and the tuple-of-ints form is unpacked only on demand.
Over larger fields rows are tuples of int elements.

All elimination goes through one `Echelon` basis, which keeps each vector
under the position of its lowest nonzero entry: a bit mask over GF(2), and
over larger fields a log-domain vector reduced with one row operation,
`_sub_mul`, which adds by Zech logarithms.  `mat_rank` counts the rows it
keeps, `rref` back-substitutes them, and `columns_independent` and the two
exhaustive searches insert columns into it.  Both walk column subsets depth
first, share each prefix's reduction and undo the last column on the way
back up: `first_dependent` finds the first dependent subset of staged
columns, and `first_deficient` the first subset of a full-row-rank matrix's
columns that fails to span, settling a prefix that spans with no descent.
Column inserts read a per-matrix column view, built lazily on the first
insert against that matrix: a matrix that no column insert touches never
holds one.

`subspaces` is the one enumeration of a row space, each i-dimensional
subspace once in a Gray order.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .field import GF


class MatrixError(ValueError):
    """A malformed matrix, or shapes that do not fit."""


# Packing a GF(2) row: entry 0 -> "0", 1 -> "1", anything else -> "x",
# which int(..., 2) rejects; unpacking maps the characters back.
_PACK = bytes(48 if b == 0 else 49 if b == 1 else 120 for b in range(256))
_UNPACK = bytes.maketrans(b"01", b"\x00\x01")
_INT = {int}


def _pack(row: Tuple[int, ...]) -> int:
    """A GF(2) row as a bit mask (bit j = entry j); ValueError on an entry
    outside {0, 1}."""
    return int(bytes(row)[::-1].translate(_PACK) or b"0", 2)


def _unpack(v: int, cols: int) -> bytes:
    """The entries of a bit-mask row, one byte each."""
    return bin(v | 1 << cols)[3:][::-1].encode().translate(_UNPACK)


class Mat:
    """An immutable matrix over GF(q).

    Over GF(2) the rows are bit masks, `bits[i]` with bit j = entry (i, j),
    and `data`, the rows as tuples of ints, is unpacked on each access.
    Over larger fields `bits` is None and `data` is stored.  `_columns` is
    the column view that `Echelon.insert_column` builds on first use (see
    `_column_view`), None until then; equality and hashing ignore it.
    """

    __slots__ = ("gf", "rows", "cols", "bits", "_data", "_columns")

    def __init__(self, gf: GF, data: Iterable[Iterable[int]],
                 cols: Optional[int] = None):
        try:
            rows = [tuple(r) for r in data]
        except TypeError:
            raise MatrixError("rows must be sequences of integers") from None
        ncols = len(rows[0]) if rows else (cols or 0)
        if any(len(r) != ncols for r in rows):
            raise MatrixError("ragged rows")
        if cols is not None and cols != ncols:
            raise MatrixError(f"rows of length {ncols}, declared cols {cols}")
        q = gf.q
        try:
            for r in rows:
                # one C-level pass each: bool, float and str are rejected
                if set(map(type, r)) - _INT or (
                        q > 2 and r and (min(r) < 0 or max(r) >= q)):
                    raise ValueError
            bits = tuple(map(_pack, rows)) if q == 2 else None
        except ValueError:
            bad = next(x for r in rows for x in r
                       if type(x) is not int or not 0 <= x < q)
            raise MatrixError(f"entry {bad!r} is not an element of "
                              f"GF({q})") from None
        self.gf = gf
        self.rows = len(rows)
        self.cols = ncols
        self.bits = bits
        self._data = None if q == 2 else tuple(rows)
        self._columns = None

    # -- constructors --

    @classmethod
    def from_bits(cls, gf: GF, bits: Sequence[int], cols: int) -> "Mat":
        """A GF(2) matrix from its rows as bit masks, unchecked: the caller
        guarantees 0 <= v < 2**cols for every row v."""
        if gf.q != 2:
            raise MatrixError("bit rows require GF(2)")
        M = cls.__new__(cls)
        M.gf, M.rows, M.cols = gf, len(bits), cols
        M.bits, M._data, M._columns = tuple(bits), None, None
        return M

    # -- trivial accessors --

    @property
    def data(self) -> Tuple[Tuple[int, ...], ...]:
        if self.bits is None:
            return self._data
        return tuple(tuple(_unpack(v, self.cols)) for v in self.bits)

    def row_supports(self) -> List[Tuple[int, ...]]:
        """Column indices of the nonzero entries of each row."""
        if self.bits is None:
            return [tuple(j for j, x in enumerate(r) if x) for r in self._data]
        out = []
        for v in self.bits:  # walk the set bits, lowest first
            sup = []
            while v:
                low = v & -v
                sup.append(low.bit_length() - 1)
                v ^= low
            out.append(tuple(sup))
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, Mat) and self.gf == other.gf
                and self.cols == other.cols and self.bits == other.bits
                and self._data == other._data)

    def __hash__(self):
        return hash((self.gf, self.cols, self.bits, self._data))

    def __repr__(self) -> str:
        return f"Mat({self.gf}, {self.rows}x{self.cols})"

    # -- shape operations --

    def transpose(self) -> "Mat":
        return Mat(self.gf, list(zip(*self.data)) if self.rows
                   else [()] * self.cols, cols=self.rows)

    def select_columns(self, cols: Sequence[int]) -> "Mat":
        return Mat(self.gf, [[row[c] for c in cols] for row in self.data],
                   cols=len(cols))

    # -- arithmetic --

    def mul(self, other: "Mat") -> "Mat":
        gf = self.gf
        if self.cols != other.rows or gf != other.gf:
            raise MatrixError("matmul shape/field mismatch")
        ot = list(zip(*other.data))
        out = []
        for arow in self.data:
            orow = []
            for bcol in ot:
                acc = 0
                for a, b in zip(arow, bcol):
                    if a and b:
                        acc = gf.add(acc, gf.mul(a, b))
                orow.append(acc)
            out.append(orow)
        return Mat(gf, out, cols=other.cols)

    def is_zero(self) -> bool:
        return not any(map(any, self._data) if self.bits is None
                       else self.bits)


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def _sub_mul(x: List[int], y: Sequence[Tuple[int, int]], lf: int,
             gf: GF) -> None:
    """x <- x - f*y in place, for f = g^lf, in the log domain.

    A log-domain vector holds log(v_i) for each entry, and -1 for a zero
    entry; `y` is given by its nonzero entries as (index, log) pairs.  Each
    entry costs one lookup in the Zech table: x + c = x (1 + c/x).
    """
    zech = gf._zech
    order = gf.q - 1
    # -f = g^(lf + log(-1)); the element -1 is the integer p - 1.
    lc = (lf + gf._log[gf.p - 1]) % order
    for i, ly in y:
        t = lc + ly
        lx = x[i]
        if lx < 0:
            x[i] = t % order
        else:
            # t - lx lies in (-(q-1), 2(q-1)): two periods of the table
            z = zech[t - lx]
            x[i] = -1 if z < 0 else (lx + z) % order


class Echelon(dict):
    """Linearly independent vectors over GF(q), each kept under its pivot,
    the position of its lowest nonzero entry.

    `insert(v)` clears v's lowest entry with the vector kept at that pivot,
    and repeats: it keeps v, and returns True, when v reaches a free pivot,
    and returns False when v reaches zero (a list v is changed in place).
    `pop()` drops the vector kept last, so a depth-first walk over column
    subsets can carry the basis down the tree and undo it on the way back
    up.  Over GF(2) a vector is a bit mask, kept under its lowest set bit;
    over larger fields it is a log-domain list (as in `_sub_mul`), kept as
    its nonzero (index, log) pairs, the pivot first.

    A kept pair list may be the very list held in a matrix's column view
    (`insert_column`), so no kept vector is ever changed in place:
    `_sub_mul` only reads the vector it subtracts, and `rref` binds a new
    list to each pivot.
    """

    __slots__ = ("gf",)

    def __init__(self, gf: GF):
        self.gf = gf

    pop = dict.popitem

    def insert(self, v) -> bool:
        if self.gf.q == 2:
            get = self.get
            while v:
                low = v & -v
                u = get(low)
                if u is None:
                    self[low] = v
                    return True
                v ^= u
            return False
        # enumerate reads each entry of v only once it gets there, after
        # the clears at the entries before it
        for i, lv in enumerate(v):
            if lv >= 0:
                if i not in self:
                    self[i] = [(j, x) for j, x in enumerate(v) if x >= 0]
                    return True
                u = self[i]
                _sub_mul(v, u, lv - u[0][1], self.gf)
        return False

    def insert_row(self, row: Sequence[int]) -> bool:
        """Insert the vector with the given entries."""
        if self.gf.q == 2:
            return self.insert(_pack(row))
        log = self.gf._log
        return self.insert([log[x] if x else -1 for x in row])

    def insert_column(self, M: Mat, j: int) -> bool:
        """Insert column j of M, read from the last row up, as M's column
        view holds it (`_column_view`).

        Over larger fields a column whose lowest entry lands on a free pivot
        is kept as the view's own pair list, which is exactly what `insert`
        would build; any other is expanded to a log-domain list and reduced.
        Over a matrix in RREF, such as `LinearCode.full_rank_checks()`, the
        lowest entry of a column read this way lies in the last pivot row
        at or before it: a pivot column is a unit vector, and the others
        fill in few entries.
        """
        view = M._columns
        if view is None:
            view = _column_view(M)
        col = view[j]
        if self.gf.q == 2:
            return self.insert(col)
        if not col:
            return False
        low = col[0][0]
        if low not in self:
            self[low] = col
            return True
        v = [-1] * M.rows
        for i, x in col:
            v[i] = x
        return self.insert(v)


def _column_view(M: Mat):
    """The columns of M read from the last row up, built once and kept on M:
    over GF(2) each column as a bit mask, bit i = entry (rows - 1 - i, j);
    over larger fields as its nonzero (i, log) pairs, i ascending."""
    if M.bits is not None:
        view = [0] * M.cols
        for i, row in enumerate(reversed(M.bits)):
            bit = 1 << i
            while row:
                low = row & -row
                view[low.bit_length() - 1] |= bit
                row ^= low
    else:
        log = M.gf._log
        view = [[] for _ in range(M.cols)]
        for i, row in enumerate(reversed(M._data)):
            for j, x in enumerate(row):
                if x:
                    view[j].append((i, log[x]))
    M._columns = view = tuple(view)
    return view


def _row_basis(M: Mat) -> Echelon:
    basis = Echelon(M.gf)
    if M.bits is None:
        for row in M.data:
            basis.insert_row(row)
    else:
        for v in M.bits:
            basis.insert(v)
    return basis


def rref(M: Mat):
    """Reduced row echelon form; returns (Mat of nonzero rows, pivot list).

    The rows kept by the `Echelon` basis of M, sorted by pivot, each scaled
    to pivot entry 1 and cleared of the later pivots, the last row first: a
    row whose pivot is later is already clear of every other pivot.
    """
    gf, n = M.gf, M.cols
    basis = _row_basis(M)
    pivots = sorted(basis)
    if gf.q == 2:
        pivot_mask = sum(pivots)
        for low in reversed(pivots):
            v = basis[low]
            extra = v & pivot_mask ^ low
            while extra:
                b = extra & -extra
                v ^= basis[b]
                extra ^= b
            basis[low] = v
        return (Mat.from_bits(gf, [basis[b] for b in pivots], n),
                [b.bit_length() - 1 for b in pivots])
    order, exp = gf.q - 1, gf._exp + [0]  # a log of -1 reads the 0
    rows = []
    for at in reversed(range(len(pivots))):
        u = basis[pivots[at]]
        v = [-1] * n
        for j, x in u:
            v[j] = (x - u[0][1]) % order
        for p in pivots[at + 1:]:
            if v[p] >= 0:
                _sub_mul(v, basis[p], v[p], gf)
        basis[pivots[at]] = [(j, x) for j, x in enumerate(v) if x >= 0]
        rows.append([exp[x] for x in v])
    return Mat(gf, rows[::-1], cols=n), pivots


def mat_rank(M: Mat) -> int:
    return len(_row_basis(M))


def mat_nullspace(M: Mat) -> Mat:
    """Basis (as rows) of the right null space {x : M x^T = 0}."""
    gf = M.gf
    R, pivots = rref(M)
    n = M.cols
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    rows = R.data
    basis = []
    for f in free:
        vec = [0] * n
        vec[f] = 1
        for row, pc in zip(rows, pivots):
            if row[f]:
                vec[pc] = gf.neg(row[f])
        basis.append(vec)
    return Mat(gf, basis, cols=n)


def eval_matrix(gf: GF, points: Sequence[int], exps: Sequence[int]) -> Mat:
    """Matrix with entry (i, j) = points[j]**exps[i]."""
    return Mat(gf, [[gf.pow(x, e) for x in points] for e in exps],
               cols=len(points))


def vandermonde(gf: GF, points: Sequence[int], rows: int) -> Mat:
    """Matrix with entry (i, j) = points[j]**i, i = 0..rows-1.

    With pairwise-distinct points every maximal minor is nonsingular, which
    is what the MDS parity-check constructions rely on.
    """
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise MatrixError("evaluation points must be distinct")
    if rows > len(pts):
        raise MatrixError("more rows than points")
    return eval_matrix(gf, pts, range(rows))


def subspaces(M: Mat, i: int) -> Iterator[list]:
    """Each i-dimensional subspace of the row space of M, whose rows must be
    independent, once, as the i words of its reduced basis.

    For each set of i pivot rows, word j is pivot row j plus a free multiple
    of each later row that is not a pivot.  The free coefficients follow the
    modular q-ary Gray code: step s adds 1 mod q to the digit indexed by the
    number of trailing zeros of s in base q, so each step adds one multiple
    of one row to one word.  With i = 1 this visits each nonzero word once up
    to a scalar.  A word is a bit mask over GF(2) and a log-domain list (as
    in `_sub_mul`) over larger fields; the yielded list and its words change
    with the next step, so copy what you keep.
    """
    k, gf = M.rows, M.gf
    q, log = gf.q, gf._log
    if q == 2:
        rows = adds = M.bits
    else:
        rows = [[log[x] if x else -1 for x in row] for row in M.data]
        adds = [[(c, x) for c, x in enumerate(row) if x >= 0] for row in rows]
        # digit d stands for the element d, so the step from d to d + 1
        # subtracts d - (d + 1) times the row
        step = [log[gf.sub(d, (d + 1) % q)] for d in range(q)]
    for pivots in combinations(range(k), i):
        words = [rows[p] if q == 2 else rows[p][:] for p in pivots]
        free = [(j, adds[c]) for j, p in enumerate(pivots)
                for c in range(p + 1, k) if c not in pivots]
        yield words
        if q == 2:
            if free:  # digit 0 flips on every odd step: walk in pairs
                j0, v0 = free[0]
                for s in range(2, 1 << len(free), 2):
                    words[j0] ^= v0
                    yield words
                    j, v = free[(s & -s).bit_length() - 1]
                    words[j] ^= v
                    yield words
                words[j0] ^= v0
                yield words
            continue
        digits = [0] * len(free)
        for s in range(1, q ** len(free)):
            d = 0
            while not s % q:
                s //= q
                d += 1
            j, y = free[d]
            _sub_mul(words[j], y, step[digits[d]], gf)
            digits[d] = (digits[d] + 1) % q
            yield words


def columns_independent(M: Mat, cols: Iterable[int]) -> bool:
    """True iff the selected columns of M are linearly independent.

    The columns are inserted one at a time into an `Echelon` basis; the
    check stops with False at the first column that reduces to zero against
    the ones before it, and builds no sub-matrix.
    """
    basis = Echelon(M.gf)
    return all(basis.insert_column(M, c) for c in cols)


def first_dependent(
        M: Mat, stages: Sequence[Tuple[Optional[Sequence[int]], int]]
) -> Tuple[int, Optional[List[int]]]:
    """Walk column subsets of M depth first, one column per tree level,
    carrying one `Echelon` basis down the tree.

    `stages` is a list of (items, count): a subset takes `count` of each
    stage's items, and items None means every column of M that the earlier
    stages left.  Subsets come in the order of `product(combinations(items,
    count) for each stage)`.  Returns the number of subsets checked and the
    first subset whose columns are dependent, or None.  When a prefix is
    already dependent, the first subset under it is the witness.  Needs at
    least one subset to exist.
    """
    n = M.cols
    basis = Echelon(M.gf)
    cols: List[int] = []

    def items_of(s: int) -> Sequence[int]:
        items = stages[s][0]
        if items is None:
            taken = set(cols)
            items = [i for i in range(n) if i not in taken]
        return items

    def slot(s: int, items: Sequence[int], start: int, need: int):
        """The tree level that takes the next column, as [stage, its items,
        next position to try, columns the stage still needs]; None once the
        subset is whole."""
        while need == 0:
            s += 1
            if s == len(stages):
                return None
            items, start, need = items_of(s), 0, stages[s][1]
        return [s, items, start, need]

    checked = 0
    top = slot(-1, [], 0, 0)
    if top is None:
        return 1, None
    # cols holds one column for each level below the top of the stack
    stack = [top]
    while stack:
        top = stack[-1]
        s, items, pos, need = top
        if pos > len(items) - need:  # this level is used up: back up
            stack.pop()
            if stack:
                basis.pop()
                cols.pop()
            continue
        top[2] = pos + 1
        cols.append(items[pos])
        if not basis.insert_column(M, items[pos]):
            cols.extend(items[pos + 1:pos + need])
            for t in range(s + 1, len(stages)):
                cols.extend(items_of(t)[:stages[t][1]])
            return checked + 1, cols
        below = slot(s, items, pos + 1, need - 1)
        if below is None:  # a whole subset, and independent
            checked += 1
            basis.pop()
            cols.pop()
        else:
            stack.append(below)
    return checked, None


def first_deficient(M: Mat, size: int) -> Optional[List[int]]:
    """The first `size`-subset of M's columns, in `combinations` order,
    whose rank is below M's row count, or None; M must have full row rank.

    A depth-first walk like `first_dependent`'s, one column per level, that
    carries one `Echelon` down and undoes it on the way back up.  A column
    dependent on the prefix is taken but not kept.  A prefix of full rank
    settles its subtree, since every extension spans; a prefix whose rank
    plus the columns it still needs stays short is a witness, extended by
    the next columns.  So `size` below the row count gives the first `size`
    columns.
    """
    n, k = M.cols, M.rows
    basis = Echelon(M.gf)
    cols: List[int] = []
    kept: List[bool] = []
    pos = 0  # the next column to try at the level below the prefix
    while True:
        need = size - len(cols)
        rank = len(basis)
        if rank + need < k:
            return cols + list(range(pos, pos + need))
        if rank < k and pos <= n - need:
            cols.append(pos)
            kept.append(basis.insert_column(M, pos))
            pos += 1
            continue
        # the prefix spans, or its level is used up: back up
        if not cols:
            return None
        pos = cols.pop() + 1
        if kept.pop():
            basis.pop()
