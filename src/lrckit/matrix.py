"""Dense matrices over GF(p^m): rank, row reduction, null space, solving.

Matrices are immutable (tuple-of-tuples of int elements).  Everything here is
exact; GF(2) gets a bit-packed elimination path since the binary parity-check
matrices of the graph constructions run to a couple thousand columns.  Every
larger field eliminates on log-domain vectors with one row operation,
`_sub_mul`, which adds by Zech logarithms.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from .field import GF


class MatrixError(ValueError):
    pass


class DuplicatePoint(MatrixError):
    """Vandermonde evaluation points must be pairwise distinct."""


class Mat:
    __slots__ = ("gf", "rows", "cols", "data")

    def __init__(self, gf: GF, data: Iterable[Iterable[int]],
                 cols: Optional[int] = None):
        rows = tuple(tuple(int(x) for x in row) for row in data)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise MatrixError("ragged rows")
        else:
            ncols = cols if cols is not None else 0
        for r in rows:
            for x in r:
                if not 0 <= x < gf.q:
                    raise MatrixError(f"entry {x} outside GF({gf.q})")
        self.gf = gf
        self.rows = len(rows)
        self.cols = ncols
        self.data = rows

    # -- constructors --

    @classmethod
    def zeros(cls, gf: GF, rows: int, cols: int) -> "Mat":
        return cls(gf, [[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, gf: GF, n: int) -> "Mat":
        return cls(gf, [[1 if i == j else 0 for j in range(n)]
                        for i in range(n)])

    # -- trivial accessors --

    def row(self, i: int) -> Tuple[int, ...]:
        return self.data[i]

    def __getitem__(self, ij: Tuple[int, int]) -> int:
        return self.data[ij[0]][ij[1]]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Mat) and self.gf == other.gf
                and self.data == other.data and self.cols == other.cols)

    def __hash__(self):
        return hash((self.gf, self.cols, self.data))

    def __repr__(self) -> str:
        return f"Mat({self.gf}, {self.rows}x{self.cols})"

    def to_lists(self) -> List[List[int]]:
        return [list(r) for r in self.data]

    # -- shape operations --

    def transpose(self) -> "Mat":
        return Mat(self.gf, list(zip(*self.data)) if self.data else [],
                   cols=self.rows)

    def select_columns(self, cols: Sequence[int]) -> "Mat":
        return Mat(self.gf, [[row[c] for c in cols] for row in self.data],
                   cols=len(cols))

    def select_rows(self, rows: Sequence[int]) -> "Mat":
        return Mat(self.gf, [self.data[r] for r in rows], cols=self.cols)

    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows or self.gf != other.gf:
            raise MatrixError("hstack shape/field mismatch")
        return Mat(self.gf, [a + b for a, b in zip(self.data, other.data)],
                   cols=self.cols + other.cols)

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols or self.gf != other.gf:
            raise MatrixError("vstack shape/field mismatch")
        return Mat(self.gf, self.data + other.data, cols=self.cols)

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

    def mul_vec(self, vec: Sequence[int]) -> Tuple[int, ...]:
        gf = self.gf
        out = []
        for row in self.data:
            acc = 0
            for a, b in zip(row, vec):
                if a and b:
                    acc = gf.add(acc, gf.mul(a, b))
            out.append(acc)
        return tuple(out)

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in r) for r in self.data)

    # -- GF(2) bit-packed helpers --

    def bitrows(self) -> List[int]:
        """Rows as bitmasks (bit j = column j); only valid over GF(2)."""
        if self.gf.q != 2:
            raise MatrixError("bitrows requires GF(2)")
        out = []
        for row in self.data:
            v = 0
            for j, x in enumerate(row):
                if x:
                    v |= 1 << j
            out.append(v)
        return out

    @classmethod
    def from_bitrows(cls, gf: GF, bitrows: Sequence[int], cols: int) -> "Mat":
        return cls(gf, [[(v >> j) & 1 for j in range(cols)] for v in bitrows],
                   cols=cols)


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def _rref_bits(bitrows: Sequence[int], ncols: int):
    """Reduced row echelon form over GF(2); returns (rows, pivot columns)."""
    mat = [int(r) for r in bitrows]
    nrows = len(mat)
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        bit = 1 << c
        pivot = next((i for i in range(r, nrows) if mat[i] & bit), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r]
        for i in range(nrows):
            if i != r and mat[i] & bit:
                mat[i] ^= pv
        pivots.append(c)
        r += 1
    return mat[:r], pivots


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


def rref(M: Mat):
    """Reduced row echelon form; returns (Mat of nonzero rows, pivot list).

    GF(2) eliminates on bit rows; every larger field eliminates on
    log-domain rows with `_sub_mul`.
    """
    gf = M.gf
    if gf.q == 2:
        rows, pivots = _rref_bits(M.bitrows(), M.cols)
        return Mat.from_bitrows(gf, rows, M.cols), pivots
    log, order, ncols = gf._log, gf.q - 1, M.cols
    mat = [[log[x] if x else -1 for x in row] for row in M.data]
    nrows = len(mat)
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot = next((i for i in range(r, nrows) if mat[i][c] >= 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        row = mat[r]
        lp = row[c]
        if lp:
            row[:] = [(x - lp) % order if x >= 0 else -1 for x in row]
        y = [(j, row[j]) for j in range(c, ncols) if row[j] >= 0]
        for i in range(nrows):
            if i != r and mat[i][c] >= 0:
                _sub_mul(mat[i], y, mat[i][c], gf)
        pivots.append(c)
        r += 1
    exp = gf._exp
    return Mat(gf, [[exp[x] if x >= 0 else 0 for x in row]
                    for row in mat[:r]], cols=ncols), pivots


def mat_rank(M: Mat) -> int:
    if M.gf.q == 2:
        return len(_rref_bits(M.bitrows(), M.cols)[1])
    return len(rref(M)[1])


def mat_nullspace(M: Mat) -> Mat:
    """Basis (as rows) of the right null space {x : M x^T = 0}."""
    gf = M.gf
    R, pivots = rref(M)
    n = M.cols
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [0] * n
        vec[f] = 1
        for row, pc in zip(R.data, pivots):
            if row[f]:
                vec[pc] = gf.neg(row[f])
        basis.append(vec)
    return Mat(gf, basis, cols=n)


def mat_solve(M: Mat, b: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """One solution x of M x^T = b^T, or None if inconsistent."""
    gf = M.gf
    aug = Mat(gf, [list(r) + [v] for r, v in zip(M.data, b)],
              cols=M.cols + 1)
    R, pivots = rref(aug)
    if M.cols in pivots:
        return None
    x = [0] * M.cols
    for row, pc in zip(R.data, pivots):
        x[pc] = row[-1]
    return tuple(x)


def vandermonde(gf: GF, points: Sequence[int], rows: int) -> Mat:
    """Matrix with entry (i, j) = points[j]**i, i = 0..rows-1.

    With pairwise-distinct points every maximal minor is nonsingular, which
    is what the MDS parity-check constructions rely on.
    """
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise DuplicatePoint("evaluation points must be distinct")
    if rows > len(pts):
        raise MatrixError("more rows than points")
    data = [[gf.pow(x, i) for x in pts] for i in range(rows)]
    return Mat(gf, data, cols=len(pts))


class ColumnBasis:
    """Linearly independent columns of M, inserted one at a time.

    `insert(j)` reduces column j against the columns already kept, in the
    order they were kept, and keeps it iff it does not reduce to zero;
    `pop()` drops the column kept last.  A depth-first walk over column
    subsets can therefore carry the reduced basis down the tree and undo it
    on the way back up.  Over GF(2) a column is a bit mask; over larger
    fields it is a log-domain vector reduced with `_sub_mul`, as in `rref`.
    """

    __slots__ = ("gf", "data", "kept")

    def __init__(self, M: Mat):
        self.gf = M.gf
        self.data = M.data
        # Over GF(2), (pivot bit, column); else (pivot row, log of the pivot
        # entry, column).  Each column is zero on the pivot rows of the
        # columns kept before it.
        self.kept: List[tuple] = []

    def insert(self, j: int) -> bool:
        kept = self.kept
        if self.gf.q == 2:
            v = 0
            for i, row in enumerate(self.data):
                if row[j]:
                    v |= 1 << i
            for bit, u in kept:
                if v & bit:
                    v ^= u
            if not v:
                return False
            kept.append((v & -v, v))
            return True
        gf = self.gf
        log = gf._log
        v = [log[row[j]] if row[j] else -1 for row in self.data]
        for p, lu, u in kept:
            lv = v[p]
            if lv >= 0:
                _sub_mul(v, u, lv - lu, gf)
        nonzero = [(i, x) for i, x in enumerate(v) if x >= 0]
        if not nonzero:
            return False
        kept.append(nonzero[0] + (nonzero,))
        return True

    def pop(self) -> None:
        self.kept.pop()


def columns_independent(M: Mat, cols: Iterable[int]) -> bool:
    """True iff the selected columns of M are linearly independent.

    The columns are inserted one at a time into a `ColumnBasis`; the check
    stops with False at the first column that reduces to zero against the
    ones before it, and builds no sub-matrix.
    """
    basis = ColumnBasis(M)
    return all(basis.insert(c) for c in cols)
