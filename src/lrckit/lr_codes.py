"""Locally recoverable codes for single erasures (pyramid and Tamo-Barg
evaluation constructions) and availability / strict-availability codes
(product, subset-incidence, projective-plane and Steiner-triple designs).

Anticode-derived and cyclic availability families are documented in the
literature but intentionally not constructed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Dict, List, Sequence, Tuple

from .bounds import ceil_div, lr_singleton_bound
from .code import (BudgetExceeded, CodeParams, ConstructionFailed, LinearCode,
                   checked, code_from_generator)
from .field import GF, FieldError, field_make
from .graphs import pg_incidence_graph
from .matrix import Mat, mat_nullspace, rref, vandermonde
from .mr_codes import coordinate_groups

GF2 = field_make(2)

PRODUCT_CODE_BUDGET = 2 ** 14
WANG_BUDGET = 10 ** 4


@dataclass(frozen=True)
class EvalPoints:
    """Evaluation-point layout of a polynomial locality code: pairwise
    disjoint cosets of size r+1 on which the good polynomial g(x) = x^(r+1)
    is constant."""
    gf: GF
    cosets: Tuple[Tuple[int, ...], ...]
    good_poly_degree: int

    def __post_init__(self):
        flat = [x for c in self.cosets for x in c]
        if len(set(flat)) != len(flat):
            raise ValueError("cosets must be pairwise disjoint")
        gf, d = self.gf, self.good_poly_degree
        for coset in self.cosets:
            vals = {gf.pow(x, d) for x in coset}
            if len(vals) != 1:
                raise ValueError(f"x^{d} is not constant on {coset}")

    def points(self) -> List[int]:
        return [x for c in self.cosets for x in c]


# ---------------------------------------------------------------------------
# single-erasure LR constructions
# ---------------------------------------------------------------------------

def pyramid_code(n: int, k: int, r: int, gf: GF) -> LinearCode:
    """Information-symbol locality code meeting the distance bound
    (n-k+1) - (ceil(k/r) - 1).

    Starts from a systematic [n - ceil(k/r) + 1, k] MDS generator and splits
    its first parity column across the ceil(k/r) groups of message rows, so
    each group of <= r information symbols gets a private parity symbol.
    """
    if not 1 <= r <= k < n:
        raise ValueError("need 1 <= r <= k < n")
    a = ceil_div(k, r)
    n1 = n - a + 1
    if n1 <= k:
        raise ValueError("no room for a global parity")
    if gf.q < n1:
        raise FieldError(f"need q >= {n1}, got {gf.q}")
    points = list(range(n1))
    G_rs = vandermonde(gf, points, k)
    G_sys, pivots = rref(G_rs)
    if pivots != list(range(k)):
        raise ConstructionFailed(f"MDS generator not systematic: {pivots}")
    group_sizes = [r] * (a - 1) + [k - (a - 1) * r]
    row_groups = coordinate_groups(group_sizes)
    cols: List[List[int]] = []
    coord_groups: List[List[int]] = []
    columns = G_sys.transpose().data
    split_source = columns[k]
    for grp in row_groups:
        start = len(cols)
        for i in grp:
            cols.append([1 if j == i else 0 for j in range(k)])
        cols.append([split_source[j] if j in grp else 0 for j in range(k)])
        coord_groups.append(list(range(start, len(cols))))
    cols.extend(map(list, columns[k + 1:]))
    G = Mat(gf, list(zip(*cols)), cols=len(cols))
    d = lr_singleton_bound(n, k, r)
    return checked(code_from_generator(
        G, params=CodeParams(n=n, k=k, r=r, d_min=d, q=gf.q, role="LR"),
        provenance={"construction": "pyramid", "groups": coord_groups}))


def tamo_barg_code(n: int, k: int, r: int, gf: GF) -> LinearCode:
    """All-symbol locality evaluation code meeting the distance bound.

    Needs (r+1) | n | (q-1).  Evaluation points are the cosets of the order
    (r+1) subgroup of the order-n cyclic group; message polynomials use only
    exponents e with e mod (r+1) < r, so x^{r+1} acts as the good polynomial
    that is constant on every coset.
    """
    q = gf.q
    if min(n, r) < 1 or n % (r + 1) or (q - 1) % n:
        raise FieldError(
            f"need n, r >= 1, (r+1) | n and n | q-1; got n={n}, r={r}, q={q}")
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    m = n // (r + 1)
    a, b = divmod(k, r)
    exps = [j * (r + 1) + i for j in range(a) for i in range(r)]
    exps += [a * (r + 1) + i for i in range(b)]
    if exps[-1] >= n:
        # x^n = 1 on the evaluation points, so the rows would repeat
        raise ValueError(f"top exponent {exps[-1]} reaches n = {n}; "
                         f"need k <= m*r = {m * r}")
    gen_n = gf.pow(gf.primitive, (q - 1) // n)      # order n
    h = gf.pow(gen_n, m)                            # order r+1
    cosets = tuple(
        tuple(gf.mul(gf.pow(gen_n, i), gf.pow(h, j)) for j in range(r + 1))
        for i in range(m))
    layout = EvalPoints(gf, cosets, good_poly_degree=r + 1)
    points = layout.points()
    G = Mat(gf, [[gf.pow(x, e) for x in points] for e in exps], cols=n)
    d = lr_singleton_bound(n, k, r)
    groups = [list(g) for g in coordinate_groups([r + 1] * m)]
    return checked(code_from_generator(
        G, params=CodeParams(n=n, k=k, r=r, d_min=d, q=q, role="LR"),
        provenance={"construction": "tamo-barg", "groups": groups}))


def locality_witnesses(code: LinearCode,
                       groups: Sequence[Sequence[int]]) -> List[List[int]]:
    """For each coordinate group, a dual codeword supported inside the group
    (the local parity); raises if some group has no such word."""
    G = code.generator()
    out = []
    for grp in groups:
        local = mat_nullspace(G.select_columns(list(grp)))
        if local.rows == 0:
            raise ValueError(f"group {list(grp)} carries no local parity")
        w = [0] * code.n
        for pos, val in zip(grp, local.data[0]):
            w[pos] = val
        out.append(w)
    return out


# ---------------------------------------------------------------------------
# availability constructions
# ---------------------------------------------------------------------------

def product_avail_code(r: int, t: int) -> LinearCode:
    """t-fold product of [r+1, r] single-parity-check codes: a binary
    ((r+1)^t, r^t) code with availability t."""
    if min(r, t) < 1:
        raise ValueError(f"need r, t >= 1, got r={r}, t={t}")
    n = (r + 1) ** t
    if n > PRODUCT_CODE_BUDGET:
        raise BudgetExceeded(f"(r+1)^t = {n} > {PRODUCT_CODE_BUDGET}")
    shape = [r + 1] * t
    index: Dict[Tuple[int, ...], int] = {}
    for pos, tup in enumerate(product(*(range(s) for s in shape))):
        index[tup] = pos
    rows = []
    for axis in range(t):
        others = [range(r + 1)] * (t - 1)
        for rest in product(*others):
            row = [0] * n
            for v in range(r + 1):
                tup = rest[:axis] + (v,) + rest[axis:]
                row[index[tup]] = 1
            rows.append(row)
    H = Mat(GF2, rows, cols=n)
    return checked(LinearCode(
        H, params=CodeParams(n=n, k=r ** t, r=r, t=t, q=2,
                             role="availability"),
        provenance={"construction": "product"}))


def wang_avail_code(r: int, t: int) -> LinearCode:
    """Subset-incidence availability code: rows are (t-1)-subsets and
    columns t-subsets of an (r+t)-set, with containment incidence.  Strict
    availability with row weight r+1 and column weight t; the parity-check
    matrix has rank C(r+t-1, t-1), giving rate r/(r+t)."""
    if min(r, t) < 1:
        raise ValueError(f"need r, t >= 1, got r={r}, t={t}")
    ell = r + t
    n = math.comb(ell, t)
    if n > WANG_BUDGET:
        raise BudgetExceeded(f"C({ell},{t}) = {n} > {WANG_BUDGET}")
    rows_idx = list(combinations(range(ell), t - 1))
    cols_idx = list(combinations(range(ell), t))
    rows = []
    for rset in rows_idx:
        rs = set(rset)
        rows.append([1 if rs <= set(cs) else 0 for cs in cols_idx])
    H = Mat(GF2, rows, cols=n)
    k = n - math.comb(ell - 1, t - 1)
    return checked(LinearCode(
        H, params=CodeParams(n=n, k=k, r=r, t=t, q=2, role="SA"),
        provenance={"construction": "wang"}))


# ---------------------------------------------------------------------------
# minimum-block-length strict availability from block designs
# ---------------------------------------------------------------------------

def pg_plane_sa_code(s: int) -> LinearCode:
    """Point-line incidence code of the projective plane of order Q = 2^s:
    an (n, n - 3^s - 1) binary code with strict availability, r = Q,
    t = Q + 1, minimum distance Q + 2, and the least possible block length
    n = Q^2 + Q + 1 for these (r, t)."""
    if s < 2:
        raise ValueError("need s >= 2")
    Q = 2 ** s
    g = pg_incidence_graph(Q)  # points 0..n-1, then the n lines
    n = g.node_count // 2
    rows = [0] * n
    for point, line in g.edges:
        rows[point] |= 1 << (line - n)
    H = Mat.from_bits(GF2, rows, n)
    k = n - (3 ** s + 1)
    return checked(LinearCode(
        H, params=CodeParams(n=n, k=k, r=Q, t=Q + 1, d_min=Q + 2, q=2,
                             role="SA"),
        provenance={"construction": "pg-plane", "order": Q}))


def steiner_sa_code(s: int) -> LinearCode:
    """Point-line incidence code of the binary projective space of dimension
    s-1: a Steiner triple system on m = 2^s - 1 points whose incidence
    matrix (rank m - s) gives a strict-availability code with t = 3,
    r = 2^(s-1) - 2 and minimum distance 4."""
    if s < 3:
        raise ValueError("need s >= 3")
    m = 2 ** s - 1
    lines = []
    for a in range(1, m + 1):
        for b in range(a + 1, m + 1):
            c = a ^ b
            if c > b:
                lines.append((a, b, c))
    rows = [[0] * len(lines) for _ in range(m)]
    for li, (a, b, c) in enumerate(lines):
        rows[a - 1][li] = rows[b - 1][li] = rows[c - 1][li] = 1
    H = Mat(GF2, rows, cols=len(lines))
    n = m * (m - 1) // 6  # the line count of a Steiner triple system
    return checked(LinearCode(
        H, params=CodeParams(n=n, k=n - m + s, r=2 ** (s - 1) - 2, t=3,
                             d_min=4, q=2, role="SA"),
        provenance={"construction": "steiner", "points": m}))
