"""Linear codes as first-class objects.

A code is held by a parity-check matrix (possibly with redundant rows; the
strict-availability constructions deliberately keep all local checks) and an
optional generator.  The dimension is always derived from rank, never
trusted from metadata.  Includes puncturing, exact minimum distance,
generalized Hamming weights (minimum support weights, both by
`matrix.subspaces`) and an MDS test.

Also home to the four failure kinds that belong to no one input type:
`NotInCatalog`, `SearchExhausted`, `BudgetExceeded`, `ConstructionFailed`.
"""

from __future__ import annotations

import math
from functools import partial, reduce
from operator import or_
from typing import Optional, Sequence

from ._record import FrozenRecord
from .field import GF
from .matrix import (Mat, first_deficient, first_dependent, mat_nullspace,
                     mat_rank, rref, subspaces)

#: enumeration ceilings, surfaced in verification reports
MIN_DISTANCE_BUDGET = 2 ** 24
SUPPORT_WEIGHT_BUDGET = 10 ** 6
IS_MDS_BUDGET = 10 ** 6


class NotInCatalog(LookupError):
    """Valid parameters that no construction or catalogued object serves."""


class SearchExhausted(RuntimeError):
    """A seeded or greedy search gave up; another field or seed may do."""


class BudgetExceeded(RuntimeError):
    """Exact enumeration would exceed the declared budget."""


class ConstructionFailed(RuntimeError):
    """A construction missed its own invariant: a defect, not bad input."""


class CodeParams(FrozenRecord):
    """Declared parameters of a code; `role` tags the family it comes from:
    LR | S-LR | availability | SA | MR | PMR | MDS."""

    def __init__(self, n: int, k: int, r: Optional[int] = None,
                 t: Optional[int] = None, d_min: Optional[int] = None,
                 q: Optional[int] = None, role: Optional[str] = None):
        vars(self).update(n=n, k=k, r=r, t=t, d_min=d_min, q=q, role=role)
        numeric = [self.n, self.k, self.r, self.t, self.d_min, self.q]
        if any(v is not None and v < 0 for v in numeric):
            raise ValueError("parameters must be nonnegative")
        if self.d_min is not None and self.d_min > self.n - self.k + 1:
            raise ValueError("d_min exceeds the classical limit n - k + 1")

    def as_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


class LinearCode:
    """An [n, k] linear code over GF(q) given by a parity-check matrix."""

    def __init__(self, H: Mat, G: Optional[Mat] = None,
                 params: Optional[CodeParams] = None,
                 provenance: Optional[dict] = None):
        self.gf: GF = H.gf
        self.H = H
        self.n = H.cols
        self.k = self.n - mat_rank(H)
        self._G = G
        if G is not None:
            # k independent rows: the subspace walk needs them
            if (G.cols, G.rows, mat_rank(G)) != (self.n, self.k, self.k):
                raise ValueError("generator inconsistent with parity check")
            if not H.mul(G.transpose()).is_zero():
                raise ValueError("G H^T != 0")
        self.params = params
        self.provenance = provenance or {}

    def generator(self) -> Mat:
        if self._G is None:
            self._G = mat_nullspace(self.H)
        return self._G

    def local_dual(self, group: Sequence[int]) -> Mat:
        """The dual words supported inside `group`, as the rows of a Mat
        whose columns are the group's coordinates in the given order: the
        null space of the generator's columns there."""
        return mat_nullspace(self.generator().select_columns(list(group)))

    def full_rank_checks(self) -> Mat:
        """A full-row-rank parity-check matrix (RREF rows of H)."""
        R, _ = rref(self.H)
        return R

    def rate(self):
        from fractions import Fraction
        return Fraction(self.k, self.n)

    def __repr__(self) -> str:
        return f"LinearCode[n={self.n}, k={self.k}] over {self.gf}"


def checked(code: LinearCode) -> LinearCode:
    """`code`, once its rank-derived (n, k) equals its declared params; every
    constructor that declares its dimension ends here."""
    p = code.params
    if (code.n, code.k) != (p.n, p.k):
        raise ConstructionFailed(
            f"{p.role} code has (n, k) = ({code.n}, {code.k}), declared "
            f"({p.n}, {p.k})")
    return code


def code_from_generator(G: Mat, params: Optional[CodeParams] = None,
                        provenance: Optional[dict] = None) -> LinearCode:
    H = mat_nullspace(G)
    return LinearCode(H, G=rref(G)[0], params=params, provenance=provenance)


def puncture(c: LinearCode, S: Sequence[int]) -> LinearCode:
    """Restrict all codewords to the coordinates outside S."""
    s = set(S)
    if s and (min(s) < 0 or max(s) >= c.n):
        raise ValueError(f"coordinate set outside [0, {c.n})")
    keep = [i for i in range(c.n) if i not in s]
    return code_from_generator(c.generator().select_columns(keep))


# ---------------------------------------------------------------------------
# minimum distance
# ---------------------------------------------------------------------------

def _min_distance_columns(c: LinearCode, guess: int = 1) -> int:
    """Smallest number of linearly dependent columns of a full-rank H.

    d <= w exactly when some w columns of H are dependent, and exactly when
    some n - w columns of G fail to span GF(q)^k (a nonzero message that
    vanishes on them gives a word of weight <= w).  The walk takes the
    smaller side as `is_mds` does: G's columns when k <= n - k, else H's.
    Since the answer to "d <= w?" grows with w, the walk may start
    anywhere: at s = guess - 1, clamped to [1, n - k], then down from 1 if
    s says yes, else up from s + 1.  Any guess gives the exact d;
    guess = d costs the walks at d - 1 and d alone, and guess = 1 walks
    1, 2, ... as a plain deepening does.
    """
    # any n - k + 1 columns of the n - k rows of H are dependent
    top = c.n - c.k
    s = min(max(guess - 1, 1), top)
    if c.k <= top:
        G = c.generator()

        def dependent(w: int) -> bool:
            return first_deficient(G, c.n - w) is not None
    else:
        H = c.full_rank_checks()

        def dependent(w: int) -> bool:
            return first_dependent(H, [(None, w)])[1] is not None

    if s and dependent(s):
        return next((w for w in range(1, s) if dependent(w)), s)
    return next((w for w in range(s + 1, top + 1) if dependent(w)), top + 1)


def min_distance(c: LinearCode, guess: int = 1) -> int:
    """Exact minimum Hamming weight over the nonzero codewords.

    Picks the cheaper exact strategy: enumerating one codeword per
    1-dimensional subspace, `support_weight(c, 1)`, or the column search of
    `_min_distance_columns`, over G's columns when k <= n - k and H's
    otherwise, which starts next to `guess`.  The guess is a cost hint
    only: every guess gives the same answer, and the column search costs
    least when it is the distance.  Raises BudgetExceeded when neither fits
    within MIN_DISTANCE_BUDGET steps.
    """
    budget = MIN_DISTANCE_BUDGET
    if c.k == 0:
        raise ValueError("the zero code has no nonzero codeword")
    enum_cost = c.gf.q ** c.k
    col_cost = sum(math.comb(c.n, w) for w in range(1, c.n - c.k + 2))
    if enum_cost <= budget and (c.gf.q == 2 or enum_cost <= col_cost
                                or col_cost > budget):
        return support_weight(c, 1, budget)
    if col_cost <= budget:
        return _min_distance_columns(c, guess)
    raise BudgetExceeded(
        f"min_distance needs min({enum_cost}, {col_cost}) > {budget} steps")


# ---------------------------------------------------------------------------
# generalized Hamming weights (minimum support weights)
# ---------------------------------------------------------------------------

def _gaussian_binomial(k: int, i: int, q: int) -> int:
    num = den = 1
    for j in range(i):
        num *= q ** (k - j) - 1
        den *= q ** (j + 1) - 1
    return num // den


def support_weight(c: LinearCode, i: int,
                   budget: int = SUPPORT_WEIGHT_BUDGET) -> int:
    """i-th minimum support weight: the smallest support of an i-dimensional
    subcode, over every subspace of the generator's span that `subspaces`
    walks.  i = 1 gives the minimum distance."""
    if not 1 <= i <= c.k:
        raise ValueError(f"need 1 <= i <= k, got {i}")
    count = _gaussian_binomial(c.k, i, c.gf.q)
    if count > budget:
        raise BudgetExceeded(f"{count} subspaces > budget {budget}")
    bases = subspaces(c.generator(), i)
    if c.gf.q > 2:  # outside the support, every word's log is -1
        return c.n - max((w[0] if i == 1 else list(map(max, *w))).count(-1)
                         for w in bases)
    if i == 1:  # min_distance's walk, which needs no union
        return min(w.bit_count() for (w,) in bases)
    # the support is the OR of the i bit masks
    return min(map(int.bit_count, map(partial(reduce, or_), bases)))


def is_mds(c: LinearCode) -> bool:
    """True iff every k columns of G are linearly independent.  Raises
    BudgetExceeded past IS_MDS_BUDGET column subsets."""
    if c.k == 0 or c.k == c.n:
        return True
    use_h = (c.n - c.k) < c.k
    M = c.full_rank_checks() if use_h else rref(c.generator())[0]
    w = c.n - c.k if use_h else c.k
    if math.comb(c.n, w) > IS_MDS_BUDGET:
        raise BudgetExceeded(
            f"C({c.n},{w}) column subsets > {IS_MDS_BUDGET}")
    return first_dependent(M, [(None, w)])[1] is None
