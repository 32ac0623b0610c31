"""Partial-maximal and maximal recoverable code constructions.

All codes here carry disjoint local groups (one parity symbol or one MDS row
per group) plus a few global checks, and are built so that every erasure
pattern the local structure does not preclude is correctable.  Each
constructor attaches the LocalStructure describing its groups; the
verifiers in `verify` replay the erasure patterns by brute force.
"""

from __future__ import annotations

import random
from itertools import accumulate, product
from typing import List, Sequence, Tuple

from ._record import FrozenRecord
from .code import (CodeParams, ConstructionFailed, LinearCode,
                   SearchExhausted, checked, code_from_generator)
from .field import (GF, MAX_FIELD_SIZE, FieldError, field_make,
                    field_of_size, prime_power, subfield_embedding)
from .matrix import Mat, eval_matrix, first_dependent, vandermonde


class LocalStructure(FrozenRecord):
    """Disjoint local groups covering all coordinates; each group tolerates
    `delta` erasures via its local code (local distance delta + 1)."""

    def __init__(self, groups: Tuple[Tuple[int, ...], ...], delta: int = 1):
        vars(self).update(groups=groups, delta=delta)
        flat = [i for g in self.groups for i in g]
        if len(set(flat)) != len(flat):
            raise ValueError("groups must be disjoint")
        # disjoint groups: every coordinate of a group is private to it
        for gi, g in enumerate(self.groups):
            if not g:
                raise ValueError(f"group {gi} has no private coordinate")

    def covers(self, n: int) -> bool:
        return set(range(n)) == {i for g in self.groups for i in g}

    def admissible_pattern(self) -> Tuple[int, ...]:
        """Canonical puncturing pattern: the first private coordinate of
        each group."""
        return tuple(min(g) for g in self.groups)


def _n_k(m: int, r: int, delta: int, s: int) -> Tuple[int, int]:
    """(n, k) = (m(r+delta), mr - s): m local groups of r+delta symbols,
    each an [r+delta, r] code, under s global checks."""
    k = m * r - s
    if min(m, r, delta) < 1 or k < 1:
        raise ValueError("parameters must be positive with k >= 1")
    return m * (r + delta), k


def coordinate_groups(sizes: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    """Consecutive coordinate groups of the given sizes, from 0 up."""
    starts = [0, *accumulate(sizes)]
    return tuple(tuple(range(a, b)) for a, b in zip(starts, starts[1:]))


def _pmr_layout(m: int, r: int) -> LocalStructure:
    """Local groups for the [I_m | F ; 0 | H_mds] layout: group i holds its
    parity column i plus its r data columns."""
    groups = []
    for i in range(m):
        groups.append((i,) + tuple(m + i * r + j for j in range(r)))
    return LocalStructure(tuple(groups), delta=1)


def _split_parity_matrix(gf: GF, m: int, r: int, f_entries: Sequence[int],
                         mds_rows: Sequence[Sequence[int]]) -> Mat:
    """Assemble [[I_m | F], [0 | H_mds]] with F the block-diagonal split of
    `f_entries` into m contiguous length-r pieces."""
    k0 = m * r
    rows = []
    for i in range(m):
        out = [0] * (m + k0)
        out[i] = 1
        for j in range(r):
            out[m + i * r + j] = f_entries[i * r + j]
        rows.append(out)
    for mr_row in mds_rows:
        rows.append([0] * m + list(mr_row))
    return Mat(gf, rows, cols=m + k0)


# ---------------------------------------------------------------------------
# parity-splitting partial-MR construction
# ---------------------------------------------------------------------------

def pmr_parity_split(m: int, r: int, delta: int, gf: GF) -> LinearCode:
    """Partial-MR code with Delta = delta <= r-1 global checks.

    Take a (delta+1)-row Vandermonde parity check of a [mr, mr-delta-1] MDS
    code; keep its first delta rows as the global checks and split its last
    row block-diagonally into m local parities.  The result is an
    [m(r+1), mr-delta] code with all-symbol locality r and minimum distance
    exactly delta + 2.
    """
    if not 0 <= delta <= r - 1:
        raise ValueError(f"need 0 <= delta <= r-1, got delta={delta}")
    n, k = _n_k(m, r, 1, delta)
    k0 = m * r
    if gf.q < k0 + 1:
        raise FieldError(f"need q >= {k0 + 1}, got {gf.q}")
    points = [gf._exp[i] for i in range(k0)]  # distinct nonzero elements
    Hg = vandermonde(gf, points, delta + 1)
    last = Hg.data[delta]
    H = _split_parity_matrix(gf, m, r, last, Hg.data[:delta])
    structure = _pmr_layout(m, r)
    return checked(LinearCode(
        H, params=CodeParams(n=n, k=k, r=r, d_min=delta + 2, q=gf.q,
                             role="PMR"),
        provenance={"construction": "pmr-parity-split", "delta": delta,
                    "local_structure": structure}))


# ---------------------------------------------------------------------------
# (r, 1, 2) maximal recoverable codes with O(n) field size
# ---------------------------------------------------------------------------

def mr_r12(m: int, r: int) -> LinearCode:
    """(r, 1, 2) MR code of length n = m(r+1), dimension mr - 2, over the
    binary extension field chosen automatically.

    The two global rows are [1 ... 1] and [theta_1 ... theta_k0]; the local
    row of group i carries the squares of its thetas.  Points are
    theta_{(i-1)r+j} = alpha^(i-1) beta^j with beta spanning the multiplicative
    group of the subfield GF(2^l), l minimal with 2^l - 1 >= r + 1, which
    keeps the inter-group coset structure that makes the minors nonzero.
    """
    n, k = _n_k(m, r, 1, 2)
    ell = 1
    while 2 ** ell - 1 < r + 1:
        ell += 1
    rho = 1
    # q = 2^(l*rho) must satisfy r(q-1) > (2^l - 1)(k+2), exactly
    while (2 ** (ell * rho) - 1) * r <= (2 ** ell - 1) * (k + 2):
        rho += 1
    gf = field_make(2, ell * rho)
    q = gf.q
    beta = gf.pow(gf.primitive, (q - 1) // (2 ** ell - 1))
    alpha = gf.primitive
    thetas = []
    for i in range(1, m + 1):
        for j in range(1, r + 1):
            thetas.append(gf.mul(gf.pow(alpha, i - 1), gf.pow(beta, j)))
    if len(set(thetas)) != len(thetas):
        raise ConstructionFailed("theta points collide")
    squares = [gf.mul(x, x) for x in thetas]
    mds_rows = [[1] * (m * r), thetas]
    H = _split_parity_matrix(gf, m, r, squares, mds_rows)
    structure = _pmr_layout(m, r)
    return checked(LinearCode(
        H, params=CodeParams(n=n, k=k, r=r, q=q, role="MR"),
        provenance={"construction": "mr-r12", "q": q, "ell": ell,
                    "local_structure": structure}))


# ---------------------------------------------------------------------------
# (r, delta, 2) maximal recoverable codes with O(n) field size
# ---------------------------------------------------------------------------

def _prime_powers_from(start: int):
    q = max(start, 2)
    while q <= MAX_FIELD_SIZE:
        if prime_power(q):
            yield q
        q += 1


def mr_rdelta2(m: int, r: int, delta: int, psi: int) -> LinearCode:
    """(r, delta, 2) MR code: n = m(r+delta), k = mr - 2, field size O(n).

    Each group carries a delta-row Vandermonde local code in powers of a
    psi-th root of unity beta (so every group is a [r+delta, r] MDS code);
    the two global rows per group j are powers beta^(delta j') and
    alpha^(j-1) beta^(-j').  The field is the smallest prime power with
    psi | q-1 and q-1 >= psi*m.
    """
    n, k = _n_k(m, r, delta, 2)
    width = r + delta
    if psi < width:
        raise ValueError(f"need psi >= r+delta = {width}")
    q = None
    for cand in _prime_powers_from(psi + 1):
        if (cand - 1) % psi == 0 and cand - 1 >= psi * m:
            q = cand
            break
    if q is None:
        raise FieldError("no prime power q with psi | q-1, q-1 >= psi*m")
    gf = field_of_size(q)
    alpha = gf.primitive
    beta = gf.pow(alpha, (q - 1) // psi)
    rows = []
    for i in range(m):  # local blocks: delta x width Vandermonde in beta
        for a in range(delta):
            out = [0] * n
            for jp in range(width):
                out[i * width + jp] = gf.pow(beta, a * jp)
            rows.append(out)
    row1 = [0] * n
    row2 = [0] * n
    for j in range(1, m + 1):
        for jp in range(width):
            col = (j - 1) * width + jp
            row1[col] = gf.pow(beta, delta * jp)
            row2[col] = gf.mul(gf.pow(alpha, j - 1), gf.pow(beta, -jp))
    rows.append(row1)
    rows.append(row2)
    H = Mat(gf, rows, cols=n)
    structure = LocalStructure(coordinate_groups([width] * m), delta=delta)
    return checked(LinearCode(
        H, params=CodeParams(n=n, k=k, r=r, q=q, role="MR"),
        provenance={"construction": "mr-rdelta2", "q": q, "psi": psi,
                    "delta": delta, "local_structure": structure}))


# ---------------------------------------------------------------------------
# general a = 1 partial-MR search (numerical-evidence regime)
# ---------------------------------------------------------------------------

def pmr_general_a1(m: int, r: int, delta: int, base_q: int,
                   seed: int = 0) -> Tuple[LinearCode, "VerifyReport"]:
    """Candidate partial-MR code for r <= Delta <= 2r-1 (one extra local
    erasure beyond the global checks), decided by brute force.

    Points are theta_ij = xi + h_ij in the cubic extension of GF(base_q),
    with xi a generator of the extension and h_ij = alpha^(i-1) times a
    root of unity of order u in the base field, u the least divisor of
    base_q - 1 above r (choices drawn from `seed`).  The local row of group
    i carries the theta_ij themselves.  There is no general proof that this
    succeeds, so the verdict of the verifier is returned alongside the code.
    """
    from .verify import pmr_check
    if not r <= delta <= 2 * r - 1:
        raise ValueError("need r <= delta <= 2r-1 (the a = 1 regime)")
    n, k = _n_k(m, r, 1, delta)
    sub = field_of_size(base_q)
    big = field_make(sub.p, 3 * sub.m)
    embed = subfield_embedding(sub, big)
    u = next((u for u in range(r + 1, base_q) if (base_q - 1) % u == 0),
             None)
    if u is None:
        raise FieldError("no usable root-of-unity order")
    if m > (base_q - 1) // u:
        raise FieldError("too many groups for distinct cosets")
    rng = random.Random(seed)
    alpha_s = sub.primitive
    beta_s = sub.pow(alpha_s, (base_q - 1) // u)
    xi = big.primitive
    thetas: List[int] = []
    for i in range(1, m + 1):
        exps = rng.sample(range(u), r)
        for ex in exps:
            h = sub.mul(sub.pow(alpha_s, i - 1), sub.pow(beta_s, ex))
            thetas.append(big.add(xi, embed[h]))
    if len(set(thetas)) != len(thetas):
        raise ConstructionFailed("theta points collide")
    mds = vandermonde(big, thetas, delta)
    H = _split_parity_matrix(big, m, r, thetas, mds.data)
    structure = _pmr_layout(m, r)
    code = checked(LinearCode(
        H, params=CodeParams(n=n, k=k, r=r, q=big.q, role="PMR"),
        provenance={"construction": "pmr-a1", "delta": delta,
                    "base_q": base_q, "unity_order": u, "seed": seed,
                    "local_structure": structure}))
    return code, pmr_check(code, structure)


# ---------------------------------------------------------------------------
# coset-selection (2, 1, s) maximal recoverable codes
# ---------------------------------------------------------------------------

def _partial_selection_mr(G: Mat, group_sizes: Sequence[int], k: int) -> bool:
    """Every one-per-group puncturing of the selected columns leaves a
    matrix whose code is MDS (full space when fewer than k columns remain):
    every min(k, kept) of the kept columns are independent."""
    for pattern in product(*coordinate_groups(group_sizes)):
        keep = [c for c in range(G.cols) if c not in pattern]
        if first_dependent(G, [(keep, min(k, len(keep)))])[1] is not None:
            return False
    return True


def mr_r2_coset_search(N: int, D: int, gf: GF) -> LinearCode:
    """(2, 1, s) MR code of length N and dimension k = 2D+1 found greedily.

    The ambient code evaluates polynomials with exponent set
    {e <= 3D : e mod 3 != 2} on the cosets of the cube roots of unity in
    GF(q); cosets are admitted one at a time, each addition verified by
    brute force: every one-per-coset puncturing of the partial code must
    be MDS on the remaining positions.  Raises SearchExhausted (reporting
    q) when no coset extends the selection.
    """
    q = gf.q
    if N % 3:
        raise ValueError("need 3 | N")
    if (q - 1) % 3:
        raise FieldError("need 3 | q-1 for cube-root cosets")
    if D < 0:
        raise ValueError("need D >= 0")
    k = 2 * D + 1
    if 3 * k >= 2 * N:
        raise ValueError("need 2D/N < 2/3")
    m_total = (q - 1) // 3
    want = N // 3
    if want > m_total:
        raise FieldError(f"only {m_total} cosets available in GF({q})")
    alpha = gf.primitive
    beta = gf.pow(alpha, (q - 1) // 3)
    cosets = []
    for i in range(m_total):
        rep = gf.pow(alpha, i)
        cosets.append([gf.mul(rep, gf.pow(beta, j)) for j in range(3)])
    exps = [e for e in range(3 * D + 1) if e % 3 != 2]  # k = 2D + 1 of them
    chosen: List[int] = []
    points: List[int] = []
    for _step in range(want):
        extended = False
        for ci in range(m_total):
            if ci in chosen:
                continue
            trial = points + cosets[ci]
            G = eval_matrix(gf, trial, exps)
            if _partial_selection_mr(G, [3] * (len(chosen) + 1), k):
                chosen.append(ci)
                points = trial
                extended = True
                break
        if not extended:
            raise SearchExhausted(
                f"no coset extends the selection over GF({q}); "
                f"retry with a larger field")
    G = eval_matrix(gf, points, exps)
    structure = LocalStructure(coordinate_groups([3] * want), delta=1)
    s = N - k - want
    return checked(code_from_generator(
        G, params=CodeParams(n=N, k=k, r=2, q=q, role="MR"),
        provenance={"construction": "mr-coset", "q": q, "s": s,
                    "cosets": chosen, "local_structure": structure}))
