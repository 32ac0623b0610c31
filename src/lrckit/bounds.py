"""Closed-form bound formulas for codes with locality, availability,
sequential recovery, strict availability and regenerating codes.

Everything here is pure arithmetic: rates are exact `Fraction`s so that
equality checks against rank-derived rates of constructed codes are exact,
and all integer formulas use exact integer ceilings/floors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from ._record import FrozenRecord


class BoundError(ValueError):
    """A bound formula asked outside its regime (docs/schemas.md, Errors)."""


class BoundReport(FrozenRecord):
    """Evaluated bound: name, inputs, value and the formula applied."""

    def __init__(self, name: str, inputs: Dict[str, object], value: object,
                 formula: str = "",
                 detail: Optional[Dict[str, object]] = None):
        vars(self).update(name=name, inputs=inputs, value=value,
                          formula=formula,
                          detail={} if detail is None else detail)


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# ---------------------------------------------------------------------------
# locality bounds (single erasure)
# ---------------------------------------------------------------------------

def lr_singleton_bound(n: int, k: int, r: int) -> int:
    """Largest minimum distance of an [n, k] code with locality r:
    (n - k + 1) - (ceil(k/r) - 1)."""
    if not (1 <= k <= n) or r < 1:
        raise BoundError("need 1 <= k <= n and r >= 1")
    return (n - k + 1) - (ceil_div(k, r) - 1)


def hamming_type_bound(n: int, r: int) -> int:
    """Sphere-packing-flavoured dimension bound for binary locality-r codes
    with minimum distance >= 5:
    k <= rn/(r+1) - min(log2(1 + rn/2), rn/((r+1)(r+2)))."""
    if not (2 <= r <= n / 2 - 2):
        raise BoundError(f"need 2 <= r <= n/2 - 2, got r={r}, n={n}")
    rn = r * n
    bound = rn / (r + 1) - min(math.log2(1 + rn / 2),
                               rn / ((r + 1) * (r + 2)))
    return math.floor(bound)


# ---------------------------------------------------------------------------
# minimum support weight sequence
# ---------------------------------------------------------------------------

def msw_sequence(n: int, b1: int, r: int) -> Tuple[int, ...]:
    """Recursive upper bounds e_1..e_b1 on the minimum support weights of a
    length-n code spanned by b1 independent words of weight <= r+1, as the
    tuple e with e[i-1] the i-th term:
    e_{b1} = n and e_{i-1} = min(e_i, e_i - ceil(2 e_i / i) + r + 1)."""
    if b1 < 1 or n < 1 or r < 1:
        raise BoundError("need n, b1, r >= 1")
    e = [0] * b1
    e[b1 - 1] = n
    for i in range(b1, 1, -1):
        ei = e[i - 1]
        e[i - 2] = min(ei, ei - ceil_div(2 * ei, i) + r + 1)
    return tuple(e)


# ---------------------------------------------------------------------------
# classical-code oracle (no locality): closed-form upper bounds
# ---------------------------------------------------------------------------

def _volume(n: int, radius: int, q: int) -> int:
    return sum(math.comb(n, j) * (q - 1) ** j for j in range(radius + 1))


def _k_feasible(n: int, d: int, k: int, q: int,
                use: Sequence[str]) -> bool:
    """Can an [n, k, d] q-ary code pass every selected closed-form test?
    Callers keep 1 <= k and d <= n."""
    if "singleton" in use and k > n - d + 1:
        return False
    if "hamming" in use:
        radius = (d - 1) // 2
        if q ** k * _volume(n, radius, q) > q ** n:
            return False
    if "plotkin" in use:
        theta = Fraction(q - 1, q)
        if d > theta * n:
            if q ** k > Fraction(d, 1) / (d - theta * n):
                return False
    if "griesmer" in use:
        if sum(ceil_div(d, q ** i) for i in range(k)) > n:
            return False
    return True


class ClassicalOracle:
    """Pluggable supplier of k_opt(n, d) and d_opt(n, k) for codes with no
    locality constraint.  The default uses the minimum of the Singleton,
    sphere-packing, Plotkin and Griesmer closed forms; pass a subset of bound
    names to weaken it (e.g. ["hamming"] for a packing-only oracle)."""

    BOUNDS = ("singleton", "hamming", "plotkin", "griesmer")

    def __init__(self, use: Optional[Sequence[str]] = None):
        self.use = tuple(use) if use is not None else self.BOUNDS
        if not self.use or not set(self.use) <= set(self.BOUNDS):
            # an unknown name would test nothing and loosen the bound
            raise BoundError(f"oracle bounds must be a nonempty subset of "
                             f"{', '.join(self.BOUNDS)}; got {list(self.use)}")

    def k_opt(self, n: int, d: int, q: int) -> int:
        """Largest dimension compatible with every selected bound."""
        if n < 1 or d < 1:
            raise BoundError("need n, d >= 1")
        if d > n:
            return 0
        k = 0
        while k < n and _k_feasible(n, d, k + 1, q, self.use):
            k += 1
        return k

    def d_opt(self, n: int, k: int, q: int) -> int:
        """Largest minimum distance compatible with every selected bound."""
        if not 1 <= k <= n:
            raise BoundError("need 1 <= k <= n")
        for d in range(n - k + 1, 1, -1):
            if _k_feasible(n, d, k, q, self.use):
                return d
        return 1  # every closed-form test passes at d = 1


DEFAULT_ORACLE = ClassicalOracle()


def lr_alphabet_dmin_bound(n: int, k: int, r: int, q: int,
                           oracle: ClassicalOracle = DEFAULT_ORACLE
                           ) -> BoundReport:
    """Alphabet-size-dependent distance bound via shortening on supports of
    low-weight dual words: d <= min over i in S of d_opt(n - e_i, k + i - e_i)
    with S = {i : e_i - i < k} and b1 = ceil(n / (r+1)).  Every shortened
    code exists, k + i <= n for each i in S, exactly when k <= n - b1."""
    if r < 1 or q < 2:
        raise BoundError(f"need r >= 1 and q >= 2, got r={r}, q={q}")
    b1 = ceil_div(n, r + 1)
    seq = msw_sequence(n, b1, r)
    S = [(i, e) for i, e in enumerate(seq, 1) if e - i < k]
    if not S:
        raise BoundError("no shortening index i has e_i - i < k")
    if k > n - b1:
        raise BoundError(f"need k <= n - ceil(n / (r + 1)) = {n - b1}, "
                         f"got k = {k}")
    best, best_i = min((oracle.d_opt(n - e, k + i - e, q), i) for i, e in S)
    return BoundReport(
        "lr-alphabet-dmin", {"n": n, "k": k, "r": r, "q": q}, best,
        formula="min_i d_opt(n - e_i, k + i - e_i)",
        detail={"minimizing_i": best_i, "b1": b1, "e": list(seq)})


def lr_alphabet_dim_bound(n: int, d: int, r: int, q: int,
                          oracle: ClassicalOracle = DEFAULT_ORACLE
                          ) -> BoundReport:
    """Alphabet-size-dependent dimension bound:
    k <= min over {i : e_i < n - d + 1} of e_i - i + k_opt(n - e_i, d)."""
    if r < 1 or q < 2:
        raise BoundError(f"need r >= 1 and q >= 2, got r={r}, q={q}")
    b1 = ceil_div(n, r + 1)
    seq = msw_sequence(n, b1, r)
    S = [(i, e) for i, e in enumerate(seq, 1) if e < n - d + 1]
    if not S:
        raise BoundError("no shortening index i has e_i < n - d + 1")
    best, best_i = min((e - i + oracle.k_opt(n - e, d, q), i) for i, e in S)
    return BoundReport(
        "lr-alphabet-dim", {"n": n, "d": d, "r": r, "q": q}, best,
        formula="min_i e_i - i + k_opt(n - e_i, d)",
        detail={"minimizing_i": best_i, "b1": b1, "e": list(seq)})


# ---------------------------------------------------------------------------
# sequential recovery
# ---------------------------------------------------------------------------

def seq_rate_bound(r: int, t: int) -> Fraction:
    """Largest rate of a code with sequential recovery from t erasures,
    locality r (proved tight for r >= 3), as an exact rational.

    t even: r^{s+1} / (r^{s+1} + 2 sum_{i=0}^{s} r^i),
    t odd:  r^{s+1} / (r^{s+1} + 2 sum_{i=1}^{s} r^i + 1),  s = (t-1)//2.
    """
    if r < 1 or t < 1:
        raise BoundError("need r, t >= 1")
    s = (t - 1) // 2
    top = r ** (s + 1)
    if t % 2 == 0:
        den = top + 2 * sum(r ** i for i in range(s + 1))
    else:
        den = top + 2 * sum(r ** i for i in range(1, s + 1)) + 1
    return Fraction(top, den)


def _ceil_half_root(b: int, disc: int) -> int:
    """ceil((-b + sqrt(disc)) / 2) for integer b and disc >= 0, exactly."""
    s = math.isqrt(disc)
    if s * s == disc:
        return (s - b + 1) // 2
    # irrational root: smallest z with 2z + b >= s + 1
    return (s + 1 - b + 1) // 2


def seq_blocklength_bounds(k: int, r: int, t: int) -> BoundReport:
    """Lower bounds on block length of binary sequential-recovery codes.

    t = 2: n >= k + ceil(2k/r) (single value).
    t = 3: returns both the earlier bound n >= k + ceil((2k + ceil(k/r))/r)
    and the tighter n >= k + min_{s1 >= 0} max(f1(s1), f2(s1), s1).
    """
    if k < 1 or r < 1:
        raise BoundError("need k, r >= 1")
    if t == 2:
        v = k + ceil_div(2 * k, r)
        return BoundReport("seq-blocklength", {"k": k, "r": r, "t": 2}, v,
                           formula="k + ceil(2k/r)")
    if t != 3:
        raise BoundError(f"block-length bounds implemented for t in (2, 3)")
    prior = k + ceil_div(2 * k + ceil_div(k, r), r)

    def f1(s1: int) -> int:
        return _ceil_half_root(2 * r - 5,
                               (2 * r - 5) ** 2 + 4 * (6 * k + s1 * s1 - 5 * s1))

    def f2(s1: int) -> int:
        b = 4 * r - 4 + 2 * s1
        return _ceil_half_root(b, b * b + 4 * (12 * k + 3 * s1 * s1
                                               - 4 * s1 - 7))

    # beyond s1 = 3k the max(..., s1) term is s1 itself and nondecreasing
    inner = min(max(f1(s1), f2(s1), s1) for s1 in range(3 * k + 1))
    new = k + inner
    return BoundReport("seq-blocklength", {"k": k, "r": r, "t": 3},
                       {"prior": prior, "new": new},
                       formula="k + min_s1 max(f1, f2, s1)")


def seq_dim_bound_t2(m: int, r: int) -> int:
    """Dimension bound for binary two-erasure sequential-recovery codes whose
    low-weight dual span has dimension m:
    k <= min_L floor((m(r-L) + sum_{i=1}^{L} (L+1-i) C(m,i)) / (L+1))."""
    if m < 1 or r < 1:
        raise BoundError("need m, r >= 1")
    return min((m * (r - L) + sum((L + 1 - i) * math.comb(m, i)
                                  for i in range(1, L + 1))) // (L + 1)
               for L in range(1, m + 1))


# ---------------------------------------------------------------------------
# availability
# ---------------------------------------------------------------------------

def avail_rate_bounds(r: int, t: int) -> Dict[str, Optional[Fraction]]:
    """Rate bounds for availability codes.

    `product_form`: 1 / prod_{j=1}^{t} (1 + 1/(jr)); applies to all
    availability codes.  `transpose`: for strict availability and t >= 2,
    1 - t/(r+1) + t/(r+1) * 1 / prod_{j=1}^{r+1} (1 + 1/(j(t-1))).
    """
    if r < 1 or t < 1:
        raise BoundError("need r, t >= 1")
    prod = Fraction(1)
    for j in range(1, t + 1):
        prod *= 1 + Fraction(1, j * r)
    tamo_barg = 1 / prod
    transpose: Optional[Fraction] = None
    if t >= 2:
        inner = Fraction(1)
        for j in range(1, r + 2):
            inner *= 1 + Fraction(1, j * (t - 1))
        transpose = 1 - Fraction(t, r + 1) + Fraction(t, r + 1) / inner
    return {"tamo_barg": tamo_barg, "transpose": transpose}


def _avail_rho(r: int, t: int) -> Fraction:
    """Case table of availability rate ceilings used to size the dual span."""
    if t == 1:
        return Fraction(r, r + 1)
    if t == 2:
        return Fraction(r, r + 2)
    if t == 3:
        return Fraction(r * r, (r + 1) ** 2)
    return avail_rate_bounds(r, t)["tamo_barg"]


def avail_dmin_bounds(n: int, k: int, r: int, t: int
                      ) -> Dict[str, Optional[int]]:
    """Four upper bounds on the minimum distance of an (n, k, r, t)
    availability code; `msw_new` folds the support-weight sequence into the
    floor-sum bound and is None when its index set is empty.  t = 0 is the
    degenerate edge where the first two collapse to the classical n-k+1."""
    if min(n, k, r) < 1 or t < 0 or k > n:
        raise BoundError("parameters must be positive with k <= n")
    wang = n - k + 2 - ceil_div(t * (k - 1) + 1, t * (r - 1) + 1)
    tamo_barg = n - sum((k - 1) // r ** i for i in range(t + 1))
    kru_fro = (n - k + 1 - (k - 2) // (r - 1)) if r > 1 else None
    if t == 0:
        return {"wang": wang, "tamo_barg": tamo_barg,
                "kruglik_frolov": kru_fro, "msw_new": None}
    b1 = math.ceil(n * (1 - _avail_rho(r, t)))
    seq = msw_sequence(n, b1, r) if b1 >= 1 else ()
    msw_new = min((n - k - i + 1 - sum((k + i - e - 1) // r ** j
                                       for j in range(1, t + 1))
                   for i, e in enumerate(seq, 1) if e - i < k), default=None)
    return {"wang": wang, "tamo_barg": tamo_barg,
            "kruglik_frolov": kru_fro, "msw_new": msw_new}


def avail_product_tradeoff(n: int, k: int, n_c: int, R_c: Fraction,
                           R_max: Fraction) -> Dict[str, Fraction]:
    """Distance bounds for codes stacked from length-n_c availability
    blocks of rate R_c (best achievable rate R_max):
    upper  = n - k/R_c + n_c (1-R_c)/R_c + 1,
    lower  = n R_c / R_max - k/R_max + 1 (existence, large fields)."""
    try:
        R_c, R_max = Fraction(R_c), Fraction(R_max)
    except ZeroDivisionError:
        raise BoundError(f"zero denominator in R_c={R_c}, R_max={R_max}")
    if not 0 < R_c <= R_max <= 1:
        raise BoundError("need 0 < R_c <= R_max <= 1")
    if not 1 <= k <= n or n_c < 1:
        raise BoundError("need 1 <= k <= n and n_c >= 1")
    upper = n - Fraction(k, 1) / R_c + n_c * (1 - R_c) / R_c + 1
    lower = n * R_c / R_max - Fraction(k, 1) / R_max + 1
    return {"upper": upper, "lower_exist": lower}


def sa_blocklength_bound(r: int, t: int) -> int:
    """Least block length of a strict-availability code:
    n >= (r+1)^2 - (r+1) r / t."""
    if r < 1 or t < 1:
        raise BoundError("need r, t >= 1")
    return math.ceil((r + 1) ** 2 - Fraction((r + 1) * r, t))


# ---------------------------------------------------------------------------
# Moore bound
# ---------------------------------------------------------------------------

def moore_bound(r: int, t: int) -> int:
    """Least number of vertices of a degree-(r+1) graph with girth t+1:
    1 + sum_{i=0}^{s} (r+1) r^i for t = 2s+2, and 2 sum_{i=0}^{s} r^i for
    t = 2s+1."""
    if r < 1 or t < 1:
        raise BoundError("need r, t >= 1")
    s = (t - 1) // 2
    if t % 2 == 0:
        return 1 + sum((r + 1) * r ** i for i in range(s + 1))
    return 2 * sum(r ** i for i in range(s + 1))


# ---------------------------------------------------------------------------
# regenerating codes
# ---------------------------------------------------------------------------

def cutset_bound(n: int, k: int, d: int, alpha: int, beta: int) -> int:
    """Largest file size of a regenerating code ((n, k, d), (alpha, beta)):
    B <= sum_{i=0}^{k-1} min(alpha, (d-i) beta)."""
    if not 1 <= k <= d <= n - 1:
        raise BoundError("need 1 <= k <= d <= n-1")
    if beta > alpha:
        raise BoundError("need beta <= alpha")
    if beta < 0:
        raise BoundError("need beta >= 0")
    return sum(min(alpha, (d - i) * beta) for i in range(k))


def msr_point(n: int, k: int, d: int) -> Dict[str, object]:
    """Minimum-storage point: alpha = B/k and beta = alpha/(d-k+1)."""
    if not (1 <= k <= d <= n - 1):
        raise BoundError("need 1 <= k <= d <= n-1")
    return {"alpha_over_B": Fraction(1, k),
            "beta_over_alpha": Fraction(1, d - k + 1),
            "s": d - k + 1}


def mbr_point(k: int, d: int, beta: int) -> Dict[str, int]:
    """Minimum-bandwidth point: alpha = d beta, B = (dk - C(k,2)) beta."""
    if not 1 <= k <= d:
        raise BoundError("need 1 <= k <= d")
    if beta < 0:
        raise BoundError("need beta >= 0")
    return {"alpha": d * beta, "B": (d * k - math.comb(k, 2)) * beta}


MSR_SUBPKT_MODES = ("msr_d_n1", "msr_const_repair", "msr_any_d",
                    "mds_w_d_n1", "mds_w_any_d")


def msr_subpkt_bounds(n: int, k: int, d: int, w: Optional[int],
                      mode: str) -> int:
    """Lower bounds on the sub-packetization alpha of optimal-access
    minimum-storage codes (and vector-MDS codes repairing w nodes).

    mode:
      msr_d_n1         d = n-1, all nodes:  min(r^ceil((n-1)/r), r^(k-1))
      msr_const_repair d = n-1, repair matrices independent of the helper:
                       min(r^ceil(n/r), r^(k-1))
      msr_any_d        any d, helper-set independent, s = d-k+1:
                       min(s^ceil((n-1)/s), s^(k-1))
      mds_w_d_n1       d = n-1, w nodes repaired:
                       min(r^ceil(w/r), r^(k-1)) if w > k-1 else r^ceil(w/r)
      mds_w_any_d      same with s = d-k+1 in place of r

    A given w must lie in [1, n]; the mds modes need one.
    """
    if not (1 <= k <= d <= n - 1):
        raise BoundError("need 1 <= k <= d <= n-1")
    if w is not None and not 1 <= w <= n:
        raise BoundError("need 1 <= w <= n")
    r = n - k
    s = d - k + 1
    if mode == "msr_d_n1":
        if d != n - 1:
            raise BoundError("mode msr_d_n1 requires d = n-1")
        return min(r ** ceil_div(n - 1, r), r ** (k - 1))
    if mode == "msr_const_repair":
        if d != n - 1:
            raise BoundError("mode msr_const_repair requires d = n-1")
        return min(r ** ceil_div(n, r), r ** (k - 1))
    if mode == "msr_any_d":
        return min(s ** ceil_div(n - 1, s), s ** (k - 1))
    if mode in ("mds_w_d_n1", "mds_w_any_d"):
        if w is None:
            raise BoundError("w in [1, n] required for the mds modes")
        base = r if mode == "mds_w_d_n1" else s
        if mode == "mds_w_d_n1" and d != n - 1:
            raise BoundError("mode mds_w_d_n1 requires d = n-1")
        v = base ** ceil_div(w, base)
        if w > k - 1:
            return min(v, base ** (k - 1))
        return v
    raise BoundError(f"mode must be one of {MSR_SUBPKT_MODES}")
