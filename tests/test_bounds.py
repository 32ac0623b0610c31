import json
import math
import random
from fractions import Fraction

import pytest

from lrckit.bounds import (BoundError, ClassicalOracle, RgParams,
                           avail_dmin_bounds, avail_product_tradeoff,
                           avail_rate_bounds, cutset_bound, hamming_type_bound,
                           lr_alphabet_dim_bound, lr_alphabet_dmin_bound,
                           lr_singleton_bound, mbr_point, moore_bound,
                           msr_point, msr_subpkt_bounds, msw_sequence,
                           sa_blocklength_bound, seq_blocklength_bounds,
                           seq_dim_bound_t2, seq_rate_bound)
from lrckit.cli import main


# -- locality Singleton bound --

def test_lr_singleton_values():
    assert lr_singleton_bound(18, 14, 7) == 4
    assert lr_singleton_bound(12, 6, 3) == 6
    # r = k degenerates to the classical bound
    assert lr_singleton_bound(10, 4, 4) == 10 - 4 + 1


def test_lr_singleton_monotone_in_k():
    vals = [lr_singleton_bound(20, k, 3) for k in range(1, 18)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


# -- packing-type dimension bound --

def test_hamming_type_row():
    assert [hamming_type_bound(31, r) for r in range(2, 7)] == \
        [15, 18, 20, 22, 23]
    with pytest.raises(BoundError):
        hamming_type_bound(31, 14)  # r > n/2 - 2


# -- minimum support weight sequence --

def test_msw_hand_recursion():
    assert msw_sequence(12, 4, 3).e == (4, 7, 10, 12)
    assert msw_sequence(10, 1, 2).e == (10,)


def test_msw_linear_cap():
    # e_i <= i*r + 1 for r >= 2, under the hypothesis n <= b1 * r that the
    # availability-rate sizing of b1 always satisfies
    for r in range(2, 8):
        for n in range(5, 40, 3):
            for b1 in range((n + r - 1) // r, n + 1):
                seq = msw_sequence(n, b1, r)
                assert all(e <= i * r + 1
                           for i, e in enumerate(seq.e, 1))


# -- alphabet-dependent bounds via shortening --

def test_alphabet_dim_bound_oracles():
    full = lr_alphabet_dim_bound(31, 5, 2, 2)
    assert full.value == 16
    packing_only = lr_alphabet_dim_bound(31, 5, 2, 2,
                                         ClassicalOracle(["hamming"]))
    assert packing_only.value <= 17
    assert packing_only.value >= full.value  # weaker oracle, looser bound


def test_oracle_refuses_unknown_bound_names():
    """A name outside the four closed forms would test nothing, and with
    no bound left the oracle would answer k = n; so it is refused."""
    for use in (["foo"], ["singleton", "foo"], ["", ""], [], ["Hamming"]):
        with pytest.raises(BoundError, match="oracle bounds must be"):
            ClassicalOracle(use)
    for name in ClassicalOracle.BOUNDS:
        assert ClassicalOracle([name]).use == (name,)


def test_alphabet_dmin_bound_runs():
    rep = lr_alphabet_dmin_bound(20, 10, 3, 4)
    assert rep.value >= 1
    with pytest.raises(BoundError):
        lr_alphabet_dmin_bound(12, 1, 2, 2)  # e_i - i never below k = 1


def test_alphabet_bound_monotone_in_oracle():
    # any valid weakening of the classical oracle loosens the result
    strong = lr_alphabet_dim_bound(24, 5, 3, 2)
    weak = lr_alphabet_dim_bound(24, 5, 3, 2, ClassicalOracle(["singleton"]))
    assert weak.value >= strong.value


# -- sequential recovery --

def test_seq_rate_closed_forms():
    for r in range(1, 12):
        assert seq_rate_bound(r, 2) == Fraction(r, r + 2)
        assert seq_rate_bound(r, 3) == Fraction(r * r, (r + 1) ** 2)
    assert seq_rate_bound(2, 4) == Fraction(2, 5)
    assert seq_rate_bound(2, 5) == Fraction(8, 21)
    assert seq_rate_bound(3, 5) == Fraction(27, 52)


def test_seq_blocklength_t2():
    assert seq_blocklength_bounds(12, 4, 2).value == 18


def test_seq_blocklength_t3_table():
    assert seq_blocklength_bounds(5, 3, 3).value == {"prior": 9, "new": 10}
    assert seq_blocklength_bounds(8, 4, 3).value == {"prior": 13, "new": 14}


def test_seq_dim_bound_t2():
    assert seq_dim_bound_t2(1, 4) == 2   # single check: floor(r/2)
    assert seq_dim_bound_t2(5, 4) == 10


def test_seq_dim_bound_brute_force_oracle():
    # maximum number of distinct nonzero binary columns with every row
    # weight <= r+1 equals m + k at the bound for (m, r) = (5, 4)
    m, r = 5, 4
    columns = sorted((tuple((code >> i) & 1 for i in range(m))
                      for code in range(1, 2 ** m)), key=sum)
    budget = m * (r + 1)
    best = 0

    def extend(idx, chosen, row_load):
        nonlocal best
        best = max(best, chosen)
        if idx == len(columns):
            return
        # columns are weight-sorted, so the leftover weight budget caps
        # how many more can still fit
        spare = budget - sum(row_load)
        cap = chosen + spare // sum(columns[idx])
        if cap <= best or chosen + len(columns) - idx <= best:
            return
        col = columns[idx]
        if all(row_load[i] + col[i] <= r + 1 for i in range(m)):
            extend(idx + 1, chosen + 1,
                   tuple(row_load[i] + col[i] for i in range(m)))
        extend(idx + 1, chosen, row_load)

    extend(0, 0, (0,) * m)
    assert best - m == seq_dim_bound_t2(m, r)


# -- availability --

def test_avail_rate_bounds():
    for r in range(1, 15):
        assert avail_rate_bounds(r, 2)["transpose"] == Fraction(r, r + 2)
    assert avail_rate_bounds(5, 1)["tamo_barg"] == Fraction(5, 6)
    assert avail_rate_bounds(3, 1)["transpose"] is None


def test_avail_rate_transpose_consistency():
    # transpose(r, t) = 1 - t/(r+1) + t/(r+1) * product_form(t-1, r+1)
    for r in range(2, 10):
        for t in range(2, 6):
            v = avail_rate_bounds(r, t)
            inner = avail_rate_bounds(r + 1, t - 1)["tamo_barg"] \
                if t >= 2 else None
            inner = 1 / math.prod(
                [1 + Fraction(1, j * (t - 1)) for j in range(1, r + 2)])
            expected = 1 - Fraction(t, r + 1) + Fraction(t, r + 1) * inner
            assert v["transpose"] == expected


def test_avail_dmin_finite_example():
    v = avail_dmin_bounds(20, 9, 2, 2)
    assert all(isinstance(x, int) for x in v.values())
    assert v["msw_new"] <= min(v["wang"], v["tamo_barg"],
                               v["kruglik_frolov"])


def test_avail_product_tradeoff():
    # k = n R_c and n_c = n collapses the upper bound to n(1-R_c)/R_c + 1
    n, Rc = 60, Fraction(2, 3)
    v = avail_product_tradeoff(n, int(n * Rc), n, Rc, Fraction(3, 4))
    assert v["upper"] == n * (1 - Rc) / Rc + 1
    # asymptotic gap heads to 1 - R/Rmax
    R, Rmax = Fraction(1, 2), Fraction(2, 3)
    big = 10 ** 3
    v = avail_product_tradeoff(big * 10, int(big * 10 * R), 10, Rmax, Rmax)
    assert abs(v["upper"] / (big * 10) - (1 - R / Rmax)) < Fraction(1, 100)


def test_sa_blocklength():
    assert sa_blocklength_bound(4, 5) == 21
    assert sa_blocklength_bound(2, 3) == 7
    r = 3
    assert sa_blocklength_bound(r, r * (r + 1)) == (r + 1) ** 2 - 1


# -- Moore bound --

def test_moore_bound_values():
    assert moore_bound(2, 4) == 10
    assert moore_bound(6, 4) == 50
    assert moore_bound(2, 5) == 14
    for r in range(1, 8):
        assert moore_bound(r, 3) == 2 * (r + 1)


# -- regenerating codes --

def test_cutset_bound():
    assert cutset_bound(RgParams(n=3, k=2, d=2, alpha=4, beta=2)) == 6
    # alpha >= d beta puts every term at (d-i) beta
    p = RgParams(n=8, k=4, d=6, alpha=12, beta=2)
    assert cutset_bound(p) == sum((6 - i) * 2 for i in range(4))


def test_msr_mbr_points():
    pt = msr_point(14, 10, 13)
    assert pt["beta_over_alpha"] == Fraction(1, 4)
    mbr = mbr_point(4, 6, 2)
    assert mbr["alpha"] == 12
    assert mbr["B"] == (6 * 4 - math.comb(4, 2)) * 2


def test_mbr_point_meets_the_cutset_bound():
    # at alpha = d beta every cut-set term is (d - i) beta, and they sum to B
    for k in range(1, 7):
        for d in range(k, 9):
            for beta in range(5):
                mbr = mbr_point(k, d, beta)
                rg = RgParams(n=d + 1, k=k, d=d, alpha=mbr["alpha"], beta=beta)
                assert cutset_bound(rg) == mbr["B"], (k, d, beta)


# -- regimes: outside its domain a bound is a BoundError, which exits 2 --

# each ran to exit 0 with a negative B or bound before the domains were named
OUT_OF_REGIME = {
    "mbr-point": (["mbr-point", "--k", "2", "--d", "6", "--beta", "-1"],
                  "need beta >= 0"),
    "cutset": (["cutset", "--n", "7", "--k", "2", "--d", "6", "--alpha", "3",
                "--beta", "-2"], "need beta >= 0"),
    "avail-tradeoff-n": (["avail-tradeoff", "--n", "-3", "--k", "9", "--nc",
                          "9", "--rc", "1", "--rmax", "1"],
                         "need 1 <= k <= n and n_c >= 1"),
    "avail-tradeoff-k": (["avail-tradeoff", "--n", "9", "--k", "-3", "--nc",
                          "9", "--rc", "1", "--rmax", "1"],
                         "need 1 <= k <= n and n_c >= 1"),
}


@pytest.mark.parametrize("case", OUT_OF_REGIME)
def test_cli_refuses_bounds_outside_their_regime(case, capsys):
    argv, message = OUT_OF_REGIME[case]
    assert main(["bound"] + argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "BoundError", "message": message}


def test_regenerating_and_tradeoff_domains_on_seeded_sweeps():
    """Seeded draws of every argument in -3..9: each of the three rows
    answers exactly inside its domain and raises BoundError outside it; the
    regenerating-code values are then nonnegative."""
    rng = random.Random(31)

    def ints(count):
        return [rng.randint(-3, 9) for _ in range(count)]

    for _ in range(300):
        k, d, beta = ints(3)
        if 1 <= k <= d and beta >= 0:
            assert min(mbr_point(k, d, beta).values()) >= 0
        else:
            with pytest.raises(BoundError):
                mbr_point(k, d, beta)
        n, k, d, alpha, beta = ints(5)
        if 1 <= k <= d <= n - 1 and 0 <= beta <= alpha:
            assert cutset_bound(RgParams(n, k, d, alpha, beta)) >= 0
        else:
            with pytest.raises(BoundError):
                RgParams(n, k, d, alpha, beta)
        n, k, n_c, a, b, c, e = ints(7)
        R_c, R_max = Fraction(a, b or 1), Fraction(c, e or 1)
        if 0 < R_c <= R_max <= 1 and 1 <= k <= n and n_c >= 1:
            avail_product_tradeoff(n, k, n_c, R_c, R_max)
        else:
            with pytest.raises(BoundError):
                avail_product_tradeoff(n, k, n_c, R_c, R_max)


def test_msr_subpkt_modes():
    assert msr_subpkt_bounds(10, 8, 9, None, "msr_d_n1") == 32
    assert msr_subpkt_bounds(10, 8, 9, None, "msr_const_repair") == 32
    s = 7 - 5 + 1
    assert msr_subpkt_bounds(10, 5, 7, None, "msr_any_d") == \
        min(s ** math.ceil(9 / s), s ** 4)
    assert msr_subpkt_bounds(10, 8, 9, 1, "mds_w_d_n1") == 2
    assert msr_subpkt_bounds(10, 5, 7, 1, "mds_w_any_d") == 3
    with pytest.raises(BoundError):
        msr_subpkt_bounds(10, 8, 9, None, "bogus")
    with pytest.raises(BoundError):
        msr_subpkt_bounds(10, 8, 8, None, "msr_d_n1")


def test_avail_dmin_degenerate_t_zero():
    v = avail_dmin_bounds(20, 9, 3, 0)
    assert v["wang"] == 20 - 9 + 1
    assert v["tamo_barg"] == 20 - 8
    assert v["msw_new"] is None


def test_avail_dmin_bounds_dominate_a_real_code():
    # all four formulas must sit at or above the brute-force distance of an
    # actual availability code with the same parameters
    from lrckit.code import min_distance
    from lrckit.lr_codes import product_avail_code
    code = product_avail_code(2, 2)  # (9, 4) with r = 2, t = 2
    d = min_distance(code)
    assert d == 4
    v = avail_dmin_bounds(code.n, code.k, 2, 2)
    for name, bound in v.items():
        if bound is not None:
            assert bound >= d, name
