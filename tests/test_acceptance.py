"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its elapsed time (run with -s to see them live).

Every expected value here is either a closed-form arithmetic fact checked
exactly (rationals, integers), or is verified by an independent brute-force
oracle (exhaustive erasure enumeration, subspace enumeration, codeword
enumeration) rather than trusted from the constructions.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

from lrckit.bounds import (avail_dmin_bounds, avail_rate_bounds,
                           hamming_type_bound, lr_singleton_bound,
                           msr_subpkt_bounds, msw_sequence, RgParams,
                           cutset_bound, sa_blocklength_bound,
                           seq_blocklength_bounds, seq_rate_bound)
from lrckit.code import (LinearCode, code_from_generator, min_distance,
                         support_weight)
from lrckit.field import field_make
from lrckit.lr_codes import pg_plane_sa_code, steiner_sa_code
from lrckit.matrix import Mat, mat_rank
from lrckit.mr_codes import (mr_r12, mr_rdelta2, pmr_general_a1,
                             pmr_parity_split)
from lrckit.seq_codes import moore_code, seq_general_code, t2_turan_code, \
    t3_catalog
from lrckit.verify import (availability_check, low_weight_dual_supports,
                           mr_shape_check, pmds_check, pmr_check, sa_check,
                           seq_recovery_check, _Peeler)


def report(num: int, title: str, started: float, limit: float = None):
    elapsed = time.monotonic() - started
    line = f"PASS criterion {num}: {title} ({elapsed:.1f}s)"
    print("\n" + line, flush=True)
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s"


def test_criterion_01_moore_rate_optimality():
    t0 = time.monotonic()
    pet = moore_code(2, 4)
    assert (pet.n, pet.k) == (15, 6)
    assert pet.rate() == Fraction(2, 5) == seq_rate_bound(2, 4)
    rep = seq_recovery_check(pet, 2, 4, mode="exhaustive")
    assert rep.verdict and rep.mode == "exhaustive"
    hea = moore_code(2, 5)
    assert (hea.n, hea.k) == (21, 8)
    assert hea.rate() == Fraction(8, 21) == seq_rate_bound(2, 5)
    rep = seq_recovery_check(hea, 2, 5, mode="exhaustive")
    assert rep.verdict and rep.mode == "exhaustive"
    report(1, "Moore-graph codes (15,6) and (21,8), exhaustive recovery",
           t0, limit=60)


def test_criterion_02_general_construction():
    t0 = time.monotonic()
    code = seq_general_code(3, 5)
    assert code.n == 1352
    assert mat_rank(code.H) == 650
    assert code.rate() == Fraction(27, 52) == seq_rate_bound(3, 5)
    assert code.n % (26 * 52 // 26) == 0 and code.n == 26 * 52
    cert = seq_recovery_check(code, 3, 5, mode="certificate")
    assert cert.verdict and cert.detail["girth"] >= 6
    sampled = seq_recovery_check(code, 3, 5, mode="sampled",
                                 samples=100_000, seed=0)
    assert sampled.verdict
    assert sampled.budgets["samples"] == 100_000
    report(2, "general (r=3, t=5) code: n=1352, rank 650, rate 27/52, "
              "girth cert + 1e5 random patterns", t0, limit=300)


def test_criterion_03_t3_fixtures_and_bounds():
    t0 = time.monotonic()
    ex1 = t3_catalog("ex1")
    assert (ex1.n, ex1.k) == (10, 5)
    assert seq_recovery_check(ex1, 3, 3, mode="exhaustive").verdict
    ex2 = t3_catalog("ex2")
    assert (ex2.n, ex2.k) == (14, 8)
    assert seq_recovery_check(ex2, 4, 3, mode="exhaustive").verdict
    assert seq_blocklength_bounds(5, 3, 3).value == {"prior": 9, "new": 10}
    assert seq_blocklength_bounds(8, 4, 3).value == {"prior": 13, "new": 14}
    report(3, "three-erasure fixtures (10,5,3,3)/(14,8,4,3) and "
              "block-length table 9/10 and 13/14", t0)


def test_criterion_04_packing_bound_row():
    t0 = time.monotonic()
    assert [hamming_type_bound(31, r) for r in range(2, 7)] == \
        [15, 18, 20, 22, 23]
    report(4, "binary dimension bound row (15,18,20,22,23) at n=31", t0)


def test_criterion_05_block_design_codes():
    t0 = time.monotonic()
    pg = pg_plane_sa_code(2)
    assert pg.n == 21 and pg.n - pg.k == 10
    assert min_distance(pg) == 6
    assert sa_check(pg.H, 4, 5).verdict
    assert availability_check(pg, 4, 5).verdict
    assert pg.n == sa_blocklength_bound(4, 5) == 21
    fano = steiner_sa_code(3)
    assert (fano.n, fano.k) == (7, 3)
    assert min_distance(fano) == 4
    assert availability_check(fano, 2, 3).verdict
    report(5, "projective-plane (21,11,d=6,t=5) and Steiner [7,3,4] "
              "strict-availability codes", t0, limit=120)


def test_criterion_06_mr_exhaustive():
    t0 = time.monotonic()
    a = mr_r12(3, 2)
    assert a.gf.q == 16 and a.gf.q <= 2 * a.n
    rep = pmds_check(a, a.provenance["local_structure"], 1, 2)
    assert rep.verdict and rep.mode == "exhaustive"
    b = mr_rdelta2(2, 2, 2, 4)
    assert b.gf.q == 9 and b.gf.q <= 2 * b.n
    rep = pmds_check(b, b.provenance["local_structure"], 2, 2)
    assert rep.verdict and rep.mode == "exhaustive"
    report(6, "maximal recoverable (9,4) over GF(16) and (8,2) over GF(9), "
              "all admissible patterns", t0, limit=120)


def test_criterion_07_pmr():
    t0 = time.monotonic()
    c = pmr_parity_split(3, 4, 3, field_make(13))
    assert min_distance(c) == 3 + 2
    assert pmr_check(c).verdict
    passed = False
    for seed in range(4):
        code, rep = pmr_general_a1(3, 3, 5, 16, seed=seed)
        assert (code.n, code.k) == (12, 4)
        if rep.verdict:
            passed = True
            break
    assert passed
    report(7, "parity-splitting PMR d=5 over GF(13); cubic-extension "
              "instance (n=12, base 2^4) passes", t0)


def test_criterion_08_msw_vs_ghw():
    t0 = time.monotonic()
    code = t2_turan_code(2, 2)
    dl = code_from_generator(code.full_rank_checks())  # the dual code
    b1 = -(-2 * code.n // (2 + 2))  # number of independent local checks
    seq = msw_sequence(code.n, b1, 2)
    for i in range(1, b1 + 1):
        assert support_weight(dl, i) == seq.e[i - 1], f"term {i}"
    report(8, "Turan-code dual support weights equal the recursive "
              f"sequence {list(seq.e)}", t0, limit=300)


def test_criterion_09_bound_dominance():
    t0 = time.monotonic()
    for r in range(3, 21):
        v = avail_rate_bounds(r, 4)
        if r == 3:
            # at t = r+1 the transpose bound reduces identically to the
            # product-form bound (the leading term 1 - t/(r+1) vanishes and
            # the two products coincide), so equality is exact here
            assert v["transpose"] == v["tamo_barg"]
        else:
            assert v["transpose"] < v["tamo_barg"], f"r={r}"
    for r in range(3, 11):
        n = math.comb(r + 3, 3)
        k = n * r // (r + 3)
        v = avail_dmin_bounds(n, k, r, 3)
        others = [v["wang"], v["tamo_barg"], v["kruglik_frolov"]]
        assert v["msw_new"] is not None
        assert all(v["msw_new"] <= o for o in others), f"r={r}"
    k = 20
    for r in range(2, 21):
        if not (r <= k <= r ** 1.8 - 1):
            continue
        val = seq_blocklength_bounds(k, r, 3).value
        assert val["new"] >= val["prior"], f"r={r}"
    report(9, "dominance sweeps: transpose rate bound, support-weight "
              "distance bound, three-erasure length bound", t0)


def test_criterion_10_msr_arithmetic():
    t0 = time.monotonic()
    rng = random.Random(10)
    checked = 0
    while checked < 50:
        n = rng.randrange(6, 40)
        k = rng.randrange(2, n - 1)
        d = n - 1
        r = n - k
        w = rng.randrange(1, n + 1)
        # independent re-evaluation straight from the formula table
        expect = {
            "msr_d_n1": min(r ** math.ceil((n - 1) / r), r ** (k - 1)),
            "msr_const_repair": min(r ** math.ceil(n / r), r ** (k - 1)),
            "mds_w_d_n1": (min(r ** math.ceil(w / r), r ** (k - 1))
                           if w > k - 1 else r ** math.ceil(w / r)),
        }
        for mode, want in expect.items():
            got = msr_subpkt_bounds(n, k, d, w, mode)
            assert got == want, (mode, n, k, w)
        d2 = rng.randrange(k, n)
        s = d2 - k + 1
        assert msr_subpkt_bounds(n, k, d2, w, "mds_w_any_d") == \
            (min(s ** math.ceil(w / s), s ** (k - 1))
             if w > k - 1 else s ** math.ceil(w / s))
        assert msr_subpkt_bounds(n, k, d2, None, "msr_any_d") == \
            min(s ** math.ceil((n - 1) / s), s ** (k - 1))
        checked += 1
    # cut-set bound at the minimum-storage point returns B = k * alpha
    done = 0
    while done < 20:
        n = rng.randrange(5, 30)
        k = rng.randrange(1, n - 1)
        d = rng.randrange(k, n)
        beta = rng.randrange(1, 5)
        alpha = (d - k + 1) * beta
        B = cutset_bound(RgParams(n=n, k=k, d=d, alpha=alpha, beta=beta))
        assert B == k * alpha, (n, k, d, beta)
        done += 1
    report(10, "sub-packetization formulas on a 50-point sweep and "
               "cut-set bound at the minimum-storage point (20 points)", t0)


def test_criterion_11_property_suites():
    t0 = time.monotonic()
    # field axioms: 1e4 randomized triples per field, zero failures
    rng = random.Random(2026)
    for gf in (field_make(2), field_make(2, 4), field_make(3, 2),
               field_make(13)):
        for _ in range(10_000):
            a, b, c = (rng.randrange(gf.q) for _ in range(3))
            assert gf.add(gf.add(a, b), c) == gf.add(a, gf.add(b, c))
            assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
            assert gf.mul(a, gf.add(b, c)) == \
                gf.add(gf.mul(a, b), gf.mul(a, c))
            assert gf.add(a, b) == gf.add(b, a)
            assert gf.mul(a, b) == gf.mul(b, a)
            if a:
                assert gf.mul(a, gf.inv(a)) == 1

    # verifier/oracle agreement on every fixture with n <= 12
    from itertools import permutations
    fixtures = [(t2_turan_code(2, 1), 2, 2), (t3_catalog("ex1"), 3, 3),
                (steiner_sa_code(3), 2, 3)]
    for code, r, t in fixtures:
        assert code.n <= 12
        supports = low_weight_dual_supports(code, r + 1)
        peeler = _Peeler(code.n, supports)

        def by_orders(pattern):
            def ok(order):
                remaining = set(order)
                for idx in order:
                    if not any(s & remaining == {idx} for s in supports):
                        return False
                    remaining.discard(idx)
                return True
            return any(ok(o) for o in permutations(pattern))

        for size in range(1, t + 1):
            for pattern in combinations(range(code.n), size):
                assert peeler.recovers(pattern) == by_orders(pattern)

    # mutation guard: every corrupted fixture is caught or re-proved genuine
    base = mr_r12(3, 2)
    st = base.provenance["local_structure"]
    m = len(st.groups)
    target_d = lr_singleton_bound(base.n, base.k, 2)
    H0 = [list(r) for r in base.H.data]
    for i in range(len(H0)):
        for j in range(len(H0[0])):
            rows = [row[:] for row in H0]
            rows[i][j] = 0 if rows[i][j] else 1
            mut = LinearCode(Mat(base.gf, rows), provenance=base.provenance)
            caught = (mut.k != base.k
                      or not mr_shape_check(mut).verdict
                      or not pmds_check(mut, st, 1, 2).verdict
                      or min_distance(mut) != target_d)
            if not caught:
                # survivors must sit in the global rows' data block, where a
                # changed entry can legitimately give another MR code; the
                # pmds + distance checks above already re-proved it in full
                assert i >= m and j >= m, (i, j)
    report(11, "field axioms (4 x 1e4 triples), peeling/ordering oracle "
               "agreement, mutation guard", t0)
