import math
from fractions import Fraction

import pytest

from lrckit import seq_codes
from lrckit.bounds import moore_bound, seq_blocklength_bounds, seq_rate_bound
from lrckit.code import NotInCatalog, min_distance
from lrckit.matrix import mat_rank
from lrckit.seq_codes import (moore_code, seq_general_code,
                              t2_dim_optimal_code, t2_near_regular_code,
                              t2_turan_code, t3_catalog)
from lrckit.verify import seq_recovery_check, staircase_check


def test_t2_near_regular_parameters():
    c = t2_near_regular_code(12, 4)
    assert (c.n, c.k) == (18, 12)
    assert c.rate() == seq_rate_bound(4, 2)
    c = t2_near_regular_code(3, 2)
    assert (c.n, c.k) == (6, 3)
    c = t2_near_regular_code(7, 2)  # near-regular with a short node
    assert c.n == 7 + math.ceil(14 / 2)


def test_t2_block_length_optimal():
    for (k, r) in ((12, 4), (7, 2), (10, 3), (9, 2)):
        c = t2_near_regular_code(k, r)
        assert c.n == seq_blocklength_bounds(k, r, 2).value


def test_t2_recovery_exhaustive():
    for c in (t2_near_regular_code(6, 2), t2_turan_code(2, 2),
              t2_turan_code(2, 1), t2_near_regular_code(12, 4)):
        rep = seq_recovery_check(c, c.params.r, 2)
        assert rep.verdict and rep.mode == "exhaustive"


def test_t2_turan_parameters():
    c = t2_turan_code(2, 2)
    assert (c.n, c.k) == (8, 4)
    c = t2_turan_code(2, 1)
    assert (c.n, c.k) == (6, 3)
    c = t2_turan_code(6, 3)
    assert (c.n, c.k) == ((6 + 3) * 8 // 2, 6 * 9 // 2)


def test_t2_dim_optimal():
    c = t2_dim_optimal_code(5, 4)
    assert (c.n, c.k) == (15, 10)
    # all columns distinct -> distance >= 3 -> two-erasure recovery
    cols = set(zip(*c.H.data))
    assert len(cols) == c.n
    assert min_distance(c) >= 3
    assert seq_recovery_check(c, 4, 2).verdict
    # appending one orbit of heavier columns: r = C(4,1) + 3 = 7, m = 5
    c = t2_dim_optimal_code(5, 7)
    assert c.provenance["J"] == 3
    assert c.k == 10 + 5 * 3 // 3
    assert all(sum(row) == 8 for row in c.H.data)
    with pytest.raises(NotInCatalog):
        t2_dim_optimal_code(6, 5)  # gcd(L+1, m) = 2


def test_t3_catalog_codes():
    c1 = t3_catalog("ex1")
    assert (c1.n, c1.k) == (10, 5)
    assert mat_rank(c1.H) == 5
    assert seq_recovery_check(c1, 3, 3).verdict
    c2 = t3_catalog("ex2")
    assert (c2.n, c2.k) == (14, 8)
    assert mat_rank(c2.H) == 6
    assert seq_recovery_check(c2, 4, 3).verdict


def test_t3_catalog_meets_new_blocklength_bound():
    assert t3_catalog("ex1").n == 5 + seq_blocklength_bounds(5, 3, 3) \
        .value["new"] - 5
    assert t3_catalog("ex2").n == seq_blocklength_bounds(8, 4, 3) \
        .value["new"]


def test_moore_codes():
    c = moore_code(2, 4)
    assert (c.n, c.k) == (15, 6)
    assert c.rate() == Fraction(2, 5) == seq_rate_bound(2, 4)
    c = moore_code(2, 5)
    assert (c.n, c.k) == (21, 8)
    assert c.rate() == Fraction(8, 21) == seq_rate_bound(2, 5)
    c = moore_code(6, 4)
    assert (c.n, c.k) == (175, 126)
    c = moore_code(1, 5)  # cycle: repetition code
    assert (c.n, c.k) == (6, 1)
    with pytest.raises(NotInCatalog):
        moore_code(3, 4)


def test_moore_rate_equality_across_catalog():
    for (r, t) in ((2, 2), (3, 2), (2, 3), (4, 3), (2, 4), (6, 4), (2, 5),
                   (3, 5), (2, 7), (2, 11), (1, 4), (1, 7)):
        c = moore_code(r, t)
        assert c.rate() == seq_rate_bound(r, t)
        assert c.n == moore_bound(r, t) * (r + 1) // 2


def test_seq_general_t2_t3():
    c = seq_general_code(3, 2)
    assert (c.n, c.k) == (10, 6)
    assert c.rate() == Fraction(3, 5)
    c = seq_general_code(4, 3)
    assert c.rate() == Fraction(16, 25)
    assert seq_recovery_check(c, 4, 3).verdict


def test_seq_general_unsupported():
    with pytest.raises(NotInCatalog):
        seq_general_code(3, 4)
    with pytest.raises(NotInCatalog):
        seq_general_code(2, 5)  # needs r >= 3


def test_seq_general_t5():
    c = seq_general_code(3, 5)
    assert c.n == 1352
    assert c.n - c.k == 650
    assert c.rate() == Fraction(27, 52) == seq_rate_bound(3, 5)
    assert c.provenance["girth"] >= 6
    # block length divisibility at rate equality (t odd)
    s = 2
    den = 3 ** (s + 1) + 2 * sum(3 ** i for i in range(1, s + 1)) + 1
    assert c.n % den == 0


def test_seq_general_t5_exact_pass_agrees_with_certificate():
    """C(1352, <= 5) patterns are far past the budget; the stopping-set
    search still decides, and it agrees with the girth certificate."""
    c = seq_general_code(3, 5)
    rep = seq_recovery_check(c, 3, 5, mode="exhaustive")
    assert rep.verdict and rep.mode == "exhaustive"
    assert rep.budgets["nodes"] <= rep.budgets["budget"]
    assert seq_recovery_check(c, 3, 5, mode="certificate").verdict


def test_seq_general_t6():
    c = seq_general_code(3, 6)
    assert c.rate() == seq_rate_bound(3, 6)
    assert c.provenance["girth"] >= 7
    # 2n is a multiple of the rate denominator (t even)
    s = 2
    den = 3 ** (s + 1) + 2 * sum(3 ** i for i in range(s + 1))
    assert (2 * c.n) % den == 0
    rep = seq_recovery_check(c, 3, 6, mode="sampled", samples=2000, seed=7)
    assert rep.verdict


def test_seq_general_staircase_shape():
    c = seq_general_code(3, 5)
    rep = staircase_check(c.H, 3, 5)
    assert rep.verdict
    profile = rep.detail["profile"]
    # first block, one column per apex edge: (r+1) * aux size
    assert profile["a"][0] == 4 * c.provenance["aux_nodes"]


def test_seq_general_random_aux():
    c = seq_general_code(3, 5, aux="random", seed=3)
    assert c.rate() == seq_rate_bound(3, 5)
    assert c.provenance["girth"] >= 6
    assert c.provenance["aux_algorithm"] == "peg"
    assert "aux_algorithm" not in seq_general_code(3, 5).provenance
    rep = seq_recovery_check(c, 3, 5, mode="sampled", samples=2000, seed=1)
    assert rep.verdict


def test_seq_general_catalog_miss_records_peg(monkeypatch):
    # a degree and girth that no catalogued geometry serves (each real one
    # takes minutes): the catalog build grows its auxiliary graph, and says
    # so
    real = seq_codes.bipartite_regular_girth
    monkeypatch.setattr(seq_codes, "bipartite_regular_girth",
                        lambda *args, **kw: real(*args,
                                                 **dict(kw, catalog=False)))
    c = seq_general_code(3, 5)
    assert c.provenance["aux"] == "catalog"
    assert c.provenance["aux_algorithm"] == "peg"
    # the graph grows from the seed that the provenance records
    c7 = seq_general_code(3, 5, seed=7)
    assert c7.provenance["seed"] == 7
    assert c7.H == seq_general_code(3, 5, aux="random", seed=7).H != c.H


def test_moore_code_large_uses_certificate_and_sampling():
    c = moore_code(6, 4)  # exhaustive would be ~3.8e7 patterns
    rep = seq_recovery_check(c, 6, 4, mode="auto")
    assert rep.verdict and rep.mode == "certificate"
    rep = seq_recovery_check(c, 6, 4, mode="sampled", samples=5000, seed=2)
    assert rep.verdict


def test_seq_general_r4_t5():
    c = seq_general_code(4, 5)
    assert c.rate() == seq_rate_bound(4, 5)
    assert c.provenance["girth"] >= 6
    rep = staircase_check(c.H, 4, 5)
    assert rep.verdict
    assert rep.detail["profile"]["a"][0] == 5 * c.provenance["aux_nodes"]
