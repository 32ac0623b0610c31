import math
import random
from itertools import combinations, product

import pytest

from lrckit import matrix, verify
from lrckit.bounds import lr_singleton_bound
from lrckit.code import BudgetExceeded, LinearCode, is_mds, min_distance, \
    puncture
from lrckit.field import FieldError, field_make
from lrckit.matrix import Mat, mat_rank
from lrckit.mr_codes import (LocalStructure, coordinate_groups, mr_r12,
                             mr_r2_coset_search, mr_rdelta2, pmr_general_a1,
                             pmr_parity_split)
from lrckit.verify import mr_shape_check, pmds_check, pmr_check


def test_local_structure_invariants():
    with pytest.raises(ValueError):
        LocalStructure(((0, 1), (1, 2)))  # overlap
    s = LocalStructure(((0, 1, 2), (3, 4, 5)))
    assert s.admissible_pattern() == (0, 3)
    assert s.covers(6)


def test_coordinate_groups():
    assert coordinate_groups([2, 3, 1]) == ((0, 1), (2, 3, 4), (5,))
    assert coordinate_groups([3] * 2) == ((0, 1, 2), (3, 4, 5))
    assert coordinate_groups([]) == ()
    st = mr_rdelta2(3, 2, 2, 4).provenance["local_structure"]
    assert st.groups == coordinate_groups([4] * 3)


def test_pmr_parity_split_distance():
    c = pmr_parity_split(3, 4, 3, field_make(13))
    assert (c.n, c.k) == (15, 9)
    assert min_distance(c) == 5  # delta + 2
    assert pmr_check(c).verdict
    c = pmr_parity_split(2, 3, 2, field_make(7))
    assert (c.n, c.k) == (8, 4)
    assert min_distance(c) == 4
    from fractions import Fraction
    assert c.rate() == Fraction(1, 2)  # 1 - (delta + m)/(m(r+1))
    assert pmr_check(c).verdict


def test_pmr_parity_split_guards():
    with pytest.raises(ValueError):
        pmr_parity_split(3, 4, 4, field_make(13))  # delta > r-1
    with pytest.raises(FieldError):
        pmr_parity_split(3, 4, 3, field_make(11))  # q < mr + 1


def test_one_field_too_small_class():
    import lrckit
    from lrckit import lr_codes, mr_codes
    assert lr_codes.FieldError is mr_codes.FieldError is lrckit.FieldError
    with pytest.raises(lrckit.FieldError):
        pmr_parity_split(3, 4, 3, field_make(11))


def test_pmr_parity_split_delta_zero():
    c = pmr_parity_split(2, 3, 0, field_make(7))
    assert min_distance(c) == 2
    assert pmr_check(c).verdict  # punctured code is the full space


def test_mr_r12_exhaustive():
    c = mr_r12(3, 2)
    st = c.provenance["local_structure"]
    assert (c.n, c.k) == (9, 4)
    assert c.provenance["q"] == 16 <= 2 * c.n
    assert pmds_check(c, st, 1, 2).verdict
    assert mr_shape_check(c).verdict
    assert min_distance(c) == lr_singleton_bound(c.n, c.k, 2)


def test_mr_r12_r3():
    c = mr_r12(2, 3)
    st = c.provenance["local_structure"]
    assert (c.n, c.k) == (8, 4)
    assert pmds_check(c, st, 1, 2).verdict
    # distinct evaluation points by the coset argument
    thetas = c.H.data[-1][2:]
    assert len(set(thetas)) == len(thetas)


def test_mr_rdelta2_exhaustive():
    c = mr_rdelta2(2, 2, 2, 4)
    st = c.provenance["local_structure"]
    assert (c.n, c.k) == (8, 2)
    assert c.provenance["q"] == 9
    assert pmds_check(c, st, 2, 2).verdict
    c = mr_rdelta2(3, 2, 1, 4)
    assert (c.n, c.k) == (9, 4)
    assert c.provenance["q"] == 13
    assert pmds_check(c, c.provenance["local_structure"], 1, 2).verdict


def test_mr_rdelta2_row_groups_are_mds():
    c = mr_rdelta2(2, 2, 2, 4)
    st = c.provenance["local_structure"]
    for grp in st.groups:
        local = puncture(c, [j for j in range(c.n) if j not in set(grp)])
        assert local.k == 2  # [r+delta, r] on the group
        assert is_mds(local)


def test_mr_rdelta2_field_guards():
    with pytest.raises(ValueError):
        mr_rdelta2(2, 2, 2, 3)  # psi < r + delta


def test_pmr_general_a1_instance():
    code, report = pmr_general_a1(3, 3, 5, 16, seed=0)
    assert (code.n, code.k) == (12, 4)
    assert code.gf.q == 16 ** 3
    assert report.verdict
    assert report.detail["d_min"] == 8  # delta + 2 + 1


def test_pmr_general_a1_seed_variation():
    # several draws of the root-of-unity choices, all decided by the checker
    for seed in (1, 2):
        code, report = pmr_general_a1(3, 3, 5, 16, seed=seed)
        assert report.verdict in (True, False)
        assert report.detail["d_min"] <= 8


def test_pmr_general_a1_guards():
    with pytest.raises(ValueError):
        pmr_general_a1(3, 3, 2, 16)  # delta below the a = 1 window


def test_mr_coset_search_small():
    c = mr_r2_coset_search(6, 1, field_make(13))
    st = c.provenance["local_structure"]
    assert (c.n, c.k) == (6, 3)
    assert pmds_check(c, st, 1, c.provenance["s"]).verdict
    # every one-per-group puncturing leaves an MDS code
    for pattern in ((0, 3), (1, 4), (2, 5)):
        assert is_mds(puncture(c, list(pattern)))


def test_mr_coset_search_larger():
    c = mr_r2_coset_search(9, 2, field_make(31))
    assert (c.n, c.k) == (9, 5)
    assert pmds_check(c, c.provenance["local_structure"], 1,
                      c.provenance["s"]).verdict


def test_mr_coset_search_guards():
    with pytest.raises(ValueError):
        mr_r2_coset_search(8, 1, field_make(13))   # 3 does not divide N
    with pytest.raises(FieldError):
        mr_r2_coset_search(6, 1, field_make(11))   # 3 does not divide q-1
    with pytest.raises(ValueError):
        mr_r2_coset_search(6, 2, field_make(13))   # rate cap 2D/N < 2/3


def test_mutation_guard():
    """Corrupting any entry of the canonical-form structure (local rows,
    identity block, zero block) must trip a verdict; entries in the global
    rows' data part may yield a different but still genuinely maximal
    recoverable code, which is re-verified exhaustively instead."""
    base = mr_r12(3, 2)
    st = base.provenance["local_structure"]
    m = len(st.groups)
    H0 = [list(r) for r in base.H.data]
    gf = base.gf
    target_d = lr_singleton_bound(base.n, base.k, 2)
    structural_escapes = []
    genuine = 0
    for i in range(len(H0)):
        for j in range(len(H0[0])):
            rows = [row[:] for row in H0]
            rows[i][j] = 0 if rows[i][j] else 1
            mut = LinearCode(Mat(gf, rows), provenance=base.provenance)
            caught = (mut.k != base.k
                      or not mr_shape_check(mut).verdict
                      or not pmds_check(mut, st, 1, 2).verdict
                      or min_distance(mut) != target_d)
            in_global_data = i >= m and j >= m
            if not caught:
                if not in_global_data:
                    structural_escapes.append((i, j))
                else:
                    genuine += 1  # passed the full exhaustive MR re-check
    assert structural_escapes == []
    assert genuine < len(H0) * len(H0[0]) // 2


def test_zeroing_a_global_row_fails_with_witness():
    base = mr_r12(3, 2)
    st = base.provenance["local_structure"]
    rows = [list(r) for r in base.H.data]
    rows[-1] = [0] * base.n
    mut = LinearCode(Mat(base.gf, rows))
    rep = pmds_check(mut, st, 1, 2)
    assert not rep.verdict
    assert rep.witness is not None


def _pmds_flat(code, structure, delta, s_extra):
    """Every exhaustive pmds pattern in turn, each ranked on its own:
    (patterns checked, sorted first dependent pattern or None)."""
    H = code.full_rank_checks()
    checked = 0
    for picks in product(*(combinations(g, delta)
                           for g in structure.groups)):
        base = [i for pick in picks for i in pick]
        others = [i for i in range(code.n) if i not in base]
        for extra in combinations(others, s_extra):
            checked += 1
            pattern = base + list(extra)
            if mat_rank(H.select_columns(pattern)) < len(pattern):
                return checked, sorted(pattern)
    return checked, None


# (code, duplicated column -> copy, s_extra, pinned checked, pinned witness)
DUPLICATED_COLUMN_CASES = [
    (lambda: mr_r12(4, 3), (6, 15), 0, 196, [1, 2, 6, 15]),
    (lambda: mr_r12(4, 3), (6, 15), 1, 40, [0, 1, 2, 6, 15]),
    (lambda: mr_r12(4, 3), (5, 9), 1, 579, [0, 2, 3, 5, 9]),
    (lambda: mr_r12(4, 3), (13, 14), 2, 64, [0, 1, 2, 3, 13, 14]),
    (lambda: mr_rdelta2(3, 2, 2, 4), (3, 9), 0, 73, [0, 3, 4, 5, 8, 9]),
    (lambda: mr_rdelta2(3, 2, 2, 4), (0, 11), 1, 6,
     [0, 1, 4, 5, 8, 9, 11]),
]


# sampled runs at delta = 1, s_extra = 2, 5000 samples, whose draws take
# the standard library's rejection branch (a population past 21): the
# 23-coordinate groups of mr_r12(2, 22), and the 24 coordinates left for the
# extras of mr_r12(8, 3).  (code, duplicated column -> copy, seed, pinned
# checked, pinned witness)
SAMPLED_DUPLICATED_COLUMN_CASES = [
    (lambda: mr_r12(2, 22), (5, 40), 3, 39, [0, 10, 22, 40]),
    (lambda: mr_r12(2, 22), (5, 40), 4, 192, [7, 12, 15, 40]),
    (lambda: mr_r12(8, 3), (1, 29), 3, 15,
     [0, 11, 15, 16, 17, 21, 23, 27, 28, 29]),
    (lambda: mr_r12(8, 3), (1, 29), 4, 8,
     [3, 4, 5, 9, 11, 14, 15, 23, 27, 29]),
]


def _duplicated(make, dup):
    """The code `make()` with column dup[1] made a copy of column dup[0],
    and the structure it declares."""
    base = make()
    rows = [list(r) for r in base.H.data]
    for row in rows:
        row[dup[1]] = row[dup[0]]
    return LinearCode(Mat(base.gf, rows)), \
        base.provenance["local_structure"]


@pytest.mark.parametrize("make, dup, s_extra, checked, witness",
                         DUPLICATED_COLUMN_CASES)
def test_pmds_walk_matches_flat_loop_on_duplicated_column(
        make, dup, s_extra, checked, witness):
    mut, st = _duplicated(make, dup)
    rep = pmds_check(mut, st, st.delta, s_extra)
    assert rep.mode == "exhaustive" and not rep.verdict
    assert (rep.budgets["checked"], rep.witness) == (checked, witness)
    assert _pmds_flat(mut, st, st.delta, s_extra) == (checked, witness)


@pytest.mark.parametrize("make, dup, seed, checked, witness",
                         SAMPLED_DUPLICATED_COLUMN_CASES)
def test_pmds_sampled_rejection_draws_replay_pinned(make, dup, seed, checked,
                                                    witness):
    mut, st = _duplicated(make, dup)
    rep = pmds_check(mut, st, 1, 2, mode="sampled", samples=5000, seed=seed)
    assert rep.mode == "sampled" and not rep.verdict
    assert (rep.budgets["checked"], rep.witness) == (checked, witness)


def test_pmds_walk_counts_every_pattern_on_a_pass():
    c = mr_rdelta2(3, 2, 2, 4)
    st = c.provenance["local_structure"]
    for s_extra in (0, 1, 2):
        rep = pmds_check(c, st, 2, s_extra)
        assert rep.verdict
        assert rep.budgets["checked"] == rep.budgets["patterns"] \
            == _pmds_flat(c, st, 2, s_extra)[0]


def test_pmds_sampled_mode_records_seed():
    c = mr_r12(3, 2)
    st = c.provenance["local_structure"]
    rep = pmds_check(c, st, 1, 2, mode="sampled", samples=300, seed=11)
    assert rep.verdict and rep.mode == "sampled"
    assert rep.budgets["seed"] == 11 and rep.budgets["samples"] == 300


def _pmds_both_ways(monkeypatch, code, st, delta, s_extra, **kw):
    """The pmds report as a dict, with the local reduction and without it
    (every group taken as not locally MDS, so every pattern is ranked in
    full)."""
    on = pmds_check(code, st, delta, s_extra, **kw).as_dict()
    with monkeypatch.context() as m:
        m.setattr(verify, "_locally_mds", lambda *args: False)
        off = pmds_check(code, st, delta, s_extra, **kw).as_dict()
    return on, off


# MR and PMR codes at small m, over GF(2^m), GF(p), GF(p^2) and GF(p^3)
REDUCTION_CODES = {
    "mr-r12 3 2, GF(16)": lambda: mr_r12(3, 2),
    "mr-r12 2 3, GF(64)": lambda: mr_r12(2, 3),
    "mr-rd2 2 2 2 4, GF(9)": lambda: mr_rdelta2(2, 2, 2, 4),
    "mr-rd2 3 2 2 4, GF(13)": lambda: mr_rdelta2(3, 2, 2, 4),
    "mr-rd2 3 2 1 3, GF(13)": lambda: mr_rdelta2(3, 2, 1, 3),
    "mr-coset 9 2, GF(13)": lambda: mr_r2_coset_search(9, 2, field_make(13)),
    "pmr-split 3 3 2, GF(16)": lambda: pmr_parity_split(3, 3, 2,
                                                        field_make(2, 4)),
    "pmr-a1 3 3 5 13, GF(13^3)": lambda: pmr_general_a1(3, 3, 5, 13)[0],
}


def test_pmds_reduction_matches_the_full_replay(monkeypatch):
    """Whole reports, exhaustive and sampled, with the local reduction and
    without it: on each code of REDUCTION_CODES, and on 30 seeded one-entry
    mutations of its H, each at an s_extra from 0 to the most the code's
    redundancy allows.  Each code passes by the reduction, and the corpus
    takes every path: groups not locally MDS (the full replay), a dependent
    reduced pattern (the full walk for the witness), and a reduced PASS."""
    paths = set()
    for name, make in REDUCTION_CODES.items():
        base = make()
        st = base.provenance["local_structure"]
        groups = [list(g) for g in st.groups]
        assert verify._locally_mds(base, groups, st.delta), name
        rng = random.Random(base.n * base.gf.q)
        H0 = [list(r) for r in base.H.data]
        codes = [base]
        for _ in range(30):
            rows = [r[:] for r in H0]
            rows[rng.randrange(len(rows))][rng.randrange(base.n)] = \
                rng.randrange(base.gf.q)
            codes.append(LinearCode(Mat(base.gf, rows)))
        for i, code in enumerate(codes):
            s_extra = rng.randint(0, base.n - base.k - st.delta * len(groups))
            for kw in ({"mode": "exhaustive"},
                       {"mode": "sampled", "samples": 100, "seed": i}):
                on, off = _pmds_both_ways(monkeypatch, code, st, st.delta,
                                          s_extra, **kw)
                assert on == off, (name, i, s_extra, kw)
            paths.add((verify._locally_mds(code, groups, st.delta),
                       on["verdict"]))
            assert i or on["verdict"], name
    assert paths >= {(False, False), (True, False), (True, True)}, paths


def test_pmds_fallback_when_a_group_is_not_locally_mds(monkeypatch):
    """Column 1 duplicated onto column 0, inside group 0 of a delta = 2
    code: the 2-subset {0, 1} is dependent in the group's local dual, so
    the reduction is off and the full walk decides, as the flat loop does."""
    base = mr_rdelta2(3, 2, 2, 4)
    mut, st = _duplicated(lambda: base, (1, 0))
    assert not verify._locally_mds(mut, [list(g) for g in st.groups], 2)
    assert verify._locally_mds(base, [list(g) for g in st.groups], 2)
    for s_extra in (0, 1, 2):
        rep = pmds_check(mut, st, 2, s_extra)
        assert rep.mode == "exhaustive" and not rep.verdict
        assert (rep.budgets["checked"], rep.witness) \
            == _pmds_flat(mut, st, 2, s_extra)
        on, off = _pmds_both_ways(monkeypatch, mut, st, 2, s_extra,
                                  mode="sampled", samples=100)
        assert on == off and not on["verdict"]


def test_pmds_sampled_ranks_each_reduced_set_once(monkeypatch):
    """The benchmark's sampled shape: mr-rd2 (5, 2, 2, 4), delta 2, s 2,
    5000 samples of 12 columns each.  The full replay inserts all 60 000
    columns; with the reduction the 5000 patterns fall into at most 165
    reduced sets of at most 6 columns, each ranked once.  The reports are
    the same."""
    code = mr_rdelta2(5, 2, 2, 4)
    inserts = []
    insert_column = matrix.Echelon.insert_column

    def counted(self, M, j):
        inserts.append(j)
        return insert_column(self, M, j)

    monkeypatch.setattr(matrix.Echelon, "insert_column", counted)
    counts, reports = [], []
    for reduction in (True, False):
        inserts.clear()
        with monkeypatch.context() as m:
            if not reduction:
                m.setattr(verify, "_locally_mds", lambda *args: False)
            rep = pmds_check(code, None, 2, 2, mode="sampled", samples=5000,
                             seed=3)
        assert rep.verdict and rep.budgets["checked"] == 5000
        counts.append(len(inserts))
        reports.append(rep.as_dict())
    assert reports[0] == reports[1]
    assert counts[1] == 5000 * 12
    # the reduced sets, then each group's local dual: its 2-subsets of 4
    # columns take 3 + 6 inserts
    assert counts[0] <= 165 * 6 + 5 * 9


def test_pmds_exact_past_the_pattern_budget():
    """mr-r12 (8, 3) at s = 2 has 18 087 936 patterns, past the budget, but
    1040 reduced ones: `auto` and `exhaustive` both pass exactly, and
    count every pattern.  Where the reduction cannot decide, `exhaustive`
    raises BudgetExceeded and `auto` samples: groups not locally MDS, or a
    dependent reduced pattern."""
    code = mr_r12(8, 3)
    st = code.provenance["local_structure"]
    assert verify._reduced_patterns([4] * 8, 1, 2) == 1040
    for mode in ("auto", "exhaustive"):
        rep = pmds_check(code, None, 1, 2, mode=mode)
        assert (rep.verdict, rep.mode) == (True, "exhaustive")
        assert rep.budgets["checked"] == rep.budgets["patterns"] \
            == 18087936 > verify.PMDS_EXHAUSTIVE_BUDGET
    rows = [list(r) for r in code.H.data]
    zeroed = [r[:] for r in rows]
    zeroed[-1] = [0] * code.n  # a global row: the groups stay locally MDS
    unmixed = [r[:] for r in rows]
    unmixed[0][8] = 0  # group 0's local row no longer covers coordinate 8
    groups = [list(g) for g in st.groups]
    for H, local in ((zeroed, True), (unmixed, False)):
        mut = LinearCode(Mat(code.gf, H))
        assert verify._locally_mds(mut, groups, 1) is local
        with pytest.raises(BudgetExceeded):
            pmds_check(mut, st, 1, 2, mode="exhaustive")
        rep = pmds_check(mut, st, 1, 2, samples=50)
        assert rep.mode == "sampled" and not rep.verdict


def test_spreads_and_reduced_counts_agree():
    """`_reduced_patterns` counts the column sets of the spreads that
    `_spreads` yields, each spread once and within the rooms; groups with
    no room take no step."""
    for sizes, delta, s in (([4, 4, 4], 1, 2), ([3, 5, 2, 4], 2, 3),
                            ([2, 2], 2, 1), ([6], 1, 4), ([3, 3], 1, 0),
                            ([2, 5, 2, 3, 2, 4], 2, 4), ([1] * 200, 1, 1)):
        rooms = [size - delta for size in sizes]
        spreads = list(verify._spreads(rooms, s))
        assert len(set(map(tuple, spreads))) == len(spreads)
        assert all(sum(e for _, e in sp) == s for sp in spreads)
        assert all(1 <= e <= rooms[i] for sp in spreads for i, e in sp)
        assert verify._reduced_patterns(sizes, delta, s) == sum(
            math.prod(math.comb(sizes[i], delta + e) for i, e in sp)
            for sp in spreads)


def test_mr_coset_search_degenerate_repetition():
    c = mr_r2_coset_search(6, 0, field_make(13))
    assert (c.n, c.k) == (6, 1)
    assert pmds_check(c, c.provenance["local_structure"], 1,
                      c.provenance["s"]).verdict


def test_tamo_barg_is_not_pmr_in_general():
    # locality-optimal distance does not imply the punctured-MDS property
    from lrckit.lr_codes import tamo_barg_code
    tb = tamo_barg_code(8, 4, 3, field_make(3, 2))
    st = LocalStructure(tuple(tuple(g) for g in tb.provenance["groups"]))
    rep = pmr_check(tb, st)
    assert not rep.verdict
    assert rep.witness["punctured_mds"] is False
    assert rep.witness["d_min"] == rep.witness["target"]  # distance is fine


def test_param_shapes():
    from lrckit.mr_codes import MrParams, PmrParams
    p = MrParams(r=2, delta=1, s=2, m=3)
    assert (p.n, p.k) == (9, 4)
    q = PmrParams(m=3, r=3, Delta=5)
    assert (q.n, q.k0, q.k) == (12, 9, 4)
    with pytest.raises(ValueError):
        MrParams(r=1, delta=1, s=2, m=1)  # k would be negative


@pytest.mark.parametrize("make", [
    lambda: mr_r12(3, 2),
    lambda: mr_rdelta2(2, 2, 2, 4),
    lambda: mr_r2_coset_search(6, 1, field_make(13)),
], ids=["r12", "rdelta2", "coset"])
def test_mr_definition_oracle_every_pattern(make):
    """Definition-level cross-check: an erasure pattern of size <= n-k is
    correctable exactly when no union of local groups is overloaded, i.e.
    sum_i max(|E n g_i| - delta, 0) <= s."""
    from itertools import combinations
    from lrckit.matrix import mat_rank
    code = make()
    st = code.provenance["local_structure"]
    s = (code.n - code.k) - st.delta * len(st.groups)
    H = code.full_rank_checks()
    groups = [set(g) for g in st.groups]
    for w in range(1, code.n - code.k + 1):
        for pattern in combinations(range(code.n), w):
            es = set(pattern)
            overload = sum(max(len(es & g) - st.delta, 0) for g in groups)
            correctable = mat_rank(H.select_columns(pattern)) == w
            assert correctable == (overload <= s), pattern
