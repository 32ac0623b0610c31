from fractions import Fraction

import pytest

from lrckit.bounds import lr_singleton_bound, sa_blocklength_bound
from lrckit.code import BudgetExceeded, is_mds, min_distance
from lrckit.field import FieldError, field_make
from lrckit.lr_codes import (locality_witnesses, pg_plane_sa_code,
                             product_avail_code, pyramid_code,
                             steiner_sa_code, tamo_barg_code,
                             wang_avail_code)
from lrckit.matrix import mat_rank
from lrckit.verify import availability_check, sa_check, seq_recovery_check


# -- pyramid --

def test_pyramid_meets_distance_bound():
    gf8 = field_make(2, 3)
    c = pyramid_code(7, 4, 2, gf8)
    assert (c.n, c.k) == (7, 4)
    assert min_distance(c) == lr_singleton_bound(7, 4, 2) == 3
    # r = k degenerates to a plain MDS code
    c = pyramid_code(7, 4, 4, gf8)
    assert is_mds(c) and min_distance(c) == 4


def test_pyramid_split_group_locality():
    gf = field_make(11)
    c = pyramid_code(10, 6, 2, gf)
    assert min_distance(c) == lr_singleton_bound(10, 6, 2)
    for w in locality_witnesses(c, c.provenance["groups"]):
        weight = sum(1 for x in w if x)
        assert 2 <= weight <= 3


def test_pyramid_uneven_groups():
    gf = field_make(11)
    c = pyramid_code(9, 5, 2, gf)  # k = 5 split as 2+2+1 message rows
    assert min_distance(c) == lr_singleton_bound(9, 5, 2)
    sizes = [len(g) for g in c.provenance["groups"]]
    assert sizes == [3, 3, 2]  # each group: its symbols plus a local parity


def test_pyramid_field_too_small():
    with pytest.raises(FieldError):
        pyramid_code(12, 8, 2, field_make(5))


# -- Tamo-Barg --

def test_tamo_barg_distance():
    c = tamo_barg_code(8, 4, 3, field_make(3, 2))
    assert min_distance(c) == lr_singleton_bound(8, 4, 3) == 4
    c = tamo_barg_code(12, 6, 3, field_make(13))
    assert min_distance(c) == lr_singleton_bound(12, 6, 3) == 6


def test_tamo_barg_local_mds_property():
    # within each group, any r symbols determine the remaining one
    gf = field_make(13)
    c = tamo_barg_code(12, 6, 3, gf)
    G = c.generator()
    for grp in c.provenance["groups"]:
        assert mat_rank(G.select_columns(list(grp))) == 3
    wits = locality_witnesses(c, c.provenance["groups"])
    assert all(sum(1 for x in w if x) == 4 for w in wits)


def test_tamo_barg_divisibility_guard():
    with pytest.raises(FieldError):
        tamo_barg_code(9, 4, 3, field_make(13))   # (r+1) does not divide n
    with pytest.raises(FieldError):
        tamo_barg_code(8, 4, 3, field_make(11))   # n does not divide q-1


def test_tamo_barg_dimension_guard():
    # k = 5 > m*r = 4 needs x^6, and x^6 = 1 on the 6th roots of unity
    with pytest.raises(ValueError, match="top exponent 6"):
        tamo_barg_code(6, 5, 2, field_make(7))
    assert tamo_barg_code(6, 4, 2, field_make(7)).k == 4


def test_tamo_barg_b_zero_has_fewer_monomials():
    gf = field_make(13)
    c = tamo_barg_code(12, 6, 3, gf)   # k = 2r, b = 0
    assert c.generator().rows == 6


# -- availability --

def test_product_code_parameters_and_availability():
    c = product_avail_code(2, 2)
    assert (c.n, c.k) == (9, 4)
    assert c.rate() == Fraction(4, 9) == Fraction(2, 3) ** 2
    assert availability_check(c, 2, 2).verdict
    c1 = product_avail_code(5, 1)
    assert (c1.n, c1.k) == (6, 5)
    with pytest.raises(BudgetExceeded):
        product_avail_code(7, 6)


def test_product_code_rate_formula():
    for (r, t) in ((2, 2), (3, 2), (2, 3)):
        c = product_avail_code(r, t)
        assert c.rate() == Fraction(r, r + 1) ** t


def test_wang_code():
    c = wang_avail_code(2, 2)
    assert (c.n, c.k) == (6, 3)
    c = wang_avail_code(3, 2)
    assert (c.n, c.k) == (10, 6)
    assert c.rate() == Fraction(3, 5)
    # constant row and column weights and the counting identity
    assert sa_check(c.H, 3, 2).verdict
    assert availability_check(c, 3, 2).verdict
    # r = 0 used to build a k = 0 code, t = 0 to fail inside itertools
    for r, t in ((0, 2), (1, 0), (-1, 2)):
        with pytest.raises(ValueError, match="need r, t >= 1"):
            wang_avail_code(r, t)


def test_wang_is_sequential_too():
    c = wang_avail_code(2, 2)
    assert seq_recovery_check(c, 2, 2).verdict


# -- block-design strict availability --

def test_pg_plane_code():
    c = pg_plane_sa_code(2)
    assert (c.n, c.k) == (21, 11)
    assert c.n - c.k == 10
    assert min_distance(c) == 6
    assert sa_check(c.H, 4, 5).verdict
    assert availability_check(c, 4, 5).verdict
    assert c.n == sa_blocklength_bound(4, 5)


def test_steiner_code():
    c = steiner_sa_code(3)
    assert (c.n, c.k) == (7, 3)
    assert min_distance(c) == 4
    assert sa_check(c.H, 2, 3).verdict
    assert availability_check(c, 2, 3).verdict
    assert c.n == sa_blocklength_bound(2, 3)


def test_steiner_next_size():
    c = steiner_sa_code(4)  # 15 points, 35 lines
    assert (c.n, c.k) == (35, 35 - 15 + 4)
    assert sa_check(c.H, 6, 3).verdict
