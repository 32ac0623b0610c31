import hashlib
import random
import re

import pytest

from lrckit import io
from lrckit.field import (GF, MAX_FIELD_SIZE, DivideByZero, FieldError,
                          field_make, field_of_size, prime_factors,
                          prime_power, subfield_embedding)

FIELDS = [field_make(2), field_make(3), field_make(7), field_make(2, 4),
          field_make(3, 2), field_make(2, 8), field_make(13)]


def test_prime_field_trivia():
    gf2 = field_make(2)
    assert gf2.q == 2 and gf2.modulus == ()
    assert gf2.add(1, 1) == 0
    gf7 = field_make(7)
    assert gf7.mul(3, 5) == 1


def test_gf16_default_modulus_and_generator_relation():
    gf = field_make(2, 4)
    # x^4 + x + 1, so the class of x satisfies alpha^4 = alpha + 1
    assert list(gf.modulus) == [1, 1, 0, 0, 1]
    alpha = 2
    assert gf.pow(alpha, 4) == gf.add(alpha, 1) == 0b0011


def test_explicit_modulus_matches_default():
    gf = field_make(2, 4, [1, 1, 0, 0, 1])
    assert gf == field_make(2, 4)
    # one cached field per actual modulus, however it is asked for
    for p, m in ((2, 6), (5, 2), (13, 3), (2, 8)):
        gf = field_make(p, m)
        default = list(gf.modulus)
        unreduced = [c + p if c else c for c in default]  # 13: [15, 0, 0, 14]
        for other in (field_make(p, m, default),
                      field_make(p, m, unreduced),
                      field_make(p, m, unreduced + [p, 0]),
                      field_of_size(p ** m),
                      field_of_size(p ** m, tuple(default)),
                      io.field_from_json(io.field_to_json(gf))):
            assert other is gf, (p, m)
    # with the default cached, every bad request still raises as before
    for args, message in (
            ((2, 4, [1, 0, 0, 0, 1]),
             "[1, 0, 0, 0, 1] is reducible over GF(2)"),
            ((13, 3, [0, 0, 0, 1]), "[0, 0, 0, 1] is reducible over GF(13)"),
            ((13, 3, [2, 0, 1]), "modulus degree 2 != 3"),
            ((13, 3, [2, 0, 0, 13]), "modulus degree 0 != 3"),
            ((13, 1, [1, 1]), "prime fields take no modulus"),
            ((6,), "6 is not prime"),
            ((4, 2), "4 is not prime"),
            ((2, 40), f"GF(2^40) has more than {MAX_FIELD_SIZE} elements"),
            ((2, 0), "extension degree must be >= 1, got 0")):
        for _ in range(2):
            with pytest.raises(FieldError) as exc:
                field_make(*args)
            assert str(exc.value) == message, args


def test_gf9_multiplicative_group():
    gf = field_make(3, 2)
    orders = [next(e for e in range(1, gf.q) if gf.pow(a, e) == 1)
              for a in gf.nonzero_elements()]
    assert max(orders) == 8
    assert orders.count(8) == 4  # phi(8) generators


def test_not_prime_rejected():
    with pytest.raises(FieldError, match="not prime"):
        field_make(6)


@pytest.mark.parametrize("p,m", [(2, 21), (2, 10 ** 9), (1031, 2),
                                 (1048583, 1)])
def test_field_above_the_ceiling_rejected(p, m):
    # before any modulus search or table: GF(2^21) alone would build for
    # seconds, and GF(2^(10^9)) never finish
    assert p ** min(m, 21) > MAX_FIELD_SIZE
    with pytest.raises(FieldError, match="more than"):
        GF(p, m)


def test_reducible_modulus_rejected():
    with pytest.raises(FieldError, match="reducible"):
        field_make(2, 4, [1, 0, 0, 0, 1])  # x^4 + 1 = (x+1)^4


def test_field_refusals():
    """An over-long coefficient vector, zero to a negative power, and a
    field that is no subfield of the other are refused."""
    gf = field_make(2, 4)
    with pytest.raises(FieldError, match="^coefficient vector too long$"):
        gf.from_coeffs([1, 0, 0, 0, 1])
    assert (gf.pow(0, 0), gf.pow(0, 3)) == (1, 0)
    with pytest.raises(DivideByZero, match="^zero to a negative power$"):
        gf.pow(0, -1)
    for sub in (field_make(2, 3), field_make(3)):
        with pytest.raises(FieldError, match=f"^{re.escape(str(sub))} does "
                           f"not embed into {re.escape(str(gf))}$"):
            subfield_embedding(sub, gf)


def test_zero_inverse_raises():
    with pytest.raises(DivideByZero):
        field_make(5).inv(0)


@pytest.mark.parametrize("gf", FIELDS, ids=str)
def test_field_axioms_randomized(gf):
    rng = random.Random(1234)
    trials = 10_000
    q = gf.q
    for _ in range(trials):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert gf.add(a, b) == gf.add(b, a)
        assert gf.mul(a, b) == gf.mul(b, a)
        assert gf.add(gf.add(a, b), c) == gf.add(a, gf.add(b, c))
        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
        assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
        if a:
            assert gf.mul(a, gf.inv(a)) == 1
        # Frobenius endomorphism
        assert gf.pow(gf.add(a, b), gf.p) == gf.add(gf.pow(a, gf.p),
                                                    gf.pow(b, gf.p))


@pytest.mark.parametrize("gf", [field_make(2, 2), field_make(3, 2),
                                field_make(5)], ids=str)
def test_field_axioms_exhaustive_small(gf):
    els = range(gf.q)
    for a in els:
        assert gf.add(a, 0) == a and gf.mul(a, 1) == a and gf.mul(a, 0) == 0
        assert gf.add(a, gf.neg(a)) == 0
        for b in els:
            assert gf.sub(a, b) == gf.add(a, gf.neg(b))


def test_primitive_generates():
    for gf in FIELDS:
        seen = set()
        x = 1
        for _ in range(gf.q - 1):
            seen.add(x)
            x = gf.mul(x, gf.primitive)
        assert len(seen) == gf.q - 1


def test_prime_power_detection():
    assert prime_power(16) == (2, 4)
    assert prime_power(13) == (13, 1)
    assert prime_power(12) is None
    assert field_of_size(9).q == 9
    assert prime_power(MAX_FIELD_SIZE) == (2, 20)
    with pytest.raises(FieldError, match="largest field"):
        prime_power(10 ** 18 + 3)  # never trial-divided


def test_subfield_embedding_homomorphism():
    sub, big = field_make(2, 4), field_make(2, 12)
    emb = subfield_embedding(sub, big)
    assert emb[0] == 0 and emb[1] == 1
    for a in range(16):
        for b in range(16):
            assert emb[sub.add(a, b)] == big.add(emb[a], emb[b])
            assert emb[sub.mul(a, b)] == big.mul(emb[a], emb[b])
    assert len(set(emb)) == 16


# Odd characteristic: the big field adds and negates by Zech logarithms.
@pytest.mark.parametrize("sub_pm, big_pm", [((3, 2), (3, 4)),
                                            ((5, 1), (5, 2)),
                                            ((13, 1), (13, 3))], ids=str)
def test_subfield_embedding_homomorphism_odd(sub_pm, big_pm):
    sub, big = field_make(*sub_pm), field_make(*big_pm)
    emb = subfield_embedding(sub, big)
    assert emb[0] == 0 and emb[1] == 1
    for a in range(sub.q):
        assert emb[sub.neg(a)] == big.neg(emb[a])
        for b in range(sub.q):
            assert emb[sub.add(a, b)] == big.add(emb[a], emb[b])
            assert emb[sub.sub(a, b)] == big.sub(emb[a], emb[b])
            assert emb[sub.mul(a, b)] == big.mul(emb[a], emb[b])
    assert len(set(emb)) == sub.q


# Digit-wise reference arithmetic: add or negate each base-p coefficient.
def _digit_add(gf, a, b):
    out, place = 0, 1
    for _ in range(gf.m):
        out += (a % gf.p + b % gf.p) % gf.p * place
        a, b, place = a // gf.p, b // gf.p, place * gf.p
    return out


def _digit_neg(gf, a):
    return gf.from_coeffs(-c for c in gf.coeffs(a))


def _check_against_digits(gf, pairs):
    for a, b in pairs:
        assert gf.add(a, b) == _digit_add(gf, a, b)
        assert gf.neg(b) == _digit_neg(gf, b)
        assert gf.sub(a, b) == _digit_add(gf, a, _digit_neg(gf, b))


@pytest.mark.parametrize("pm", [(3, 2), (5, 2), (3, 3), (3, 4)], ids=str)
def test_zech_arithmetic_matches_digits_exhaustive(pm):
    gf = field_make(*pm)
    _check_against_digits(gf, ((a, b) for a in range(gf.q)
                               for b in range(gf.q)))


@pytest.mark.parametrize("pm", [(7, 3), (13, 3)], ids=str)
def test_zech_arithmetic_matches_digits_sampled(pm):
    gf = field_make(*pm)
    rng = random.Random(2024)
    pairs = [(rng.randrange(gf.q), rng.randrange(gf.q))
             for _ in range(20_000)]
    pairs += [(a, 0) for a in range(gf.p)] + [(0, a) for a in range(gf.p)]
    _check_against_digits(gf, pairs)


def test_poly_eval_horner():
    gf = field_make(7)
    # 3 + 2x + x^2 at x = 4 -> 3 + 8 + 16 = 27 = 6 mod 7
    assert gf.poly_eval([3, 2, 1], 4) == 6


# The tables as the polynomial multiply `_raw_mul` bootstraps them, one
# product per element, with the primitive element searched from 1.
def _bootstrap_tables(gf):
    order = gf.q - 1
    factors = prime_factors(order)
    g = next(g for g in range(1, gf.q)
             if all(gf._raw_pow(g, order // f) != 1 for f in factors))
    exp = [1] * order
    for i in range(1, order):
        exp[i] = gf._raw_mul(exp[i - 1], g)
    log = [0] * gf.q
    for i, v in enumerate(exp):
        log[v] = i

    def one_plus(v):
        if gf.m == 1:
            return (v + 1) % gf.p
        cs = gf.coeffs(v)
        return gf.from_coeffs((cs[0] + 1,) + cs[1:])
    zech = [-1 if one_plus(v) == 0 else log[one_plus(v)] for v in exp]
    return g, exp, log, zech + zech


def _check_tables(gf):
    assert (gf.primitive, gf._exp, gf._log, gf._zech) \
        == _bootstrap_tables(gf), gf


_SMALL_EXTENSIONS = [pm for pm in map(prime_power, range(2, 4097))
                     if pm and pm[1] > 1]


@pytest.mark.parametrize("p, m, modulus", [
    *((p, m, None) for p, m in _SMALL_EXTENSIONS),
    (13, 3, None), (31, 3, None), (101, 2, None),
    # x is not primitive under either modulus
    (2, 8, [1, 1, 0, 1, 1, 0, 0, 0, 1]), (3, 2, [1, 0, 1])], ids=str)
def test_extension_tables_match_bootstrap(p, m, modulus):
    gf = GF(p, m, modulus)
    if modulus is not None:
        assert gf.primitive > p
    _check_tables(gf)


def test_every_small_extension_is_pinned():
    assert len(_SMALL_EXTENSIONS) == 40


def test_prime_field_tables_match_bootstrap():
    for p in range(2, 2000):
        if prime_factors(p) == [p]:
            _check_tables(GF(p))
    _check_tables(GF(1048573))  # the largest prime below 2^20


# The bootstrap is too slow for these two, so the SHA-256 of the antilog table
# it built pins them.
@pytest.mark.parametrize("p, m, primitive, digest", [
    (3, 12, 14,
     "fd0418b81a3e7b7f8d72302d6f549221b8c36c5e6d5dbadc682b7b03e27ad1a0"),
    (2, 20, 2,
     "9c887ba5b239ae8fc23119b6357c7e2634eed60627ef81afc4200087566e82f9")],
    ids=["3^12", "2^20"])
def test_large_extension_tables_pinned(p, m, primitive, digest):
    gf = GF(p, m)
    assert gf.primitive == primitive
    assert hashlib.sha256(",".join(map(str, gf._exp)).encode()) \
        .hexdigest() == digest
