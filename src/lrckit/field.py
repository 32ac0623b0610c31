"""Exact arithmetic over finite fields GF(p^m).

Elements are plain Python ints in [0, p^m): the base-p digits of the int are
the coefficients of the polynomial representation, so for GF(2^m) the int is
the usual bit-packed form.  Multiplication and inversion go through
log/antilog tables.  `GF` refuses more than 2^20 elements and builds the
largest field in about a second: the powers of the primitive element come
from a walk of packed digit vectors through two lookup tables (`_powers`),
and the search for that element skips the prime subfield.  Addition is XOR
in characteristic 2 and integer addition mod p in prime fields; in
odd-characteristic extension fields it uses Zech logarithms,
a + b = a (1 + b/a), read from a table of log(1 + g^i) built with the field.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


#: the largest field GF builds; its tables hold a few ints per element
MAX_FIELD_SIZE = 1 << 20


class FieldError(ValueError):
    """A malformed field, one above `MAX_FIELD_SIZE`, or one that cannot
    host the construction asked of it."""


class DivideByZero(FieldError, ZeroDivisionError):
    """Inversion or division by the zero element."""


def prime_factors(n: int) -> List[int]:
    """Distinct prime factors of n by trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def prime_power(n: int) -> Optional[Tuple[int, int]]:
    """Return (p, m) with n = p^m if n is a prime power, else None;
    FieldError above `MAX_FIELD_SIZE`, before a trial division in sqrt(n)."""
    if n > MAX_FIELD_SIZE:
        raise FieldError(f"{n} is above the largest field size, "
                         f"{MAX_FIELD_SIZE}")
    if n < 2:
        return None
    fs = prime_factors(n)
    if len(fs) != 1:
        return None
    p = fs[0]
    m = 0
    while n > 1:
        n //= p
        m += 1
    return p, m


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), little-endian coefficient tuples
# ---------------------------------------------------------------------------

def _poly_trim(a: Sequence[int]) -> Tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def _poly_mod(a: Sequence[int], b: Sequence[int], p: int) -> Tuple[int, ...]:
    """a mod b over GF(p); b monic-normalized internally."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = pow(lb, p - 2, p)
    while len(a) - 1 >= db and _poly_trim(a):
        a = list(_poly_trim(a))
        if len(a) - 1 < db:
            break
        factor = (a[-1] * inv_lb) % p
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * c) % p
    return _poly_trim(a)


def _monic(p: int, d: int) -> Iterator[Tuple[int, ...]]:
    """The monic degree-d polynomials over GF(p), coefficients c_0..c_d, in
    ascending order of sum(c_i * p^i): c_0 changes fastest."""
    return (low[::-1] + (1,) for low in product(range(p), repeat=d))


def _poly_is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2; the
    callers pass degree >= 2."""
    poly = _poly_trim(poly)
    deg = len(poly) - 1
    if poly[0] == 0:  # divisible by x
        return False
    for d in range(1, deg // 2 + 1):
        for divisor in _monic(p, d):
            if not _poly_mod(poly, divisor, p):
                return False
    return True


def _default_modulus(p: int, m: int) -> Tuple[int, ...]:
    """First irreducible monic degree-m polynomial in ascending value order.

    Candidates are scanned by the integer encoding sum(c_i * p^i) of the
    non-leading coefficients, so e.g. GF(16) gets x^4 + x + 1.
    """
    for poly in _monic(p, m):
        if _poly_is_irreducible(poly, p):
            return poly
    raise FieldError(f"no irreducible polynomial of degree {m} over GF({p})")


def _powers(p: int, m: int, columns: Sequence[int], count: int) -> List[int]:
    """g^0 .. g^(count - 1) in GF(p^m), for the g with x^k g = columns[k].

    Multiplying by g is GF(p)-linear, so it is a sum of two table reads: the
    images of an element's low ceil(m/2) digits and of the rest.  Digit k of
    a packed int sits in bits [B k, B (k + 1)), with B one bit wider than
    p - 1, so the sum leaves each digit below 2p with no carry, and one
    masked subtraction brings every digit below p.  In characteristic 2,
    B = 1 and the sum is XOR.  Two more tables unpack the digits.
    """
    b = 1 if p == 2 else (p - 1).bit_length() + 1
    ones = sum(1 << b * k for k in range(m))
    top, fix = ones << b - 1, ((1 << b - 1) - p) * ones

    def add(u: int, v: int) -> int:
        if p == 2:
            return u ^ v
        s = u + v
        return s - (((s + fix) & top) >> b - 1) * p

    def tables(ks: range) -> Tuple[List[int], List[int]]:
        idx, img, val = [0], [0], [0]
        for j, k in enumerate(ks):
            col = sum(columns[k] // p ** i % p << b * i for i in range(m))
            ni, ng, nv, dcol = [], [], [], 0
            for d in range(p):
                ni += [i + (d << b * j) for i in idx]
                ng += [add(u, dcol) for u in img]
                nv += [v + d * p ** k for v in val]
                dcol = add(dcol, col)
            idx, img, val = ni, ng, nv
        gi, gv = [0] * (1 << b * len(ks)), [0] * (1 << b * len(ks))
        for i, u, v in zip(idx, img, val):
            gi[i], gv[i] = u, v
        return gi, gv

    h = (m + 1) // 2
    (lo, lo_val), (hi, hi_val) = tables(range(h)), tables(range(h, m))
    shift, mask = b * h, (1 << b * h) - 1
    out, v = [1] * count, 1
    if p == 2:
        for i in range(1, count):
            v = lo[v & mask] ^ hi[v >> shift]
            out[i] = v
        return out
    for i in range(1, count):
        s = lo[v & mask] + hi[v >> shift]
        v = s - (((s + fix) & top) >> b - 1) * p
        out[i] = lo_val[v & mask] + hi_val[v >> shift]
    return out


class GF:
    """A finite field GF(p^m) with log/antilog multiplication tables.

    Attributes
    ----------
    p, m, q : characteristic, extension degree, field size p^m
    modulus : monic modulus as a little-endian coefficient tuple of length
        m + 1; the empty tuple for prime fields (m = 1)
    primitive : an element verified to generate the multiplicative group

    The primitive element g is the least int that generates; in an
    extension field the search starts at p, past the prime subfield.  The
    tables are `_exp[i] = g^i` (walked by `_powers` from the m products
    x^k g), `_log[g^i] = i`, and the Zech logarithms
    `_zech[i] = log(1 + g^i)`, which is -1 where 1 + g^i = 0.  `_zech` holds
    two periods, 0 <= i < 2(q - 1), so that `matrix` can index it by a sum
    of logarithms minus a logarithm without reducing the index first.
    """

    __slots__ = ("p", "m", "q", "modulus", "primitive", "_exp", "_log",
                 "_zech")

    def __init__(self, p: int, m: int = 1,
                 modulus: Optional[Sequence[int]] = None):
        self.modulus = _checked_modulus(p, m, modulus)
        self.p = p
        self.m = m
        self.q = p ** m
        self._build_tables()

    # -- representation helpers --

    def coeffs(self, a: int) -> Tuple[int, ...]:
        """Base-p digits of a (polynomial coefficients, low degree first)."""
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_coeffs(self, cs: Iterable[int]) -> int:
        v = 0
        for i, c in enumerate(cs):
            v += (c % self.p) * self.p ** i
        if v >= self.q:
            raise FieldError("coefficient vector too long")
        return v

    def nonzero_elements(self) -> range:
        return range(1, self.q)

    # -- raw arithmetic (used to bootstrap the tables) --

    def _raw_mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        pa, pb = self.coeffs(a), self.coeffs(b)
        prod = [0] * (2 * self.m - 1)
        for i, ca in enumerate(pa):
            if ca:
                for j, cb in enumerate(pb):
                    prod[i + j] = (prod[i + j] + ca * cb) % self.p
        rem = _poly_mod(prod, self.modulus, self.p)
        return self.from_coeffs(rem)

    def _raw_pow(self, a: int, e: int) -> int:
        result, base = 1, a
        while e:
            if e & 1:
                result = self._raw_mul(result, base)
            base = self._raw_mul(base, base)
            e >>= 1
        return result

    def _build_tables(self) -> None:
        p, m, order = self.p, self.m, self.q - 1
        factors = prime_factors(order)
        # 1 .. p - 1 are the prime subfield, whose orders divide p - 1 < q - 1
        for g in range(p if m > 1 else 1, self.q):
            if all(self._raw_pow(g, order // f) != 1 for f in factors):
                break
        else:
            raise FieldError("no primitive element found")
        self.primitive = g
        if m == 1:
            exp = [1] * order
            for i in range(1, order):
                exp[i] = exp[i - 1] * g % p
        else:
            exp = _powers(p, m, [self._raw_mul(p ** k, g) for k in range(m)],
                          order)
        log = [0] * self.q
        for i, v in enumerate(exp):
            log[v] = i
        self._exp = exp
        self._log = log
        if len(set(exp)) != order:
            raise FieldError("primitive element does not generate the group")
        # Adding 1 changes only the lowest base-p digit.
        p = self.p
        zech = [-1 if v == p - 1 else
                log[v - p + 1 if v % p == p - 1 else v + 1] for v in exp]
        self._zech = zech + zech

    # -- field operations --

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        if a == 0:
            return b
        if b == 0:
            return a
        log, order = self._log, self.q - 1
        la = log[a]
        z = self._zech[(log[b] - la) % order]
        return 0 if z < 0 else self._exp[(la + z) % order]

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        if a == 0:
            return 0
        # -1 = g^((q-1)/2)
        order = self.q - 1
        return self._exp[(self._log[a] + order // 2) % order]

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivideByZero("zero has no multiplicative inverse")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivideByZero("zero to a negative power")
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def poly_eval(self, coeffs: Sequence[int], x: int) -> int:
        """Evaluate a polynomial with field coefficients at x (Horner)."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c)
        return acc

    def __eq__(self, other) -> bool:
        return (isinstance(other, GF)
                and (self.p, self.m, self.modulus)
                == (other.p, other.m, other.modulus))

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m}, modulus={list(self.modulus)})"


def _coefficients(modulus) -> Tuple[int, ...]:
    if not isinstance(modulus, (list, tuple)) or \
            any(type(c) is not int for c in modulus):
        raise FieldError(f"modulus must be a list of ints, got {modulus!r}")
    return tuple(modulus)


def _checked_modulus(p: int, m: int,
                     modulus: Optional[Sequence[int]]) -> Tuple[int, ...]:
    """The modulus GF(p^m) uses: the default one for None, else `modulus`
    with its coefficients reduced mod p and trailing zeros trimmed; () for a
    prime field.  FieldError, in this order, for a degree below 1, a field
    above `MAX_FIELD_SIZE`, a p that is not prime, a modulus on a prime
    field, a modulus of the wrong degree, a reducible one."""
    if m < 1:
        raise FieldError(f"extension degree must be >= 1, got {m}")
    # before the trial division of p; p^21 > 2^20 already, so a larger
    # m need not be raised to
    if p ** min(m, 21) > MAX_FIELD_SIZE:
        raise FieldError(f"GF({p}^{m}) has more than {MAX_FIELD_SIZE} "
                         "elements")
    if prime_factors(p) != [p]:
        raise FieldError(f"{p} is not prime")
    if m == 1:
        if modulus:
            raise FieldError("prime fields take no modulus")
        return ()
    if modulus is None:
        return _default_modulus(p, m)
    mod = _poly_trim(tuple(c % p for c in _coefficients(modulus)))
    if len(mod) - 1 != m:
        raise FieldError(f"modulus degree {len(mod)-1} != {m}")
    if not _poly_is_irreducible(mod, p):
        raise FieldError(f"{list(mod)} is reducible over GF({p})")
    return mod


#: every field `field_make` has built, under (p, m, its modulus) and under
#: each (p, m, modulus as asked) that named it
_FIELDS: Dict[Tuple[int, int, Optional[Tuple[int, ...]]], GF] = {}


def field_make(p: int, m: int = 1,
               modulus: Optional[Sequence[int]] = None) -> GF:
    """Construct (or fetch the cached copy of) GF(p^m).

    The default modulus is the first irreducible polynomial in ascending
    coefficient-value order, for reproducibility; pass modulus explicitly to
    match a particular textbook representation.  There is one cached field
    per actual modulus: no modulus, the default one written out, or the same
    with unreduced coefficients all return the same object, and its tables
    are built once.
    """
    asked = (p, m, None if modulus is None else _coefficients(modulus))
    gf = _FIELDS.get(asked)
    if gf is None:
        actual = (p, m, _checked_modulus(p, m, asked[2]))
        gf = _FIELDS.get(actual)
        if gf is None:
            gf = _FIELDS[actual] = GF(p, m, actual[2])
        _FIELDS[asked] = gf
    return gf


def field_of_size(q: int, modulus: Optional[Sequence[int]] = None) -> GF:
    """GF(q) for a prime power q, with `modulus` or else the default one;
    FieldError if q is not a prime power."""
    pm = prime_power(q)
    if pm is None:
        raise FieldError(f"{q} is not a prime power")
    return field_make(*pm, modulus)


def subfield_embedding(sub: GF, big: GF) -> List[int]:
    """Table mapping each element of `sub` into `big` as a subfield.

    Requires sub = GF(p^e) and big = GF(p^(e*j)).  The image of the
    polynomial generator of `sub` is a root in `big` of `sub`'s modulus, so
    the map is a field homomorphism; prime subfields map to the constants.
    """
    if sub.p != big.p or big.m % sub.m != 0:
        raise FieldError(f"{sub} does not embed into {big}")
    if sub.m == 1:
        return list(range(sub.p))
    # candidate roots lie in the unique subfield of size sub.q
    step = (big.q - 1) // (sub.q - 1)
    root = None
    mod_coeffs = list(sub.modulus)  # prime-field coefficients, valid in big
    for i in range(sub.q - 1):
        cand = big._exp[(i * step) % (big.q - 1)]
        if big.poly_eval(mod_coeffs, cand) == 0:
            root = cand
            break
    if root is None:
        raise FieldError("modulus has no root in the extension")
    return [big.poly_eval(sub.coeffs(a), root) for a in range(sub.q)]
