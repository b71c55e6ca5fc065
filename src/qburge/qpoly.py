"""Exact Laurent polynomials and truncated power series over Python ints.

A Laurent polynomial is its lowest exponent `lo` and the dense list
`coeffs` of the coefficients of q^lo, q^(lo+1), ... with nonzero ends
(zero is lo = 0, []), so structural equality is mathematical equality.
Values are immutable and may share lists. A list costs memory per exponent
of its span, so the dict constructor, `+` and `*` raise DegreeLimitError
before they build a span above MAX_SPAN.
A truncated series keeps coefficients 0..order in a list; the sum of two
series truncates to the smaller order.

Products use signed Kronecker substitution (D. Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution", J.
Symbolic Comput. 2009): both operands become one integer each, written in
base 2^w with w wide enough for every product coefficient, and one bigint
product replaces the term-pair loop. A product with a one-term operand is
a `scale`; every other product is packed, at any coefficient width.

The packing helpers are shared with the lattice sums of `fermionic`, which
run whole transfer passes on packed values, and with the explicit
displays of `verify`. `pack(coeffs, w)` is the integer sum_i c_i 2^(w i),
`pack_nonneg` the same for nonnegative coefficients, `unpack(v, n, w)`
reads n balanced digits back, and `pack_width(bits)` picks the word: 16,
32 or 64 bits as machine arrays, then multiples of 64, read back as
64-bit arrays. Signed coefficients, such as those of the Pochhammer
products (q)_n, are written as nonnegative digits c + 2^(w-1), and the
bias is subtracted once from the whole integer, so no digit borrows;
every coefficient must lie in [-2^(w-1), 2^(w-1)). Nonnegative ones are
their own digits and need no bias.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache

# largest span (degree - valuation + 1) that any operation builds; far
# above the 2,501 that the catalogue, the tests and the benchmark reach
MAX_SPAN = 1_000_000
# array typecodes by word width in bits, chosen by itemsize, not by name;
# 8 bits is no width of `pack_width`, but tests start passes there
_UNSIGNED = {array(c).itemsize * 8: c for c in "QLIHB"}
_SIGNED = {array(c).itemsize * 8: c for c in "qlihb"}
# `_short_bias`: the longest bias it keeps, in words, and how many it keeps.
# The default campaign asks for 134 distinct biases of at most 64 words in
# 95 % of its 12,926 calls of `_bias`.
_SHORT_BIAS_WORDS = 64
_SHORT_BIAS_CACHE = 256


class DegreeLimitError(ValueError):
    """A q-binomial degree, series order, polynomial span or partition-oracle
    box above its bound."""


def _check_span(n):
    if n > MAX_SPAN:
        raise DegreeLimitError(f"polynomial span {n} > {MAX_SPAN}")


def pack_width(bits):
    """The narrowest packing word of at least `bits` bits: 16, 32 or 64,
    then a multiple of 64."""
    if bits > 64:
        return -(-bits // 64) * 64
    return 16 if bits <= 16 else 32 if bits <= 32 else 64


def _bias(n, w):
    """sum_{i<n} 2^(w-1) 2^(w i): the bias 2^(w-1) in each of n words. A
    short one, which most decodes ask for over and over, comes from
    `_short_bias`."""
    if n <= _SHORT_BIAS_WORDS:
        return _short_bias(n, w)
    return int.from_bytes((bytes(w // 8 - 1) + b"\x80") * n, "little")


@lru_cache(maxsize=_SHORT_BIAS_CACHE)
def _short_bias(n, w):
    """`_bias` of at most _SHORT_BIAS_WORDS words, kept in an LRU cache of
    at most _SHORT_BIAS_CACHE entries, so it holds at most
    _SHORT_BIAS_CACHE x _SHORT_BIAS_WORDS words."""
    return int.from_bytes((bytes(w // 8 - 1) + b"\x80") * n, "little")


def pack(coeffs, w):
    """The integer sum_i coeffs[i] 2^(w i), for coefficients with
    |c| < 2^(w-1). Each coefficient is written as the w-bit word
    c + 2^(w-1), so no digit is negative, the words are read as one
    little-endian integer and the bias is subtracted."""
    half = 1 << (w - 1)
    code = _UNSIGNED.get(w)
    if code is None:
        k = w // 8
        raw = b"".join((c + half).to_bytes(k, "little") for c in coeffs)
    else:
        raw = array(code, [c + half for c in coeffs])
        if sys.byteorder == "big":
            raw.byteswap()
    return int.from_bytes(raw, "little") - _bias(len(coeffs), w)


def pack_nonneg(coeffs, w):
    """`pack` of nonnegative coefficients below 2^(w-1), such as a
    q-binomial's: each coefficient is its own word, so there is no bias.
    At a machine width the words are one array; a wider word is w/64
    words of a 64-bit array, the coefficient the lowest of them, as long
    as every coefficient is below 2^64 (else `pack` writes them). A
    negative coefficient raises ValueError."""
    code = _UNSIGNED.get(w)
    try:
        if code is None:
            raw = array(_UNSIGNED[64], bytes(len(coeffs) * w // 8))
            raw[::w // 64] = array(_UNSIGNED[64], coeffs)
        else:
            raw = array(code, coeffs)
    except OverflowError:
        if min(coeffs) < 0:
            raise ValueError(f"pack_nonneg: negative coefficient {min(coeffs)}") from None
        return pack(coeffs, w)
    if sys.byteorder == "big":
        raw.byteswap()
    return int.from_bytes(raw, "little")


def unpack(v, n, w):
    """The n balanced base-2^w digits of v, lowest first: the inverse of
    `pack` when every digit lies in [-2^(w-1), 2^(w-1)) and v has at most
    n of them. Adding the bias makes every word d + 2^(w-1) in [0, 2^w),
    so no digit borrows from the next; flipping each word's top bit leaves
    d in two's complement, read back as signed words. A word wider than 64
    bits is read as w/64 strided views of one 64-bit array, the top word
    signed and the lower ones unsigned, joined per digit."""
    bias = _bias(n, w)
    raw = ((v + bias) ^ bias).to_bytes(n * w // 8, "little")
    code = _SIGNED.get(w)
    if code is None:
        k = w // 64
        lows = array(_UNSIGNED[64], raw)
        digits = array(_SIGNED[64], raw)
        if sys.byteorder == "big":
            lows.byteswap()
            digits.byteswap()
        digits = digits[k - 1::k].tolist()
        for j in range(k - 2, -1, -1):
            digits = [d << 64 | low for d, low in zip(digits, lows[j::k])]
        return digits
    words = array(code, raw)
    if sys.byteorder == "big":
        words.byteswap()
    return words.tolist()


def _poly(lo, coeffs):
    """The LaurentPoly with these fields, which must already be canonical."""
    out = LaurentPoly.__new__(LaurentPoly)
    out.lo = lo
    out.coeffs = coeffs
    return out


class LaurentPoly:
    """sum_i coeffs[i] q^(lo+i); exponents may be negative."""

    __slots__ = ("lo", "coeffs")

    def __init__(self, terms=None):
        """From a dict {exponent: coefficient}; zero coefficients are dropped."""
        exps = [e for e, c in (terms or {}).items() if c]
        lo = min(exps, default=0)
        span = max(exps, default=lo - 1) - lo + 1
        _check_span(span)
        self.lo, self.coeffs = lo, [0] * span
        for e in exps:
            self.coeffs[e - lo] = terms[e]

    @classmethod
    def dense(cls, lo, coeffs):
        """sum_i coeffs[i] q^(lo+i), taking over the list `coeffs` (which the
        caller must not change afterwards) unless it has zero ends."""
        if coeffs and coeffs[0] and coeffs[-1]:
            return _poly(lo, coeffs)
        nz = [i for i, c in enumerate(coeffs) if c]
        if not nz:
            return _poly(0, [])
        return _poly(lo + nz[0], coeffs[nz[0]:nz[-1] + 1])

    @classmethod
    def zero(cls):
        return _poly(0, [])

    @classmethod
    def one(cls):
        return _poly(0, [1])

    @classmethod
    def monomial(cls, exponent, coefficient=1):
        return _poly(exponent, [coefficient]) if coefficient else _poly(0, [])

    def is_zero(self):
        return not self.coeffs

    def coeff(self, exponent):
        i = exponent - self.lo
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def degree(self):
        """Top degree, or None for the zero polynomial."""
        return self.lo + len(self.coeffs) - 1 if self.coeffs else None

    def valuation(self):
        """Bottom degree, or None for the zero polynomial."""
        return self.lo if self.coeffs else None

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.lo == other.lo and self.coeffs == other.coeffs

    def __add__(self, other):
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        a, b = (self, other) if self.lo <= other.lo else (other, self)
        off = b.lo - a.lo
        end = off + len(b.coeffs)
        _check_span(max(len(a.coeffs), end))
        res = a.coeffs + [0] * (end - len(a.coeffs))
        res[off:end] = [x + y for x, y in zip(res[off:end], b.coeffs)]
        return LaurentPoly.dense(a.lo, res)

    def __neg__(self):
        return _poly(self.lo, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = (self, other) if len(self.coeffs) <= len(other.coeffs) else (other, self)
        if len(a.coeffs) <= 1:
            return b.scale(a.lo, a.coeffs[0]) if a.coeffs else a
        ca, cb = a.coeffs, b.coeffs
        n = len(ca) + len(cb) - 1
        _check_span(n)
        # every product coefficient is a sum of at most len(ca) terms, so its
        # magnitude is below 2^(k-1) and a word of w >= k bits holds it
        k = (max(max(ca), -min(ca)).bit_length()
             + max(max(cb), -min(cb)).bit_length() + len(ca).bit_length() + 1)
        w = pack_width(k)
        # the end coefficients are products of nonzero ends: nothing to strip
        return _poly(a.lo + b.lo, unpack(pack(ca, w) * pack(cb, w), n, w))

    __rmul__ = __mul__

    def scale(self, exponent, coefficient=1):
        """Multiply by coefficient * q**exponent."""
        if not coefficient or not self.coeffs:
            return _poly(0, [])
        return _poly(self.lo + exponent, self.coeffs if coefficient == 1
                     else [c * coefficient for c in self.coeffs])

    def inverse_q(self):
        """Substitute q -> 1/q, i.e. negate every exponent. Involutive."""
        if not self.coeffs:
            return self
        return _poly(1 - self.lo - len(self.coeffs), self.coeffs[::-1])

    def has_negative_exponent(self):
        return self.lo < 0

    def min_negative(self):
        """First (lowest-exponent) negative coefficient as (exponent, coeff), or None."""
        for i, c in enumerate(self.coeffs):
            if c < 0:
                return (self.lo + i, c)
        return None

    def items_sorted(self):
        return [(self.lo + i, c) for i, c in enumerate(self.coeffs) if c]

    def __repr__(self):
        if not self.coeffs:
            return "LaurentPoly(0)"
        terms = " ".join(f"{e}:{c}" for e, c in self.items_sorted())
        return f"LaurentPoly({terms})"


class TruncatedSeries:
    """Power series known exactly up to q**order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs=None):
        if order < 0:
            raise ValueError("series order must be >= 0")
        self.order = order
        if coeffs is None:
            self.coeffs = [0] * (order + 1)
        else:
            if len(coeffs) != order + 1:
                raise ValueError("coefficient list must have length order+1")
            self.coeffs = list(coeffs)

    @classmethod
    def one(cls, order):
        s = cls(order)
        s.coeffs[0] = 1
        return s

    @classmethod
    def from_poly(cls, p, order):
        """Truncate a polynomial with no negative exponents to a series."""
        if p.has_negative_exponent():
            raise ValueError("cannot truncate a Laurent polynomial with negative exponents")
        s = cls(order)
        part = p.coeffs[:max(0, order + 1 - p.lo)]
        s.coeffs[p.lo:p.lo + len(part)] = part
        return s

    @classmethod
    def from_factors(cls, factors, order):
        """Exact truncation of prod (1 - q**e)**sign over (e, sign) pairs.

        sign +1 is an ordinary factor, sign -1 a reciprocal factor expanded
        as a geometric series. Factors with e > order are dropped (they do
        not affect coefficients 0..order).
        """
        s = cls.one(order)
        for e, sign in factors:
            if e <= 0:
                raise ValueError("factor exponents must be >= 1")
            if e > order:
                continue
            if sign == 1:
                s = s.mul_one_minus(e)
            elif sign == -1:
                s = s.div_one_minus(e)
            else:
                raise ValueError("factor sign must be +1 or -1")
        return s

    def mul_one_minus(self, e):
        """Multiply by (1 - q**e)."""
        out = TruncatedSeries(self.order, self.coeffs)
        for i in range(self.order, e - 1, -1):
            out.coeffs[i] -= self.coeffs[i - e]
        return out

    def div_one_minus(self, e):
        """Multiply by 1/(1 - q**e) = 1 + q**e + q**2e + ..."""
        out = TruncatedSeries(self.order, self.coeffs)
        for i in range(e, self.order + 1):
            out.coeffs[i] += out.coeffs[i - e]
        return out

    def __add__(self, other):
        t = min(self.order, other.order)
        return TruncatedSeries(t, [self.coeffs[i] + other.coeffs[i] for i in range(t + 1)])

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self):
        return f"TruncatedSeries(order={self.order}, {self.coeffs})"


def first_series_difference(a, b):
    """First exponent where two series disagree, or None (compared to min order)."""
    t = min(a.order, b.order)
    for e in range(t + 1):
        if a.coeffs[e] != b.coeffs[e]:
            return e
    return None


def first_poly_difference(a, b):
    """First exponent where two Laurent polynomials disagree, or None."""
    if a == b:
        return None
    e = min(p.lo for p in (a, b) if p.coeffs)
    while a.coeff(e) == b.coeff(e):
        e += 1
    return e
