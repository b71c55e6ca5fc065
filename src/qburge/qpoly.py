"""Exact Laurent polynomials and truncated power series over Python ints.

A Laurent polynomial is stored as a dict {exponent: coefficient} with no
zero coefficients, so structural equality is mathematical equality.
A truncated series keeps coefficients 0..order in a list; arithmetic on
two series truncates to the smaller order.

Large products use signed Kronecker substitution (D. Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution", J.
Symbolic Comput. 2009): both operands become one integer each, written in
base 2^w with w = 16, 32 or 64 bits wide enough for every product
coefficient, and one bigint product replaces the term-pair loop. Signed
coefficients, such as those of the Pochhammer products (q)_n, are made
nonnegative digits by a bias of 2^(w-1) per word, so no digit borrows. A
product is packed only when it is dense: more than 256 term pairs, and
more than four term pairs per exponent in the operands' summed spans, since
packing costs a word per exponent of the span. A sparse product, such as
a two-term factor (1 - q^k) times a long polynomial, stays on schoolbook,
and so does a product whose coefficient bound exceeds 63 bits, which no
machine word holds with its sign.
"""

from __future__ import annotations

import sys
from array import array

# the density rule above: a product is packed when its term pairs number
# more than _PACK_MIN_PAIRS and more than _PACK_DENSITY per exponent of the
# operands' summed spans
_PACK_MIN_PAIRS = 256
_PACK_DENSITY = 4
# array typecodes by word width in bits, chosen by itemsize, not by name
_UNSIGNED = {array(c).itemsize * 8: c for c in "QLIH"}
_SIGNED = {array(c).itemsize * 8: c for c in "qlih"}


def _word_int(words):
    """The nonnegative integer whose base-2^w digits are the w-bit words of
    `words`, in native byte order: word 0 is the lowest digit on a
    little-endian host and the highest on a big-endian one. Kronecker
    substitution works in either order, because reversing both operands'
    digit strings reverses their product's, and to_bytes with the same
    byte order and a fixed length undoes it."""
    return int.from_bytes(words, sys.byteorder)


class LaurentPoly:
    """Finite map exponent -> integer coefficient; exponents may be negative."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            self.coeffs = {}
        else:
            self.coeffs = {e: c for e, c in coeffs.items() if c}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent, coefficient=1):
        return cls({exponent: coefficient})

    def is_zero(self):
        return not self.coeffs

    def coeff(self, exponent):
        return self.coeffs.get(exponent, 0)

    def degree(self):
        """Top degree, or None for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else None

    def valuation(self):
        """Bottom degree, or None for the zero polynomial."""
        return min(self.coeffs) if self.coeffs else None

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        res = dict(a)
        for e, c in b.items():
            s = res.get(e, 0) + c
            if s:
                res[e] = s
            else:
                res.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = res
        return out

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = {e: -c for e, c in self.coeffs.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(0, other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return LaurentPoly()
        if len(a) > len(b):
            a, b = b, a
        pairs = len(a) * len(b)
        # a span is at least its length: rules out most sparse products
        # before their spans are scanned
        if pairs > _PACK_MIN_PAIRS and pairs > _PACK_DENSITY * (len(a) + len(b)):
            va, vb = min(a), min(b)
            na, nb = max(a) - va + 1, max(b) - vb + 1
            if pairs > _PACK_DENSITY * (na + nb):
                out = self._mul_packed(a, b, va, vb, na, nb)
                if out is not None:
                    return out
        res = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = res.get(e, 0) + c1 * c2
                if s:
                    res[e] = s
                else:
                    del res[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = res
        return out

    @staticmethod
    def _mul_packed(a, b, va, vb, na, nb):
        """Multiply two coefficient dicts by signed Kronecker substitution.

        `a` spans exponents va .. va+na-1 and `b` spans vb .. vb+nb-1.
        Every product coefficient is a sum of at most min(len(a), len(b))
        terms, so its magnitude is below 2^(k-1) with k the bound computed
        below; w is the smallest machine word (16, 32 or 64 bits) with
        w >= k. Each operand is written densely as w-bit words c + 2^(w-1),
        read as one integer, and its bias sum 2^(w-1) X^i (X = 2^w) is
        subtracted, which leaves sum c_i X^i exactly. After one bigint
        product the bias 2^(w-1) is added to every result digit, so no
        digit borrows from the next and each word holds r + 2^(w-1) in
        [0, 2^w); flipping the top bit of every word turns that into r in
        two's complement, read back through a signed memoryview. Returns
        None when k > 64 (a coefficient bound above 63 bits), which the
        caller multiplies exactly by schoolbook.
        """
        ma = max(max(a.values()), -min(a.values()))
        mb = max(max(b.values()), -min(b.values()))
        k = ma.bit_length() + mb.bit_length() + min(len(a), len(b)).bit_length() + 1
        w = next((w for w in (16, 32, 64) if w >= k), None)
        if w is None:
            return None
        half = 1 << (w - 1)
        unit = array(_UNSIGNED[w], [half])
        wa = unit * na
        for e, c in a.items():
            wa[e - va] = c + half
        wb = unit * nb
        for e, c in b.items():
            wb[e - vb] = c + half
        pa = _word_int(wa) - _word_int(unit * na)
        pb = _word_int(wb) - _word_int(unit * nb)
        nr = na + nb - 1
        bias = _word_int(unit * nr)
        raw = ((pa * pb + bias) ^ bias).to_bytes(nr * w // 8, sys.byteorder)
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = {e: c for e, c in
                      enumerate(memoryview(raw).cast(_SIGNED[w]), va + vb) if c}
        return out

    __rmul__ = __mul__

    def scale(self, exponent, coefficient=1):
        """Multiply by coefficient * q**exponent."""
        if coefficient == 0:
            return LaurentPoly()
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = {e + exponent: c * coefficient for e, c in self.coeffs.items()}
        return out

    def inverse_q(self):
        """Substitute q -> 1/q, i.e. negate every exponent. Involutive."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = {-e: c for e, c in self.coeffs.items()}
        return out

    def has_negative_exponent(self):
        return any(e < 0 for e in self.coeffs)

    def min_negative(self):
        """First (lowest-exponent) negative coefficient as (exponent, coeff), or None."""
        for e in sorted(self.coeffs):
            if self.coeffs[e] < 0:
                return (e, self.coeffs[e])
        return None

    def items_sorted(self):
        return sorted(self.coeffs.items())

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
        for e, c in p.coeffs.items():
            if e <= order:
                s.coeffs[e] = c
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

    def __sub__(self, other):
        t = min(self.order, other.order)
        return TruncatedSeries(t, [self.coeffs[i] - other.coeffs[i] for i in range(t + 1)])

    def __mul__(self, other):
        t = min(self.order, other.order)
        res = [0] * (t + 1)
        for i in range(t + 1):
            ci = self.coeffs[i]
            if ci:
                for j in range(t + 1 - i):
                    res[i + j] += ci * other.coeffs[j]
        return TruncatedSeries(t, res)

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
    exps = set(a.coeffs) | set(b.coeffs)
    for e in sorted(exps):
        if a.coeff(e) != b.coeff(e):
            return e
    return None
