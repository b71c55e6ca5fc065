"""Exact polynomial / truncated series arithmetic."""

import pytest
from hypothesis import given, strategies as st

from qburge import qpoly
from qburge.qcombinat import q_poch, qbin
from qburge.qpoly import (DegreeLimitError, LaurentPoly, TruncatedSeries,
                          first_poly_difference, first_series_difference)


def lp(d):
    return LaurentPoly(dict(d))


def poch_range(lo, hi):
    """prod_{k=lo..hi} (1 - q^k) on a dict, independent of LaurentPoly's
    arithmetic; the empty product 1 when lo > hi."""
    res = {0: 1}
    for k in range(lo, hi + 1):
        nxt = dict(res)
        for e, c in res.items():
            nxt[e + k] = nxt.get(e + k, 0) - c
        res = nxt
    return lp(res)


def poly_agrees_with_series(p, s):
    """True iff p (no negative exponents) and s agree on exponents 0..s.order."""
    if p.has_negative_exponent():
        raise ValueError("polynomial has negative exponents")
    return all(p.coeff(e) == s.coeffs[e] for e in range(s.order + 1))


small_polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=6).map(lp)


def schoolbook(a, b):
    """Reference product over the terms, independent of LaurentPoly.__mul__."""
    res = {}
    for e1, c1 in a.items_sorted():
        for e2, c2 in b.items_sorted():
            res[e1 + e2] = res.get(e1 + e2, 0) + c1 * c2
    return lp(res)


@st.composite
def dense_polys(draw, bits):
    """2-16 or 17-80 consecutive exponents from a start in [-30, 10], every
    coefficient nonzero with magnitude below 2**bits, so len = span and
    any two of them make a dense packed product."""
    lo = draw(st.integers(-30, 10))
    n = draw(st.one_of(st.integers(2, 16), st.integers(17, 80)))
    mags = draw(st.lists(st.integers(1, 2 ** bits - 1), min_size=n, max_size=n))
    signs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return lp({lo + i: -m if neg else m
               for i, (m, neg) in enumerate(zip(mags, signs))})


def test_basic_arith():
    p = lp({0: 1, 1: 1})
    assert p * p == lp({0: 1, 1: 2, 2: 1})
    assert (p + (-p)).is_zero()
    assert p.scale(-1) == lp({-1: 1, 0: 1})
    assert lp({0: 1, 1: 2, 2: 1}).inverse_q() == lp({0: 1, -1: 2, -2: 1})
    assert LaurentPoly.zero().inverse_q().is_zero()


def test_canonical_form_strips_zeros():
    assert LaurentPoly({2: 0, 3: 5}).items_sorted() == [(3, 5)]
    assert LaurentPoly({2: 0, 3: 5}) == LaurentPoly.monomial(3, 5)
    assert lp({1: 3}) - lp({1: 3}) == LaurentPoly.zero()
    # zero ends of a dense list, and sums that cancel at either end
    p = LaurentPoly.dense(-2, [0, 0, 4, 0, -1, 0])
    assert p == lp({0: 4, 2: -1})
    assert (p.valuation(), p.degree()) == (0, 2)
    assert p.items_sorted() == [(0, 4), (2, -1)]
    assert lp({0: 1, 3: 2}) + lp({3: -2}) == LaurentPoly.one()
    assert lp({0: 1, 3: 2}) - lp({0: 1}) == lp({3: 2})
    # an all-zero list and an empty one are the zero polynomial
    for zero in (LaurentPoly.dense(5, [0, 0, 0]), LaurentPoly.dense(-3, []),
                 LaurentPoly.monomial(7, 0)):
        assert zero == LaurentPoly.zero() and zero.is_zero()
        assert zero.degree() is None and zero.valuation() is None


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(small_polys)
def test_inverse_q_involution(p):
    assert p.inverse_q().inverse_q() == p


@given(small_polys, small_polys)
def test_inverse_q_is_ring_hom(a, b):
    assert (a * b).inverse_q() == a.inverse_q() * b.inverse_q()
    assert (a + b).inverse_q() == a.inverse_q() + b.inverse_q()


def test_from_factors_partition_numbers():
    s = TruncatedSeries.from_factors([(e, -1) for e in range(1, 6)], 5)
    assert s.coeffs == [1, 1, 2, 3, 5, 7]


def test_from_factors_trivia():
    assert TruncatedSeries.from_factors([(1, 1)], 3).coeffs == [1, -1, 0, 0]
    assert TruncatedSeries.from_factors([], 2).coeffs == [1, 0, 0]
    with pytest.raises(ValueError):
        TruncatedSeries.from_factors([(0, -1)], 3)


def test_mod5_parts_series():
    # 1/prod over exponents = +-1 mod 5: partitions into such parts
    facs = [(e, -1) for e in range(1, 11) if e % 5 in (1, 4)]
    s = TruncatedSeries.from_factors(facs, 10)
    assert s.coeffs == [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6]


def test_series_order_truncates_to_min():
    a = TruncatedSeries(5, [1, 1, 1, 1, 1, 1])
    b = TruncatedSeries(3, [1, 0, 0, 0])
    assert (a + b).order == 3


def test_poly_series_agreement():
    p = lp({0: 1, 1: 1})
    s = TruncatedSeries(2, [1, 1, 1])
    assert not poly_agrees_with_series(p, s)
    assert poly_agrees_with_series(p, TruncatedSeries(1, [1, 1]))
    assert poly_agrees_with_series(LaurentPoly.zero(), TruncatedSeries(3))
    with pytest.raises(ValueError):
        poly_agrees_with_series(lp({-1: 1}), s)


def test_first_difference_helpers():
    assert first_poly_difference(lp({0: 1}), lp({0: 1, 3: -2})) == 3
    assert first_poly_difference(lp({0: 1}), lp({0: 1})) is None
    a = TruncatedSeries(4, [1, 2, 3, 4, 5])
    b = TruncatedSeries(4, [1, 2, 0, 4, 5])
    assert first_series_difference(a, b) == 2


def test_min_negative():
    assert lp({0: 1, 3: -1}).min_negative() == (3, -1)
    assert lp({0: 1, 3: 1}).min_negative() is None


# coefficient bits of the two operands: word widths 16, 32, 64 and 64 again
# at about +-2^40 (bound 40 + 15 + 7 + 1 = 63 bits with 80 terms)
@pytest.mark.parametrize("bits_a, bits_b", [(3, 3), (12, 4), (20, 10), (40, 15)])
@given(data=st.data())
def test_packed_product_signed_dense(bits_a, bits_b, data):
    a = data.draw(dense_polys(bits_a))
    b = data.draw(dense_polys(bits_b))
    ref = schoolbook(a, b)
    assert a * b == ref and b * a == ref


@pytest.mark.parametrize("bits", [5, 13, 29])
@pytest.mark.parametrize("sign_a, sign_b", [(1, 1), (1, -1), (-1, -1)])
def test_packed_product_fills_its_word(bits, sign_a, sign_b):
    # 31 equal terms each: the bound 2*bits + 5 + 1 is exactly 16, 32 or 64,
    # and the middle coefficient 31 * (2^bits - 1)^2 comes within 10 % of
    # the word's signed range
    c = 2 ** bits - 1
    a = lp({e: sign_a * c for e in range(-3, 28)})
    b = lp({e: sign_b * c for e in range(5, 36)})
    ref = schoolbook(a, b)
    assert abs(ref.coeff(32)) == 31 * c * c > 2 ** (2 * bits + 5) * 9 // 10
    assert a * b == ref


def test_sparse_products_match_schoolbook():
    # (1 - q^k) times a long signed polynomial: 2 terms over a span of 38
    # exponents by 300; and 40 x 40 terms spread over spans of 391 and 274
    # exponents. Both are products of dense lists with zeros inside.
    long = lp({e: (1 - 2 * (e % 2)) * (e * 7919 % 1009 + 1)
               for e in range(-40, 260)})
    two = lp({0: 1, 37: -1})
    spread_a = lp({10 * i - 50: (-1) ** i * (i + 1) for i in range(40)})
    spread_b = lp({7 * i: i + 1 for i in range(40)})
    refs = [schoolbook(two, long), schoolbook(spread_a, spread_b)]
    assert two * long == refs[0] and long * two == refs[0]
    assert spread_a * spread_b == refs[1] and spread_b * spread_a == refs[1]


def test_wide_coefficients_pack_byte_wise():
    # bound 41 + 41 + 5 + 1 = 88 bits: no machine word holds the product,
    # so it is packed in 128-bit words written byte by byte
    a = lp({e: 2 ** 40 + e for e in range(-10, 10)})
    b = lp({e: -(2 ** 40) + 3 * e for e in range(20)})
    assert a * b == schoolbook(a, b)


@pytest.mark.parametrize("w", [8, 16, 32, 64, 128, 192])
def test_pack_round_trips_at_every_width(w):
    # signed digits at +-(2^(w-1) - 1), small ones and ones that fill each
    # 64-bit part of a wide word, the same made nonnegative (their own
    # words), a coefficient of 2^64 (a wide word packs it biased), zeros at
    # either end, the empty list and v = 0: `pack` is sum_i c_i 2^(w i), and
    # `unpack` reads back the canonical digits, with no zero at the top
    top = 2 ** (w - 1) - 1
    edges = [-top, top, -1, 0, 1, top // 3, -(top // 3) - 1]
    parts = [s * (2 ** b - 1) for b in range(8, w, 8) for s in (1, -1)]
    signed = [edges, parts, edges[::-1] + parts, [-1], [0, 0, -top], [-top, 0, 0]]
    lists = signed + [[abs(c) for c in cs] for cs in signed] + [[], [0], [0, 0]]
    if w > 64:
        lists += [[2 ** 64], [1, 2 ** 64, 0, 5], [-(2 ** 64), 3]]
    for coeffs in lists:
        v = qpoly.pack(coeffs, w)
        assert v == sum(c << (w * i) for i, c in enumerate(coeffs)), coeffs
        digits = qpoly.unpack(v, w)
        assert digits == coeffs[:max((i + 1 for i, c in enumerate(coeffs) if c), default=0)]
        assert not digits or digits[-1]
    assert qpoly.unpack(0, w) == [] and qpoly.pack([], w) == 0
    # the width holds its bound, and one more takes the next width
    if w > 8:
        assert qpoly.pack_width(top) == w < qpoly.pack_width(top + 1)


def test_bias_cache_keeps_short_biases():
    # the bias is 2^(w-1) in each of n words; only those of at most
    # _SHORT_BIAS_WORDS words enter the bounded cache, and a pack / unpack
    # round trip reads the same bias cached or not
    qpoly._short_bias.cache_clear()
    for w in (16, 32, 64, 128):
        for n in (0, 1, 30, qpoly._SHORT_BIAS_WORDS, qpoly._SHORT_BIAS_WORDS + 1, 500):
            assert qpoly._bias(n, w) == sum(1 << (w - 1 + w * i) for i in range(n))
            coeffs = [(-1) ** i * (i % (1 << (w - 2)) + 1) for i in range(n)]
            assert qpoly.unpack(qpoly.pack(coeffs, w), w) == coeffs
    info = qpoly._short_bias.cache_info()
    assert info.maxsize == qpoly._SHORT_BIAS_CACHE
    assert info.currsize == 4 * 4 and info.hits  # n <= 64: 0, 1, 30, 64 per w


@pytest.mark.parametrize("n", range(0, 21))
def test_poch_times_qbin(n):
    # (q)_2n = (q)_n (q)_n [2n, n], so (q)_n [2n, n] = prod_{k=n+1..2n} (1 - q^k);
    # from n = 1 on the left side is a dense signed packed product
    assert q_poch(n) * qbin(2 * n, n) == poch_range(n + 1, 2 * n)


# sparse and one-term operands, and dense ones of every length
_operands = st.one_of(small_polys, dense_polys(12))


@given(_operands, _operands, st.integers(-5, 5), st.integers(-3, 3),
       st.integers(0, 12), st.integers(0, 6), st.integers(1, 3))
def test_operations_leave_operands_unchanged(a, b, e, c, n, m, base):
    # values share their coefficient lists (scale by 1, the qbin memo), so
    # no operation may write into an operand's list
    memo = qbin(n, m, base)
    polys = [a, b, a.scale(e), b.inverse_q(), memo, LaurentPoly.one()]
    before = [p.items_sorted() for p in polys]
    for x in polys:
        for y in polys:
            x + y, x - y, x * y
        -x, x.scale(e, c), x.scale(e), x.inverse_q()
    # memo hits, and chains that start at the memoized [n, m]
    qbin(n, m, base), qbin(n, m + 1, base), qbin(n, m + 2, base)
    q_poch(n)
    assert [p.items_sorted() for p in polys] == before
    assert qbin(n, m, base) == memo


def test_span_limit(monkeypatch):
    # nothing allocates a span above MAX_SPAN: a dict spread that wide, a
    # sum or a product raises before building its list
    far = LaurentPoly.monomial(10 ** 9, -1)
    for build in (lambda: LaurentPoly({0: 1, 10 ** 9: -1}),
                  lambda: LaurentPoly.one() + far,
                  lambda: LaurentPoly.one() - far,
                  lambda: far + LaurentPoly.one()):
        with pytest.raises(DegreeLimitError,
                           match=r"^polynomial span 1000000001 > 1000000$"):
            build()
    wide = lp({0: 1, 600_000: 1})
    with pytest.raises(DegreeLimitError,
                       match=r"^polynomial span 1200001 > 1000000$"):
        wide * wide
    monkeypatch.setattr(qpoly, "MAX_SPAN", 10)
    edge = lp({0: 1, 9: -1})
    assert (edge + LaurentPoly.one()).degree() == 9
    assert (lp({0: 1, 4: 1}) * lp({0: 1, 5: 1})).degree() == 9
    assert (far * edge).degree() == 10 ** 9 + 9  # a one-term factor is a shift
    with pytest.raises(DegreeLimitError):
        edge + LaurentPoly.monomial(10)
    with pytest.raises(DegreeLimitError):
        edge * lp({0: 1, 1: 1})
    with pytest.raises(DegreeLimitError):
        LaurentPoly({-1: 2, 9: 1})
