"""The alternating sums on `qcombinat.qsum` against the Fraction loops on
LaurentPoly values they replaced, kept here as references: equal values
and, for bosonic_eval and g_poly, the same NonIntegerExponentError message
(text and first offending j); and the guards of the packed sum."""

import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qburge import qcombinat
from qburge.burge import (BosonicSpec, bosonic_eval, spec_even, spec_main,
                          spec_recip, spec_shifted)
from qburge.qcombinat import (NonIntegerExponentError, b_kernel, d_poly,
                              g_poly, qbin, qsum)
from qburge.qpoly import DegreeLimitError, LaurentPoly
from qburge.verify import _SECTION8, SUITES, CampaignBudget


def _as_fraction(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def _int_exponent(e, context):
    e = _as_fraction(e)
    if e.denominator != 1:
        raise NonIntegerExponentError(f"non-integer exponent {e} in {context}")
    return e.numerator


def ref_bosonic_eval(spec, L, M):
    if spec.a <= 0:
        raise ValueError("spec.a must be positive")
    total = LaurentPoly.zero()
    c2 = _as_fraction(spec.c2)
    c1 = _as_fraction(spec.c1)
    c0 = _as_fraction(spec.c0)
    jlo = -((L + spec.abar) // spec.a) - 1
    jhi = (L - spec.abar) // spec.a + 1
    for j in range(jlo, jhi + 1):
        ker = b_kernel(L, M, spec.a * j + spec.abar, spec.b * j + spec.bbar)
        if ker.is_zero():
            continue
        e = _int_exponent(c2 * j * j + c1 * j + c0, f"bosonic spec {spec} at j={j}")
        sign = -1 if j % 2 else 1
        total = total + ker.scale(e, sign)
    return total


def ref_g_poly(N, M, alpha, beta, K):
    if K <= 0:
        raise ValueError("K must be a positive integer")
    alpha = _as_fraction(alpha)
    beta = _as_fraction(beta)
    total = LaurentPoly.zero()
    jlo = -(M // K) - 1
    jhi = N // K + 1
    for j in range(jlo, jhi + 1):
        if not (0 <= N - K * j <= M + N):
            continue
        binom = qbin(M + N, N - K * j)
        if binom.is_zero():
            continue
        e = Fraction(K * j, 2) * ((alpha + beta) * j + alpha - beta)
        exp = _int_exponent(e, f"g_poly(N={N},M={M},alpha={alpha},beta={beta},K={K}) at j={j}")
        total = total + binom.scale(exp, -1 if j % 2 else 1)
    return total


def ref_d_poly(K, i, N, M, alpha, beta):
    if K <= 0:
        raise ValueError("K must be a positive integer")
    alpha = _as_fraction(alpha)
    beta = _as_fraction(beta)
    total = LaurentPoly.zero()
    span = (M + N) // K + abs(i) + 2
    for j in range(-span, span + 1):
        ctx = f"d_poly(K={K},i={i},N={N},M={M},alpha={alpha},beta={beta}) at j={j}"
        b1 = qbin(M + N, M - K * j)
        if not b1.is_zero():
            e1 = j * ((alpha + beta) * K * j + K * beta - (alpha + beta) * i)
            total = total + b1.scale(_int_exponent(e1, ctx))
        b2 = qbin(M + N, M - K * j - i)
        if not b2.is_zero():
            e2 = ((alpha + beta) * j + beta) * (K * j + i)
            total = total - b2.scale(_int_exponent(e2, ctx))
    return total


def outcome(fn, *args):
    """fn(*args), or the message of the NonIntegerExponentError it raises."""
    try:
        return fn(*args)
    except NonIntegerExponentError as exc:
        return f"raised: {exc}"


def coprime_pairs(a_max):
    return [(a, b) for a in range(2, a_max + 1) for b in range(1, a)
            if gcd(a, b) == 1]


def test_qsum_reduces_once_and_checks_each_term():
    one = ((1, 0),)  # [1, 0] = 1
    # (j^2 + j) / 2 is an integer at every j
    terms = [(j, 1, one) for j in range(-3, 4)]
    assert qsum((1, 1, 0), 2, terms, None) == \
        LaurentPoly({0: 2, 1: 2, 3: 2, 6: 1})
    # a term is the signed product of its keys' q-binomials
    assert qsum((1, 0, 0), 1, [(2, -1, ((2, 1), (4, 3))), (0, 1, ((5, 2),))],
                None) == qbin(5, 2) - (qbin(2, 1) * qbin(4, 3)).scale(4)
    # a term with a vanishing key is skipped unchecked; the context is built
    # only to raise
    for keys in (((1, 0), (2, 3)), ((2, -1),), ((-1, 0), (1, 1))):
        assert qsum((0, 0, 1), 2, [(0, 1, keys)], None).is_zero()
    assert qsum((0, 0, 1), 2, [], None).is_zero()
    with pytest.raises(NonIntegerExponentError,
                       match=r"^non-integer exponent 1/2 in here at j=-2$"):
        qsum((0, 0, 1), 2, [(-2, -1, one)], lambda: "here")
    # the exponent is named in lowest terms, below zero too
    with pytest.raises(NonIntegerExponentError,
                       match=r"^non-integer exponent -7/3 in here at j=1$"):
        qsum((0, -14, 0), 6, [(1, 1, one)], lambda: "here")


def test_qsum_guards_term_by_term():
    # each term's degree guard, then its exponent check, before the next
    # term: the first failing term names the error, whichever guard it is
    deep = ((2600, 1),)  # [2600, 1] has degree 2599 > 2500
    with pytest.raises(DegreeLimitError,
                       match=r"^qbin\(2600, 1, base=1\) has degree 2599 > 2500$"):
        qsum((0, 1, 0), 2, [(0, 1, deep), (1, 1, ((1, 0),))], lambda: "here")
    with pytest.raises(NonIntegerExponentError, match=r"at j=1$"):
        qsum((0, 1, 0), 2, [(1, 1, ((1, 0),)), (2, 1, deep)], lambda: "here")
    # a key beside a vanishing one is still guarded, as b_kernel's second
    # qbin is, and the guard names the key with m <= n - m
    with pytest.raises(DegreeLimitError, match=r"^qbin\(2600, 1, "):
        qsum((0, 1, 0), 2, [(0, 1, ((1, 2), (2600, 2599)))], None)
    # the span of the terms so far is checked before the next term and
    # before any shift: exponent 10^9 raises here, not in a shift of
    # 10^9 words
    with pytest.raises(DegreeLimitError, match=r"^polynomial span 1000000001 > 1000000$"):
        qsum((0, 1, 0), 1, [(0, 1, ((2, 1),)), (10 ** 9, 1, ((1, 0),)),
                            (1, 1, deep)], None)


def test_g_poly_huge_exponent_is_refused_small():
    # `qburge eval G 1 1 1000000000 1 1`: the term j = 1 sits at q^(10^9)
    tracemalloc.start()
    try:
        with pytest.raises(DegreeLimitError, match=r"^polynomial span 1000000001 "):
            g_poly(1, 1, 10 ** 9, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    with pytest.raises(DegreeLimitError):
        ref_g_poly(1, 1, 10 ** 9, 1, 1)


def test_qsum_width_holds_its_bound(monkeypatch):
    # term k is +-q^(j^2) [2, 1]^k = (1+q)^k, of l1 2^k, so terms 0..t-1
    # bound the sum by 2^t - 1, and one more term [1, 0] = 1 by 2^t: the
    # word is the narrowest of 32, 64 or 128 bits above that bound and
    # its sign bit, and every sum decodes exactly
    for t, extra, width in ((31, 0, 32), (31, 1, 64), (63, 0, 64), (63, 1, 128)):
        for signs in ((1,), (1, -1)):
            terms = [(k % 3, signs[k % len(signs)], ((2, 1),) * k) for k in range(t)]
            terms += [(0, 1, ((1, 0),))] * extra
            expect = LaurentPoly.zero()
            for j, sign, keys in terms:
                p = LaurentPoly.one()
                for key in keys:
                    p = p * qbin(*key)
                expect = expect + p.scale(j * j, sign)
            store = {}
            monkeypatch.setattr(qcombinat, "_PACKED_CACHE", store)
            assert qsum((1, 0, 0), 1, terms, None) == expect, (t, extra, signs)
            assert list(store) == [width]


def test_bosonic_eval_matches_reference():
    specs = [spec(a, b) for a, b in coprime_pairs(8)
             for spec in (spec_main, spec_recip, spec_even)] + \
        [spec_shifted(a, b) for a, b in coprime_pairs(8) if a >= 3] + \
        [BosonicSpec(1, 1, c2=Fraction(3, 2), c1=Fraction(1, 2)),  # bnew
         BosonicSpec(2, 1, abar=1, bbar=0, c2=Fraction(5, 2),
                     c1=Fraction(1, 2))]  # bnewp2
    for spec in specs:
        for L in range(-1, 9):
            for M in range(-1, 9):
                assert bosonic_eval(spec, L, M) == \
                    ref_bosonic_eval(spec, L, M), (spec, L, M)


def test_g_poly_matches_reference():
    params = [(alpha, beta, K) for a, b in coprime_pairs(8)
              for alpha, beta, K in ((b, Fraction(a * b + 1, a), a),
                                     (a, Fraction(a * b + 1, b), b),
                                     (Fraction(a * b - 1, a), b, a),
                                     (Fraction(a * b - 1, b), a, b))] + \
        [(alpha, beta, K) for alpha, beta, K, _ in _SECTION8.values()]
    sizes = [(N, M) for N in range(-1, 9) for M in range(-1, 9)] + \
        [(n, n) for n in range(9, 13)]
    for alpha, beta, K in params:
        for N, M in sizes:
            assert outcome(g_poly, N, M, alpha, beta, K) == \
                outcome(ref_g_poly, N, M, alpha, beta, K), (N, M, alpha, beta, K)


def test_d_poly_matches_reference():
    hookp = [tuple(p[k] for k in ("K", "i", "N", "M", "alpha", "beta"))
             for _, p in SUITES["hookp"](CampaignBudget(lm_max=8))]
    negative_i = [(K, i, N, M, alpha, beta) for K in (1, 2, 3, 4, 5)
                  for i in range(-K - 1, 0) for N in range(6) for M in range(6)
                  for alpha in (1, 2) for beta in (0, 1, 2)]
    for args in hookp + negative_i:
        assert d_poly(*args) == ref_d_poly(*args), args


def test_bosonic_eval_rational_grid():
    # rational c2, c1, c0 over small denominators: equal values, or the
    # same message naming the same first offending j
    rats = [Fraction(n, d) for d in (1, 2, 3, 6) for n in (-5, -1, 1, 3)] + [0]
    raised = 0
    for c2 in rats[::2]:
        for c1 in rats[1::3]:
            for c0 in (0, Fraction(1, 2), Fraction(-1, 3)):
                for head in ((1, 1, 0, 0), (2, 1, 1, 0), (3, 2, -1, 1)):
                    spec = BosonicSpec(*head, Fraction(c2), Fraction(c1),
                                       Fraction(c0))
                    for L in range(-1, 4):
                        for M in range(-1, 4):
                            new = outcome(bosonic_eval, spec, L, M)
                            assert new == outcome(ref_bosonic_eval, spec, L, M)
                            raised += isinstance(new, str)
    assert raised > 100
    # the text names the spec as its fields, defaults included
    assert outcome(bosonic_eval, BosonicSpec(2, 1, c2=Fraction(1, 2)), 3, 3) == \
        "raised: non-integer exponent 1/2 in bosonic spec BosonicSpec(a=2, " \
        "b=1, abar=0, bbar=0, c2=Fraction(1, 2), c1=Fraction(0, 1), " \
        "c0=Fraction(0, 1)) at j=-1"


_RATIONAL = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@settings(deadline=None, max_examples=300)
@given(_RATIONAL, _RATIONAL, st.integers(1, 4), st.integers(0, 7),
       st.integers(0, 7))
def test_g_poly_rational_parameters(alpha, beta, K, N, M):
    assert outcome(g_poly, N, M, alpha, beta, K) == \
        outcome(ref_g_poly, N, M, alpha, beta, K)


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 4), st.integers(0, 3), st.integers(-2, 2),
       st.integers(-2, 2), _RATIONAL, _RATIONAL, _RATIONAL,
       st.integers(0, 5), st.integers(0, 5))
def test_bosonic_eval_rational_exponents(a, b, abar, bbar, c2, c1, c0, L, M):
    spec = BosonicSpec(a, b, abar, bbar, c2, c1, c0)
    assert outcome(bosonic_eval, spec, L, M) == \
        outcome(ref_bosonic_eval, spec, L, M)


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 4), st.integers(-3, 3), st.integers(0, 6),
       st.integers(0, 6), _RATIONAL, _RATIONAL)
def test_d_poly_rational_parameters(K, i, N, M, alpha, beta):
    # d_poly sums its two parts one after the other, so when both have an
    # offending term it names the first one of its first part, where the
    # interleaved reference may name an earlier j of the second part
    new = outcome(d_poly, K, i, N, M, alpha, beta)
    ref = outcome(ref_d_poly, K, i, N, M, alpha, beta)
    if isinstance(ref, str):
        context = f" in d_poly(K={K},i={i},N={N},M={M},alpha={alpha},beta={beta}) at j="
        assert isinstance(new, str) and context in new
    else:
        assert new == ref
