"""The alternating sums on `qcombinat.qsum` against the Fraction loops on
LaurentPoly values they replaced, kept here as references: equal values
and, for bosonic_eval and g_poly, the same NonIntegerExponentError message
(text and first offending j); the guards of the packed sum; and the terms
of two exponents, the +-j pairs of bosonic_eval and g_poly, against their
unpaired terms, and d_poly's one sum against its two parts."""

import tracemalloc
from fractions import Fraction
from math import gcd, lcm

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


def at(quad, terms):
    """qsum's terms of one exponent each, from (j, sign, keys) triples and
    the numerators (n2, n1, n0) of the exponent n2 j^2 + n1 j + n0."""
    n2, n1, n0 = quad
    return [(sign, keys, ((j, (n2 * j + n1) * j + n0),)) for j, sign, keys in terms]


def test_qsum_reduces_once_and_checks_each_term():
    one = ((1, 0),)  # [1, 0] = 1
    # (j^2 + j) / 2 is an integer at every j
    terms = [(j, 1, one) for j in range(-3, 4)]
    assert qsum(2, at((1, 1, 0), terms), None) == \
        LaurentPoly({0: 2, 1: 2, 3: 2, 6: 1})
    # a term is the signed product of its keys' q-binomials
    assert qsum(1, at((1, 0, 0), [(2, -1, ((2, 1), (4, 3))), (0, 1, ((5, 2),))]),
                None) == qbin(5, 2) - (qbin(2, 1) * qbin(4, 3)).scale(4)
    # a term with a vanishing key is skipped unchecked; the context is built
    # only to raise
    for keys in (((1, 0), (2, 3)), ((2, -1),), ((-1, 0), (1, 1))):
        assert qsum(2, at((0, 0, 1), [(0, 1, keys)]), None).is_zero()
    assert qsum(2, [], None).is_zero()
    with pytest.raises(NonIntegerExponentError,
                       match=r"^non-integer exponent 1/2 in here at j=-2$"):
        qsum(2, at((0, 0, 1), [(-2, -1, one)]), lambda: "here")
    # the exponent is named in lowest terms, below zero too
    with pytest.raises(NonIntegerExponentError,
                       match=r"^non-integer exponent -7/3 in here at j=1$"):
        qsum(6, at((0, -14, 0), [(1, 1, one)]), lambda: "here")


def test_qsum_guards_term_by_term():
    # each term's degree guard, then its exponent check, before the next
    # term: the first failing term names the error, whichever guard it is
    deep = ((2600, 1),)  # [2600, 1] has degree 2599 > 2500
    with pytest.raises(DegreeLimitError,
                       match=r"^qbin\(2600, 1, base=1\) has degree 2599 > 2500$"):
        qsum(2, at((0, 1, 0), [(0, 1, deep), (1, 1, ((1, 0),))]), lambda: "here")
    with pytest.raises(NonIntegerExponentError, match=r"at j=1$"):
        qsum(2, at((0, 1, 0), [(1, 1, ((1, 0),)), (2, 1, deep)]), lambda: "here")
    # a key beside a vanishing one is still guarded, as b_kernel's second
    # qbin is, and the guard names the key with m <= n - m
    with pytest.raises(DegreeLimitError, match=r"^qbin\(2600, 1, "):
        qsum(2, at((0, 1, 0), [(0, 1, ((1, 2), (2600, 2599)))]), None)
    # the span of the terms so far is checked before the next term and
    # before any shift: exponent 10^9 raises here, not in a shift of
    # 10^9 words
    with pytest.raises(DegreeLimitError, match=r"^polynomial span 1000000001 > 1000000$"):
        qsum(1, at((0, 1, 0), [(0, 1, ((2, 1),)), (10 ** 9, 1, ((1, 0),)),
                               (1, 1, deep)]), None)


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
            assert qsum(1, at((1, 0, 0), terms), None) == expect, (t, extra, signs)
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


def captured(monkeypatch, module, fn, *args):
    """fn(*args) and the (den, terms) of the qsum call it makes through
    `module`."""
    calls, real = [], module.qsum
    monkeypatch.setattr(module, "qsum", lambda den, terms, context: (
        calls.append((den, terms)), real(den, terms, context))[1])
    value = fn(*args)
    monkeypatch.setattr(module, "qsum", real)
    (call,) = calls
    return value, call


def flat(terms):
    """One (j, sign, product, x) per exponent, the product as the sorted
    keys (n, min(m, n - m)) of its binomials, or None when one vanishes."""
    def product(keys):
        if any(m < 0 or m > n for n, m in keys):
            return None
        return tuple(sorted((n, min(m, n - m)) for n, m in keys))
    return sorted((j, sign, product(keys), x) for sign, keys, exps in terms for j, x in exps)


def unpaired(den, rows):
    """qsum's terms of one exponent each, in ascending j, from (j, sign,
    keys, rational exponent) rows: the exponent as its numerator over den."""
    terms = []
    for j, sign, keys, e in sorted(rows):
        x = Fraction(e * den)
        assert x.denominator == 1, (j, e, den)
        terms.append((sign, keys, ((j, x.numerator),)))
    return terms


def symmetric_specs():
    """The catalogue's kernel sums with abar = bbar = 0, at a <= 8 as in the
    scale rows."""
    return [spec(a, b) for a, b in coprime_pairs(8)
            for spec in (spec_main, spec_recip, spec_even)] + \
        [BosonicSpec(1, 1, c2=Fraction(3, 2), c1=Fraction(1, 2))]  # bnew


def test_bosonic_pairs_agree_with_unpaired_terms(monkeypatch):
    # at abar = bbar = 0, term -j is term j with its two binomials swapped:
    # the paired call's exponents are the unpaired sum's, term by term,
    # each with the same sign and product, and the two sums are equal
    from qburge import burge
    for spec in symmetric_specs():
        a, b = spec.a, spec.b
        for L in range(11):
            for M in range(11):
                value, (den, terms) = captured(monkeypatch, burge, bosonic_eval, spec, L, M)
                assert any(len(exps) == 2 for _, _, exps in terms) == (L >= a)
                rows = [(j, -1 if j % 2 else 1,
                         ((L + M + (a - b) * j, L + a * j), (L + M - (a - b) * j, L - a * j)),
                         spec.c2 * j * j + spec.c1 * j + spec.c0)
                        for j in range(-(L // a), L // a + 1)]
                single = unpaired(den, rows)
                assert flat(terms) == flat(single), (spec, L, M)
                assert value == qsum(den, single, None), (spec, L, M)


def test_g_pairs_agree_with_unpaired_terms(monkeypatch):
    # at N = M, [2N, N-Kj] = [2N, N+Kj]: the same, for the G sums of the
    # single-limit identities and of the closing display
    params = [(alpha, beta, K) for a, b in coprime_pairs(8)
              for alpha, beta, K in ((b, Fraction(a * b + 1, a), a),
                                     (a, Fraction(a * b + 1, b), b),
                                     (Fraction(a * b - 1, a), b, a),
                                     (Fraction(a * b - 1, b), a, b))] + \
        [(alpha, beta, K) for alpha, beta, K, _ in _SECTION8.values()]
    for alpha, beta, K in params:
        for N in range(11):
            value, (den, terms) = captured(monkeypatch, qcombinat, g_poly, N, N, alpha, beta, K)
            assert any(len(exps) == 2 for _, _, exps in terms) == (N >= K)
            rows = [(j, -1 if j % 2 else 1, ((2 * N, N - K * j),),
                     Fraction(K * j, 2) * ((alpha + beta) * j + alpha - beta))
                    for j in range(-(N // K), N // K + 1)]
            single = unpaired(den, rows)
            assert flat(terms) == flat(single), (alpha, beta, K, N)
            assert value == qsum(den, single, None), (alpha, beta, K, N)


def test_pairs_raise_the_ascending_error():
    # pairs listed from the outside in still name the first offending j in
    # ascending order: here j = 3 offends first in the listed order, -1
    # first in ascending j; and a term's degree guard precedes its exponent
    one = ((1, 0),)
    terms = [(1, one, ((-3, 6), (3, 7))), (1, one, ((-1, 5), (1, 4))), (1, one, ((0, 2),))]
    with pytest.raises(NonIntegerExponentError,
                       match=r"^non-integer exponent 5/2 in here at j=-1$"):
        qsum(2, terms, lambda: "here")
    deep = ((2600, 1),)
    terms = [(1, one, ((-2, 2), (2, 1))), (1, deep, ((-1, 2), (1, 2)))]
    with pytest.raises(DegreeLimitError, match=r"^qbin\(2600, 1, base=1\) has degree "):
        qsum(2, terms, lambda: "here")
    # the span is checked as the ascending sum grows: [2, 1] at 0, then
    # 10^9 at j = 1 (the pair's -1 sits at 1, inside the span so far)
    terms = [(1, one, ((-1, 1), (1, 10 ** 9))), (1, ((2, 1),), ((0, 0),))]
    with pytest.raises(DegreeLimitError, match=r"^polynomial span 1000000001 > 1000000$"):
        qsum(1, terms, None)


@settings(deadline=None, max_examples=200)
@given(st.sampled_from([(p["K"], p["i"], p["N"], p["M"])
                        for _, p in SUITES["hookp"](CampaignBudget(lm_max=8))]),
       _RATIONAL, _RATIONAL)
def test_d_poly_one_sum_is_the_two_part_formula(hook, alpha, beta):
    # the one packed sum equals its two parts summed apart and subtracted,
    # over the hookp region with rational alpha, beta: the same value, or
    # the same first offending term, the first part's before the second's
    K, i, N, M = hook
    S = alpha + beta
    first = [(j, 1, ((M + N, M - K * j),), j * (S * K * j + K * beta - S * i))
             for j in range(-(N // K), M // K + 1)]
    second = [(j, 1, ((M + N, M - K * j - i),), (S * j + beta) * (K * j + i))
              for j in range(-((N + i) // K), (M - i) // K + 1)]
    den = lcm(alpha.denominator, beta.denominator)
    context = lambda: f"d_poly(K={K},i={i},N={N},M={M},alpha={alpha},beta={beta})"
    two = lambda: qsum(den, unpaired(den, first), context) - \
        qsum(den, unpaired(den, second), context)
    assert outcome(d_poly, K, i, N, M, alpha, beta) == outcome(two)


def test_d_poly_span_error_is_the_two_part_error():
    # at large alpha, beta the span of the two parts together passes
    # MAX_SPAN: the error is the one the two parts summed apart and
    # subtracted raise, naming the span where they do, not the span of the
    # one sum's terms so far
    def two(K, i, N, M, alpha, beta):
        S = alpha + beta
        first = [(j, 1, ((M + N, M - K * j),), j * (S * K * j + K * beta - S * i))
                 for j in range(-(N // K), M // K + 1)]
        second = [(j, 1, ((M + N, M - K * j - i),), (S * j + beta) * (K * j + i))
                  for j in range(-((N + i) // K), (M - i) // K + 1)]
        return qsum(1, unpaired(1, first), None) - qsum(1, unpaired(1, second), None)
    for hook in ((3, 1, 1, 4, 188626, 46788), (2, -1, 1, 3, 192383, -263275),
                 (2, 1, 3, 0, -243729, -135000)):
        with pytest.raises(DegreeLimitError) as ref:
            two(*hook)
        with pytest.raises(DegreeLimitError, match=f"^{ref.value}$"):
            d_poly(*hook)
