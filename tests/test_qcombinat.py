"""q-binomials, Pochhammer products, kernel, G/D sums, residue split."""

import inspect
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qburge.qpoly import LaurentPoly
from qburge import qcombinat
from qburge.qcombinat import (NonIntegerExponentError, qbin, q_poch,
                              b_kernel, g_poly, d_poly, borwein_split)

from test_qpoly import poch_range


def lp(d):
    return LaurentPoly(dict(d))


def subs_power(p, k):
    """p with q -> q**k."""
    return lp({e * k: c for e, c in p.items_sorted()})


def test_qbin_examples():
    assert qbin(2, 1) == lp({0: 1, 1: 1})
    assert qbin(4, 2) == lp({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
    assert qbin(3, -1).is_zero()
    assert qbin(2, 3).is_zero()
    assert qbin(2, 1, base=2) == lp({0: 1, 2: 1})
    assert qbin(0, 0) == LaurentPoly.one()


def test_qbin_degree_limit(monkeypatch):
    with pytest.raises(qcombinat.DegreeLimitError):
        qbin(10 ** 8, 3)
    # a negative base is checked, and named, as the caller gave it
    with pytest.raises(qcombinat.DegreeLimitError,
                       match=r"^qbin\(100000000, 3, base=-1\) has degree "):
        qbin(10 ** 8, 3, base=-1)
    monkeypatch.setattr(qcombinat, "QBIN_MAX_DEGREE", 12)
    assert qbin(8, 2).degree() == 12 and qbin(7, 1, base=2).degree() == 12
    for n, m, base in ((9, 2, 1), (9, 7, 1), (8, 1, 2)):
        with pytest.raises(qcombinat.DegreeLimitError):
            qbin(n, m, base)


def test_qbin_pascal_recurrences():
    for base in (1, 2, 3):
        for n in range(1, 21):
            for m in range(0, n + 1):
                lhs = qbin(n, m, base)
                assert lhs == qbin(n - 1, m, base) + \
                    qbin(n - 1, m - 1, base).scale(base * (n - m))
                assert lhs == qbin(n - 1, m - 1, base) + \
                    qbin(n - 1, m, base).scale(base * m)


def pascal_rows(n_max, base):
    """rows[n][m] = [n choose m] in q**base as {exponent: coefficient}, by
    [n, m] = [n-1, m-1] + q^(base*m) [n-1, m] over whole rows."""
    rows = [[{0: 1}]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [{0: 1}]
        for m in range(1, n + 1):
            cur = dict(prev[m - 1])
            if m < n:
                for e, c in prev[m].items():
                    cur[e + base * m] = cur.get(e + base * m, 0) + c
            row.append({e: c for e, c in cur.items() if c})
        rows.append(row)
    return rows


def test_qbin_against_pascal_reference(monkeypatch):
    # a fresh memo and a shuffled order, so the product chains start from
    # every memoized [n, k] with k below the requested m
    monkeypatch.setattr(qcombinat, "_QBIN_CACHE", {})
    bases = (-2, -1, 0, 1, 2, 3)
    rows = {base: pascal_rows(24, base) for base in bases}
    requests = [(n, m, base) for base in bases for n in range(25)
                for m in range(-1, n + 2)]
    random.Random(20).shuffle(requests)
    for n, m, base in requests:
        want = rows[base][n][m] if 0 <= m <= n else {}
        assert dict(qbin(n, m, base).items_sorted()) == want, (n, m, base)


def test_qbin_memo_keeps_only_row_n(monkeypatch):
    for n, m in ((2501, 1), (60, 30)):
        monkeypatch.setattr(qcombinat, "_QBIN_CACHE", {})
        qbin(n, m)
        assert {key[0] for key in qcombinat._QBIN_CACHE} == {n}


def test_qbin_inexact_division_raises(monkeypatch):
    # a wrong memoized [10, 2] makes the next step's division inexact
    monkeypatch.setattr(qcombinat, "_QBIN_CACHE",
                        {(10, 2, 1): qbin(10, 2) + LaurentPoly.monomial(3)})
    with pytest.raises(ArithmeticError):
        qbin(10, 3)


def test_qbin_reciprocity():
    for n in range(0, 16):
        for m in range(0, n + 1):
            assert qbin(n, m).inverse_q() == qbin(n, m).scale(m * (m - n))


def test_q_poch():
    assert q_poch(0) == LaurentPoly.one()
    assert q_poch(2) == lp({0: 1, 1: -1, 2: -1, 3: 1})
    for n in range(0, 11):
        assert q_poch(n).degree() == (n * (n + 1) // 2 if n else 0)
    with pytest.raises(ValueError):
        q_poch(-1)
    assert poch_range(3, 2) == LaurentPoly.one()
    assert q_poch(4) == q_poch(2) * poch_range(3, 4)


def test_q_poch_degree_limit(monkeypatch):
    monkeypatch.setattr(qcombinat, "QBIN_MAX_DEGREE", 10)
    assert q_poch(4).degree() == 10
    for n in (5, 10 ** 9):
        with pytest.raises(qcombinat.DegreeLimitError,
                           match=rf"^q_poch\({n}\) has degree "):
            q_poch(n)


def test_q_poch_builds_in_a_loop(monkeypatch):
    # a cold (q)_60 must not recurse: allow only a few frames above this one
    monkeypatch.setattr(qcombinat, "_POCH_CACHE", {})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        p60 = q_poch(60)
    finally:
        sys.setrecursionlimit(limit)
    assert p60 == poch_range(1, 60)
    assert sorted(qcombinat._POCH_CACHE) == list(range(1, 61))
    assert q_poch(62) == p60 * poch_range(61, 62)


def test_b_kernel_examples():
    assert b_kernel(1, 1, 0, 0) == lp({0: 1, 1: 2, 2: 1})
    assert b_kernel(1, 1, 2, 0).is_zero()
    assert b_kernel(1, 1, 1, 1) == LaurentPoly.one()


def test_b_kernel_symmetries():
    for L in range(0, 5):
        for M in range(0, 5):
            for a in range(-L, L + 1):
                for b in range(-M, M + 1):
                    B = b_kernel(L, M, a, b)
                    assert B == b_kernel(M, L, b, a)
                    assert B == b_kernel(L, M, -a, -b)
                    # reciprocity
                    assert B.inverse_q() == B.scale(2 * a * b - 2 * L * M)


def test_b_kernel_limit_window():
    # B(L,M,a,b)*(q)_2L agrees with the single binomial up to q^(M-L+b)
    for L in range(0, 5):
        for M in (10, 12, 14):
            for a in range(-L, L + 1):
                for b in range(-2, 3):
                    prod = b_kernel(L, M, a, b) * q_poch(2 * L)
                    lim = qbin(2 * L, L - a)
                    for e in range(0, M - L + min(b, 0)):
                        assert prod.coeff(e) == lim.coeff(e)


def test_g_poly_examples():
    assert g_poly(1, 1, 1, Fraction(3, 2), 2) == lp({0: 1, 1: 1})
    assert g_poly(2, 2, 1, Fraction(3, 2), 2) == lp({0: 1, 1: 1, 2: 1, 4: 1})
    with pytest.raises(ValueError):
        g_poly(2, 2, 1, 1, 0)


def test_g_poly_noninteger_exponent_rejected():
    with pytest.raises(NonIntegerExponentError):
        g_poly(3, 3, Fraction(1, 3), Fraction(1, 2), 1)


@settings(deadline=None)
@given(st.integers(1, 5), st.integers(0, 6), st.integers(0, 6),
       st.integers(0, 4), st.integers(0, 4))
def test_g_poly_symmetry(K, N, M, a, b):
    assert g_poly(N, M, a, b, K) == g_poly(M, N, b, a, K)


def test_g_poly_recurrences():
    for K in (1, 2, 3):
        for N in range(1, 5):
            for M in range(1, 5):
                for alpha in (1, 2):
                    for beta in (1, 2):
                        g = g_poly(N, M, alpha, beta, K)
                        assert g == g_poly(N, M - 1, alpha, beta, K) + \
                            g_poly(N - 1, M, alpha + 1, beta - 1, K).scale(M)
                        assert g == g_poly(N - 1, M, alpha, beta, K) + \
                            g_poly(N, M - 1, alpha - 1, beta + 1, K).scale(N)


def test_g_poly_inversion():
    for K in (2, 3):
        for N in range(0, 5):
            for M in range(0, 5):
                for alpha in (1, 2):
                    for beta in (1, 2):
                        lhs = g_poly(N, M, alpha, beta, K).inverse_q()
                        rhs = g_poly(N, M, K - alpha - N + M,
                                     K - beta + N - M, K).scale(-M * N)
                        assert lhs == rhs


def test_d_poly_is_g_specialization():
    for K in (1, 2, 3):
        for N in range(0, 5):
            for M in range(0, 5):
                for alpha in (1, 2):
                    for beta in (1, 2):
                        assert d_poly(2 * K, K, N, M, alpha, beta) == \
                            g_poly(N, M, alpha, beta, K)


def test_d_poly_empty_board():
    assert d_poly(4, 2, 0, 0, 1, 1) == LaurentPoly.one()


def test_borwein_split_examples():
    a0, b0, c0 = borwein_split(0)
    assert (a0, b0, c0) == (LaurentPoly.one(), LaurentPoly.zero(),
                            LaurentPoly.zero())
    a1, b1, c1 = borwein_split(1)
    assert a1 == lp({0: 1, 1: 1})
    assert b1 == LaurentPoly.one()
    assert c1 == LaurentPoly.one()


def test_borwein_split_reconstruction():
    for n in range(0, 9):
        an, bn, cn = borwein_split(n)
        prod = LaurentPoly.one()
        for k in range(1, n + 1):
            prod = prod * lp({0: 1, 3 * k - 2: -1}) * lp({0: 1, 3 * k - 1: -1})
        rec = subs_power(an, 3) - subs_power(bn, 3).scale(1) \
            - subs_power(cn, 3).scale(2)
        assert rec == prod


def borwein_split_from_one(n):
    """The residue split of (q,q^2;q^3)_n, built from 1 on one dense list."""
    c = [1]
    for e in range(1, 3 * n + 1):
        if e % 3:
            pad = [0] * e
            c = [u - v for u, v in zip(c + pad, pad + c)]
    return (LaurentPoly.dense(0, c[0::3]),
            LaurentPoly.dense(0, [-v for v in c[1::3]]),
            LaurentPoly.dense(0, [-v for v in c[2::3]]))


def borwein_product(n):
    """(q,q^2;q^3)_n on a dict, independent of LaurentPoly's arithmetic."""
    res = {0: 1}
    for e in range(1, 3 * n + 1):
        if e % 3:
            nxt = dict(res)
            for k, c in res.items():
                nxt[k + e] = nxt.get(k + e, 0) - c
            res = nxt
    return lp(res)


def test_borwein_split_keeps_one_product():
    # ascending, descending, repeated and interleaved calls all return the
    # split built from 1, which rebuilds the product, and only the last
    # product is kept
    expected = [borwein_split_from_one(n) for n in range(31)]
    products = [borwein_product(n) for n in range(31)]
    up = list(range(31))
    orders = [up, up[::-1], [n for n in up for _ in range(3)],
              [m for pair in zip(up, up[::-1]) for m in pair],
              random.Random(7).sample(up, len(up))]
    for order in orders:
        for n in order:
            split = borwein_split(n)
            assert split == expected[n], n
            an, bn, cn = split
            assert subs_power(an, 3) - subs_power(bn, 3).scale(1) \
                - subs_power(cn, 3).scale(2) == products[n], n
            m, coeffs, kept = qcombinat._BORWEIN_LAST
            assert m == n and kept is split
            assert LaurentPoly.dense(0, list(coeffs)) == products[n]


def test_borwein_first_part_is_g():
    for n in range(0, 11):
        an, _, _ = borwein_split(n)
        assert an == g_poly(n, n, Fraction(4, 3), Fraction(5, 3), 3)
