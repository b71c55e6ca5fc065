"""q-binomial coefficients, q-Pochhammer products, the two-binomial kernel,
the G and D alternating sums, the Borwein residue split, and the store of
packed factors that the alternating sums and the lattice sums share.

Every alternating sum goes through `qsum`, which takes its rational
exponents as integer numerators over one integer denominator and checks
each contributing term's exponent by one divmod, so invalid parameter
combinations fail loudly instead of silently rounding. `g_poly` and
`d_poly` read their parameters over that denominator from the cached
`_over_den`, and `burge.bosonic_eval` reads them off its spec, so a
repeated call builds no Fraction.

A term of `qsum` is (sign, keys, exps): a sign 1 or -1, the keys (n, m)
of its base-1 q-binomials, and a tuple of (j, x) pairs, each the exponent
x / den of one copy of the product, j naming it in an error. A sum whose
terms j and -j have one product passes them as one term of two
exponents: `bosonic_eval` at abar = bbar = 0, whose kernel's two binomials
swap, and `g_poly` at N = M, where [2N, N-Kj] = [2N, N+Kj]. `d_poly`
passes both of its parts, with their signs, to one call (on a
DegreeLimitError it sums them apart, so the error is the two-part
sum's). The sum runs on Kronecker-packed ints (see qpoly): each binomial
is read packed from the factor store, a term's product is one bigint
product, q^e a shift by whole words, and the total is decoded once. The
word width is fixed before any product is taken. A q-binomial [n, m] has
nonnegative coefficients summing to comb(n, m), so the sum over the
exponents of the products of their comb(n, m) bounds every coefficient of
every factor, product, partial sum and of the total; a word of
`pack_width` of that bound holds them all, and no sum overflows or
restarts.

The factor store is `_PACKED_CACHE`, {w: {factor key: (lo, v, l1)}}: the
factor `_factor(key)` packed at word width w, with l1 its coefficients'
absolute sum. A key is a qbin key (n, m, base) with m <= n - m (see
`_qkey`) or a tagged key of the lattice limits (see `_factor`). `qsum` and
the lattice engine of `fermionic` read one store, so a binomial packed at
one width by either is packed once.

`_sweep` is the one step of a division of a packed row in z by
prod_k (1 - z q^(e_k)): by the q-binomial theorem, both the tree walk of
`burge` and the lattice rows of `fermionic` are numerators divided by
(z;q)_(2L+1), and the two modules import nothing from each other.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import comb, lcm
from operator import lshift

from .qpoly import (DegreeLimitError, LaurentPoly, TruncatedSeries, _check_span,
                    pack, pack_width, unpack)

# memos: qbin keyed (n, m, base) with base >= 1 and m <= n - m, q_poch keyed
# n; values immutable, concurrent re-insert harmless
_QBIN_CACHE = {}
_POCH_CACHE = {}
_ONE = LaurentPoly.one()  # [n, 0], shared like the memoized values
# the factor store: packed factors by word width, then by factor key; see
# the module docstring and _packed
_PACKED_CACHE = {}
_ONE_KEY = (0, 0, 1)  # [n, 0] = 1

# Largest degree base*m*(n-m) that qbin builds, and largest series order T
# of eval_limit_both; larger requests raise DegreeLimitError before any
# work. The catalogue and tests stay at or below degree 625 ([50, 25]).
# qbin keeps only rows of the requested n, so at this limit the cost is the
# work, not the memo: on a 2-CPU x86-64 VM a cold [100, 50] takes 0.01 s
# and 8 MB (the 50 memoized [100, j]), a cold [2501, 1] 0.2 ms and under
# 1 MB.
QBIN_MAX_DEGREE = 2_500


class NonIntegerExponentError(ValueError):
    """An alternating sum produced a fractional q-exponent at a contributing term."""


def _degree_error(n, m, base):
    """The DegreeLimitError of qbin(n, m, base), m <= n - m."""
    return DegreeLimitError(f"qbin({n}, {m}, base={base}) has degree "
                            f"{abs(base) * m * (n - m)} > {QBIN_MAX_DEGREE}")


def _times_one_minus(c, e):
    """Dense coefficients of (1 - x^e) times those of c, by one shifted subtraction."""
    pad = [0] * e
    return [u - v for u, v in zip(c + pad, pad + c)]


def qbin(n, m, base=1):
    """Gaussian binomial [n choose m] in q**base; 0 when m < 0 or n-m < 0.

    For base >= 1 it is the product form (G. E. Andrews, The Theory of
    Partitions, 1976, ch. 3) in x = q**base,
        [n, m] = prod_{i=1..m} (1 - x^(n-m+i)) / (1 - x^i),
    built on one dense coefficient list by the steps
    [n, j] = [n, j-1] (1 - x^(n-j+1)) / (1 - x^j): a shifted subtraction,
    then a strided running sum. The chain starts at the largest memoized
    [n, k] with k < m, or at [n, 0] = 1, and memoizes each [n, j] it
    builds; no row below n is kept. Every division is checked to be exact
    (the top j coefficients of the quotient must vanish), else
    ArithmeticError. Base 0 is the constant comb(n, m); a negative base is
    qbin(n, m, -base).inverse_q(). Raises DegreeLimitError (a ValueError)
    when the degree |base|*m*(n-m) exceeds QBIN_MAX_DEGREE, before any work.
    """
    if m < 0 or n - m < 0:
        return LaurentPoly.zero()
    m = min(m, n - m)
    if abs(base) * m * (n - m) > QBIN_MAX_DEGREE:
        raise _degree_error(n, m, base)
    if base <= 0:
        if base == 0:
            return LaurentPoly.monomial(0, comb(n, m))
        return qbin(n, m, -base).inverse_q()
    if m == 0:
        return _ONE
    hit = _QBIN_CACHE.get((n, m, base))
    if hit is not None:
        return hit
    k = m - 1
    while k and (n, k, base) not in _QBIN_CACHE:
        k -= 1
    # c[i] is the coefficient of x^i
    c = _QBIN_CACHE[n, k, base].coeffs[::base] if k else [1]
    for j in range(k + 1, m + 1):
        c = _times_one_minus(c, n - j + 1)
        for r in range(j):
            c[r::j] = accumulate(c[r::j])
        if any(c[-j:]):
            raise ArithmeticError(f"qbin({n}, {j}, base={base}): "
                                  f"inexact division by 1 - q^{base * j}")
        del c[-j:]
        spread = [0] * (base * len(c) - base + 1)
        spread[::base] = c
        res = LaurentPoly.dense(0, spread)
        _QBIN_CACHE[n, j, base] = res
    return res


def q_poch(n):
    """(q; q)_n = prod_{k=1..n} (1 - q^k); empty product for n=0. Built like
    qbin on one dense list, one `_times_one_minus` step per factor from the
    largest memoized k <= n, memoizing each step. DegreeLimitError when
    n(n+1)/2 > QBIN_MAX_DEGREE, before any work."""
    if n < 0:
        raise ValueError("q_poch requires n >= 0")
    if n * (n + 1) // 2 > QBIN_MAX_DEGREE:
        raise DegreeLimitError(f"q_poch({n}) has degree "
                               f"{n * (n + 1) // 2} > {QBIN_MAX_DEGREE}")
    if n == 0:
        return _ONE
    k = n
    while k and k not in _POCH_CACHE:
        k -= 1
    c = _POCH_CACHE[k].coeffs if k else [1]
    for j in range(k + 1, n + 1):
        c = _times_one_minus(c, j)
        _POCH_CACHE[j] = LaurentPoly.dense(0, c)
    return _POCH_CACHE[n]


def b_kernel(L, M, a, b):
    """The doubly-bounded kernel [L+M+a-b, L+a] * [L+M-a+b, L-a].

    Vanishes unless |a| <= L and |b| <= M.
    """
    return qbin(L + M + a - b, L + a) * qbin(L + M - a + b, L - a)


def _qkey(n, m, base=1):
    """The factor key of qbin(n, m, base), None when it vanishes."""
    if m < 0 or m > n:
        return None
    m = min(m, n - m)
    return (n, m, base) if m else _ONE_KEY


@cache
def _factor(key):
    """The polynomial a factor key names: a qbin key (n, m, base);
    ("mid", n, x) for [n, x] (q)_(n-x); ("inv", base, k, T) for
    1/(q^base; q^base)_k mod q^(T+1)."""
    if key[0] == "mid":
        return qbin(key[1], key[2]) * q_poch(key[1] - key[2])
    if key[0] == "inv":
        _, base, k, order = key
        s = TruncatedSeries.from_factors([(base * i, -1) for i in range(1, k + 1)],
                                         order)
        return LaurentPoly.dense(0, s.coeffs)
    return qbin(*key)


class _Overflow(Exception):
    """A coefficient bound reached 2^(w-1); args[0] is the bound."""


def _packed(key, w):
    """(lo, v, l1) of the factor `key` packed at word width w and stored in
    _PACKED_CACHE[w]: p = v(2^w) q^lo with l1 = ||p||_1. Raises _Overflow
    when l1 >= 2^(w-1). The factor is built once by the cached `_factor`
    (a qbin key gets the qbin memo's own polynomial), so every width packs
    the same stored coefficients."""
    p = _factor(key)
    l1 = sum(map(abs, p.coeffs))
    if l1 >> (w - 1):
        raise _Overflow(l1)
    f = _PACKED_CACHE.setdefault(w, {})[key] = p.lo, pack(p.coeffs, w), l1
    return f


def _sweep(sums, ones, shifts, v, l1, w):
    """One column of a row N(z) / prod_k (1 - z q^(e_k)) in z, on values
    packed at width w, all at one lowest exponent: sums[k] and ones[k] hold
    the running sum S_k(n-1) and its l1, (v, l1) is the numerator's z^n
    coefficient S_(-1)(n), and shifts[k] is e_k w. Updates them in place
    to S_k(n) = S_(k-1)(n) + q^(e_k) S_k(n-1) and returns the column
    S_(K-1)(n) with its l1 (the numerator's coefficient when K = 0).
    Raises _Overflow when that l1 reaches 2^(w-1); with nonnegative
    coefficients it then bounds every running sum too."""
    sums[:] = accumulate(map(lshift, sums, shifts), initial=v)
    ones[:] = accumulate(ones, initial=l1)
    if ones[-1] >> (w - 1):
        raise _Overflow(ones[-1])
    col = sums[-1], ones[-1]
    del sums[0], ones[0]
    return col


def qsum(den, terms, context):
    """The sum of sign * q^(x / den) * prod [n, m] over the terms
    (sign, keys, exps) of the list `terms` and the (j, x) in each exps: den
    >= 1 and each numerator x are ints, sign is 1 or -1 and keys holds the
    (n, m) of the term's base-1 q-binomials (see the module docstring).

    Term by term, in order: each key's qbin degree guard (DegreeLimitError,
    as qbin raises it), then, unless a key vanishes (m < 0 or m > n), which
    skips the term unchecked, one divmod by den per exponent: a nonzero
    remainder raises NonIntegerExponentError naming context(), a callable
    called only then, and j. With each exponent the span of the terms so
    far is checked against qpoly.MAX_SPAN, before any shift is taken. When
    a check fails and some term has several exponents, the checks run
    again with each exponent a term of its own, in ascending j, so that the
    error is the one the unpaired sum in ascending j raises, whatever order
    the pairs come in. The terms are summed packed, at the one width that
    their l1 bound fixes, one product per term, and the total is decoded
    once; one exponent of at most one factor has nothing to add, so it is
    that factor, scaled.
    """
    live, bound, lo, hi = [], 0, None, None
    try:
        for sign, keys, exps in terms:
            factors, l1, deg = [], 1, 0
            for n, m in keys:
                if m < 0 or m > n:
                    l1 = 0
                elif m := min(m, n - m):
                    if m * (n - m) > QBIN_MAX_DEGREE:
                        raise _degree_error(n, m, 1)
                    factors.append((n, m, 1))
                    l1 *= comb(n, m)
                    deg += m * (n - m)
            if not l1:
                continue
            es = []
            for j, x in exps:
                e, r = divmod(x, den)
                if r:
                    raise NonIntegerExponentError(
                        f"non-integer exponent {e + Fraction(r, den)} in {context()} at j={j}")
                if lo is None:
                    lo, hi = e, e + deg
                else:
                    if e < lo:
                        lo = e
                    if e + deg > hi:
                        hi = e + deg
                    _check_span(hi - lo + 1)
                es.append(e)
            bound += l1 * len(es)
            live.append((es, sign, factors))
    except (DegreeLimitError, NonIntegerExponentError):
        if any(len(exps) > 1 for _, _, exps in terms):
            qsum(den, sorted(((sign, keys, (jx,)) for sign, keys, exps in terms for jx in exps),
                             key=lambda term: term[2][0][0]), context)
        raise
    if len(live) == 1 and len(live[0][0]) == 1 and len(live[0][2]) < 2:
        (e,), sign, factors = live[0]  # no sum to take: one term, scaled
        return (_factor(factors[0]) if factors else _ONE).scale(e, sign)
    if not live:
        return LaurentPoly.zero()
    w = pack_width(bound)
    memo = _PACKED_CACHE.setdefault(w, {})
    total = 0
    for es, sign, factors in live:
        v = 1
        for key in factors:
            v *= (memo.get(key) or _packed(key, w))[1]
        if sign < 0:
            v = -v
        for e in es:
            total += v << (w * (e - lo))
    return LaurentPoly.dense(lo, unpack(total, w))


@cache
def _over_den(*xs):
    """(numerators, den): xs, each an int, a Fraction or what Fraction
    takes, as integer numerators over den, their least common denominator.
    Cached, so a repeated call builds no Fraction."""
    fs = [Fraction(x) for x in xs]
    den = lcm(*(f.denominator for f in fs))
    return tuple(f.numerator * (den // f.denominator) for f in fs), den


def g_poly(N, M, alpha, beta, K):
    """Alternating sum sum_j (-1)^j q^(K j ((a+b)j + a-b)/2) [M+N, N-Kj].

    alpha, beta may be Fractions as long as every contributing exponent is
    an integer; otherwise NonIntegerExponentError is raised. At N = M the
    terms j and -j share their binomial [2N, N-Kj] = [2N, N+Kj], so each
    such pair is one product.
    """
    if K <= 0:
        raise ValueError("K must be a positive integer")
    (A, B), den = _over_den(alpha, beta)
    S, D = K * (A + B), K * (A - B)
    n = M + N
    # [M+N, N-Kj] vanishes unless -M <= Kj <= N
    if N == M:  # j and -j from the outside in
        terms = [(-1 if j % 2 else 1, ((n, N + K * j),),
                  ((-j, (S * j - D) * j), (j, (S * j + D) * j)))
                 for j in range(N // K, 0, -1)] + [(1, ((n, N),), ((0, 0),))]
    else:
        terms = [(-1 if j % 2 else 1, ((n, N - K * j),), ((j, (S * j + D) * j),))
                 for j in range(-(M // K), N // K + 1)]
    return qsum(2 * den, terms, lambda: f"g_poly(N={N},M={M},alpha={Fraction(alpha)},"
                                        f"beta={Fraction(beta)},K={K})")


def d_poly(K, i, N, M, alpha, beta):
    """Two-part alternating sum for the hook-difference generating function.

    sum_j q^(j((a+b)Kj + Kb - (a+b)i)) [M+N, M-Kj]
         - q^(((a+b)j+b)(Kj+i)) [M+N, M-Kj-i],
    one packed sum: the first part's terms in ascending j, then the
    second's, so a NonIntegerExponentError names the first offending term
    of the first part that has one.
    """
    if K <= 0:
        raise ValueError("K must be a positive integer")
    (A, B), den = _over_den(alpha, beta)
    S, n = A + B, M + N
    context = lambda: (f"d_poly(K={K},i={i},N={N},M={M},"
                       f"alpha={Fraction(alpha)},beta={Fraction(beta)})")
    # [M+N, M-u] vanishes unless -N <= u <= M; u = Kj, then u = Kj+i
    first = [(1, ((n, M - K * j),), ((j, (S * K * j + K * B - S * i) * j),))
             for j in range(-(N // K), M // K + 1)]
    second = [(-1, ((n, M - K * j - i),), ((j, (S * j + B) * (K * j + i)),))
              for j in range(-((N + i) // K), (M - i) // K + 1)]
    try:
        return qsum(den, first + second, context)
    except DegreeLimitError:
        # the one sum checks the span of both parts together term by term,
        # where each part's sum checks its own and their difference the
        # two: evaluated apart, the parts raise the error (or, when their
        # ends cancel, return the value) of the two-part sum
        return qsum(den, first, context) - qsum(den, second, context)


def _residue_split(c):
    """(A, B, C) from the dense coefficients c of A(q^3) - q B(q^3) - q^2 C(q^3)."""
    return (LaurentPoly.dense(0, c[0::3]),
            LaurentPoly.dense(0, [-v for v in c[1::3]]),
            LaurentPoly.dense(0, [-v for v in c[2::3]]))


# borwein_split's last (n, dense coefficients of (q,q^2;q^3)_n, split),
# extended by a larger n: at n = 30 the product and its split hold about
# 0.19 MB, where keeping all 31 would hold about 1.9 MB (tracemalloc)
_BORWEIN_LAST = (0, [1], _residue_split([1]))


def borwein_split(n):
    """Split (q,q^2;q^3)_n by exponent residue mod 3.

    Returns (A, B, C) with the exact reconstruction
    (q,q^2;q^3)_n = A(q^3) - q B(q^3) - q^2 C(q^3).
    The last product is kept: the same n returns its split, a larger n
    extends it by the factors (1 - q^(3j-2))(1 - q^(3j-1)), and a smaller
    n starts again from 1.
    """
    global _BORWEIN_LAST
    if n < 0:
        raise ValueError("n must be >= 0")
    m, c, split = _BORWEIN_LAST
    if n == m:
        return split
    if n < m:
        m, c = 0, [1]
    for j in range(m + 1, n + 1):
        c = _times_one_minus(_times_one_minus(c, 3 * j - 2), 3 * j - 1)
    split = _residue_split(c)
    _BORWEIN_LAST = (n, c, split)
    return split
