"""q-binomial coefficients, q-Pochhammer products, the two-binomial kernel,
the G and D alternating sums, and the Borwein residue split.

All results are exact LaurentPoly values. Every alternating sum goes through
`qsum`, which takes its rational quadratic exponent as integer numerators
over one integer denominator and checks each contributing term's exponent
by one divmod, so invalid parameter combinations fail loudly instead of
silently rounding. The callers put their Fraction parameters over that
denominator once, at entry.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, lcm

from .qpoly import DegreeLimitError, LaurentPoly

# memos: qbin keyed (n, m, base) with base >= 1 and m <= n - m, q_poch keyed
# n; values immutable, concurrent re-insert harmless
_QBIN_CACHE = {}
_POCH_CACHE = {}
_ONE = LaurentPoly.one()  # [n, 0], shared like the memoized values

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
        raise DegreeLimitError(f"qbin({n}, {m}, base={base}) has degree "
                               f"{abs(base) * m * (n - m)} > {QBIN_MAX_DEGREE}")
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


def qsum(quad, den, terms, context):
    """The sum of sign * q^((n2 j^2 + n1 j + n0) / den) * p over the
    (j, sign, p) in terms, where quad = (n2, n1, n0) and den >= 1 are ints.

    Each nonzero p costs one integer evaluation and one divmod by den. A
    nonzero remainder raises NonIntegerExponentError naming context(), a
    callable called only then, and j. A zero p is skipped unchecked: a
    fractional exponent is an error only where it contributes.
    """
    n2, n1, n0 = quad
    total = LaurentPoly.zero()
    for j, sign, p in terms:
        if p.is_zero():
            continue
        e, r = divmod((n2 * j + n1) * j + n0, den)
        if r:
            raise NonIntegerExponentError(
                f"non-integer exponent {e + Fraction(r, den)} in {context()} at j={j}")
        total = total + p.scale(e, sign)
    return total


def over_lcm(*xs):
    """(numerators, den): the ints or Fractions xs as integer numerators
    over den, the least common denominator of all of them."""
    den = lcm(*(x.denominator for x in xs))
    return tuple(x.numerator * (den // x.denominator) for x in xs), den


def g_poly(N, M, alpha, beta, K):
    """Alternating sum sum_j (-1)^j q^(K j ((a+b)j + a-b)/2) [M+N, N-Kj].

    alpha, beta may be Fractions as long as every contributing exponent is
    an integer; otherwise NonIntegerExponentError is raised.
    """
    if K <= 0:
        raise ValueError("K must be a positive integer")
    alpha, beta = Fraction(alpha), Fraction(beta)
    (A, B), den = over_lcm(alpha, beta)
    # [M+N, N-Kj] vanishes unless -M <= Kj <= N
    return qsum((K * (A + B), K * (A - B), 0), 2 * den,
                ((j, -1 if j % 2 else 1, qbin(M + N, N - K * j))
                 for j in range(-(M // K), N // K + 1)),
                lambda: f"g_poly(N={N},M={M},alpha={alpha},beta={beta},K={K})")


def d_poly(K, i, N, M, alpha, beta):
    """Two-part alternating sum for the hook-difference generating function.

    sum_j q^(j((a+b)Kj + Kb - (a+b)i)) [M+N, M-Kj]
         - q^(((a+b)j+b)(Kj+i)) [M+N, M-Kj-i].
    """
    if K <= 0:
        raise ValueError("K must be a positive integer")
    alpha, beta = Fraction(alpha), Fraction(beta)
    (A, B), den = over_lcm(alpha, beta)
    S = A + B
    context = lambda: f"d_poly(K={K},i={i},N={N},M={M},alpha={alpha},beta={beta})"
    # [M+N, M-u] vanishes unless -N <= u <= M; u = Kj, then u = Kj+i
    return qsum((S * K, K * B - S * i, 0), den,
                ((j, 1, qbin(M + N, M - K * j))
                 for j in range(-(N // K), M // K + 1)), context) - \
        qsum((S * K, S * i + K * B, B * i), den,
             ((j, 1, qbin(M + N, M - K * j - i))
              for j in range(-((N + i) // K), (M - i) // K + 1)), context)


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
