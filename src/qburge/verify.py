"""Identity catalogue, verification campaigns, positivity scanning, and the
brute-force partition oracle.

Every catalogue case computes its two sides independently and compares them
exactly (polynomial equality, or series equality to the requested order).
Product sides of series cases are themselves computed two independent ways
(factor expansion vs. triple-product sum) and must agree before use.

The explicit displays (the (n, i) double sums, the (7,5) and (7,2)
quadruple sums, the Andrews-Gordon multisum, the closing Section 8
display) are independent transcription oracles: each is written out term
by term in its own function and calls no evaluator it checks. A term is
an exponent, a sign and the tuple of its q-binomials, not their product.
The displays share only their loop: `_total` sums sign q^e prod(factors)
on Kronecker-packed ints (see qpoly), each distinct factor packed once per
call and the total decoded once, and `_series_total` sums
q^e prod(factors) / prod_k (1 - q^k) truncated at the order, one
`_total` and one chain of divisions per denominator. Neither calls
`qcombinat`, `burge` or `fermionic`.
A catalogue case takes its params as keyword arguments. Cases that differ
only in data are registered from tables: the lattice cases by family
(`_LATTICE`, which the grid suites read too), the double-limit series
cases (`_SERIES`) and the (7,5) and (7,2) displays (`_DISPLAYS`).
"""

from __future__ import annotations

import time
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, gcd, isqrt, prod

from .qpoly import (DegreeLimitError, LaurentPoly, TruncatedSeries, _bias, _check_span,
                    first_poly_difference, first_series_difference,
                    pack, pack_width, unpack)
from .qcombinat import qbin, g_poly, d_poly, borwein_split
from .fermionic import (eval_F, eval_f, eval_H, eval_I, eval_limit_M,
                        eval_limit_L, eval_limit_both)
from .burge import (bosonic_eval, spec_main, spec_recip, spec_even,
                    spec_shifted, shifted_bar, tree_walk, BosonicSpec)


# ---------------------------------------------------------------------------
# report types

# kind: polynomial | truncated-series | positivity; sides: params dict ->
# (lhs, rhs), or for kind positivity the polynomial to scan; a registered
# case takes the params as keyword arguments
IdentityCase = namedtuple("IdentityCase", "id kind description param_domain sides")


class VerifyReport(namedtuple("VerifyReport",
                              "case params status first_diff_exponent "
                              "lhs_coeff rhs_coeff elapsed_ms",
                              defaults=(None, None, None, 0.0))):
    """One checked identity; status is pass or fail."""

    __slots__ = ()

    def key(self):
        return (self.case, tuple(sorted(self.params.items())))


# first_negative: (exponent, coefficient)
PositivityReport = namedtuple("PositivityReport",
                              "case params nonneg first_negative", defaults=(None,))


def positivity_scan(p, case="", params=None):
    """Report the first negative coefficient of a Laurent polynomial, if any."""
    neg = p.min_negative()
    return PositivityReport(case, dict(params or {}), neg is None, neg)


# ---------------------------------------------------------------------------
# product-side series, computed two independent ways

def _jtp_series(x, z, order):
    """(q^x, q^(z-x), q^z; q^z)_inf via the triple-product sum
    sum_j (-1)^j q^(x j + z j(j-1)/2), truncated; 0 <= x < z.

    With x < z the exponent at j = +-k is at least z k(k-1)/2, which
    exceeds order once k >= isqrt(2 order // z) + 2, so the terms with
    |j| <= isqrt(2 order // z) + 1 are all of them."""
    s = TruncatedSeries(order)
    r = isqrt(2 * order // z) + 1
    for j in range(-r, r + 1):
        e = x * j + z * j * (j - 1) // 2
        if e <= order:
            s.coeffs[e] += -1 if j % 2 else 1
    return s


def product_series(x, y, z, order):
    """(q^x, q^y, q^z; q^z)_inf / (q)_inf with y = z - x, cross-checked: the
    factor product is checked against the triple-product sum before the one
    division by (q)_inf, which is one-to-one and keeps the lowest exponent
    at which two series differ."""
    if y != z - x:
        raise ValueError("product_series expects y = z - x")
    s = TruncatedSeries.from_factors([(e, 1) for n in range(order // z + 1)
                                      for e in (x + n * z, y + n * z, z + n * z)], order)
    d = first_series_difference(s, _jtp_series(x, z, order))
    if d is not None:
        raise AssertionError(f"product-side self-check failed at q^{d}")
    for e in range(1, order + 1):
        s = s.div_one_minus(e)
    return s


# ---------------------------------------------------------------------------
# partition oracle

# most partitions the oracle enumerates in one box. A box is indexed once
# at about 2.6 us a partition (11 x 11, 705,432 partitions, in 1.8 s;
# Python 3.11, 2-CPU VM), so about 2.6 s at the limit, and a query of an
# indexed box takes 25-50 us; the default campaign's largest box, 6 x 6,
# holds 924 and is indexed in 2.4 ms
ORACLE_MAX_PARTITIONS = 1_000_000


def check_oracle_box(N, M):
    """Raise DegreeLimitError if the N x M box holds more than
    ORACLE_MAX_PARTITIONS partitions."""
    size = comb(N + M, N)
    if size > ORACLE_MAX_PARTITIONS:
        raise DegreeLimitError(f"the {N} x {M} box holds {size} partitions "
                               f"> {ORACLE_MAX_PARTITIONS}")


@lru_cache(maxsize=256)
def _hook_index(N, M, alpha, beta):
    """One enumeration of the N x M box by the hook-difference definition:
    a dict from (lowest hook difference on diagonal 1-beta, highest on
    diagonal alpha-1), None for a diagonal with no node, to the dense list
    of the counts of those partitions by weight. The memo holds all 252
    boxes of the hookp suite at lm_max = 11, the largest budget that
    ORACLE_MAX_PARTITIONS admits (132 at the default budget).

    The hook difference at node (r, c) is lam_r - lam'_c; row r's node on
    diagonal 1-beta is (r, r+beta-1), on diagonal alpha-1 (r, r-alpha+1).
    A depth-first walk adds rows top down. A partition of r rows, last
    part p, has lam'_c known for the closed columns c > p; a next part
    q < p closes columns q+1..p at lam'_c = r, and the partition itself
    closes columns 1..p at r. The nodes in a block of newly closed
    columns have hook differences lam_r' - r, and lam is nonincreasing, so
    the lowest on diagonal 1-beta is at the block's last row and the
    highest on diagonal alpha-1 at its first: O(1) per partition.
    """
    k = beta - 1
    none = N + M  # beyond every hook difference, which lies in (-M, N)
    index = {}
    # (parts, last part, weight, lowest and highest over closed columns)
    stack = [([], N, 0, none, -none)]
    while stack:
        lam, p, w, low, high = stack.pop()
        r = len(lam)
        m = min(p - k, r)  # last row with a diagonal 1-beta node in 1..p
        low_all = min(low, lam[m - 1] - r) if m >= 1 else low
        high_all = max(high, lam[alpha - 1] - r) if r >= alpha else high
        counts = index.get((low_all, high_all))
        if counts is None:
            counts = index[low_all, high_all] = [0] * (N * M + 1)
        counts[w] += 1
        if r < M:
            # columns q+1..p: diagonal 1-beta nodes in rows q+2-beta..m,
            # diagonal alpha-1 nodes from row q+alpha
            stack.extend((lam + [q], q, w + q, low_all if q - k < m else low,
                          max(high, lam[q + alpha - 1] - r)
                          if q < p and q + alpha <= r else high)
                         for q in range(1, p + 1))
    return {(None if low == none else low, None if high == -none else high):
            counts for (low, high), counts in index.items()}


def partition_oracle(K, i, N, M, alpha, beta):
    """Generating function of partitions in the N x M box whose hook
    differences are >= beta-i+1 on diagonal 1-beta and <= K-alpha-i-1 on
    diagonal alpha-1; integer alpha,beta >= 1 only. The box is enumerated
    once per (N, M, alpha, beta) into a memoized index by the extreme hook
    differences on the two diagonals, and a query sums the counts of the
    pairs that meet its bounds. Raises DegreeLimitError, before
    enumerating, on a box of more than ORACLE_MAX_PARTITIONS partitions.
    """
    if alpha < 1 or beta < 1:
        raise ValueError("oracle requires integer alpha, beta >= 1")
    if not (beta - i <= N - M <= K - alpha - i):
        raise ValueError(f"(K={K},i={i},N={N},M={M}) outside beta-i <= N-M <= K-alpha-i")
    check_oracle_box(N, M)
    lo = beta - i + 1
    hi = K - alpha - i - 1
    kept = [counts for (low, high), counts
            in _hook_index(N, M, alpha, beta).items()
            if (low is None or low >= lo) and (high is None or high <= hi)]
    return LaurentPoly.dense(0, [sum(col) for col in zip(*kept)])


# ---------------------------------------------------------------------------
# explicit sum sides used as independent transcription oracles
# each sum runs its indices over its binomials' support alone (the alternating
# ones through the j range they pass to _qbin_altsum), so none of the terms it
# builds vanishes

def _total(terms):
    """Sum of sign * q^e * prod(factors) over the (e, sign, factors) triples
    of terms, sign 1 or -1 and factors a tuple of LaurentPolys with
    nonnegative coefficients (the term's q-binomials, not their product); a
    term with a zero factor is skipped, and a factor with a negative
    coefficient raises ValueError.

    The sum runs on Kronecker-packed ints (see qpoly). A first pass reads
    each term's span and its l1 bound prod p(1) over its factors (p(1) is
    ||p||_1 for nonnegative coefficients) and checks the total span against
    MAX_SPAN, so DegreeLimitError comes before anything is packed. The sum
    of the terms' bounds bounds every coefficient of every product and of
    the total, so one word of `pack_width` of that bound holds them all.
    Each distinct factor is packed once, by `pack`: `qbin` returns memoized
    objects, so a factor is known by its id, and the dict that keys it
    holds the factor, so no id is reused during the call. A factor with a
    negative coefficient is caught by the top bits of its packed words,
    with no scan of its list. Each term is one product of ints, added
    shifted by whole words, and the total is decoded once; a sum of one
    term of one factor is that factor, scaled."""
    seen = {}  # id(factor) -> (factor, l1, lowest exponent, highest)
    live, bound, lo, hi = [], 0, None, None
    for e, sign, factors in terms:
        l1, top = 1, e
        for f in factors:
            got = seen.get(id(f))
            if got is None:
                c = f.coeffs
                got = seen[id(f)] = f, sum(c), f.lo, f.lo + len(c) - 1
                if c and got[1] <= 0:
                    raise ValueError("_total: a factor with a negative coefficient")
            l1 *= got[1]
            e += got[2]
            top += got[3]
        if l1:
            bound += l1
            if lo is None:
                lo, hi = e, top
            else:
                if e < lo:
                    lo = e
                if top > hi:
                    hi = top
            live.append((e, sign, factors))
    if lo is None:
        return LaurentPoly.zero()
    if len(live) == 1 and len(live[0][2]) == 1:  # nothing to multiply or add
        e, sign, (f,) = live[0]
        return f.scale(e - f.lo, sign)
    _check_span(hi - lo + 1)
    w = pack_width(bound)
    # a factor of a live term has p(1) <= bound; one with more is in no live
    # term and is not packed. A nonnegative factor's coefficients are at most
    # its p(1) < 2^(w-1), so none of its words has its top bit (`tops`, one
    # per word of the span) set; a negative coefficient sets the top bit of
    # its word, or leaves the factor too wide to pack (OverflowError)
    tops, packed = _bias(hi - lo + 1, w), {}
    try:
        for k, (f, l1, _, _) in seen.items():
            if 0 < l1 <= bound and (packed.setdefault(k, pack(f.coeffs, w)) & tops):
                raise OverflowError
    except OverflowError:
        raise ValueError("_total: a factor with a negative coefficient") from None
    total = 0
    for e, sign, factors in live:
        v = prod(map(packed.__getitem__, map(id, factors))) << (w * (e - lo))
        if sign < 0:
            total -= v
        else:
            total += v
    return LaurentPoly.dense(lo, unpack(total, w))


def _sum_bnewp(L, M):
    return _total((n * n, 1, (qbin(2 * L + M - n, 2 * L), qbin(L, n)))
                  for n in range(0, min(L, M) + 1))


def _sum_bnewp2(L, M):
    return _total((n * n, 1, (qbin(2 * L + M - n - 1, 2 * L - 1), qbin(L - 1, n)))
                  for n in range(0, min(L - 1, M) + 1))


def _sum_comp(L, M, shift=0):
    # shift=0: right side of the n(n+1) companion; shift=1: its +1 variant
    return _total((n * (n + 1), 1, (qbin(2 * L + M - n + shift, 2 * L + 1), qbin(L, n)))
                  for n in range(0, min(L, M + shift - 1) + 1))


def _qbin_altsum(lo, hi, term):
    """Sum over lo <= j <= hi of (-1)^j q^e prod(factors), where term(j) =
    (e, factors), summed by `_total` with the sign of j.

    Each display passes its own support: the j at which every binomial of
    its factors can be nonzero ([n, k] needs 0 <= k <= n; the kernel pair
    [L+M+a-b, L+a] [L+M-a+b, L-a] needs |a| <= L and |b| <= M). The range
    is empty, as is the sum, when L or M is negative."""
    return _total((e, -1 if j % 2 else 1, factors)
                  for j in range(lo, hi + 1) for e, factors in [term(j)])


def _lhs_comp(L, M):
    # j(5j+3) is even for every j (5j+3 is even when j is odd)
    # -(L+1)/2 <= j <= M-1 and -M <= j <= L/2
    return _qbin_altsum(max(-M, -((L + 1) // 2)), min(M - 1, L // 2), lambda j: (
        j * (5 * j + 3) // 2,
        (qbin(L + M + j, M - j - 1), qbin(L + M - j, M + j))))


def _lhs_comp2(L, M):
    # -(L+1)/2 <= j <= M and -M <= j <= L/2
    return _qbin_altsum(max(-M, -((L + 1) // 2)), min(M, L // 2), lambda j: (
        j * (5 * j + 3) // 2,
        (qbin(L + M + j + 1, M - j), qbin(L + M - j, M + j))))


def _lhs_brep(L, M):
    # -L/2 <= j <= M and -M <= j <= (L-1)/2
    return _qbin_altsum(max(-M, -(L // 2)), min(M, (L - 1) // 2), lambda j: (
        j * (5 * j + 1) // 2,
        (qbin(L + M + j, M - j), qbin(L + M - j - 1, M + j))))


def _lhs_rr1(L):
    # |3j| <= L
    return _qbin_altsum(-(L // 3), L // 3, lambda j: (
        j * (5 * j + 1) // 2, (qbin(2 * L, L - 3 * j),)))


def _rhs_rr1(L):
    return _total((n * n + i * (L + n), 1,
                   (qbin(2 * L - 2 * i - n, n), qbin(L - i - n, i)))
                  for i in range(0, L // 2 + 1) for n in range(0, L - 2 * i + 1))


def _lhs_rr2(L):
    # -(L+1) <= 3j <= L-1
    return _qbin_altsum(-((L + 1) // 3), (L - 1) // 3, lambda j: (
        j * (5 * j + 3) // 2, (qbin(2 * L, L - 3 * j - 1),)))


def _rhs_rr2(L):
    return _total((n * (n + 1) + i * (L + n + 1), 1,
                   (qbin(2 * L - 2 * i - n - 1, n), qbin(L - i - n - 1, i)))
                  for i in range(0, L // 2 + 1) for n in range(0, L - 2 * i))


def _rhs_f31_display(L, M):
    # (3,1) double sum: second doubly-bounded first-Rogers-Ramanujan analogue
    return _total((n * n + i * (L + n), 1,
                   (qbin(2 * L + M - n - i, 2 * L), qbin(2 * L - 2 * i - n, n),
                    qbin(L - i - n, i)))
                  for i in range(0, min(L // 2, M) + 1)
                  for n in range(0, min(L - 2 * i, M - i) + 1))


def _rhs_ab32_display(L, M):
    return _total((i * i + n * n, 1,
                   (qbin(2 * L + M - i, 2 * L), qbin(L + i - n - 1, 2 * i - 1),
                    qbin(i - 1, n)))
                  for i in range(1, min(L, M) + 1) for n in range(0, min(i - 1, L - i) + 1))


def _lhs_ab32(L, M):
    # the kernel at (a, b) = (3j+1, 2j+1); |3j+1| <= L and |2j+1| <= M
    return _qbin_altsum(max(-((L + 1) // 3), -((M + 1) // 2)),
                        min((L - 1) // 3, (M - 1) // 2), lambda j: (
        j * (13 * j + 9) // 2 + 1,
        (qbin(L + M + j, L + 3 * j + 1), qbin(L + M - j, L - 3 * j - 1))))


def _lhs_rr2inv(L, M):
    # the kernel at (a, b) = (3j+1, j); |3j+1| <= L and |j| <= M
    return _qbin_altsum(max(-((L + 1) // 3), -M), min((L - 1) // 3, M), lambda j: (
        j * (7 * j + 1) // 2,
        (qbin(L + M + 2 * j + 1, L + 3 * j + 1), qbin(L + M - 2 * j - 1, L - 3 * j - 1))))


def _rhs_rr2inv_display(L, M):
    return _total(((L - m1) ** 2 + (m1 - m2 - 1) ** 2, 1,
                   (qbin(L + M + m1, 2 * L), qbin(L + m2, 2 * m1 - 1), qbin(m1 - 1, m2)))
                  for m1 in range(max(1, L - M), L + 1)
                  for m2 in range(max(0, 2 * m1 - 1 - L), m1))


def _lhs_isolated(L):
    # -(L+1) <= 2j <= L
    return _qbin_altsum(-((L + 1) // 2), L // 2, lambda j: (
        j * (5 * j + 3) // 2, (qbin(2 * L + 1, L - 2 * j),)))


def _rhs_isolated(L):
    return _total((n * (n + 1), 1, (qbin(L, n),)) for n in range(0, L + 1))


# explicit quadruple-sum transcriptions of the two on-going-example displays

def _series_total(T, terms):
    """Sum of q^e prod(factors) / prod_{k in ks} (1 - q^k) over the
    (e, factors, ks) triples of terms, truncated at order T; factors are
    as in `_total`, and a numerator with a negative exponent raises
    ValueError.

    Division by (1 - q^k) is linear, so the terms that share a denominator
    multiset ks are summed first, by `_total`, and their numerator, cut at
    q^T, goes through that denominator's one chain of divisions (a k > T
    divides nothing below q^(T+1))."""
    groups = {}
    for e, factors, ks in terms:
        groups.setdefault(tuple(sorted(ks)), []).append((e, 1, factors))
    tot = TruncatedSeries(T)
    for ks, group in groups.items():
        p = _total(group)
        if p.is_zero():
            continue
        s = TruncatedSeries.from_poly(p, T)
        for k in ks:
            if k <= T:
                s = s.div_one_minus(k)
        tot = tot + s
    return tot


def _series_display75(T, barred):
    # the binomials' support: [m1+m2-m3, 2 m2] needs m2 + m3 <= m1,
    # [m2+m3-m4, 2 m3] needs m3 + m4 <= m2, and [m3, m4] m4 <= m3
    r = isqrt(T) + 1
    return _series_total(T, (
        (e, (qbin(m1 + m2 - m3, 2 * m2), qbin(m2 + m3 - m4, 2 * m3), qbin(m3, m4)),
         range(1, 2 * m1 + 1))
        for m1 in range(0, r + 1) for m2 in range(0, m1 + 1)
        for m3 in range(0, min(r, m1 - m2) + 1) for m4 in range(0, min(m3, m2 - m3) + 1)
        if (e := m1 * m1 + (m1 - m2) ** 2 + m3 * m3
            + (m3 * m4 if barred else m4 * m4)) <= T))


def _series_display72(T, barred):
    r = isqrt(T) + 1
    return _series_total(T, (
        (e, (qbin(m3, m4),),
         (*range(1, n1 + 1), *range(1, n2 + 1), *range(1, 2 * m3 + 1)))
        for n1 in range(0, r + 1) for n2 in range(0, r + 1)
        for m3 in range(0, r + 1) for m4 in range(0, m3 + 1)
        if (e := (n1 + n2 + m3) ** 2 + (n2 + m3) ** 2 + m3 * m3
            + (m3 * m4 if barred else m4 * m4)) <= T))


def _series_agid(k, T):
    # (k-1)-fold sum with exponent N_1^2+...+N_{k-1}^2 over 1/(q)_{n_j},
    # N_j = n_j + ... + n_{k-1}, over n_1 + ... + n_{k-1} <= isqrt(T) + 1
    r = isqrt(T) + 1
    nss = [()]
    for _ in range(k - 1):
        nss = [ns + (n,) for ns in nss for n in range(r + 1 - sum(ns))]
    return _series_total(T, (
        (e, (), [kk for n in ns for kk in range(1, n + 1)])
        for ns in nss
        if (e := sum(sum(ns[j:]) ** 2 for j in range(len(ns)))) <= T))


# ---------------------------------------------------------------------------
# the catalogue

CATALOGUE = {}


def _register(id, kind, description, domain):
    def deco(fn):
        CATALOGUE[id] = IdentityCase(id, kind, description, domain,
                                     lambda params: fn(**params))
        return fn
    return deco


def _pairs(a_max, a_min=2):
    return [(a, b) for a in range(a_min, a_max + 1)
            for b in range(1, a) if gcd(a, b) == 1]


# lattice family -> (its lattice sum, the least a of its pairs, its cases,
# each (case id, left side, description)). A left side is a spec builder,
# whose spec(a, b) bosonic_eval sums, or tree_walk for the family's walk.
# _lattice_sides names bosonic_eval and tree_walk, and the lattice sums are
# lambdas, so each is looked up when a case runs: a wrapper rebound over
# this module's names (a tracer, a monkeypatch) sees every call
_LATTICE = {
    "F": (lambda *p: eval_F(*p), 2, (
        ("main", spec_main,
         "alternating kernel sum with j((2ab+1)j+1)/2 equals the F lattice sum"),
        ("main_tree", tree_walk, "transform-tree recursion reproduces the F lattice sum"))),
    "f": (lambda *p: eval_f(*p), 2, (
        ("recip", spec_recip,
         "alternating kernel sum with j((2ab-1)j+1)/2 equals the f lattice sum"),)),
    "H": (lambda *p: eval_H(*p), 3, (  # (2, 1), H's seed, is the bnewp2 case
        ("shifted", spec_shifted, "bar-shifted alternating kernel sum equals the H lattice sum"),
        ("shifted_tree", tree_walk, "transform-tree recursion reproduces the H lattice sum"))),
    "I": (lambda *p: eval_I(*p), 2, (
        ("even", spec_even,
         "alternating kernel sum with exponent ab j^2 equals the I lattice sum"),
        ("even_tree", tree_walk, "transform-tree recursion reproduces the I lattice sum"))),
}


def _lattice_sides(evaluate, family, spec, a, b, L, M):
    """bosonic_eval of spec(a, b), or the family's tree_walk if spec is
    None, and the family's lattice sum."""
    lhs = tree_walk(a, b, family, L, M) if spec is None else bosonic_eval(spec(a, b), L, M)
    return lhs, evaluate(a, b, L, M)


for family, (evaluate, a_min, cases) in _LATTICE.items():
    for cid, left, description in cases:
        _register(cid, "polynomial", description,
                  "(a,b) coprime, " + "(2,1) excluded, " * (a_min == 3) + "L,M >= 0")(
            partial(_lattice_sides, evaluate, family, None if left is tree_walk else left))


# the kernel sums of bnew and bnewp2, built once
_BNEW = BosonicSpec(1, 1, c2=Fraction(3, 2), c1=Fraction(1, 2))
_BNEWP2 = BosonicSpec(2, 1, abar=1, bbar=0, c2=Fraction(5, 2), c1=Fraction(1, 2))


@_register("bnew", "polynomial",
           "seed lemma: kernel sum with j(3j+1)/2 equals a single binomial",
           "L,M >= 0")
def _case_bnew(L, M):
    return bosonic_eval(_BNEW, L, M), qbin(L + M, M)


@_register("bnewp", "polynomial",
           "doubly-bounded first Rogers-Ramanujan analogue", "L,M >= 0")
def _case_bnewp(L, M):
    return bosonic_eval(spec_main(2, 1), L, M), _sum_bnewp(L, M)


@_register("bnewp2", "polynomial",
           "shifted-kernel doubly-bounded first Rogers-Ramanujan analogue",
           "L,M >= 0")
def _case_bnewp2(L, M):
    return bosonic_eval(_BNEWP2, L, M), _sum_bnewp2(L, M)


@_register("brep", "polynomial",
           "binomial-kernel companion of the shifted doubly-bounded analogue",
           "L,M >= 0")
def _case_brep(L, M):
    return _lhs_brep(L, M), _sum_bnewp2(L, M)


@_register("comp", "polynomial",
           "n(n+1) companion with off-kernel binomial product", "L,M >= 0")
def _case_comp(L, M):
    return _lhs_comp(L, M), _sum_comp(L, M, 0)


@_register("comp2", "polynomial",
           "second n(n+1) companion", "L,M >= 0")
def _case_comp2(L, M):
    return _lhs_comp2(L, M), _sum_comp(L, M, 1)


@_register("comp_sum", "polynomial",
           "comp2 equals comp plus q^M times the doubly-bounded analogue",
           "L,M >= 0")
def _case_comp_sum(L, M):
    lhs = _lhs_comp2(L, M)
    rhs = _lhs_comp(L, M) + bosonic_eval(spec_main(2, 1), L, M).scale(M)
    return lhs, rhs


@_register("isolated", "polynomial",
           "large-M limit of the n(n+1) companion", "L >= 0")
def _case_isolated(L):
    return _lhs_isolated(L), _rhs_isolated(L)


@_register("rr1", "polynomial",
           "single-binomial bosonic sum vs (n,i) double sum, j(5j+1)/2", "L >= 0")
def _case_rr1(L):
    return _lhs_rr1(L), _rhs_rr1(L)


@_register("rr2", "polynomial",
           "single-binomial bosonic sum vs (n,i) double sum, j(5j+3)/2", "L >= 0")
def _case_rr2(L):
    return _lhs_rr2(L), _rhs_rr2(L)


@_register("f31_display", "polynomial",
           "(3,1) barred lattice sum equals its explicit (n,i) double-sum form",
           "L,M >= 0")
def _case_f31(L, M):
    return eval_f(3, 1, L, M), _rhs_f31_display(L, M)


@_register("ab32", "polynomial",
           "(3,2) shifted kernel sum vs explicit (i,n) double sum", "L,M >= 0")
def _case_ab32(L, M):
    return _lhs_ab32(L, M), _rhs_ab32_display(L, M)


@_register("rr2inv", "polynomial",
           "(3,1) shifted kernel sum vs explicit (m1,m2) double sum", "L,M >= 0")
def _case_rr2inv(L, M):
    return _lhs_rr2inv(L, M), _rhs_rr2inv_display(L, M)


@_register("g_eq_limF", "polynomial",
           "G(L,L;b,b+1/a,a) equals the large-M limit polynomial of F",
           "(a,b) coprime, L >= 0")
def _case_g_limF(a, b, L):
    return g_poly(L, L, b, Fraction(a * b + 1, a), a), \
        eval_limit_M("F", a, b, L)


@_register("g_eq_limFt", "polynomial",
           "G(M,M;a,a+1/b,b) equals the large-L limit polynomial of F",
           "(a,b) coprime, M >= 0")
def _case_g_limFt(a, b, M):
    return g_poly(M, M, a, Fraction(a * b + 1, b), b), \
        eval_limit_L("F", a, b, M)


@_register("g_eq_limf", "polynomial",
           "G(L,L;b-1/a,b,a) equals the large-M limit polynomial of f",
           "(a,b) coprime, L >= 0")
def _case_g_limf(a, b, L):
    return g_poly(L, L, Fraction(a * b - 1, a), b, a), \
        eval_limit_M("f", a, b, L)


@_register("g_eq_limft", "polynomial",
           "G(M,M;a-1/b,a,b) equals the large-L limit polynomial of f",
           "(a,b) coprime, M >= 0")
def _case_g_limft(a, b, M):
    return g_poly(M, M, Fraction(a * b - 1, b), a, b), \
        eval_limit_L("f", a, b, M)


def _series_sides(family, offset, a, b, T):
    z = 2 * a * b + offset
    return eval_limit_both(family, a, b, T), product_series(z // 2, z - z // 2, z, T)


# family -> (modulus offset o, domain clause): the family's double limit
# equals the modulus-(2ab+o) triple product
_SERIES = {"F": (1, ""), "f": (-1, "b > 1, "), "I": (0, "")}
for family, (offset, clause) in _SERIES.items():
    _register(f"series_{family}", "truncated-series",
              f"{family}-family double limit equals the modulus-"
              f"{f'(2ab{offset:+d})' if offset else '2ab'} triple product",
              f"(a,b) coprime, {clause}order T")(partial(_series_sides, family, offset))


@_register("series_agid", "truncated-series",
           "(k-1)-fold multisum display equals the modulus-(2k+1) product",
           "k >= 2, order T")
def _case_series_agid(k, T):
    return _series_agid(k, T), product_series(k, k + 1, 2 * k + 1, T)


def _display_sides(display, barred, z, T):
    return display(T, barred), product_series(z // 2, z - z // 2, z, T)


# the explicit (7,5) and (7,2) quadruple-sum displays, unbarred (F) and
# barred (f): (case id suffix, display, barred, modulus)
_DISPLAYS = (("75F", _series_display75, False, 71), ("72F", _series_display72, False, 29),
             ("75f", _series_display75, True, 69), ("72f", _series_display72, True, 27))
for key, display, barred, z in _DISPLAYS:
    _register(f"series_display{key}", "truncated-series",
              f"explicit ({key[0]},{key[1]}) quadruple-sum display, modulus {z}",
              "order T")(partial(_display_sides, display, barred, z))


@_register("hookp", "polynomial",
           "two-part alternating sum equals the hook-difference partition count",
           "K >= 1, integer alpha,beta >= 1, beta-i <= N-M <= K-alpha-i")
def _case_hookp(K, i, N, M, alpha, beta):
    return d_poly(K, i, N, M, alpha, beta), \
        partition_oracle(K, i, N, M, alpha, beta)


def _s8_a2(n):
    # [n + m2, 2 m1] needs 2 m1 <= n + m2, so m2 >= 2 m1 - n and m1 <= n
    return _total(((n - m1) ** 2 + (m1 - m2) ** 2, 1, (qbin(n + m2, 2 * m1), qbin(m1, m2)))
                  for m1 in range(0, n + 1) for m2 in range(max(0, 2 * m1 - n), m1 + 1))


def _s8_triple(n, middle_sq):
    return _total((n * (n - m1) + (m2 * m2 + m3 * m3 if middle_sq else m2 * (m2 + m3)), 1,
                   (qbin(n, m1), qbin(m1, 2 * m2), qbin(m2, m3)))
                  for m1 in range(0, n + 1) for m2 in range(0, m1 // 2 + 1)
                  for m3 in range(0, m2 + 1))


def _s8_single(n, quad):
    return _total((quad(m), 1, (qbin(n, m),)) for m in range(n + 1))


# entry -> (alpha, beta, K, sum side of G(n, n; alpha, beta, K)); b2 is the
# one open slot of the closing display, so it is scanned for positivity only
_SECTION8 = {
    "a1": (Fraction(1, 2), Fraction(1), 2, lambda n: _s8_single(n, lambda m: m * n)),
    "a2": (Fraction(3, 3), Fraction(4, 3), 3, _s8_a2),
    "a3": (Fraction(5, 4), Fraction(6, 4), 4, lambda n: _s8_triple(n, False)),
    "b1": (Fraction(2, 2), Fraction(3, 2), 2, lambda n: _s8_single(n, lambda m: m * m)),
    "b2": (Fraction(4, 3), Fraction(5, 3), 3, None),
    "b3": (Fraction(6, 4), Fraction(7, 4), 4, lambda n: _s8_triple(n, True)),
}


@_register("section8", "polynomial",
           "closing-display identities for G(n,n;alpha,beta,K) with "
           "noninteger parameters", "entry in {a1,a2,a3,b1,b3}, n >= 0")
def _case_section8(entry, n):
    alpha, beta, K, rhs = _SECTION8[entry]
    return g_poly(n, n, alpha, beta, K), rhs(n)


# positivity cases: every coefficient of the scanned polynomial is >= 0

@_register("pos_gen", "positivity",
           "G(L,L;b,b+1/a,a) has nonnegative coefficients",
           "(a,b) coprime, L >= 0")
def _case_pos_gen(a, b, L):
    return g_poly(L, L, b, Fraction(a * b + 1, a), a)


@_register("pos_shifted", "positivity",
           "the shifted family's G(L+abar,L-abar;alpha,beta,a) has "
           "nonnegative coefficients", "(a,b) coprime, a >= 3, L >= abar")
def _case_pos_shifted(a, b, L):
    abar, bbar, one = shifted_bar(a, b)
    if one:  # b - 2 abar b / a and b + 2 abar b / a + 1/a
        alpha = Fraction(a * b - 2 * abar * b, a)
        beta = Fraction(a * b + 2 * abar * b + 1, a)
    else:  # b - 2 bbar and b + 2 bbar + 1/a
        alpha = b - 2 * bbar
        beta = Fraction(a * (b + 2 * bbar) + 1, a)
    return g_poly(L + abar, L - abar, alpha, beta, a)


@_register("pos_split", "positivity",
           "each part of the residue split of (q,q^2;q^3)_n has nonnegative "
           "coefficients", "part in {A,B,C}, n >= 0")
def _case_pos_split(part, n):
    return borwein_split(n)["ABC".index(part)]


@_register("pos_section8", "positivity",
           "G(n,n;alpha,beta,K) of the closing display has nonnegative "
           "coefficients", "entry in {a1,a2,a3,b1,b2,b3}, n >= 0")
def _case_pos_section8(entry, n):
    alpha, beta, K, _ = _SECTION8[entry]
    return g_poly(n, n, alpha, beta, K)


# ---------------------------------------------------------------------------
# campaign driver

class CampaignBudget:
    """The sizes a campaign's suites run at; FIELDS names them in order."""

    FIELDS = ("a_max", "lm_max", "n_max", "T", "pos_l_max")

    def __init__(self, a_max=5, lm_max=6, n_max=12, T=40, pos_l_max=20):
        self.a_max, self.lm_max, self.n_max = a_max, lm_max, n_max
        self.T, self.pos_l_max = T, pos_l_max


def _compare(lhs, rhs):
    """Return (status, first_diff, lc, rc)."""
    if isinstance(lhs, TruncatedSeries):
        d = first_series_difference(lhs, rhs)
        if d is None:
            return ("pass", None, None, None)
        return ("fail", d, lhs.coeffs[d], rhs.coeffs[d])
    d = first_poly_difference(lhs, rhs)
    if d is None:
        return ("pass", None, None, None)
    return ("fail", d, lhs.coeff(d), rhs.coeff(d))


def check_identity(case, params):
    """Evaluate a catalogue case and check it exactly: its two sides are
    equal, or, for a positivity case, its polynomial has no negative
    coefficient (the first one is reported against 0)."""
    if isinstance(case, str):
        case = CATALOGUE[case]
    t0 = time.perf_counter()
    if case.kind == "positivity":
        neg = case.sides(params).min_negative()
        status, d, lc, rc = ("pass", None, None, None) if neg is None \
            else ("fail", *neg, 0)
    else:
        status, d, lc, rc = _compare(*case.sides(params))
    ms = (time.perf_counter() - t0) * 1000.0
    return VerifyReport(case.id, dict(params), status, d, lc, rc, ms)


def _grid(case_ids, lm, pairs=None):
    """Checks of each case over L, M <= lm, and over (a, b) in pairs if
    given, point-major: pair, then L, then M, then the case ids. The cases
    of one point are adjacent and M runs innermost, so the lattice sums
    that the cases share are read from their row memo (see `fermionic`)."""
    heads = [{}] if pairs is None else [{"a": a, "b": b} for a, b in pairs]
    return [(cid, {**h, "L": L, "M": M}) for h in heads
            for L in range(lm + 1) for M in range(lm + 1) for cid in case_ids]


def _lattice_grid(family, bud):
    """The grid of a lattice family's cases, over its pairs with a <= a_max."""
    _, a_min, cases = _LATTICE[family]
    return _grid([cid for cid, _, _ in cases], bud.lm_max, _pairs(bud.a_max, a_min))


def _corollaries(bud):
    pairs, vs = _pairs(bud.a_max), range(bud.lm_max + 1)
    return _lattice_grid("f", bud) + \
        [(cid, {"a": a, "b": b, idx: v})
         for cid, idx in (("g_eq_limF", "L"), ("g_eq_limf", "L"),
                          ("g_eq_limFt", "M"), ("g_eq_limft", "M"))
         for a, b in pairs for v in vs] + \
        [("isolated", {"L": L}) for L in vs]


def _comp(bud):
    return _grid(("bnew", "bnewp", "bnewp2", "brep", "comp", "comp2",
                  "comp_sum", "f31_display"), bud.lm_max) + \
        [(cid, {"L": L}) for cid in ("rr1", "rr2") for L in range(bud.lm_max + 1)]


def _series(bud):
    # the Fibonacci pairs (F_k, F_{k-1}) and (F_k, F_{k-2}) at k = 5, 6 follow
    # the first five odd-modulus pairs, so (5, 3) and (5, 2) run twice
    odd = [(3, 2), (5, 2), (5, 3), (7, 2), (7, 5), (5, 3), (8, 5), (5, 2), (8, 3)]
    pairs = {"series_F": [(2, 1), (3, 1), (4, 1)] + odd, "series_f": odd,
             "series_I": [(2, 1), (3, 1), (3, 2), (5, 3)]}
    return [(cid, {"a": a, "b": b, "T": bud.T}) for cid, ps in pairs.items()
            for a, b in ps] + \
        [("series_agid", {"k": k, "T": bud.T}) for k in (2, 3, 4)] + \
        [(f"series_display{key}", {"T": bud.T}) for key, *_ in _DISPLAYS]


def _positivity(bud):
    return [("pos_gen", {"a": a, "b": b, "L": L}) for a, b in _pairs(bud.a_max)
            for L in range(bud.pos_l_max + 1)] + \
        [("pos_shifted", {"a": a, "b": b, "L": L})
         for a, b in _pairs(bud.a_max, a_min=3)
         for L in range(shifted_bar(a, b)[0], bud.pos_l_max + 1)] + \
        [("pos_split", {"part": part, "n": n}) for n in range(31) for part in "ABC"] + \
        [("pos_section8", {"entry": e, "n": n}) for e in _SECTION8
         for n in range(bud.n_max + 1)]


def _hookp(bud):
    # valid region determined by exhaustive scan: the stated window on
    # N-M plus 1 <= i <= K-1 and alpha+beta < K; outside it the
    # alternating sum picks up uncancelled wrap-around terms and stops
    # being a generating function. The range of M holds every M with a
    # valid i, so the list grows linearly in lm_max.
    return [("hookp", {"K": K, "i": i, "N": N, "M": M, "alpha": alpha,
                       "beta": beta})
            for K in (3, 4, 5) for alpha in (1, 2) for beta in (1, 2)
            if alpha + beta < K for N in range(bud.lm_max + 1)
            for M in range(max(0, N - K + alpha + 1),
                           min(bud.lm_max, N + K - 1 - beta) + 1)
            for i in range(max(1, beta - N + M),
                           min(K - 1, K - alpha - N + M) + 1)]


# suite name -> the (case id, params) checks it runs under a CampaignBudget,
# in the default order of `qburge verify`
SUITES = {
    "thmmain": lambda bud: _lattice_grid("F", bud),
    "thmmain2": lambda bud: _lattice_grid("H", bud) + _grid(("ab32", "rr2inv"), bud.lm_max),
    "even": lambda bud: _lattice_grid("I", bud),
    "corollaries": _corollaries,
    "series": _series,
    "positivity": _positivity,
    "section8": lambda bud: [("section8", {"entry": e, "n": n})
                             for e, s8 in _SECTION8.items() if s8[3]
                             for n in range(bud.n_max + 1)],
    "comp": _comp,
    "hookp": _hookp,
}


def run_campaign(suite, budget=None):
    """Run one verification suite over the budgeted grid; reports sorted by
    (case, params) so output is deterministic."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    checks = SUITES[suite](budget or CampaignBudget())
    return sorted((check_identity(cid, p) for cid, p in checks),
                  key=VerifyReport.key)
