#!/usr/bin/env python3
"""Time LaurentPoly products on fixed operand families and cold Gaussian
binomials (the L0 layer), and cold lattice sums and cold and warm bosonic
sums (the L1 layer).

    PYTHONPATH=src python3 scripts/bench_mul.py

Run it as its own interpreter, so the memo caches start cold: the operands
are built first, and only `a * b` is timed. Each family's time is the best
of REPEAT runs of enough products to take at least 0.2 s, printed per
product with the interpreter version, the CPU count and the operands'
spans (degree - valuation + 1, the length of their coefficient lists).
Every product of two operands of more than one term takes the one path of
LaurentPoly.__mul__, a Kronecker product; the families span its sizes,
signs and word widths:

- small:  spans 10 x 10, positive (16-bit words);
- qbin:   [16, 8] x [18, 9], nonnegative;
- poch:   [20, 10] x (q)_20, signed;
- sparse: (1 - q^88) x (q, q^2; q^3)_29, two terms over a span of 89 by a
          long signed polynomial (a span costs a word per exponent whether
          or not its coefficient is zero);
- wide:   20 x 20 terms near +-2^40, an 88-bit coefficient bound (128-bit
          words written byte by byte).

Then it times qbin on a cleared memo, one call per run, best of REPEAT:
[50, 25] (the largest the catalogue uses), [100, 50] and [2501, 1] (at
QBIN_MAX_DEGREE, one wide and one narrow), and [30, 15] in q^2.

Then it times one packed lattice sum per evaluator kind, cold: the qbin,
q_poch, packed-factor, level and row memos and the continued-fraction,
factor, rules, rule-object (`_binomial`, `_quadratic`), bias, parameter
(`_over_den`) and spec-builder caches are cleared before every run, so
each row includes building and packing its factors and building its
rules. The rows are eval_F(8, 3, 8, 8) (a doubly-bounded sum), eval_limit_L("F", 7, 3, 9)
(signed Pochhammer links), eval_limit_L("F", 7, 2, 9) (the a_0 = 2 chain,
whose per-call levels hold one state per m_j; its first pass overflows
32-bit words and is widened in place to 64), eval_limit_L("F", 8, 1, 15)
(the finitized Andrews-Gordon sum of b = 1), eval_limit_both("F", 7, 5,
60) (products cut at q^60), the 420 eval_limit_M calls of the
single-limit L grid (F and f, coprime a <= 8, L <= 9) in a fixed shuffled
order, whose calls read level 1 from the level memo, so a call at L after
one at a larger L on the same rules builds no level, the 420
eval_limit_L calls of the single-limit M grid (the same pairs and sizes
in the same order), whose b = 1 calls read one kept chain of levels and
run only their heads, two rows of all 81
eval_F(8, 5, L, M) at L, M <= 8, one in a fixed shuffled order, whose
calls share their (L, M)-free levels (two of them follow the call at
(L, M - 1) and so start a row of the row memo), and one in scan order (L,
then M), whose calls after M = 0 are the columns of one row per L, and one
row of the 25 eval_limit_both calls of the default `series` suite in its
order (T = 40; four of them repeat an earlier call, and the calls on equal
kernel rules share their cut levels).

Last, it times the alternating sums, one row pair per caller of
`qcombinat.qsum` (the packed sum, reading the factor store that the
lattice sums share), over grids of the L1 bypass sides: g_poly on the G
sides of the four single-limit identities (coprime a <= 8, v <= 9), and
again on those of its sums with at most three nonzero terms (most of
them, and the median single-limit check), bosonic_eval(spec_main) over
coprime a <= 8 and L, M <= 8, and d_poly over the hookp region of the
default budget. Each grid gets a cold row (memos cleared before every run,
so it includes building and packing the q-binomials) and a warm row (the
same grid again with every q-binomial memoized and packed: the sums
alone).

Then the same cold and warm rows for the explicit displays of `verify`,
the packed sums `_total` and `_series_total` (which pack their own
factors once per call, outside the factor store): every display that the
default `comp` and `thmmain2` suites check, at L, M <= 6 (the alternating
and double sums of bnewp, bnewp2, brep, comp, comp2, comp_sum and
f31_display, rr1 and rr2 at L <= 6, and both sides of ab32 and rr2inv),
and the four (7,5) and (7,2) series displays at T = 40.

Last, the three calls of the packed format (see qpoly) on 1,000 words at
128 bits: `pack` of signed coefficients near +-2^100 (biased, written
byte by byte), `pack` of nonnegative ones below 2^64 (their own words,
the low one of each: the path of every q-binomial), and `unpack`, which
reads the digit count off the value and 64-bit array views.
"""

import os
import platform
import random
import timeit
from fractions import Fraction
from math import gcd

from qburge import burge, cf, fermionic, qcombinat, qpoly, verify
from qburge.burge import bosonic_eval, spec_main
from qburge.fermionic import eval_F, eval_limit_L, eval_limit_M, eval_limit_both
from qburge.qcombinat import d_poly, g_poly, q_poch, qbin
from qburge.qpoly import LaurentPoly
from qburge.verify import SUITES, CampaignBudget

REPEAT = 7
COLD_QBIN = ((50, 25, 1), (100, 50, 1), (2501, 1, 1), (30, 15, 2))
SCAN = [(L, M) for L in range(9) for M in range(9)]
GRID = random.Random(0).sample(SCAN, 81)
PAIRS = [(a, b) for a in range(2, 9) for b in range(1, a) if gcd(a, b) == 1]
# (family, a, b, v) of the single-limit checks at v <= 9: L of g_eq_limF
# and g_eq_limf, M of g_eq_limFt and g_eq_limft
LIMITS = [(fam, a, b, v) for fam in ("F", "f") for a, b in PAIRS for v in range(10)]
LIMITS = random.Random(0).sample(LIMITS, len(LIMITS))
# (family, a, b, T) of the series_F, series_f and series_I checks of the
# default series suite
SERIES = [(cid[-1], p["a"], p["b"], p["T"])
          for cid, p in SUITES["series"](CampaignBudget())
          if cid in ("series_F", "series_f", "series_I")]
COLD_L1 = (("eval_F(8, 3, 8, 8)", lambda: eval_F(8, 3, 8, 8)),
           ('eval_limit_L("F", 7, 3, 9)', lambda: eval_limit_L("F", 7, 3, 9)),
           ('eval_limit_L("F", 7, 2, 9)', lambda: eval_limit_L("F", 7, 2, 9)),
           ('eval_limit_L("F", 8, 1, 15)', lambda: eval_limit_L("F", 8, 1, 15)),
           ('eval_limit_both("F", 7, 5, 60)',
            lambda: eval_limit_both("F", 7, 5, 60)),
           ("eval_limit_M, single-limit grid",
            lambda: [eval_limit_M(*args) for args in LIMITS]),
           ("eval_limit_L, single-limit grid",
            lambda: [eval_limit_L(*args) for args in LIMITS]),
           ("eval_F(8, 5, L, M), L, M <= 8",
            lambda: [eval_F(8, 5, L, M) for L, M in GRID]),
           ("eval_F(8, 5, L, M), scan order",
            lambda: [eval_F(8, 5, L, M) for L, M in SCAN]),
           ("eval_limit_both, series suite",
            lambda: [eval_limit_both(*args) for args in SERIES]))
# (N, M, alpha, beta, K) of the g_eq_limF, limFt, limf and limft cases
G_GRID = [(v, v, alpha, beta, K) for a, b in PAIRS for v in range(10)
          for alpha, beta, K in ((Fraction(b), Fraction(a * b + 1, a), a),
                                 (Fraction(a), Fraction(a * b + 1, b), b),
                                 (Fraction(a * b - 1, a), Fraction(b), a),
                                 (Fraction(a * b - 1, b), Fraction(a), b))]
# the sums of G_GRID with at most three j, -(M//K) <= j <= N//K
G_SMALL = [g for g in G_GRID if g[1] // g[4] + g[0] // g[4] < 3]
HOOKP = [tuple(p[k] for k in ("K", "i", "N", "M", "alpha", "beta"))
         for _, p in SUITES["hookp"](CampaignBudget())]
BOSONIC = (("g_poly, single-limit G grid", lambda: [g_poly(*g) for g in G_GRID]),
           ("g_poly, its sums of 1-3 terms", lambda: [g_poly(*g) for g in G_SMALL]),
           ("bosonic_eval(spec_main), a, L, M <= 8",
            lambda: [bosonic_eval(spec_main(a, b), L, M) for a, b in PAIRS
                     for L in range(9) for M in range(9)]),
           ("d_poly, hookp region", lambda: [d_poly(*h) for h in HOOKP]))

LM6 = [(L, M) for L in range(7) for M in range(7)]
DISPLAYS = (("displays, comp and thmmain2 grids",
             lambda: [(verify._sum_bnewp(L, M), verify._sum_bnewp2(L, M), verify._lhs_brep(L, M),
                       verify._lhs_comp(L, M), verify._sum_comp(L, M, 0),
                       verify._lhs_comp2(L, M), verify._sum_comp(L, M, 1),
                       verify._rhs_f31_display(L, M), verify._lhs_ab32(L, M),
                       verify._rhs_ab32_display(L, M), verify._lhs_rr2inv(L, M),
                       verify._rhs_rr2inv_display(L, M)) for L, M in LM6]
             + [(verify._lhs_rr1(L), verify._rhs_rr1(L), verify._lhs_rr2(L), verify._rhs_rr2(L))
                for L in range(7)]),
            ("series displays (7,5) and (7,2), T = 40",
             lambda: [display(40, barred) for _, display, barred, _ in verify._DISPLAYS]))
WIDE = [(-1) ** i * (2 ** 100 + 7919 * i) for i in range(1000)]
WIDE_NONNEG = [2 ** 63 + 7919 * i for i in range(1000)]
WIDE_V = qpoly.pack(WIDE, 128)


def clear_memos():
    for memo in (qcombinat._QBIN_CACHE, qcombinat._POCH_CACHE, qcombinat._PACKED_CACHE,
                 fermionic._LEVEL_CACHE, fermionic._ROW_CACHE):
        memo.clear()
    for cached in (cf.cf_expand, qcombinat._factor, qcombinat._over_den, fermionic._rules,
                   fermionic._binomial, fermionic._quadratic, qpoly._short_bias,
                   burge.spec_main, burge.spec_recip, burge.spec_even, burge.spec_shifted):
        cached.cache_clear()


def families():
    one = LaurentPoly.one()
    split = one
    for k in range(1, 30):
        split = split * (one - LaurentPoly.monomial(3 * k - 2))
        split = split * (one - LaurentPoly.monomial(3 * k - 1))
    return {
        "small": (LaurentPoly({e: e * 7919 % 97 + 1 for e in range(10)}),
                  LaurentPoly({e: e * 104729 % 89 + 1 for e in range(-3, 7)})),
        "qbin": (qbin(16, 8), qbin(18, 9)),
        "poch": (qbin(20, 10), q_poch(20)),
        "sparse": (one - LaurentPoly.monomial(88), split),
        "wide": (LaurentPoly({e: 2 ** 40 + e for e in range(-10, 10)}),
                 LaurentPoly({e: -(2 ** 40) + 3 * e for e in range(20)})),
    }


def main():
    print(f"python {platform.python_version()} on {platform.machine()}, "
          f"{os.cpu_count()} CPUs; best of {REPEAT}")
    for name, (a, b) in families().items():
        timer = timeit.Timer(lambda: a * b)
        number, _ = timer.autorange()
        best = min(timer.repeat(REPEAT, number)) / number
        print(f"{name:7s} {len(a.coeffs):4d} x {len(b.coeffs):4d} span  "
              f"{best * 1e6:10.1f} us")
    for n, m, base in COLD_QBIN:
        timer = timeit.Timer(lambda: qbin(n, m, base),
                             setup=qcombinat._QBIN_CACHE.clear)
        best = min(timer.repeat(REPEAT, 1))
        print(f"qbin {f'[{n}, {m}]':10s} base {base} cold {best * 1e6:10.1f} us")
    for name, run in COLD_L1:
        best = min(timeit.Timer(run, setup=clear_memos).repeat(REPEAT, 1))
        print(f"{name:31s} cold {best * 1e6:10.1f} us")
    for name, run in BOSONIC:
        cold = min(timeit.Timer(run, setup=clear_memos).repeat(REPEAT, 1))
        run()
        warm = min(timeit.Timer(run).repeat(REPEAT, 1))
        print(f"{name:37s} cold {cold * 1e6:10.1f} us")
        print(f"{name:37s} warm {warm * 1e6:10.1f} us")
    for name, run in DISPLAYS:
        cold = min(timeit.Timer(run, setup=clear_memos).repeat(REPEAT, 1))
        run()
        warm = min(timeit.Timer(run).repeat(REPEAT, 1))
        print(f"{name:39s} cold {cold * 1e6:10.1f} us")
        print(f"{name:39s} warm {warm * 1e6:10.1f} us")
    for name, run in (("pack, 1,000 signed words", lambda: qpoly.pack(WIDE, 128)),
                      ("pack, 1,000 nonnegative words", lambda: qpoly.pack(WIDE_NONNEG, 128)),
                      ("unpack, 1,000 words", lambda: qpoly.unpack(WIDE_V, 128))):
        timer = timeit.Timer(run)
        number, _ = timer.autorange()
        best = min(timer.repeat(REPEAT, number)) / number
        print(f"{name:30s} 128-bit {best * 1e6:10.1f} us")


if __name__ == "__main__":
    main()
