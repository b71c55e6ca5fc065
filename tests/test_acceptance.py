"""End-to-end acceptance campaign.

Eleven criteria, each an exact (tolerance-zero) check over a pinned grid.
One summary line is printed per criterion, bypassing pytest capture so the
lines always appear in the run log.
"""

import time
from fractions import Fraction
from math import gcd

from qburge.qcombinat import g_poly, borwein_split
from qburge.fermionic import (eval_F, eval_f, eval_H, eval_I, eval_limit_M,
                              eval_limit_L)
from qburge.burge import (bosonic_eval, spec_main, spec_recip, spec_even,
                          spec_shifted, tree_walk)
from qburge.verify import CampaignBudget, check_identity, run_campaign

_T0 = time.perf_counter()


def announce(capsys, num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}"
    with capsys.disabled():
        print(line, flush=True)


def pairs(a_max, a_min=2):
    return [(a, b) for a in range(a_min, a_max + 1)
            for b in range(1, a) if gcd(a, b) == 1]


GRID8 = [(a, b, L, M) for (a, b) in pairs(8)
         for L in range(0, 9) for M in range(0, 9)]

# eval_F is needed by criteria 1 and 2 on the same grid; compute once
_F_CACHE = {}


def fval(a, b, L, M):
    key = (a, b, L, M)
    if key not in _F_CACHE:
        _F_CACHE[key] = eval_F(a, b, L, M)
    return _F_CACHE[key]


def test_criterion_1_bosonic_equals_F(capsys):
    bad = [(a, b, L, M) for (a, b, L, M) in GRID8
           if bosonic_eval(spec_main(a, b), L, M) != fval(a, b, L, M)]
    announce(capsys, 1, not bad,
             f"kernel sum = F lattice sum on {len(GRID8)} instances"
             + (f"; first failure {bad[0]}" if bad else ""))
    assert not bad


def test_criterion_2_three_way_agreement(capsys):
    bad = [(a, b, L, M) for (a, b, L, M) in GRID8
           if tree_walk(a, b, "F", L, M) != fval(a, b, L, M)]
    announce(capsys, 2, not bad,
             f"transform tree = F lattice sum on {len(GRID8)} instances"
             + (f"; first failure {bad[0]}" if bad else ""))
    assert not bad


def test_criterion_3_reciprocal_family(capsys):
    bad = [(a, b, L, M) for (a, b, L, M) in GRID8
           if bosonic_eval(spec_recip(a, b), L, M) != eval_f(a, b, L, M)]
    announce(capsys, 3, not bad,
             f"reciprocal kernel sum = f lattice sum on {len(GRID8)} instances"
             + (f"; first failure {bad[0]}" if bad else ""))
    assert not bad


def test_criterion_4_shifted_family(capsys):
    grid = [(a, b, L, M) for (a, b) in pairs(8, a_min=3)
            for L in range(0, 9) for M in range(0, 9)]
    bad = [(a, b, L, M) for (a, b, L, M) in grid
           if bosonic_eval(spec_shifted(a, b), L, M) != eval_H(a, b, L, M)]
    # base cases against their independent two-variable displays
    extra = 0
    for cid in ("ab32", "rr2inv"):
        for L in range(0, 9):
            for M in range(0, 9):
                r = check_identity(cid, {"L": L, "M": M})
                extra += 1
                if r.status != "pass":
                    bad.append((cid, L, M))
    announce(capsys, 4, not bad,
             f"shifted kernel sum = H lattice sum on {len(grid)} instances"
             f" + {extra} base-case checks"
             + (f"; first failure {bad[0]}" if bad else ""))
    assert not bad


def test_criterion_5_even_modulus_family(capsys):
    bad = [(a, b, L, M) for (a, b, L, M) in GRID8
           if bosonic_eval(spec_even(a, b), L, M) != eval_I(a, b, L, M)]
    announce(capsys, 5, not bad,
             f"even-modulus kernel sum = I lattice sum on {len(GRID8)} "
             f"instances" + (f"; first failure {bad[0]}" if bad else ""))
    assert not bad


def test_criterion_6_seed_lemmas(capsys):
    bad = []
    n = 0
    for cid in ("bnew", "bnewp", "comp", "comp2", "bnewp2", "brep"):
        for L in range(0, 13):
            for M in range(0, 13):
                r = check_identity(cid, {"L": L, "M": M})
                n += 1
                if r.status != "pass":
                    bad.append((cid, L, M))
    announce(capsys, 6, not bad, f"seed lemma identities on {n} instances"
             + (f"; first failure {bad[0]}" if bad else ""))
    assert not bad


def test_criterion_7_single_limit_polynomials(capsys):
    bad = []
    n = 0
    for (a, b) in pairs(8):
        for v in range(0, 16):
            checks = [
                (g_poly(v, v, Fraction(b), Fraction(a * b + 1, a), a),
                 eval_limit_M("F", a, b, v), "limF"),
                (g_poly(v, v, Fraction(a), Fraction(a * b + 1, b), b),
                 eval_limit_L("F", a, b, v), "limFt"),
                (g_poly(v, v, Fraction(a * b - 1, a), Fraction(b), a),
                 eval_limit_M("f", a, b, v), "limf"),
                (g_poly(v, v, Fraction(a * b - 1, b), Fraction(a), b),
                 eval_limit_L("f", a, b, v), "limft"),
            ]
            for lhs, rhs, tag in checks:
                n += 1
                if lhs != rhs:
                    bad.append((tag, a, b, v))
    announce(capsys, 7, not bad, f"single-limit polynomial identities on {n} instances"
             + (f"; first failure {bad[0]}" if bad else ""))
    assert not bad


def test_criterion_8_series_to_order_60(capsys):
    reports = run_campaign("series", CampaignBudget(T=60))
    bad = [(r.case, r.params) for r in reports if r.status != "pass"]
    announce(capsys, 8, not bad, f"series identities to order 60, {len(reports)} runs"
             + (f"; first failure {bad[0]}" if bad else ""))
    assert not bad


def test_criterion_9_hook_difference_partitions(capsys):
    reports = run_campaign("hookp", CampaignBudget(lm_max=6))
    bad = [(r.case, r.params) for r in reports if r.status != "pass"]
    announce(capsys, 9, not bad,
             f"hook-difference sums vs partition oracle, {len(reports)} runs"
             + (f"; first failure {bad[0]}" if bad else ""))
    assert not bad


def test_criterion_10_positivity(capsys):
    bad = []
    n = 0
    reports = run_campaign("positivity",
                           CampaignBudget(a_max=8, n_max=12, pos_l_max=20))
    n += len(reports)
    bad.extend((r.case, r.params) for r in reports if r.status != "pass")
    # the generic-pair corollary goes up to L = 25
    for (a, b) in pairs(8):
        for L in range(21, 26):
            n += 1
            g = g_poly(L, L, Fraction(b), Fraction(a * b + 1, a), a)
            if g.min_negative() is not None:
                bad.append(("pos_gen", (a, b, L)))
    # closing-display identity checks to n = 12
    reports = run_campaign("section8", CampaignBudget(n_max=12))
    n += len(reports)
    bad.extend((r.case, r.params) for r in reports if r.status != "pass")
    # empirical three-part residue split, n <= 30 (covered in the positivity
    # suite as well; re-assert the exact bound here)
    for m in range(0, 31):
        for part in borwein_split(m):
            n += 1
            if part.min_negative() is not None:
                bad.append(("split", m))
    announce(capsys, 10, not bad, f"positivity scans on {n} polynomials"
             + (f"; first failure {bad[0]}" if bad else ""))
    assert not bad


def test_criterion_11_property_suites_and_budget(capsys):
    # the per-module property suites run as part of the same pytest session;
    # here we re-run every campaign suite at its default budget and check the
    # overall wall-time bound
    from qburge.verify import SUITES
    bad = []
    n = 0
    for suite in SUITES:
        reports = run_campaign(suite)
        n += len(reports)
        bad.extend((r.case, r.params) for r in reports if r.status != "pass")
    elapsed = time.perf_counter() - _T0
    ok = not bad and elapsed < 600.0
    announce(capsys, 11, ok, f"all {n} default-budget campaign runs green, "
             f"acceptance wall time {elapsed:.1f}s < 600s"
             + (f"; first failure {bad[0]}" if bad else ""))
    assert not bad
    assert elapsed < 600.0
