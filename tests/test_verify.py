"""Oracles, catalogue plumbing, campaign driver."""

from functools import cache
from itertools import combinations_with_replacement
from math import comb

import pytest

from qburge.qpoly import DegreeLimitError, LaurentPoly, TruncatedSeries
from qburge import qcombinat, qpoly, verify
from qburge.qcombinat import b_kernel, qbin, d_poly
from qburge.burge import spec_even, spec_main, spec_recip, spec_shifted
from qburge.verify import (CATALOGUE, CampaignBudget, IdentityCase, SUITES,
                           check_identity, partition_oracle, positivity_scan,
                           product_series, run_campaign)


def lp(d):
    return LaurentPoly(dict(d))


def test_partition_oracle_trivia():
    assert partition_oracle(4, 2, 0, 0, 1, 1) == LaurentPoly.one()
    # a huge modulus makes both hook constraints vacuous: box counting
    for N in range(0, 4):
        for M in range(0, 4):
            assert partition_oracle(50, 10, N, M, 1, 1) == qbin(N + M, M)
    with pytest.raises(ValueError):
        partition_oracle(4, 2, 2, 2, 0, 1)
    with pytest.raises(ValueError):
        partition_oracle(4, 1, 6, 0, 1, 1)  # N-M outside the window


def test_hookp_suite_window():
    # the suite's M range is the window of N - M with a valid i: the same
    # checks, in the same order, as scanning the whole lm_max x lm_max square
    for lm_max in range(15):
        lms = range(lm_max + 1)
        square = [("hookp", {"K": K, "i": i, "N": N, "M": M, "alpha": alpha,
                             "beta": beta})
                  for K in (3, 4, 5) for alpha in (1, 2) for beta in (1, 2)
                  if alpha + beta < K for N in lms for M in lms
                  for i in range(max(1, beta - N + M),
                                 min(K - 1, K - alpha - N + M) + 1)]
        assert SUITES["hookp"](CampaignBudget(lm_max=lm_max)) == square


def test_partition_oracle_box_limit(monkeypatch):
    # a box of more than ORACLE_MAX_PARTITIONS partitions raises before any
    # is enumerated; the 6 x 6 box (924, the default campaign's largest) is
    # exactly at the lowered limit and still runs
    monkeypatch.setattr(verify, "ORACLE_MAX_PARTITIONS", 924)
    assert partition_oracle(4, 1, 6, 6, 1, 1) == d_poly(4, 1, 6, 6, 1, 1)

    def enumerate_box(N, M, alpha, beta):
        raise AssertionError("enumerated past the limit")
    monkeypatch.setattr(verify, "_hook_index", enumerate_box)
    with pytest.raises(DegreeLimitError,
                       match=r"^the 7 x 6 box holds 1716 partitions > 924$"):
        partition_oracle(4, 1, 7, 6, 1, 1)


def conjugate_by_columns(lam):
    """The conjugate partition, one count of the parts >= c per column c."""
    if not lam:
        return []
    return [sum(1 for p in lam if p >= c) for c in range(1, lam[0] + 1)]


def test_hook_sum_matches_oracle_pinned():
    K, i, alpha, beta = 4, 2, 1, 1
    for N in range(0, 7):
        for M in range(0, 7):
            if not (beta - i <= N - M <= K - alpha - i):
                continue
            assert d_poly(K, i, N, M, alpha, beta) == \
                partition_oracle(K, i, N, M, alpha, beta), (N, M)


@cache
def box_partitions(N, M):
    """Each partition in the N x M box, from the nonincreasing M-tuples over
    N..0 with zeros dropped, with its conjugate and its weight."""
    return [(lam, conjugate_by_columns(lam), sum(lam))
            for lam in ([p for p in t if p] for t in
                        combinations_with_replacement(range(N, -1, -1), M))]


def hook_filter_oracle(K, i, N, M, alpha, beta):
    """The per-partition filter the indexed oracle replaced: every partition
    of the box, kept when its hook differences meet both bounds."""
    lo = beta - i + 1
    hi = K - alpha - i - 1
    counts = {}
    for lam, conj, w in box_partitions(N, M):
        ok = True
        for r, part in enumerate(lam, start=1):
            # node on diagonal 1-beta: (r, r+beta-1)
            c = r + beta - 1
            if 1 <= c <= part and part - conj[c - 1] < lo:
                ok = False
                break
            # node on diagonal alpha-1: (r, r-alpha+1)
            c = r - alpha + 1
            if 1 <= c <= part and part - conj[c - 1] > hi:
                ok = False
                break
        if ok:
            counts[w] = counts.get(w, 0) + 1
    return LaurentPoly(counts)


def test_partition_oracle_matches_filter_reference():
    # every box up to 7 x 7, K <= 6, alpha, beta <= 3 and every i in the
    # window, in suite order and then in reverse from an empty memo; the
    # 576 boxes overflow the memo, so entries are evicted and rebuilt
    cases = [(K, i, N, M, alpha, beta)
             for K in range(1, 7) for alpha in (1, 2, 3) for beta in (1, 2, 3)
             for N in range(8) for M in range(8)
             for i in range(beta - N + M, K - alpha - N + M + 1)]
    assert len(cases) == 3840
    assert all(len(box_partitions(N, M)) == comb(N + M, N)
               for N in range(8) for M in range(8))
    expected = {case: hook_filter_oracle(*case) for case in cases}
    for order in (cases, cases[::-1]):
        verify._hook_index.cache_clear()
        for case in order:
            assert partition_oracle(*case) == expected[case], case


def test_hook_sum_matches_oracle_beyond_campaign():
    # the campaign covers K <= 5 and alpha, beta <= 2; here K = 6, 7 and
    # alpha, beta <= 3, with i in the window and 1 <= i <= K-1
    n = 0
    for K in (6, 7):
        for alpha in (1, 2, 3):
            for beta in (1, 2, 3):
                if alpha + beta >= K:
                    continue
                for N in range(6):
                    for M in range(6):
                        for i in range(max(1, beta - N + M),
                                       min(K - 1, K - alpha - N + M) + 1):
                            assert d_poly(K, i, N, M, alpha, beta) == \
                                partition_oracle(K, i, N, M, alpha, beta), \
                                (K, i, N, M, alpha, beta)
                            n += 1
    assert n == 1500


def test_product_series_self_check_and_reject():
    with pytest.raises(ValueError):
        product_series(1, 2, 5, 10)
    # clearing classes +-2 mod 5 leaves partitions into parts = +-1 mod 5
    s = product_series(2, 3, 5, 10)
    assert s.coeffs == [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6]


def test_product_series_grid():
    # product_series raises if its triple-product sum misses a term, so
    # this pins the j range of _jtp_series
    for z in range(2, 17):
        for x in range(1, z):
            for order in range(81):
                product_series(x, z - x, z, order)


def test_section8_inside_the_budget_check(monkeypatch):
    # the budget check admits n_max when [2n, n] fits under the degree
    # limit; every closing-display entry then runs without a wider binomial
    for n in range(11):
        monkeypatch.setattr(qcombinat, "QBIN_MAX_DEGREE", n * n)
        for entry, (*_, rhs) in verify._SECTION8.items():
            if rhs:
                params = {"entry": entry, "n": n}
                assert check_identity("section8", params).status == "pass", params


# the alternating displays written out over the generic window
# |j| <= L + M + 2, past their support: each display's own j range must keep
# every nonzero term; the displays in L alone run on a longer line
BOX = [(L, M) for L in range(-1, 13) for M in range(-1, 13)]
LINE = [(L, 0) for L in range(-1, 30)]
ALTSUM_TERMS = [
    (verify._lhs_comp, BOX, lambda L, M, j: (
        j * (5 * j + 3) // 2, qbin(L + M + j, M - j - 1) * qbin(L + M - j, M + j))),
    (verify._lhs_comp2, BOX, lambda L, M, j: (
        j * (5 * j + 3) // 2, qbin(L + M + j + 1, M - j) * qbin(L + M - j, M + j))),
    (verify._lhs_brep, BOX, lambda L, M, j: (
        j * (5 * j + 1) // 2, qbin(L + M + j, M - j) * qbin(L + M - j - 1, M + j))),
    (lambda L, M: verify._lhs_rr1(L), LINE, lambda L, M, j: (
        j * (5 * j + 1) // 2, qbin(2 * L, L - 3 * j))),
    (lambda L, M: verify._lhs_rr2(L), LINE, lambda L, M, j: (
        j * (5 * j + 3) // 2, qbin(2 * L, L - 3 * j - 1))),
    (verify._lhs_ab32, BOX, lambda L, M, j: (
        j * (13 * j + 9) // 2 + 1, b_kernel(L, M, 3 * j + 1, 2 * j + 1))),
    (verify._lhs_rr2inv, BOX, lambda L, M, j: (
        j * (7 * j + 1) // 2, b_kernel(L, M, 3 * j + 1, j))),
    (lambda L, M: verify._lhs_isolated(L), LINE, lambda L, M, j: (
        j * (5 * j + 3) // 2, qbin(2 * L + 1, L - 2 * j))),
]


def test_altsum_displays_over_their_support():
    # each alternating display runs j over its own support; over the generic
    # window it gives the same polynomial
    for display, points, term in ALTSUM_TERMS:
        for L, M in points:
            full = LaurentPoly.zero()
            for j in range(-(L + M) - 2, L + M + 3):
                e, p = term(L, M, j)
                full = full + (-p if j % 2 else p).scale(e)
            assert display(L, M) == full, (display, L, M)


def full_range(terms):
    """Sum of q^e p over (e, p), zero terms and all."""
    tot = LaurentPoly.zero()
    for e, p in terms:
        tot = tot + p.scale(e)
    return tot


# the explicit double sums written out over the full box, past their
# binomials' support: each display's own ranges must keep every nonzero term
FULL_RANGE = [
    (verify._sum_bnewp2, lambda L, M: full_range(
        (n * n, qbin(2 * L + M - n - 1, 2 * L - 1) * qbin(L - 1, n))
        for n in range(0, L + 1))),
    (verify._sum_comp, lambda L, M: full_range(
        (n * (n + 1), qbin(2 * L + M - n, 2 * L + 1) * qbin(L, n))
        for n in range(0, L + 1))),
    (lambda L, M: verify._sum_comp(L, M, 1), lambda L, M: full_range(
        (n * (n + 1), qbin(2 * L + M - n + 1, 2 * L + 1) * qbin(L, n))
        for n in range(0, L + 1))),
    (lambda L, M: verify._rhs_rr1(L), lambda L, M: full_range(
        (n * n + i * (L + n), qbin(2 * L - 2 * i - n, n) * qbin(L - i - n, i))
        for n in range(0, L + 1) for i in range(0, L + 1))),
    (lambda L, M: verify._rhs_rr2(L), lambda L, M: full_range(
        (n * (n + 1) + i * (L + n + 1),
         qbin(2 * L - 2 * i - n - 1, n) * qbin(L - i - n - 1, i))
        for n in range(0, L + 1) for i in range(0, L + 1))),
    (verify._rhs_f31_display, lambda L, M: full_range(
        (n * n + i * (L + n), qbin(2 * L + M - n - i, 2 * L)
         * qbin(2 * L - 2 * i - n, n) * qbin(L - i - n, i))
        for n in range(0, L + 1) for i in range(0, L + 1))),
    (verify._rhs_ab32_display, lambda L, M: full_range(
        (i * i + n * n, qbin(2 * L + M - i, 2 * L) * qbin(L + i - n - 1, 2 * i - 1)
         * qbin(i - 1, n))
        for i in range(0, L + 1) for n in range(0, L + 1))),
    (verify._rhs_rr2inv_display, lambda L, M: full_range(
        ((L - m1) ** 2 + (m1 - m2 - 1) ** 2,
         qbin(L + M + m1, 2 * L) * qbin(L + m2, 2 * m1 - 1) * qbin(m1 - 1, m2))
        for m1 in range(0, L + 1) for m2 in range(0, L + 1))),
    (lambda L, M: verify._s8_a2(L), lambda L, M: full_range(
        ((L - m1) ** 2 + (m1 - m2) ** 2, qbin(L + m2, 2 * m1) * qbin(m1, m2))
        for m1 in range(0, L + 1) for m2 in range(0, L + 1))),
]


def test_double_sum_displays_over_their_support():
    # each double sum loops over its binomials' support; over the full box
    # it gives the same polynomial
    for display, full in FULL_RANGE:
        for L in range(-1, 13):
            for M in range(-1, 13):
                assert display(L, M) == full(L, M), (display, L, M)


def reference_total(terms):
    """Sum of sign q^e prod(factors), one LaurentPoly product and sum per
    term."""
    tot = LaurentPoly.zero()
    for e, sign, factors in terms:
        p = LaurentPoly.one()
        for f in factors:
            p = p * f
        tot = tot + p.scale(e, sign)
    return tot


def summed_at_width(monkeypatch, terms):
    """_total(terms) and the word widths it picked, in order."""
    widths = []

    def recording(bits):
        widths.append(qpoly.pack_width(bits))
        return widths[-1]
    monkeypatch.setattr(verify, "pack_width", recording)
    return verify._total(terms), widths


def test_total_matches_term_by_term_sum(monkeypatch):
    # signed terms, a zero factor (its term is skipped), one factor object
    # in several terms, one-factor terms, factors with negative lowest
    # exponents, and terms that cancel
    shared, zero = qbin(7, 3), qbin(2, 3)
    low = LaurentPoly({-3: 2, -1: 1})
    terms = [(0, 1, (shared, qbin(4, 2))), (2, -1, (shared,)), (5, 1, (zero, shared)),
             (-4, -1, (qbin(5, 1), shared, low)), (1, 1, (shared,)), (1, -1, (shared,)),
             (3, 1, ()), (0, -1, (LaurentPoly.monomial(2, 3),))]
    total, widths = summed_at_width(monkeypatch, terms)
    assert total == reference_total(terms) and widths == [16]
    for k in range(len(terms) + 1):
        assert verify._total(terms[:k]) == reference_total(terms[:k]), k
    # a term with a zero factor contributes nothing, not even its span
    assert verify._total([(0, 1, (zero,)), (10 ** 9, 1, (zero, shared))]).is_zero()
    # terms that cancel leave no zero ends
    assert verify._total([(0, 1, (shared,)), (0, -1, (shared,)),
                          (2, 1, (qbin(3, 1),))]) == LaurentPoly({2: 1, 3: 1, 4: 1})


@pytest.mark.parametrize("width, terms", [
    # the bound is the sum over terms of prod p(1) = prod comb(n, m)
    (16, [(0, 1, (qbin(6, 3), qbin(4, 2))), (3, -1, (qbin(8, 4),))]),  # 190
    (32, [(0, 1, (qbin(20, 10),)), (5, 1, (qbin(9, 4), qbin(8, 4)))]),  # 2^17.5
    (64, [(0, 1, (qbin(30, 15), qbin(30, 15))), (1, -1, (qbin(12, 6),))]),  # 2^54.4
    (128, [(0, 1, (qbin(30, 15),) * 3), (7, -1, (qbin(30, 15), qbin(12, 5)))]),  # 2^81.6
])
def test_total_word_widths(monkeypatch, width, terms):
    total, widths = summed_at_width(monkeypatch, terms)
    assert widths == [width]
    assert total == reference_total(terms)


@pytest.mark.parametrize("width", [16, 32, 64, 128])
def test_total_fills_its_word(monkeypatch, width):
    # two terms at one exponent whose bounds add up to 2^(w-1) - 1, the most
    # a word of w bits holds: added, and subtracted, they decode exactly
    half = 2 ** (width - 1)
    a, b = LaurentPoly({0: half // 3, 1: 1}), LaurentPoly({0: half - 2 - half // 3})
    for sign in (1, -1):
        terms = [(0, sign, (a,)), (0, sign, (b,))]
        total, widths = summed_at_width(monkeypatch, terms)
        assert widths == [width]
        assert total == LaurentPoly({0: sign * (half - 2), 1: sign})
    # one more and the bound needs the next width
    terms = [(0, 1, (a,)), (0, 1, (b + LaurentPoly.one(),))]
    assert summed_at_width(monkeypatch, terms)[1] == [qpoly.pack_width(width + 1)]


def test_total_span_limit(monkeypatch):
    # the span is checked before any factor is packed
    monkeypatch.setattr(qpoly, "MAX_SPAN", 10)

    def packing(coeffs, w):
        raise AssertionError("packed past the span limit")
    terms = [(0, 1, (qbin(4, 2),)), (5, -1, (qbin(3, 1), qbin(3, 1)))]
    assert verify._total(terms) == reference_total(terms)  # span 10
    monkeypatch.setattr(verify, "pack_nonneg", packing)
    with pytest.raises(DegreeLimitError, match=r"^polynomial span 11 > 10$"):
        verify._total(terms + [(10, 1, (LaurentPoly.one(),))])
    with pytest.raises(DegreeLimitError, match=r"^polynomial span 13 > 10$"):
        verify._total([(-2, 1, (qbin(3, 1),)), (3, 1, (qbin(7, 1), qbin(2, 1)))])


def test_total_rejects_a_negative_coefficient():
    # the bound p(1) holds for nonnegative factors only: a factor with
    # p(1) <= 0 raises when it is first read, any other when it is packed
    for bad in ({0: 2, 1: -1}, {0: 1, 1: -1}, {3: -2}, {0: 1, 1: -3, 2: 1}):
        with pytest.raises(ValueError):
            verify._total([(0, 1, (qbin(3, 1),)), (1, 1, (LaurentPoly(bad),))])


def reference_series_total(T, terms):
    """Sum of q^e prod(factors) / prod_{k in ks} (1 - q^k) cut at q^T, one
    division chain per term."""
    tot = TruncatedSeries(T)
    for e, factors, ks in terms:
        p = reference_total([(e, 1, factors)])
        if p.is_zero():
            continue
        s = TruncatedSeries.from_poly(p, T)
        for k in ks:
            if k <= T:
                s = s.div_one_minus(k)
        tot = tot + s
    return tot


def test_series_total_matches_term_by_term_sum():
    # shared and distinct denominators (a multiset in any order), k > T,
    # e > T, a zero factor and a term of no factor
    T = 12
    terms = [(0, (qbin(5, 2),), (1, 2)), (3, (qbin(4, 1), qbin(3, 1)), (2, 1)),
             (1, (), (1, 1, 3)), (2, (qbin(6, 3),), (3, 1, 1)), (4, (qbin(3, 1),), (20,)),
             (T + 1, (qbin(4, 2),), (1,)), (0, (qbin(2, 5),), (1, 2)), (5, (), ())]
    for k in range(len(terms) + 1):
        assert verify._series_total(T, terms[:k]) == reference_series_total(T, terms[:k]), k
    for T in (0, 1, 3):
        assert verify._series_total(T, terms) == reference_series_total(T, terms), T
    with pytest.raises(ValueError):
        verify._series_total(T, [(0, (qbin(3, 1),), (1,)), (-1, (qbin(2, 1),), (1,))])
    with pytest.raises(ValueError):
        verify._series_total(T, [(0, (LaurentPoly({-2: 1}),), ())])


def test_double_sum_display_at_128_bits(monkeypatch):
    # at L = M = 20 the bound of the (i, n) double sum of ab32 takes 69 bits,
    # so the sum runs on 128-bit words; it equals its terms multiplied and
    # added one by one, and the other side of the identity
    L = M = 20
    terms = [(i * i + n * n, 1, (qbin(2 * L + M - i, 2 * L), qbin(L + i - n - 1, 2 * i - 1),
                                 qbin(i - 1, n)))
             for i in range(1, min(L, M) + 1) for n in range(0, min(i - 1, L - i) + 1)]
    widths = []
    width = verify.pack_width
    monkeypatch.setattr(verify, "pack_width", lambda bits: widths.append(width(bits)) or widths[-1])
    rhs = verify._rhs_ab32_display(L, M)
    assert widths == [128]
    assert rhs == reference_total(terms) == verify._lhs_ab32(L, M)


def test_positivity_scan():
    ok = positivity_scan(lp({0: 1, 1: 2, 2: 1}), "c", {"x": 1})
    assert ok.nonneg and ok.first_negative is None
    bad = positivity_scan(lp({0: 1, 3: -1}))
    assert not bad.nonneg and bad.first_negative == (3, -1)


def test_check_identity_pass():
    r = check_identity("main", {"a": 2, "b": 1, "L": 1, "M": 1})
    assert r.status == "pass"
    assert r.first_diff_exponent is None
    assert r.elapsed_ms >= 0


def test_check_identity_fail_reporting():
    fake = IdentityCase("fake", "polynomial", "", "",
                        lambda p: (LaurentPoly.one(), lp({0: 1, 2: 1})))
    r = check_identity(fake, {})
    assert r.status == "fail"
    assert r.first_diff_exponent == 2
    assert (r.lhs_coeff, r.rhs_coeff) == (0, 1)
    fake_s = IdentityCase("fake_s", "truncated-series", "", "",
                          lambda p: (TruncatedSeries(3, [1, 1, 1, 1]),
                                     TruncatedSeries(3, [1, 1, 0, 1])))
    r = check_identity(fake_s, {})
    assert r.status == "fail" and r.first_diff_exponent == 2
    fake_p = IdentityCase("fake_p", "positivity", "", "",
                          lambda p: lp({0: 1, 3: -1}))
    r = check_identity(fake_p, {})
    assert r.status == "fail" and r.first_diff_exponent == 3
    assert (r.lhs_coeff, r.rhs_coeff) == (-1, 0)
    ok_p = IdentityCase("ok_p", "positivity", "", "", lambda p: lp({0: 1, 2: 3}))
    assert check_identity(ok_p, {}).status == "pass"


def test_catalogue_shape():
    assert set(CATALOGUE) >= {"main", "recip", "shifted", "even", "hookp",
                              "series_F", "section8"}
    for case in CATALOGUE.values():
        assert case.kind in ("polynomial", "truncated-series", "positivity")
        assert case.description
    assert {cid for cid, case in CATALOGUE.items()
            if case.kind == "positivity"} == \
        {"pos_gen", "pos_shifted", "pos_split", "pos_section8"}


def test_lattice_cases_take_their_routes(monkeypatch):
    # each lattice case built from the family table: a *_tree case walks its
    # family's tree, the others sum their own kernel spec, and the right side
    # is the family's lattice sum. Both left sides would pass on either
    # route, so the campaign's records cannot tell them apart
    routes = {"main": ("F", spec_main), "main_tree": ("F", None),
              "recip": ("f", spec_recip),
              "shifted": ("H", spec_shifted), "shifted_tree": ("H", None),
              "even": ("I", spec_even), "even_tree": ("I", None)}
    calls = []
    for name in ("tree_walk", "bosonic_eval"):
        monkeypatch.setattr(verify, name,
                            lambda *args, name=name: calls.append((name, *args)))
    for family in "FfHI":
        monkeypatch.setattr(verify, f"eval_{family}",
                            lambda *args, family=family: (family, *args))
    bud = CampaignBudget(a_max=5, lm_max=1)
    suites = ("thmmain", "thmmain2", "even", "corollaries")
    assert {cid for suite in suites for cid, _ in SUITES[suite](bud)} >= set(routes)
    for cid, (family, spec) in routes.items():
        for a, b, L, M in ((5, 3, 2, 3), (7, 2, 3, 1)):
            calls.clear()
            _, rhs = CATALOGUE[cid].sides({"a": a, "b": b, "L": L, "M": M})
            assert calls == [("tree_walk", a, b, family, L, M) if spec is None
                             else ("bosonic_eval", spec(a, b), L, M)], cid
            assert rhs == (family, a, b, L, M), cid


def test_campaign_small_all_pass_and_deterministic():
    bud = CampaignBudget(a_max=3, lm_max=3, n_max=4, T=15, pos_l_max=5)
    for suite in SUITES:
        r1 = run_campaign(suite, bud)
        assert r1, suite
        assert all(r.status == "pass" for r in r1), suite
        r2 = run_campaign(suite, bud)
        assert [(r.case, r.params, r.status) for r in r1] == \
            [(r.case, r.params, r.status) for r in r2]


def test_positivity_records_are_timed():
    reps = run_campaign("positivity", CampaignBudget(a_max=3, n_max=4,
                                                     pos_l_max=5))
    timed = {r.case for r in reps if r.elapsed_ms > 0}
    assert timed == {"pos_gen", "pos_shifted", "pos_split", "pos_section8"}


def test_every_record_is_one_check_identity_call(monkeypatch):
    # the way a benchmark times campaign records: wrap the module globals
    calls = {"check_identity": 0, "positivity_scan": 0}

    def counting(name):
        fn = getattr(verify, name)

        def hooked(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return hooked

    for name in calls:
        monkeypatch.setattr(verify, name, counting(name))
    bud = CampaignBudget(a_max=3, lm_max=2, n_max=2, T=10, pos_l_max=3)
    n = sum(len(run_campaign(suite, bud)) for suite in SUITES)
    assert calls == {"check_identity": n, "positivity_scan": 0}


def test_campaign_unknown_suite():
    with pytest.raises(ValueError):
        run_campaign("nope")
