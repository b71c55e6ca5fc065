"""Fermionic lattice sums: four families, limits, overrides, support."""

import functools
import itertools
import random
import sys
from collections import Counter
from math import gcd
from pathlib import Path

import pytest

from qburge import cf, fermionic, qcombinat, qpoly
from qburge.qpoly import LaurentPoly, TruncatedSeries
from qburge.qcombinat import _factor, _qkey, g_poly, qbin, q_poch, qsum
from qburge.cf import cf_expand
from qburge.fermionic import (_bounded, _flat, _kernel_sum, _lattice_sum,
                              _rules, _square, eval_F, eval_f, eval_H, eval_I,
                              eval_limit_M, eval_limit_L, eval_limit_both)
from qburge.verify import _sum_bnewp, check_identity, run_campaign

from test_cf import build_cartan, cf_toggle, quad_form
from test_qpoly import poch_range, poly_agrees_with_series


def lp(d):
    return LaurentPoly(dict(d))


def coprime_pairs(a_max, a_min=2):
    return [(a, b) for a in range(a_min, a_max + 1)
            for b in range(1, a) if gcd(a, b) == 1]


def test_trivial_values():
    for (a, b) in coprime_pairs(9):
        assert eval_F(a, b, 0, 3) == LaurentPoly.one()
        assert eval_f(a, b, 0, 3) == LaurentPoly.one()
        assert eval_I(a, b, 0, 3) == LaurentPoly.one()
        assert eval_F(a, b, 1, 0) == LaurentPoly.one()


def test_small_examples():
    # F_{2,1}(L,M) = sum_n q^{n^2} [2L+M-n, 2L][L, n]
    assert eval_F(2, 1, 1, 1) == lp({0: 1, 1: 2, 2: 1})
    assert eval_f(2, 1, 1, 1) == lp({0: 1, 1: 2, 2: 1})
    # I at (2,1): sum q^{n^2}[2L+M-n,2L][L,n]_{q^2}
    assert eval_I(2, 1, 1, 1) == lp({0: 1, 1: 2, 2: 1})
    assert eval_I(2, 1, 1, 2) == \
        qbin(4, 2) + (qbin(3, 2) * qbin(1, 1, base=2)).scale(1)
    assert eval_H(2, 1, 1, 1) == lp({0: 1, 1: 1})


def test_F21_against_explicit_sum():
    for L in range(0, 6):
        for M in range(0, 6):
            expect = LaurentPoly.zero()
            for n in range(0, min(L, M) + 1):
                t = qbin(2 * L + M - n, 2 * L) * qbin(L, n)
                expect = expect + t.scale(n * n)
            assert eval_F(2, 1, L, M) == expect


def test_f21_against_explicit_sum():
    for L in range(0, 6):
        for M in range(0, 6):
            expect = LaurentPoly.zero()
            for n in range(0, min(L, M) + 1):
                t = qbin(2 * L + M - n, 2 * L) * qbin(L, n)
                expect = expect + t.scale(L * n)
            assert eval_f(2, 1, L, M) == expect


def seed_H21(L, M):
    """The H seed at (2, 1) as a q-sum, sum_n q^(n^2) [2L+M-n-1, 2L-1]
    [L-1, n]: the reference for its two lattice rules."""
    return qsum((1, 0, 0), 1,
                ((n, 1, ((2 * L + M - n - 1, 2 * L - 1), (L - 1, n)))
                 for n in range(min(L, M) + 1)), lambda: "the H seed")


def test_H21_seed_against_qsum():
    for L in range(-1, 16):
        for M in range(-1, 16):
            assert eval_H(2, 1, L, M) == seed_H21(L, M), (L, M)


def test_representation_independence():
    # the value must not depend on whether the final quotient is >= 2 or
    # split off as a trailing 1
    for (a, b) in coprime_pairs(9, a_min=3):
        c = cf_expand(a, b)
        for L in range(0, 5):
            for M in range(0, 5):
                for family in ("F", "f", "I"):
                    assert _bounded(family, c, L, M) == \
                        _bounded(family, cf_toggle(c), L, M)


def test_boundary_consistency_a_eq_2b():
    # on the pair (2,1) both boundary-binomial conventions coincide
    phis, psis = _rules(cf_expand(2, 1).quotients, "F")
    for L in range(0, 6):
        for M in range(0, 6):
            def head(p, c, n):
                return _qkey(L + M + n, 2 * L)

            assert _lattice_sum(L, [head] + phis[1:],
                                [lambda x, y: x * (x - 2 * y)] + psis[1:], 2) == \
                eval_F(2, 1, L, M)


def _cut(p, cut):
    """p without the terms above q^cut (all of p when cut is None)."""
    return p if cut is None else LaurentPoly.dense(
        p.lo, p.coeffs[:max(0, cut + 1 - p.lo)])


def list_lattice_sum(d, top, head, phi, psi, cut=None):
    """Reference transfer sum on LaurentPoly values: the same support and
    levels as the engine, with head(m_1) and phi(j, m_{j-1}, m_j, m_{j+1})
    returning polynomials (zero drops the term) and every product cut
    above q^cut."""
    heads = [head(c) for c in range(top + 1)]
    live = [c for c, h in enumerate(heads) if not h.is_zero()]
    if not live:
        return LaurentPoly.zero()
    hi = live[-1]
    below = {(c, 0): LaurentPoly.one() for c in range(hi + 1)}
    for j in range(d, 0, -1):
        level = {}
        for (c, n), w in below.items():
            if j == 1 and heads[c].is_zero():
                continue
            s = _cut(w.scale(psi(j, c, n)), cut)
            if s.is_zero():
                continue
            for p in ((top,) if j == 1 else range(c, hi + 1)):
                f = phi(j, p, c, n)
                if f.is_zero():
                    continue
                t = _cut(f * s, cut)
                key = (p, c)
                level[key] = level[key] + t if key in level else t
        below = level
    total = LaurentPoly.zero()
    for (_, c), w in below.items():
        total = total + _cut(heads[c] * w, cut)
    return total


def on_lists(top, phis, psis, first, cut=None, per_m=False):
    """The engine's arguments (per-position rules giving factor keys, the
    head at position 0) turned into polynomials for list_lattice_sum, which
    sums every term however the engine stores its levels (`first` and
    `per_m` are ignored)."""
    def poly(key):
        return LaurentPoly.zero() if key is None else _factor(key)

    def list_head(m1):
        return poly(phis[0](top, top, m1)).scale(psis[0](top, m1))

    return list_lattice_sum(len(phis) - 1, top, list_head,
                            lambda j, *x: poly(phis[j](*x)),
                            lambda j, x, y: psis[j](x, y), cut)


def all_lattice_values(pairs, top, orders):
    """Every lattice evaluator over the pairs, L, M <= top and T in orders."""
    out = []
    for a, b in pairs:
        for L in range(top + 1):
            out += [eval_limit_M(fam, a, b, L) for fam in ("F", "f", "I")]
            out += [eval_limit_L("F", a, b, L), eval_limit_L("f", a, b, L)]
            for M in range(top + 1):
                out += [fn(a, b, L, M)
                        for fn in (eval_F, eval_f, eval_I, eval_H)]
        for T in orders:
            fams = ("F", "f", "I") if b > 1 else ("F", "I")
            out += [eval_limit_both(fam, a, b, T) for fam in fams]
    return out


def counting(monkeypatch, name):
    """Make the module function fermionic.<name> count its calls; returns
    the counter."""
    calls, fn = Counter(), getattr(fermionic, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(fermionic, name, counted)
    return calls


def test_engine_matches_list_reference(monkeypatch):
    # the packed pass against the list-based transfer sum on the same
    # factors, for F/f/H/I and the three limits. all_lattice_values runs M
    # innermost, so on the packed side every F/f/H/I value at M >= 1 but
    # H's at (2, 1) is a row column; on the list side the row memo is
    # bypassed, so every value is one list sum
    pairs = coprime_pairs(8)
    monkeypatch.setattr(fermionic, "_ROW_CACHE", {})
    columns = counting(monkeypatch, "_next_column")
    packed = all_lattice_values(pairs, 5, (0, 7, 40))
    assert columns["_next_column"] == (4 * len(pairs) - 1) * 6 * 5
    monkeypatch.setattr(fermionic, "_lattice_sum", on_lists)
    monkeypatch.setattr(fermionic, "_from_rows", fermionic._bounded)
    assert all_lattice_values(pairs, 5, (0, 7, 40)) == packed


def test_signed_cut_matches_list_reference():
    # signed factors [n, x] (q)_(n-x), like eval_limit_L's links, cut at
    # q^T: each product is reduced to its balanced low digits. A rule that
    # reads m_{j-1} runs on memo levels (first = 1); the per-call levels
    # run position 1, which reads m_0 = top, and links free of m_{j-1}
    # below it, one of them free of m_{j+1} too, so that its states are
    # summed before one product
    def head(p, c, n):
        return ("mid", 2 * n, n)

    def phi(p, c, n):
        return ("mid", p + n, c)

    def mid(p, c, n):
        return ("mid", 2 * c + 1, c)

    def link(p, c, n):
        return ("mid", c + n, c)

    psis = [lambda x, y: y] + [lambda x, y, j=j: x * (x - y) + j - 1
                               for j in range(1, 4)]
    for d in (1, 2, 3):
        for top in range(6):
            for T in (0, 5, 17, 40):
                for rules, first in (([phi] * d, 1), ([phi, mid, link][:d], d + 1)):
                    args = (top, [head] + rules, psis[:d + 1], first, T)
                    assert _lattice_sum(*args) == on_lists(*args), (d, top, T, first)


def test_limit_L_widening_matches_list_reference(monkeypatch):
    # the a_0 = 2 chain of (7, 2) at M = 8, 9, whose signed-link bound
    # overflows 32-bit words: each call runs one pass, widened once to 64
    # bits from its deepest overflowing per-call level, and each value
    # equals the list sum
    cases = [(fam, M) for fam in ("F", "f") for M in (8, 9)]
    cold_memos(monkeypatch)
    passes = counting(monkeypatch, "_pass")
    widenings = counting(monkeypatch, "_widen")
    packed = []
    for fam, M in cases:
        before = passes["_pass"], widenings["_widen"]
        packed.append(eval_limit_L(fam, 7, 2, M))
        passes[fam, M] = (passes["_pass"] - before[0], widenings["_widen"] - before[1])
    assert [passes[case] for case in cases] == [(1, 1)] * 4
    monkeypatch.setattr(fermionic, "_lattice_sum", on_lists)
    assert [eval_limit_L(fam, 7, 2, M) for fam, M in cases] == packed


def test_widened_states_bound_their_l1(monkeypatch):
    # the levels that a widening runs again, and the states it repacks to
    # feed them, carry bounds: each state's l1 is at least the l1 of the
    # coefficients it decodes to, and the total fits the new width. With
    # 8-bit words most of these sums widen
    calls = [(eval_limit_L, (fam, a, b, M)) for a, b in ((3, 1), (5, 2), (7, 2), (7, 3))
             for M in range(10) for fam in ("F", "f")]
    calls += [(eval_F, (a, b, L, 6)) for a, b in ((7, 3), (8, 5)) for L in range(7)]
    with monkeypatch.context() as m:
        m.setattr(fermionic, "_lattice_sum", on_lists)
        m.setattr(fermionic, "_from_rows", fermionic._bounded)
        expect = [fn(*args) for fn, args in calls]
    monkeypatch.setattr(fermionic, "_FIRST_WIDTH", 8)
    cold_memos(monkeypatch)
    widen, widened = fermionic._widen, []

    def recording(levels, *args):
        out = widen(levels, *args)
        # the levels it made: the repacked feed and the levels after it
        made = [new for new, old in zip(out, levels) if new is not old]
        widened.append((args[-2], made))
        return out

    monkeypatch.setattr(fermionic, "_widen", recording)
    monkeypatch.setattr(fermionic, "_from_rows", fermionic._bounded)
    assert [fn(*args) for fn, args in calls] == expect
    assert len(widened) > 20
    for w, levels in widened:
        assert levels
        for level in levels:  # one state per m_j, or pair states by column
            for at in level.values():
                for lo, v, l1 in at.values() if isinstance(at, dict) else [at]:
                    coeffs = qpoly.unpack(v, abs(v).bit_length() // w + 2, w)
                    assert l1 >= sum(map(abs, coeffs)), w
        assert not max(s[2] for s in levels[-1].values()) >> (w - 1)
    # some widening repacked a free level's pair states
    assert any(isinstance(at, dict)
               for _, levels in widened for at in levels[0].values())


def test_free_level_overflow_restarts(monkeypatch):
    # under 8-bit words these sums' free-level states outgrow the word (the
    # pair states of eval_limit_M, the states per m_j of the b = 1 large-L
    # chain): a widening cannot decode them, so the pass restarts whole at
    # the width of the total's bound, and the values stay equal
    calls = [(eval_limit_M, ("F", 13, 1, 6)), (eval_limit_L, ("F", 8, 1, 9))]
    expect = [fn(*args) for fn, args in calls]
    monkeypatch.setattr(fermionic, "_FIRST_WIDTH", 8)
    widen, restarts = fermionic._widen, Counter()

    def recording(*args):
        try:
            return widen(*args)
        except qcombinat._Overflow:
            restarts["_widen"] += 1
            raise

    monkeypatch.setattr(fermionic, "_widen", recording)
    for (fn, args), value in zip(calls, expect):
        cold_memos(monkeypatch)
        restarts.clear()
        with monkeypatch.context() as m:
            passes = counting(m, "_pass")
            assert fn(*args) == value, (fn.__name__, args)
        assert restarts["_widen"] == 1 and passes["_pass"] == 2, (fn.__name__, args)


def level_chains(memo):
    """The level memo's keys by the (width, cut) their chain starts from:
    a key is (phi, psi, key of the level below), down to (width, cut)."""
    chains = {}
    for key in memo:
        base = key
        while len(base) == 3:
            base = base[2]
        chains.setdefault(base, set()).add(key)
    return chains


def level_his():
    """The stored hi of each level-memo entry, by key."""
    return {key: hi for key, (hi, _) in fermionic._LEVEL_CACHE.items()}


def test_cut_levels_keyed_by_cut(monkeypatch):
    # the free levels of a cut sum are reduced below q^(cut+1), so one rule
    # list at two cuts gives two disjoint chains: either order gives the
    # sums that each cut gives alone (these levels have exponents past q^2)
    phis = [fermionic._multinomial] * 4
    psis = [_flat] + [lambda x, y: 3 * x] * 3
    expect = {T: on_lists(3, phis, psis, 2, T) for T in (2, 30)}
    for order in ((2, 30), (30, 2)):
        monkeypatch.setattr(fermionic, "_LEVEL_CACHE", {})
        for T in order:
            assert _lattice_sum(3, phis, psis, 2, T) == expect[T], (order, T)
        chains = level_chains(fermionic._LEVEL_CACHE)
        # levels 3 and 2 at each cut, none shared
        assert {cut for _, cut in chains} == {2, 30}
        assert [len(keys) for keys in chains.values()] == [2, 2]


def test_wide_words():
    # coefficients of 83 bits: only the 128-bit word holds them
    assert eval_F(2, 1, 30, 30) == _sum_bnewp(30, 30)
    # signed factors whose L1 bound passes 2^63
    assert eval_limit_L("F", 3, 1, 20) == g_poly(20, 20, 3, 4, 1)


def cold_memos(monkeypatch):
    """Clear `_factor`'s cache and put an empty factor store (the one dict
    that `qcombinat` packs into and `fermionic` reads), an empty level memo
    and an empty row memo in place for the test; returns the store."""
    _factor.cache_clear()
    store = {}
    monkeypatch.setattr(qcombinat, "_PACKED_CACHE", store)
    monkeypatch.setattr(fermionic, "_PACKED_CACHE", store)
    monkeypatch.setattr(fermionic, "_LEVEL_CACHE", {})
    monkeypatch.setattr(fermionic, "_ROW_CACHE", {})
    return store


def test_restarts_keep_values(monkeypatch):
    # a first pass of 8-bit words overflows almost everywhere; every
    # restart must give the same values
    pairs = [(2, 1), (3, 1), (5, 2), (7, 3), (8, 5)]
    expect = all_lattice_values(pairs, 6, (0, 12, 40))
    monkeypatch.setattr(fermionic, "_FIRST_WIDTH", 8)
    cold_memos(monkeypatch)
    assert all_lattice_values(pairs, 6, (0, 12, 40)) == expect


BOUNDED = (("F", eval_F), ("f", eval_f), ("H", eval_H), ("I", eval_I))


def scan(pairs, tops, ms):
    """(family, evaluator, args) of F/f/H/I over the pairs, L in tops and M
    in ms, in scan order: family, pair, L, then M innermost (H without
    (2, 1), whose seed stays a point form)."""
    return [(family, fn, (a, b, L, M)) for family, fn in BOUNDED for a, b in pairs
            if (family, a, b) != ("H", 2, 1) for L in tops for M in ms]


def test_rows_match_point_form(monkeypatch):
    # every M >= 1 of a scan at L >= 0 is a row column: each equals the
    # point form, which a cleared row memo gives; negative sizes stay points
    calls = scan(coprime_pairs(8), range(-1, 9), range(-2, 13))
    expect = []
    for _, fn, args in calls:
        monkeypatch.setattr(fermionic, "_ROW_CACHE", {})
        expect.append(fn(*args))
    columns = counting(monkeypatch, "_next_column")
    assert [fn(*args) for _, fn, args in calls] == expect
    assert columns["_next_column"] == sum(L >= 0 and M >= 1 for *_, (_, _, L, M) in calls)


def test_row_restart_keeps_values(monkeypatch):
    # with 8-bit words, rows start narrow and restart wider part way: the
    # columns before and after a restart are exact
    calls = scan([(2, 1), (3, 1), (5, 2), (7, 3), (8, 5)], (3, 6), range(13))
    expect = [fn(*args) for _, fn, args in calls]
    monkeypatch.setattr(fermionic, "_FIRST_WIDTH", 8)
    cold_memos(monkeypatch)
    rows, builds, inside = counting(monkeypatch, "_row"), Counter(), []
    row_, extend = fermionic._row, fermionic._extend

    def in_row(*args):
        inside.append(True)
        try:
            return row_(*args)
        finally:
            inside.pop()

    def counted(*args):  # a numerator build is an `_extend` call inside `_row`
        builds[bool(inside)] += 1
        return extend(*args)

    monkeypatch.setattr(fermionic, "_row", in_row)
    monkeypatch.setattr(fermionic, "_extend", counted)
    widths = {}
    for (family, fn, args), value in zip(calls, expect):
        assert fn(*args) == value, (family, args)
        row = fermionic._ROW_CACHE[family][3]
        if row is not None:
            widths.setdefault((family, args[:3]), set()).add(row[0])
    # some row held a column at 8 bits and then restarted at a wider word
    assert any(8 in ws and len(ws) > 1 for ws in widths.values())
    # a restart repacks a numerator that its width holds, and reads level 1
    # again for one that it does not: both happen here
    starts = len(widths)
    assert starts < builds[True] < rows["_row"]


def test_bounded_grid_builds_no_row(monkeypatch):
    # perfbench's bounded-grid issues scattered points: at the reference
    # seed its part-0 check order starts no row, so it gains and loses
    # nothing by the row memo
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        from workloads import bounded_grid
    finally:
        sys.path.pop(0)
    monkeypatch.setattr(fermionic, "_ROW_CACHE", {})
    rows = counting(monkeypatch, "_row")
    columns = counting(monkeypatch, "_next_column")
    for cid, params in bounded_grid(0, 0):
        assert check_identity(cid, params).status == "pass", (cid, params)
    assert not rows and not columns


def test_bench_mul_clears_every_memo(monkeypatch):
    # bench_mul's cold rows start from cleared memos: after a few lattice
    # calls, its clear_memos leaves every functools cache of cf, qpoly,
    # qcombinat and fermionic empty, and the dict memos it clears. Fresh
    # caches and memos stand in for the modules' own during the test, so
    # the rule objects that other tests compare keep their identity
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
    try:
        import bench_mul
    finally:
        sys.path.pop(0)
    modules = (cf, qpoly, qcombinat, fermionic)
    fresh = {id(obj): functools.lru_cache(**obj.cache_parameters())(obj.__wrapped__)
             for module in modules for obj in vars(module).values()
             if hasattr(obj, "cache_info") and obj.__module__ == module.__name__}
    for module in modules:  # each cache under every name they hold it by
        for name, obj in list(vars(module).items()):
            if id(obj) in fresh:
                monkeypatch.setattr(module, name, fresh[id(obj)])
    cold_memos(monkeypatch)
    for name in ("_QBIN_CACHE", "_POCH_CACHE"):
        monkeypatch.setattr(qcombinat, name, {})
    eval_F(5, 2, 3, 3)
    eval_limit_L("F", 7, 3, 4)
    assert fermionic._binomial.cache_info().currsize
    assert fermionic._quadratic.cache_info().currsize
    bench_mul.clear_memos()
    sizes = {f"{cached.__module__}.{cached.__name__}": cached.cache_info().currsize
             for cached in fresh.values()}
    assert sizes == dict.fromkeys(sizes, 0)
    assert not any((qcombinat._QBIN_CACHE, qcombinat._POCH_CACHE, qcombinat._PACKED_CACHE,
                    fermionic._LEVEL_CACHE, fermionic._ROW_CACHE))


def test_negative_top_is_zero(monkeypatch):
    # a sum whose top m_0 is negative has no term, whatever its head and
    # per-call levels: its pass returns zero before it reads the level memo
    monkeypatch.setattr(fermionic, "_LEVEL_CACHE", {})
    passes = counting(monkeypatch, "_pass")
    # a_0 = 0, 1 and 2
    calls = [(eval_limit_L, (fam, a, b, M)) for fam in ("F", "f")
             for a, b in ((8, 5), (7, 3), (7, 2)) for M in (-1, -3)]
    calls += [(eval_limit_M, (fam, a, b, -1)) for fam in ("F", "f", "I")
              for a, b in ((2, 1), (7, 3), (8, 5))]
    for fn, args in calls:
        assert fn(*args) == LaurentPoly.zero(), (fn.__name__, args)
    assert passes["_pass"] == len(calls)
    assert not fermionic._LEVEL_CACHE


def test_negative_sizes_leave_memos_empty(monkeypatch):
    # F, f, H and I at L < 0 or M < 0 have no term: each returns zero
    # before it reads the level memo or the row memo, and so does the H
    # seed at (2, 1), whose head is zero at M < 0 for every m_1 <= L
    cold_memos(monkeypatch)
    passes = counting(monkeypatch, "_pass")
    for args in ((7, 3, 8, -1), (7, 3, -1, 4)):
        for _, fn in BOUNDED:
            assert fn(*args) == LaurentPoly.zero(), (fn.__name__, args)
    for L, M in [(L, -1) for L in range(-1, 5)] + [(8, -3), (-1, 0), (-1, 3)]:
        assert eval_H(2, 1, L, M) == LaurentPoly.zero(), (L, M)
    assert not fermionic._LEVEL_CACHE
    assert not fermionic._ROW_CACHE
    assert not passes


def test_row_entry_holds_last_value(monkeypatch):
    # an entry holds the value at its M: a repeated call there runs
    # nothing, and a call below it runs the point form and leaves a point
    cold_memos(monkeypatch)
    for M in range(4):
        eval_F(5, 2, 4, M)
    assert fermionic._ROW_CACHE["F"][3] is not None  # a row, grown to M = 3
    passes, columns = counting(monkeypatch, "_pass"), counting(monkeypatch, "_next_column")
    assert eval_F(5, 2, 4, 3) == fermionic._ROW_CACHE["F"][2]
    assert not passes and not columns
    value = eval_F(5, 2, 4, 1)
    entry = fermionic._ROW_CACHE["F"]
    assert entry[1:] == [1, value, None]
    assert passes["_pass"] == 1 and not columns
    cold_memos(monkeypatch)
    assert value == eval_F(5, 2, 4, 1)


def test_row_memo_one_entry_per_family(monkeypatch):
    # the memo holds at most one live entry per family, whatever the order
    # of the calls: scan order (rows), M outermost (points) and shuffled
    calls = scan(coprime_pairs(6), range(5), range(5))
    for order in (calls, sorted(calls, key=lambda c: c[2][3]),
                  random.Random(3).sample(calls, len(calls))):
        cold_memos(monkeypatch)
        for family, fn, args in order:
            fn(*args)
            memo = fermionic._ROW_CACHE
            assert set(memo) <= {"F", "f", "H", "I"}
            assert all(entry[0][0] == fam for fam, entry in memo.items())
            assert memo[family][0][3] == args[2]  # the entry of the last call


def test_thmmain_pass_count(monkeypatch):
    # the default thmmain suite runs at most one point pass and one row
    # per (pair, L), and a row reads its numerator from the level memo
    # with no pass: at most 9 pairs x 7 L x 2 = 126 passes, where one pass
    # per check took 882
    cold_memos(monkeypatch)
    passes = counting(monkeypatch, "_pass")
    reports = run_campaign("thmmain")
    assert len(reports) == 882 and all(r.status == "pass" for r in reports)
    assert passes["_pass"] <= 126


def grid_calls(pairs, top):
    """(evaluator, args) of F/f/H/I, eval_limit_M and eval_limit_L over the
    pairs and L, M <= top, smallest sizes first, then eval_limit_both over
    the pairs at T = 0, 7, 40. A cut sum's levels are keyed by T, and every
    sum at one T has the same m_1 <= isqrt(T), so any order of them builds
    each of their keys once."""
    calls = []
    for L in range(top + 1):
        for M in range(top + 1):
            for a, b in pairs:
                calls += [(fn, (a, b, L, M))
                          for fn in (eval_F, eval_f, eval_I, eval_H)]
        for a, b in pairs:
            calls += [(eval_limit_M, (fam, a, b, L)) for fam in ("F", "f", "I")]
            calls += [(eval_limit_L, (fam, a, b, L)) for fam in ("F", "f")]
    for T in (0, 7, 40):
        for a, b in pairs:
            fams = ("F", "f", "I") if b > 1 else ("F", "I")
            calls += [(eval_limit_both, (fam, a, b, T)) for fam in fams]
    return calls


def test_failed_build_keeps_memo_whole(monkeypatch):
    # with 8-bit words, factors too wide for the word stop builds part
    # way; largest sizes first, the smaller calls after them must find
    # only whole columns in the level memo
    calls = grid_calls([(5, 2), (7, 3), (8, 5)], 8)[::-1]
    expect = [fn(*args) for fn, args in calls]
    monkeypatch.setattr(fermionic, "_FIRST_WIDTH", 8)
    cold_memos(monkeypatch)
    got = []
    for fn, args in calls:
        got.append(fn(*args))
        # a failed build stores nothing: no entry without columns
        assert all(hi >= 0 for hi, _ in fermionic._LEVEL_CACHE.values())
    assert got == expect


def test_restarts_build_each_factor_once(monkeypatch):
    # a restart at a wider word packs the stored coefficients of the
    # factors built so far, and builds none of them again
    monkeypatch.setattr(fermionic, "_FIRST_WIDTH", 8)
    for run in (lambda: eval_limit_L("F", 7, 3, 9),
                lambda: eval_limit_both("F", 7, 5, 60)):
        memo = cold_memos(monkeypatch)
        run()
        assert len(memo) > 1  # the pass did restart
        # one build per factor packed at any width; a restart's repacking
        # reads the cache
        info = _factor.cache_info()
        assert info.misses == info.currsize == len(set().union(*memo.values()))
        assert info.hits


def test_inv_factor_against_division_chain():
    # ("inv", base, k, T) is 1/(q^base; q^base)_k mod q^(T+1), the k-step
    # div_one_minus chain
    for base in (1, 2):
        for k in range(13):
            for T in (0, 5, 40, 60):
                s = TruncatedSeries.one(T)
                for i in range(1, k + 1):
                    s = s.div_one_minus(base * i)
                assert _factor(("inv", base, k, T)) == LaurentPoly.dense(0, s.coeffs)


def test_shared_levels_in_any_order(monkeypatch):
    # the level memo grows in place with the first call that needs more
    # columns; smallest first grows it at every size
    calls = grid_calls(coprime_pairs(8), 6)
    with monkeypatch.context() as m:
        m.setattr(fermionic, "_lattice_sum", on_lists)
        expect = [fn(*args) for fn, args in calls]
    ascending = list(range(len(calls)))
    shuffled = random.Random(9).sample(ascending, len(calls))
    for order in (ascending, ascending[::-1], shuffled):
        cold_memos(monkeypatch)
        for i in order:
            fn, args = calls[i]
            assert fn(*args) == expect[i], (fn.__name__, args)


def counting_extend(monkeypatch, runs, columns):
    """Make `_extend` and `_extend_per_m` count, per level key, the builds
    of that level and the columns (or states per m_j) each build adds, read
    from the level memo's stored hi before and after the call (a level it
    does not grow is not built)."""
    for name in ("_extend", "_extend_per_m"):
        extend = getattr(fermionic, name)

        def counting(phis, psis, first, *args, extend=extend):
            keys, key = [], args[1:]  # (w, cut) below level d
            for j in range(len(phis) - 1, first - 1, -1):
                key = phis[j], psis[j], key
                keys.append(key)
            before = {key: fermionic._LEVEL_CACHE.get(key, (-1,))[0] for key in keys}
            states = extend(phis, psis, first, *args)
            for key, old in before.items():
                hi = fermionic._LEVEL_CACHE.get(key, (-1,))[0]
                if hi > old:
                    runs[key] += 1
                    columns[key] += hi - old
            return states

        monkeypatch.setattr(fermionic, name, counting)


def test_shared_levels_built_once(monkeypatch):
    # largest sizes first, each level is built once; in any order, each
    # build adds only the columns past the level's stored hi, so every
    # column of the memo is built exactly once
    calls = grid_calls(coprime_pairs(8), 6)

    def builds(order):
        monkeypatch.setattr(fermionic, "_LEVEL_CACHE", {})
        runs, columns = Counter(), Counter()
        counting_extend(monkeypatch, runs, columns)
        for fn, args in order:
            fn(*args)
        memo = fermionic._LEVEL_CACHE
        assert columns == Counter({key: hi + 1 for key, (hi, _) in memo.items()})
        return runs

    assert set(builds(calls[::-1]).values()) == {1}
    assert max(builds(calls).values()) > 1  # smallest first: grown in place


def test_level_one_memo_serves_smaller_L(monkeypatch):
    # level 1 reads L only as its column m_0, so a cold call at (L, M)
    # builds every level that the calls at L' <= L read: they build none,
    # every `_extend` call (a row's numerator too) takes level 1 from the
    # memo, and each value equals the point form on memos cleared before it
    sums = [fn for _, fn in BOUNDED]
    sums += [lambda a, b, L, M, fam=fam: eval_limit_M(fam, a, b, L) for fam in ("F", "f", "I")]
    calls = [(L, M) for L in range(6) for M in range(7)]
    # shuffled, then one L in scan order, which makes a row
    calls = random.Random(5).sample(calls, len(calls)) + [(3, M) for M in range(7)]
    for fn in sums:
        for a, b in ((2, 1), (3, 1), (7, 2), (8, 5), (7, 4)):
            expect = []
            for L, M in calls:
                cold_memos(monkeypatch)
                expect.append(fn(a, b, L, M))
            cold_memos(monkeypatch)
            fn(a, b, 5, 3)
            runs, columns, firsts = Counter(), Counter(), Counter()
            with monkeypatch.context() as m:
                counting_extend(m, runs, columns)
                extend = fermionic._extend

                def recording(phis, psis, first, *args):
                    firsts[first] += 1
                    return extend(phis, psis, first, *args)

                m.setattr(fermionic, "_extend", recording)
                assert [fn(a, b, L, M) for L, M in calls] == expect, (a, b)
            assert not runs, (a, b)
            assert set(firsts) == {1}, (a, b)


def test_shared_levels_keyed_by_rules(monkeypatch):
    # the level memo is keyed by the rule objects at the free positions:
    # (7, 2) and (7, 5) have the same quotients, so the same rules and the
    # same levels; an equal tuple built afresh gets the same objects
    rules = _rules(cf_expand(7, 2).quotients, "F")
    assert _rules(cf_expand(7, 5).quotients, "F") is rules
    fresh = tuple([2] * 2)
    assert fresh == cf_expand(7, 2).quotients and fresh is not cf_expand(7, 2).quotients
    assert _rules(fresh, "F") is rules
    monkeypatch.setattr(fermionic, "_LEVEL_CACHE", {})
    eval_F(7, 2, 4, 4)
    entries = level_his()
    assert len(entries) == 4  # levels 1..4
    eval_F(7, 5, 4, 4)
    assert level_his() == entries
    # a rule rebuilt per call would give each call levels of its own: a
    # second pass over the grid must add no entry, grow none and build no
    # column
    calls = grid_calls(coprime_pairs(8), 6)
    for fn, args in calls:
        fn(*args)
    entries = level_his()
    runs, columns = Counter(), Counter()
    counting_extend(monkeypatch, runs, columns)
    for fn, args in calls:
        fn(*args)
    assert level_his() == entries
    assert not runs


def test_levels_shared_along_the_burge_tree(monkeypatch):
    # each Burge transform adds a summation at the head, so pairs along
    # the tree run the same rules from some position to d: level j of a
    # sum is keyed by its rules from j to d, and (8, 1) builds every free
    # level that the pairs below it on its chain and the large-M limits
    # need
    monkeypatch.setattr(fermionic, "_LEVEL_CACHE", {})
    eval_F(8, 1, 6, 6)
    entries = level_his()
    assert len(entries) == 7  # levels 1..7 of (8, 1)
    for a, b in ((7, 1), (6, 1), (5, 1), (4, 1), (3, 1), (8, 7), (5, 4)):
        eval_F(a, b, 6, 6)
        assert level_his() == entries, (a, b)
    for a in range(2, 8):
        eval_limit_M("F", a, 1, 6)
        assert level_his() == entries, a
    # (5, 2) and (7, 3) each head a chain of their own: their levels 2..d
    # are levels of (8, 1), and each adds its level 1 on top; (7, 4) has
    # the quotients of (7, 3) and adds nothing
    for (a, b), new in ((5, 2), 1), ((7, 3), 1), ((7, 4), 0):
        eval_F(a, b, 6, 6)
        added = set(level_his()) - set(entries)
        assert len(added) == new and all(key[2] in entries for key in added), (a, b)
        entries = level_his()
    # every free level of family F at a <= 8 is one entry: 11 of them, the
    # 7 of (8, 1) and one level 1 per other head chain ((5, 2), (7, 3),
    # (7, 2) and (8, 3)), where one entry per quotients would hold 43
    for a, b in coprime_pairs(8):
        eval_F(a, b, 6, 6)
    assert len(level_his()) == 11


def test_limit_L_b1_levels_one_chain(monkeypatch):
    # the b = 1 large-L limits of F and f run [m_j, m_{j+1}] at every
    # position after the head, level 1 included, so every depth reads one
    # chain of levels: one base, each level below exactly one other, and
    # one state per m_j up to the largest M asked for
    monkeypatch.setattr(fermionic, "_LEVEL_CACHE", {})
    for a in range(2, 9):
        for fam in ("F", "f"):
            for M in range(7):
                eval_limit_L(fam, a, 1, M)
    memo = fermionic._LEVEL_CACHE
    assert len(level_chains(memo)) == 1
    tails = [key[2] for key in memo]
    assert len(set(tails)) == len(memo) == 7  # levels 1..7 of (8, 1)
    assert all(len(tail) == 2 or tail in memo for tail in tails)
    assert all(hi == 6 and list(states) == list(range(7))
               for hi, states in memo.values())
    # a call runs only its head on the kept chain: at most M + 1 products,
    # 4 at M = 6, as [6, m] and [6, 6 - m] have one key and their states
    # are summed before one product
    products = counting(monkeypatch, "_times")
    eval_limit_L("F", 8, 1, 6)
    assert products["_times"] == 4


def test_rules_interned():
    # equal rule parameters give one rule object, so the kernel's rules at
    # the tail of (7, 3) are those of (4, 1), whatever the quotients
    long, short = _rules((1, 3), "F"), _rules((3,), "F")
    for rules_long, rules_short in zip(long, short):
        assert all(x is y for x, y in zip(rules_long[2:5], rules_short[1:4]))
    assert short[1][3] is fermionic._square


def box_terms(a, b, L, family, margin=2):
    """Nonzero terms of the raw lattice sum over the full box
    0 <= m_j <= L+margin, without the boundary binomial: (m_1, poly, exponent).
    No monotonicity, no pruning; n_j is transcribed from the Cartan matrix."""
    cd = build_cartan(cf_expand(a, b))
    d, car, tau = cd.d, cd.cartan, cd.tau
    out = []
    for m in itertools.product(range(L + margin + 1), repeat=d):
        n = [(L if j == 0 else 0) - sum(car[j][k] * m[k] for k in range(d))
             for j in range(d)]
        poly = LaurentPoly.one()
        for j in range(d):
            up, lo, base = tau[j] * m[j] + n[j], tau[j] * m[j], 1
            if family == "H":
                up -= j == d - 1
                lo -= j == d - 2
            elif family == "I":
                base = 3 - tau[j]
            poly = poly * qbin(up, lo, base)
        if poly.is_zero():
            continue
        e = quad_form(cd, list(m), barred=(family == "f"))
        if a > 2 * b:
            e += L * (L - 2 * m[0])
        if family == "H":
            e += 2 * m[d - 1] - 2 * m[d - 2] + 1
        out.append((m[0], poly, e))
    return out


def test_slack_soundness():
    # enlarging the brute-force box never adds a term: every nonzero term
    # already lies in L >= m_1 >= ... >= m_d >= 0
    for (a, b) in [(3, 1), (5, 3), (7, 2), (7, 5), (8, 3)]:
        for L in range(0, 4):
            for family in ("F", "f", "H", "I"):
                terms = box_terms(a, b, L, family)
                assert all(m1 <= L for m1, _, _ in terms)
                assert box_terms(a, b, L, family, margin=5) == terms, \
                    (a, b, L, family)


def test_support_against_full_box():
    # the evaluators sum only over L >= m_1 >= ... >= m_d >= 0; a term
    # outside that support would show up here
    for (a, b) in [(3, 1), (5, 3), (7, 2), (7, 5), (8, 3)]:
        ge = a > 2 * b
        for L in range(0, 4):
            for family, fn in (("F", eval_F), ("f", eval_f), ("H", eval_H),
                               ("I", eval_I)):
                terms = box_terms(a, b, L, family)
                for M in range(0, 4):
                    expect = LaurentPoly.zero()
                    for m1, poly, e in terms:
                        head = qbin(L + M + m1, 2 * L) if ge \
                            else qbin(2 * L + M - m1, 2 * L)
                        expect = expect + (head * poly).scale(e)
                    assert fn(a, b, L, M) == expect, (a, b, L, M, family)
                if family != "H":
                    expect = LaurentPoly.zero()
                    for m1, poly, e in terms:
                        expect = expect + poly.scale(e)
                    assert eval_limit_M(family, a, b, L) == expect, \
                        (a, b, L, family)


def test_limit_M_21():
    # F: sum q^{n^2}[L,n]; f: sum q^{nL}[L,n]
    assert eval_limit_M("F", 2, 1, 2) == lp({0: 1, 1: 1, 2: 1, 4: 1})
    assert eval_limit_M("f", 2, 1, 2) == lp({0: 1, 2: 1, 3: 1, 4: 1})
    for L in range(0, 8):
        fF = LaurentPoly.zero()
        ff = LaurentPoly.zero()
        for n in range(0, L + 1):
            fF = fF + qbin(L, n).scale(n * n)
            ff = ff + qbin(L, n).scale(n * L)
        assert eval_limit_M("F", 2, 1, L) == fF
        assert eval_limit_M("f", 2, 1, L) == ff


def test_limit_M_unsupported():
    with pytest.raises(NotImplementedError):
        eval_limit_M("H", 3, 1, 2)


def test_limit_L_overrides():
    # the reciprocal family with b = 1 reduces to a pure Pochhammer quotient
    for M in range(0, 6):
        assert eval_limit_L("f", 2, 1, M) == poch_range(M + 1, 2 * M)
        assert eval_limit_L("f", 3, 1, M) == eval_limit_L("F", 2, 1, M)
    with pytest.raises(NotImplementedError):
        eval_limit_L("I", 3, 2, 2)


def test_limit_L_b1_negative_M():
    for a in range(2, 9):
        for fam in ("F", "f"):
            for M in (-1, -3):
                assert eval_limit_L(fam, a, 1, M).is_zero(), (fam, a, M)


@pytest.mark.parametrize("fam", ["F", "f"])
@pytest.mark.parametrize("a,b", [(1, 1), (0, 1), (3, 3), (4, 2)])
def test_limit_L_rejects_pair(fam, a, b):
    with pytest.raises(ValueError, match=rf"\({a},{b}\)"):
        eval_limit_L(fam, a, b, 3)


def limit_L_chain(family, a, b, M):
    """eval_limit_L on the untelescoped chain: the head [2M, M-m_1], the
    factors [M+m_j, m_j-m_{j+1}] at j <= a_0 and the link
    [M+m, tau m] (q)_(M+m-tau m), times (q)_M for b = 1, a >= 3; f at
    b = 1 by its overrides."""
    if family == "f" and b == 1:
        if a == 2:
            return qbin(2 * M, M) * q_poch(M)
        return limit_L_chain("F", a - 1, 1, M)
    cfd = cf_expand(a, b)
    a0 = cfd.quotients[0] if a > 2 * b else 0
    tau = build_cartan(cfd).tau  # read by the link only where there is one
    links = [lambda p, c, n: _qkey(2 * M, M - n)]
    links += [lambda p, c, n: _qkey(M + c, c - n)] * a0
    links.append(lambda p, c, n: ("mid", M + c, tau[a0] * c))
    total = _kernel_sum(cfd, family, M, links, [_flat] + [_square] * a0, a0 + 2)
    return total * q_poch(M) if b == 1 and a > 2 else total


def test_limit_L_matches_chain():
    # the telescoped heads (b = 1 and a_0 = 1) against the chain they
    # replace, and the chain kept for the other pairs; deeper b = 1 sums
    # at smaller M
    cases = [(a, b, M) for a, b in coprime_pairs(8) for M in range(16)]
    cases += [(a, 1, M) for a in range(9, 14) for M in range(11)]
    for a, b, M in cases:
        for fam in ("F", "f"):
            assert eval_limit_L(fam, a, b, M) == \
                limit_L_chain(fam, a, b, M), (fam, a, b, M)


def test_limit_L_memo_names(monkeypatch):
    # the telescoped sums run rules of their own at the shared positions: a
    # level-memo key shared with eval_F / eval_limit_M on the same quotients
    # or with the mirror pair's limit (a kernel level 2), or a b = 1 key
    # without the depth, would hand one sum the states of another
    calls = []
    for M in range(7):
        for a, b in ((5, 2), (7, 3), (8, 3)):  # a_0 = 1
            for fam, fn in (("F", eval_F), ("f", eval_f)):
                calls += [(fn, (a, b, M, M)), (eval_limit_L, (fam, a, b, M)),
                          (eval_limit_M, (fam, a, b, M)),
                          (eval_limit_L, (fam, a, a - b, M)),
                          (eval_limit_M, (fam, a, a - b, M)),
                          (fn, (a, a - b, M, M))]
    calls += [(eval_limit_L, ("F", a, 1, M)) for a in range(2, 9)
              for M in range(7)]
    with monkeypatch.context() as m:
        m.setattr(fermionic, "_lattice_sum", on_lists)
        expect = [limit_L_chain(*args) if fn is eval_limit_L else fn(*args)
                  for fn, args in calls]
    for order in (range(len(calls)), range(len(calls) - 1, -1, -1)):
        cold_memos(monkeypatch)
        for i in order:
            fn, args = calls[i]
            assert fn(*args) == expect[i], (fn.__name__, args)


def test_limit_L_75_display():
    # quadruple sum with quadratic form m1^2+(m1-m2)^2+m3^2+m4^2
    def display(M):
        total = LaurentPoly.zero()
        for m1 in range(0, M + 1):
            # build (q)_2M / ((q)_{M-m1} (q)_{2m1}) exactly
            head = qbin(2 * M, M - m1) * qbin(M + m1, 2 * m1) \
                * q_poch(M - m1)
            for m2 in range(0, m1 + 1):
                for m3 in range(0, m2 + 3):
                    for m4 in range(0, m3 + 1):
                        t = head * qbin(m1 + m2 - m3, 2 * m2) \
                            * qbin(m2 + m3 - m4, 2 * m3) * qbin(m3, m4)
                        e = m1 * m1 + (m1 - m2) ** 2 + m3 * m3 + m4 * m4
                        total = total + t.scale(e)
        return total

    for M in range(0, 5):
        assert eval_limit_L("F", 7, 5, M) == display(M)


def test_limit_L_72_display():
    # mixed (n1,n2,m3,m4) coordinates, N_j = n_j + ... + m3
    def display(M):
        total = LaurentPoly.zero()
        for n1 in range(0, M + 1):
            for n2 in range(0, M - n1 + 1):
                for m3 in range(0, M - n1 - n2 + 1):
                    head = qbin(2 * M, M - m3 - n1 - n2) \
                        * qbin(M + m3 + n1 + n2, n1) \
                        * qbin(M + m3 + n2, n2) \
                        * qbin(M + m3, 2 * m3) * q_poch(M - m3)
                    for m4 in range(0, m3 + 1):
                        t = head * qbin(m3, m4)
                        e = (n1 + n2 + m3) ** 2 + (n2 + m3) ** 2 \
                            + m3 * m3 + m4 * m4
                        total = total + t.scale(e)
        return total

    for M in range(0, 5):
        assert eval_limit_L("F", 7, 2, M) == display(M)


def test_limit_both_21():
    s = eval_limit_both("F", 2, 1, 10)
    assert s.coeffs == [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6]


def test_limit_both_rejects():
    with pytest.raises(ValueError):
        eval_limit_both("F", 2, 1, -1)
    with pytest.raises(NotImplementedError):
        eval_limit_both("H", 3, 1, 5)
    with pytest.raises(NotImplementedError):
        eval_limit_both("f", 3, 1, 5)
    for fam, a, b in (("f", 1, 1), ("F", 4, 2)):
        with pytest.raises(ValueError, match=rf"\({a},{b}\)"):
            eval_limit_both(fam, a, b, 5)


def test_limits_converge_to_double_limit():
    T = 8
    for (a, b) in [(2, 1), (3, 2), (5, 2), (5, 3), (7, 5)]:
        both = eval_limit_both("F", a, b, T)
        assert poly_agrees_with_series(eval_limit_M("F", a, b, 9), both)
        assert poly_agrees_with_series(eval_limit_L("F", a, b, 9), both)
        if b > 1:
            bothf = eval_limit_both("f", a, b, T)
            assert poly_agrees_with_series(eval_limit_M("f", a, b, 9), bothf)
            assert poly_agrees_with_series(eval_limit_L("f", a, b, 9), bothf)


def test_nonnegative_coefficients():
    for (a, b) in coprime_pairs(8):
        for L in range(0, 4):
            for M in range(0, 4):
                for fn in (eval_F, eval_f, eval_I, eval_H):
                    val = fn(a, b, L, M)
                    assert val.min_negative() is None, (a, b, L, M, fn)
