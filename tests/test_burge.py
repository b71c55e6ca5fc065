"""Bosonic sums, the two summation transforms, and the tree walker."""

from fractions import Fraction
from math import gcd
from random import Random

import pytest

from qburge import burge
from qburge.qpoly import DegreeLimitError, LaurentPoly
from qburge.qcombinat import NonIntegerExponentError, b_kernel, qbin
from qburge.fermionic import eval_F, eval_f, eval_H, eval_I
from qburge.burge import (BosonicSpec, bosonic_eval, spec_main, spec_recip,
                          spec_even, spec_shifted, tree_walk)
from qburge.verify import _sum_bnewp2


def lp(d):
    return LaurentPoly(dict(d))


def coprime_pairs(a_max, a_min=2):
    return [(a, b) for a in range(a_min, a_max + 1)
            for b in range(1, a) if gcd(a, b) == 1]


def transform_step(direction, inner, L, M):
    """One summation transform, point by point: the reference for the rows.

    direction "B1": sum_i q^(i^2) [2L+M-i, 2L] inner(L-i, i)
    direction "B2": sum_i q^(i^2) [2L+M-i, 2L] inner(i, L-i)
    """
    total = LaurentPoly.zero()
    for i, (l, m) in enumerate(inner_args(direction, L, M)):
        total = total + (qbin(2 * L + M - i, 2 * L) * inner(l, m)).scale(i * i)
    return total


def inner_args(direction, L, M):
    """The (l, m) at which `transform_step` reads inner, term i at index i."""
    if direction not in ("B1", "B2"):
        raise ValueError("direction must be 'B1' or 'B2'")
    return [(L - i, i) if direction == "B1" else (i, L - i)
            for i in range(min(L, M) + 1)]


# family -> (root pair, value there), as in the row walk
POINT_ROOTS = {
    "F": ((1, 1), lambda L, M: qbin(L + M, M)),
    "I": ((1, 1), lambda L, M: qbin(L + M, M, base=2)),
    "H": ((2, 1), lambda L, M: bosonic_eval(spec_shifted(2, 1), L, M)),
}


def point_walk(a, b, family, L, M, cache):
    """`tree_walk` point by point, one `transform_step` per point, with its
    values in `cache` by (a, b, family, L, M): the reference for the rows."""
    if L < 0 or M < 0:
        return LaurentPoly.zero()
    root, value = POINT_ROOTS[family]
    chain, pair, need = [], (a, b), {(L, M)}
    while True:
        need = {lm for lm in need if (*pair, family, *lm) not in cache}
        if not need:
            break
        chain.append((pair, need))
        if pair == root:
            break
        direction, pair = burge._below(*pair)
        need = {lm for l, m in need for lm in inner_args(direction, l, m)}
    for pair, need in reversed(chain):
        if pair == root:
            for l, m in need:
                cache[(*pair, family, l, m)] = value(l, m)
            continue
        direction, (x, y) = burge._below(*pair)
        inner = lambda l, m: cache[(x, y, family, l, m)]
        for l, m in need:
            cache[(*pair, family, l, m)] = transform_step(direction, inner, l, m)
    return cache[(a, b, family, L, M)]


def condition_check(L, M, a, b):
    """Precondition of the kernel transform identity: the sum side must not
    vanish while the kernel side does not."""
    chain1 = (-L + a <= -b) and (-b <= L + a) and (L + a < b) and (b <= M)
    chain2 = (-L - a <= b) and (b <= L - a) and (L - a < -b) and (-b <= M)
    return not (chain1 or chain2)


def test_bosonic_eval_examples():
    assert bosonic_eval(spec_main(2, 1), 1, 1) == lp({0: 1, 1: 2, 2: 1})
    assert bosonic_eval(spec_main(2, 1), 0, 5) == LaurentPoly.one()
    with pytest.raises(ValueError):
        bosonic_eval(BosonicSpec(0, 1), 1, 1)
    with pytest.raises(NonIntegerExponentError):
        bosonic_eval(BosonicSpec(2, 1, c2=Fraction(1, 2)), 3, 3)


def test_bosonic_equals_fermionic_small():
    for (a, b) in coprime_pairs(6):
        for L in range(0, 4):
            for M in range(0, 4):
                assert bosonic_eval(spec_main(a, b), L, M) == \
                    eval_F(a, b, L, M)
                assert bosonic_eval(spec_recip(a, b), L, M) == \
                    eval_f(a, b, L, M)
                assert bosonic_eval(spec_even(a, b), L, M) == \
                    eval_I(a, b, L, M)
                if a >= 3:
                    assert bosonic_eval(spec_shifted(a, b), L, M) == \
                        eval_H(a, b, L, M)


def test_transform_step_kernel_identity():
    # both directions applied to a bare kernel reproduce the shifted kernel
    for ap in range(-3, 4):
        for bp in range(-3, 4):
            for L in range(0, 5):
                for M in range(0, 5):
                    if not condition_check(L, M, ap, bp):
                        continue
                    rhs = b_kernel(L, M, ap + bp, bp).scale(bp * bp)
                    got1 = transform_step(
                        "B1", lambda l, m: b_kernel(l, m, ap, bp), L, M)
                    got2 = transform_step(
                        "B2", lambda l, m: b_kernel(l, m, bp, ap), L, M)
                    assert got1 == rhs, ("B1", ap, bp, L, M)
                    assert got2 == rhs, ("B2", ap, bp, L, M)


def test_condition_check_examples():
    assert not condition_check(0, 2, -1, 1)
    assert condition_check(3, 3, 1, 1)
    assert condition_check(0, 0, 0, 0)


def test_transform_step_bad_direction():
    with pytest.raises(ValueError):
        transform_step("B3", lambda l, m: LaurentPoly.one(), 1, 1)


def test_tree_walk_seeds():
    for L in range(0, 5):
        for M in range(0, 5):
            assert tree_walk(2, 1, "F", L, M) == eval_F(2, 1, L, M)
            assert tree_walk(2, 1, "I", L, M) == eval_I(2, 1, L, M)
            assert tree_walk(3, 1, "H", L, M) == eval_H(3, 1, L, M)
            assert tree_walk(3, 2, "H", L, M) == eval_H(3, 2, L, M)


def test_tree_walk_matches_direct_evaluation():
    for (a, b) in coprime_pairs(7, a_min=3):
        for L in range(0, 4):
            for M in range(0, 4):
                assert tree_walk(a, b, "F", L, M) == eval_F(a, b, L, M)
                assert tree_walk(a, b, "I", L, M) == eval_I(a, b, L, M)
                assert tree_walk(a, b, "H", L, M) == eval_H(a, b, L, M)


def test_tree_walk_edges():
    assert tree_walk(3, 2, "F", -1, 2).is_zero()
    assert tree_walk(3, 2, "F", 2, -1).is_zero()
    for L in range(0, 4):
        for M in range(0, 4):
            assert tree_walk(2, 1, "H", L, M) == eval_H(2, 1, L, M)
    for family in ("f", "X"):
        with pytest.raises(ValueError):
            tree_walk(3, 1, family, 3, 2)
    for (a, b) in ((4, 2), (2, 3), (1, 1)):
        with pytest.raises(ValueError):
            tree_walk(a, b, "F", 2, 2)


def test_H_root_three_routes():
    # at the root of the H tree, three independent routes: the walk's
    # bosonic seed-lemma sum, the lattice engine's rules and the display
    for L in range(13):
        for M in range(13):
            walk = tree_walk(2, 1, "H", L, M)
            assert walk == eval_H(2, 1, L, M) == _sum_bnewp2(L, M), (L, M)


def test_tree_walk_deep_chain():
    # the Euclid chain of (1200, 1) has 1199 steps
    assert tree_walk(1200, 1, "F", 2, 2) == eval_F(1200, 1, 2, 2)


def test_even_root_is_base_two_binomial():
    for L in range(0, 9):
        for M in range(0, 9):
            assert bosonic_eval(spec_even(1, 1), L, M) == qbin(L + M, M, 2)


def test_row_walk_matches_point_walk():
    # F, I and H over coprime a <= 9 at L, M <= 10, from a cold memo in
    # ascending, descending and shuffled order, so that rows are extended
    # on demand, from partial columns and across pairs
    points = [(a, b, family, L, M) for a, b in coprime_pairs(9)
              for family in ("F", "I", "H") for L in range(11) for M in range(11)]
    cache = {}
    want = {p: point_walk(*p, cache) for p in points}
    shuffled = list(points)
    Random(24).shuffle(shuffled)
    ascending = sorted(points, key=lambda p: (p[3], p[4], p[:3]))
    for order in (ascending, ascending[::-1], shuffled):
        burge._ROWS.clear()
        for p in order:
            assert tree_walk(*p) == want[p], p
        assert len(burge._ROWS) == 1


def test_row_walk_restart_keeps_one_width(monkeypatch):
    # cold, (13, 1) at (20, 20) outgrows 32 and then 64 bits: the walk drops
    # its rows each time and rebuilds them at the width the bound needs
    widths, walk = [], burge._walk
    monkeypatch.setattr(burge, "_walk", lambda rows, w, *args: (
        widths.append(w), walk(rows, w, *args))[1])
    burge._ROWS.clear()
    assert tree_walk(13, 1, "F", 20, 20) == eval_F(13, 1, 20, 20)
    assert widths == [32, 64, 128]
    assert list(burge._ROWS) == [128]
    assert tree_walk(5, 2, "F", 3, 4) == eval_F(5, 2, 3, 4)
    assert widths[3:] == [128] and list(burge._ROWS) == [128]
    burge._ROWS.clear()


def test_restart_keeps_H_root(monkeypatch):
    # cold, (3, 1) at (35, 35) reads 666 points of H's root, in passes at
    # 32, 64 and 128 bits: each point is summed once, but the one whose l1
    # outgrew 32 bits (and was not kept), as a restart repacks the others
    points, seed = [], burge.bosonic_eval
    monkeypatch.setattr(burge, "bosonic_eval", lambda spec, L, M: (
        points.append((L, M)), seed(spec, L, M))[1])
    burge._ROWS.clear()
    assert tree_walk(3, 1, "H", 35, 35) == eval_H(3, 1, 35, 35)
    assert list(burge._ROWS) == [128]
    assert (len(points), len(set(points))) == (667, 666)
    burge._ROWS.clear()


def test_tree_walk_degree_guard():
    # the guard of the head binomial [2L+M, 2L], of degree 2LM <= 2,500,
    # is checked once at entry, before any row is built
    for family in ("F", "I", "H"):
        burge._ROWS.clear()
        for L, M in ((36, 35), (35, 36)):
            with pytest.raises(DegreeLimitError):
                tree_walk(3, 1, family, L, M)
        assert burge._ROWS == {}
        assert not tree_walk(3, 1, family, 35, 35).is_zero()
    assert tree_walk(3, 1, "F", 35, 35) == eval_F(3, 1, 35, 35)
    burge._ROWS.clear()
