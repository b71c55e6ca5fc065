"""Bosonic sums, the two summation transforms, and the tree walker."""

from fractions import Fraction
from math import gcd

import pytest

from qburge.qpoly import LaurentPoly
from qburge.qcombinat import NonIntegerExponentError, b_kernel, qbin
from qburge.fermionic import eval_F, eval_f, eval_H, eval_I
from qburge.burge import (BosonicSpec, bosonic_eval, spec_main, spec_recip,
                          spec_even, spec_shifted, transform_step, tree_walk)
from qburge.verify import _sum_bnewp2


def lp(d):
    return LaurentPoly(dict(d))


def coprime_pairs(a_max, a_min=2):
    return [(a, b) for a in range(a_min, a_max + 1)
            for b in range(1, a) if gcd(a, b) == 1]


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
