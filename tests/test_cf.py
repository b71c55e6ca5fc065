"""Continued fractions, their second representation and Cartan data, the
bar pair, and the Cartan rows the lattice engine reads off the quotients."""

import random
from collections import namedtuple
from itertools import accumulate
from math import gcd

import pytest

from qburge.cf import CFData, check_pair, cf_expand, bar_pair
from qburge.fermionic import _qkey, _rules


def cf_toggle(c):
    """Switch between the [.., x] (x>=2) and [.., x-1, 1] representations."""
    if c.quotients == (1,):
        raise ValueError("the pair (2,1) has a single representation")
    q = list(c.quotients)
    if q[-1] >= 2:
        q[-1] -= 1
        q.append(1)
    else:
        q.pop()
        q[-1] += 1
    return CFData(c.a, c.b, tuple(q), c.d)


class CartanData(namedtuple("CartanData", "cf incidence cartan tau")):
    """Incidence matrix (tadpole blocks), Cartan matrix 2*Id - I, and tau."""

    __slots__ = ()

    @property
    def d(self):
        return self.cf.d


def build_cartan(c):
    """The full d x d incidence and Cartan matrices of c, and tau. The lattice
    engine reads each row off the quotients instead (`fermionic._rules`); this
    is the reference its rules are checked against."""
    d = c.d
    ends = set(accumulate(c.quotients))  # block-terminating indices t_1..t_{n+1}
    inc = [[0] * d for _ in range(d)]
    for j in range(1, d + 1):
        for k in range(1, d + 1):
            if j in ends:
                v = (j == k + 1) + (j == k) - (j == k - 1)
            else:
                v = (j == k + 1) + (j == k - 1)
            inc[j - 1][k - 1] = v
    car = [[2 * (j == k) - inc[j][k] for k in range(d)] for j in range(d)]
    tau = tuple([2] * (d - 1) + [1])
    return CartanData(c, tuple(map(tuple, inc)), tuple(map(tuple, car)), tau)


def coprime_pairs(a_max, a_min=2):
    return [(a, b) for a in range(a_min, a_max + 1)
            for b in range(1, a) if gcd(a, b) == 1]


def quad_form(cd, m, barred=False):
    """m C m, or the barred variant m C m + m_d (m_{d-1} - m_d) (m_0 := 0)."""
    car = cd.cartan
    d = cd.d
    if len(m) != d:
        raise ValueError("m must have length d")
    full = sum(m[j] * car[j][k] * m[k] for j in range(d) for k in range(d))
    if not barred:
        return full
    prev = m[d - 2] if d >= 2 else 0
    return full + m[d - 1] * (prev - m[d - 1])


def n_row(cd, j, prev, cur, nxt):
    """n_j = L*delta(j,1) - sum_k C_jk m_k at the 1-based row j of the
    tridiagonal Cartan matrix, from prev = m_{j-1} (m_0 := L), cur = m_j and
    nxt = m_{j+1} (m_{d+1} := 0)."""
    row = cd.cartan[j - 1]
    n = prev if j == 1 else -row[j - 2] * prev
    n -= row[j - 1] * cur
    if j < cd.d:
        n -= row[j] * nxt
    return n


def quad_form_squares(c, m):
    """m C m as the block sum of squares, an independent cross-check of quad_form."""
    total, t = 0, list(accumulate(c.quotients, initial=0))
    for lo, hi in zip(t[:-1], t[1:]):
        total += m[lo] ** 2
        for k in range(lo + 1, hi):
            total += (m[k - 1] - m[k]) ** 2
    return total


def test_check_pair():
    with pytest.raises(ValueError):
        check_pair(4, 2)
    with pytest.raises(ValueError):
        check_pair(3, 3)
    check_pair(3, 2)


def test_cf_examples():
    assert cf_expand(2, 1).quotients == (1,)
    assert cf_expand(2, 1).d == 1
    assert cf_expand(7, 5).quotients == (2, 2)
    assert cf_toggle(cf_expand(7, 5)).quotients == (2, 1, 1)
    assert cf_expand(7, 5).d == 4
    assert cf_toggle(cf_expand(5, 3)).quotients == (1, 1, 1)
    assert cf_expand(19, 12).quotients == (1, 1, 2, 2)


def test_cf_symmetry_and_d_invariance():
    for (a, b) in coprime_pairs(20):
        c1 = cf_expand(a, b)
        assert c1.quotients == cf_expand(a, a - b).quotients
        if (a, b) != (2, 1):
            c2 = cf_toggle(c1)
            assert c1.d == c2.d
            assert c2.quotients[-1] == 1


def test_cf_toggle():
    c = cf_expand(7, 5)
    t = cf_toggle(c)
    assert t.quotients == (2, 1, 1)
    assert cf_toggle(t).quotients == c.quotients
    assert cf_toggle(cf_expand(4, 1)).quotients == (2, 1)
    with pytest.raises(ValueError):
        cf_toggle(cf_expand(2, 1))


def test_cartan_21():
    cd = build_cartan(cf_expand(2, 1))
    assert cd.incidence == ((1,),)
    assert cd.cartan == ((1,),)
    assert cd.tau == (1,)


def test_cartan_75_printed_matrices():
    # the [2,1,1] representation reproduces the reference 4x4 matrices
    cd = build_cartan(cf_toggle(cf_expand(7, 5)))
    assert cd.incidence == ((0, 1, 0, 0), (1, 1, -1, 0),
                            (0, 1, 1, -1), (0, 0, 1, 1))
    assert cd.cartan == ((2, -1, 0, 0), (-1, 1, 1, 0),
                         (0, -1, 1, 1), (0, 0, -1, 1))
    assert cd.tau == (2, 2, 2, 1)


def test_cartan_plus_incidence_is_2id():
    for (a, b) in coprime_pairs(12):
        c = cf_expand(a, b)
        for rep in (c, cf_toggle(c)) if (a, b) != (2, 1) else (c,):
            cd = build_cartan(rep)
            d = cd.d
            for j in range(d):
                for k in range(d):
                    assert cd.cartan[j][k] + cd.incidence[j][k] == \
                        2 * (j == k)


def test_rep_toggle_changes_one_block_corner():
    # toggling the representation perturbs only entries in the last
    # tadpole block region
    for (a, b) in coprime_pairs(12):
        if (a, b) == (2, 1):
            continue
        c1 = cf_expand(a, b)
        c2 = cf_toggle(c1)
        i1 = build_cartan(c1).incidence
        i2 = build_cartan(c2).incidence
        d = len(i1)
        diffs = [(j, k) for j in range(d) for k in range(d)
                 if i1[j][k] != i2[j][k]]
        cut = sum(c1.quotients[:-1])  # start of the final block in the a_n >= 2 rep
        assert diffs, "toggle must change the matrix"
        assert all(j >= cut - 1 and k >= cut - 1 for j, k in diffs)


def test_mn_solve():
    # the n-vector of the (m,n)-system, row by row through n_row
    def n_vec(cd, L, m):
        d = cd.d
        return [n_row(cd, j, L if j == 1 else m[j - 2], m[j - 1],
                      m[j] if j < d else 0) for j in range(1, d + 1)]

    cd = build_cartan(cf_expand(2, 1))
    for L in range(0, 5):
        for m1 in range(0, 4):
            assert n_vec(cd, L, [m1]) == [L - m1]
    cd75 = build_cartan(cf_toggle(cf_expand(7, 5)))
    rows = {(3, (0, 0, 0, 0)): [3, 0, 0, 0],
            # against the printed C(7,5): row sums with m=(1,1,1,0)
            (3, (1, 1, 1, 0)): [2, -1, 0, 1],
            # m_4 > 0 and n_4 > 0, where I's base q^2 shows
            (7, (5, 3, 2, 1)): [0, 0, 0, 1]}
    for (L, m), n in rows.items():
        assert n_vec(cd75, L, list(m)) == n
        # the engine's kernel rules name [tau_j m_j + n_j, tau_j m_j], in
        # q^(3 - tau_j) for I, on the same rows
        x = (L,) + m + (0,)
        for family in ("F", "f", "I"):
            phis = _rules(cd75.cf.quotients, family)[0]
            for j, t in enumerate(cd75.tau, 1):
                base = 3 - t if family == "I" else 1
                assert phis[j](*x[j - 1:j + 2]) == \
                    _qkey(t * m[j - 1] + n[j - 1], t * m[j - 1], base), (m, family, j)


def test_rules_match_build_cartan():
    # the engine reads each row of the Cartan matrix off the quotients; on
    # random points, its kernel rules against the full matrix of
    # build_cartan, in both representations of every pair with a <= 13:
    # phi_j names [tau_j m_j + n_j, tau_j m_j] (H shifts the last two, I
    # takes base 3 - tau_j), and the psis sum to m C m (barred for f; H adds
    # 2 m_d - 2 m_{d-1} + 1)
    rng = random.Random(13)
    for (a, b) in coprime_pairs(13):
        c = cf_expand(a, b)
        for rep in (c, cf_toggle(c)) if (a, b) != (2, 1) else (c,):
            cd = build_cartan(rep)
            d = cd.d
            for family in ("F", "f", "H", "I") if d > 1 else ("F", "f", "I"):
                phis, psis = _rules(rep.quotients, family)
                assert len(phis) == len(psis) == d + 1
                for _ in range(20):
                    L = rng.randrange(6)
                    m = [rng.randrange(5) for _ in range(d)]
                    x = [L] + m + [0]
                    for j, t in enumerate(cd.tau, 1):
                        n = n_row(cd, j, *x[j - 1:j + 2])
                        up, lo = t * m[j - 1] + n, t * m[j - 1]
                        if family == "H":
                            up, lo = up - (j == d), lo - (j == d - 1)
                        base = 3 - t if family == "I" else 1
                        assert phis[j](*x[j - 1:j + 2]) == _qkey(up, lo, base), \
                            (rep.quotients, family, x, j)
                    e = quad_form(cd, m, barred=(family == "f"))
                    if family == "H":
                        e += 2 * m[d - 1] - 2 * m[d - 2] + 1
                    assert sum(psis[j](x[j], x[j + 1]) for j in range(1, d + 1)) == e, \
                        (rep.quotients, family, m)


def test_quad_form_examples():
    cd = build_cartan(cf_toggle(cf_expand(7, 5)))
    assert quad_form(cd, [1, 1, 0, 0]) == 1  # m1^2+(m1-m2)^2+m3^2+m4^2
    assert quad_form(cd, [0, 0, 0, 0]) == 0
    assert quad_form(cd, [0, 0, 0, 0], barred=True) == 0


def test_quad_form_vs_squares_and_barred():
    import itertools
    for (a, b) in coprime_pairs(9):
        c = cf_expand(a, b)
        cd = build_cartan(c)
        d = cd.d
        for m in itertools.product(range(0, 3), repeat=d):
            full = quad_form(cd, list(m))
            assert full == quad_form_squares(c, list(m))
            barred = quad_form(cd, list(m), barred=True)
            tw = sum((cd.tau[j] - 1) * m[j] * cd.cartan[j][k] * m[k]
                     for j in range(d) for k in range(d))
            assert barred == tw


def test_bar_pair_examples():
    assert bar_pair(19, 12) == (8, 5)
    assert bar_pair(19, 7) == (8, 3)
    assert bar_pair(3, 1) == (1, 0)
    assert bar_pair(5, 1) == (1, 0)
    assert bar_pair(5, 4) == (1, 1)
    assert bar_pair(2, 1) == (1, 0)


def test_bar_pair_properties():
    for (a, b) in coprime_pairs(20, a_min=3):
        ab1, bb1 = bar_pair(a, b)
        ab2, bb2 = bar_pair(a, a - b)
        assert ab1 == ab2 == bb1 + bb2
        assert gcd(ab1, bb1) == 1 if bb1 else ab1 == 1
        if a < 2 * b:
            assert ab1 <= 2 * bb1
        if a >= 2 * b:
            assert ab1 >= 2 * bb1
