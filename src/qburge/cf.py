"""Continued fractions of coprime pairs, their tadpole-block incidence and
Cartan matrices, and the convergent (bar) pair.

A pair (a, b) with gcd(a,b)=1 and 1 <= b < a is expanded as the continued
fraction of (a/b - 1)^sign(a-2b), sign(0)=0. Every rational except the
pair (2,1) has two representations, [.., c] with c >= 2 and [.., c-1, 1];
the canonical choice here is last quotient >= 2, with an explicit toggle.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import accumulate


def check_pair(a, b):
    if not (1 <= b < a):
        raise ValueError(f"need 1 <= b < a, got ({a},{b})")
    if math.gcd(a, b) != 1:
        raise ValueError(f"({a},{b}) is not coprime")


class CFData(namedtuple("CFData", "a b quotients t d")):
    """Partial quotients of cf(a,b) plus the derived index data:
    t[0]=0, t[j+1]-t[j] = quotients[j], and d the sum of the quotients."""

    __slots__ = ()

    def __new__(cls, a, b, quotients):
        t = tuple(accumulate(quotients, initial=0))
        return super().__new__(cls, a, b, quotients, t, t[-1])

    def __getnewargs__(self):
        return self[:3]

    @property
    def order(self):
        """n in [a_0, ..., a_n]."""
        return len(self.quotients) - 1


@cache
def cf_expand(a, b):
    """Continued fraction of (a/b - 1)^sign(a-2b), last quotient >= 2; the
    other representation is `cf_toggle` of it. Cached: a pair's data are
    built once.

    The pair (2,1) has the single representation [1].
    """
    check_pair(a, b)
    if (a, b) == (2, 1):
        return CFData(a, b, (1,))
    if a > 2 * b:
        p, q = a - b, b
    else:
        p, q = b, a - b
    quots = []
    while q:
        quots.append(p // q)
        p, q = q, p % q
    return CFData(a, b, tuple(quots))


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
    return CFData(c.a, c.b, tuple(q))


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
    ends = set(c.t[1:])  # block-terminating indices t_1..t_{n+1}
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


def _cf_value(quots):
    v = Fraction(quots[-1])
    for q in reversed(quots[:-1]):
        v = q + 1 / v
    return v


def bar_pair(a, b):
    """The convergent pair (abar, bbar) of a/b, from the last-quotient>=2 rep.

    Special case: (a,1) -> (1,0).
    """
    check_pair(a, b)
    if b == 1:
        return (1, 0)
    c = cf_expand(a, b)
    head = list(c.quotients[:-1])
    if a < 2 * b:
        quots = [1] + head
    else:
        quots = [head[0] + 1] + head[1:]
    v = _cf_value(quots)
    return (v.numerator, v.denominator)
