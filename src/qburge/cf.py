"""Continued fractions of coprime pairs and the convergent (bar) pair.

A pair (a, b) with gcd(a,b)=1 and 1 <= b < a is expanded as the continued
fraction of (a/b - 1)^sign(a-2b), sign(0)=0. Every rational except the
pair (2,1) has two representations, [.., c] with c >= 2 and [.., c-1, 1];
the one used here is the first, last quotient >= 2. The lattice sums do
not depend on the choice; the tests build the other representation, and the
Cartan matrices of both, to check the rules `fermionic` reads off the
quotients.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cache


def check_pair(a, b):
    if not (1 <= b < a):
        raise ValueError(f"need 1 <= b < a, got ({a},{b})")
    if math.gcd(a, b) != 1:
        raise ValueError(f"({a},{b}) is not coprime")


# the partial quotients of cf(a,b), and d, the sum of the quotients
CFData = namedtuple("CFData", "a b quotients d")


@cache
def cf_expand(a, b):
    """Continued fraction of (a/b - 1)^sign(a-2b), last quotient >= 2.
    Cached: a pair's data are built once.

    The pair (2,1) has the single representation [1].
    """
    check_pair(a, b)
    if a > 2 * b:
        p, q = a - b, b
    else:
        p, q = b, a - b
    quots = []
    while q:
        quots.append(p // q)
        p, q = q, p % q
    return CFData(a, b, tuple(quots), sum(quots))


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
