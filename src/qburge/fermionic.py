"""Fermionic lattice sums attached to a coprime pair: the four families
F, f, H, I, their one-sided large-bound limits and the double-limit series.

Every value is one call of `_lattice_sum`, a transfer-matrix sum along the
continued fraction. The Cartan matrix is tridiagonal, so the binomial factor
at position j depends only on (m_{j-1}, m_j, m_{j+1}) and the quadratic form
splits into terms on neighbouring pairs (m_j, m_{j+1}); the sum is built
right to left over the pair states. The head at m_1 carries the boundary
binomial and, for f at d = 1, the term L m_1 = m_0 m_1 of the barred
correction m_1 (m_0 - m_1), which no pair (m_j, m_{j+1}) with j >= 1 holds.

Support. Write m_0 := L and m_{d+1} := 0. The kernel factor
[tau_j m_j + n_j, tau_j m_j] vanishes unless n_j >= 0, where
n_j = L delta(j,1) - sum_k C_jk m_k. An interior row of a tadpole block reads
n_j = m_{j-1} - 2 m_j + m_{j+1} >= 0, so the steps m_j - m_{j-1} are
nondecreasing along the block. The block's end row e reads
n_e = m_{e-1} - m_e - m_{e+1} >= 0, so its last step is <= -m_{e+1} <= 0.
Hence every step is <= 0 and every nonzero term has
m_0 >= m_1 >= ... >= m_d >= 0. Family H moves nothing: it uses the
representation with last quotient >= 2, so row d-1 is interior, and its
n_{d-1} >= -1 is paid for by n_d >= 1 (the last step is then <= -1).
The limits drop the row of position a_0 + 1 (a_0 = 0 for a <= 2b), which
only frees the step into that position; their first block is written in
m_j = n_j + m_{j+1} with n_j >= 0, nonincreasing by construction, and
[2M, M-m_1] bounds m_1 by M. The double limit has exponent >= m_1^2, so
m_1 <= isqrt(T). No search window is needed.
"""

from __future__ import annotations

from math import isqrt

from .cf import build_cartan, cf_expand, n_row
from .qpoly import LaurentPoly, TruncatedSeries
from .qcombinat import QBIN_MAX_DEGREE, DegreeLimitError, q_poch, qbin

_CARTAN_CACHE = {}


def cartan_for(a, b, last_ge2=True):
    key = (a, b, last_ge2)
    hit = _CARTAN_CACHE.get(key)
    if hit is None:
        hit = build_cartan(cf_expand(a, b, last_ge2=last_ge2))
        _CARTAN_CACHE[key] = hit
    return hit


def _cut(p, cut):
    """p without the terms above q^cut (all of p when cut is None)."""
    return p if cut is None else LaurentPoly.dense(
        p.lo, p.coeffs[:max(0, cut + 1 - p.lo)])


def _lattice_sum(d, top, head, phi, psi, cut=None):
    """Sum of head(m_1) * prod_j phi(j, m_{j-1}, m_j, m_{j+1})
    * q^(sum_j psi(j, m_j, m_{j+1})) over top >= m_1 >= ... >= m_d >= 0,
    with m_0 := top and m_{d+1} := 0 (the support proved above).

    Level j maps each pair state (m_{j-1}, m_j) to the sum over
    m_{j+1}, ..., m_d of the factors at positions j..d, so the head is
    multiplied in once per m_1. A zero phi or head drops the term; the
    largest m_1 with a nonzero head bounds every m_j. With `cut`, every
    product is truncated above q^cut, which is exact when all factors and
    exponents are nonnegative. phi values that do not depend on m_{j-1}
    should be returned as one shared object: their products are reused.
    """
    heads = [head(c) for c in range(top + 1)]
    live = [c for c, h in enumerate(heads) if not h.is_zero()]
    if not live:
        return LaurentPoly.zero()
    hi = live[-1]
    one = LaurentPoly.one()
    below = {(c, 0): one for c in range(hi + 1)}
    for j in range(d, 0, -1):
        level = {}
        for (c, n), w in below.items():
            if j == 1 and heads[c].is_zero():
                continue
            s = _cut(w.scale(psi(j, c, n)), cut)
            if s.is_zero():
                continue
            last = None
            for p in ((top,) if j == 1 else range(c, hi + 1)):
                f = phi(j, p, c, n)
                if f.is_zero():
                    continue
                if f is not last:
                    last, t = f, _cut(f * s, cut)
                key = (p, c)
                level[key] = level[key] + t if key in level else t
        below = level
    total = LaurentPoly.zero()
    for (_, c), w in below.items():
        total = total + _cut(heads[c] * w, cut)
    return total


def _kernel(cd, family):
    """phi of the kernel factor [tau_j m_j + n_j, tau_j m_j] at every row;
    H shifts the last two factors, I takes factor j in q^(3-tau_j)."""
    if family not in ("F", "f", "H", "I"):
        raise ValueError(f"unknown family {family!r}")
    d, tau = cd.d, cd.tau

    def phi(j, p, c, n):
        t = tau[j - 1]
        lo = t * c
        up = lo + n_row(cd, j, p, c, n)
        base = 1
        if family == "H":
            up -= j == d
            lo -= j == d - 1
        elif family == "I":
            base = 3 - t
        return qbin(up, lo, base)
    return phi


def _psi(cd, family, head_block=0):
    """psi splitting the exponent m C m over neighbouring pairs, plus the
    barred correction m_d (m_{d-1} - m_d) for f (its L m_1 is in the head
    when d = 1) and H's 2 m_d - 2 m_{d-1} + 1.
    Positions j <= head_block carry m_j^2 instead (the a > 2b limits)."""
    d, car = cd.d, cd.cartan

    def psi(j, x, y):
        if j <= head_block:
            return x * x
        e = car[j - 1][j - 1] * x * x
        if j < d:
            e += (car[j - 1][j] + car[j][j - 1]) * x * y
        if family == "f":
            e += x * y if j == d - 1 else -x * x if j == d else 0
        elif family == "H":
            e += -2 * x if j == d - 1 else 2 * x + 1 if j == d else 0
        return e
    return psi


def _bounded(family, a, b, L, M, last_ge2=True):
    """The sum at (L, M) with m_0 := L. For a > 2b the boundary binomial is
    [L+M+m_1, 2L] and q^(L(L-2m_1)) joins the exponent, else it is
    [2L+M-m_1, 2L]; M = None drops it (the large-M limit times (q)_2L).
    For f at d = 1 the head carries the barred term's m_0 m_1 = L m_1."""
    cd = cartan_for(a, b, last_ge2)
    ge = a > 2 * b
    bar_head = family == "f" and cd.d == 1

    def head(m1):
        if M is None:
            h = LaurentPoly.one()
        elif ge:
            h = qbin(L + M + m1, 2 * L)
        else:
            h = qbin(2 * L + M - m1, 2 * L)
        if bar_head:
            h = h.scale(L * m1)
        return h.scale(L * (L - 2 * m1)) if ge else h

    return _lattice_sum(cd.d, L, head, _kernel(cd, family), _psi(cd, family))


def eval_F(a, b, L, M, last_ge2=True):
    """Doubly-bounded fermionic polynomial for the pair (a,b)."""
    return _bounded("F", a, b, L, M, last_ge2)


def eval_f(a, b, L, M, last_ge2=True):
    """Barred-quadratic-form variant: the exponent gains m_d (m_{d-1} - m_d)."""
    return _bounded("f", a, b, L, M, last_ge2)


def eval_H(a, b, L, M):
    """Shifted-kernel family; (2,1) is the explicit seed sum."""
    if (a, b) == (2, 1):
        total = LaurentPoly.zero()
        for n in range(0, min(L, M) + 1):
            t = qbin(2 * L + M - n - 1, 2 * L - 1) * qbin(L - 1, n)
            total = total + t.scale(n * n)
        return total
    return _bounded("H", a, b, L, M)  # the shifted kernel is rep-sensitive


def eval_I(a, b, L, M, last_ge2=True):
    """Even-modulus family: factor j is a Gaussian binomial in q^(3-tau_j)."""
    return _bounded("I", a, b, L, M, last_ge2)


def eval_limit_M(family, a, b, L, last_ge2=True):
    """Large-M limit times (q)_2L: the singly-bounded polynomial at L."""
    if family == "H":
        raise NotImplementedError("large-M limit not provided for family H")
    return _bounded(family, a, b, L, None, last_ge2)


def _limit(cd, family, top, head, chain, mid, cut=None):
    """A limit sum: the kernel factors after position a_0 + 1, where
    a_0 = 0 for a <= 2b. Before them stand head(m_1), chain(j, m_j, m_{j+1})
    at j <= a_0 and mid(a_0 + 1, m_{a_0+1}); mid values must be shared."""
    a0 = cd.cf.quotients[0] if cd.cf.a > 2 * cd.cf.b else 0
    kernel = _kernel(cd, family)
    one = LaurentPoly.one()

    def phi(j, p, c, n):
        if j > a0 + 1:
            return kernel(j, p, c, n)
        if j <= a0:
            return chain(j, c, n)
        return mid(j, c) if a0 else one

    lead = head if a0 else (lambda m1: head(m1) * mid(1, m1))
    return _lattice_sum(cd.d, top, lead, phi, _psi(cd, family, a0), cut)


def eval_limit_L(family, a, b, M):
    """Large-L limit times (q)_2M: the tilde polynomial at M.

    Families F and f only; f has the overrides ftilde_(a,1) = Ftilde_(a-1,1)
    and ftilde_(2,1) = (q)_2M/(q)_M. The terms carry the Pochhammer quotient
    (q)_2M / ((q)_{M-m_1} prod_x (q)_x) over x = n_1..n_{a_0}, tau m and
    M + m - tau m, with m = m_{a_0+1} (a_0 = 0 for a <= 2b). In
    m_j = n_j + m_{j+1} it is the local chain [2M, M-m_1]
    prod_{j<=a_0} [M+m_j, m_j-m_{j+1}] [M+m, tau m] (q)_{M+m-tau m}, and
    position j <= a_0 has exponent m_j^2.
    """
    if family not in ("F", "f"):
        raise NotImplementedError("large-L limit provided for families F and f only")
    if family == "f" and b == 1:
        if a == 2:
            return qbin(2 * M, M) * q_poch(M)
        return eval_limit_L("F", a - 1, 1, M)
    cd = cartan_for(a, b, last_ge2=True)
    mids = {}

    def mid(j, m):
        if m not in mids:
            x = cd.tau[j - 1] * m
            mids[m] = qbin(M + m, x) * q_poch(M + m - x)
        return mids[m]

    total = _limit(cd, family, M, lambda m1: qbin(2 * M, M - m1),
                       lambda j, c, n: qbin(M + c, c - n), mid)
    # b = 1 has no position a_0 + 1: its link is m = 0, the constant (q)_M
    return total * q_poch(M) if b == 1 and a > 2 else total


def eval_limit_both(family, a, b, T, last_ge2=True):
    """Both bounds to infinity: the Rogers-Ramanujan-type sum side, truncated
    to order T. Families F, f (b >= 2) and I.

    The Pochhammer quotient of `eval_limit_L` becomes prod_x 1/(q^base)_x,
    base = 3 - tau_j for I at the position j of x; the sum runs on
    polynomials cut at q^T. Raises DegreeLimitError (a ValueError) for T
    above qcombinat.QBIN_MAX_DEGREE.
    """
    if T < 0:
        raise ValueError("truncation order must be >= 0")
    if T > QBIN_MAX_DEGREE:
        raise DegreeLimitError(f"truncation order {T} > {QBIN_MAX_DEGREE}")
    if family == "H":
        raise NotImplementedError("double limit not provided for family H")
    if family == "f" and b == 1:
        raise NotImplementedError("the reciprocal family has no product form for b = 1")
    cd = cartan_for(a, b, last_ge2)
    inverses = {}

    def inv(j, k):
        # 1/(q^base; q^base)_k mod q^(T+1)
        key = (3 - cd.tau[j - 1] if family == "I" else 1, k)
        if key not in inverses:
            s = TruncatedSeries.one(T)
            for i in range(1, k + 1):
                s = s.div_one_minus(key[0] * i)
            inverses[key] = LaurentPoly.dense(0, s.coeffs)
        return inverses[key]

    total = _limit(cd, family, isqrt(T), lambda m1: LaurentPoly.one(),
                       lambda j, c, n: inv(j, c - n),
                       lambda j, m: inv(j, cd.tau[j - 1] * m), cut=T)
    return TruncatedSeries.from_poly(total, T)
