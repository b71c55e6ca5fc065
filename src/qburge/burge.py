"""Bosonic alternating sums, the two summation transforms, and the tree
walker that rebuilds the fermionic polynomials bottom-up: from one root value
per family it applies the transforms up the continued-fraction reduction of a
coprime pair, without recursion. Every root is bosonic: a single binomial, or
for H the kernel sum of the seed lemma at (2, 1). So the walk shares nothing
with the lattice sums of `fermionic` that it is checked against.

Rows. The transform B1 (B2) builds the value at (L, M) of a pair from the
pair below as sum_i q^(i^2) [2L+M-i, 2L] c_i with c_i its value at
(L-i, i) (at (i, L-i)). The c_i do not read M, and by the q-binomial
theorem sum_M [2L+M-i, 2L] z^M = z^i / (z;q)_(2L+1) (G. E. Andrews, The
Theory of Partitions, 1976, Thm 3.3). So the whole row in M is the
numerator sum_(i<=L) z^i q^(i^2) c_i divided by (z;q)_(2L+1): 2L+1 running
sums S_k(M) = S_(k-1)(M) + q^k S_k(M-1), with S_(-1)(M) = q^(M^2) c_M
(0 for M > L), and the value at M is S_(2L)(M). The roots are rows too:
F's root [L+M, M] is row L of 1/(z;q)_(L+1), I's [L+M, M] in q^2 of
1/(z;q^2)_(L+1), so the F and I walks build no binomial. H's root, the
seed lemma's bosonic sum, is evaluated point by point. A row is kept with
its columns and the last column of its running sums, so a later column
costs one numerator term and one shifted add per running sum.

Arithmetic. Every value is a polynomial in q with nonnegative coefficients,
held as one int v = p(2^w) at a word width of w bits (Kronecker
substitution, see qpoly), so q^k is a shift by k words and a sum one add.
Next to it the walk carries l1 = p(1), exact, by the same recurrence at
q = 1. It bounds every coefficient the row stores, as each running sum is
at most the column it ends in, so each new column's l1 is checked against
2^(w-1). The row memo holds one width, 32 bits first; when a column
reaches the bound, the walk starts again at the narrowest width that holds
it (`fermionic`'s restart rule, applied to the whole memo). Every row is
dropped but H's root rows: their columns, each exact as its l1 was
checked, are unpacked and packed again at the new width, so a restart
evaluates no bosonic sum again. A value is decoded once, when it is
returned.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .cf import bar_pair, cf_expand, check_pair
from .qpoly import LaurentPoly, pack, pack_width, unpack
from .qcombinat import (QBIN_MAX_DEGREE, DegreeLimitError, _Overflow, _sweep, over_lcm,
                        qsum)


# one alternating sum  sum_j (-1)^j q^(c2 j^2 + c1 j + c0) B(L,M,aj+abar,bj+bbar)
BosonicSpec = namedtuple("BosonicSpec", "a b abar bbar c2 c1 c0",
                         defaults=(0, 0, Fraction(0), Fraction(0), Fraction(0)))


def bosonic_eval(spec, L, M):
    """Evaluate the alternating kernel sum; j runs over the kernel support."""
    if spec.a <= 0:
        raise ValueError("spec.a must be positive")
    quad, den = over_lcm(spec.c2, spec.c1, spec.c0)
    a, b, abar, bbar = spec.a, spec.b, spec.abar, spec.bbar

    def terms():  # the keys of b_kernel(L, M, x, y); |x| <= L for it not to vanish
        for j in range(-((L + abar) // a), (L - abar) // a + 1):
            x, y = a * j + abar, b * j + bbar
            yield j, -1 if j % 2 else 1, ((L + M + x - y, L + x), (L + M - x + y, L - x))

    return qsum(quad, den, terms(), lambda: f"bosonic spec {spec}")


def spec_main(a, b):
    """Kernel B(L,M,aj,bj) with exponent j((2ab+1)j+1)/2."""
    return BosonicSpec(a, b, c2=Fraction(2 * a * b + 1, 2), c1=Fraction(1, 2))


def spec_recip(a, b):
    """Kernel B(L,M,aj,bj) with exponent j((2ab-1)j+1)/2 (the 1/q companion)."""
    return BosonicSpec(a, b, c2=Fraction(2 * a * b - 1, 2), c1=Fraction(1, 2))


def spec_even(a, b):
    """Kernel B(L,M,aj,bj) with exponent a*b*j^2 (even-modulus seed)."""
    return BosonicSpec(a, b, c2=Fraction(a * b))


def shifted_bar(a, b):
    """(abar, bbar, one): the bar pair of (a, b), and whether the shifted
    family takes its abar branch, i.e. cf(a,b) (last quotient >= 2) has even
    order and a < 2b, or odd order and a > 2b."""
    abar, bbar = bar_pair(a, b)
    n = len(cf_expand(a, b).quotients) - 1
    return abar, bbar, (a < 2 * b and n % 2 == 0) or (a > 2 * b and n % 2 == 1)


def spec_shifted(a, b):
    """Kernel B(L,M,aj+abar,bj+bbar) with the parity-dependent linear term:
    (4*abar*b+1)/2 on the abar branch of `shifted_bar`, else (4*a*bbar+1)/2.
    """
    abar, bbar, one = shifted_bar(a, b)
    lin = 4 * abar * b if one else 4 * a * bbar
    return BosonicSpec(
        a, b, abar=abar, bbar=bbar,
        c2=Fraction(2 * a * b + 1, 2),
        c1=Fraction(lin + 1, 2),
        c0=Fraction(abar * bbar),
    )


def _below(a, b):
    """The transform that builds the pair (a, b) and the pair it reads."""
    return ("B2", (b, a - b)) if a < 2 * b else ("B1", (a - b, b))


# family -> (root pair, q-step of the root row's sweeps); every coprime pair
# reaches (2, 1). Row l of F's root [l+M, M] is 1/(z;q)_(l+1), of I's
# [l+M, M] in q^2 1/(z;q^2)_(l+1). H's root, the sum side of the seed lemma
# (the shifted kernel sum at (2, 1)), has no sweeps (step 0): see _seed
_ROOTS = {"F": ((1, 1), 1), "I": ((1, 1), 2), "H": ((2, 1), 0)}
# the row memo at one word width, {w: {(family, pair, l): row}}, 32 bits
# first; a row is [its columns (v, l1), the last column of its running sums,
# their l1s]
_ROWS = {}


def tree_walk(a, b, family, L, M):
    """Fermionic value at (L,M) built bottom-up along the continued-fraction
    reduction (a,b) -> (b,a-b) by B2 when a < 2b, else -> (a-b,b) by B1.

    The walk goes down once to collect the highest column each row needs,
    stopping at rows that already hold it, then climbs back extending the
    rows (see the module docstring). Raises DegreeLimitError (a ValueError)
    before any work when 2LM, the degree of the head binomial [2L+M, 2L],
    exceeds QBIN_MAX_DEGREE: every point the walk reads has 2lm <= 2LM.
    """
    if family not in _ROOTS:
        raise ValueError(f"the tree walk has no family {family!r}")
    check_pair(a, b)
    if L < 0 or M < 0:
        return LaurentPoly.zero()
    if 2 * L * M > QBIN_MAX_DEGREE:
        raise DegreeLimitError(f"tree walk degree 2LM = {2 * L * M} > {QBIN_MAX_DEGREE}")
    while True:
        w = next(iter(_ROWS), 32)
        try:
            v = _walk(_ROWS.setdefault(w, {}), w, family, (a, b), L, M)
        except _Overflow as exc:  # rebuild at a width that holds it
            wide = pack_width(exc.args[0].bit_length() + 1)
            # H's root rows have columns only, no running sums
            roots = {key: [[(pack(unpack(v, v.bit_length() // w + 1, w), wide), l1)
                            for v, l1 in row[0]], [], []]
                     for key, row in _ROWS[w].items() if key[:2] == ("H", _ROOTS["H"][0])}
            _ROWS.clear()
            _ROWS[wide] = roots
        else:
            return LaurentPoly.dense(0, unpack(v, v.bit_length() // w + 2, w))


def _walk(rows, w, family, top, L, M):
    """The packed value at (L, M) of the pair `top`, from the rows at width w."""
    root = _ROOTS[family][0]
    chain, pair, need = [], top, {L: M}
    while True:  # down: the highest column m each row l needs, past what it holds
        held = {l: len(rows[family, pair, l][0]) for l in need if (family, pair, l) in rows}
        need = {l: m for l, m in need.items() if held.get(l, 0) <= m}
        if not need:
            break
        chain.append((pair, need))
        if pair == root:
            break
        direction, pair = _below(*pair)
        wants = {}
        for l, m in need.items():  # a new column n <= l reads (l-n, n) or (n, l-n)
            for n in range(held.get(l, 0), min(l, m) + 1):
                x, y = (l - n, n) if direction == "B1" else (n, l - n)
                wants[x] = max(wants.get(x, -1), y)
        need = wants
    for pair, need in reversed(chain):  # up
        for l, m in need.items():
            _extend(rows, w, family, pair, l, m)
    return rows[family, top, L][0][M][0]


def _extend(rows, w, family, pair, l, m):
    """Row l of `pair` up to column m, on the columns n it does not hold:
    T(n) = S_(K-1)(n), with S_k(n) = S_(k-1)(n) + q^(step k) S_k(n-1) and
    S_(-1)(n) the numerator's z^n coefficient: one `_sweep` per column,
    the step that `fermionic`'s rows take too. Raises _Overflow when a
    column's l1 reaches 2^(w-1)."""
    root, step = _ROOTS[family]
    k = (l + 1 if step else 0) if pair == root else 2 * l + 1
    if pair != root:
        step, (direction, below) = 1, _below(*pair)
    cols, sums, ones = rows.setdefault((family, pair, l), [[], [0] * k, [0] * k])
    shifts = [step * w * i for i in range(k)]
    for n in range(len(cols), m + 1):
        v = l1 = 0  # past column l, a transform row's numerator has no term
        if pair == root:
            v, l1 = _seed(l, n, w) if not step else (int(n == 0),) * 2
        elif n <= l:  # q^(n^2) times the pair below at (l-n, n) or (n, l-n)
            x, y = (l - n, n) if direction == "B1" else (n, l - n)
            v, l1 = rows[family, below, x][0][y]
            v <<= w * n * n
        cols.append(_sweep(sums, ones, shifts, v, l1, w))


def _seed(l, n, w):
    """(v, l1) of H's root, the seed lemma's bosonic sum, at (l, n), packed
    at width w; _Overflow when its l1 reaches 2^(w-1)."""
    p = bosonic_eval(spec_shifted(2, 1), l, n)
    if (l1 := sum(p.coeffs)) >> (w - 1):
        raise _Overflow(l1)
    return pack(p.coeffs, w) << (w * p.lo), l1
