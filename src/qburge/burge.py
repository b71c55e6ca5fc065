"""Bosonic alternating sums, the two summation transforms, and the tree
walker that rebuilds the fermionic polynomials bottom-up: from one root value
per family it applies the transforms up the continued-fraction reduction of a
coprime pair, without recursion. Every root is bosonic: a single binomial, or
for H the kernel sum of the seed lemma at (2, 1). So the walk shares nothing
with the lattice sums of `fermionic` that it is checked against.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .cf import bar_pair, cf_expand, check_pair
from .qpoly import LaurentPoly
from .qcombinat import b_kernel, over_lcm, qbin, qsum


# one alternating sum  sum_j (-1)^j q^(c2 j^2 + c1 j + c0) B(L,M,aj+abar,bj+bbar)
BosonicSpec = namedtuple("BosonicSpec", "a b abar bbar c2 c1 c0",
                         defaults=(0, 0, Fraction(0), Fraction(0), Fraction(0)))


def bosonic_eval(spec, L, M):
    """Evaluate the alternating kernel sum; j runs over the kernel support."""
    if spec.a <= 0:
        raise ValueError("spec.a must be positive")
    quad, den = over_lcm(spec.c2, spec.c1, spec.c0)
    # |a j + abar| <= L is necessary for a nonzero kernel
    return qsum(quad, den,
                ((j, -1 if j % 2 else 1,
                  b_kernel(L, M, spec.a * j + spec.abar, spec.b * j + spec.bbar))
                 for j in range(-((L + spec.abar) // spec.a),
                                (L - spec.abar) // spec.a + 1)),
                lambda: f"bosonic spec {spec}")


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
    n = cf_expand(a, b).order
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


def transform_step(direction, inner, L, M):
    """One summation transform applied to a two-index polynomial family.

    direction "B1": sum_i q^(i^2) [2L+M-i, 2L] inner(L-i, i)
    direction "B2": sum_i q^(i^2) [2L+M-i, 2L] inner(i, L-i)
    """
    vals = (inner(l, m) for l, m in _inner_args(direction, L, M))
    return qsum((1, 0, 0), 1, ((i, 1, qbin(2 * L + M - i, 2 * L) * v)
                               for i, v in enumerate(vals) if not v.is_zero()),
                lambda: f"transform_step {direction}")


def _inner_args(direction, L, M):
    """The (l, m) at which `transform_step` reads inner, term i at index i."""
    if direction not in ("B1", "B2"):
        raise ValueError("direction must be 'B1' or 'B2'")
    return [(L - i, i) if direction == "B1" else (i, L - i)
            for i in range(min(L, M) + 1)]


def _below(a, b):
    """The transform that builds the pair (a, b) and the pair it reads."""
    return ("B2", (b, a - b)) if a < 2 * b else ("B1", (a - b, b))


# family -> (root pair, value there); every coprime pair reaches (2, 1).
# H's root is the sum side of the seed lemma, the shifted kernel sum at (2, 1)
_ROOTS = {
    "F": ((1, 1), lambda L, M: qbin(L + M, M)),
    "I": ((1, 1), lambda L, M: qbin(L + M, M, base=2)),
    "H": ((2, 1), lambda L, M: bosonic_eval(spec_shifted(2, 1), L, M)),
}

_WALK_CACHE = {}


def tree_walk(a, b, family, L, M):
    """Fermionic value at (L,M) built bottom-up along the continued-fraction
    reduction (a,b) -> (b,a-b) by B2 when a < 2b, else -> (a-b,b) by B1.

    The chain ends at the family's root: qbin(L+M, M) (F) or
    qbin(L+M, M, base=2) (I) at (1,1), the seed lemma's kernel sum
    bosonic_eval(spec_shifted(2,1)) (H) at (2,1). The walk
    goes down once to collect the (l, m) each pair needs, stopping at values
    already in the cache, then climbs back with `transform_step`.
    """
    if family not in _ROOTS:
        raise ValueError(f"the tree walk has no family {family!r}")
    check_pair(a, b)
    if L < 0 or M < 0:
        return LaurentPoly.zero()
    root, value = _ROOTS[family]
    chain, pair, need = [], (a, b), {(L, M)}
    while True:
        need = {lm for lm in need if (*pair, family, *lm) not in _WALK_CACHE}
        if not need:
            break
        chain.append((pair, need))
        if pair == root:
            break
        direction, pair = _below(*pair)
        need = {lm for l, m in need for lm in _inner_args(direction, l, m)}
    for pair, need in reversed(chain):
        if pair == root:
            for l, m in need:
                _WALK_CACHE[(*pair, family, l, m)] = value(l, m)
            continue
        direction, (x, y) = _below(*pair)
        inner = lambda l, m: _WALK_CACHE[(x, y, family, l, m)]
        for l, m in need:
            _WALK_CACHE[(*pair, family, l, m)] = transform_step(direction, inner, l, m)
    return _WALK_CACHE[(a, b, family, L, M)]
