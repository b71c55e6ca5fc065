#!/usr/bin/env python3
"""Scan the generalized positivity families beyond the default budgets.

Example:
    python3 scripts/scan_positivity.py --a-max 10 --l-max 30
"""

import argparse
from fractions import Fraction
from math import gcd, isqrt

from qburge.qcombinat import QBIN_MAX_DEGREE, g_poly
from qburge.verify import positivity_scan


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a-max", type=int, default=8)
    ap.add_argument("--l-max", type=int, default=25)
    args = ap.parse_args()
    # G(L, L) takes [2L, L - a j], of degree up to L^2
    if args.l_max > isqrt(QBIN_MAX_DEGREE):
        ap.error(f"--l-max must be <= {isqrt(QBIN_MAX_DEGREE)} "
                 f"(q-binomials of degree <= {QBIN_MAX_DEGREE})")

    worst = None
    n = 0
    for a in range(2, args.a_max + 1):
        for b in range(1, a):
            if gcd(a, b) != 1:
                continue
            for L in range(0, args.l_max + 1):
                g = g_poly(L, L, Fraction(b), Fraction(a * b + 1, a), a)
                rep = positivity_scan(g, "pos_gen", {"a": a, "b": b, "L": L})
                n += 1
                if not rep.nonneg:
                    print(f"NEGATIVE at a={a} b={b} L={L}: "
                          f"{rep.first_negative}")
                    worst = rep
    if worst is None:
        print(f"all {n} polynomials have nonnegative coefficients")


if __name__ == "__main__":
    main()
