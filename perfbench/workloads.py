"""Seeded, stratified input sets of the two grid workloads.

The program receives only what these functions return: a list of
(case id, params) checks. A seed gives PARTS input sets (parts); one
(seed, part) always gives the same list. An untraced run issues the parts
in turn, one per round (each round a fresh interpreter), so a run's
figures average over three draws from the grid, not one.

Strata and why they are shaped this way:

- Every (case, pair) keeps its share: each gets one seeded pick from every
  size band, so no pair or band is ever missing or over-represented.
- Within a (case, band), the picks are balanced: every size in the band is
  used by the same number of pairs (give or take one), and the seed chooses
  which pair gets which size. Independent draws let the round's total cost
  and its median check wander from seed to seed; balanced ones keep the
  sizes of a round fixed and vary only which pairs they fall on.
- The top of the cost distribution is taken whole, not sampled, and is
  issued first, in a fixed order, before the seeded body. A seeded sample
  of the tail moved p99 between seeds, and so did a seeded order: where a
  tail check falls changes how much of the memo caches it finds warm. So
  bounded-grid starts with a fixed deep stratum and single-limit with its
  largest size band, and p99 is measured on the same instances from the
  same cold start for every seed.
"""

from __future__ import annotations

import random
from math import gcd

BOUNDED_CASES = ("main", "main_tree", "recip", "shifted", "even")
# (L, M) bands; every (case, pair) gets one pick from each product band
BOUNDED_BANDS = ((0, 4), (5, 8))
# deep pairs (continued-fraction depth d = 12) at one size; these are the
# costliest checks of a round, so p99 falls inside this stratum
DEEP_PAIRS = ((13, 1), (13, 12))
DEEP_LM = (4, 3)

LIMIT_CASES = (("g_eq_limF", "L"), ("g_eq_limFt", "M"),
               ("g_eq_limf", "L"), ("g_eq_limft", "M"))
LIMIT_BANDS = ((0, 2), (3, 5), (6, 8))
LIMIT_TOP = 9          # the largest size band, taken whole

PARTS = 3


def coprime_pairs(a_max, a_min=2):
    return [(a, b) for a in range(a_min, a_max + 1)
            for b in range(1, a) if gcd(a, b) == 1]


def balanced_picks(rng, band, n):
    """n sizes from the inclusive `band`, each size used n // width or one
    more times, in seeded order."""
    lo, hi = band
    sizes = list(range(lo, hi + 1))
    rng.shuffle(sizes)
    picks = (sizes * (n // len(sizes) + 1))[:n]
    rng.shuffle(picks)
    return picks


def bounded_grid(seed, part):
    rng = random.Random(f"bounded-grid:{seed}:{part}")
    checks = []
    for case in BOUNDED_CASES:
        # the shifted family is not defined for (2, 1)
        pairs = coprime_pairs(8, a_min=3 if case == "shifted" else 2)
        for band_l in BOUNDED_BANDS:
            for band_m in BOUNDED_BANDS:
                ls = balanced_picks(rng, band_l, len(pairs))
                ms = balanced_picks(rng, band_m, len(pairs))
                for (a, b), L, M in zip(pairs, ls, ms):
                    checks.append((case, {"a": a, "b": b, "L": L, "M": M}))
    L, M = DEEP_LM
    deep = [(case, {"a": a, "b": b, "L": L, "M": M})
            for case in BOUNDED_CASES for a, b in DEEP_PAIRS]
    rng.shuffle(checks)
    return deep + checks


def single_limit(seed, part):
    rng = random.Random(f"single-limit:{seed}:{part}")
    checks, top = [], []
    pairs = coprime_pairs(8)
    for case, index in LIMIT_CASES:
        for band in LIMIT_BANDS:
            for (a, b), v in zip(pairs, balanced_picks(rng, band, len(pairs))):
                checks.append((case, {"a": a, "b": b, index: v}))
        top += [(case, {"a": a, "b": b, index: LIMIT_TOP}) for a, b in pairs]
    rng.shuffle(checks)
    return top + checks
