"""Exact q-series engine: Laurent polynomials, q-binomial kernels,
continued-fraction fermionic lattice sums, summation transforms, and a
machine-verification harness for the associated polynomial identities.
"""

from .qpoly import LaurentPoly, TruncatedSeries
from .qcombinat import qbin, q_poch, b_kernel, g_poly, d_poly, borwein_split
from .cf import cf_expand, bar_pair
from .fermionic import eval_F, eval_f, eval_H, eval_I, eval_limit_M, eval_limit_L, eval_limit_both
from .burge import bosonic_eval, tree_walk

__all__ = [
    "LaurentPoly",
    "TruncatedSeries",
    "qbin",
    "q_poch",
    "b_kernel",
    "g_poly",
    "d_poly",
    "borwein_split",
    "cf_expand",
    "bar_pair",
    "eval_F",
    "eval_f",
    "eval_H",
    "eval_I",
    "eval_limit_M",
    "eval_limit_L",
    "eval_limit_both",
    "bosonic_eval",
    "tree_walk",
]
