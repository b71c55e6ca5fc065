"""Fermionic lattice sums attached to a coprime pair: the four families
F, f, H, I, their one-sided large-bound limits and the double-limit series.

Every value is one call of `_lattice_sum`, a transfer-matrix sum along the
continued fraction, or a column of a row in M whose numerator is read from
the levels such a sum keeps (see Rows). The kernel reads only its
quotients: row j of the Cartan matrix is (-1, 2, -1) inside a tadpole block
and (-1, 1, 1) at a block's end, and tau_j = 2 except tau_d = 1. The matrix
is tridiagonal, so the binomial factor at position j depends only on
(m_{j-1}, m_j, m_{j+1}) and the quadratic form splits into terms on
neighbouring pairs (m_j, m_{j+1}); the sum is built right to left over the
pair states. A sum is two rule lists, one factor rule and one exponent rule
per position, with the head at position 0: it reads (m_0, m_1) and carries
the boundary binomial and, for f at d = 1, the term L m_1 = m_0 m_1 of the
barred correction m_1 (m_0 - m_1), which no pair (m_j, m_{j+1}) with j >= 1
holds.

Support. Write m_0 := L and m_{d+1} := 0. The kernel factor
[tau_j m_j + n_j, tau_j m_j] vanishes unless n_j >= 0, where
n_j = L delta(j,1) - sum_k C_jk m_k. An interior row of a tadpole block reads
n_j = m_{j-1} - 2 m_j + m_{j+1} >= 0, so the steps m_j - m_{j-1} are
nondecreasing along the block. The block's end row e reads
n_e = m_{e-1} - m_e - m_{e+1} >= 0, so its last step is <= -m_{e+1} <= 0.
Hence every step is <= 0 and every nonzero term has
m_0 >= m_1 >= ... >= m_d >= 0. Family H moves nothing: it uses the
representation with last quotient >= 2, so row d-1 is interior, and its
n_{d-1} >= -1 is paid for by n_d >= 1 (the last step is then <= -1);
its seed at (2, 1) has the factor [L - 1, m_1], nonzero only at m_1 < L.
The limits drop the row of position a_0 + 1 (a_0 = 0 for a <= 2b), which
only frees the step into that position; their first block is written in
m_j = n_j + m_{j+1} with n_j >= 0, nonincreasing by construction, and
the head ([2M, M-m_1], or [M, m_1] at b = 1) bounds m_1 by M. The
double limit has exponent >= m_1^2, so m_1 <= isqrt(T). No search
window is needed.

Arithmetic. The pass runs on integers, not on coefficient lists (Kronecker
substitution, see qpoly): a polynomial p is held as (lo, v) with
p = q^lo v(X) at X = 2^w. A factor is its coefficient words read as one
int, packed once per factor key and width into the factor store of
`qcombinat` (`_PACKED_CACHE`, which the alternating sums of `qsum` read
too); q^e only moves lo; a product is one bigint product and a sum one
shifted add; the total is decoded once. Factors are named by keys (a qbin
key (n, m, base), or a tagged key for the limits' links), so equal factors
share one packed value whatever object built them, and a product is
reused across the m_{j-1} that give it the same factor.

No overflow, by construction. The integer arithmetic is exact at every
width; only packing a factor, reducing a cut product and decoding the total
need every coefficient inside (-2^(w-1), 2^(w-1)). Each state carries a
bound l1 >= ||p||_1 by ||ab||_1 <= ||a||_1 ||b||_1 and
||a + b||_1 <= ||a||_1 + ||b||_1; it is exactly p(1) when every factor is
nonnegative (F, f, H, I and the large-M limit). No bound decreases on the
way to the total, as every factor has l1 >= 1, so it suffices to check each
factor as it is packed and the total at the end. A factor that reaches
2^(w-1) restarts the pass at the narrowest width that holds it: 32 bits
first, then 64, then multiples of 64. A total that reaches it widens the
pass in place (`_widen`), to the width that holds the total's bound: the
pass keeps the states of its per-call levels, and only after the total's
check fails does it look for the deepest per-call level with a state whose
bound reaches 2^(w-1). The states that feed that level fit w, so they
decode exactly and are packed at the new width with their exact l1s, and
that level and those after it run again. No new bound exceeds its old one,
so one widening suffices. A free level's states sit in the level memo at
their own width; when they feed that level and one of them does not fit,
the whole pass restarts at the new width. A factor is built once (the
store's `_factor` is cached), so a restart packs the stored coefficients
at its width and builds nothing again. The Pochhammer links of
`eval_limit_L` are signed, so they are packed with biased digits and the
total is decoded as balanced ones.
With a cut at q^T (`eval_limit_both`), every product is taken mod
X^(T+1-lo) and kept as its balanced low digits.

Sharing. Only positions 0 and 1 read L or M: the head, position 0,
carries the boundary binomial in M, and position 1 reads L as m_0, the
way the kernel's rule at every deeper position j reads m_{j-1}. This is
the shape of the Burge transform, F(L, M) = sum_{m_1} q^(psi_0)
[2L+M-m_1, 2L] Y_L(m_1), where Y_L(m_1) reads L only as m_0 (W. H. Burge,
"Restricted partition pairs", JCTA 63, 1993). Every sum but the b = 1
large-L limit runs the kernel's rules with a per-call prefix in front
(`_kernel_sum`): the head for F, f, H, I and the large-M limit, whose
free positions are j >= 1, and the head and Pochhammer links for the
other limits. A free level 1 is kept with its columns m_0 up to L, so a
call reads its column m_0 = L and runs only its head, one per-call level.
For the large-L limit, whose chain telescopes at b = 1 and at a_0 <= 1
(see `eval_limit_L`), the free positions are j >= 1 at b = 1, j >= 2 at
a_0 = 1 and j >= a_0 + 2 at the other pairs. At b = 1 the head [M, m_1]
alone reads M, and [2M, M] (q)_M multiplies the total; every level j >= 1
is [m_j, m_{j+1}] at exponent m_j^2, which reads neither M nor m_{j-1}, so
its state at m_j depends only on d - j:
L_k(m) = sum_{n<=m} q^(m^2) [m, n] L_{k-1}(n). Those levels hold one state
per m_j (`_extend_per_m`), grown only by new m, and one chain of them
serves every a and both F and f: a call runs only its head, at most M + 1
products. For the double limit they are
j >= a_0 + 2. The H seed is a head in M and the module rule
[m_0 - 1, m_1] (see `eval_H`), so its level 1 is free as well. A state at
a free position does not depend on the bound top either, which only
limits which states are built, so these levels are built once and kept
in _LEVEL_CACHE. A rule is a function object, and equal rules are one
object: `_binomial` and `_quadratic` are cached, so equal parameters give
the same rule whatever asked for it (the cached `_rules`, a module
constant such as `_square`, or a prefix), and the telescoped limits' and
the H seed's other rules are module functions. The prefix rules read L,
M or T, so each call builds its own.

The per-call levels in front of the free ones (the links of the limits,
and last the head) hold one state per m_j. Their contract: a per-call
rule below position 1 reads no m_{j-1} (position 1 reads m_0 = top), so
level j's state at m_j serves every m_{j-1} >= m_j, and `_run` hands
those rules None for m_{j-1}. The head
is level 0, with the one column m_0 = top and m_{-1} := top, and the sum
is its state. States at one m_j whose factor keys are equal are summed
before their one product: the link [M+m, 2m] (q)_(M-m) at a_0 = 0 reads
only m, so it costs one product per m_1, not one per (m_1, m_2), and the
head 1 of the double limit costs one product. The free levels of the
b = 1 large-L limit hold one state per m_j as well: their rules read no
m_{j-1}, and `_extend`'s pair states would copy each state to every
column m_{j-1} >= m_j.

Every sum takes its free levels from the level memo, one entry per
level. Level j's key is (phis[j], psis[j], key of level j+1), starting
from (w, cut) below level d (cut None for an uncut sum), so it names the
rules from j to d, the word width and the cut: a state packed at width w
is exact, so each width has its own levels, and a cut sum's states are
reduced below q^(T+1), so each cut has its own. Two sums share level j
exactly when they run the same rules from j to d at the same width and
cut. The kernel's rule at position j reads only the family and whether j
ends a block, is d - 1 or is d, so sums keep sharing their tails: each
Burge transform adds one summation at the head, so pairs along the Burge
tree share the levels of their common tail ((8, 1) holds every free level
of (7, 1), ..., (3, 1) and levels 2..4 of (7, 3)), (a, b) and (a, a - b)
have the same quotients and so share all of theirs, and the two
representations of one pair share level d (a block end with tau_d = 1 in
both). The b = 1
large-L limits of F and f, at every depth, read one chain of
[m_j, m_{j+1}] levels. A call that needs columns m_{j-1} <= top beyond a
level's entry (states m_j <= top, at b = 1) extends it, adding only the
new ones, level by level from d down; then it runs the per-call levels,
the head last. Where level 1 runs per call, the head is nonzero at
m_1 = top, so no smaller bound would build fewer columns. Cut entries are
kept like the others: like the other memos here, the level memo is not
bounded.

Rows. F, f, H and I read M only in the boundary binomial of the head,
[2L+M-m_1, 2L] or, for a > 2b, [L+M+m_1, 2L] = [2L+M-(L-m_1), 2L]. So
F(L, M) = sum_{m_1} [2L+M-s, 2L] q^(psi_0) Y_L(m_1), with s = m_1 (L - m_1
for a > 2b) and Y_L(m_1) the sum at m_1 after the head, free of M. By the
q-binomial theorem, sum_M [2L+M-s, 2L] z^M = z^s / (z;q)_(2L+1) (G. E.
Andrews, The Theory of Partitions, 1976, Thm 3.3), so

    sum_M F(L, M) z^M = (sum_{m_1} z^s q^(psi_0) Y_L(m_1)) / (z;q)_(2L+1).

A row is that numerator, read straight from the level memo: its z^s
coefficient is q^(psi_0) times the state at m_1 of level 1's column m_0 =
L, so a row runs no pass and builds no level that a point at L or above
built. It is divided by (z;q)_(2L+1) as the 2L+1 running sums of
`qcombinat._sweep`, the step that `burge`'s tree walk divides by; each
column costs one shifted add per running sum, and the head binomial is
never built. Rows serve a caller that asks for many M at one L in turn, as
the grid suites of `verify` do (M innermost); scattered points keep the
point form `_bounded`. The row memo `_ROW_CACHE` holds at most one live
entry per family, keyed (family, quotients, a > 2b, L): the flag tells (a,
b) from (a, a - b), which have the same quotients but not the same head. An
entry holds one value, at its M: a call at that M returns it; a call at M +
1 starts a row from a point entry, or grows the row by that column; any
other call runs the point form and replaces the entry. So a row starts only
at M + 1 after a point at M, and the memo never holds more than four
entries. L < 0 or M < 0 gives zero before either memo is read. Each
column's l1 is exactly F(L, M)(1), as every coefficient is nonnegative, and
it bounds every running sum; a column or factor that reaches 2^(w-1)
restarts the row at the width that holds it, by `_lattice_sum`'s rule,
swept from column 0 again. The numerator's states carry exact l1s too, so a
restart whose old width holds them all packs them again at the new one, and
only a state too wide for it makes the row read level 1 at the new width. H
at (2, 1), whose seed has a head of its own, and the limits stay point
forms.

Memos. This module keeps two: the level memo `_LEVEL_CACHE`, which both
point sums and rows read, its levels holding pair states by column or, on
the b = 1 large-L chain, one state per m_j, and the row memo `_ROW_CACHE`,
one value and one row state per family. A cold start clears both, with
the factor store of `qcombinat` and the cached `_rules`, `_binomial` and
`_quadratic`.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from math import isqrt

from .cf import cf_expand, check_pair
from .qpoly import LaurentPoly, TruncatedSeries, pack, pack_width, unpack
from .qcombinat import (_ONE_KEY, _PACKED_CACHE, QBIN_MAX_DEGREE, DegreeLimitError,
                        _Overflow, _factor, _packed, _qkey, _sweep)

# the states of one free level by (its phi, its psi, key of the level after
# it), down to (word width, cut): see _extend, _extend_per_m and the module
# docstring
_LEVEL_CACHE = {}
# word width in bits of a lattice sum's first pass
_FIRST_WIDTH = 32
# the row memo, at most one live entry per bounded family F, f, H, I:
# family -> [key, M, value, row], key (family, quotients, a > 2b, L), the
# value at M, and row None for a point, else the state of `_row` after
# column M; see _from_rows
_ROW_CACHE = {}


def _lattice_sum(top, phis, psis, first, cut=None, per_m=False):
    """Sum of prod_j phis[j](m_{j-1}, m_j, m_{j+1}) q^(psis[j](m_j, m_{j+1}))
    over j = 0..d and top >= m_1 >= ... >= m_d >= 0, with d = len(phis) - 1,
    m_{-1} := m_0 := top and m_{d+1} := 0 (the support proved above). A phi
    rule gives a factor key, or None for a zero factor, which drops the
    term; position 0 is the head. With `cut`, the sum is truncated above
    q^cut, which is exact when every exponent is >= 0. The rules at
    positions j >= first read nothing of the call (at first = 1, the rule
    at position 1 reads top only as its m_0): each of those levels comes
    from the level memo, keyed by the rule objects from it to d, the word
    width and the cut (see the module docstring and `_extend`);
    first = len(phis) when no level is free. With `per_m`, the free rules
    read no m_{j-1} either, and each free level holds one state per m_j
    (`_extend_per_m`). The per-call rules at positions 2 <= j < first read
    no m_{j-1}, and the head is the last per-call level. Every stored level
    is whole, so a build that fails (an overflow) leaves no partial column.
    A negative top has no term.

    The first pass uses w = _FIRST_WIDTH. A pass whose total bound reaches
    2^(w-1) is widened in place (`_widen`) to the narrowest width that holds
    it; a factor too wide for its word, or a free-level state too wide for
    the widening to decode, restarts the pass at the narrowest width that
    holds it (see the module docstring).
    """
    first = min(first, len(phis))  # len(phis) = d + 1: no free level
    w, levels = _FIRST_WIDTH, None
    while True:
        try:
            if levels is None:
                levels = _pass(top, phis, psis, first, cut, w, per_m)
            lo, v, l1 = levels[-1].get(top, (0, 0, 0))
            if not l1 >> (w - 1):
                return LaurentPoly.dense(lo, unpack(v, w))
            u, w = w, pack_width(l1)
            levels = _widen(levels, top, phis, psis, first, cut, u, w, per_m)
        except _Overflow as exc:
            w, levels = pack_width(exc.args[0]), None


def _pass(top, phis, psis, first, cut, w, per_m):
    """The levels of the lattice sum on values p(X) at X = 2^w, with
    p = v(X) q^lo: the states of level `first` from the level memo
    (`_extend`, or `_extend_per_m`), then those of the per-call levels
    first-1..0 (`_run`). The last is the head's, {top: (lo, v, l1)} with
    l1 >= ||p||_1, or empty when the sum is zero. A state is (lo, v, l1):
    q^e moves lo, a product multiplies the v and the l1 (`_times`), a sum
    shifts the v with the higher lo by whole words and adds the l1
    (`_add`)."""
    if top < 0:
        return [{}]
    levels = [(_extend_per_m if per_m else _extend)(phis, psis, first, top, w, cut)]
    return _run(levels, top, phis, psis, first, cut, w, per_m)


def _run(levels, top, phis, psis, first, cut, w, per_m):
    """`levels` with the per-call levels after its last one appended, down
    to the head: level first - len(levels), ..., 0. A per-call level holds
    one state per m_j, as its rule reads no m_{j-1} below position 1
    (`_level`). The head is level 0, with its one column m_0 = top
    (m_{-1} := top), and the sum is its state."""
    for j in range(first - len(levels), -1, -1):
        levels.append(_level(phis[j], psis[j], top if j <= 1 else None,
                             range(top + 1) if j else (top,), levels[-1], w, cut,
                             j == first - 1 and not per_m))
    return levels


def _level(phi, psi, p, columns, below, w, cut, pairs=False):
    """The states at m_j = c of a level that holds one state per m_j, for c
    in `columns`: the sum over m_{j+1} = n <= c of q^psi(c, n) phi(p, c, n)
    times below's state at n, with p its m_{j-1} (None where the rule reads
    none). `below` holds one state per m_{j+1}, or with `pairs` a free
    level's pair states, read at its column c (see `_extend`). The states
    at one c whose factor keys are equal are summed before their one
    product."""
    states = {}
    for c in columns:
        sums = {}
        for n, (lo, v, l1) in below[c].items() if pairs else \
                ((n, s) for n, s in below.items() if n <= c):
            lo += psi(c, n)
            if cut is not None and lo > cut:
                continue
            key = phi(p, c, n)
            if key is not None:
                at = sums.get(key)
                sums[key] = (lo, v, l1) if at is None else _add(at, (lo, v, l1), w)
        for key, (lo, v, l1) in sums.items():
            t = _times(lo, v, l1, key, w, cut)
            states[c] = t if c not in states else _add(states[c], t, w)
    return states


def _widen(levels, top, phis, psis, first, cut, u, w, per_m):
    """The levels of a pass at width u whose total bound reached 2^(u-1),
    now at the width w that holds that bound. The deepest per-call level
    with a state whose bound reaches 2^(u-1) runs again, with every level
    after it, from the states that feed it: those fit u, so they are
    decoded and packed at w with their exact l1s (of a free level's pair
    states, only the columns that the level reads). No bound decreases on
    the way to the total and no new bound exceeds its old one, so the new
    total fits w. When the feeding states are a free level's and one of
    them does not fit u, raises _Overflow with the total's bound, and the
    whole pass restarts at w."""
    i = next(i for i in range(1, len(levels))
             if any(s[2] >> (u - 1) for s in levels[i].values()))
    feed, cols = levels[i - 1], range(top + 1) if first > 1 else (top,)
    pairs = i == 1 and not per_m
    for states in (feed[c] for c in cols) if pairs else (feed,):
        if any(s[2] >> (u - 1) for s in states.values()):
            raise _Overflow(levels[-1][top][2])
    feed = {c: _repacked(feed[c], top, u, w) for c in cols} if pairs else \
        _repacked(feed, top, u, w)
    return _run(levels[:i - 1] + [feed], top, phis, psis, first, cut, w, per_m)


def _repacked(states, top, u, w):
    """The states {m: (lo, v, l1)} at m <= top, whose coefficients fit
    width u, packed at width w with their exact l1s."""
    return {n: (lo, pack(c, w), sum(map(abs, c)))
            for n, (lo, v, _) in states.items() if n <= top for c in (unpack(v, u),)}


def _times(lo, v, l1, key, w, cut):
    """The state (lo, v, l1) times the factor `key` packed at width w. With
    `cut`, the product is taken mod X^(cut+1-lo), with its operands reduced
    first, and kept as its balanced digits below q^(cut+1)."""
    try:
        flo, fv, fl1 = _PACKED_CACHE[w][key]
    except KeyError:
        flo, fv, fl1 = _packed(key, w)
    lo, l1 = lo + flo, l1 * fl1
    if cut is None:
        return lo, v * fv, l1
    keep = w * (cut + 1 - lo)
    if keep <= 0:
        return lo, 0, 0
    mask = (1 << keep) - 1
    v = (v & mask) * (fv & mask) & mask
    if v >> (keep - 1):
        v -= 1 << keep
    return lo, v, l1


def _extend(phis, psis, first, top, w, cut):
    """The states of level `first` on the columns m_{first-1} <= top, from
    the level memo. A free level j holds the pair states (m_{j-1}, m_j), as
    states[m_{j-1}][m_j]: each is the sum over m_{j+1}, ..., m_d of the
    factors at positions j..d. Level j's key is (phis[j], psis[j], key of
    level j+1), from (w, cut) below level d, so it names the rules from j
    to d, and its entry is (top, states) of that level alone. Walking j
    from d down, a level with fewer columns than top gets only its new
    columns m_{j-1} = old+1..top, built from the level below into a copy of
    its list, which shares its old columns, and is stored once they are
    all built: every stored level is whole, so a build that fails (an
    overflow) leaves no partial column. Start states (m_d, m_{d+1} = 0) are
    built per call; a build only reads the level below, so they share one
    dict."""
    below, key = [{0: (0, 1, 1)}] * (top + 1), (w, cut)
    for j in range(len(phis) - 1, first - 1, -1):
        phi, psi, key = phis[j], psis[j], (phis[j], psis[j], key)
        old, states = _LEVEL_CACHE.get(key, (-1, ()))
        if old < top:
            states = list(states)
            states.extend({} for _ in range(old, top))
            for c in range(top + 1):
                for n, (lo, v, l1) in below[c].items():
                    lo += psi(c, n)
                    if cut is not None and lo > cut:
                        continue
                    last = None
                    for p in range(max(c, old + 1), top + 1):
                        f = phi(p, c, n)
                        if f is None:
                            continue
                        if f != last:
                            last, t = f, _times(lo, v, l1, f, w, cut)
                        col = states[p]
                        at = col.get(c)
                        col[c] = t if at is None else _add(at, t, w)
            _LEVEL_CACHE[key] = top, states
        below = states
    return below


def _extend_per_m(phis, psis, first, top, w, cut):
    """`_extend` for free levels whose rules read no m_{j-1}: level j holds
    one state per m_j, states[m_j], the sum over m_{j+1}, ..., m_d of the
    factors at positions j..d (`_level`), keyed as `_extend` keys it. A
    level short of top gets only its new states m_j = old+1..top, added to
    a copy that is stored once they are all built."""
    below, key = {0: (0, 1, 1)}, (w, cut)
    for j in range(len(phis) - 1, first - 1, -1):
        key = phis[j], psis[j], key
        old, states = _LEVEL_CACHE.get(key, (-1, {}))
        if old < top:
            states = states | _level(phis[j], psis[j], None, range(old + 1, top + 1),
                                     below, w, cut)
            _LEVEL_CACHE[key] = top, states
        below = states
    return below


def _add(x, y, w):
    """The sum of two packed states."""
    (xlo, xv, xl1), (ylo, yv, yl1) = (x, y) if x[0] <= y[0] else (y, x)
    return xlo, xv + (yv << (w * (ylo - xlo))), xl1 + yl1


@cache
def _binomial(x, y, z, s, t, r, base):
    """The phi rule of [x m_{j-1} + y m_j + z m_{j+1} + s, t m_j + r] in
    q^base; cached, so equal parameters give one rule object."""
    return lambda p, c, n: _qkey(x * p + y * c + z * n + s, t * c + r, base)


@cache
def _quadratic(x2, x1, x0, e):
    """The psi rule (x2 m_j + x1 m_{j+1} + x0) m_j + e; cached, so equal
    parameters give one rule object."""
    return lambda x, y: (x2 * x + x1 * y + x0) * x + e


def _unit(p, c, n):
    """The key of 1: the head of a sum without a boundary factor."""
    return _ONE_KEY


def _multinomial(p, c, n):
    """[m_j, m_{j+1}]: every position of the large-L limit at b = 1."""
    return _qkey(c, n)


# 0: the exponent at the head of the limits
_flat = _quadratic(0, 0, 0, 0)
# m_j^2: the exponent at the chain positions of the limits
_square = _quadratic(1, 0, 0, 0)
# [m_1 + m_2, 2 m_2]: level 2 of the large-L limit at a_0 = 1
_telescoped = _binomial(1, 1, 0, 0, 2, 0, 1)
# [m_0 - 1, m_1]: position 1 of the H seed at (2, 1)
_seed = _binomial(1, 0, 0, -1, 1, 0, 1)


@cache
def _rules(quotients, family):
    """The kernel's rules (phis, psis) on these quotients, indexed by
    position j = 1..d; the caller puts the head at position 0. Row j of the
    Cartan matrix is (C_j,j-1, C_jj, C_j,j+1) = (-1, 1, 1) when j ends a
    tadpole block (j in accumulate(quotients)), else (-1, 2, -1); tau_j = 2
    except tau_d = 1.
    phis[j](m_{j-1}, m_j, m_{j+1}) is the factor key of
    [tau_j m_j + n_j, tau_j m_j]; H shifts the last two factors, I takes
    factor j in q^(3-tau_j). psis[j](m_j, m_{j+1}) is one quadratic: m C m
    split over neighbouring pairs, C_jj m_j^2 + (C_j,j+1 + C_j+1,j) m_j m_{j+1},
    plus the barred correction m_d (m_{d-1} - m_d) for f (its L m_1 is in the
    head when d = 1) and H's 2 m_d - 2 m_{d-1} + 1. Cached, so equal
    quotients give the same rule objects (see the module docstring)."""
    if family not in ("F", "f", "H", "I"):
        raise ValueError(f"unknown family {family!r}")
    ends, d = set(accumulate(quotients)), sum(quotients)
    phis, psis = [None], [None]
    for j in range(1, d + 1):
        diag, off = (1, 1) if j in ends else (2, -1)  # C_jj, C_j,j+1
        t = 1 if j == d else 2
        # n_j = m_{j-1} - C_jj m_j - C_j,j+1 m_{j+1}, with m_0 = L, m_{d+1} = 0
        phis.append(_binomial(1, t - diag, -off, -(family == "H" and j == d),
                              t, -(family == "H" and j == d - 1),
                              3 - t if family == "I" else 1))
        x0 = (-2 if j == d - 1 else 2 if j == d else 0) if family == "H" else 0
        psis.append(_quadratic(diag - (family == "f" and j == d),
                               off - 1 + (family == "f" and j == d - 1), x0,
                               int(family == "H" and j == d)))
    return phis, psis


def _kernel_sum(cfd, family, top, phis, psis, first, cut=None):
    """The lattice sum on the kernel's rules of `family` on the continued
    fraction `cfd`, with the per-call prefix `phis`, `psis` in front:
    position j runs the prefix rule where there is one, else the kernel's.
    Both lists are cut to d + 1 positions, which drops the last link of the
    b = 1 limits (a_0 = d). `first` and `cut` are `_lattice_sum`'s."""
    kphis, kpsis = _rules(cfd.quotients, family)
    return _lattice_sum(top, (phis + kphis[len(phis):])[:cfd.d + 1],
                        (psis + kpsis[len(psis):])[:cfd.d + 1], first, cut)


def _exponent(family, cfd):
    """The psi rule of the head: q^(L(L-2m_1)) for a > 2b, and for f at
    d = 1 the barred term's m_0 m_1 = L m_1. It reads neither M nor the
    representation."""
    ge = cfd.a > 2 * cfd.b
    return _quadratic(ge, (family == "f" and cfd.d == 1) - 2 * ge, 0, 0)


def _bounded(family, cfd, L, M):
    """The sum at (L, M) with m_0 := L on the continued fraction cfd of
    (a, b), in either representation: the point form. For a > 2b the
    boundary binomial is [L+M+m_1, 2L], else [2L+M-m_1, 2L]; M = None
    drops it (the large-M limit times (q)_2L)."""
    head = _unit if M is None else _binomial(0, 1, 1, M, 2, 0, 1) \
        if cfd.a > 2 * cfd.b else _binomial(0, 2, -1, M, 2, 0, 1)
    return _kernel_sum(cfd, family, L, [head], [_exponent(family, cfd)], 1)


def _from_rows(family, cfd, L, M):
    """The sum at (L, M) of `_bounded`, from the family's entry in the row
    memo (see "Rows" in the module docstring): zero for L < 0 or M < 0,
    the entry's value at its M, the column after it added to the entry's
    row, which a point entry starts, and at any other call the point form,
    which replaces the entry with that point."""
    if L < 0 or M < 0:
        return LaurentPoly.zero()
    key = family, cfd.quotients, cfd.a > 2 * cfd.b, L
    entry = _ROW_CACHE.get(family)
    if entry is not None and entry[0] == key:
        if M == entry[1]:
            return entry[2]
        if M == entry[1] + 1:
            return _next_column(entry, family, cfd, L, M)
    value = _bounded(family, cfd, L, M)
    _ROW_CACHE[family] = [key, M, value, None]
    return value


def _next_column(entry, family, cfd, L, M):
    """Column M of the entry's row, one past its M, which becomes the
    entry's M and value; a point entry starts the row at _FIRST_WIDTH. A
    column whose l1 reaches 2^(w-1), or a factor that the numerator's
    levels cannot pack, restarts the row at the width that holds it, by
    `_lattice_sum`'s rule, and it is swept from column 0 again."""
    row = entry[3]
    w = _FIRST_WIDTH if row is None else row[0]
    while True:
        try:
            if row is None or row[0] != w:
                row = _row(family, cfd, L, w, row)
                for n in range(M):
                    _column(row, n)
            v, _ = _column(row, M)
            break
        except _Overflow as exc:
            w = pack_width(exc.args[0])
    value = LaurentPoly.dense(row[1], unpack(v, w))
    entry[1:] = M, value, row
    return value


def _row(family, cfd, L, w, old=None):
    """The row of the bounded sum at L >= 0 before its column 0, at width
    w: [w, lo, numerator, shifts, sums, ones]. The numerator's z^s
    coefficient, s = m_1 (L - m_1 for a > 2b), is q^(psi_0(L, m_1)) times
    the state at m_1 of level 1's column m_0 = L in the level memo, shifted
    to the least lo of them all; the 2L+1 running sums, with their l1s,
    divide it by (z;q)_(2L+1), shifts[k] being k words. A restart passes
    the row it replaces as `old`: when every state of its numerator has an
    l1 below 2^(u-1), u its width, the states decode exactly and are packed
    again at w, and no level is read again."""
    u = old and old[0]
    if old and not any(l1 >> (u - 1) for _, l1 in old[2]):
        lo = old[1]
        numerator = [(pack(unpack(v, u), w), l1) for v, l1 in old[2]]
    else:
        ge, psi = cfd.a > 2 * cfd.b, _exponent(family, cfd)
        phis, psis = _rules(cfd.quotients, family)
        states = [(c, at + psi(L, c), v, l1)
                  for c, (at, v, l1) in _extend(phis, psis, 1, L, w, None)[L].items()]
        lo = min((state[1] for state in states), default=0)
        numerator = [(0, 0)] * (L + 1)
        for c, at, v, l1 in states:
            numerator[L - c if ge else c] = v << w * (at - lo), l1
    k = 2 * L + 1
    return [w, lo, numerator, [w * i for i in range(k)], [0] * k, [0] * k]


def _column(row, n):
    """(v, l1) of column n of the row, the one after the column its
    running sums hold (see `qcombinat._sweep`)."""
    w, _, numerator, shifts, sums, ones = row
    v, l1 = numerator[n] if n < len(numerator) else (0, 0)
    return _sweep(sums, ones, shifts, v, l1, w)


def eval_F(a, b, L, M):
    """Doubly-bounded fermionic polynomial for the pair (a,b)."""
    return _from_rows("F", cf_expand(a, b), L, M)


def eval_f(a, b, L, M):
    """Barred-quadratic-form variant: the exponent gains m_d (m_{d-1} - m_d)."""
    return _from_rows("f", cf_expand(a, b), L, M)


def eval_H(a, b, L, M):
    """Shifted-kernel family. At (2, 1), the root of the H tree, it is the
    seed sum sum_m q^(m^2) [2L+M-m-1, 2L-1] [L-1, m] on two rules of its
    own: the head [2L+M-m_1-1, 2L-1] at exponent 0, then [m_0-1, m_1] at
    exponent m_1^2, a free level 1. The head is zero at M < 0, so L < 0 or
    M < 0 gives zero before the level memo is read."""
    if (a, b) == (2, 1):
        if L < 0 or M < 0:
            return LaurentPoly.zero()
        return _lattice_sum(L, [_binomial(0, 2, -1, M - 1, 2, -1, 1), _seed],
                            [_flat, _square], 1)
    return _from_rows("H", cf_expand(a, b), L, M)  # the shifted kernel is rep-sensitive


def eval_I(a, b, L, M):
    """Even-modulus family: factor j is a Gaussian binomial in q^(3-tau_j)."""
    return _from_rows("I", cf_expand(a, b), L, M)


def eval_limit_M(family, a, b, L):
    """Large-M limit times (q)_2L: the singly-bounded polynomial at L."""
    if family == "H":
        raise NotImplementedError("large-M limit not provided for family H")
    return _bounded(family, cf_expand(a, b), L, None)


def eval_limit_L(family, a, b, M):
    """Large-L limit times (q)_2M: the tilde polynomial at M.

    Families F and f only. The terms carry the Pochhammer quotient
    (q)_2M / ((q)_{M-m_1} prod_x (q)_x) over x = n_1..n_{a_0}, tau m and
    M + m - tau m, with m = m_{a_0+1} (a_0 = 0 for a <= 2b). In
    m_j = n_j + m_{j+1} it is the local chain [2M, M-m_1]
    prod_{j<=a_0} [M+m_j, m_j-m_{j+1}] [M+m, tau m] (q)_{M+m-tau m}, and
    position j <= a_0 has exponent m_j^2.

    The chain telescopes, so that M is read only at positions 0 (the head)
    and 1 and the levels after them are shared (see the module docstring):

    - b = 1 (a_0 = d = a - 1, m = m_{d+1} = 0, the link is (q)_M): the
      factors before the levels, [2M, M-m_1] [M+m_1, m_1] (q)_M, equal
      [M, m_1] [2M, M] (q)_M, so with m_0 = M
        Ftilde_(a,1) = [2M, M] (q)_M
                       sum q^(sum_j m_j^2) prod_{j=1..d} [m_{j-1}, m_j],
      the finitized Andrews-Gordon multisum (Burge 1993; Foda, Lee and
      Welsh 1998) times one factor free of m_1. The head is [M, m_1], the
      levels are the M-free [m_j, m_{j+1}], and [2M, M] (q)_M, the stored
      factor ("mid", 2M, M), multiplies the total once. As ftilde_(a,1) =
      Ftilde_(a-1,1), f is the same sum at d = a - 2, empty at (2, 1):
      ftilde_(2,1) = (q)_2M/(q)_M;
    - a_0 = 1 (tau = tau_2, m = m_2):
      [M+m_1, m_1-m_2] [M+m_2, tau m_2] (q)_{M-(tau-1)m_2}
        = [M+m_1, m_1+(tau-1)m_2] (q)_{M-(tau-1)m_2}
          [m_1+(tau-1)m_2, tau m_2],
      position 1 the first factor and position 2 the M-free second one.

    At a_0 >= 2 the telescoped head would read m_{a_0+1}, so those pairs
    keep the chain.
    """
    if family not in ("F", "f"):
        raise NotImplementedError("large-L limit provided for families F and f only")
    check_pair(a, b)
    if b == 1:
        if M < 0:
            return LaurentPoly.zero()
        d = a - 1 - (family == "f")
        total = _factor(("mid", 2 * M, M))
        if d:
            total *= _lattice_sum(M, [_multinomial] * (d + 1), [_flat] + [_square] * d,
                                  1, per_m=True)
        return total
    cfd = cf_expand(a, b)
    a0 = cfd.quotients[0] if a > 2 * b else 0
    links = [lambda p, c, n: _qkey(2 * M, M - n)]
    # at b >= 2 the last quotient is >= 2, so a_0 + 1 < d and tau_{a_0+1} = 2
    if a0 == 1:  # level 2 is free
        links += [lambda p, c, n: ("mid", M + c, c + n), _telescoped]
    else:
        links += [lambda p, c, n: _qkey(M + c, c - n)] * a0 + \
            [lambda p, c, n: ("mid", M + c, 2 * c)]
    return _kernel_sum(cfd, family, M, links, [_flat] + [_square] * a0,
                       2 if a0 == 1 else a0 + 2)


def eval_limit_both(family, a, b, T):
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
    check_pair(a, b)
    if family == "f" and b == 1:
        raise NotImplementedError("the reciprocal family has no product form for b = 1")
    cfd = cf_expand(a, b)
    a0 = cfd.quotients[0] if a > 2 * b else 0
    tau = 1 if a0 + 1 == cfd.d else 2  # of the last link: 1 at (2, 1)

    def inv(j, k):  # base 3 - tau_j for I, tau_j = 2 except tau_d = 1
        return ("inv", 1 + (family == "I" and j == cfd.d), k, T)

    links = [_unit] + [lambda p, c, n, j=j: inv(j, c - n) for j in range(1, a0 + 1)]
    links.append(lambda p, c, n: inv(a0 + 1, tau * c))
    return TruncatedSeries.from_poly(
        _kernel_sum(cfd, family, isqrt(T), links, [_flat] + [_square] * a0, a0 + 2, T), T)
