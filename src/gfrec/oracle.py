"""Ground-truth character sums by exhaustive enumeration.

The sum S(g) = sum over all x in F_q^n of zeta_p^(Tr(g(x))) is computed
exactly: points are enumerated in blocks, function values are
reduced to trace residues through integer lookup tables, and the residue
histogram is converted to a cyclotomic integer at the end.  Everything is
integer arithmetic, so block partitioning cannot change the result.  Both
kernels split each function into cofactors of the low (in-block) and high
(block-index) variables or digits, `_split`, so that what the blocks share
is evaluated once.  Fields with q = 2 take a packed-bit path: one cube of
2^n points, or chunks of 2^b points.  On a chunk each high cofactor is a
constant, so a chunk's cube is the base plus the low cofactors whose high
cofactor is 1 there, and each distinct combination's cube is built once and
weighted by its chunks.  A work model picks b per call; R(2,3) at n = 26
builds 18 cubes of 2^14 points, and sigma(3) there 4 of 2^13.  In the
generic kernel a block's histogram depends only on its high-digit
coefficients, up to a constant shift that permutes its bins, so blocks with
equal coefficients are counted once and weighted by their number; every
point is still counted exactly once.  Each distinct row's histogram is a
linear image of one joint histogram of the low cofactors, so the low points
are counted once by their tuple of cofactor values (their key) where that
is cheaper, and the histograms of all distinct rows are formed in one
contraction of the keys through the field's tables; a function with no
low-digit part takes one value on a block and has no axis there (see
`_BlockValues`).  The block size is chosen per call, as a meet in the
middle: smaller blocks make each distinct coefficient row's histogram
cheaper, and make more rows to evaluate and sort.  A work model, fitted to
timed calls, predicts both from the coefficient rows of the one or two
sizes that a call tries, and whether counting by key pays.  Both kernels'
models keep only prices that change the size chosen for some timed call.

Most calls are small: checks and short ranges enumerate a few hundred to a
few thousand points, where each numpy call costs about a microsecond
whatever its size, so a call costs its count of numpy calls more than its
points.  The kernel keeps that count and the work around it low.  The
field-table cache holds intp tables beside the narrow ones (see
`_FieldTables`), and the digit rows of small grids are intp (see
`_digit_rows`), so each factor of a term is one add and one gather on a
single dtype; a call that fits in one block builds no coefficient or shift
rows.  tau(3) over F_3 at n = 6 (729 points) takes about 55-75 us in
process on a 2-core x86-64 host.  Over fields with q^2 > _TABLE_ENTRIES no
q^2 table is built for a call, so a small grid over F_2^12 costs its
points, not 16.7 M table entries.

Both kernels also count by label: a point's level, the index of its
highest nonzero variable (0 at the origin), with its s leading digits,
and the values of x_1, ..., x_s beside its function value.  With variable
i at digit i - 1 of the point index, the points of level at most n are the
first q^n, so a whole chunk or block whose index has at least s digits has
one label, fixed by its index, and only the few first ones' points spread
over several.  A trapezoid or sigma(k) at n is its own instance at N > n
restricted to x_(n+1) = ... = x_N = 0, and a rotation of width w is its
trapezoid plus a seam W in the first and the last w - 1 variables that is
the same polynomial at every n >= 2w - 2 (`funcalg.seam`).  So
`sum_sequence` reads a whole range from one enumeration at its top n, with
s = w - 1 leading digits (0 without a rotation): the last s variables at n
are the leading digits of a point of level n - s < L <= n, moved down.  A
plain call is the one-label case of the same code.

Every polynomial is evaluated by one function, `_grid`, which `values`
exposes: the kernels' grids, the seam's traces and the rotation builder's
windows in `transfer`.  This module is the enumeration path only.  The
other two paths, `transfer.run_range` on a built system and
`recurrence.extend` of initial terms, live in their own modules, and
callers such as the command line pick one themselves.
"""

from __future__ import annotations

from bisect import bisect_left
from math import prod

import numpy as np

from .cyclotomic import build_root_counts, build_unchecked
from .funcalg import InstantiatedFunction, instantiate, seam
from .galois import is_prime
from .limits import DEFAULT_POINT_BUDGET, check_bins, check_points
from .recurrence import Sequence

_BLOCK_POINTS = 1 << 15  # most points per block of the generic kernel; its buffers stay in cache
_LEAF_POINTS = 1 << 10  # the generic kernel folds grids of up to this many points term by term; a numpy call costs about this many points
_TABLE_ENTRIES = 1 << 12  # the field-table cache keeps intp q x q tables while q^2 is at most this
_COUNT_ENTRIES = 1 << 16  # most entries (rows x keys, or rows x bins) of one step of `_BlockValues.counts`
_TRANSFORM_ENTRIES = 1 << 20  # most entries of one gather of `decorated_sums`' transform (8 MB of int64)
_CHUNK_BITS = 22  # log2 of the most points in one chunk of the F_2 kernel; at least 6
# The F_2 kernel's work model, in nanoseconds, fitted to calls timed on a
# 2-core x86-64 host (R(2,3), tau(3), tau(5), R(2,5), R(2,3) + R(2), T(2,4),
# sigma(2) and sigma(3) at n = 14..26 and every candidate b); only their
# ratios matter.  See `_chunk_bits`.
_TERM_POINT_NS = 0.0025  # one term at one point of one cube of 2^b < 2^n points: its XOR and its share of the popcount
_WIDE_TERM_POINT_NS = 0.006  # the same in the one cube of 2^n points, which streams through memory
_MASK_WORD_NS = 1.5  # one word of a cube at one value of a seam's a (`_SEAM_WORDS`): its AND and popcount
_CODE_NS = 1.1  # one chunk's code at one chunk bit of the zeta transform
_KEYED_NS = 120_000  # one call at b < n: the split, the codes and their count
# The generic kernel's work model, in nanoseconds, fitted to calls timed on a
# 2-core x86-64 host; only their ratios matter.  See `_BlockValues._choose`.
_GATHER_NS = 1.4  # one entry (row x key) of one gather of the contraction, a row at a time
_BATCH_NS = 3.5  # the same in a batch of rows
_ROW_NS = 5_000  # one distinct C row taken alone, beyond its entries
_KEY_NS = 2.6  # one point of one column, counting the keys; one point of the head, counted by label
_KEYS_NS = 5_400  # counting the keys, beyond its points
_BIN_NS = 14  # one bin of one shifted row
_PAIR_NS = 140  # one (row, label) pair of a call of many blocks, placed
_FOLD_NS = 0.7  # one point of one numpy operation of a grid (`_grid_ops`)
_FOLD_OPS = 24  # most operations that a grid counts
_BLOCKS_NS = 65_000  # a call of many blocks, beyond its grids and counts: its layout and the steps that one block skips
_BLOCK_NS = 34  # one block, laid out
_TRY_NS = 43_500  # one try of an m (`_BlockValues._try`), beyond its C and shift terms, with 30 us of margin for the model's error
_HIGH_TERM_NS = 8_800  # one term of a C or shift grid at one try
# A levelled rotation range pays for its seam table in the labels and the
# bins of its top call: p q^(2s) entries for each labelled level, each of
# which costs about as much as enumerating this many points of the lower n
# that the one call saves, in ranges timed on a 2-core x86-64 host
# (R(2), R(2,3), R(2,4), R(2,5), R(2,3,4) and R(2,3) + R(2) over F_2 to
# F_9).  See `sum_sequence`.
_SEAM_POINTS = 8

_table_cache = {}
_digit_cache = {}


def _primitive_powers(field):
    """Indices of g^0, ..., g^(q-2) for the first element g of order q - 1.

    g has order q - 1 when g^((q-1)/l) != 1 for every prime l dividing
    q - 1.  Multiplication by g is F_p-linear on the digits of an index, so
    its r x r matrix steps the powers, doubling the number known each pass.
    """
    p, r, q = field.p, field.r, field.q
    primes = [ell for ell in range(2, q) if (q - 1) % ell == 0 and is_prime(ell)]
    one = field.one()
    for i in range(1, q):
        g = field.from_index(i)
        if all(g ** ((q - 1) // ell) != one for ell in primes):
            break
    jump = np.array([(g * field.from_index(p**j)).coeffs for j in range(r)], dtype=np.int64).T  # column j: g X^j
    powers = np.eye(r, 1, dtype=np.int64)  # column k: the digits of g^k
    while powers.shape[1] < q - 1:
        powers = np.hstack((powers, jump @ powers % p))
        jump = jump @ jump % p
    return p ** np.arange(r) @ powers[:, : q - 1]


class _FieldTables:
    """A field's lookup tables, built once and kept in `_table_cache`.

    add, mul and trace are the field's index tables, in the narrowest
    unsigned dtype.  Addition is built up one digit at a time,
    multiplication goes through the logarithm of a primitive element, and
    the trace is linear in the digits.  The generic kernel and the transfer
    builders compute indices in intp, and a numpy call on mixed dtypes
    costs up to twice one on a single dtype, so intp tables are kept too:
    trace; add and mul; qmul, flat, whose entry q s + x is q (s x); and,
    built when c first occurs, add o mul[c], flat, whose entry q s + v is
    v + c s.  All but trace have q^2 entries, so they exist only while
    q^2 <= _TABLE_ENTRIES.  Over a larger field the kernel gathers from the
    narrow tables with 2-d indices, which builds no q^2 table, and
    `integer` converts add and mul on each call.  Every table is read-only.
    """

    def __init__(self, field):
        p, r, q = field.p, field.r, field.q
        self.q = q
        dtype = np.min_scalar_type(q - 1)
        digits = [np.arange(q) // p**i % p for i in range(r)]
        antilog = _primitive_powers(field).astype(dtype)
        log = np.zeros(q, dtype=np.intp)
        log[antilog] = np.arange(q - 1)
        add = np.zeros((1, 1), dtype=dtype)
        for i in range(r):  # extend to digits 0..i: new top digits add mod p, lower ones by add
            top = ((np.arange(p)[:, None] + np.arange(p)) % p * p**i).astype(dtype)
            add = (top[:, None, :, None] + add[None, :, None, :]).reshape(p ** (i + 1), -1)
        wrapped = np.concatenate((antilog, antilog))  # the antilog of every sum of two logs
        mul = np.zeros((q, q), dtype=dtype)
        for a in range(1, q):  # row by row, so the build needs no q x q temporaries
            np.take(wrapped[log[a] :], log[1:], out=mul[a, 1:], mode="clip")
        basis = [field.from_index(p**i).trace() for i in range(r)]
        trace = (sum(d * t for d, t in zip(digits, basis)) % p).astype(dtype)
        self.add, self.mul, self.trace = _frozen(add), _frozen(mul), _frozen(trace)
        self.trace_index = _frozen(trace.astype(np.intp))
        self._integer = self._qmul = None
        if q * q <= _TABLE_ENTRIES:
            self._integer = (_frozen(add.astype(np.intp)), _frozen(mul.astype(np.intp)))
            self._qmul = _frozen(self._integer[1].ravel() * q)
        self._scaled = {}  # c -> add o mul[c], flat

    def integer(self):
        """(add, mul, trace) as intp arrays."""
        return (self._integer or (self.add.astype(np.intp), self.mul.astype(np.intp))) + (self.trace_index,)

    def times(self, index, out):
        """out = q (s x) at index = q s + x."""
        if self._qmul is None:
            np.multiply(self.mul.ravel()[index], self.q, out=out, dtype=np.intp)
        else:
            self._qmul.take(index, out=out, mode="clip")  # in range; "clip" lets take write into out

    def plus_times(self, c, q_s, val, index):
        """val = val + c s, in place, for q_s = q s; index is scratch of val's size."""
        table = self._scaled.get(c)
        if table is None:
            if self._integer is None:
                val[...] = self.add[self.mul.ravel()[q_s + c], val]  # mul is symmetric
                return
            add, mul = self._integer
            table = self._scaled[c] = _frozen(add[mul[c]].ravel())
        np.add(q_s, val, out=index)
        table.take(index, out=val, mode="clip")


def _frozen(table):
    table.flags.writeable = False
    return table


def _tables(field):
    tables = _table_cache.get(field)
    if tables is None:
        tables = _table_cache[field] = _FieldTables(field)
    return tables


def integer_tables(field):
    """The (add, mul, trace) index tables of a field as intp arrays.

    They come from the field-table cache; add and mul are kept there only
    while q^2 <= _TABLE_ENTRIES, and over a larger field are converted per
    call.
    """
    return _tables(field).integer()


def trace_table(field):
    """The trace of each element index of a field, as an intp table from the
    field-table cache; unlike `integer_tables`, it converts no q^2 table."""
    return _tables(field).trace_index


def _digit_rows(q, k):
    """Digit rows of the first q^k point indices: row j holds digit j.

    Rows of grids of up to _LEAF_POINTS points, which most calls fold, are
    intp, so that the fold's adds see one dtype.  Rows of larger grids are
    in the narrowest unsigned dtype, a byte an entry where intp takes eight,
    so the cache stays small.  One read-only array per q and dtype holds
    the rows of the largest k asked for so far; the rows for a smaller k
    are the leading part of its first k rows.
    """
    dtype = np.intp if q**k <= _LEAF_POINTS else np.min_scalar_type(q - 1)
    rows = _digit_cache.get((q, dtype))
    if rows is None or len(rows) < k:
        size = q**k
        rows = np.empty((k, size), dtype=dtype)
        for j in range(k):
            rows[j] = np.tile(np.repeat(np.arange(q), q**j), size // q ** (j + 1))
        rows = _digit_cache[q, dtype] = _frozen(rows)
    return rows[:k, : q**k]


def _digit_counts(q, k):
    """The number of base-q digits of each index 0..q^k - 1 (0 for index 0)."""
    return np.repeat(np.arange(k + 1), [1] + [(q - 1) * q**j for j in range(k)])


def _labels(q, k, lo, s):
    """The label of each index 0..q^k - 1: 0 when it has at most lo digits,
    else 1 + (d - lo - 1) q^s + v, d its number of digits and v the index
    of its s leading digits (see `_trace_levels`); lo may be negative.  An
    index with more than lo but fewer than s digits has no such v, and its
    entry means nothing: callers count those apart (the head)."""
    digits = _digit_counts(q, k)
    label = np.maximum(digits - lo, 0)
    if s:
        lead = np.arange(q**k) // q ** np.maximum(digits - s, 0)
        label = np.where(label > 0, (label - 1) * q**s + lead + 1, 0)
    return label


def _label_points(q, n, lo, s):
    """The number of points of F_q^n with each label (`_trace_levels`) and
    each value a of (x_1, ..., x_s), a row a label, lo >= s.  Label (L, v)
    holds the q^(L-s) indices from v q^(L-s); from L = 2s on they run over
    every a alike, below it over q^(L-s) consecutive values of a, one each.
    A v whose leading digit is 0 labels no point."""
    size = q**s
    if lo == n:
        return np.full((1, size), q ** (n - s), dtype=np.int64)
    points = np.zeros((1 + (n - lo) * size, size), dtype=np.int64)
    points[0] = q ** (lo - s)
    if not s:
        points[1:, 0] = (q - 1) * q ** np.arange(lo, n, dtype=np.int64)
        return points
    levels = points[1:].reshape(n - lo, size, size)
    lead = np.arange(size // q, size)
    for level in range(lo + 1, min(2 * s, n + 1)):
        run = q ** (level - s)
        levels[level - lo - 1].reshape(size, -1, run)[lead, lead % (size // run)] = 1
    wide = max(2 * s - lo - 1, 0)
    levels[wide:, size // q :] = (q ** np.arange(lo + 1 + wide - 2 * s, n + 1 - 2 * s, dtype=np.int64))[:, None, None]
    return points


def _split(terms, m):
    """(base, groups) with sum c x^mono = base + sum of high * low over groups.

    terms are (mono, c): mono a sorted tuple of variables, c a field element
    index.  Variables below m are low; the others are high, renumbered from
    0.  base holds the terms without a high variable, in their order.  The
    high monomials H of the others are grouped by their low cofactor, the
    sum of c x^L over the terms c x^L x^H; a group is (that cofactor, the
    sum of x^H over the group, one being index 1); each cofactor and each
    group's list of H is sorted.  Both kernels split by it: the generic one
    at a block's low digits, with sorted terms, and the F_2 one at a
    chunk's variables.
    """
    base, cofactors = [], {}
    for mono, c in terms:
        cut = bisect_left(mono, m)
        if cut < len(mono):
            high = tuple([v - m for v in mono[cut:]])
            cofactors.setdefault(high, []).append((mono[:cut], c))
        else:
            base.append((mono, c))
    groups = {}
    for high, low in cofactors.items():
        groups.setdefault(tuple(sorted(low)), []).append((high, 1))
    return base, [(low, sorted(highs)) for low, highs in groups.items()]


# ---------------------------------------------------------------------------
# packed-bit kernel for F_2
#
# A cube holds the values of a function on 2^b points as 2^(b-6) 64-bit
# words, or one masked word for b < 6.  The kernel keeps the variables
# 1-based, as the terms of a function have them: bit v - 1 of the point
# index is bit v - 1 of the word for v <= 6, and bit v - 7 of the word index
# for 6 < v <= b.  Viewed as a (2, ..., 2) array of words, the points where
# the variables above 6 of a monomial are all 1 form a sub-array, so a term
# is one in-place XOR of its word mask into that view.  A call is one cube
# of 2^n points (b = n), or chunks of 2^b points counted by code, one cube
# per distinct code; `_chunk_bits` picks b and `_trace_counts_f2` counts.


def _low_words():
    """The word mask of each sorted tuple of the variables 1..6: bit i is
    set when bit v - 1 of i is, for each variable v."""
    words = {(): (1 << 64) - 1}
    for v in range(1, 7):
        pattern = sum(1 << i for i in range(64) if i >> v - 1 & 1)
        words.update({low + (v,): word & pattern for low, word in list(words.items())})
    return words


_LOW_WORDS = _low_words()
_LOW_BITS = np.array([(1 << r) - 1 for r in range(64)], dtype=np.uint64)  # the bits below r of a word
# for each s <= 6 and each a < 2^s, the bits j of a word with j = a mod 2^s: the points where
# (x_1, ..., x_s) is a, as bit v - 1 of the index is x_v; (2^64 - 1) / (2^(2^s) - 1) sets every 2^s-th bit
_SEAM_WORDS = [np.array([((1 << 64) - 1) // ((1 << (1 << s)) - 1) << a for a in range(1 << s)], dtype=np.uint64) for s in range(7)]
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)
_bitwise_count = getattr(np, "bitwise_count", None)  # numpy >= 2.0


def _bitcount(words):
    """The set bits of each word."""
    if _bitwise_count is not None:
        return _bitwise_count(words)
    return _POPCOUNT8[np.ascontiguousarray(words).view(np.uint8)].reshape(words.shape + (8,)).sum(axis=-1)


def _popcount(words, starts=(0,)):
    """The set bits of each row of words, along the last axis, summed over
    each run of words from one of starts to the next (a start equal to the
    next takes its one word, as reduceat does)."""
    return np.add.reduceat(_bitcount(words), starts, axis=-1, dtype=np.int64)


def _range_ones(words, bounds):
    """The set bits of each row of words, along the last axis, in each run of
    bits from one of the ascending bit positions bounds to the next, the
    last of which is the end of the words.  The whole words from each
    bound's word are summed by one reduceat, less that word alone where the
    next bound is in it too, and each bound's word is split by the mask of
    its lower bits."""
    word = bounds >> 6
    at = np.minimum(word, words.shape[-1] - 1)
    first = words[..., at]
    low = _bitcount(first & _LOW_BITS[bounds & 63])
    ones = _popcount(words, at[:-1]) - low[..., :-1] + low[..., 1:]
    same = np.flatnonzero(word[1:] == word[:-1])
    ones[..., same] -= _bitcount(first[..., same])
    return ones


def _label_ones(cube, k, lo, s):
    """The ones of a cube of the first 2^k points by label (`_trace_levels`)
    and by the index a of (x_1, ..., x_s): a row for each label of level at
    most k, and a column for each a.  Each label is a run of indices: label
    0 those below 2^lo, label (L, v) the 2^(L-s) from v 2^(L-s), or for
    s = 0 level L those from 2^(L-1) to 2^L.  A value of a is one bit of
    every 2^s of a word (`_SEAM_WORDS`)."""
    words = cube.reshape(-1)
    if s:
        words = words & _SEAM_WORDS[s][:, None]
    if lo >= k:
        return _popcount(words).reshape(1, -1)
    end = [words.shape[-1] << 6]  # the last run ends with the words: past 2^k they are 0
    if not s:
        return _range_ones(words, np.array([0] + [1 << level for level in range(lo, k)] + end))[:, None]
    size, levels = 1 << s, np.arange(lo + 1, k + 1)
    lead = np.arange(size // 2, size)  # v with a leading 1
    ends = ((lead + 1) << levels[:, None] - s).ravel()
    rows = np.concatenate(([0], ((levels[:, None] - lo - 1) * size + lead + 1).ravel()))
    ones = np.zeros((1 + (k - lo) * size, size), dtype=np.int64)
    ones[rows] = _range_ones(words, np.concatenate(([0, 1 << lo], ends[:-1], end))).T
    return ones


def _views(terms, bits):
    """[(index, word)]: the monomials of terms, in the variables 1..bits, as
    XORs of a word into views of a batch of cubes, whose first axis runs
    over the cubes.  Monomials with the same variables above 6 share a
    view, and their words are summed; for bits < 6 a word keeps only its
    first 2^bits bits."""
    axes = max(bits - 6, 0)
    points = (1 << (1 << min(bits, 6))) - 1
    words = {}
    for mono, _c in terms:
        cut = bisect_left(mono, 7)
        inside = mono[cut:]
        words[inside] = words.get(inside, 0) ^ _LOW_WORDS[mono[:cut]]
    views = []
    for inside, word in words.items():
        word &= points
        if word:
            index = [slice(None)] * (axes + 1)
            for v in inside:
                index[axes + 7 - v] = 1
            views.append((tuple(index), np.uint64(word)))
    return views


def _cube(terms, bits):
    """The cube of the sum of the monomials of terms, in the variables
    1..bits, as a batch of one."""
    cube = np.zeros((1,) + (2,) * max(bits - 6, 0), dtype=np.uint64)
    for index, word in _views(terms, bits):
        view = cube[index]  # cube[index] ^= word would also copy the view back
        view ^= word
    return cube


def _chunk_codes(groups, chunk_bits, skip, s=0, head=0):
    """(on, weights): on[i, j] is 1 when C_j, the sum of the high monomials
    of the j-th group of `_split`, is 1 on the chunks of the i-th distinct
    code, and weights[i, l] counts those of the chunks c >= head of the
    2^chunk_bits whose label is l, as `_labels(2, chunk_bits, skip, s)`
    gives it.  With b chunk bits, chunk c > 0 holds the points of level
    b + bitlen(c), and when bitlen(c) >= s their s leading bits are those
    of c, so labels from lo = b + skip are those of `_trace_levels`; the
    one label of a call is at skip = chunk_bits, s = 0.  The head chunks,
    whose points have more than one label, are counted apart.

    A chunk's code has bit j when C_j is 1 on it.  Each high monomial
    belongs to one group, so a chunk's code is the XOR of the codes of the
    monomials whose chunk bits it contains: the subset-sum (zeta) transform
    of the table that holds each monomial's code at its chunk bits, one XOR
    of half the table per chunk bit.  The table is a matrix, its rows the
    top half of the chunk bits: their XORs run along whole rows, and so do
    the others' after a transpose.  Codes are kept in the narrowest
    unsigned dtype, as Python ints past 64 groups, and counted in bins
    while there are no more bins than chunks, by sorting past that.
    """
    table = {sum(1 << v for v in high): 1 << j for j, (_low, highs) in enumerate(groups) for high, _one in highs}
    codes = np.zeros(1 << chunk_bits, dtype=np.min_scalar_type((1 << len(groups)) - 1) if len(groups) <= 64 else object)
    codes[list(table)] = list(table.values())
    codes = codes.reshape(1 << chunk_bits - chunk_bits // 2, -1)
    for _ in range(2):
        for a in range(len(codes).bit_length() - 1):
            half = codes.reshape(-1, 2, codes.shape[1] << a)
            half[:, 1] ^= half[:, 0]
        codes = codes.T.copy()
    codes = codes.reshape(-1)
    if len(groups) > chunk_bits:
        codes, key = np.unique(codes, return_inverse=True)
        size = len(codes)
    else:
        key, size = codes, 1 << len(groups)
    labels = 1 + (chunk_bits - skip << s)
    if labels > 1:
        key = key.astype(np.intp) * labels + _labels(2, chunk_bits, skip, s)
    weights = np.bincount(key[head:], minlength=size * labels).reshape(size, labels)
    if len(groups) <= chunk_bits or head:  # the codes that occur
        occur = np.flatnonzero(weights.any(axis=1) if labels > 1 else weights)
        codes, weights = (codes[occur] if len(groups) > chunk_bits else occur), weights[occur]
    return (codes[:, None] >> np.arange(len(groups), dtype=codes.dtype) & 1).astype(np.uint64), weights


def _chunk_bits(terms, n, lo, s):
    """The chunk bits of least predicted work for `_trace_counts_f2`: n for
    one cube of 2^n points, or b < n for chunks of 2^b points counted by
    code.

    Each term costs _WIDE_TERM_POINT_NS a point of the cube of 2^n points,
    which streams through memory, and _TERM_POINT_NS a point of each cube of
    2^b < 2^n points.  At b < n, with g groups of `_split`, there are at
    most min(2^g, 2^(n - b)) codes, a cube each; the codes cost
    (n - b) 2^(n - b) XORs, and the call a fixed _KEYED_NS.  With s > 0
    every word of a cube is counted 2^s times, once for each a
    (`_SEAM_WORDS`), at _MASK_WORD_NS, and at b < n the head chunks of
    s > 1, when lo is below them, are one more cube, of 2^(b+s-1) points.
    The groups are counted once, at b = n // 2, and taken as the same at
    every b; the count finds `_split`'s groups without building them.  A
    call whose one cube costs no more than the fixed cost counts none.
    """

    def cube_ns(k):  # one cube of 2^k points
        return len(terms) * _WIDE_TERM_POINT_NS * (1 << k) + (_MASK_WORD_NS * ((1 << max(k - 6, 0)) << s) if s else 0)

    top = min(n - 1, _CHUNK_BITS)
    best_work, best = cube_ns(n), n
    if n > _CHUNK_BITS:
        best_work, best = float("inf"), top
    elif top < 0 or best_work <= _KEYED_NS:
        return n
    least = min(n // 2, top)
    cofactors = {}
    for mono, _c in terms:
        if mono and mono[-1] > least:
            cut = bisect_left(mono, least + 1)
            cofactors.setdefault(mono[cut:], set()).add(mono[:cut])
    groups = len(set(map(frozenset, cofactors.values())))
    for bits in range(least, top + 1):
        cubes = min(1 << groups, 1 << n - bits) << bits
        work = len(terms) * _TERM_POINT_NS * cubes + (n - bits << n - bits) * _CODE_NS + _KEYED_NS
        if s:
            work += _MASK_WORD_NS * (cubes >> 6 << s)
        if s > 1 and lo < bits + s - 1:
            work += cube_ns(min(bits + s - 1, n))
        if work < best_work:
            best_work, best = work, bits
    return best


def _trace_counts_f2(g, lo, s=0):
    """The ones of g over F_2^n by label and by the index a of
    (x_1, ..., x_s), a row a label (`_trace_levels`, with lo >= s and
    s <= 6), over chunks of 2^b points (`_chunk_bits`; b >= n // 2 >= s
    in a seam call, so a chunk holds a).

    `_split` writes g as base(low) + the sum over groups of C(high) L(low),
    with the variables up to b low.  On a chunk each C is a constant, so its
    cube is base plus the L whose C is 1 there: chunks with equal codes
    (`_chunk_codes`) have equal cubes, and the cube of each distinct code is
    built once and weighted by its chunks of each label, as a chunk c whose
    index has at least s bits has one label, fixed by c.  The group whose L
    is the constant 1 complements the cube.  At b = n there is one chunk,
    with no split and no codes.  The cubes are built side by side, at most
    2^_CHUNK_BITS points at a time: a copy of the base cube each, one XOR of
    each term of each L into its view, with the word zeroed on the cubes
    whose code lacks L's bit, and one popcount for each a, through the
    words of `_SEAM_WORDS`.  The head chunks c < 2^(s-1), or chunk 0 for
    s <= 1, hold points of more than one label when lo is below their
    levels; they are the first 2^k points, on which g is its terms in the
    variables 1..k (the base cube, for s <= 1), and are counted by the runs
    of their labels (`_label_ones`).
    """
    n = g.n
    terms = [(tuple(sorted(mono)), 1) for mono in g.terms]
    bits = _chunk_bits(terms, n, lo, s)
    if bits == n:
        return _label_ones(_cube(terms, n), n, lo, s)
    extra = min(max(s - 1, 0), n - bits)  # the head chunks' index bits
    head = 1 << extra if lo < bits + extra else 0
    base, groups = _split(terms, bits + 1)
    on, weights = _chunk_codes(groups, n - bits, lo - bits, s, head)
    base = _cube(base, bits)
    cofactors = [_views(low, bits) for low, _highs in groups]
    step = 1 << _CHUNK_BITS - bits
    ones = np.zeros((1 + (n - lo << s), 1 << s), dtype=np.int64)
    for first in range(0, len(on), step):
        batch = on[first : first + step]
        cubes = np.repeat(base, len(batch), axis=0)
        for j, views in enumerate(cofactors):
            for index, word in views:
                view = cubes[index]
                view ^= (batch[:, j] * word).reshape((-1,) + (1,) * (view.ndim - 1))
        words = cubes.reshape(len(batch), -1)
        if s:
            words = words[:, None] & _SEAM_WORDS[s][:, None]
        ones += weights[first : first + step].T @ _popcount(words).reshape(len(batch), -1)
    if head:
        k = bits + extra
        cube = _cube([t for t in terms if not t[0] or t[0][-1] <= k], k) if extra else base
        inner = _label_ones(cube, k, lo, s)
        ones[: len(inner)] += inner
    return ones


# ---------------------------------------------------------------------------
# generic kernel


def _grid(tables, terms, k, grids):
    """The values of sorted terms (`_terms`) in the variables 0..k-1 at the
    q^k points, over the field of tables (`_FieldTables`).

    Above _LEAF_POINTS points the terms may be split at k // 2 (`_split`):
    base and each group's parts are evaluated on their half grids and
    combined.  That is done when it is predicted cheaper than the fold.
    Counted in numpy operations on the q^k points, the fold takes
    2 d + 1 for each term of degree d, the combination 1 plus 4 for each
    group.  Each operation costs about _LEAF_POINTS + q^k points, and
    the half grids cost about the fold's operations plus 5 for each part
    they have, at about _LEAF_POINTS points each, since they are small.
    grids memoizes by (terms, k), so a part that functions, groups or
    calls share is built once.  The values are computed in intp and
    kept in the field's narrow dtype, an eighth of the memory.
    """
    q = tables.q
    if not terms:
        return np.zeros(q**k, dtype=tables.add.dtype)
    key = (tuple(terms), k)
    val = grids.get(key)
    if val is not None:
        return val
    h = k // 2
    split = q**k > _LEAF_POINTS and h
    if split:
        base, groups = _split(terms, h)
        ops = sum(2 * len(mono) + 1 for mono, _c in terms if mono)
        split = (ops - 1 - 4 * len(groups)) * (_LEAF_POINTS + q**k) > (ops + 5 + 10 * len(groups)) * _LEAF_POINTS
    if split:
        val, index, product = np.empty((3, q**k), dtype=np.intp)
        val.reshape(-1, q**h)[...] = _grid(tables, base, h, grids)  # the point q^h i + j has its high digits in i
        for low, high in groups:
            q_high = np.multiply(_grid(tables, high, k - h, grids), q, dtype=np.intp)
            np.add(q_high[:, None], _grid(tables, low, h, grids), out=index.reshape(-1, q**h))
            tables.times(index, product)
            tables.plus_times(1, product, val, index)
    else:
        val = np.empty(q**k, dtype=np.intp)
        val.fill(0 if terms[0][0] else terms[0][1])
        _fold(tables, val, terms, _digit_rows(q, k))
    val = grids[key] = val.astype(tables.add.dtype)
    return val


def _fold(tables, val, terms, cols):
    """Add c * prod(cols[v] for v in mono) to val in place for each (mono, c)
    in terms but the constant one (the empty monomial), which val holds.

    terms are sorted by mono, so neighbours share prefixes.  Level j of the
    stack holds q times the product of the first j + 1 variables of the
    current monomial, so the next factor is one add and one gather
    (`_FieldTables.times`), and so is adding the term
    (`_FieldTables.plus_times`).
    """
    q, times, plus_times = tables.q, tables.times, tables.plus_times
    levels = []
    index = np.empty(val.size, dtype=np.intp)
    prev = ()
    for mono, c in terms:
        if not mono:
            continue
        keep = 0
        while keep < len(prev) and prev[keep] == mono[keep]:  # mono is never a prefix of prev
            keep += 1
        for j in range(keep, len(mono)):
            if j == len(levels):
                levels.append(np.empty(val.size, dtype=np.intp))
            if j:
                np.add(levels[j - 1], cols[mono[j]], out=index)
                times(index, levels[j])
            else:
                np.multiply(cols[mono[0]], q, out=levels[0], dtype=np.intp)
        plus_times(c, levels[len(mono) - 1], val, index)
        prev = mono


def _terms(g):
    """g's terms as sorted (mono, c): mono its variables less one, sorted, c an element index."""
    return sorted([(tuple(sorted([v - 1 for v in mono])), c.index) for mono, c in g.terms.items()])


def _grid_ops(columns):
    """The numpy operations a point of `_grid` on each of columns, sorted
    terms, summed; `_work` prices each at _FOLD_NS.  A column's fold takes
    2 d + 1 of them for a term of degree d, and counts at most _FOLD_OPS,
    as `_grid` splits large grids of many terms."""
    return sum([min(sum([2 * len(mono) + 1 for mono, _c in terms if mono]), _FOLD_OPS) for terms in columns])


def _codes(columns, base, first, code, span):
    """(code, span): each entry of code, all below span, followed by the
    digits < base of columns from index first on, one column after another,
    so that the codes keep the order of the rows of digits and every code is
    below the new span.  Where span would pass 2^62, the codes are first
    replaced by their rank among the distinct ones, which keeps that order."""
    for column in columns:
        if span * base > 1 << 62:
            values, code = np.unique(code, return_inverse=True)
            span = len(values)
        code = code * base + column[first:]
        span *= base
    return code, span


def _distinct(code, span):
    """The number of distinct entries of code, all below span: by one
    bincount while span is within a few times the entries, else by a sort."""
    if span <= 4 * len(code) + _LEAF_POINTS:
        return int(np.count_nonzero(np.bincount(code)))
    code = np.sort(code)
    return int(len(code) > 0) + int(np.count_nonzero(code[1:] != code[:-1]))


def _key_count(q, m, columns, runs, gathers):
    """What `_BlockValues.counts` contracts at m low digits, for columns
    distinct base and L columns, runs distinct C rows and gathers bases and
    groups: q^columns, the most keys there can be, when counting the low
    points by key is predicted to pay, else the q^m points themselves."""
    points, keys = q**m, q**columns
    if not columns or keys >= points or _contract_ns(keys, runs, gathers) + points * columns * _KEY_NS + _KEYS_NS >= _contract_ns(points, runs, gathers):
        return points
    return keys


def _contract_ns(keys, runs, gathers):
    """The predicted nanoseconds of `_BlockValues._contract` on keys keys for
    runs distinct C rows: a row at a time past _LEAF_POINTS keys, else in
    batches of rows."""
    if keys > _LEAF_POINTS:
        return (_GATHER_NS * keys * gathers + _ROW_NS) * runs
    return _BATCH_NS * keys * gathers * runs


class _BlockValues:
    """The joint histogram of the values of one or more functions over F_q^n,
    or with traced, of the trace of the first one and the values of the others.

    A block fixes the top n - m digits of the point index and runs over the
    q^m settings of the low digits; `_choose` picks m for each call, with
    q^m <= _BLOCK_POINTS and, where that allows, m >= n // 2.  It prices
    each m it tries, most often one or two, by the counts of that m's rows
    alone (`_try`), and lays out the rows of the m it picks once
    (`_layout`).  `_split` writes
    each function as g = base(low) + shift(high) + sum over groups of
    C(high) L(low), where shift is the sum of the groups whose cofactor L is
    a constant.  base, each distinct L, each C and each shift over all
    blocks are evaluated once, by the module-level `_grid`.  So a block's
    values depend only on its row of C values, and its shift adds one
    element to all of them, which moves the bins by a permutation of the
    add table (a roll by Tr(shift) on a trace axis, as Tr is additive).  The
    blocks are grouped by their rows of C and shift values, and counted in
    three steps:

    - `_keys`: the low points are counted by their key, the tuple of base
      and L values, when `_plan` predicts that cheaper than keeping the q^m
      points themselves.  A block's values on a point depend only on its
      key.
    - `_contract`: the histogram of every distinct C row is formed at once,
      over rows x keys in chunks of at most _COUNT_ENTRIES entries: base
      plus, for each group, c L through the intp mul and add tables (the
      narrow ones past q^2 > _TABLE_ENTRIES), and one bincount, or one
      integer add.at weighted by the key counts.
    - `_place`: the histogram of each (C row, shift) row is added under its
      shift, times the number of blocks with that row, by one add.at.

    A function with no low part takes one value on a block, const + shift,
    so it has no axis in the contraction; `_place` puts the row in that
    value's bin.  A call that fits in one block (m = n) has no high digits,
    and skips building and sorting the rows.  Every count is an integer, so
    the result does not depend on the chunks or on the choice of keys.

    The histogram has a row for each label of `_trace_levels` from lo: the
    points of level at most lo, then each level past lo with each value of
    its s leading digits; a call at lo = n, s = 0 has one row.  Block b > 0
    holds the points of level m plus the number of base-q digits of b, and
    when b has at least s digits their s leading digits are b's, so it has
    one label and each distinct row of C and shift values is weighted by
    its blocks of each label.  The head, the blocks whose index has fewer
    than s digits (block 0 for s <= 1, whose points have the levels 0..m),
    is counted apart, point by point, when lo is below its levels
    (`_first_blocks`).
    """

    def __init__(self, funcs, grids, traced, lo, s):
        self.field = field = funcs[0].field
        self.q = q = field.q
        self.tables = _tables(field)
        self.traced = traced and field.r > 1  # on a prime field Tr is the identity
        self.sizes = [field.p if self.traced else q] + [q] * (len(funcs) - 1)
        self.n = n = funcs[0].n
        self.lo, self.s, self.labels = lo, s, 1 + (n - lo) * q**s
        self.terms, self.grids, self.halves = [_terms(g) for g in funcs], grids, {}
        self.m, plan, self.rows, self.weights, self.starts = self._choose(self.terms, n, grids)
        self.axes, self.consts, columns, self.bins, _gathers, _cost, self.keys = plan
        self.points = q**self.m
        self.head = self._head(self.m)
        self.columns = [_grid(self.tables, low, self.m, grids) for low in columns]

    def _plan(self, splits, m, runs):
        """(axes, consts, columns, bins, gathers, ops, keys) of the
        functions' splits at m low digits, for runs distinct C rows.

        A function with a low part, a base term in a low variable or a group,
        has a histogram axis: (its number, the column of its base or None, and
        for each group (its C column, the column of its L)).  columns lists
        the distinct base and L terms, so functions and groups that share one
        share its column.  A function without a low part is const + shift on
        every block, and consts maps its number to const.  bins is the number
        of bins of the axes, gathers counts the bases and groups of the axes,
        ops is the operations a point of the columns' grids (`_grid_ops`),
        and keys is what `counts` contracts (`_key_count`).
        """
        index, axes, consts, width, bins, gathers = {}, [], {}, 0, 1, 0
        for i, (base, groups) in enumerate(splits):
            if groups or base and base[-1][0]:  # base is sorted, so a nonconstant term is last
                b = index.setdefault(tuple(base), len(index)) if base else None
                pairs = [(width + j, index.setdefault(tuple(low), len(index))) for j, (low, _high) in enumerate(groups)] if groups else []
                axes.append((i, b, pairs))
                bins *= self.sizes[i]
                gathers += 1 + len(pairs)
            else:
                consts[i] = base[0][1] if base else 0
            width += len(groups)
        return axes, consts, list(index), bins, gathers, _grid_ops(index), _key_count(self.q, m, len(index), runs, gathers)

    def _choose(self, terms, n, grids):
        """(m, plan, rows, weights, starts) at the m of least predicted work.

        m lies between n // 2 and the largest m with q^m <= _BLOCK_POINTS,
        which bounds the buffers (only that m, if it is smaller than
        n // 2): below n // 2 there would be more blocks than points in a
        block, so the rows alone would outweigh the blocks.  A smaller m
        makes the low-digit side cheaper and the high-digit side dearer.
        Trying an m (`_try`) builds only what its price reads: the splits,
        the C and shift grids over the blocks, the plan, and the number of
        distinct C rows and of distinct (row, label) pairs; from these
        `_work` predicts the rest.  The search starts at the first m with
        no more blocks than points in a block, (n + 1) // 2, or at the
        largest m where a term spans more than half the variables (a
        rotation's wrapped translates) and the C could give most blocks
        their own row (`_start`).  A call that fits in one block first tries
        m = n, which builds nothing, and goes on to the start (to n - 1 from
        a start at n) only where the one block costs more than twice a try
        and the cost of many blocks, the model's error at that size.  From
        the best try below n so far `_guess` predicts the work at the m not
        yet tried.  The m predicted to save the most is tried next, and the
        search stops when no m is predicted to save more than the cost of
        its try: _TRY_NS, which holds a margin for the model's error, and
        _HIGH_TERM_NS for each term of a try's C and shift grids, counted on
        a try already made, as a try's price does not depend on its m.
        Most calls try one or two m.  The full layout, the sorted distinct rows with their
        weights and runs, is then built once, at the m chosen, from its try
        (`_layout`).
        """
        q = self.q
        top = n
        while q**top > _BLOCK_POINTS:
            top -= 1
        tries, works, at, ref = {}, {}, None, None
        m = top if top == n else self._start(terms, n, top)
        while m is not None:
            tried = tries[m] = self._try(terms, n, m, grids)
            works[m] = self._work(m, *tried[:4])
            if at is None or works[m] < works[at]:
                at = m
            if m < n and (ref is None or works[m] < works[ref]):
                ref = m  # the best try with rows
            m, most = None, 0
            least = _TRY_NS + _HIGH_TERM_NS * tried[7] + _BLOCKS_NS  # a try, and the cost of many blocks
            if works[at] <= least or ref is None and works[n] <= 2 * least:  # no try can pay
                break
            if ref is None:  # only the one block tried
                m = min(self._start(terms, n, top), n - 1)
                continue
            bound = works[at] - _TRY_NS - _HIGH_TERM_NS * tries[ref][7] - _BLOCKS_NS  # less a try, priced by the best one's terms, and many blocks
            for other in range(min(top, n // 2), min(top, n - 1) + 1):
                guess = other not in tries and bound > most and self._guess(ref, tries[ref], other)
                saving = guess and bound + _BLOCKS_NS - self._work(other, *guess)
                if guess and saving > most:
                    m, most = other, saving
        return (at,) + self._layout(terms, n, at, grids, tries[at])

    def _start(self, terms, n, top):
        """The m at which the search starts (`_choose`): (n + 1) // 2, or top
        where a term spans more than half the variables and the C at that m
        could give most blocks their own row (`_limit`)."""
        start = min(top, (n + 1) // 2)
        if any(mono and 2 * (mono[-1] - mono[0]) > n for t in terms for mono, _c in t):
            if 2 * self._limit(start) > self.q ** (n - start):
                return top
        return start

    def _limit(self, m):
        """The most distinct rows that the C at m low digits (`_halves`) can
        take: q^(their number), and q^(their high variables)."""
        groups = [highs for _base, groups, _shift in self._halves(self.terms, m) for _low, highs in groups]
        high = {v for highs in groups for mono, _one in highs for v in mono}
        return self.q ** min(len(groups), len(high))

    def _head(self, m):
        """The digits k of the head, the first q^k points, counted point by
        point, or 0 when every block has one label: the blocks whose index
        has fewer than s digits, or block 0 for s <= 1, while lo is below
        their levels."""
        k = min(m + max(self.s - 1, 0), self.n)
        return k if self.lo < k else 0

    def _guess(self, m, tried, other):
        """(plan, runs, pairs, shifting) at other < n low digits, predicted
        from the try at m < n (`_choose`), or None where the try cannot tell.
        The plan is the try's, with whether counting by key pays at other
        (`_key_count`).  It splits no function again, which would cost a
        small call more than the guess saves, but it overprices an m above
        the try, where terms that cross m are low and make fewer groups.

        The distinct C rows are predicted to stay as many, up to one a
        block: a trapezoid's or sigma(k)'s C take the same few rows at every
        m.  Where most blocks at m have their own row (a rotation's, or any
        call's at an m of very few blocks), the try tells only of its
        neighbours m - 1 and m + 1, at which the rows keep their share of
        the blocks, up to q^(the high variables of the terms that cross
        other), of which the C are functions.  The pairs grow with the
        square root of the blocks."""
        plan, runs, pairs, shifting, _columns, code = tried[:6]
        blocks, now = self.q ** (self.n - other), max(len(code), 1)
        if 2 * runs > now:
            if abs(other - m) > 1:
                return None
            crossing = {v for t in self.terms for mono, _c in t if mono and mono[0] < other <= mono[-1] for v in mono if v >= other}
            runs = min(runs * blocks / now, self.q ** len(crossing))
        runs = min(runs, blocks)
        pairs = max(runs, min(blocks, pairs * (blocks / now) ** 0.5))
        return plan[:-1] + (_key_count(self.q, other, len(plan[2]), runs, plan[4]),), runs, pairs, shifting

    def _work(self, m, plan, runs, pairs, shifting):
        """The predicted nanoseconds to build the low-digit grids, lay out
        the rows and count the blocks at m low digits, for the plan (`_plan`)
        and the counts of a try (`_try`)."""
        _axes, consts, lows, bins, gathers, ops, keys = plan
        q, head = self.q, self._head(m)
        points = q**m
        shifted = pairs if consts or shifting and (pairs > 1 or head) else 0  # see `_place`
        if head > m:  # the head's grids
            ops += _grid_ops(self.terms) * q ** (head - m)
        return (
            _FOLD_NS * points * ops
            + (_KEY_NS * points * len(lows) + _KEYS_NS if keys < points else 0)
            + (_KEY_NS * q**head if head else 0)  # the head by label
            + _contract_ns(keys, runs, gathers)
            + _BIN_NS * shifted * bins
            + (_BLOCKS_NS + _BLOCK_NS * q ** (self.n - m) + _PAIR_NS * pairs if m < self.n else 0)
        )

    def _try(self, terms, n, m, grids):
        """(plan, runs, pairs, shifting, columns, code, key, high) of the
        functions' terms at m low digits: what `_work` and `_guess` read,
        and what `_layout` builds on.

        Each function is split at m (`_halves`), and shifting is whether any
        function has a shift.  columns are the C grids, then the shift
        grids, over the blocks.  code holds each block's row of C values,
        and key its row of C and shift values and its label, as one integer
        each (`_codes`), for the blocks past the head, which is counted
        apart (`_first_blocks`).  runs is the number of distinct C rows,
        pairs the number of distinct (row, label) pairs, plan is `_plan` of
        the splits for those runs, and high counts the terms of the C and
        shift grids.  At m = n there is one block and no high digit: no
        grids or codes (columns is None), and one row, or none when the
        head holds the block.
        """
        if m == n:
            runs = int(not self._head(m))
            return self._plan([(t, []) for t in terms], m, runs), runs, runs, False, None, None, None, 0
        q = self.q
        splits, coeffs, shifts, shifting, high_terms = [], [], [], False, 0
        for base, groups, shift in self._halves(terms, m):
            coeffs += [_grid(self.tables, high, n - m, grids) for _low, high in groups]
            shifts.append(_grid(self.tables, shift, n - m, grids))
            splits.append((base, groups))
            shifting = shifting or bool(shift)
            high_terms += len(shift) + sum([len(highs) for _low, highs in groups])
        head = self._head(m)
        first = q ** (head - m) if head else 0
        code, span = _codes(coeffs, q, first, np.zeros(q ** (n - m) - first, dtype=np.int64), 1)
        key, key_span = _codes(shifts, q, first, code, span)
        if self.labels > 1:
            key, key_span = _codes([_labels(q, n - m, self.lo - m, self.s)], self.labels, first, key, key_span)
        runs = _distinct(code, span)
        return self._plan(splits, m, runs), runs, _distinct(key, key_span), shifting, coeffs + shifts, code, key, high_terms

    def _halves(self, terms, m):
        """[(base, groups, shift)]: each function's split at m low digits
        (`_split`), less the groups whose cofactor is a constant, whose high
        terms make up its shift; kept for the call, as `_choose` may read a
        split before it tries it."""
        got = self.halves.get(m)
        if got is None:
            got = self.halves[m] = []
            for t in terms:
                base, groups = _split(t, m)
                # a constant L is one term (the empty monomial, c); its group joins shift
                shift = sorted((high, low[0][1]) for low, highs in groups if not low[-1][0] for high, _one in highs)
                got.append((base, [(low, highs) for low, highs in groups if low[-1][0]], shift))
        return got

    def _layout(self, terms, n, m, grids, tried=None):
        """(plan, rows, weights, starts) of the functions' terms at m low
        digits, from their try at m (`_try`; made here when not given).

        rows are the distinct rows of C and shift values over the blocks
        past the head, in the order of their codes, so rows with equal C
        values are adjacent; weights[r, l] is the number of blocks with row
        r and label l, and starts the first row of each run of rows with
        equal C values.
        """
        plan, runs, _pairs, _shifting, columns, code, key, _high = tried or self._try(terms, n, m, grids)
        if columns is None:  # one block: no high digits, so no C or shift rows to build or sort
            rows = np.zeros((runs, len(terms)), dtype=np.intp)
            return plan, rows, np.ones((runs, 1), dtype=np.intp), [0][:runs]
        labels = self.labels
        order = np.argsort(key)
        key = key[order]
        row = key // labels if labels > 1 else key
        new = np.ones(len(key), dtype=bool)
        np.not_equal(row[1:], row[:-1], out=new[1:])
        group = np.cumsum(new) - 1
        weights = np.bincount(group * labels + key % labels if labels > 1 else group, minlength=np.count_nonzero(new) * labels)
        first = order[new]  # the first block of each distinct row, past the head
        code = code[first]
        starts = [0] + (np.flatnonzero(code[1:] != code[:-1]) + 1).tolist()
        rows = np.array(columns)[:, first + (len(columns[0]) - len(order))].T
        return plan, rows, weights.reshape(-1, labels), starts

    def _keys(self):
        """(values, counts): the value of each column at each key, and the
        number of low points with each key, or None when the keys are the
        points themselves (`_plan`).  A key's code holds its column values
        as base-q digits, the first column most significant."""
        columns = self.columns
        if self.keys == self.points:
            return columns, None
        digits = (self.q,) * len(columns)
        counts = np.bincount(np.ravel_multi_index(columns, digits))
        code = np.flatnonzero(counts)
        return np.unravel_index(code, digits), counts[code]

    def _contract(self, coeffs, values, scaled, counts, bins):
        """The (rows, bins) histograms of the axes' values over the keys, one
        row for each row of C values in coeffs; see the class docstring.

        Past _LEAF_POINTS keys a numpy call costs about its entries, so the
        rows are taken one at a time, through the flat table add o mul[c]
        (`_FieldTables.plus_times`): 2 gathers' worth a group and entry,
        where a batch of rows takes 4."""
        rows = len(coeffs)
        if not self.axes:  # no function has a low part: one bin, every point
            return np.full((rows, 1), self.points, dtype=np.int64)
        keys = len(values[0])
        each = 1 if keys > _LEAF_POINTS else max(1, _COUNT_ENTRIES // keys)  # rows at a time
        step = max(1, _COUNT_ENTRIES // min(each, rows))  # keys at a time
        if rows <= each and keys <= step and counts is None:  # one chunk
            return np.bincount(self._combined(coeffs, values, scaled, 0, keys, bins).ravel(), minlength=rows * bins).reshape(rows, bins)
        hist = np.zeros((rows, bins), dtype=np.int64)
        for lo in range(0, keys, step):
            hi = min(lo + step, keys)
            for r in range(0, rows, each):
                c_rows = coeffs[r : r + each]
                n = len(c_rows)
                combined = self._combined(c_rows, values, scaled, lo, hi, bins).ravel()
                flat = hist[r : r + n].reshape(-1)
                if counts is None:
                    flat += np.bincount(combined, minlength=n * bins)
                else:
                    weights = counts[lo:hi]
                    if n > 1:
                        weights = np.empty((n, hi - lo), dtype=np.intp)
                        weights[...] = counts[lo:hi]
                    np.add.at(flat, combined, weights.ravel())
        return hist

    def _combined(self, c_rows, values, scaled, lo, hi, bins):
        """The flat bin, row r times bins plus the joint bin of the axes, at
        the keys lo..hi-1 for each row r of C values in c_rows."""
        tables, integer = self.tables, self.tables._integer
        n, size = len(c_rows), hi - lo
        shape = (size,) if n == 1 else (n, size)
        combined = index = product = listed = None
        for i, b, pairs in self.axes:
            if not pairs:  # base alone: the same on every row
                val = values[b][lo:hi]
            else:
                val = np.empty(shape, dtype=np.intp)
                if b is None:
                    val.fill(0)
                else:
                    val[...] = values[b][lo:hi]
                if index is None:
                    index = np.empty(shape, dtype=np.intp)
                    if n == 1:
                        listed = c_rows[0].tolist()
                    else:
                        product = np.empty(shape, dtype=np.intp)
            for g, col in pairs:
                q_low = scaled[col][lo:hi]
                if n == 1:
                    if listed[g]:
                        tables.plus_times(listed[g], q_low, val, index)
                    continue
                c = c_rows[:, g, None]
                if integer is None:  # from the narrow tables, with 2-d indices
                    val[...] = tables.add[tables.mul.ravel()[q_low + c], val]
                else:  # q (c L) at q L + c, as mul is symmetric, then c L + val
                    np.add(q_low, c, out=index)
                    tables.times(index, product)
                    product += val
                    integer[0].ravel().take(product, out=val, mode="clip")
            if self.traced and i == 0:
                val = tables.trace_index[val]
            combined = val if combined is None else np.multiply(combined, self.sizes[i], dtype=np.intp) + val
        if n > 1:
            combined = combined + np.arange(0, n * bins, bins)[:, None]
        return combined

    def _place(self, total, hist, rows, weights, run):
        """Add weights[r, l] hist[run[r]], moved by the shifts in rows[r], to
        row l of total, the histogram of label l, for each r and l; see the
        class docstring."""
        width = rows.shape[1] - len(self.sizes)
        if not self.consts and not np.count_nonzero(rows[:, width:]):
            total += weights.T @ hist[run]
            return
        add, trace = self.tables.add, self.tables.trace
        dest = np.zeros((len(rows), 1), dtype=np.intp)
        for i, size in enumerate(self.sizes):
            s = rows[:, width + i]
            if i in self.consts:  # the row's one bin on this axis
                v = add[self.consts[i], s]
                dest = dest * size + (trace[v] if self.traced and i == 0 else v)[:, None]
                continue
            if self.traced and i == 0:  # a roll by Tr(s)
                moved = (np.arange(size) + trace[s][:, None]) % size
            else:  # bin v moves to v + s
                moved = add.T[s]
            dest = (dest[:, :, None] * size + moved[:, None, :]).reshape(len(rows), -1)
        r, label = np.nonzero(weights)
        flat = label[:, None] * total.shape[1] + dest[r]  # one index, where add.at is fastest
        np.add.at(total.reshape(-1), flat.ravel(), (hist[run[r]] * weights[r, label, None]).ravel())

    def _first_blocks(self):
        """The joint histogram by label of the head, the first q^k points
        (`_head`).  There each function is its terms in the variables below
        k, so its values are a grid of k digits (for k = m its base column,
        or its const), and each point is counted under its own label."""
        k, tables = self.head, self.tables
        joint = np.zeros(self.q**k, dtype=np.intp)
        for i, (terms, size) in enumerate(zip(self.terms, self.sizes)):
            v = _grid(tables, [t for t in terms if not t[0] or t[0][-1] < k], k, self.grids)
            joint *= size
            joint += tables.trace[v] if self.traced and i == 0 else v
        bins = prod(self.sizes)
        joint += _labels(self.q, k, self.lo, self.s) * bins
        return np.bincount(joint, minlength=self.labels * bins).reshape(self.labels, bins)

    def counts(self):
        """The flat joint histogram of each label, the bin of the first axis
        most significant."""
        q, rows, weights, starts = self.q, self.rows, self.weights, self.starts
        total = self._first_blocks() if self.head else None
        if not len(rows):
            return total
        values, counts = self._keys()
        scaled = {}
        for _i, _b, pairs in self.axes:
            for _g, col in pairs:
                scaled[col] = np.multiply(values[col], q, dtype=np.intp)
        coeffs = (rows.take(starts, axis=0) if len(starts) > 1 else rows)[:, : rows.shape[1] - len(self.sizes)]
        bins = self.bins
        if len(rows) == 1 and not self.consts and not self.head:
            # all blocks share one shift, block 0's among them, so it is 0
            hist = self._contract(coeffs, values, scaled, counts, bins)
            if self.labels > 1 or weights[0, 0] != 1:
                hist = weights.T * hist
            return hist if total is None else total + hist
        if total is None:
            total = np.zeros((self.labels, prod(self.sizes)), dtype=np.int64)
        ends = starts[1:] + [len(rows)]
        run = np.repeat(np.arange(len(starts)), np.subtract(ends, starts))
        per = max(1, _COUNT_ENTRIES // bins)  # distinct C rows at a time, and rows placed at a time
        for a in range(0, len(starts), per):
            b = min(a + per, len(starts))
            hist = self._contract(coeffs[a:b], values, scaled, counts, bins)
            for first in range(starts[a], ends[b - 1], per):
                last = min(first + per, ends[b - 1])
                self._place(total, hist, rows[first:last], weights[first:last], run[first:last] - a)
        return total


def _value_counts(funcs, grids=None, traced=False, lo=None, s=0):
    """The joint histogram of the value indices of funcs, or with traced, of
    Tr(funcs[0]) and the values of the others, flat, one row for each label
    of `_trace_levels` from lo (by default one row, lo = n; see
    `_BlockValues`).

    grids memoizes `_grid` for calls over one field; by default, one call.
    """
    return _BlockValues(funcs, {} if grids is None else grids, traced, funcs[0].n if lo is None else lo, s).counts()


def _trace_levels(g, lo, grids=None, s=0):
    """The histograms of Tr(g(x)) residues by label and by the index
    a = x_1 + x_2 q + ... + x_s q^(s-1) of the first s variables, an array
    of shape (labels, p, q^s).

    A point's level L is the index of its highest nonzero variable, 0 at
    the origin.  With variable i at digit i - 1 of the point index, its
    label is 0 when L <= lo, else 1 + (L - lo - 1) q^s + v, where
    v = x_(L-s+1) + ... + x_L q^(s-1) is the index of its s leading digits,
    which `sum_sequence` needs to place a rotation's seam at each n.  For
    s = 0 the labels are the levels lo..n, row 0 holding the q^lo points of
    level at most lo; at lo = n there is one row, over all of F_q^n.  A
    whole chunk or block whose index has at least s digits has one label,
    fixed by its index.  The generic kernel counts a as s more functions,
    x_s, ..., x_1, beside g; the F_2 kernel splits each popcount by a.
    """
    field = g.field
    if field.q == 2:
        ones = _trace_counts_f2(g, lo, s)
        return np.concatenate((_label_points(2, g.n, lo, s) - ones, ones), axis=1).reshape(len(ones), 2, -1)
    coords = [InstantiatedFunction(field, g.n, {frozenset([j]): field.one()}) for j in range(s, 0, -1)]
    counts = _value_counts([g] + coords, grids, traced=s > 0, lo=lo, s=s)
    if not s and field.r > 1:  # the residues of the values, which cost less than tracing each point
        residues = np.zeros((len(counts), field.p), dtype=np.int64)
        np.add.at(residues.T, _tables(field).trace_index, counts.T)
        counts = residues
    return counts.reshape(len(counts), field.p, -1)


def trace_counts(g, budget=DEFAULT_POINT_BUDGET, *, _grids=None):
    """Histogram of Tr(g(x)) residues over all points of F_q^n."""
    check_points(g.field.q, g.n, budget)
    if g.field.q == 2:  # the one row of `_trace_levels`, without its array
        one = int(_trace_counts_f2(g, g.n)[0, 0])
        return [(1 << g.n) - one, one]
    return _trace_levels(g, g.n, _grids)[0, :, 0].tolist()


def exp_sum(g, budget=DEFAULT_POINT_BUDGET, *, _grids=None):
    """The exact character sum of g over its field, as a cyclotomic integer."""
    counts = trace_counts(g, budget=budget, _grids=_grids)
    return build_root_counts(counts)


def values(g):
    """g's value index at its q^n points in point-index order (variable i at digit i - 1), by `_grid`; the caller bounds q^n."""
    return _grid(_tables(g.field), _terms(g), g.n, {})


def decorated_sums(base, decorations, budget=DEFAULT_POINT_BUDGET):
    """The character sums S(base + sum_j c_j decorations[j]) for every c in
    F_q^m, in product(range(q), repeat=m) order, as cyclotomic integers.

    The functions are admitted as `joint_counts([base] + decorations)`
    admits them, before any point is counted, and enumerated once, into
    the dense joint histogram h[t, v] of t = Tr(base) and the decoration
    values v.  Tr is additive, so the sums are the additive-character
    transform of h, taken one decoration axis at a time:
    out[t, c] = sum_v h[(t - Tr(c v)) mod p, v], one gather through the
    Tr(c v) table and one sum.  Every column of the result sums to
    q^n <= budget, so int64 stays exact, and the table holds p q^m bins,
    q^(m+1) <= budget.  Each gather takes at most _TRANSFORM_ENTRIES entries.
    """
    funcs, m = [base] + list(decorations), len(decorations)
    field = _joint_field(funcs, budget)
    p, q = field.p, field.q
    h = _value_counts(funcs, traced=True).reshape(p, -1)
    tables, t = _tables(field), np.arange(p)[:, None, None]
    per = max(1, _TRANSFORM_ENTRIES // (p * h.shape[1]))  # coefficients in a chunk of p * per * q^m
    for _ in range(m):
        # the leading value axis becomes a coefficient axis, moved to the back
        h = h.reshape(p, q, -1)
        # t - Tr(c v) at [t, c, v], for the coefficients c of one chunk
        chunks = ((t - tables.trace_index[tables.mul[c : c + per]]) % p for c in range(0, q, per))
        h = np.concatenate([h[chunk, np.arange(q)].sum(axis=2) for chunk in chunks], axis=1)
        h = h.transpose(0, 2, 1).reshape(p, -1)
    return list(map(build_unchecked, (h[: p - 1] - h[p - 1]).T.tolist()))


def weight(g, budget=DEFAULT_POINT_BUDGET):
    """Hamming weight of a Boolean function: (2^n - S(g)) / 2."""
    if g.field.q != 2:
        raise ValueError("weight is defined over F_2 only")
    s = exp_sum(g, budget=budget).as_integer()
    return ((1 << g.n) - s) // 2


def is_balanced(g, budget=DEFAULT_POINT_BUDGET):
    return exp_sum(g, budget=budget).is_zero()


def joint_counts(funcs, budget=DEFAULT_POINT_BUDGET):
    """Joint histogram of the field values of several functions on F_q^n.

    Returns an integer array of shape (q, ..., q), one axis per function in
    order.  All functions must share a field and variable count, and the
    q^len(funcs) bins count against the point budget like the points do.
    """
    q = _joint_field(funcs, budget).q
    return _value_counts(funcs).reshape((q,) * len(funcs))


def _joint_field(funcs, budget):
    """The field of funcs, once they share it and n, and their points and bins fit the budget."""
    if not funcs:
        raise ValueError("need at least one function")
    field, n = funcs[0].field, funcs[0].n
    if any(g.field != field or g.n != n for g in funcs):
        raise ValueError("functions must share a field and variable count")
    check_points(field.q, n, budget)
    check_bins(field.q, len(funcs), budget)
    return field


def sum_sequence(e, field, n_range, budget=DEFAULT_POINT_BUDGET):
    """Character sums of family e for every n in n_range (step 1), by enumeration.

    `funcalg.seam` writes f_n = f'_n + W(u, a) for n >= 2w - 2, where f' is
    e with every rotation replaced by its trapezoid, w the largest rotation
    width (0 without one), s = w - 1, a = (x_1, ..., x_s) and
    u = (x_(n-s+1), ..., x_n).  f'_n is f'_N on the points of level at most
    n, so those n of the range are read from one levelled enumeration at
    its top N (`_trace_levels`, labels from lo = max(start, 2s) - s): S_n
    sums the levels up to n - s, where u = 0 and W = 0, as they are, and
    moves the residues of each level n - d, d < s, by Tr W(u, a), with u
    the leading digits v of the label shifted down by d (`_seam_sums`).
    Without a rotation that is the sum of the levels up to n.

    The n below 2w - 2, where u and a overlap, are enumerated one by one.
    So is a whole rotation range whose seam table, p q^(2s) bins for each
    of the N - lo labelled levels, would cost more than the points of the
    lower n that one call at N saves, (q^N - q^start) / (q - 1), at
    `_SEAM_POINTS` of them an entry: among others every range whose
    levelled part has one value.  Over F_2 it is also kept past s = 6
    (`_SEAM_WORDS`).  Any range is refused before a point is counted, with
    the error of a per-n loop of `exp_sum`: a start below the family
    minimum or a scalar out of range first, then the first n over the
    budget.
    """
    if n_range.step != 1:
        raise ValueError("n_range must have step 1")
    lo = n_range.start
    if len(n_range) < 2:
        return Sequence(lo, tuple(exp_sum(instantiate(e, n, field), budget=budget) for n in n_range), "brute")
    top = n_range[-1]
    if field.q**top > budget:  # the loop stops at the first n over the budget
        top = next(n for n in n_range if field.q**n > budget)
    trapezoids, w, _ = seam(e)
    s = max(w - 1, 0)
    start, q, p = max(lo, 2 * s), field.q, field.p
    table, saved = (top - start + s) * p * q ** (2 * s), (q**top - q**start) // (q - 1)  # the points of start..top - 1
    levelled = start <= top and (not s or table * _SEAM_POINTS <= saved and (q > 2 or s < len(_SEAM_WORDS)))
    split = start if levelled else top + 1  # the first n of the levelled call
    # at the first n, as the loop: past the minimum e' raises what e does, a scalar out of range
    g = instantiate(e, lo, field) if lo < split or lo < e.min_n() else instantiate(trapezoids, top, field)
    check_points(q, top, budget)
    grids = {}  # `_grid` memo of this call, whose functions share one field
    values = [exp_sum(g if n == lo else instantiate(e, n, field), budget=budget, _grids=grids) for n in range(lo, split)]
    if levelled:
        counts = _trace_levels(g if lo == split else instantiate(trapezoids, top, field), start - s, grids, s)
        wrapped = seam(e, field)[2] if s else None
        values += map(build_root_counts, _seam_sums(counts, wrapped, s).tolist())
    return Sequence(lo, tuple(values), "brute")


def _seam_sums(counts, wrapped, s):
    """The residue counts of f_n = f'_n + W for each n from lo + s to N, a
    row each, from the histograms counts of f'_N by label from lo and a
    (`_trace_levels`) and the seam W (`sum_sequence`).

    Label 0 and the levels up to n - s hold the points where u is 0, so
    W(0, a) = 0 and they add as they are.  A point of level L = n - d,
    d < s, with leading digits v has u = v // q^d, as u is v moved up to
    the top s variables with zeros past L, so its residue t moves to
    t + Tr W(v // q^d, a).  For each d and residue r one gather takes, at
    every level, the entries (v, t, a) that move to r, and one sum adds
    them."""
    p, size = counts.shape[1:]
    totals = counts.sum(axis=2)
    if not s:
        return np.cumsum(totals, axis=0)
    levels, q = (len(counts) - 1) // size, wrapped.field.q
    keyed = counts[1:].reshape(levels, -1)  # [level, (v, t, a)]
    sums = np.cumsum(np.concatenate((totals[:1], totals[1:].reshape(levels, size, p).sum(axis=1))), axis=0)[: levels - s + 1]
    traces = _tables(wrapped.field).trace_index[values(wrapped)].reshape(size, size)[np.arange(size) // q ** np.arange(s)[:, None]]  # [d, v, a]
    t = (np.arange(p)[:, None, None] - traces[:, None]) % p  # [d, r, v, a]: the t that moves to r
    index = (np.arange(size)[:, None] * p + t) * size + np.arange(size)
    out = keyed.take(index.reshape(s, p, -1), axis=1).sum(axis=3)  # [level, d, r]
    at = np.arange(levels - s + 1)[:, None] + (s - 1 - np.arange(s))  # the level n - d of each n and d
    return sums + out[at, np.arange(s)].sum(axis=1)

