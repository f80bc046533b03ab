"""Ground-truth character sums by exhaustive enumeration.

The sum S(g) = sum over all x in F_q^n of zeta_p^(Tr(g(x))) is computed
exactly: points are enumerated in fixed-size blocks, function values are
reduced to trace residues through integer lookup tables, and the residue
histogram is converted to a cyclotomic integer at the end.  Everything is
integer arithmetic, so block partitioning and worker counts cannot change
the result.  Fields with q = 2 take a packed-bit fast path.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .cyclotomic import CycInt
from .limits import DEFAULT_POINT_BUDGET, ResourceLimitExceeded
from .recurrence import Sequence

_BLOCK_POINTS = 1 << 18

_table_cache = {}
_digit_cache = {}


def field_tables(field):
    """Cached (add, mul, trace) index tables of a field as int64 arrays."""
    tables = _table_cache.get(field)
    if tables is None:
        q = field.q
        elems = field.elements()
        add = np.zeros((q, q), dtype=np.int64)
        mul = np.zeros((q, q), dtype=np.int64)
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                add[i, j] = (a + b).index
                mul[i, j] = (a * b).index
        trace = np.array([a.trace() for a in elems], dtype=np.int64)
        tables = (add, mul, trace)
        _table_cache[field] = tables
    return tables


def _digit_block(q, m):
    """Digit rows for the first q^m point indices: shape (m, q^m), uint8."""
    key = (q, m)
    block = _digit_cache.get(key)
    if block is None:
        size = q**m
        block = np.empty((m, size), dtype=np.uint8)
        for j in range(m):
            pattern = np.repeat(np.arange(q, dtype=np.uint8), q**j)
            block[j] = np.tile(pattern, size // (q ** (j + 1)))
        _digit_cache[key] = block
    return block


def _terms_as_indices(g):
    return [(coeff.index, tuple(i - 1 for i in sorted(mono))) for mono, coeff in g.sorted_terms()]


def _value_block(terms, cols, mul, add, size):
    """Function value indices over a block of points."""
    val = np.zeros(size, dtype=np.int64)
    for c_idx, variables in terms:
        acc = cols[variables[0]].astype(np.int64)
        for v in variables[1:]:
            acc = mul[acc, cols[v]]
        if c_idx != 1:
            acc = mul[c_idx][acc]
        val = add[val, acc]
    return val


def _block_columns(field, n, m, block_index):
    lower = _digit_block(field.q, m)
    size = field.q**m
    cols = [lower[j] for j in range(m)]
    rest = block_index
    for _ in range(n - m):
        cols.append(np.full(size, rest % field.q, dtype=np.uint8))
        rest //= field.q
    return cols, size


def _enumerate_blocks(field, n):
    q = field.q
    m = n
    while q**m > _BLOCK_POINTS:
        m -= 1
    return m, q ** (n - m)


def _check_budget(field, n, budget):
    if field.q**n > budget:
        raise ResourceLimitExceeded(
            "enumeration of %d^%d points exceeds the budget of %d; "
            "consider the transfer or recurrence methods" % (field.q, n, budget)
        )


# ---------------------------------------------------------------------------
# packed-bit kernel for F_2

_WORD_PATTERNS = [
    sum(1 << i for i in range(64) if (i >> j) & 1) for j in range(6)
]

_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def _popcount(words):
    if hasattr(np, "bitwise_count"):
        return int(np.bitwise_count(words).sum())
    return int(_POPCOUNT8[words.view(np.uint8)].sum())


def _f2_counts_chunk(terms, n, chunk_exp, chunk_index):
    points = 1 << chunk_exp
    if chunk_exp < 6:
        nwords = 1
    else:
        nwords = points >> 6
    base_word = chunk_index * nwords

    def plane(j):
        if j < 6:
            return np.full(nwords, _WORD_PATTERNS[j], dtype=np.uint64)
        bit = ((np.arange(nwords, dtype=np.uint64) + base_word) >> np.uint64(j - 6)) & np.uint64(1)
        return np.where(bit == 1, np.uint64(0xFFFFFFFFFFFFFFFF), np.uint64(0))

    val = np.zeros(nwords, dtype=np.uint64)
    for _c, variables in terms:
        acc = plane(variables[0]).copy()
        for v in variables[1:]:
            acc &= plane(v)
        val ^= acc
    if chunk_exp < 6:
        val &= np.uint64((1 << points) - 1)
    ones = _popcount(val)
    return np.array([points - ones, ones], dtype=np.int64)


def _trace_counts_f2(g, workers):
    n = g.n
    terms = _terms_as_indices(g)
    chunk_exp = min(n, 22)
    nchunks = 1 << (n - chunk_exp)
    if workers <= 1 or nchunks == 1:
        total = np.zeros(2, dtype=np.int64)
        for b in range(nchunks):
            total += _f2_counts_chunk(terms, n, chunk_exp, b)
        return total
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(lambda b: _f2_counts_chunk(terms, n, chunk_exp, b), range(nchunks)))
    return np.sum(parts, axis=0)


# ---------------------------------------------------------------------------
# generic kernel

def _trace_counts_generic(g, workers):
    field = g.field
    n = g.n
    p = field.p
    add, mul, trace = field_tables(field)
    terms = _terms_as_indices(g)
    m, nblocks = _enumerate_blocks(field, n)

    def one_block(b):
        cols, size = _block_columns(field, n, m, b)
        val = _value_block(terms, cols, mul, add, size)
        return np.bincount(trace[val], minlength=p)

    if workers <= 1 or nblocks == 1:
        total = np.zeros(p, dtype=np.int64)
        for b in range(nblocks):
            total += one_block(b)
        return total
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(one_block, range(nblocks)))
    return np.sum(parts, axis=0)


def trace_counts(g, budget=DEFAULT_POINT_BUDGET, workers=1):
    """Histogram of Tr(g(x)) residues over all points of F_q^n."""
    _check_budget(g.field, g.n, budget)
    if g.field.q == 2:
        counts = _trace_counts_f2(g, workers)
    else:
        counts = _trace_counts_generic(g, workers)
    return [int(c) for c in counts]


def exp_sum(g, f=None, budget=DEFAULT_POINT_BUDGET, workers=1):
    """The exact character sum of g over its field, as a cyclotomic integer."""
    if f is not None and f != g.field:
        raise ValueError("function was instantiated over a different field")
    counts = trace_counts(g, budget=budget, workers=workers)
    return CycInt.from_root_counts(g.field.p, counts)


def weight(g, budget=DEFAULT_POINT_BUDGET, workers=1):
    """Hamming weight of a Boolean function: (2^n - S(g)) / 2."""
    if g.field.q != 2:
        raise ValueError("weight is defined over F_2 only")
    s = exp_sum(g, budget=budget, workers=workers).as_integer()
    return ((1 << g.n) - s) // 2


def is_balanced(g, budget=DEFAULT_POINT_BUDGET, workers=1):
    return exp_sum(g, budget=budget, workers=workers).is_zero()


def joint_counts(funcs, budget=DEFAULT_POINT_BUDGET, workers=1):
    """Joint histogram of the field values of several functions on F_q^n.

    Returns an integer array of shape (q, ..., q), one axis per function in
    order.  All functions must share a field and variable count, and the
    q^len(funcs) bins count against the point budget like the points do.
    """
    if not funcs:
        raise ValueError("need at least one function")
    field = funcs[0].field
    n = funcs[0].n
    for g in funcs:
        if g.field != field or g.n != n:
            raise ValueError("functions must share a field and variable count")
    _check_budget(field, n, budget)
    q = field.q
    bins = q ** len(funcs)
    if bins > budget:
        raise ResourceLimitExceeded(
            "%d^%d joint bins exceed the budget of %d" % (q, len(funcs), budget)
        )
    add, mul, _trace = field_tables(field)
    term_lists = [_terms_as_indices(g) for g in funcs]
    m, nblocks = _enumerate_blocks(field, n)

    def one_block(b):
        cols, size = _block_columns(field, n, m, b)
        combined = None
        for terms in term_lists:
            val = _value_block(terms, cols, mul, add, size)
            combined = val if combined is None else combined * q + val
        return np.bincount(combined, minlength=bins)

    if workers <= 1 or nblocks == 1:
        total = np.zeros(bins, dtype=np.int64)
        for b in range(nblocks):
            total += one_block(b)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            total = np.sum(list(pool.map(one_block, range(nblocks))), axis=0)
    return total.reshape((q,) * len(funcs))


def sum_sequence(
    e,
    field,
    n_range,
    method="brute",
    budget=DEFAULT_POINT_BUDGET,
    workers=1,
    poly=None,
    init=None,
):
    """Character sums of a family over a range of variable counts.

    method is one of "brute" (exhaustive enumeration), "transfer" (state
    system stepping) or "recurrence" (extension of supplied initial data by
    a supplied polynomial).
    """
    from .funcalg import instantiate

    if n_range.step != 1:
        raise ValueError("n_range must have step 1")
    start = n_range.start
    if method == "brute":
        values = []
        for n in n_range:
            g = instantiate(e, n, field)
            values.append(exp_sum(g, budget=budget, workers=workers))
        return Sequence(start, tuple(values), "brute")
    if method == "transfer":
        from . import transfer

        sys = transfer.system_for(e, field, budget=budget)
        if len(n_range) == 0:
            return Sequence(start, (), "transfer")
        if start < sys.n_min:
            raise ValueError(
                "transfer system for this family starts at n=%d" % sys.n_min
            )
        if start < e.min_n():
            raise ValueError("n=%d below the family minimum %d" % (start, e.min_n()))
        full = transfer.run(sys, n_range.stop - 1)
        lo = start - full.n_min
        return Sequence(start, full.values[lo : lo + len(n_range)], "transfer")
    if method == "recurrence":
        from .recurrence import extend

        if poly is None or init is None:
            raise ValueError("recurrence method needs poly= and init=")
        if len(n_range) == 0:
            return Sequence(start, (), "recurrence")
        full = extend(init, poly, n_range.stop - 1)
        if start < full.n_min:
            raise ValueError("initial data starts at n=%d" % full.n_min)
        lo = start - full.n_min
        return Sequence(start, full.values[lo : lo + len(n_range)], "recurrence")
    raise ValueError("unknown method %r" % (method,))
