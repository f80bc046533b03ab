"""Tests for the exhaustive character-sum oracle.

The reference is tests/reference.py, which evaluates a function at every
point at once by plain field arithmetic and shares no code with the
kernels; the kernels must agree with it bit for bit on every small case.
`test_values_are_the_function_at_every_point` checks the reference itself
against `funcalg.evaluate`, point by point.
"""

import ast
import tracemalloc
from functools import cache
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from gfrec import oracle
from gfrec.cyclotomic import CycInt
from gfrec.funcalg import (
    InstantiatedFunction,
    Sigma,
    consecutive_rotation,
    evaluate,
    instantiate,
    parse,
    seam,
    tau,
)
from gfrec.galois import is_prime, make_field, prime_power
from gfrec.limits import DEFAULT_POINT_BUDGET, ResourceLimitExceeded
from gfrec.oracle import (
    decorated_sums,
    exp_sum,
    is_balanced,
    joint_counts,
    sum_sequence,
    trace_counts,
    weight,
)
from gfrec.recurrence import Sequence
from gfrec.transfer import run_range, system_for


def _reference_counts(g):
    """The number of points at which Tr g takes each residue mod p."""
    return reference.histogram([g], traced=True)[0].tolist()


def _reference_joint(funcs):
    """The joint histogram of the values of funcs, one axis of q each."""
    return reference.histogram(funcs)[0].reshape((funcs[0].field.q,) * len(funcs))


def _reference_sum(e, n, field):
    return CycInt.from_root_counts(field.p, _reference_counts(instantiate(e, n, field)))


def test_the_reference_shares_no_code_with_the_kernels():
    # tests/reference.py checks oracle and transfer, so it must not import
    # them, or the linalg they build on: a fault there would be on both sides
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update("%s.%s" % (node.module, alias.name) for alias in node.names)
    assert "numpy" in imported
    kernels = ("gfrec.oracle", "gfrec.transfer", "gfrec.linalg")
    assert not [name for name in imported if name in kernels or name.startswith(tuple(k + "." for k in kernels))]


SMALL_CASES = [
    (tau(3), make_field(2), range(3, 7)),
    (consecutive_rotation(2), make_field(3), range(2, 5)),
    (Sigma(2), make_field(2, 2), range(2, 4)),
    (Sigma(3), make_field(3), range(3, 5)),
    (parse("R(2,3) + R(2)"), make_field(2), range(3, 7)),
    (parse("e1*T(2) + sigma(1)"), make_field(5), range(2, 4)),
]


@pytest.mark.parametrize("e,field,ns", SMALL_CASES)
def test_exp_sum_matches_naive_loop(e, field, ns):
    for n in ns:
        g = instantiate(e, n, field)
        assert exp_sum(g) == _reference_sum(e, n, field)


def test_trace_counts_partition_the_space():
    f4 = make_field(2, 2)
    g = instantiate(Sigma(2), 4, f4)
    counts = trace_counts(g)
    assert len(counts) == 2
    assert sum(counts) == 4 ** 4
    assert all(c >= 0 for c in counts)
    assert counts == _reference_counts(g)


FIELDS = [make_field(p, r) for p, r in ((2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2))]


def _function(field, n):
    """Random functions on F_q^n: up to six terms of degree 0-4, any coefficients."""
    monomials = st.frozensets(st.integers(1, n), max_size=min(n, 4)) if n else st.just(frozenset())
    coefficients = st.integers(0, field.q - 1).map(field.from_index)
    terms = st.dictionaries(monomials, coefficients, max_size=6)
    return terms.map(lambda t: InstantiatedFunction(field, n, t))


@st.composite
def _functions(draw, count):
    """count random functions on one F_q^n."""
    field = draw(st.sampled_from(FIELDS))
    top = {2: 10, 3: 5, 4: 4, 5: 3, 8: 3, 9: 2}[field.q]
    n = draw(st.integers(0, top) | st.just(top))  # the largest n has the most blocks
    return [draw(_function(field, n)) for _ in range(count)]


@settings(max_examples=150, deadline=None)
@given(
    funcs=st.integers(1, 3).flatmap(_functions),
    block_points=st.sampled_from([1, 2, 5, 30, 1 << 18]),
    chunk_bits=st.sampled_from([6, 7, 8, 22]),
)
def test_kernels_match_the_naive_loop(funcs, block_points, chunk_bits):
    # small blocks and chunks force many of them, and all variables high
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_BLOCK_POINTS", block_points)
        mp.setattr(oracle, "_CHUNK_BITS", chunk_bits)
        assert trace_counts(funcs[0]) == _reference_counts(funcs[0])
        joint = joint_counts(funcs)
    assert joint.tolist() == _reference_joint(funcs).tolist()


def test_popcount_fallback_for_numpy_before_2(monkeypatch):
    f2 = make_field(2)
    cases = [
        instantiate(parse(text), n, f2)
        for text, n in (("R(2,3)", 10), ("tau(5)", 24), ("e1*T(2) + sigma(1)", 3))
    ]
    ranges = [(parse(text), range(lo, hi + 1)) for text, lo, hi in (("tau(5)", 5, 24), ("sigma(3)", 3, 14), ("T(2,4) + T(3)", 4, 23))]
    fast = [trace_counts(g) for g in cases]
    fast_ranges = [sum_sequence(e, f2, ns) for e, ns in ranges]
    monkeypatch.setattr(oracle, "_bitwise_count", None)
    assert [trace_counts(g) for g in cases] == fast
    assert fast[0] == _reference_counts(cases[0])
    assert fast[2] == _reference_counts(cases[2])
    # levelled ranges sum the popcounts over several runs of words (reduceat)
    assert [sum_sequence(e, f2, ns) for e, ns in ranges] == fast_ranges


def test_bit_tables_are_their_bit_by_bit_definitions():
    low_words = {(): (1 << 64) - 1}
    for v in range(1, 7):
        pattern = sum(1 << i for i in range(64) if i >> v - 1 & 1)
        low_words.update({low + (v,): word & pattern for low, word in list(low_words.items())})
    assert oracle._LOW_WORDS == low_words and list(oracle._LOW_WORDS) == list(low_words)
    tables = [
        (oracle._LOW_BITS, np.array([(1 << r) - 1 for r in range(64)], dtype=np.uint64)),
        (oracle._POPCOUNT8, np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)),
    ] + [
        (words, np.array([((1 << 64) - 1) // ((1 << (1 << s)) - 1) << a for a in range(1 << s)], dtype=np.uint64))
        for s, words in enumerate(oracle._SEAM_WORDS)
    ]
    assert len(oracle._SEAM_WORDS) == 7
    for table, loop in tables:
        assert table.dtype == loop.dtype and table.tolist() == loop.tolist()


@st.composite
def _chunked(draw):
    """(g, chunk bits) over F_2 past one chunk.  g has random terms of degree
    0-4, terms in the top variables only, which are constant on a chunk, and
    products of a low and a top monomial, which key it; small chunks make
    keys repeat, with either parity.  Up to 40 such products make more
    cofactor groups than chunk bits."""
    f2 = make_field(2)
    chunk_bits = draw(st.integers(6, 8))
    n = draw(st.integers(chunk_bits + 1, 10))
    top = draw(st.integers(n // 2 + 1, n))  # variables top..n are the high ones

    def monomials(lo, hi, size):
        return st.frozensets(st.integers(lo, hi), min_size=1, max_size=size)

    terms = set(draw(st.lists(st.frozensets(st.integers(1, n), max_size=4), max_size=6)))
    terms.update(draw(st.lists(monomials(top, n, 3), max_size=4)))
    crossed = st.tuples(monomials(1, top - 1, 2), monomials(top, n, 2))
    crossed = draw(st.lists(crossed, max_size=draw(st.sampled_from([5, 40]))))
    terms.update(low | high for low, high in crossed)
    return InstantiatedFunction(f2, n, dict.fromkeys(terms, f2.one())), chunk_bits


@settings(max_examples=120, deadline=None)
@given(_chunked())
def test_chunk_keys_match_the_naive_loop(case):
    g, chunk_bits = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_CHUNK_BITS", chunk_bits)
        assert trace_counts(g) == _reference_counts(g)


def _keyed_call(g):
    """(chunk bits, groups, on, weights) of g's call of the F_2 kernel, which
    must count chunks by code; see `oracle._trace_counts_f2`."""
    terms = [(tuple(sorted(mono)), 1) for mono in g.terms]
    bits = oracle._chunk_bits(terms, g.n, g.n, 0)
    assert bits < g.n
    groups = oracle._split(terms, bits + 1)[1]
    return (bits, groups) + oracle._chunk_codes(groups, g.n - bits, g.n - bits)


def _keys(groups, on):
    """The distinct rows of on without the bit of the constant-cofactor group."""
    keyed = [j for j, (low, _highs) in enumerate(groups) if low[-1][0]]
    return {tuple(row) for row in on[:, keyed].tolist()}


def test_symmetric_functions_past_one_chunk_are_keyed(monkeypatch):
    # sigma(k) in chunks of at most 2^6 points: whatever the chunk bits, its
    # high monomials of each degree d share the low cofactor sigma(k - d),
    # so there are at most k - 1 keyed groups and one constant group
    monkeypatch.setattr(oracle, "_CHUNK_BITS", 6)
    f2 = make_field(2)
    for k in (2, 3):
        for n in range(8, 11):
            g = instantiate(Sigma(k), n, f2)
            bits, groups, on, weights = _keyed_call(g)
            assert len(groups) <= k
            assert len(_keys(groups, on)) <= 1 << (k - 1)
            assert weights.sum() == 1 << (n - bits)
            assert trace_counts(g) == _reference_counts(g)


def test_chunk_keys_repeat_and_flip_parity():
    g = instantiate(parse("R(2,3)"), 26, make_field(2))
    bits, groups, on, weights = _keyed_call(g)
    assert weights.sum() == 1 << (26 - bits)
    assert len(_keys(groups, on)) < len(on) < 1 << (26 - bits)  # keys repeat, and some with both parities


@pytest.mark.parametrize("groups", [3, 9, 70])
def test_chunk_codes_count_any_number_of_groups(groups):
    # groups of random high monomials of 7 chunk bits: 3 fit bins, 9 are
    # more than the chunk bits and are sorted, 70 pass 64 bits; each chunk
    # past the head counts in the row of its bit length less skip, at least
    # 0, and at skip = 7 every chunk is in row 0
    rng = np.random.default_rng(groups)
    highs = [tuple(np.flatnonzero(rng.integers(0, 2, 7)).tolist()) for _ in range(3 * groups)]
    highs = sorted(set(h for h in highs if h))[:groups]
    assert len(highs) == groups
    split = [([((j + 1,), 1)], [(h, 1)]) for j, h in enumerate(highs)]
    for skip, s, head in ((7, 0, 0), (3, 0, 0), (0, 0, 0), (-2, 0, 0), (-2, 0, 1), (2, 2, 2), (-1, 3, 4)):
        # with s leading bits, a chunk c past the head with bit length d
        # has the label 1 + (d - skip - 1) 2^s + (c >> d - s), or 0 for
        # d <= skip
        want = {}
        for chunk in range(head, 1 << 7):
            code = tuple(int(all(chunk >> v & 1 for v in h)) for h in highs)
            d = chunk.bit_length()
            label = 0 if d <= skip else 1 + (d - skip - 1 << s) + (chunk >> d - s)
            want.setdefault(code, [0] * (1 + (7 - skip << s)))[label] += 1
        on, weights = oracle._chunk_codes(split, 7, skip, s, head)
        assert dict(zip(map(tuple, on.tolist()), weights.tolist())) == want


@pytest.mark.parametrize("text", ["R(2,3)", "tau(5)", "R(2,3) + R(2)", "sigma(2)", "sigma(3)"])
def test_brute_past_one_chunk_matches_the_transfer_path(text):
    f2, e = make_field(2), parse(text)
    for n in range(23, 27):
        _keyed_call(instantiate(e, n, f2))
    brute = sum_sequence(e, f2, range(23, 27))
    assert brute.values == run_range(system_for(e, f2), e, range(23, 27)).values


def _plus(g, decorations, c):
    """g + sum_j c_j decorations[j], for field element indices c."""
    terms = dict(g.terms)
    for d, index in zip(decorations, c):
        for mono, coeff in d.terms.items():
            terms[mono] = terms.get(mono, g.field.zero()) + coeff * g.field.from_index(index)
    return InstantiatedFunction(g.field, g.n, terms)


@st.composite
def _decorated(draw):
    """A random base on F_q^n and m = 0..3 random decoration monomials."""
    field = draw(st.sampled_from(FIELDS))
    top = {2: 12, 3: 7, 4: 5, 5: 4, 8: 4, 9: 3}[field.q]
    n = draw(st.integers(1, top) | st.just(top))
    base = draw(_function(field, n))
    monomials = st.frozensets(st.integers(1, n), max_size=min(n, 3))
    decorations = [
        InstantiatedFunction(field, n, {mono: field.one()})
        for mono in draw(st.lists(monomials, max_size=3))
    ]
    return base, decorations


@settings(max_examples=60, deadline=None)
@given(case=_decorated(), block_points=st.sampled_from([1, 5, 30]))
def test_decorated_sums_are_the_per_coefficient_sums(case, block_points):
    # small blocks make every q^n span several of them
    base, decorations = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_BLOCK_POINTS", block_points)
        got = decorated_sums(base, decorations)
    q = base.field.q
    want = [exp_sum(_plus(base, decorations, c)) for c in product(range(q), repeat=len(decorations))]
    assert got == want


def _slow_decorated(field, joint):
    """S(g_0 + sum_j c_j g_j) for every c, from the joint histogram of the g_j."""
    add, mul, trace = _reference_tables(field)
    cells = [(cell, int(joint[cell])) for cell in zip(*np.nonzero(joint))]
    sums = []
    for c in product(range(field.q), repeat=joint.ndim - 1):
        counts = [0] * field.p
        for cell, count in cells:
            value = cell[0]
            for cj, v in zip(c, cell[1:]):
                value = add[value][mul[cj][v]]
            counts[trace[value]] += count
        sums.append(CycInt.from_root_counts(field.p, counts))
    return sums


@st.composite
def _valued(draw):
    """A random function and its field, over F_2..F_9 or, on the narrow
    tables of a field with q^2 > 4096, F_67 and F_2^12, at n <= 2 and 1."""
    field = draw(st.sampled_from(FIELDS + [make_field(67), make_field(2, 12)]))
    top = {2: 8, 3: 5, 4: 4, 5: 3, 8: 3, 9: 3, 67: 2, 4096: 1}[field.q]
    return draw(_function(field, draw(st.integers(0, top))))


def _label(x, q, lo, s):
    """The label in `reference.histogram` of the point whose coordinates
    x_1, ..., x_n have the indices x."""
    level = max([i + 1 for i, c in enumerate(x) if c], default=0)
    if level <= lo:
        return 0
    return 1 + (level - lo - 1) * q**s + sum(x[level - s + j] * q**j for j in range(s))


@settings(max_examples=80, deadline=None)
@given(g=_valued(), leaf_points=st.sampled_from([1, 4, 1 << 10]))
def test_values_are_the_function_at_every_point(g, leaf_points):
    # a small leaf makes `_grid` split most grids into half grids; the
    # point index has variable i at digit i - 1, so the first variable
    # changes fastest, as in the reversed tuples of product.  The anchor of
    # tests/reference.py: its values, and at n <= 4 its labelled histograms
    # of (g, g) or (Tr g, g), point by point (not over F_2^12, whose 4096
    # traces by `FieldElement.trace` take seconds)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_LEAF_POINTS", leaf_points)
        got = oracle.values(g)
    field, n, q = g.field, g.n, g.field.q
    points = [pt[::-1] for pt in product(field.elements(), repeat=n)]
    at = [evaluate(g, list(pt)) for pt in points]
    assert got.tolist() == reference.values(g).tolist() == [v.index for v in at]
    if n > 4 or q == 4096:
        return
    index = np.array([v.index for v in at], dtype=np.int64)
    trace = np.array([x.trace() for x in field.elements()], dtype=np.int64)
    coordinates = [[x.index for x in pt] for pt in points]
    for s in range(min(3, n // 2) + 1):
        for lo in range(s, n + 1):
            label = [_label(x, q, lo, s) for x in coordinates]
            for traced in (False, True):
                want = np.zeros((1 + (n - lo) * q**s, (field.p if traced else q) * q), dtype=np.int64)
                np.add.at(want, (label, (trace[index] if traced else index) * q + index), 1)
                assert reference.histogram([g, g], traced, lo, s).tolist() == want.tolist()


@st.composite
def _structured(draw, field, n):
    """Sums of nonzero multiples of sigma(k), tau(k), consecutive rotations and
    single monomials (some only in the top variables), plus maybe a constant."""
    terms = {}
    scalars = st.integers(1, field.q - 1).map(field.from_index)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("sigma", "tau", "rotation", "monomial", "top")))
        if kind in ("monomial", "top") or n < 2:
            low = 1 if kind == "monomial" else (n + 1) // 2
            part = {draw(st.frozensets(st.integers(low, n), min_size=1, max_size=4)): field.one()}
        else:
            k = draw(st.integers(1 if kind == "sigma" else 2, min(n, 4)))
            family = {"sigma": Sigma, "tau": tau, "rotation": consecutive_rotation}[kind]
            part = instantiate(family(k), n, field).terms
        c = draw(scalars)
        for mono, coeff in part.items():
            terms[mono] = terms.get(mono, field.zero()) + c * coeff
    if draw(st.booleans()):
        terms[frozenset()] = draw(scalars)
    return InstantiatedFunction(field, n, terms)


@st.composite
def _split_cases(draw):
    """1..3 structured functions on one F_q^n."""
    field = draw(st.sampled_from(FIELDS))
    top = {2: 8, 3: 5, 4: 4, 5: 3, 8: 2, 9: 2}[field.q]
    n = draw(st.integers(1, top) | st.just(top))
    return [draw(_structured(field, n)) for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=100, deadline=None)
@given(
    funcs=_split_cases(),
    block_points=st.sampled_from([1, 5, 30, 200]),
    leaf_points=st.sampled_from([1, 4, 30]),
)
def test_cofactor_split_matches_the_naive_loop(funcs, block_points, leaf_points):
    # small blocks put most variables in the high digits, and a small leaf
    # makes `_grid` split most grids into parts
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_BLOCK_POINTS", block_points)
        mp.setattr(oracle, "_LEAF_POINTS", leaf_points)
        counts = trace_counts(funcs[0])
        joint = joint_counts(funcs)
        sums = decorated_sums(funcs[0], funcs[1:])
    field = funcs[0].field
    want = _reference_joint(funcs)
    assert joint.tolist() == want.tolist()
    residues = [0] * field.p
    for t, h in zip(_reference_tables(field)[2], want.reshape(field.q, -1).sum(axis=1)):
        residues[t] += int(h)
    assert counts == residues
    assert sums == _slow_decorated(field, want)


@pytest.mark.parametrize("block_points,leaf_points", [(1 << 15, 1 << 10), (1 << 17, 1)])
def test_cofactor_split_over_a_field_beyond_256_elements(block_points, leaf_points):
    # over F_257 a q x q table per coefficient outweighs a block of q points;
    # the second case is one block
    f = make_field(257)
    funcs = [instantiate(parse(text), 2, f) for text in ("sigma(2) + e3*sigma(1)", "tau(2) + e5*T(2)")]
    funcs[0].terms[frozenset()] = f.from_index(200)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_BLOCK_POINTS", block_points)
        mp.setattr(oracle, "_LEAF_POINTS", leaf_points)
        counts = trace_counts(funcs[0])
        joint = joint_counts(funcs)
        sums = decorated_sums(funcs[0], funcs[1:])
    values = [reference.values(g) for g in funcs]
    assert counts == np.bincount(values[0], minlength=257).tolist()
    assert joint.ravel().tolist() == np.bincount(values[0] * 257 + values[1], minlength=257**2).tolist()
    want = [
        CycInt.from_root_counts(257, np.bincount((values[0] + c * values[1]) % 257, minlength=257).tolist())
        for c in range(257)
    ]
    assert sums == want


@st.composite
def _shared_block_cases(draw):
    """1..3 functions on one F_q^n, and the block size q^(n - h) that makes the
    top h variables high.  Each adds to random terms some pure-high terms,
    which shift a block's values, and some products of a low and a high
    monomial, so that many blocks share their coefficients.  Some have no
    low part: pure-high terms and maybe a constant, one value a block."""
    field = draw(st.sampled_from(FIELDS))
    top = {2: 8, 3: 5, 4: 4, 5: 3, 8: 3, 9: 3}[field.q]
    n = draw(st.integers(2, top))
    h = draw(st.integers(1, n - 1))
    low, high = st.integers(1, n - h), st.integers(n - h + 1, n)
    scalars = st.integers(1, field.q - 1).map(field.from_index)
    funcs = []
    for _ in range(draw(st.integers(1, 3))):
        low_part = draw(st.booleans())
        terms = dict(draw(_function(field, n)).terms) if low_part else {}
        if not low_part and draw(st.booleans()):
            terms[frozenset()] = draw(scalars)
        for _ in range(draw(st.integers(1, 3))):
            terms[draw(st.frozensets(high, min_size=1, max_size=3))] = draw(scalars)
        for _ in range(draw(st.integers(0, 3)) if low_part else 0):
            mono = draw(st.frozensets(low, min_size=1, max_size=2)) | draw(st.frozensets(high, min_size=1, max_size=2))
            terms[mono] = draw(scalars)
        funcs.append(InstantiatedFunction(field, n, terms))
    return funcs, field.q ** (n - h)


def _force_keys(mp, keyed):
    """Make `_BlockValues` count the low points by key wherever there are
    fewer possible keys than points (keyed), or never."""
    plan = oracle._BlockValues._plan

    def forced(self, splits, m, runs):
        got = plan(self, splits, m, runs)  # its last entry is the keys
        columns, points = got[2], self.q**m
        keys = self.q ** len(columns)
        return got[:-1] + (keys if keyed and columns and keys < points else points,)

    mp.setattr(oracle._BlockValues, "_plan", forced)


def _both_regimes(funcs, **patches):
    """(trace_counts of funcs[0], joint_counts, decorated_sums of funcs[0]
    with the others) with the module constants patched, in both key regimes;
    the two must agree."""
    got = []
    for keyed in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            for name, value in patches.items():
                mp.setattr(oracle, name, value)
            _force_keys(mp, keyed)
            got.append((trace_counts(funcs[0]), joint_counts(funcs).tolist(), decorated_sums(funcs[0], funcs[1:])))
    assert got[0] == got[1]
    return got[0]


@settings(max_examples=60, deadline=None)
@given(
    case=_shared_block_cases(),
    leaf_points=st.sampled_from([1, 30, 1 << 10]),
    entries=st.sampled_from([1, 3, 40, 1 << 16]),
)
def test_blocks_that_share_coefficients_match_the_naive_loop(case, leaf_points, entries):
    # a small entry cap makes the counting chunks cut the rows and the keys
    funcs, block_points = case
    counts, joint, sums = _both_regimes(
        funcs, _BLOCK_POINTS=block_points, _LEAF_POINTS=leaf_points, _COUNT_ENTRIES=entries
    )
    field = funcs[0].field
    want = _reference_joint(funcs)
    assert joint == want.tolist()
    assert counts == _reference_counts(funcs[0])
    assert sums == _slow_decorated(field, want)


def _record_histograms(monkeypatch):
    """The list to which `_BlockValues` adds (C row, bins, points) for every
    histogram of a C row that its contraction forms."""
    built = []
    contract = oracle._BlockValues._contract

    def spy(self, coeffs, values, scaled, counts, bins):
        hist = contract(self, coeffs, values, scaled, counts, bins)
        built.extend((tuple(row), hist.shape[1], self.points) for row in coeffs.tolist())
        return hist

    monkeypatch.setattr(oracle._BlockValues, "_contract", spy)
    return built


def test_each_distinct_coefficient_row_is_counted_once(monkeypatch):
    # tau(3) over F_9 at n = 7 has 6561 blocks of 9^3 points, on which the
    # coefficients (x4, x4 x5) take 73 distinct values; x4 x5 x6 + x5 x6 x7
    # shifts them
    f9 = make_field(3, 2)
    g = instantiate(tau(3), 7, f9)
    built = _record_histograms(monkeypatch)
    got = exp_sum(g)
    assert len(built) == len(set(built)) == 73
    assert got == run_range(system_for(tau(3), f9), tau(3), range(7, 8)).values[0]


@st.composite
def _forced_splits(draw):
    """Functions from `_shared_block_cases` or `_functions`, and a split m in
    0..n; maybe one more function with no low part at m, its terms in the
    variables past m, maybe with a constant."""
    funcs = draw(_shared_block_cases().map(lambda case: case[0]) | st.integers(1, 3).flatmap(_functions))
    field, n = funcs[0].field, funcs[0].n
    m = draw(st.integers(0, n))
    if len(funcs) < 3 and draw(st.booleans()):
        high = st.frozensets(st.integers(m + 1, n), min_size=1, max_size=3) if m < n else st.just(frozenset())
        scalars = st.integers(0, field.q - 1).map(field.from_index)
        funcs.append(InstantiatedFunction(field, n, draw(st.dictionaries(high | st.just(frozenset()), scalars, max_size=3))))
    return funcs, m


@settings(max_examples=80, deadline=None)
@given(case=_forced_splits(), leaf_points=st.sampled_from([1, 30, 1 << 10]), entries=st.sampled_from([1, 3, 40, 1 << 16]))
def test_every_split_matches_the_naive_loop(case, leaf_points, entries):
    # whatever m the chooser could pick, the counts are the same; a small
    # entry cap makes the counting chunks cut the rows and the keys
    funcs, m = case

    def forced(self, terms, n, grids):
        return (m,) + self._layout(terms, n, m, grids)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle._BlockValues, "_choose", forced)
        counts, joint, sums = _both_regimes(funcs, _LEAF_POINTS=leaf_points, _COUNT_ENTRIES=entries)
    field = funcs[0].field
    want = _reference_joint(funcs)
    assert joint == want.tolist()
    assert counts == _reference_counts(funcs[0])
    assert sums == _slow_decorated(field, want)


@settings(max_examples=60, deadline=None)
@given(case=_forced_splits(), traced=st.booleans(), data=st.data())
def test_levelled_counts_match_the_naive_loop(case, traced, data):
    # every split m against every range start lo and s leading digits: the
    # head, the blocks whose index has fewer than s digits (block 0 for
    # s <= 1), is counted by its points' labels when lo is below it, with
    # functions that have no low part and a traced first axis
    funcs, m = case
    n = funcs[0].n
    s = data.draw(st.integers(0, min(3, n // 2)))
    lo = data.draw(st.integers(s, n))

    def forced(self, terms, n, grids):
        return (m,) + self._layout(terms, n, m, grids)

    want = reference.histogram(funcs, traced, lo, s).tolist()
    for keyed in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle._BlockValues, "_choose", forced)
            _force_keys(mp, keyed)
            assert oracle._value_counts(funcs, traced=traced, lo=lo, s=s).tolist() == want


def test_one_shifted_row_past_the_head_keeps_its_shift(monkeypatch):
    # x_6 + x_7 + x_8 + ... + x_6 x_7 x_8 over F_2 is 1 on every block but
    # block 0, so with block 0 counted apart every other block has one row,
    # and its shift must still move its bins
    f2 = make_field(2)
    terms = {frozenset([1, 2]): f2.one()}
    terms.update({frozenset(c): f2.one() for k in (1, 2, 3) for c in combinations((6, 7, 8), k)})
    g = InstantiatedFunction(f2, 8, terms)
    monkeypatch.setattr(oracle._BlockValues, "_choose", lambda self, terms, n, grids: (5,) + self._layout(terms, n, 5, grids))
    assert oracle._value_counts([g], lo=0).tolist() == reference.histogram([g], lo=0).tolist()


@pytest.mark.parametrize("n", [10, 11])
@pytest.mark.parametrize("linear", [False, True])
@pytest.mark.parametrize("below", [0, 3])
def test_one_row_of_many_blocks_is_weighted_by_its_blocks(n, linear, below):
    # x1 x2 (+ 2 x3) over F_3 has no high variable, so its 243 blocks share
    # one row with no shift and no head: `counts` contracts that row once and
    # weights it by its blocks of each label, plain and from lo = n - 3
    f3 = make_field(3)
    terms = {frozenset([1, 2]): f3.one()}
    if linear:
        terms[frozenset([3])] = f3.from_index(2)
    g = InstantiatedFunction(f3, n, terms)
    lo = n - below
    block = oracle._BlockValues([g], {}, False, lo, 0)
    assert block.m < n and len(block.rows) == 1 and not block.head and not block.consts
    assert block.weights.sum() == 243
    assert block.counts().tolist() == reference.histogram([g], lo=lo).tolist()


def _coordinates(field, n, s):
    """x_s, ..., x_1 on F_q^n, whose joint values index a = x_1 + x_2 q + ... + x_s q^(s-1)."""
    return [InstantiatedFunction(field, n, {frozenset([j]): field.one()}) for j in range(s, 0, -1)]


@settings(max_examples=120, deadline=None)
@given(case=_chunked(), data=st.data())
def test_f2_labels_match_the_naive_loop(case, data):
    # at every chunk size b: chunks whose index has at least s bits have one
    # label; the head chunks, and the one cube at b = n, are split into the
    # runs of their labels and by a through the seam words
    g, _chunk_bits = case
    s = data.draw(st.integers(0, 4))
    lo = data.draw(st.integers(s, g.n))
    bits = data.draw(st.integers(max(s, 1), g.n))  # a chunk holds a, as b >= n // 2 >= s in a seam call
    want = reference.histogram([g] + _coordinates(g.field, g.n, s), True, lo, s).reshape(-1, 2, 1 << s)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_chunk_bits", lambda *_args: bits)
        assert oracle._trace_levels(g, lo, s=s).tolist() == want.tolist()


def _record_splits(monkeypatch):
    """(tried, laid): the lists to which `_BlockValues` adds (q, n, m) for
    every split it tries and for every full layout it builds."""
    tried, laid = [], []
    try_, layout = oracle._BlockValues._try, oracle._BlockValues._layout

    def spy_try(self, terms, n, m, grids):
        tried.append((self.q, n, m))
        return try_(self, terms, n, m, grids)

    def spy_layout(self, terms, n, m, grids, tried=None):
        laid.append((self.q, n, m))
        return layout(self, terms, n, m, grids, tried)

    monkeypatch.setattr(oracle._BlockValues, "_try", spy_try)
    monkeypatch.setattr(oracle._BlockValues, "_layout", spy_layout)
    return tried, laid


def _top(q, n, block_points):
    """The largest m <= n with q^m <= block_points (0 at least)."""
    return max(k for k in range(n + 1) if q**k <= block_points or k == 0)


@pytest.mark.parametrize("block_points", [30, 1 << 15])
@pytest.mark.parametrize("greedy", [False, True])
def test_the_chooser_keeps_blocks_under_the_cap(monkeypatch, block_points, greedy):
    # every try and the one layout lie between min(top, n // 2) and top, the
    # first try at n for a call that fits in one block, else at
    # min(top, (n + 1) // 2), or at top for a call with a term spanning more
    # than half its variables; greedy: a model in which only the points of
    # the low-digit grids cost anything, so every smaller m looks cheaper and
    # the search runs to its floor
    monkeypatch.setattr(oracle, "_BLOCK_POINTS", block_points)
    if greedy:
        for name in ("_GATHER_NS", "_BATCH_NS", "_ROW_NS", "_KEY_NS", "_KEYS_NS", "_BIN_NS", "_PAIR_NS", "_BLOCKS_NS", "_BLOCK_NS",
                     "_TRY_NS", "_HIGH_TERM_NS"):
            monkeypatch.setattr(oracle, name, 0)
    tried, laid = _record_splits(monkeypatch)
    cases = [("tau(4)", 3, 13), ("sigma(3)", 3, 11), ("tau(3)", 8, 7), ("R(2,3) + R(2)", 5, 7), ("tau(3)", 9, 3), ("sigma(2)", 257, 2)]
    for text, q, n in cases:
        field = make_field(*prime_power(q))
        g = instantiate(parse(text), n, field)
        assert joint_counts([g]).sum() == q**n
        top = _top(q, n, block_points)
        wide = any(len(mono) > 1 and 2 * (max(mono) - min(mono)) > n for mono in g.terms)
        ms = [m for q_, n_, m in tried if (q_, n_) == (q, n)]
        chosen = [m for q_, n_, m in laid if (q_, n_) == (q, n)]
        assert ms and ms[0] in ({n} if top == n else {min(top, (n + 1) // 2), top} if wide else {min(top, (n + 1) // 2)})
        assert len(set(ms)) == len(ms) and min(top, n // 2) <= min(ms) and max(ms) <= top
        assert len(chosen) == 1 and chosen[0] in ms
        if greedy:
            assert chosen[0] == min(top, n // 2)


def test_each_generic_call_lays_out_its_blocks_once(monkeypatch):
    # the nine generic calls of the benchmark's enumerate pass, and two calls
    # whose rows need the search's counts (a rotation gives most blocks
    # their own row): each builds its full layout once, at an m with blocks
    # of at most _BLOCK_POINTS points and m >= min(top, n // 2)
    tried, laid = _record_splits(monkeypatch)
    calls = []
    init = oracle._BlockValues.__init__

    def spy(self, funcs, grids, traced, lo, s):
        laid_before = len(laid)
        init(self, funcs, grids, traced, lo, s)
        calls.append((self.q, self.n, self.m, len(laid) - laid_before))

    monkeypatch.setattr(oracle._BlockValues, "__init__", spy)
    ranges = [("tau(4)", 3, 4, 13), ("sigma(3)", 3, 3, 11), ("R(2,3)", 3, 3, 12), ("tau(3)", 5, 3, 9),
              ("tau(3)", 4, 3, 10), ("tau(3)", 8, 3, 7), ("tau(3)", 9, 3, 7)]
    for text, q, lo, hi in ranges:
        sum_sequence(parse(text), make_field(*prime_power(q)), range(lo, hi + 1))
    f3 = make_field(3)
    joint_counts([instantiate(tau(k), 12, f3) for k in (2, 3, 4)])
    assert len(calls) == 9
    exp_sum(instantiate(parse("R(2,4)"), 9, make_field(2, 2)))
    exp_sum(instantiate(parse("R(2,3)"), 6, make_field(3, 2)))
    assert len(calls) == 11
    for q, n, m, layouts in calls:
        top = _top(q, n, oracle._BLOCK_POINTS)
        assert layouts == 1 and q**m <= oracle._BLOCK_POINTS and min(top, n // 2) <= m <= top
    assert len(laid) == 11 and len(tried) <= 2 * len(calls)


def test_block_codes_order_the_rows_past_int64():
    # five columns of digits below 2^20 would need codes past 2^62: they are
    # ranked on the way, so equal codes are still equal rows and the codes
    # still sort the rows as lexsort does; `_distinct` counts them by its sort
    rng = np.random.default_rng(7)
    base, first = 1 << 20, 7
    columns = [rng.integers(0, 3, 500) * (base // 3) for _ in range(5)]
    code, span = oracle._codes(columns, base, first, np.zeros(500 - first, dtype=np.int64), 1)
    rows = np.stack(columns, axis=1)[first:]
    assert span < 1 << 62 and code.max() < span
    assert (np.diff(code[np.lexsort(rows.T[::-1])]) >= 0).all()
    assert oracle._distinct(code, span) == len(set(code.tolist())) == len({tuple(r) for r in rows.tolist()})


def test_the_chooser_balances_tau4_over_f3(monkeypatch):
    # at the cap, 3^4 blocks of 3^9 points; the coefficient rows take 15
    # distinct values at every split down to n // 2, so smaller blocks cost less
    f3 = make_field(3)
    want = run_range(system_for(tau(4), f3), tau(4), range(13, 14)).values[0]
    built = _record_histograms(monkeypatch)
    got = exp_sum(instantiate(tau(4), 13, f3))
    assert 0 < len(built) <= 15
    assert max(points for _row, _bins, points in built) <= 3**7
    assert got == want


def test_decorated_sums_count_the_trace_of_the_base(monkeypatch):
    # over F_64 a block's histogram holds Tr(base), 2 bins, times the 64
    # decoration values; the 64 values of base would make it q / p = 32
    # times larger, and its cost grows with its size on every distinct block
    f = make_field(2, 6)
    base, decorations = instantiate(Sigma(2), 2, f), [instantiate(Sigma(1), 2, f)]
    built = _record_histograms(monkeypatch)
    got = decorated_sums(base, decorations)
    assert {bins for _row, bins, _points in built} == {2 * 64}
    assert got == [exp_sum(_plus(base, decorations, (c,))) for c in range(64)]


SEQUENCE_EXPRS = [
    "tau(3)",
    "R(2,3)",
    "sigma(2)",
    "e1*T(2) + sigma(1)",
    "R(2,3) + R(2)",
    "sigma(3)",
    "T(2,4) + e2*T(3)",
    "tau(2) + tau(4)",
    "e1*sigma(2) + T(2,3,5)",
    "R(2,4)",  # a seam monomial without x_n: x_(n-1) x_1 of the translate x_(n-2) x_n x_1... wraps
    "R(3) + sigma(2)",
    "e1*R(2,3) + T(2,4)",
    "R(2,3,4) + R(2,4)",
]
SEQUENCE_TOPS = {2: 10, 3: 6, 4: 5, 5: 4, 8: 3, 9: 3}
SEAM_TABLE = 1 << 16  # the largest seam table of one level, p q^(2w-2) bins, the property test levels


def _outcome(sums):
    """sums() as (n_min, values), or its exception's type and message."""
    try:
        seq = sums()
    except (ValueError, ResourceLimitExceeded) as exc:
        return type(exc), str(exc)
    return seq.n_min, seq.values


def _loop(e, field, n_range, budget=DEFAULT_POINT_BUDGET):
    """The reference: one instantiation and one `exp_sum` for each n."""
    if n_range.step != 1:
        raise ValueError("n_range must have step 1")
    return Sequence(n_range.start, [exp_sum(instantiate(e, n, field), budget=budget) for n in n_range], "brute")


def _sequence_range(e, field, pick):
    """The range of a `test_sum_sequence_is_exp_sum_at_every_n` case: its
    top reaches 2w - 1 for a rotation of width w whose seam table fits
    SEAM_TABLE, so that at least two n are levelled through the seam; pick
    starts it at the minimum plus 0..3, at 2w - 3 or at 2w - 2."""
    w = seam(e, make_field(3, 2))[1]  # w does not depend on the field, and F_9 names every scalar here
    top = max(SEQUENCE_TOPS[field.q], e.min_n())
    if w and field.p * field.q ** (2 * w - 2) <= SEAM_TABLE:
        top = max(top, 2 * w - 1)
    starts = [e.min_n() + skip for skip in range(4)] + ([2 * w - 3, 2 * w - 2] if w else [e.min_n()] * 2)
    return range(min(starts[pick], top), top + 1)


@settings(max_examples=40, deadline=None)
@given(
    cases=st.lists(st.tuples(st.sampled_from(SEQUENCE_EXPRS), st.sampled_from(FIELDS), st.integers(0, 5)), min_size=2, max_size=4),
    block_points=st.sampled_from([1, 9, 30, 1 << 15]),
    chunk_bits=st.sampled_from([6, 8]),
)
def test_sum_sequence_is_exp_sum_at_every_n(cases, block_points, chunk_bits):
    # a range is read from one levelled enumeration at its top n, from any
    # start, through the seam for a rotation (every rotation range is
    # levelled here, whatever its seam table costs); small chunks make F_2
    # ranges keyed from n = 7 or 9, and small blocks split the other
    # fields' ranges at every level, in both key regimes.  The grids one
    # call shares must not reach another call over another field with the
    # same terms.  Starts below the minimum raise as the loop does.
    for keyed in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_BLOCK_POINTS", block_points)
            mp.setattr(oracle, "_CHUNK_BITS", chunk_bits)
            mp.setattr(oracle, "_SEAM_POINTS", 0)
            _force_keys(mp, keyed)
            for text, field, pick in cases:
                e = parse(text)
                ns = _sequence_range(e, field, pick)
                got = _outcome(lambda: sum_sequence(e, field, ns))
                assert got == _outcome(lambda: _loop(e, field, ns))
                if got[0] == ns.start and not keyed and field.q ** ns.start <= 729:
                    assert got[1][0] == _reference_sum(e, ns.start, field)


def _record_kernel_calls(monkeypatch):
    """The list to which every `instantiate` and kernel call of `oracle` adds its name."""
    calls = []
    for name in ("instantiate", "_trace_counts_f2", "_value_counts"):
        def spy(*args, _name=name, _fn=getattr(oracle, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(oracle, name, spy)
    return calls


def _range(text, q, lo, hi, levelled):
    return pytest.param(text, q, lo, hi, levelled, id="%s-%d-%d-%d" % (text, q, lo, hi))


@pytest.mark.parametrize(
    "text,q,lo,hi,levelled",
    [
        _range("tau(3)", 2, 3, 12, 3),
        _range("sigma(3)", 3, 4, 9, 4),
        _range("T(2,4) + e2*T(3)", 9, 4, 6, 4),
        _range("R(2,3)", 2, 3, 12, 4),  # n = 3 < 2w - 2 on its own
        _range("R(2,3)", 3, 3, 12, 4),
        _range("R(2,4)", 3, 4, 12, 6),
        _range("R(2,3) + R(2)", 4, 3, 9, 4),
        # the seam table, 5 levels of 3 * 3^4 bins, costs more than the
        # 1053 points of n = 4..6 that one call saves: the loop stays
        _range("R(2,3)", 3, 3, 7, None),
    ],
)
def test_a_prefix_stable_range_is_enumerated_once(monkeypatch, text, q, lo, hi, levelled):
    # n from levelled on are read from one instantiation at the top n and
    # one kernel call; the n before it take one each
    e, field = parse(text), make_field(*prime_power(q))
    want = _loop(e, field, range(lo, hi + 1)).values
    calls = _record_kernel_calls(monkeypatch)
    assert sum_sequence(e, field, range(lo, hi + 1)).values == want
    kernel = "_trace_counts_f2" if q == 2 else "_value_counts"
    per_n = (hi + 1 if levelled is None else levelled) - lo
    assert calls == ["instantiate", kernel] * (per_n + (levelled is not None))


@pytest.mark.parametrize(
    "text,q,n_range,budget",
    [
        ("T(3) + T(2,4) + T(2,4)", 2, range(3, 11), 10**8),  # below the minimum; the T(2,4) terms cancel
        ("tau(3)", 3, range(3, 10), 3**7),  # over the budget from n = 8
        ("sigma(2)", 2, range(5, 30), 2**20),  # from n = 21, and past any range enumerated here
        ("e5*tau(3)", 3, range(3, 8), 10**8),  # a scalar out of range
        ("e5*tau(3)", 3, range(3, 10), 3**5),  # the scalar first
        ("T(2,4) + e9*T(2)", 2, range(3, 8), 10**8),  # the minimum first, in the order of the sum
        ("e9*T(2) + T(2,4)", 2, range(3, 8), 10**8),  # the scalar first
        ("T(2,4)", 2, range(2, 2), 10**8),  # empty, though below the minimum
        ("R(2,3)", 3, range(3, 10), 3**7),  # a rotation over the budget from n = 8
        ("tau(3)", 2, range(3, 9, 2), 10**8),  # a step
        ("e5*R(2,3)", 3, range(3, 13), 10**8),  # a scalar out of range in a levelled rotation range
        ("R(2,4) + T(2,3)", 2, range(3, 12), 10**8),  # a rotation range below the minimum
        ("R(2,3) + R(2)", 2, range(3, 30), 2**20),  # a levelled rotation range over the budget from n = 21
    ],
)
def test_sum_sequence_validates_as_the_loop_does(text, q, n_range, budget):
    e, field = parse(text), make_field(*prime_power(q))
    got = _outcome(lambda: sum_sequence(e, field, n_range, budget=budget))
    assert got == _outcome(lambda: _loop(e, field, n_range, budget=budget))
    assert got[0] in (ValueError, ResourceLimitExceeded) or got == (n_range.start, ())


def test_an_over_budget_range_is_refused_before_any_enumeration(monkeypatch):
    calls = _record_kernel_calls(monkeypatch)
    # a rotation is refused up front too, not after the 3^16-point sums below n = 17
    for text, q, hi, budget, over in (("tau(3)", 3, 11, 3**8, 9), ("sigma(2)", 2, 11, 2**8, 9), ("R(2,3)", 3, 17, DEFAULT_POINT_BUDGET, 17)):
        with pytest.raises(ResourceLimitExceeded, match="^enumeration of %d\\^%d points exceeds the budget of %d$" % (q, over, budget)):
            sum_sequence(parse(text), make_field(q), range(3, hi + 1), budget=budget)
    assert "_trace_counts_f2" not in calls and "_value_counts" not in calls


@cache
def _reference_tables(field):
    elems = field.elements()
    add = [[(a + b).index for b in elems] for a in elems]
    mul = [[(a * b).index for b in elems] for a in elems]
    return add, mul, [a.trace() for a in elems]


TABLE_FIELDS = [
    make_field(p, r) for p in range(2, 33) if is_prime(p) for r in range(1, 6) if p**r <= 32
] + [make_field(101), make_field(3, 2, modulus=(2, 2, 1))]


@pytest.mark.parametrize(
    "field", TABLE_FIELDS, ids=lambda f: "F%s-mod%s" % (f.describe(), "".join(map(str, f.modulus)))
)
def test_field_tables_match_field_arithmetic(field):
    tables = oracle._tables(field)
    add, mul, trace = tables.add, tables.mul, tables.trace
    assert add.dtype == mul.dtype == trace.dtype == np.uint8
    assert (add.tolist(), mul.tolist(), trace.tolist()) == _reference_tables(field)


@pytest.mark.parametrize("q", [257, 499])
def test_sums_over_fields_beyond_256_elements(q):
    # X1*X2 takes the value 0 on 2q - 1 points and every other value q - 1 times
    f = make_field(q)
    g = instantiate(tau(2), 2, f)
    assert trace_counts(g) == [2 * q - 1] + [q - 1] * (q - 1)
    assert exp_sum(g).as_integer() == q
    assert joint_counts([instantiate(Sigma(1), 2, f)]).tolist() == [q] * q


def test_field_tables_widen_past_256_elements():
    f = make_field(257)
    tables = oracle._tables(f)
    add, mul, trace = tables.add, tables.mul, tables.trace
    assert add.dtype == mul.dtype == trace.dtype == np.uint16
    a, b = f.from_index(200), f.from_index(100)
    assert add[200, 100] == (a + b).index and mul[200, 100] == (a * b).index


@pytest.mark.parametrize("p,r", [(2, 12), (3, 7), (1021, 1)])
def test_large_field_tables_match_field_arithmetic(monkeypatch, p, r):
    # the powers of the primitive element are stepped by its matrix on the
    # digits; a cache of this test's own keeps its 2 x 33 MB out of the session
    monkeypatch.setattr(oracle, "_table_cache", {})
    f = make_field(p, r)
    tables = oracle._tables(f)
    add, mul, trace = tables.add, tables.mul, tables.trace
    assert sorted(oracle._primitive_powers(f).tolist()) == list(range(1, f.q))
    rng = np.random.default_rng(p * r)
    for a, b in rng.integers(0, f.q, size=(300, 2)).tolist():
        x, y = f.from_index(a), f.from_index(b)
        assert (add[a, b], mul[a, b]) == ((x + y).index, (x * y).index)
    assert [trace[a] for a in range(0, f.q, 97)] == [f.from_index(a).trace() for a in range(0, f.q, 97)]


def test_small_grids_over_large_fields_build_no_square_table(monkeypatch):
    # sigma(1) over F_4096 at n = 1 has 4096 points, and a q x q table 16.7 M
    # entries; the peak of all allocations during the calls stays below one
    # byte per entry of such a table, and the cache keeps no intp q x q table
    monkeypatch.setattr(oracle, "_table_cache", {})
    f = make_field(2, 12)
    g = InstantiatedFunction(f, 1, {frozenset({1}): f.from_index(1234), frozenset(): f.from_index(7)})
    oracle._tables(f)  # the narrow tables, built once per field
    tracemalloc.start()
    try:
        counts = trace_counts(g)
        joint = joint_counts([g])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < f.q**2
    assert counts == [2048, 2048]
    assert joint.tolist() == [1] * f.q
    tables = oracle._tables(f)
    assert tables._integer is None and tables._qmul is None and not tables._scaled


@pytest.mark.parametrize("m", [0, 1])
def test_decorated_sums_bound_their_transform_over_a_large_field(m):
    # the transform gathers p x q x q^m entries in all; it takes the
    # coefficients in chunks of _TRANSFORM_ENTRIES entries (8 MB of int64),
    # and with no decoration there is nothing to transform
    f = make_field(257, 1)
    base = InstantiatedFunction(f, 1, {frozenset({1}): f.from_index(5), frozenset(): f.from_index(2)})
    decorations = [InstantiatedFunction(f, 1, {frozenset({1}): f.one(), frozenset(): f.from_index(3)})] * m
    oracle._tables(f)
    tracemalloc.start()
    try:
        got = decorated_sums(base, decorations)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (4 * 8 * oracle._TRANSFORM_ENTRIES if m else 2**20)
    assert got == [exp_sum(_plus(base, decorations, (c,) * m)) for c in range(f.q if m else 1)]


BOUNDARY_FIELDS = [make_field(*prime_power(q)) for q in (2, 3, 4, 5, 8, 9, 25, 257)]
BOUNDARY_TOP = {2: 10, 3: 6, 4: 5, 5: 4, 8: 3, 9: 3, 25: 2, 257: 1}  # the largest n the reference runs


@st.composite
def _boundary_cases(draw):
    """1..3 functions on F_q^n, each random, constant-only or zero, and a
    size q^b with n = b - 1, b or b + 1."""
    field = draw(st.sampled_from(BOUNDARY_FIELDS))
    top = BOUNDARY_TOP[field.q]
    b = draw(st.integers(1, top))
    n = draw(st.sampled_from([x for x in (b - 1, b, b + 1) if 1 <= x <= top]))
    constants = st.integers(0, field.q - 1).map(lambda c: {frozenset(): field.from_index(c)})
    kinds = _function(field, n).map(lambda g: g.terms) | st.just({}) | constants
    funcs = [InstantiatedFunction(field, n, draw(kinds)) for _ in range(draw(st.integers(1, 2 if field.q > 25 else 3)))]
    return funcs, field.q**b


@settings(max_examples=150, deadline=None)
@given(case=_boundary_cases(), at=st.sampled_from(["block", "leaf", "both"]), tables=st.booleans())
def test_one_block_leaf_and_table_boundaries_match_the_naive_loop(case, at, tables):
    # the size q^b is the block cap, the leaf size or both, so that q^n is
    # one point count below, at or above it; without tables, the kernel
    # takes the path of fields whose q x q tables are not kept
    funcs, size = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_table_cache", {})
        if at != "leaf":
            mp.setattr(oracle, "_BLOCK_POINTS", size)
        if at != "block":
            mp.setattr(oracle, "_LEAF_POINTS", size)
        if not tables:
            mp.setattr(oracle, "_TABLE_ENTRIES", 0)
        counts = trace_counts(funcs[0])
        joint = joint_counts(funcs)
        sums = decorated_sums(funcs[0], funcs[1:]) if funcs[0].field.q <= 25 else None
    field = funcs[0].field
    want = _reference_joint(funcs)
    assert joint.tolist() == want.tolist()
    assert counts == _reference_counts(funcs[0])
    assert sums is None or sums == _slow_decorated(field, want)


@pytest.mark.parametrize("p,n", [(2, 9), (2, 10), (2, 11), (2, 14), (2, 15), (2, 16), (3, 6), (3, 7), (3, 9), (3, 10), (5, 4), (5, 5), (5, 6), (5, 7)])
def test_default_leaf_and_block_boundaries_match_integer_arithmetic(p, n):
    # q^n just below, at or above 2^10 points (a leaf grid) and 2^15 (one block)
    f = make_field(p)
    funcs = [
        instantiate(parse("tau(3) + e%d*sigma(2) + R(2)" % (p - 1)), n, f),
        InstantiatedFunction(f, n, {frozenset(): f.from_index(p - 1)}),
        InstantiatedFunction(f, n, {}),
    ]
    funcs[0].terms[frozenset()] = f.from_index(1)
    values = [reference.values(g) for g in funcs]
    assert trace_counts(funcs[0]) == np.bincount(values[0], minlength=p).tolist()
    joint = joint_counts(funcs).ravel().tolist()
    assert joint == np.bincount((values[0] * p + values[1]) * p + values[2], minlength=p**3).tolist()


def test_known_consecutive_trapezoid_values():
    f2 = make_field(2)
    seq = sum_sequence(tau(3), f2, range(3, 7))
    assert [v.as_integer() for v in seq.values] == [6, 12, 20, 36]


def test_budget_enforced():
    f3 = make_field(3)
    g = instantiate(tau(2), 8, f3)
    with pytest.raises(ResourceLimitExceeded):
        exp_sum(g, budget=3 ** 8 - 1)
    # a budget of exactly q^n is allowed
    assert exp_sum(g, budget=3 ** 8) == _reference_sum(tau(2), 8, f3)


def test_weight_and_balance():
    f2 = make_field(2)
    g = instantiate(tau(2), 3, f2)  # X1X2 + X2X3
    ones = int((reference.values(g) == 1).sum())
    assert weight(g) == ones == 2
    assert not is_balanced(g)
    # a single linear variable is balanced
    lin = instantiate(Sigma(1), 1, f2)
    assert is_balanced(lin)
    f3 = make_field(3)
    with pytest.raises(ValueError):
        weight(instantiate(tau(2), 3, f3))


def test_joint_counts_mass_and_marginals():
    f3 = make_field(3)
    n = 5
    a = instantiate(tau(2), n, f3)
    b = instantiate(Sigma(1), n, f3)
    joint = joint_counts([a, b])
    assert joint.shape == (3, 3)
    assert joint.sum() == 3 ** n
    # marginals agree with per-function value histograms
    for g, axis in ((a, 1), (b, 0)):
        single = joint_counts([g])
        assert list(joint.sum(axis=axis)) == list(single)
    # and the reference histogram agrees
    assert joint.tolist() == reference.histogram([a, b])[0].reshape(3, 3).tolist()


def test_joint_counts_validation():
    f3 = make_field(3)
    with pytest.raises(ValueError):
        joint_counts([])
    a = instantiate(tau(2), 4, f3)
    b = instantiate(tau(2), 5, f3)
    with pytest.raises(ValueError):
        joint_counts([a, b])


@pytest.mark.parametrize("q,n", [(5, 4), (3, 5)], ids=["another-field", "another-n"])
def test_decorated_sums_are_admitted_as_joint_counts(q, n):
    base = instantiate(tau(2), 4, make_field(3))
    decoration = instantiate(Sigma(1), n, make_field(q))
    for call in (joint_counts, lambda funcs: decorated_sums(funcs[0], funcs[1:])):
        with pytest.raises(ValueError, match="^functions must share a field and variable count$"):
            call([base, decoration])
    # the decorations' bins count against the budget as joint_counts' do
    assert len(decorated_sums(base, [base] * 3, budget=3**4)) == 27
    with pytest.raises(ResourceLimitExceeded, match="^3\\^5 joint bins exceed the budget of 81$"):
        decorated_sums(base, [base] * 4, budget=3**4)


def test_joint_counts_bins_count_against_the_budget():
    f3 = make_field(3)
    g = instantiate(tau(2), 4, f3)
    with pytest.raises(ResourceLimitExceeded, match="3\\^12 joint bins"):
        joint_counts([g] * 12, budget=10**4)
    assert joint_counts([g] * 4, budget=81).sum() == 81


def test_sum_sequence_methods_agree():
    f2 = make_field(2)
    brute = sum_sequence(tau(3), f2, range(3, 10))
    by_transfer = run_range(system_for(tau(3), f2), tau(3), range(3, 10))
    assert brute.values == by_transfer.values
    assert brute.n_min == by_transfer.n_min == 3
    assert brute.provenance == "brute"
    assert by_transfer.provenance == "transfer"


def test_transfer_and_brute_share_the_domain():
    # the T(2,4) terms cancel over F_2, which leaves a system starting at n=3
    f2 = make_field(2)
    e = parse("T(3) + T(2,4) + T(2,4)")
    sys_ = system_for(e, f2)
    for sums in (lambda r: sum_sequence(e, f2, r), lambda r: run_range(sys_, e, r)):
        with pytest.raises(ValueError, match="^n=3 below the family minimum 4$"):
            sums(range(3, 11))
    brute = sum_sequence(e, f2, range(4, 11))
    by_transfer = run_range(sys_, e, range(4, 11))
    assert by_transfer.values == brute.values
    assert by_transfer.n_min == brute.n_min == 4


def test_sum_sequence_validation():
    f2 = make_field(2)
    sys_ = system_for(tau(3), f2)
    for sums in (lambda r: sum_sequence(tau(3), f2, r), lambda r: run_range(sys_, tau(3), r)):
        with pytest.raises(ValueError, match="^n_range must have step 1$"):
            sums(range(3, 9, 2))
    with pytest.raises(ValueError, match="^transfer system for this family starts at n=3$"):
        run_range(sys_, tau(3), range(2, 6))


def test_sum_sequence_empty_range():
    f2 = make_field(2)
    for seq in (
        sum_sequence(tau(3), f2, range(5, 5)),
        run_range(system_for(tau(3), f2), tau(3), range(5, 5)),
    ):
        assert (seq.n_min, seq.values) == (5, ())
