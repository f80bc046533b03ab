"""Tests for the fraction-free integer solve, for the sparse matrix's
triples a zeta^t and its products and norms against dense references, for
the certified minimal polynomial, and for the integer annihilator against
the minimal polynomial of its written-out matrix."""

import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfrec import linalg
from gfrec.cyclotomic import CycInt, regular_matrix, root_power
from gfrec.funcalg import parse
from gfrec.galois import make_field, prime_power
from gfrec.limits import ResourceLimitExceeded
from gfrec.linalg import SparseMatrix, certify, minimal_polynomial, solve_with_free_zero
from gfrec.transfer import build_quadratic_matrix, integer_annihilator, run, system_for
from stepped import DIGEST_EXPRS, DIGEST_FIELDS, state_matrix


def test_solve_square_system():
    assert solve_with_free_zero([[1, 2], [3, 4]], [5, 11]) == ([2, 4], 2)


def test_solve_underdetermined_sets_free_to_zero():
    assert solve_with_free_zero([[1, 1, 0]], [3]) == ([3, 0, 0], 1)


def test_solve_inconsistent():
    assert solve_with_free_zero([[1, 1], [1, 1]], [0, 1]) is None


def test_solve_is_exact():
    assert solve_with_free_zero([[2]], [1]) == ([1], 2)
    # a negative last pivot is normalised: -3 x = 1 gives x = -1/3
    assert solve_with_free_zero([[-3]], [1]) == ([-1], 3)


def _reference_solve(rows, rhs):
    """Gauss-Jordan on fractions.Fraction, free variables zero: the reference."""
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    aug = [[Fraction(x) for x in rows[i]] + [Fraction(rhs[i])] for i in range(m)]
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, m) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for i in range(m):
            if i != row and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    if any(aug[i][ncols] != 0 for i in range(row, m)):
        return None
    solution = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        solution[col] = aug[i][ncols]
    return solution


@st.composite
def linear_systems(draw):
    """Small integer systems: some rank-deficient, with zero columns, single
    rows or no columns; right sides consistent or not."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(0, 5))
    entry = st.integers(-5, 5)
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    for col in draw(st.sets(st.integers(0, n - 1), max_size=2)) if n else ():
        for r in rows:
            r[col] = 0
    if m > 2 and draw(st.booleans()):  # a dependent row
        a, b = draw(entry), draw(entry)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    if draw(st.booleans()):  # consistent: b = A x
        x = [draw(entry) for _ in range(n)]
        rhs = [sum(a * c for a, c in zip(r, x)) for r in rows]
    else:
        rhs = [draw(entry) for _ in range(m)]
    return rows, rhs


@settings(max_examples=100, deadline=None)
@given(linear_systems())
def test_solve_matches_fraction_gauss_jordan(system):
    rows, rhs = system
    got = solve_with_free_zero(rows, rhs)
    want = _reference_solve(rows, rhs)
    if want is None:
        assert got is None
        return
    x, d = got
    assert d > 0 and all(isinstance(c, int) for c in x + [d])
    assert [Fraction(c, d) for c in x] == want
    assert all(sum(a * c for a, c in zip(r, x)) == d * b for r, b in zip(rows, rhs))


def test_solve_edge_cases():
    assert solve_with_free_zero([], []) == ([], 1)
    assert solve_with_free_zero([[], []], [0, 0]) == ([], 1)
    assert solve_with_free_zero([[], []], [0, 1]) is None
    assert solve_with_free_zero([[0, 0]], [0]) == ([0, 0], 1)


def _from_rows(p, rows):
    """The SparseMatrix whose row i holds the (column, exponent, amplitude)
    triples rows[i]."""
    triples = np.array([t for row in rows for t in row], dtype=np.int64).reshape(-1, 3)
    return SparseMatrix(p, np.cumsum([0] + [len(row) for row in rows]), *triples.T)


def _sparse(matrix):
    """An integer matrix as a SparseMatrix over Z = Z[zeta_2]."""
    return _from_rows(2, [[(j, 0, a) for j, a in enumerate(row) if a] for row in matrix])


def _minpoly(matrix, cap=8):
    return minimal_polynomial(_sparse(matrix), cap)


def _mat_mul(x, y):
    n = len(x)
    return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _reference_minimal_polynomial(matrix):
    """First linear dependence among the flattened powers I, M, M^2, ..."""
    n = len(matrix)
    powers = [[[int(i == j) for j in range(n)] for i in range(n)]]
    while True:
        top = _mat_mul(powers[-1], matrix)
        cols = [[x for row in pw for x in row] for pw in powers]
        rows = [list(r) for r in zip(*cols)]
        solved = solve_with_free_zero(rows, [x for row in top for x in row])
        if solved is not None:
            x, d = solved
            return [Fraction(-c, d) for c in x] + [1]
        powers.append(top)


def _evaluate(poly, matrix):
    n = len(matrix)
    acc = [[0] * n for _ in range(n)]
    for c in reversed(poly):
        acc = _mat_mul(acc, matrix)
        for i in range(n):
            acc[i][i] += c
    return acc


def test_minimal_polynomial_diagonal():
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
    assert _minpoly(m) == [2, -3, 1]  # (X-1)(X-2)
    ident = [[1, 0], [0, 1]]
    assert _minpoly(ident) == [-1, 1]
    zero = [[0, 0], [0, 0]]
    assert _minpoly(zero) == [0, 1]


def test_minimal_polynomial_companion():
    # companion action e1 -> e2 -> e3 -> 2e1 + 2e2, i.e. X^3 - 2X - 2
    m = [[0, 0, 2], [1, 0, 2], [0, 1, 0]]
    assert _minpoly(m) == [-2, -2, 0, 1]


def test_minimal_polynomial_nilpotent():
    m = [[0, 1], [0, 0]]
    assert _minpoly(m) == [0, 0, 1]


def test_minimal_polynomial_needs_lcm_of_probes():
    # block diag(J_2(0), [1]): lcm(X^2, X-1) = X^3 - X^2
    m = [[0, 1, 0], [0, 0, 0], [0, 0, 1]]
    assert _minpoly(m) == [0, 0, -1, 1]


def test_minimal_polynomial_degree_cap():
    m = [[0, 0, 2], [1, 0, 2], [0, 1, 0]]
    with pytest.raises(ResourceLimitExceeded):
        _minpoly(m, cap=2)


def test_minimal_polynomial_cyclotomic_entries():
    # multiplication by zeta_3 on Z[zeta_3] has minimal polynomial X^2 + X + 1
    assert minimal_polynomial(_from_rows(3, [[(0, 1, 1)]]), 4) == [1, 1, 1]
    # zeta_5 + zeta_5^4 = (sqrt(5) - 1) / 2 is a root of X^2 + X - 1
    m = _from_rows(5, [[(0, 1, 1), (0, 4, 1)]])
    assert minimal_polynomial(m, 4) == [-1, 1, 1]
    # diag(zeta_3, 1) with an off-diagonal 2: lcm(X^2 + X + 1, X - 1) = X^3 - 1
    m = _from_rows(3, [[(0, 1, 1), (1, 0, 2)], [(1, 0, 1)]])
    assert minimal_polynomial(m, 4) == [-1, 0, 0, 1]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_minimal_polynomial_matches_first_power_dependence(m):
    got = _minpoly(m, cap=len(m))
    assert got == _reference_minimal_polynomial(m)
    assert all(x == 0 for row in _evaluate(got, m) for x in row)


@pytest.mark.parametrize(
    "text, q",
    [("R(2)", 3), ("sigma(3)", 3), ("sigma(2)", 5), ("T(2,4)", 2), ("tau(3)", 4)],
)
def test_integer_annihilator_is_the_inflated_minimal_polynomial(text, q):
    field = make_field(*prime_power(q))
    sys = system_for(parse(text), field)
    e = field.p - 1
    inflated = [[0] * (sys.dim * e) for _ in range(sys.dim * e)]
    sp = state_matrix(sys)
    rows = np.repeat(np.arange(sys.dim), np.diff(sp.starts)).tolist()
    for i, j, t, a in zip(rows, sp.cols.tolist(), sp.exps.tolist(), sp.amps.tolist()):
        # the triple a zeta^t adds a times the multiplication matrix of zeta^t
        for r, block_row in enumerate(regular_matrix(root_power(field.p, t))):
            for c, x in enumerate(block_row):
                inflated[i * e + r][j * e + c] += a * x
    assert list(integer_annihilator(sys).coeffs) == _reference_minimal_polynomial(inflated)


def test_apply_reduces_wide_rows_before_summing():
    # 2^14 products of (ell - 1)^2 ~ 2^50 would wrap int64 if summed unreduced
    ell = next(linalg._primes(2))
    width = 1 << 14
    m = _from_rows(2, [[(j, 0, -1) for j in range(width)]])
    x = np.full((width, 1), ell - 1, dtype=np.int64)
    got = m.apply(m.embedded(ell), x, ell)
    assert got.tolist() == [[sum((ell - 1) * (ell - 1) for _ in range(width)) % ell]]


def test_the_krylov_dot_reduces_wide_probes_before_summing():
    # 2^14 coordinates of (ell - 1)^2 ~ 2^50 would wrap an int64 dot: probes
    # u = x = ell - 1 on 2 I give the terms 2^k 2^14 mod ell, whose minimal
    # polynomial is X - 2, where wrapped terms would not follow it
    ell = next(linalg._primes(2))
    size = 1 << 14
    assert size * (ell - 1) ** 2 >= 1 << 63
    m = SparseMatrix(2, np.arange(size + 1), np.arange(size), np.zeros(size), np.full(size, 2))

    class Top:  # every probe coordinate at ell - 1
        def randrange(self, n):
            return n - 1

    assert linalg._sequence_polynomial(m, ell, Top(), 4) == [ell - 2, 1]


# ---------------------------------------------------------------------------
# the sparse form: each entry as triples a zeta^t

@st.composite
def sparse_matrices(draw, primes=(2, 3, 5, 7)):
    """Matrices of at most 4 rows over p in primes: from root counts, with
    entries of several roots, entries whose roots cancel to zero and entries
    zeta^(p-1); or from rows of triples with amplitudes up to 3."""
    p = draw(st.sampled_from(primes))
    dim = draw(st.integers(1, 4))
    index = st.integers(0, dim - 1)
    if draw(st.booleans()):
        triples = draw(st.lists(st.tuples(index, index, st.integers(0, p - 1)), max_size=24))
        for i, j in draw(st.lists(st.tuples(index, index), max_size=2)):  # all p roots: zero
            triples += [(i, j, t) for t in range(p)]
        triples += [(i, j, p - 1) for i, j in draw(st.lists(st.tuples(index, index), max_size=2))]
        rows, cols, exps = np.array(triples, dtype=np.int64).reshape(-1, 3).T
        return SparseMatrix.from_root_counts(p, dim, rows, cols, exps)
    triple = st.tuples(index, st.integers(0, p - 1), st.integers(-3, 3).filter(bool))
    return _from_rows(p, [sorted(draw(st.lists(triple, max_size=5))) for _ in range(dim)])


def _triple_rows(m):
    return np.repeat(np.arange(m.dim), np.diff(m.starts))


def _dense(m):
    """The matrix as dim x dim CycInt entries, each the sum of its triples."""
    p = m.p
    dense = [[CycInt.zero(p)] * m.dim for _ in range(m.dim)]
    for i, j, t, a in zip(_triple_rows(m).tolist(), m.cols.tolist(), m.exps.tolist(), m.amps.tolist()):
        dense[i][j] = dense[i][j] + a * root_power(p, t)
    return dense


def _dense_times(m, v):
    """M v by CycInt arithmetic on the dense entries."""
    values = [CycInt(m.p, row) for row in v.tolist()]
    zero = CycInt.zero(m.p)
    return [list(sum((e * x for e, x in zip(row, values)), zero).coeffs) for row in _dense(m)]


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(), st.data())
def test_times_matches_the_dense_product(m, data):
    p, dim = m.p, m.dim
    big = (2**63 - 1) // (2 * max(m.row_norm(), 1))  # the largest |v| that times keeps in int64
    coord = st.one_of(st.integers(-5, 5), st.integers(big - 3, big), st.integers(-big, 3 - big))
    rows = st.lists(st.lists(coord, min_size=p - 1, max_size=p - 1), min_size=dim, max_size=dim)
    v = np.array(data.draw(rows), dtype=np.int64).reshape(dim, p - 1)
    want = _dense_times(m, v)
    got = m.times(v)
    assert got.dtype == np.int64 and got.tolist() == want
    assert m.times(v.astype(object)).tolist() == want
    assert m.times(v.astype(object) * 2**70).tolist() == [[c * 2**70 for c in row] for row in want]


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(), st.integers(1, 4), st.booleans(), st.data())
def test_times_on_a_column_axis_is_times_on_each_column(m, columns, python_ints, data):
    # v is (dim, p-1, columns), the layout apply takes; over p = 2 there is no
    # root to roll, so both paths of times are drawn
    p, dim = m.p, m.dim
    big = (2**63 - 1) // (2 * max(m.row_norm(), 1))
    coord = st.one_of(st.integers(-5, 5), st.integers(big - 3, big), st.integers(-big, 3 - big))
    flat = data.draw(st.lists(coord, min_size=dim * (p - 1) * columns, max_size=dim * (p - 1) * columns))
    v = np.array(flat, dtype=np.int64).reshape(dim, p - 1, columns)
    if python_ints:
        v = v.astype(object) * 2**70
    got = m.times(v)
    assert got.shape == v.shape and got.dtype == v.dtype
    for c in range(columns):
        want = m.times(np.ascontiguousarray(v[:, :, c]))
        assert want.dtype == v.dtype
        assert got[:, :, c].tolist() == want.tolist(), c


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_times_moves_to_python_ints_past_the_int64_bound(p, data):
    # one int64 coordinate past (2^63 - 1) // (2 row_norm) makes the result
    # dtype=object, on one vector and on a column axis alike
    m = data.draw(sparse_matrices(primes=(p,)).filter(lambda m: m.row_norm() > 0))
    big = (2**63 - 1) // (2 * m.row_norm())
    columns = data.draw(st.sampled_from([(), (1,), (3,)]))
    shape = (m.dim, p - 1) + columns
    coord = st.one_of(st.integers(-5, 5), st.integers(-2**63 + 1, 2**63 - 1))
    size = m.dim * (p - 1) * (columns[0] if columns else 1)
    flat = data.draw(st.lists(coord, min_size=size, max_size=size))
    v = np.array(flat, dtype=np.int64).reshape(shape)
    past = (data.draw(st.integers(0, m.dim - 1)), data.draw(st.integers(0, p - 2))) + (0,) * len(columns)
    v[past] = data.draw(st.sampled_from([1, -1])) * data.draw(st.integers(big + 1, 2**63 - 1))
    got = m.times(v)
    assert got.dtype == object and got.shape == shape
    assert all(type(c) is int for c in got.ravel().tolist())
    for c in range(columns[0] if columns else 1):
        column = v[..., c] if columns else v
        assert (got[..., c] if columns else got).tolist() == _dense_times(m, column), c


@settings(max_examples=100, deadline=None)
@given(sparse_matrices().filter(lambda m: m.row_norm() > 0), st.sampled_from([(), (2,)]), st.data())
def test_powers_step_as_times_does(m, columns, data):
    # from near times' int64 limit: each power and its dtype
    # are those of repeated times, and each bound holds max|v| while int64
    p, dim = m.p, m.dim
    big = (2**63 - 1) // (2 * m.row_norm())
    coord = st.one_of(st.integers(-5, 5), st.integers(big // 64, big))
    size = dim * (p - 1) * (columns[0] if columns else 1)
    v = np.array(data.draw(st.lists(coord, min_size=size, max_size=size)), dtype=np.int64)
    want = v.reshape((dim, p - 1) + columns)
    for got, bound in islice(m.powers(want), 4):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        if got.dtype == object:
            assert bound is None
        else:
            assert bound >= max(abs(c) for c in got.ravel().tolist())
        want = m.times(want)


def test_powers_carry_a_bound_on_a_rotation_past_int64():
    # R(2)/F_5 steps the 5 columns of T^n side by side, a (dim, p-1, 5)
    # array: its states leave int64 at the step at which times leaves it
    sys = system_for(parse("R(2)"), make_field(5))
    m = sys.sparse
    want = sys.init.reshape(m.dim, -1, 4).transpose(0, 2, 1)
    steps = []
    for got, bound in islice(m.powers(want), 60):
        assert got.shape == (5, 4, 5) and got.dtype == want.dtype and got.tolist() == want.tolist()
        steps.append(got.dtype)
        if bound is not None:
            assert bound >= max(abs(c) for c in got.ravel().tolist())
        want = m.times(want)
    assert steps[0] == np.int64 and steps[-3:] == [object] * 3


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), st.data())
def test_from_root_counts_keeps_each_entry_in_its_fewest_triples(p, data):
    dim = 3
    counts = data.draw(
        st.lists(st.lists(st.integers(0, 3), min_size=p, max_size=p), min_size=dim * dim, max_size=dim * dim)
    )
    triples = [divmod(k, dim) + (t,) for k, row in enumerate(counts) for t, c in enumerate(row) for _ in range(c)]
    m = SparseMatrix.from_root_counts(p, dim, *np.array(triples, dtype=np.int64).reshape(-1, 3).T)
    rows, dense = _triple_rows(m), _dense(m)
    for k, row in enumerate(counts):
        i, j = divmod(k, dim)
        assert dense[i][j] == CycInt.from_root_counts(p, row)
        # the p roots sum to 0: the fewest triples leave the most frequent count out
        assert ((rows == i) & (m.cols == j)).sum() == p - max(row.count(c) for c in row)
    assert (np.diff(rows * dim + m.cols) >= 0).all()  # columns ascend, an entry's triples adjacent
    if p == 2:
        assert not m.exps.any()  # zeta = -1 is folded into the amplitude


@settings(max_examples=60, deadline=None)
@given(sparse_matrices(), st.data())
def test_embedded_and_apply_match_a_naive_loop(m, data):
    p, dim = m.p, m.dim
    ell = next(linalg._primes(p))
    zeta = _from_rows(p, [[(0, 1, 1)]]).embedded(ell)
    w = int(zeta[0, 0])  # zeta's image under the first embedding
    assert w != 1 and pow(w, p, ell) == 1
    assert zeta.tolist() == [[pow(w, j, ell) for j in range(1, p)]]
    residues = st.lists(st.integers(0, ell - 1), min_size=p - 1, max_size=p - 1)
    x = np.array(data.draw(st.lists(residues, min_size=dim, max_size=dim)), dtype=np.int64)
    want = [[0] * (p - 1) for _ in range(dim)]
    for i, col, t, a in zip(_triple_rows(m).tolist(), m.cols.tolist(), m.exps.tolist(), m.amps.tolist()):
        for j in range(1, p):
            want[i][j - 1] = (want[i][j - 1] + a * pow(w, t * j, ell) * int(x[col, j - 1])) % ell
    assert m.apply(m.embedded(ell), x, ell).tolist() == want


def _coordinate_inflated_norm(m):
    """The inflated norm by the formula on entry coordinates that the triples
    replaced: each entry's block rows, from its root counts rolled by j."""
    p = m.p
    keys, entry = np.unique(_triple_rows(m) * m.dim + m.cols, return_inverse=True)
    roots = np.zeros((len(keys), p), dtype=np.int64)
    np.add.at(roots, (entry, m.exps), m.amps)
    counts = np.zeros((len(keys), p), dtype=np.int64)
    counts[:, : p - 1] = roots[:, : p - 1] - roots[:, p - 1 :]  # the entries' coordinates
    sums = np.zeros((len(keys), p - 1), dtype=np.int64)
    for j in range(p - 1):
        rolled = np.roll(counts, j, axis=1)
        sums += np.abs(rolled[:, : p - 1] - rolled[:, p - 1 :])
    rows = np.zeros((m.dim, p - 1), dtype=np.int64)
    np.add.at(rows, keys // m.dim, sums)
    return int(rows.max(initial=0))


def _one_triple_per_entry(m):
    return len(np.unique(_triple_rows(m) * m.dim + m.cols)) == m.nnz


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_inflated_norm_bounds_the_coordinate_formula(m):
    want = _coordinate_inflated_norm(m)
    if _one_triple_per_entry(m):
        assert m.inflated_norm() == want
    else:
        assert m.inflated_norm() >= want


@pytest.mark.parametrize("q", DIGEST_FIELDS)
def test_inflated_norm_is_the_coordinate_formula_on_the_digest_grid(q):
    # every entry there is one root times an integer, so the certificate's
    # bound, and with it its prime count, is what it was on coordinates
    field = make_field(*prime_power(q))
    for text in DIGEST_EXPRS:
        try:
            sys = system_for(parse(text), field)
        except (ValueError, ResourceLimitExceeded):
            continue
        for m in (state_matrix(sys), sys.sparse):
            assert _one_triple_per_entry(m), text
            assert m.inflated_norm() == _coordinate_inflated_norm(m), text


def test_two_quadratic_steps_over_f61_stay_small():
    # a step holds each slot's p rolled root counts, about p^3 integers here;
    # a product of coordinates held p (p - 1)^2 per slot (109 MB)
    sys = build_quadratic_matrix(61)
    tracemalloc.start()
    try:
        run(sys, sys.n_min + 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 10**6


# ---------------------------------------------------------------------------
# the certificate

# the width-3 families over F_5 (inflated dims 500 to 2500) are left out:
# they would take most of the test's time
SMALL_SYSTEMS = [
    (text, q)
    for q in (2, 3, 4, 5)
    for text in ("tau(3)", "R(2)", "R(3)", "R(2,3)", "T(2,4)", "sigma(2)", "sigma(3)", "R(2)+R(3)")
    if q < 5 or text in ("tau(3)", "R(2)", "sigma(2)", "sigma(3)")
]


@lru_cache(maxsize=None)
def _system(text, q):
    return system_for(parse(text), make_field(*prime_power(q)))


@lru_cache(maxsize=None)
def _annihilator(text, q):
    return list(integer_annihilator(_system(text, q)).coeffs)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_SYSTEMS), st.data())
def test_certificate_rejects_a_perturbed_coefficient(case, data):
    m = state_matrix(_system(*case))
    poly = _annihilator(*case)
    assert certify(m, poly)
    k = data.draw(st.integers(0, len(poly) - 1), label="coefficient")
    delta = data.draw(st.sampled_from((-1, 1)), label="delta")
    bad = list(poly)
    bad[k] += delta
    assert not certify(m, bad)


def test_wrong_candidate_is_retried(monkeypatch):
    real = linalg._candidate
    calls = []

    def wrong_once(*args):
        poly = real(*args)
        calls.append(list(poly))
        if len(calls) == 1:
            poly = [poly[0] + 1] + poly[1:]
        return poly

    monkeypatch.setattr(linalg, "_candidate", wrong_once)
    sys = _system("T(2,4)", 3)
    got = integer_annihilator(sys)
    assert len(calls) == 2
    monkeypatch.setattr(linalg, "_candidate", real)
    assert got == integer_annihilator(sys)
    assert list(got.coeffs) == calls[1]


@pytest.mark.parametrize("case, primes", [(("R(2,3)", 3), 1), (("T(2,4)", 3), 2), (("sigma(2)", 11), 3)])
def test_the_lift_stops_at_the_coefficient_bound(monkeypatch, case, primes):
    # The primes are just below 2^25.  With N = inflated_norm(), the bound
    # max C(d, k) N^(d-k) is 4^8 for R(2,3)/F_3 (d = 8), under one prime;
    # about 8.8e11 for T(2,4)/F_3 (d = 18), under two; and 20^12 for
    # sigma(2)/F_11 (d = 12), past two, so that lift stops when the third
    # prime leaves it unchanged, although its coefficients fit one prime
    real = linalg._sequence_polynomial
    calls = []

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(linalg, "_sequence_polynomial", counted)
    poly = _annihilator.__wrapped__(*case)
    assert len(calls) == primes
    assert poly == _annihilator(*case)
    assert certify(state_matrix(_system(*case)), poly)


@pytest.mark.parametrize(
    "p, diagonal, poly",
    [(2, [(0, 2), (0, 3)], [-3, 1]), (3, [(1, 1), (2, -1)], [1, 0, 0, 1])],
    ids=["diag(2,3), X - 3", "diag(zeta,-zeta^2), X^3 + 1"],
)
def test_certificate_checks_column_0(p, diagonal, poly):
    # poly annihilates the diagonal's entries but the first, so every column
    # of the matrix but column 0
    m = _from_rows(p, [[(i, t, a)] for i, (t, a) in enumerate(diagonal)])
    rest = _from_rows(p, [[(i, t, a)] for i, (t, a) in enumerate(diagonal[1:])])
    assert certify(rest, poly)
    assert not certify(m, poly)


def test_the_lift_goes_on_past_the_coefficient_bound_to_twice_it():
    # [10] has mu = X - 10, N = 10 and coefficient bound 10.  Mod 11 its
    # residues lift symmetrically to X + 1, so a modulus between the bound
    # and twice it must not end the lift: 13 follows, and 143 gives mu
    m = _sparse([[10]])

    class One:  # every probe coordinate 1
        def randrange(self, n):
            return 1

    primes = iter([11, 13, 17])
    assert linalg._candidate(m, 4, primes, One()) == [-10, 1]
    assert next(primes) == 17


def test_certificate_alone_cannot_accept_a_proper_divisor():
    # R(2,3)/F_3's annihilator has the factor X^2; dropping one X leaves a
    # polynomial of smaller degree that must fail, as an unlucky candidate would
    poly = _annihilator("R(2,3)", 3)
    assert poly[:2] == [0, 0]
    assert certify(state_matrix(_system("R(2,3)", 3)), poly)
    assert not certify(state_matrix(_system("R(2,3)", 3)), poly[1:])


@pytest.mark.parametrize("case", [("T(2,4)", 3), ("sigma(3)", 3), ("R(2,4)", 2), ("sigma(2)", 5)])
def test_degree_cap_refuses_exactly_above_the_degree(case):
    sys = _system(*case)
    degree = len(_annihilator(*case)) - 1
    assert integer_annihilator(sys, degree_cap=degree).degree == degree
    with pytest.raises(ResourceLimitExceeded):
        integer_annihilator(sys, degree_cap=degree - 1)
