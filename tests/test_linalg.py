"""Tests for the fraction-free integer solve, for the certified minimal
polynomial, and for the integer annihilator against the minimal polynomial
of its written-out matrix."""

from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfrec import linalg
from gfrec.cyclotomic import regular_matrix
from gfrec.funcalg import parse
from gfrec.galois import make_field, prime_power
from gfrec.limits import ResourceLimitExceeded
from gfrec.linalg import SparseMatrix, certify, minimal_polynomial, solve_with_free_zero
from gfrec.transfer import integer_annihilator, system_for


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


def _sparse(matrix):
    """An integer matrix as a SparseMatrix over Z = Z[zeta_2]."""
    return SparseMatrix.from_rows(2, [[(j, (a,)) for j, a in enumerate(row) if a] for row in matrix])


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
    assert minimal_polynomial(SparseMatrix.from_rows(3, [[(0, (0, 1))]]), 4) == [1, 1, 1]
    # zeta_5 + zeta_5^4 = (sqrt(5) - 1) / 2 is a root of X^2 + X - 1
    m = SparseMatrix.from_rows(5, [[(0, (-1, 0, -1, -1))]])
    assert minimal_polynomial(m, 4) == [-1, 1, 1]
    # diag(zeta_3, 1) with an off-diagonal 2: lcm(X^2 + X + 1, X - 1) = X^3 - 1
    m = SparseMatrix.from_rows(3, [[(0, (0, 1)), (1, (2, 0))], [(1, (1, 0))]])
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
    for i, row in enumerate(sys.matrix):
        for j, entry in enumerate(row):
            for a, block_row in enumerate(regular_matrix(entry)):
                inflated[i * e + a][j * e : (j + 1) * e] = block_row
    assert list(integer_annihilator(sys).coeffs) == _reference_minimal_polynomial(inflated)


def test_apply_reduces_wide_rows_before_summing():
    # 2^14 products of (ell - 1)^2 ~ 2^50 would wrap int64 if summed unreduced
    ell = next(linalg._primes(2))
    width = 1 << 14
    m = SparseMatrix.from_rows(2, [[(j, (-1,)) for j in range(width)]])
    x = np.full((width, 1), ell - 1, dtype=np.int64)
    got = m.apply(m.embedded(ell), x, ell)
    assert got.tolist() == [[sum((ell - 1) * (ell - 1) for _ in range(width)) % ell]]


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
    m = _system(*case).sparse
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


def test_certificate_alone_cannot_accept_a_proper_divisor():
    # R(2,3)/F_3's annihilator has the factor X^2; dropping one X leaves a
    # polynomial of smaller degree that must fail, as an unlucky candidate would
    poly = _annihilator("R(2,3)", 3)
    assert poly[:2] == [0, 0]
    assert certify(_system("R(2,3)", 3).sparse, poly)
    assert not certify(_system("R(2,3)", 3).sparse, poly[1:])


@pytest.mark.parametrize("case", [("T(2,4)", 3), ("sigma(3)", 3), ("R(2,4)", 2), ("sigma(2)", 5)])
def test_degree_cap_refuses_exactly_above_the_degree(case):
    sys = _system(*case)
    degree = len(_annihilator(*case)) - 1
    assert integer_annihilator(sys, degree_cap=degree).degree == degree
    with pytest.raises(ResourceLimitExceeded):
        integer_annihilator(sys, degree_cap=degree - 1)
