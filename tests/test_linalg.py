"""Tests for the exact rational linear algebra helpers, and for the integer
annihilator against the minimal polynomial of its written-out matrix."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfrec.cyclotomic import regular_matrix
from gfrec.funcalg import parse
from gfrec.galois import make_field, prime_power
from gfrec.limits import ResourceLimitExceeded
from gfrec.linalg import (
    minimal_polynomial,
    poly_divmod,
    poly_mul,
    poly_trim,
    solve_with_free_zero,
)
from gfrec.transfer import integer_annihilator, system_for


def test_solve_square_system():
    sol, ok = solve_with_free_zero([[1, 2], [3, 4]], [5, 11])
    assert ok
    assert sol == [1, 2]


def test_solve_underdetermined_sets_free_to_zero():
    sol, ok = solve_with_free_zero([[1, 1, 0]], [3])
    assert ok
    assert sol == [3, 0, 0]


def test_solve_inconsistent():
    sol, ok = solve_with_free_zero([[1, 1], [1, 1]], [0, 1])
    assert not ok
    assert sol is None


def test_solve_is_exact():
    sol, ok = solve_with_free_zero([[2]], [1])
    assert ok
    assert sol == [Fraction(1, 2)]


def test_poly_helpers():
    assert poly_trim([1, 2, 0, 0]) == [1, 2]
    assert poly_trim([0]) == []
    assert poly_mul([1, 1], [-1, 1]) == [-1, 0, 1]
    quot, rem = poly_divmod([1, 0, 0, 1], [1, 1])  # X^3+1 over X+1
    assert quot == [1, -1, 1]
    assert rem == []
    quot, rem = poly_divmod([1, 0, 1], [1, 1])
    assert rem == [2]
    with pytest.raises(ZeroDivisionError):
        poly_divmod([1, 1], [])


def _apply(matrix):
    return lambda v: [sum(a * x for a, x in zip(row, v)) for row in matrix]


def _minpoly(matrix, cap=8):
    return minimal_polynomial(_apply(matrix), len(matrix), cap)


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
        sol, ok = solve_with_free_zero(rows, [x for row in top for x in row])
        if ok:
            return [-c for c in sol] + [1]
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


def test_minimal_polynomial_rational_entries():
    m = [[Fraction(1, 2)]]
    assert _minpoly(m, cap=4) == [Fraction(-1, 2), 1]


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
