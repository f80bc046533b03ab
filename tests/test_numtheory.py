"""Tests for characters, Gauss sums, valuations and spectral checks."""

import math
import random
import time
from types import SimpleNamespace

import numpy as np
import pytest

from gfrec import limits, numtheory
from gfrec.cyclotomic import CycInt, root_power
from gfrec.limits import ResourceLimitExceeded
from gfrec.linalg import SparseMatrix
from gfrec.numtheory import (
    eigen_check,
    eisenstein_dumas,
    gauss_sum,
    hadamard_check,
    legendre,
    predicted_spectrum,
    valuation,
)
from gfrec.recurrence import IntPolynomial
from gfrec.transfer import build_quadratic_matrix


def test_legendre_values():
    assert [legendre(a, 7) for a in range(7)] == [0, 1, 1, -1, 1, -1, -1]
    assert legendre(2, 7) == 1
    assert legendre(-1, 3) == -1
    assert legendre(-1, 5) == 1
    with pytest.raises(ValueError):
        legendre(3, 2)
    with pytest.raises(ValueError):
        legendre(3, 9)


def test_legendre_is_multiplicative():
    p = 11
    for a in range(1, p):
        for b in range(1, p):
            assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_valuation():
    assert valuation(54, 3) == 3
    assert valuation(-40, 2) == 3
    assert valuation(7, 5) == 0
    assert valuation(0, 3) == math.inf
    with pytest.raises(ValueError):
        valuation(12, 6)


def test_gauss_sum_small_values():
    assert gauss_sum(1, 3).coeffs == (1, 2)  # 1 + 2*zeta = i*sqrt(3)
    assert gauss_sum(1, 5).coeffs == (-1, 0, -2, -2)
    with pytest.raises(ValueError):
        gauss_sum(1, 2)


def test_gauss_sum_past_its_prime_is_refused_before_any_work(monkeypatch):
    def is_prime(p):
        raise AssertionError("tested %d for primality" % p)

    with monkeypatch.context() as patch:
        patch.setattr(numtheory, "is_prime", is_prime)
        start = time.perf_counter()
        for p in (1000003, 10**9 + 7, 10**12):  # the last is not a prime: refused all the same
            with pytest.raises(ResourceLimitExceeded, match="over F_%d exceeds the limit of p <= 100000" % p):
                gauss_sum(1, p)
        assert time.perf_counter() - start < 0.5
    # every prime of C10 (p < 50) and of the benchmark workloads (p <= 31) is admitted, and the largest one
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 99991):
        assert len(gauss_sum(1, p).coeffs) == p - 1
    monkeypatch.setattr(limits, "GAUSS_SUM_PRIME", 7)
    with pytest.raises(ResourceLimitExceeded):
        gauss_sum(1, 11)
    assert gauss_sum(1, 7) == gauss_sum(2, 7)  # the limit itself is admitted; 2 is a square mod 7


def test_gauss_sum_magnitude():
    for p in (3, 5, 7, 11, 13):
        g = gauss_sum(1, p)
        assert g * g.conjugate() == CycInt.from_int(p, p)


def test_gauss_sum_square():
    # g^2 = (-1|p) p
    for p in (3, 5, 7, 11):
        g = gauss_sum(1, p)
        assert g * g == CycInt.from_int(p, legendre(-1, p) * p)


def test_gauss_sum_twist():
    # g(a) = (a|p) g(1)
    p = 7
    g1 = gauss_sum(1, p)
    for a in range(1, p):
        assert gauss_sum(a, p) == legendre(a, p) * g1


def test_eisenstein_classic():
    assert eisenstein_dumas(IntPolynomial([-2, -2, 0, 1]), 2) == "irreducible"
    assert eisenstein_dumas(IntPolynomial([-6, -3, 0, 1]), 3) == "irreducible"
    # raw coefficient lists are accepted too
    assert eisenstein_dumas([2, 2, 1], 2) == "irreducible"


def test_dumas_fractional_slope():
    # X^5 - 2X^3 - 4 has a single Newton segment of slope 2/5 at p = 2
    assert eisenstein_dumas(IntPolynomial([-4, 0, 0, -2, 0, 1]), 2) == "irreducible"


def test_criterion_not_applicable():
    # slope numerator shares a factor with the degree
    assert eisenstein_dumas(IntPolynomial([27, 0, 0, 0, 0, 0, 1]), 3) == "criterion-not-applicable"
    assert eisenstein_dumas(IntPolynomial([-9, 0, 0, 0, 1]), 3) == "criterion-not-applicable"
    # leading coefficient divisible by p
    assert eisenstein_dumas(IntPolynomial([3, 0, 3]), 3) == "criterion-not-applicable"
    # constant term not divisible by p
    assert eisenstein_dumas(IntPolynomial([1, 0, 1]), 2) == "criterion-not-applicable"
    # interior coefficient on the segment
    assert eisenstein_dumas(IntPolynomial([2, 1, 1]), 2) == "criterion-not-applicable"
    with pytest.raises(ValueError):
        eisenstein_dumas(IntPolynomial([5]), 3)


def test_eisenstein_past_its_prime_is_refused_before_any_work(monkeypatch):
    def is_prime(p):
        raise AssertionError("tested %d for primality" % p)

    with monkeypatch.context() as patch:
        patch.setattr(numtheory, "is_prime", is_prime)
        start = time.perf_counter()
        for p in (10**12 + 39, 99999999999973, 10**18):  # the last is not a prime: refused all the same
            with pytest.raises(ResourceLimitExceeded, match="at p = %d exceeds the limit of p <= 1000000000000$" % p):
                eisenstein_dumas([-2, -2, 0, 1], p)
        assert time.perf_counter() - start < 0.5
    with pytest.raises(ValueError, match="need degree >= 1"):  # checked first, as it was
        eisenstein_dumas([5], 10**18)
    monkeypatch.setattr(limits, "EISENSTEIN_PRIME", 7)
    with pytest.raises(ResourceLimitExceeded):
        eisenstein_dumas([-2, -2, 0, 1], 11)
    assert eisenstein_dumas([-14, 0, 1], 7) == "irreducible"  # the limit itself is admitted


def test_eisenstein_tests_its_prime_once(monkeypatch):
    calls = []
    real = numtheory.is_prime

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(numtheory, "is_prime", counted)
    # every p of the acceptance check C11 and of the benchmark workloads (2, 3, 5)
    for p in (2, 3, 5):
        for k in range(2, 8):
            calls.clear()
            poly = IntPolynomial([-p * (p - 1) ** (k - 2 - d) for d in range(k - 1)] + [0, 1])
            assert eisenstein_dumas(poly, p) == "irreducible"
            assert calls == [p]
    with pytest.raises(ValueError, match="need a prime, got 6"):
        eisenstein_dumas([-2, -2, 0, 1], 6)
    start = time.perf_counter()
    assert eisenstein_dumas([-2 * 999999999989, 0, 1], 999999999989) == "irreducible"
    assert time.perf_counter() - start < 0.5


def test_hadamard_check():
    for p in (3, 5, 7, 11, 13):
        assert hadamard_check(p)


def _check_edited(monkeypatch, check, p, edits):
    """check(p), hadamard_check or eigen_check, on the quadratic matrix with
    each entry k of edits (row k // p, column k % p) made of the (exponent,
    amplitude) triples edits[k]."""
    m = build_quadratic_matrix(p).sparse
    assert m.cols.tolist() == list(range(p)) * p  # one triple per entry
    entries = [[(j, t, a)] for j, t, a in zip(m.cols.tolist(), m.exps.tolist(), m.amps.tolist())]
    for k, triples in edits.items():
        entries[k] = [(k % p, t, a) for t, a in triples]
    rows = [sum(entries[i * p : (i + 1) * p], []) for i in range(p)]
    triples = np.array(sum(rows, []), dtype=np.int64).reshape(-1, 3)
    starts = np.cumsum([0] + [len(row) for row in rows])
    edited = SimpleNamespace(sparse=SparseMatrix(p, starts, *triples.T))
    monkeypatch.setattr(numtheory, "build_quadratic_matrix", lambda _p: edited)
    return check(p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_hadamard_check_refuses_a_changed_exponent(monkeypatch, p):
    # the entries are zeta^(j (k - j)); one other power breaks the orthogonality
    # of its row with every other row
    for k in range(p * p):
        j, col = divmod(k, p)
        for delta in range(1, p):
            assert not _check_edited(monkeypatch, hadamard_check, p, {k: [((j * (col - j) + delta) % p, 1)]})


@pytest.mark.parametrize("coords", [(1, 1, 0, 0), (2, 0, 0, 0), (0, 0, 0, 0), (-1, -1, -1, 0), (0, -1, 0, 0)])
def test_hadamard_check_refuses_a_non_root_entry(monkeypatch, coords):
    # the coordinates as triples a zeta^t, one per nonzero coordinate
    triples = [(t, a) for t, a in enumerate(coords) if a]
    for k in (0, 7, 24):
        assert not _check_edited(monkeypatch, hadamard_check, 5, {k: triples})


def test_hadamard_check_refuses_two_triples_in_one_entry_beside_a_zero_one(monkeypatch):
    # row 0 keeps p triples of amplitude 1 and exponent 0, as in the matrix,
    # but column 0 has none and column 1 holds 1 + 1
    assert not _check_edited(monkeypatch, hadamard_check, 5, {0: [], 1: [(0, 1), (0, 1)]})


def test_predicted_spectrum():
    spec = predicted_spectrum(5)
    assert len(spec) == 3
    assert [mult for _v, mult in spec] == [1, 2, 2]
    g = gauss_sum(1, 5)  # (-2|5) = -1, s = 2: -g zeta^(-2 a^2) for a = 0, 1, 2
    assert [v for v, _mult in spec] == [-1 * g * root_power(5, -2 * a * a) for a in range(3)]
    for value, _mult in spec:
        assert value * value.conjugate() == CycInt.from_int(5, 5)
    with pytest.raises(ValueError):
        predicted_spectrum(2)


def test_eigen_check():
    for p in (3, 5, 7, 11, 13, 17):
        report = eigen_check(p)
        assert report.ok is True
        assert report.p == p
        assert report.predicted == tuple(predicted_spectrum(p))


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_each_factor_steps_m_v_minus_lambda_v_on_python_ints(p):
    # v at the largest |v| that keeps M v in int64, and past any int64: the
    # difference of M v and lambda v, each exact, may still not fit int64
    m = build_quadratic_matrix(p).sparse
    rng = random.Random(p)
    big = (2**63 - 1) // (2 * m.row_norm())
    signs = [[rng.choice((-1, 1)) for _ in range(p - 1)] for _ in range(p)]
    at_bound = np.array(signs, dtype=np.int64) * big
    huge = np.array([[rng.randrange(-2**80, 2**80) for _ in range(p - 1)] for _ in range(p)], dtype=object)
    for v in (at_bound, huge):
        mv = m.times(v.astype(object)).tolist()
        for value, _mult in predicted_spectrum(p):
            got = numtheory._minus_scalar(m, value).times(v)
            lv = [(value * CycInt(p, x)).coeffs for x in v.tolist()]
            assert got.dtype == object
            assert got.tolist() == [[a - b for a, b in zip(r, s)] for r, s in zip(mv, lv)]


def test_eigen_check_past_its_prime_is_refused_before_the_system_is_built(monkeypatch):
    def build(p):
        raise AssertionError("built the quadratic matrix over F_%d" % p)

    monkeypatch.setattr(numtheory, "build_quadratic_matrix", build)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitExceeded, match="over F_101 exceeds the limit of p <= 47"):
        eigen_check(101)
    assert time.perf_counter() - start < 0.5
    with pytest.raises(ValueError, match="need an odd prime, got 100"):  # not a prime: the error it had
        eigen_check(100)
    monkeypatch.setattr(limits, "EIGEN_CHECK_PRIME", 7)
    with pytest.raises(ResourceLimitExceeded):
        eigen_check(11)
    with pytest.raises(AssertionError, match="F_7"):  # the limit itself is admitted
        eigen_check(7)


def _spectrum_edited(monkeypatch, p, edit):
    """eigen_check(p) against the predicted spectrum as edit returns it."""
    real = predicted_spectrum(p)
    monkeypatch.setattr(numtheory, "predicted_spectrum", lambda _p: edit(list(real)))
    return eigen_check(p).ok


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_eigen_check_refuses_a_value_one_exponent_off(monkeypatch, p):
    zeta = root_power(p, 1)
    for a in range((p + 1) // 2):
        def edit(spec):
            value, mult = spec[a]
            spec[a] = (value * zeta, mult)
            return spec

        assert not _spectrum_edited(monkeypatch, p, edit), a


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_eigen_check_refuses_swapped_multiplicities(monkeypatch, p):
    # the values stay, so prod (M - lambda_a I) still vanishes; the traces see it
    def edit(spec):
        (v0, m0), (v1, m1) = spec[:2]
        return [(v0, m1), (v1, m0)] + spec[2:]

    assert not _spectrum_edited(monkeypatch, p, edit)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_eigen_check_refuses_a_tampered_entry(monkeypatch, p):
    for k in range(p * p):
        j, col = divmod(k, p)
        for delta in range(1, p):
            assert not _check_edited(monkeypatch, eigen_check, p, {k: [((j * (col - j) + delta) % p, 1)]}).ok
    assert not _check_edited(monkeypatch, eigen_check, p, {p + 1: []}).ok  # a zero entry
    assert not _check_edited(monkeypatch, eigen_check, p, {1: [(0, 2)]}).ok  # 2, not a root
