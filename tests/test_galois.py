import time
from math import isqrt

import pytest

from gfrec.galois import FieldSpec, is_prime, make_field, prime_power, trace


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    for n in range(2, 25):
        assert is_prime(n) == (n in primes)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_is_prime_matches_trial_division():
    # every n below 3 * 10^4, and the neighbourhoods of 2^25 that the
    # Krylov primes ell = 1 (mod p) are drawn from
    def trial(n):
        return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))

    for n in list(range(30000)) + list(range((1 << 25) - 3000, 1 << 25)):
        assert is_prime(n) == trial(n), n


def test_is_prime_refuses_strong_pseudoprimes():
    # the least strong pseudoprimes to the bases 2; 2, 3; 2, 3, 5, 7; and
    # 2 .. 23, each a product of primes above the bases it fools
    for n in (2047, 1373653, 3215031751, 3825123056546413051):
        assert not is_prime(n), n
    assert is_prime(2**61 - 1) and is_prime(10**12 + 39)


def test_make_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_field(4)
    with pytest.raises(ValueError):
        make_field(3, 0)


def test_prime_power():
    assert prime_power(2) == (2, 1)
    assert prime_power(9) == (3, 2)
    assert prime_power(8) == (2, 3)
    assert prime_power(13) == (13, 1)
    for q in (-4, 0, 1, 6, 12, 100):
        with pytest.raises(ValueError):
            prime_power(q)


def test_prime_power_divides_only_up_to_the_square_root():
    # a prime q has no divisor up to sqrt(q), so it is q^1; a scan of every
    # d up to q would take hours at 10^12
    start = time.perf_counter()
    assert prime_power(10**12 + 39) == (10**12 + 39, 1)
    assert prime_power(999983**2) == (999983, 2)
    with pytest.raises(ValueError):
        prime_power(999983 * 1000003)
    assert time.perf_counter() - start < 0.5
    powers = {p**r for p in range(2, 400) if is_prime(p) for r in range(1, 9)}
    for q in range(2, 400):
        if q in powers:
            p, r = prime_power(q)
            assert is_prime(p) and p**r == q
        else:
            with pytest.raises(ValueError):
                prime_power(q)


def test_prime_field_arithmetic():
    f = make_field(7)
    a = f.scalar(3)
    b = f.scalar(5)
    assert (a + b).index == 1
    assert (a * b).index == 1
    assert (a - b).index == 5
    assert (-a).index == 4
    assert a.inverse() * a == f.one()


def test_default_modulus_is_deterministic():
    f1 = make_field(2, 3)
    f2 = make_field(2, 3)
    assert f1.modulus == f2.modulus
    assert f1 == f2
    # smallest irreducible cubic over F_2 in base-2 coefficient order
    assert list(f1.modulus) == [1, 1, 0, 1]


def test_extension_field_sizes_and_inverses():
    for p, r in ((2, 2), (2, 3), (3, 2), (5, 2)):
        f = make_field(p, r)
        elems = f.elements()
        assert len(elems) == p**r
        assert len(set(elems)) == p**r
        for x in elems:
            if x.is_zero():
                with pytest.raises(ZeroDivisionError):
                    x.inverse()
            else:
                assert x * x.inverse() == f.one()


def test_field_axioms_spot_checks():
    f = make_field(3, 2)
    elems = f.elements()
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems[:3]:
                assert (a + b) + c == a + (b + c)
                assert a * (b + c) == a * b + a * c


def test_trace_is_additive_and_onto():
    for p, r in ((2, 2), (3, 2), (2, 3)):
        f = make_field(p, r)
        elems = f.elements()
        seen = set()
        for x in elems:
            seen.add(x.trace())
            for y in elems[:4]:
                assert (x + y).trace() == (x.trace() + y.trace()) % p
        assert seen == set(range(p))


def test_trace_counts_are_balanced():
    # each trace value is hit q/p times
    for p, r in ((2, 2), (3, 2)):
        f = make_field(p, r)
        counts = [0] * p
        for x in f.elements():
            counts[x.trace()] += 1
        assert counts == [p ** (r - 1)] * p


def test_frobenius_fixes_prime_subfield():
    f = make_field(3, 2)
    for n in range(3):
        x = f.scalar(n)
        assert x.frobenius() == x
    # frobenius is the p-power map
    for x in f.elements():
        assert x.frobenius() == x**3


def test_trace_helper_matches_method():
    f = make_field(2, 3)
    for x in f.elements():
        assert trace(x) == x.trace()


def test_from_index_round_trip():
    f = make_field(5, 2)
    for i in range(f.q):
        assert f.from_index(i).index == i
    with pytest.raises(ValueError):
        f.from_index(f.q)


def test_explicit_modulus_is_used():
    # x^2 + 1 is irreducible over F_3
    f = FieldSpec(3, 2, [1, 0, 1])
    i = f.element([0, 1])
    assert i * i == -f.one()
