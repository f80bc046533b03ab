"""Tests for exact arithmetic in Z[zeta_p]."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfrec.cyclotomic import CycInt, combination, regular_matrix, root_power, to_decimal
from gfrec.funcalg import instantiate, parse, tau
from gfrec.galois import make_field, prime_power
from gfrec.oracle import decorated_sums, sum_sequence
from gfrec.recurrence import IntPolynomial, Sequence, extend, family_poly
from gfrec.transfer import run, system_for


def test_constructor_validation():
    with pytest.raises(ValueError, match=r"^root order must be prime, got 4$"):
        CycInt(4, (0, 0, 0))
    with pytest.raises(ValueError, match=r"^expected 4 coordinates, got 3$"):
        CycInt(5, (1, 2, 3))
    with pytest.raises(ValueError, match=r"^expected 1 coordinates, got 0$"):
        CycInt(2, ())


def _forward_values():
    # tau(3) over F_5 by X^3 - 5X - 20 from three enumerated terms
    f5 = make_field(5)
    init = sum_sequence(tau(3), f5, range(3, 6))
    values = extend(init, family_poly("Q_TRAP", k=3, field=f5), 2000).values
    assert max(c.bit_length() for c in values[-1].coeffs) > 3000
    return values[len(init):]


def _backward_values():
    # c_0 = -1, so every backward step divides exactly
    init = Sequence(0, tuple(CycInt(5, (i, -2 * i, 3, 2**80 + i)) for i in range(4)), "test")
    return extend(init, IntPolynomial([-1, 2, 0, 3, 1]), -60).values[:60]


def _run_values():
    # past n = 35 the coordinates leave int64 and the run steps Python ints
    values = []
    for text, q, steps in (("tau(3)", 5, 60), ("R(2,3)", 2, 40), ("sigma(2)", 4, 20)):
        sys_ = system_for(parse(text), make_field(*prime_power(q)))
        values += run(sys_, sys_.n_min + steps).values
    assert max(c.bit_length() for v in values for c in v.coeffs) > 63
    return values


def _decorated_values():
    values = []
    for q, n in ((5, 4), (2, 6), (9, 3)):
        f = make_field(*prime_power(q))
        decorations = [instantiate(parse(text), n, f) for text in ("sigma(1)", "sigma(2)")]
        values += decorated_sums(instantiate(tau(3), n, f), decorations)
    return values


@pytest.mark.parametrize(
    "make", [_forward_values, _backward_values, _run_values, _decorated_values],
    ids=["extend-forward", "extend-backward", "run", "decorated_sums"],
)
def test_package_built_values_are_what_the_constructor_builds(make):
    # values the package builds unchecked must equal, and hash as, the
    # validated values: a tuple of exactly p - 1 Python ints
    values = make()
    assert values
    for v in values:
        assert type(v.coeffs) is tuple
        assert all(type(c) is int for c in v.coeffs)
        assert len(v.coeffs) == v.p - 1
        checked = CycInt(v.p, v.coeffs)
        assert v == checked and hash(v) == hash(checked)


def test_composite_order_rejected_every_time():
    for _ in range(2):
        with pytest.raises(ValueError, match="root order must be prime"):
            CycInt(9, (0,) * 8)


def test_from_int_and_as_integer():
    a = CycInt.from_int(7, -12)
    assert a.coeffs == (-12, 0, 0, 0, 0, 0)
    assert a.as_integer() == -12
    b = root_power(7, 2)
    assert b.as_integer() is None
    assert CycInt.zero(5).is_zero()
    assert CycInt.one(5).as_integer() == 1


def test_root_power_relations():
    for p in (2, 3, 5, 7):
        z = root_power(p, 1)
        acc = CycInt.one(p)
        for _ in range(p):
            acc = acc * z
        assert acc == CycInt.one(p), "zeta^p must be 1"
        total = CycInt.zero(p)
        for e in range(p):
            total = total + root_power(p, e)
        assert total.is_zero(), "the p-th roots of unity sum to zero"


def test_top_power_rewrite():
    # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)) on the power basis.
    z4 = root_power(5, 4)
    assert z4.coeffs == (-1, -1, -1, -1)


def test_p2_degenerates_to_integers():
    a = CycInt.from_int(2, 5)
    b = CycInt.from_int(2, -3)
    assert (a * b).as_integer() == -15
    assert (a + b).as_integer() == 2
    assert root_power(2, 1).as_integer() == -1
    assert a.conjugate() == a


small_ints = st.integers(min_value=-9, max_value=9)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    data=st.data(),
)
def test_ring_axioms(p, data):
    vec = st.tuples(*([small_ints] * (p - 1)))
    a = CycInt(p, data.draw(vec))
    b = CycInt(p, data.draw(vec))
    c = CycInt(p, data.draw(vec))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == CycInt.zero(p)
    assert a * CycInt.one(p) == a
    assert -(-a) == a


def test_scalar_multiplication():
    a = root_power(5, 1) + CycInt.from_int(5, 2)
    assert 3 * a == a * 3
    assert (3 * a).coeffs == (6, 3, 0, 0)


def test_conjugate():
    p = 7
    z = root_power(p, 3)
    assert z.conjugate() == root_power(p, -3)
    # conjugation is the Galois map s = p - 1
    a = CycInt(p, (1, -2, 0, 4, 0, 1))
    assert a.conjugate() == a.galois_map(p - 1)
    assert a.conjugate().conjugate() == a
    # z * conj(z) = 1 for any root of unity
    assert (z * z.conjugate()) == CycInt.one(p)


def test_galois_map():
    p = 5
    a = CycInt(p, (2, -1, 3, 0))
    assert a.galois_map(1) == a
    assert a.galois_map(2).galois_map(3) == a.galois_map(6)
    assert a.galois_map(6) == a.galois_map(1)
    with pytest.raises(ValueError):
        a.galois_map(10)
    # the four maps permute the conjugates, so their sum is rational
    total = CycInt.zero(p)
    for s in range(1, p):
        total = total + a.galois_map(s)
    assert total.as_integer() is not None


def test_divide_exact():
    a = CycInt(5, (6, -9, 0, 3))
    assert a.divide_exact(3) == CycInt(5, (2, -3, 0, 1))
    assert a.divide_exact(-3) == CycInt(5, (-2, 3, 0, -1))
    with pytest.raises(ValueError):
        a.divide_exact(4)
    with pytest.raises(ZeroDivisionError):
        a.divide_exact(0)


def test_mixed_orders_rejected():
    a = CycInt.one(3)
    b = CycInt.one(5)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(TypeError):
        a + 1


def _schoolbook(p, pairs):
    """sum of a * b by coordinate convolution, then zeta^(p-1) rewritten."""
    counts = [0] * p
    for a, b in pairs:
        a_coeffs = (a,) + (0,) * (p - 2) if isinstance(a, int) else a.coeffs
        for i, x in enumerate(a_coeffs):
            for j, y in enumerate(b.coeffs):
                counts[(i + j) % p] += x * y
    return CycInt(p, [counts[t] - counts[p - 1] for t in range(p - 1)])


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), data=st.data())
def test_combination_matches_schoolbook(p, data):
    coords = st.integers(min_value=-(10**30), max_value=10**30) | small_ints | st.just(0)
    cyc = st.builds(lambda c: CycInt(p, c), st.tuples(*([coords] * (p - 1))))
    zero = st.just(CycInt.zero(p))
    left = st.one_of(coords, cyc, zero)
    pairs = data.draw(st.lists(st.tuples(left, cyc | zero), max_size=6))
    assert combination(p, pairs) == _schoolbook(p, pairs)
    assert combination(p, iter(pairs)) == _schoolbook(p, pairs)


def test_combination_edge_cases():
    for p in (2, 3, 5, 7):
        assert combination(p, []) == CycInt.zero(p)
        zeros = [(0, CycInt.zero(p)), (CycInt.zero(p), root_power(p, 1)), (3, CycInt.zero(p))]
        assert combination(p, zeros) == CycInt.zero(p)
        z = root_power(p, p - 1)
        assert combination(p, [(z, root_power(p, 1))]) == CycInt.one(p)
    with pytest.raises(ValueError, match="mixed root orders"):
        combination(3, [(1, CycInt.one(5))])
    with pytest.raises(ValueError, match="mixed root orders"):
        combination(3, [(CycInt.one(5), CycInt.one(3))])
    with pytest.raises(ValueError, match="mixed root orders"):
        combination(5, [(CycInt.one(5), CycInt.one(5)), (2, CycInt.one(3))])


def _mat_mul(x, y):
    n = len(x)
    return [
        [sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def test_regular_matrix_is_a_homomorphism():
    a = CycInt(5, (1, 2, 0, -1))
    b = CycInt(5, (0, 3, -2, 1))
    left = regular_matrix(a * b)
    right = _mat_mul(regular_matrix(a), regular_matrix(b))
    assert left == right
    ident = regular_matrix(CycInt.one(5))
    assert ident == [[1 if i == j else 0 for j in range(4)] for i in range(4)]


def test_record_round_trip():
    a = CycInt(7, (1, -2, 3, 0, 10 ** 40, -5))
    rec = a.to_record()
    assert rec["p"] == 7
    assert all(isinstance(c, str) for c in rec["coeffs"])
    assert rec["coeffs"] == ["1", "-2", "3", "0", "1" + "0" * 40, "-5"]


def _read_decimal(s):
    """The int of a decimal string of any length, read in chunks that int() takes."""
    digits = s.lstrip("-")
    n = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i : i + 1000]
        n = n * 10 ** len(chunk) + int(chunk)
    return -n if s.startswith("-") else n


@settings(max_examples=40, deadline=None)
@given(
    digits=st.text("0123456789", min_size=1, max_size=12000).filter(lambda s: s == "0" or s[0] != "0"),
    negative=st.booleans(),
)
def test_to_decimal_is_str_at_any_length(digits, negative):
    # past 4300 digits str() refuses on Python 3.11; below, the bytes are str()'s
    n = _read_decimal(digits)
    want = "-" + digits if negative and n else digits
    n = -n if negative else n
    assert to_decimal(n) == want
    if len(digits) < 600:
        assert to_decimal(n) == str(n)


def test_records_and_reprs_past_the_int_digit_limit():
    big = 10**5000 + 123456789
    a = CycInt(3, (big, -7))
    digits = "1" + "0" * 4991 + "123456789"
    assert a.to_record() == {"p": 3, "coeffs": [digits, "-7"]}
    assert repr(a) == "CycInt(p=3, [%s, -7])" % digits
    assert repr(CycInt(5, (1, -2, 0, 3))) == "CycInt(p=5, [1, -2, 0, 3])"


def test_hashable():
    seen = {root_power(5, e) for e in range(10)}
    assert len(seen) == 5
