"""Tests for recurrence checking, extension, discovery and named families."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfrec import linalg
from gfrec.cyclotomic import CycInt, combination, root_power
from gfrec.funcalg import parse, tau
from gfrec.galois import is_prime, make_field, prime_power
from gfrec.numtheory import legendre
from gfrec.oracle import sum_sequence
from gfrec.recurrence import (
    FAMILIES,
    InsufficientDataError,
    IntPolynomial,
    NoRecurrenceError,
    Sequence,
    _linear_complexity,
    discover,
    divides,
    extend,
    family_poly,
    satisfies,
)
from gfrec.transfer import integer_annihilator, run, system_for


def iseq(vals, n_min=0, p=2):
    return Sequence(n_min, tuple(CycInt.from_int(p, v) for v in vals), "test")


# ---------------------------------------------------------------------------
# IntPolynomial

def test_polynomial_basics():
    f = IntPolynomial([-2, -2, 0, 1, 0, 0])
    assert f.coeffs == (-2, -2, 0, 1)
    assert f.degree == 3
    assert f.monic
    assert not IntPolynomial([1, 2]).monic
    with pytest.raises(ValueError):
        IntPolynomial([0, 0])
    with pytest.raises(ValueError):
        IntPolynomial([])


def test_polynomial_multiplication():
    a = IntPolynomial([-1, 1])
    b = IntPolynomial([1, 1])
    assert a * b == IntPolynomial([-1, 0, 1])
    # (X^2 + 3X + 3)(X^4 - 3X^3 + 6X^2 - 9X + 9) = X^6 + 27
    left = IntPolynomial([3, 3, 1]) * IntPolynomial([9, -9, 6, -3, 1])
    assert left == IntPolynomial([27, 0, 0, 0, 0, 0, 1])


def test_polynomial_pretty():
    assert IntPolynomial([-2, -2, 0, 1]).pretty() == "X^3 - 2*X - 2"
    assert IntPolynomial([5]).pretty() == "5"
    assert IntPolynomial([1, -1]).pretty() == "-X + 1"
    assert IntPolynomial([0, 0, 3]).pretty() == "3*X^2"


def test_divides():
    x2m1 = IntPolynomial([-1, 0, 1])
    assert divides(IntPolynomial([-1, 1]), x2m1)
    assert divides(IntPolynomial([-2, 2]), x2m1)  # rational divisibility
    assert not divides(IntPolynomial([2, 1]), IntPolynomial([1, 0, 1]))


def _rational_remainder(b, a):
    """b mod a by long division over Q, on ascending coefficient lists."""
    rem = [Fraction(c) for c in b]
    while len(rem) >= len(a):
        factor = rem[-1] / a[-1]
        shift = len(rem) - len(a)
        for i, c in enumerate(a):
            rem[shift + i] -= factor * c
        rem.pop()
    return rem


def _polynomials(terms, bound):
    """Integer polynomials with up to terms + 1 coefficients, often non-monic;
    no lower terms gives a constant."""
    lower = st.lists(st.integers(-bound, bound), max_size=terms)
    lead = st.integers(-bound, bound).filter(bool)
    return st.builds(lambda cs, c: IntPolynomial(cs + [c]), lower, lead)


@settings(max_examples=200, deadline=None)
@given(_polynomials(4, 4), _polynomials(5, 6), _polynomials(8, 9))
def test_divides_is_rational_divisibility(a, c, b):
    assert divides(a, a * c)
    assert divides(a, b) == (not any(_rational_remainder(b.coeffs, a.coeffs)))


# ---------------------------------------------------------------------------
# Sequence

def test_sequence_basics():
    s = iseq([1, 2, 3], n_min=5)
    assert len(s) == 3
    assert s.n_end == 8
    assert s.value_at(6).as_integer() == 2
    with pytest.raises(IndexError):
        s.value_at(8)
    with pytest.raises(IndexError):
        s.value_at(4)
    assert s.as_integers() == [1, 2, 3]


def test_sequence_rejects_mixed_root_orders():
    with pytest.raises(ValueError):
        Sequence(0, (CycInt.one(2), CycInt.one(3)), "test")


def test_sequence_irrational_entries():
    s = Sequence(0, (CycInt.from_int(3, 4), root_power(3, 1)), "test")
    assert s.as_integers() == [4, None]


# ---------------------------------------------------------------------------
# named families, frozen coefficient values

def test_family_p_k():
    assert family_poly("P_K", k=2).coeffs == (-2, 0, 1)
    assert family_poly("P_K", k=3).coeffs == (-2, -2, 0, 1)
    assert family_poly("P_K", k=5).coeffs == (-2, -2, -2, -2, 0, 1)
    with pytest.raises(ValueError):
        family_poly("P_K", k=1)


def test_family_q_trap():
    f3 = make_field(3)
    assert family_poly("Q_TRAP", k=3, field=f3).coeffs == (-6, -3, 0, 1)
    f4 = make_field(2, 2)
    assert family_poly("Q_TRAP", k=4, field=f4).coeffs == (-36, -12, -4, 0, 1)
    # over F_2 the trapezoid family polynomial is the rotation one
    f2 = make_field(2)
    for k in range(2, 7):
        assert family_poly("Q_TRAP", k=k, field=f2) == family_poly("P_K", k=k)
    with pytest.raises(ValueError):
        family_poly("Q_TRAP", k=3)


def test_family_q_k():
    assert family_poly("Q_K", k=4).coeffs == (-4, 0, 0, -2, 0, 1)
    assert family_poly("Q_K", k=5).coeffs == (-4, 0, 0, -2, -2, 0, 1)
    with pytest.raises(ValueError):
        family_poly("Q_K", k=3)


def test_family_rot2():
    assert family_poly("ROT2", field=make_field(3)).coeffs == (-9, 0, 0, 0, 1)
    assert family_poly("ROT2", field=make_field(5)).coeffs == (-25, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        family_poly("ROT2", field=make_field(2))
    with pytest.raises(ValueError):
        family_poly("ROT2", field=make_field(3, 2))


def test_family_quadsym():
    # X^6 + 27 for p = 3 (where -1 is a non-residue)
    assert family_poly("QUADSYM", field=make_field(3)).coeffs == (27, 0, 0, 0, 0, 0, 1)
    # X^10 - 3125 for p = 5 (where -1 is a residue)
    f5 = family_poly("QUADSYM", field=make_field(5))
    assert f5.degree == 10
    assert f5.coeffs[0] == -3125


def test_family_quadsym_constant_term_follows_the_quadratic_character_of_minus_one():
    for p in range(3, 60):
        if is_prime(p):
            poly = family_poly("QUADSYM", field=make_field(p))
            assert poly.coeffs[0] == -legendre(-1, p) * p**p


def test_family_mix():
    assert family_poly("MIX1", k=2).coeffs == (2, -2, 1)
    assert family_poly("MIX1", k=4).coeffs == (2, 0, 0, -2, 1)
    assert family_poly("MIX2", k=4).coeffs == (-2, 2, 0, -2, 1)
    assert family_poly("MIX3", k=4).coeffs == (-2, 0, -2, 0, 1)
    assert family_poly("MIX3", k=6).coeffs == (-2, 0, -2, -2, -2, 0, 1)
    with pytest.raises(ValueError):
        family_poly("MIX3", k=3)


def test_family_registry():
    assert len(FAMILIES) == 8
    with pytest.raises(ValueError):
        family_poly("NOPE", k=3)


def _paper_formula(name, k, f):
    """The paper's recurrence of a named family, degree -> coefficient."""
    if name == "P_K":  # X^k - 2 (X^(k-2) + ... + 1)
        return {k: 1, **{d: -2 for d in range(k - 1)}}
    if name == "Q_TRAP":  # X^k - q sum_d (q-1)^(k-2-d) X^d
        return {k: 1, **{d: -f.q * (f.q - 1) ** (k - 2 - d) for d in range(k - 1)}}
    if name == "Q_K":  # X^(k+1) - 2 (X^(k-1) + ... + X^3) - 4
        return {k + 1: 1, 0: -4, **{d: -2 for d in range(3, k)}}
    if name == "ROT2":
        return {4: 1, 0: -f.p**2}
    if name == "QUADSYM":
        return {2 * f.p: 1, 0: -legendre(-1, f.p) * f.p**f.p}
    if name == "MIX1":
        return {k: 1, k - 1: -2, 0: 2}
    if name == "MIX2":
        return {k: 1, k - 1: -2, 1: 2, 0: -2}
    assert name == "MIX3"  # X^k - 2 (X^(k-2) + ... + X^2) - 2
    return {k: 1, 0: -2, **{d: -2 for d in range(2, k - 1)}}


def test_every_family_is_the_papers_formula():
    least = {"P_K": 2, "Q_TRAP": 2, "Q_K": 4, "ROT2": None, "QUADSYM": None, "MIX1": 2, "MIX2": 3, "MIX3": 4}
    assert FAMILIES == tuple(least)
    fields = [make_field(*prime_power(q)) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)]
    odd_prime = [f for f in fields if f.r == 1 and f.p > 2]
    for name, k_min in least.items():
        over = {"Q_TRAP": fields, "ROT2": odd_prime, "QUADSYM": odd_prime}.get(name, [None])
        for k in [None] if k_min is None else range(k_min, 13):
            for f in over:
                terms = _paper_formula(name, k, f)
                want = tuple(terms.get(d, 0) for d in range(max(terms) + 1))
                assert family_poly(name, k, f).coeffs == want, (name, k, f)
        for k in [] if k_min is None else [None, k_min - 1]:
            with pytest.raises(ValueError, match=r"^%s needs k >= %d$" % (name, k_min)):
                family_poly(name, k)
    with pytest.raises(ValueError, match="^Q_TRAP needs a field$"):
        family_poly("Q_TRAP", 3)
    for name in ("ROT2", "QUADSYM"):
        for f in [None] + [f for f in fields if f not in odd_prime]:
            with pytest.raises(ValueError, match="^%s needs an odd prime field$" % name):
                family_poly(name, 3, f)
    with pytest.raises(ValueError, match="^unknown family 'NOPE'$"):
        family_poly("NOPE", k=3)


# ---------------------------------------------------------------------------
# satisfies / extend / discover

def test_satisfies():
    fib = iseq([1, 1, 2, 3, 5, 8, 13])
    assert satisfies(fib, IntPolynomial([-1, -1, 1]))
    assert not satisfies(fib, IntPolynomial([-2, 0, 1]))
    with pytest.raises(InsufficientDataError):
        satisfies(iseq([1, 1]), IntPolynomial([-1, -1, 1]))


def test_extend_forward():
    fib = extend(iseq([1, 1], n_min=1), IntPolynomial([-1, -1, 1]), 10)
    assert fib.as_integers() == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    # a target inside the known range is a no-op
    same = extend(fib, IntPolynomial([-1, -1, 1]), 4)
    assert same.values == fib.values


def test_extend_backward():
    fib = extend(iseq([1, 1], n_min=1), IntPolynomial([-1, -1, 1]), -2)
    assert fib.n_min == -2
    assert fib.as_integers() == [-1, 1, 0, 1, 1]


def test_extend_forward_matches_brute_sums():
    # three enumerated terms of tau(3) over F_2 and X^3 - 2X - 2 give the rest
    f2 = make_field(2)
    init = sum_sequence(tau(3), f2, range(3, 6))
    seq = extend(init, family_poly("P_K", k=3), 11)
    assert seq.values == sum_sequence(tau(3), f2, range(3, 12)).values


def test_extend_backward_then_forward_across_the_start():
    fib = iseq([1, 1, 2, 3, 5, 8, 13], n_min=5)
    poly = IntPolynomial([-1, -1, 1])
    before = extend(fib, poly, 3)
    assert (before.n_min, before.as_integers()[:5]) == (3, [1, 0, 1, 1, 2])
    around = extend(extend(fib, poly, 1), poly, 13)
    assert (around.n_min, around.as_integers()) == (1, [2, -1, 1, 0, 1, 1, 2, 3, 5, 8, 13, 21, 34])


def test_extend_backward_failures():
    with pytest.raises(ValueError):
        extend(iseq([3], n_min=1), IntPolynomial([-2, 1]), 0)  # 3 not divisible
    with pytest.raises(ValueError):
        extend(iseq([1, 2], n_min=1), IntPolynomial([0, 0, 1]), 0)  # c0 = 0
    with pytest.raises(ValueError):
        extend(iseq([1, 2]), IntPolynomial([-1, 2]), 5)  # not monic
    with pytest.raises(InsufficientDataError):
        extend(iseq([1]), IntPolynomial([-1, -1, 1]), 5)


def test_discover_fibonacci():
    fib = extend(iseq([1, 1], n_min=1), IntPolynomial([-1, -1, 1]), 12)
    assert discover(fib, 4) == IntPolynomial([-1, -1, 1])


def test_discover_prefers_minimal_order():
    geo = iseq([1, 2, 4, 8, 16, 32, 64, 128, 256])
    assert discover(geo, 3) == IntPolynomial([-2, 1])


def test_discover_clears_denominators():
    # s(n+1) = (3/2) s(n) has the integer annihilator 2X - 3
    seq = iseq([16, 24, 36, 54, 81])
    found = discover(seq, 1, holdout=1)
    assert found == IntPolynomial([-3, 2])
    assert satisfies(seq, found)
    # the same ratio on 16 3^n 2^(12 - n), n = 0..12: the fit is not monic
    assert discover(iseq([16 * 3**n * 2 ** (12 - n) for n in range(13)]), 4) == IntPolynomial([-3, 2])


def test_discover_cyclotomic_components():
    # s(n) = zeta_3^n is annihilated by X^2 + X + 1
    vals = tuple(root_power(3, n) for n in range(9))
    seq = Sequence(0, vals, "test")
    assert discover(seq, 3) == IntPolynomial([1, 1, 1])


def test_discover_rejects_factorials():
    fact = [1, 1, 2, 6, 24, 120, 720, 5040, 40320, 362880]
    with pytest.raises(NoRecurrenceError):
        discover(iseq(fact), 2)


def test_discover_needs_enough_terms():
    with pytest.raises(InsufficientDataError):
        discover(iseq([1, 1, 2, 3, 5]), 2)  # needs 2*2 + 2 = 6
    assert discover(iseq([1, 1, 2, 3, 5]), 2, holdout=1) == IntPolynomial([-1, -1, 1])
    with pytest.raises(ValueError):
        discover(iseq([1, 2, 3]), 0)


def test_extend_needs_an_initial_term():
    empty = Sequence(0, (), "test")
    with pytest.raises(InsufficientDataError):
        extend(empty, IntPolynomial([1]), 3)
    with pytest.raises(InsufficientDataError):
        extend(empty, IntPolynomial([-1, -1, 1]), 3)


# ---------------------------------------------------------------------------
# the coordinate-column kernels against one combination per term

def _reference_extend(init, poly, n_target):
    """Term-by-term extension on CycInt values, one combination per term."""
    d = poly.degree
    values = list(init.values)
    n_min = init.n_min
    p = values[0].p
    while n_min + len(values) - 1 < n_target:
        values.append(-combination(p, zip(poly.coeffs[:d], values[-d:] if d else [])))
    while n_min > n_target:
        c0 = poly.coeffs[0]
        if c0 == 0:
            raise ValueError("constant term zero, cannot step backward")
        values.insert(0, (-combination(p, zip(poly.coeffs[1:], values))).divide_exact(c0))
        n_min -= 1
    return Sequence(n_min, tuple(values), "recurrence")


def _reference_satisfies(seq, poly):
    d = poly.degree
    p = seq.values[0].p
    return all(
        combination(p, zip(poly.coeffs, seq.values[s : s + d + 1])).is_zero()
        for s in range(len(seq) - d)
    )


@st.composite
def monic_recurrences(draw):
    """(monic polynomial, initial sequence): p in 2, 3, 5, 7, any number of
    nonzero lower coefficients (taps), coordinates small or up to 2^200."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.integers(0, 6))
    lower = [0] * d
    for j in draw(st.permutations(range(d)))[: draw(st.integers(0, d))]:
        lower[j] = draw(st.integers(-4, 4).filter(bool))
    if d and draw(st.booleans()):  # a unit constant term steps back integrally
        lower[0] = draw(st.sampled_from([1, -1]))
    coord = st.integers(-50, 50) | st.integers(-(2**200), 2**200)
    count = draw(st.integers(max(d, 1), d + 3))
    values = [CycInt(p, draw(st.lists(coord, min_size=p - 1, max_size=p - 1))) for _ in range(count)]
    return IntPolynomial(lower + [1]), Sequence(draw(st.integers(-3, 3)), tuple(values), "test")


def _tap_examples(test):
    """Extensions on 0, 1, 2 and 4 nonzero taps, forward and backward, on
    coordinates past 2^200."""
    polys = [
        IntPolynomial([1]),
        IntPolynomial([0, 0, 1]),
        IntPolynomial([-1, 0, 0, 1]),
        IntPolynomial([1, 0, -3, 1]),
        IntPolynomial([-1, 2, 0, -4, 3, 1]),
    ]
    big = 2**200
    init = Sequence(2, tuple(CycInt(5, (big + i, -big, i, 7 - big * i)) for i in range(6)), "test")
    for poly in polys:
        for offset in (-8, 40):
            test = example((poly, init), offset)(test)
    return test


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(monic_recurrences(), st.integers(-8, 40))
@_tap_examples
def test_extend_matches_the_term_by_term_loop(case, offset):
    poly, init = case
    n_target = init.n_min + offset
    got = _outcome(extend, init, poly, n_target)
    assert got == _outcome(_reference_extend, init, poly, n_target)
    if isinstance(got, Sequence):
        assert got.n_min == min(init.n_min, n_target)


@settings(max_examples=100, deadline=None)
@given(monic_recurrences(), st.integers(0, 12), st.data())
def test_satisfies_matches_the_term_by_term_loop(case, more, data):
    poly, init = case
    seq = extend(init, poly, init.n_end - 1 + more)
    if len(seq) > poly.degree and data.draw(st.booleans()):  # perturb one coordinate
        values = list(seq.values)
        i = data.draw(st.integers(0, len(values) - 1))
        coords = list(values[i].coeffs)
        coords[data.draw(st.integers(0, len(coords) - 1))] += data.draw(st.integers(1, 3))
        values[i] = CycInt(values[i].p, coords)
        seq = Sequence(seq.n_min, tuple(values), "test")
    if len(seq) <= poly.degree:
        with pytest.raises(InsufficientDataError):
            satisfies(seq, poly)
        return
    assert satisfies(seq, poly) == _reference_satisfies(seq, poly)


def test_extend_backward_non_integral_message():
    # 2 s(n) = s(n + 1) - s(n + 2): s(1) = (-1, -2), then 2 s(0) = (-2, -3)
    poly = IntPolynomial([2, -1, 1])
    init = Sequence(2, (CycInt(3, (1, 1)), CycInt(3, (3, 5))), "test")
    assert extend(init, poly, 1).values[0] == CycInt(3, (-1, -2))
    message = "non-integral division of CycInt(p=3, [-2, -3]) by 2"
    for fn in (extend, _reference_extend):
        with pytest.raises(ValueError) as info:
            fn(init, poly, 0)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "coords",
    [
        [[0, 0, 0, 0]],  # every column zero
        [[1, 0, 1, 0], [2, 0, 2, 0]],  # two zero columns, two equal ones
        [[3, 3, 3, 3], [-1, -1, -1, -1]],  # every column equal
        [[2**200, 0, 1, 2**200], [5, 0, -7, 5], [0, 0, 2, 0]],
        [[1, 2, 3, 4], [-4, 3, 0, 1], [9, 9, -2, 0]],  # all distinct
    ],
    ids=["all-zero", "zero-and-equal", "all-equal", "big-zero-and-equal", "distinct"],
)
@pytest.mark.parametrize("poly", [IntPolynomial([1]), IntPolynomial([-1, 0, 2, 1]), IntPolynomial([1, -3, 0, 1])])
@pytest.mark.parametrize("offset", [-4, 0, 3, 30])
def test_extend_and_satisfies_share_zero_and_equal_columns(coords, poly, offset):
    # coords lists terms over Z[zeta_5], repeated to four terms: a column
    # is zero or equal to another when it is so in every listed term
    init = Sequence(4, tuple(CycInt(5, coords[i % len(coords)]) for i in range(4)), "test")
    n_target = init.n_end - 1 + offset
    got = _outcome(extend, init, poly, n_target)
    assert got == _outcome(_reference_extend, init, poly, n_target)
    if isinstance(got, Sequence):
        last = got.values[-1].coeffs  # one copy of a zero or repeated column changed
        broken = Sequence(got.n_min, got.values[:-1] + (CycInt(5, last[:3] + (last[3] + 1,)),), "test")
        for seq in (got, broken):
            assert satisfies(seq, poly) == _reference_satisfies(seq, poly)
        assert not satisfies(broken, poly) or offset <= 0


# ---------------------------------------------------------------------------
# discover's column-by-column fit against the order-by-order loop

def _reference_discover(seq, max_order, holdout=None):
    """discover solving every order from 1 on every coordinate column."""
    if holdout is None:
        holdout = max_order
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    needed = 2 * max_order + holdout
    if len(seq) < needed:
        raise InsufficientDataError(
            "need at least %d terms (2*max_order + holdout), have %d" % (needed, len(seq))
        )
    fit_len = len(seq) - holdout
    cols = [list(col) for col in zip(*(v.coeffs for v in seq.values))]
    for order in range(1, max_order + 1):
        starts = range(fit_len - order)
        rows = [col[s : s + order] for col in cols for s in starts]
        rhs = [-col[s + order] for col in cols for s in starts]
        solved = linalg.solve_with_free_zero(rows, rhs)
        if solved is None:
            continue
        x, d = solved
        g = gcd(d, *x)
        candidate = IntPolynomial([c // g for c in x] + [d // g])
        if all(
            sum(c * col[s + j] for j, c in enumerate(candidate.coeffs)) == 0
            for col in cols
            for s in range(len(col) - candidate.degree)
        ):
            return candidate
    raise NoRecurrenceError("no recurrence of order <= %d validates on the held-out terms" % max_order)


@st.composite
def _fit_cases(draw):
    """(sequence, max_order, holdout) over Z, Z[zeta_3] or Z[zeta_5]: random,
    all-zero, constant, periodic, monic-recurrent and rational (non-monic)
    sequences, and columns whose recurrences share a factor, with some
    columns zeroed, copied from another, -65537 times another or the sum of
    two, so some residuals of the fit are zero or short.  A long sequence
    has a recurrence of high order and a max_order far below it."""
    p = draw(st.sampled_from([2, 3, 5]))
    # "shared" twice: it is the kind whose later columns' residuals widen the fit
    kinds = ["random", "zero", "constant", "periodic", "monic", "rational", "shared", "shared", "long"]
    kind = draw(st.sampled_from(kinds))
    length = draw(st.integers(40, 80) if kind == "long" else st.integers(14, 30) if kind == "shared" else st.integers(3, 24))
    small = st.integers(-9, 9)
    least = 1  # the least max_order to draw, when there are terms for it
    if kind == "random":
        cols = [draw(st.lists(small, min_size=length, max_size=length)) for _ in range(p - 1)]
    elif kind == "zero":
        cols = [[0] * length for _ in range(p - 1)]
    elif kind in ("constant", "periodic"):
        period = 1 if kind == "constant" else draw(st.integers(2, 5))
        cols = [[c[i % period] for i in range(length)]
                for c in (draw(st.lists(small, min_size=period, max_size=period)) for _ in range(p - 1))]
    else:
        lead = draw(st.sampled_from([2, 3, -2])) if kind == "rational" else 1
        if kind == "shared":  # a common factor times X - a, a different a for each column
            common = IntPolynomial(draw(st.lists(st.integers(-3, 3), min_size=1, max_size=2)) + [1])
            roots = draw(st.lists(st.integers(-3, 3), min_size=p - 1, max_size=p - 1, unique=True))
            recs = [(common * IntPolynomial([-a, 1])).coeffs[:-1] for a in roots]
            least = common.degree + p - 1  # the degree of the lcm, unless common has a root a
        else:
            d = draw(st.integers(8, 12) if kind == "long" else st.integers(1, 4))
            recs = [draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))] * (p - 1)
        cols = []
        for cs in recs:
            d = len(cs)
            col = [x * lead**length for x in draw(st.lists(small, min_size=d, max_size=d))]
            while len(col) < length:  # lead * s(n + d) = -sum_j cs[j] s(n + j), exactly
                col.append(-sum(c * x for c, x in zip(cs, col[-d:])) // lead)
            cols.append(col)
    other = st.integers(0, p - 2)
    for k in range(p - 1):
        how = draw(st.sampled_from(["keep", "keep", "keep", "zero", "copy", "scaled", "sum"]))
        if how == "zero":
            cols[k] = [0] * length
        elif how == "copy":
            cols[k] = list(cols[draw(other)])
        elif how == "scaled":
            cols[k] = [-65537 * x for x in cols[draw(other)]]
        elif how == "sum":
            cols[k] = [a + b for a, b in zip(cols[draw(other)], cols[draw(other)])]
    seq = Sequence(draw(st.integers(0, 3)), tuple(CycInt(p, t) for t in zip(*cols)), "test")
    holdout = draw(st.sampled_from([None, 1, 2]))
    top = length // 3 if holdout is None else (length - holdout) // 2
    max_order = draw(st.integers(min(least, top + 1), 3 if kind == "long" else max(1, top + 1)))  # one past top: too few terms
    return seq, max_order, holdout


@settings(max_examples=300, deadline=None)
@given(_fit_cases())
def test_discover_matches_the_order_by_order_loop(case):
    seq, max_order, holdout = case
    got = _outcome(discover, seq, max_order, holdout)
    assert got == _outcome(_reference_discover, seq, max_order, holdout)


def test_discover_fits_degree_36_on_sigma3_over_f9():
    f = make_field(*prime_power(9))
    sys = system_for(parse("sigma(3)"), f)
    ann = integer_annihilator(sys)
    seq = run(sys, sys.n_min + 3 * ann.degree + 2)
    found = discover(seq, ann.degree)
    assert (ann.degree, len(seq)) == (36, 111)
    assert found.degree == 36 and divides(found, ann)


def test_discover_takes_the_lcm_of_dependent_columns():
    # 65537 x and -x: the second column's residual under X^2 - X - 1 is zero;
    # 65537 x + 2^n and -x: the first column needs (X^2 - X - 1)(X - 2), and
    # the second then adds nothing; in the other order the second column's
    # residual 2^n adds X - 2
    fib = [1, 1]
    while len(fib) < 14:
        fib.append(fib[-1] + fib[-2])
    cancelling = [(65537 * x, -x) for x in fib]
    geometric = [(65537 * x + 2**n, -x) for n, x in enumerate(fib)]
    for coords, joint in (
        (cancelling, IntPolynomial([-1, -1, 1])),
        (geometric, IntPolynomial([-1, -1, 1]) * IntPolynomial([-2, 1])),
        ([(y, x) for x, y in geometric], IntPolynomial([-1, -1, 1]) * IntPolynomial([-2, 1])),
    ):
        seq = Sequence(0, tuple(CycInt(3, t) for t in coords), "test")
        found = discover(seq, 4)
        assert found == joint == _reference_discover(seq, 4)


def _least_register(s):
    """The least L for which s(n) = sum_i c_i s(n - i), 1 <= i <= L, holds on
    L <= n < len(s) for some rational c: the first consistent window system."""
    for length in range(len(s) + 1):
        starts = range(len(s) - length)
        if linalg.solve_with_free_zero([s[n : n + length] for n in starts], [s[n + length] for n in starts]):
            return length


def test_linear_complexity_cases():
    fib = [1, 1]
    while len(fib) < 12:
        fib.append(fib[-1] + fib[-2])
    assert _linear_complexity([]) == (0, [1])
    assert _linear_complexity([0] * 7) == (0, [1])
    assert _linear_complexity([3 * 2**n for n in range(10)]) == (1, [1, -2])
    assert _linear_complexity(fib) == (2, [1, -1, -1])
    assert _linear_complexity([2**300 * x for x in fib]) == (2, [1, -1, -1])
    for n in range(1, 9):
        assert _linear_complexity([0] * (n - 1) + [1])[0] == n  # no window: any register
    assert _linear_complexity([16, 24, 36, 54, 81]) == (1, [2, -3])  # s(n+1) = (3/2) s(n)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 3), max_size=14), st.integers(0, 4), st.integers(0, 6))
def test_linear_complexity_is_the_least_register(s, period, cap):
    if period:  # repeat the first terms, so the least register is short
        s = [s[i % period] for i in range(len(s))]
    least = _least_register(s)
    length, register = _linear_complexity(s)
    assert length == least
    # the connection polynomial has degree L, read backwards, and is the register
    assert len(register) == length + 1 and register[0] != 0
    assert all(sum(c * s[n - i] for i, c in enumerate(register)) == 0 for n in range(length, len(s)))
    # with a cap it may stop early, at a complexity above the cap
    capped, _ = _linear_complexity(s, cap)
    assert capped == least if least <= cap else cap < capped <= least
