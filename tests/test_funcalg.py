"""Tests for the polynomial family expression layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfrec.funcalg import (
    ExprSyntaxError,
    MonomialPattern,
    Rotation,
    ScalarMul,
    Sigma,
    Sum,
    Trapezoid,
    consecutive_rotation,
    evaluate,
    instantiate,
    parse,
    parts,
    seam,
    shift,
    tau,
    unparse,
)
from gfrec.galois import make_field, prime_power


def test_pattern_validation():
    p = MonomialPattern((1, 3, 4))
    assert p.degree == 3
    assert p.width == 4
    with pytest.raises(ValueError):
        MonomialPattern((2, 3))
    with pytest.raises(ValueError):
        MonomialPattern((1, 3, 3))
    with pytest.raises(ValueError):
        MonomialPattern(())


def test_family_validation():
    with pytest.raises(ValueError):
        Rotation(MonomialPattern((1,)))
    with pytest.raises(ValueError):
        Trapezoid(MonomialPattern((1,)))
    with pytest.raises(ValueError):
        Sigma(0)
    assert Sigma(1).min_n() == 1
    assert tau(4).min_n() == 4
    assert consecutive_rotation(3).min_n() == 3


def test_helpers_build_consecutive_patterns():
    assert tau(3).pattern.offsets == (1, 2, 3)
    assert consecutive_rotation(4).pattern.offsets == (1, 2, 3, 4)


def test_parse_atoms():
    assert parse("R(2,3)") == Rotation(MonomialPattern((1, 2, 3)))
    assert parse("T(2,4)") == Trapezoid(MonomialPattern((1, 2, 4)))
    assert parse("sigma(3)") == Sigma(3)
    assert parse("tau(4)") == tau(4)


def test_parse_scalars_and_sums():
    e = parse("e2*T(2,4) + sigma(3)")
    assert isinstance(e, Sum)
    assert e.parts[0] == ScalarMul(2, Trapezoid(MonomialPattern((1, 2, 4))))
    assert e.parts[1] == Sigma(3)
    # the scalar binds only to the atom that follows it
    e2 = parse("e2*R(2)+T(2)")
    assert e2.parts[0] == ScalarMul(2, consecutive_rotation(2))
    assert e2.parts[1] == tau(2)
    # whitespace is ignored
    assert parse(" R(2,3)+ sigma( 2 )".replace(" ", "")) == parse("R(2,3)+sigma(2)")


def test_unparse_round_trip():
    for src in (
        "R(2,3)",
        "T(2,4)",
        "sigma(3)",
        "e2*T(2,3)",
        "R(2) + e1*sigma(2) + T(2,3,5)",
    ):
        e = parse(src)
        assert parse(unparse(e)) == e
        assert unparse(parse(unparse(e))) == unparse(e)


def test_parse_errors():
    for bad in (
        "", "R(2", "R()", "Q(2)", "R(2,)", "R(2,3)++T(2)", "sigma(2,3)", "e2*",
        "e2*e3*tau(3)", "e2tau(3)", "tau(3)sigma(2)", "tau(3)+", "R(2,3))", "tau()",
    ):
        with pytest.raises(ExprSyntaxError):
            parse(bad)


_ATOMS = st.one_of(
    st.integers(2, 12).map(tau),
    st.integers(1, 12).map(Sigma),
    st.builds(
        lambda kind, offsets: kind(MonomialPattern((1,) + tuple(sorted(offsets)))),
        st.sampled_from([Rotation, Trapezoid]),
        st.sets(st.integers(2, 30), min_size=1, max_size=4),
    ),
)
_TERMS = st.builds(lambda atom, scalar: atom if scalar is None else ScalarMul(scalar, atom), _ATOMS, st.none() | st.integers(0, 300))


@settings(max_examples=200, deadline=None)
@given(st.lists(_TERMS, min_size=1, max_size=5))
def test_parse_inverts_unparse(terms):
    e = terms[0] if len(terms) == 1 else Sum(tuple(terms))
    assert parse(unparse(e)) == e


def test_min_n_of_compounds():
    e = parse("R(2) + e1*T(2,5)")
    assert e.min_n() == 5
    assert ScalarMul(1, Sigma(3)).min_n() == 3


def test_shift():
    assert shift(frozenset({1, 2}), 1, 4) == frozenset({2, 3})
    assert shift(frozenset({3, 4}), 2, 4) == frozenset({1, 2})
    assert shift(frozenset({1, 2, 3}), 0, 5) == frozenset({1, 2, 3})
    with pytest.raises(ValueError):
        shift(frozenset({5}), 1, 4)


def test_instantiate_trapezoid():
    f3 = make_field(3)
    g = instantiate(tau(3), 5, f3)
    assert g.n == 5
    assert set(g.terms) == {
        frozenset({1, 2, 3}),
        frozenset({2, 3, 4}),
        frozenset({3, 4, 5}),
    }
    assert all(c == f3.one() for c in g.terms.values())


def test_instantiate_rotation_wraps():
    f3 = make_field(3)
    g = instantiate(consecutive_rotation(2), 4, f3)
    assert set(g.terms) == {
        frozenset({1, 2}),
        frozenset({2, 3}),
        frozenset({3, 4}),
        frozenset({1, 4}),
    }


def test_instantiate_collision_accumulates():
    # at n = 3 every shift of X1X2X3 is the same monomial, so the rotation
    # family collapses to 3 * X1X2X3
    f2 = make_field(2)
    g2 = instantiate(consecutive_rotation(3), 3, f2)
    assert g2.terms == {frozenset({1, 2, 3}): f2.one()}
    # charge 3 kills the coefficient entirely
    f3 = make_field(3)
    g3 = instantiate(consecutive_rotation(3), 3, f3)
    assert g3.terms == {}
    # R(2) at n = 2: both shifts give {1,2}, coefficient 2
    g = instantiate(consecutive_rotation(2), 2, f3)
    assert g.terms == {frozenset({1, 2}): f3.scalar(2)}


def test_instantiate_sigma():
    f2 = make_field(2)
    g = instantiate(Sigma(2), 4, f2)
    assert len(g.terms) == 6


def test_instantiate_scalar_coefficients():
    f4 = make_field(2, 2)
    e = parse("e2*T(2)")
    g = instantiate(e, 3, f4)
    want = f4.from_index(2)
    assert all(c == want for c in g.terms.values())
    with pytest.raises(ValueError):
        instantiate(parse("e7*T(2)"), 3, f4)


def test_instantiate_below_min_n():
    f2 = make_field(2)
    with pytest.raises(ValueError):
        instantiate(tau(4), 3, f2)


@pytest.mark.parametrize(
    "text,message",
    [
        ("T(2,5) + e9*R(2)", "n=3 below the family minimum 5"),
        ("e9*R(2) + T(2,5)", "scalar index 9 out of range for F_3"),
    ],
)
def test_instantiate_raises_the_first_fault_in_expression_order(text, message):
    # both expressions have an atom above n and a scalar out of range: a
    # walk that checked every scalar before yielding would report the scalar
    # of the first one too
    with pytest.raises(ValueError) as err:
        instantiate(parse(text), 3, make_field(3))
    assert str(err.value) == message


def test_parts_walk_in_expression_order_and_check_each_scalar_on_reaching_it():
    f5 = make_field(5)
    r2 = Rotation(MonomialPattern((1, 2)))
    e = Sum((ScalarMul(2, Sum((tau(2), ScalarMul(3, r2)))), Sigma(2), ScalarMul(7, tau(3))))
    walk = parts(e, f5)
    assert next(walk) == (f5.from_index(2), tau(2))
    assert next(walk) == (f5.from_index(1), r2)  # 2 * 3 = 6 = 1 in F_5
    assert next(walk) == (f5.one(), Sigma(2))
    with pytest.raises(ValueError, match="scalar index 7 out of range for F_5"):
        next(walk)


def test_evaluate():
    f3 = make_field(3)
    g = instantiate(tau(2), 3, f3)  # X1X2 + X2X3
    pt = [f3.scalar(1), f3.scalar(2), f3.scalar(1)]
    assert evaluate(g, pt) == f3.scalar(1)
    assert evaluate(g, [f3.zero()] * 3) == f3.zero()
    with pytest.raises(ValueError):
        evaluate(g, pt[:2])


def test_evaluate_collapsed():
    f2 = make_field(2)
    g = instantiate(consecutive_rotation(3), 3, f2)
    one, zero = f2.one(), f2.zero()
    assert evaluate(g, [one, one, one]) == one
    assert evaluate(g, [one, one, zero]) == zero


def test_instantiated_equality():
    f2 = make_field(2)
    a = instantiate(tau(2), 4, f2)
    b = instantiate(parse("T(2)"), 4, f2)
    assert a == b
    assert a != instantiate(tau(2), 5, f2)


def _restricted(g, n):
    """The terms of g in the variables 1..n."""
    return {mono: c for mono, c in g.terms.items() if max(mono) <= n}


_STABLE_ATOMS = st.one_of(
    st.integers(1, 4).map(lambda k: "sigma(%d)" % k),
    st.integers(2, 5).map(lambda k: "tau(%d)" % k),
    st.lists(st.integers(2, 5), min_size=1, max_size=3, unique=True).map(lambda o: "T(%s)" % ",".join(map(str, sorted(o)))),
)


@st.composite
def _stable_exprs(draw):
    """A sum of one to three trapezoid and sigma(k) atoms, some scaled, and
    a field whose elements every scalar names."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    parts = draw(st.lists(st.tuples(st.integers(0, q - 1) | st.none(), _STABLE_ATOMS), min_size=1, max_size=3))
    text = " + ".join(atom if c is None else "e%d*%s" % (c, atom) for c, atom in parts)
    return parse(text), make_field(*prime_power(q))


@settings(max_examples=60, deadline=None)
@given(_stable_exprs(), st.integers(0, 4))
def test_trapezoids_and_sigma_are_prefix_stable(case, extra):
    # without a rotation the seam is empty, and f_n is f_N with
    # x_(n+1) = ... = x_N = 0: its terms are those of f_N in the variables
    # 1..n, whatever collides or cancels
    e, field = case
    trapezoids, w, wrapped = seam(e, field)
    assert (trapezoids, w, wrapped.n, wrapped.terms) == (e, 0, 0, {})
    top = e.min_n() + extra
    g = instantiate(e, top, field)
    for n in range(e.min_n(), top):
        assert _restricted(g, n) == instantiate(e, n, field).terms


@pytest.mark.parametrize("text", ["R(2,3)", "R(2) + T(2,3)", "e1*R(2) + sigma(2)"])
def test_rotations_are_not_prefix_stable(text):
    # a rotation's wrapped translates at n, such as x_4 x_1 of R(2) at
    # n = 4, are not terms of f_N
    e, f3 = parse(text), make_field(3)
    assert seam(e, f3)[1] >= 2
    g = instantiate(e, 8, f3)
    assert _restricted(g, 4) != instantiate(e, 4, f3).terms


_PATTERNS = st.lists(st.integers(2, 5), min_size=1, max_size=3, unique=True).map(lambda o: "(%s)" % ",".join(map(str, sorted(o))))
_ATOMS = st.one_of(_PATTERNS.map("R".__add__), _PATTERNS.map("T".__add__), st.integers(1, 3).map(lambda k: "sigma(%d)" % k))


@st.composite
def _rotation_exprs(draw):
    """A sum of one to three atoms, at least one a rotation, some scaled,
    and a field F_2..F_9 whose elements every scalar names."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    atoms = [draw(_PATTERNS.map("R".__add__))] + draw(st.lists(_ATOMS, max_size=2))
    atoms = draw(st.permutations(atoms))
    scalars = draw(st.lists(st.integers(0, q - 1) | st.none(), min_size=len(atoms), max_size=len(atoms)))
    text = " + ".join(atom if c is None else "e%d*%s" % (c, atom) for c, atom in zip(scalars, atoms))
    return parse(text), make_field(*prime_power(q))


def _relabelled(wrapped, n):
    """The seam's terms at n: a = x_1..x_s stays, u = x_(s+1)..x_2s moves to x_(n-s+1)..x_n."""
    s = wrapped.n // 2
    return {frozenset(v if v <= s else v + n - 2 * s for v in mono): c for mono, c in wrapped.terms.items()}


@settings(max_examples=80, deadline=None)
@given(_rotation_exprs())
def test_a_rotation_is_its_trapezoid_plus_the_seam(case):
    # for n >= 2w - 2 the wrapped translates are one polynomial W(u, a) in
    # the first and the last w - 1 variables, moved to each n
    e, field = case
    trapezoids, w, wrapped = seam(e, field)
    assert "R" not in unparse(trapezoids) and w >= 2 and wrapped.n == 2 * w - 2
    assert all(mono & set(range(w, 2 * w - 1)) for mono in wrapped.terms)  # W(0, a) = 0
    start = max(e.min_n(), 2 * w - 2)
    for n in range(start, start + 7):
        terms = dict(instantiate(trapezoids, n, field).terms)
        for mono, c in _relabelled(wrapped, n).items():
            terms[mono] = terms[mono] + c if mono in terms else c
        assert {m: c for m, c in terms.items() if not c.is_zero()} == instantiate(e, n, field).terms
