"""Tests for the polynomial family expression layer."""

import pytest

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
    shift,
    tau,
    unparse,
)
from gfrec.galois import make_field


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
    for bad in ("", "R(2", "R()", "Q(2)", "R(2,)", "R(2,3)++T(2)", "sigma(2,3)", "e2*"):
        with pytest.raises(ExprSyntaxError):
            parse(bad)


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
