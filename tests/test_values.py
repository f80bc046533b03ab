"""Value semantics of the package's immutable classes: construction,
validation, equality, hashing, read-only fields and repr."""

import copy
import operator
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfrec
from gfrec.cyclotomic import CycInt, build_unchecked
from gfrec.funcalg import (
    InstantiatedFunction,
    MonomialPattern,
    Rotation,
    ScalarMul,
    Sigma,
    Sum,
    Trapezoid,
    instantiate,
    parse,
)
from gfrec.galois import FieldElement, FieldSpec, make_field
from gfrec.harness import ConjectureReport
from gfrec.numtheory import EigenReport, eigen_check
from gfrec.recurrence import IntPolynomial, Sequence
from gfrec.transfer import TransferSystem, system_for

F3 = make_field(3)
EXPR = "R(2,3)+e2*sigma(2)"
EXPR_REPR = (
    "Sum(parts=(Rotation(pattern=MonomialPattern(offsets=(1, 2, 3))), "
    "ScalarMul(scalar_index=2, expr=Sigma(k=2))))"
)


def _seq():
    return Sequence(3, [CycInt.from_int(3, 5), CycInt.from_int(3, -1)], "oracle")


# one value of each class, and the name of a field of it
VALUES = [
    (MonomialPattern((1, 2)), "offsets"),
    (Rotation(MonomialPattern((1, 2))), "pattern"),
    (Trapezoid(MonomialPattern((1, 2))), "pattern"),
    (Sigma(2), "k"),
    (ScalarMul(1, Sigma(2)), "expr"),
    (parse(EXPR), "parts"),
    (_seq(), "values"),
    (ConjectureReport("trapezoid", 2, "3", (2, 5), 4, None, "proved-case"), "status"),
    (eigen_check(5), "ok"),
    (system_for(parse("tau(3)"), F3), "projection"),
    (make_field(3, 2), "modulus"),
    (F3.from_index(2), "coeffs"),
    (IntPolynomial([-2, -2, 0, 1]), "coeffs"),
    (instantiate(parse("tau(2)"), 3, F3), "terms"),
    (CycInt(5, (1, -2, 0, 2**80)), "coeffs"),
]
IDS = [type(value).__name__ for value, _field in VALUES]


def test_values_are_equal_by_class_and_fields():
    pattern = MonomialPattern((1, 2, 4))
    assert Rotation(pattern) != Trapezoid(pattern)
    assert Trapezoid(pattern) == Trapezoid(MonomialPattern([1, 2, 4]))
    assert Sigma(2) != Sigma(3)
    assert parse(EXPR) == parse(EXPR.replace("+", " + "))
    assert hash(parse(EXPR)) == hash(parse(EXPR.replace("+", " + ")))
    assert len({parse(EXPR), parse(EXPR), parse("R(2,3)"), parse("T(2,3)")}) == 3
    assert _seq() == _seq() and hash(_seq()) == hash(_seq())
    assert _seq() != Sequence(4, _seq().values, "oracle")
    assert eigen_check(5) == eigen_check(5)
    assert make_field(3) == F3 and hash(make_field(3)) == hash(F3)
    assert make_field(3, 2) != make_field(3, 2, (2, 2, 1))  # the same size, another modulus
    assert F3.from_index(2) == -F3.one() and hash(F3.from_index(2)) == hash(-F3.one())
    assert F3.from_index(2) != make_field(5).from_index(2)
    assert len({F3.zero(), F3.one(), F3.from_index(1)}) == 2
    assert IntPolynomial([1, 2, 0]) == IntPolynomial((1, 2)) and hash(IntPolynomial([1, 2, 0])) == hash(IntPolynomial((1, 2)))
    assert IntPolynomial([1, 2]) != IntPolynomial([2, 1])
    assert instantiate(parse("tau(2)"), 3, F3) == instantiate(parse("T(2)"), 3, F3)
    assert instantiate(parse("tau(2)"), 3, F3) != instantiate(parse("tau(2)"), 3, make_field(5))
    assert instantiate(parse("e2*tau(2)+tau(2)"), 3, F3) == InstantiatedFunction(F3, 3, {})  # 2 + 1 = 0 in F_3


def test_a_cycint_equals_only_a_cycint_of_the_same_coordinates():
    c = CycInt(5, (1, -2, 0, 3))
    assert c == build_unchecked((1, -2, 0, 3)) and hash(c) == hash(build_unchecked([1, -2, 0, 3]))
    assert type(c.coeffs) is tuple and c.coeffs == (1, -2, 0, 3) and c.p == 5
    assert len(c) == 4 and list(c) == [1, -2, 0, 3] and c[1] == -2
    for plain in ((1, -2, 0, 3), [1, -2, 0, 3]):
        assert c != plain and plain != c
        assert not c == plain and not plain == c
    assert (1, -2, 0, 3) not in {c} and {c: 1}.get((1, -2, 0, 3)) is None
    # another root order: the same leading coordinates, or the same integer
    assert CycInt(3, (1, -2)) != CycInt(5, (1, -2, 0, 0))
    assert CycInt.from_int(2, 5) != CycInt.from_int(3, 5) and CycInt.zero(2) != CycInt.zero(3)
    assert len({CycInt.zero(2), CycInt.zero(3), CycInt.zero(5), build_unchecked((0,))}) == 3


@pytest.mark.parametrize("compare", [operator.lt, operator.le, operator.gt, operator.ge])
def test_cycint_values_are_not_ordered(compare):
    c, d = CycInt(3, (1, 2)), CycInt(3, (1, 3))
    for left, right in ((c, d), (c, (1, 3)), ((1, 3), c), (c, c)):
        with pytest.raises(TypeError):
            compare(left, right)


@pytest.mark.parametrize("op", [operator.add, operator.iadd, operator.mul, operator.imul, operator.sub])
def test_tuple_operands_are_refused_not_concatenated_or_repeated(op):
    c = CycInt(3, (1, 2))
    for left, right in ((c, (9,)), ((9,), c), (c, [9]), ([9], c), (c, ()), ((), c)):
        with pytest.raises(TypeError):
            op(left, right)
    assert c * 2 == 2 * c == CycInt(3, (2, 4))  # an int scales, it does not repeat


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 13]), data=st.data())
def test_the_unchecked_builder_builds_the_checked_value(p, data):
    coords = data.draw(st.lists(st.integers(-2**70, 2**70), min_size=p - 1, max_size=p - 1))
    built, checked = build_unchecked(coords), CycInt(p, coords)
    assert type(built) is CycInt and built == checked and hash(built) == hash(checked)
    assert built.p == p and built.coeffs == tuple(coords) and repr(built) == repr(checked)
    assert build_unchecked(iter(coords)) == checked


def test_a_transfer_system_is_compared_by_identity():
    a, b = system_for(parse("tau(3)"), F3), system_for(parse("tau(3)"), F3)
    assert a == a and a != b
    assert len({a, b, a}) == 2
    assert a.matrix is a.matrix  # cached in the instance


@pytest.mark.parametrize("value, field", VALUES, ids=IDS)
def test_fields_are_read_only(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    after = getattr(value, field)
    # a CycInt's coeffs is a fresh plain tuple of its own items at every read
    assert after == before if isinstance(value, CycInt) else after is before


@pytest.mark.parametrize("value", [value for value, _field in VALUES], ids=IDS)
def test_values_survive_copy_and_pickle(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and repr(twin) == repr(value)
        assert twin == value or isinstance(value, TransferSystem)


def test_values_take_keyword_arguments():
    pattern = MonomialPattern(offsets=(1, 2))
    assert pattern == MonomialPattern((1, 2))
    assert Rotation(pattern=pattern) == Rotation(pattern)
    assert Trapezoid(pattern=pattern) == Trapezoid(pattern)
    assert Sigma(k=3) == Sigma(3)
    assert ScalarMul(scalar_index=1, expr=Sigma(k=3)) == ScalarMul(1, Sigma(3))
    assert Sum(parts=(Sigma(1), Sigma(2))) == parse("sigma(1)+sigma(2)")
    assert Sequence(n_min=3, values=_seq().values, provenance="oracle") == _seq()
    report = ConjectureReport(
        which="trapezoid", k=2, field="3", checked_range=(2, 5), agreements=4, first_disagreement=None, status="refuted"
    )
    assert report.status == "refuted" and report.checked_range == (2, 5)
    assert EigenReport(p=5, predicted=eigen_check(5).predicted, ok=True) == eigen_check(5)
    assert FieldSpec(p=3, r=1, modulus=(0, 1)) == F3
    assert FieldElement(field=F3, coeffs=(2,)) == F3.from_index(2)
    assert IntPolynomial(coeffs=[-2, 0, 1]) == IntPolynomial([-2, 0, 1])
    assert InstantiatedFunction(field=F3, n=2, terms={(1, 2): F3.one()}) == instantiate(parse("tau(2)"), 2, F3)
    sys_ = system_for(parse("tau(3)"), F3)
    fields = ("label", "field", "sparse", "init", "projection", "n_min")
    twin = TransferSystem(**{name: getattr(sys_, name) for name in fields})
    assert all(getattr(twin, name) is getattr(sys_, name) for name in fields)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: MonomialPattern((2, 3)), "pattern must start with offset 1"),
        (lambda: MonomialPattern((1, 3, 3)), "offsets must be strictly increasing"),
        (lambda: Rotation(MonomialPattern((1,))), "rotation needs a pattern of degree >= 2"),
        (lambda: Trapezoid(MonomialPattern((1,))), "trapezoid needs a pattern of degree >= 2"),
        (lambda: Sigma(0), "sigma needs k >= 1"),
        (lambda: Sequence(0, (CycInt.one(2), CycInt.one(3)), "test"), r"sequence mixes root orders \[2, 3\]"),
    ],
    ids=["offset-1", "increasing", "rotation", "trapezoid", "sigma", "sequence"],
)
def test_validation_messages(make, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        make()


def test_reprs_are_the_keyword_calls():
    assert repr(parse(EXPR)) == EXPR_REPR
    assert repr(_seq()) == "Sequence(n_min=3, values=(CycInt(p=3, [5, 0]), CycInt(p=3, [-1, 0])), provenance='oracle')"
    assert repr(ConjectureReport("rotation", 3, "2", (3, 9), 7, None, "verified-on-range")) == (
        "ConjectureReport(which='rotation', k=3, field='2', checked_range=(3, 9), agreements=7, "
        "first_disagreement=None, status='verified-on-range')"
    )
    assert repr(EigenReport(3, (), False)) == "EigenReport(p=3, predicted=(), ok=False)"
    assert repr(F3) == "FieldSpec(p=3, r=1, modulus=[0, 1])"
    assert repr(make_field(3, 2)) == "FieldSpec(p=3, r=2, modulus=[1, 0, 1])"
    assert repr(make_field(3, 2).from_index(5)) == "FieldElement(3^2, [2, 1])"
    assert repr(IntPolynomial([-2, -2, 0, 1])) == "IntPolynomial([-2, -2, 0, 1])"
    assert repr(instantiate(parse("e2*tau(2)"), 3, F3)) == "InstantiatedFunction(n=3, [2]*X[1, 2] + [2]*X[2, 3])"
    assert repr(InstantiatedFunction(F3, 2, {})) == "InstantiatedFunction(n=2, 0)"
    assert repr(system_for(parse("tau(3)"), F3)) == "TransferSystem(trapezoid(2..3)/F_3, dim=3, n_min=3)"


def test_importing_the_package_and_its_cli_loads_no_dataclasses():
    src = str(Path(gfrec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = (
        "import sys, numpy\n"
        "assert 'dataclasses' not in sys.modules, 'numpy imported dataclasses'\n"
        "import gfrec, gfrec.cli\n"
        "print('dataclasses' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
