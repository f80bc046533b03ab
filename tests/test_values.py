"""Value semantics of the package's immutable classes: construction,
validation, equality, hashing, read-only fields and repr."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import gfrec
from gfrec.cyclotomic import CycInt
from gfrec.funcalg import MonomialPattern, Rotation, ScalarMul, Sigma, Sum, Trapezoid, parse
from gfrec.galois import make_field
from gfrec.harness import ConjectureReport
from gfrec.numtheory import EigenReport, eigen_check
from gfrec.recurrence import Sequence
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
    assert getattr(value, field) is before


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
    sys_ = system_for(parse("tau(3)"), F3)
    fields = ("label", "field", "sparse", "init", "projection", "n0")
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
