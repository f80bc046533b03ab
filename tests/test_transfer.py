"""Tests for transfer state systems and their integer annihilators."""

import json
from pathlib import Path

import pytest

from gfrec.cyclotomic import CycInt, root_power
from gfrec.funcalg import Sigma, parse, tau
from gfrec.galois import make_field, prime_power
from gfrec.linalg import certify
from gfrec.limits import ResourceLimitExceeded
from gfrec.oracle import sum_sequence
from gfrec.recurrence import IntPolynomial, divides, family_poly, satisfies
from gfrec.transfer import (
    build_quadratic_matrix,
    build_rotation_system,
    build_symmetric_system,
    build_trapezoid_system,
    integer_annihilator,
    run,
    step,
    system_for,
)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)


def _assert_matches_brute(sys, e, field, n_hi):
    got = run(sys, n_hi)
    want = sum_sequence(e, field, range(sys.n_min, n_hi + 1))
    assert got.values == want.values
    assert got.n_min == sys.n_min


# ---------------------------------------------------------------------------
# consecutive trapezoid systems

def test_trapezoid_system_small():
    sys = build_trapezoid_system(3, F2)
    assert sys.dim == 3
    assert sys.n_min == 3
    assert sys.label == "trapezoid(2..3)/F_2"
    _assert_matches_brute(sys, tau(3), F2, 12)


def test_trapezoid_system_matrix_shape():
    sys = build_trapezoid_system(2, F3)
    one = root_power(3, 0)
    z = one - one
    two = one + one
    assert sys.matrix == (
        (one, two),
        (one, -one),
    )
    assert sys.projection == (one, z)
    _assert_matches_brute(sys, tau(2), F3, 8)


def test_trapezoid_system_extension_field():
    sys = build_trapezoid_system(3, F4)
    _assert_matches_brute(sys, tau(3), F4, 6)
    with pytest.raises(ValueError):
        build_trapezoid_system(1, F2)


def test_trapezoid_annihilator_is_the_family_polynomial():
    # X^3 - 2X - 2 and X^3 - 3X - 6 are irreducible, so the minimal
    # polynomial of the 3-state matrix must be the full family polynomial
    for f in (F2, F3):
        sys = build_trapezoid_system(3, f)
        ann = integer_annihilator(sys)
        assert ann == family_poly("Q_TRAP", k=3, field=f)
        assert satisfies(run(sys, 14), ann)


def test_trapezoid_annihilator_divides_family_poly():
    sys = build_trapezoid_system(4, F4)
    ann = integer_annihilator(sys)
    fam = family_poly("Q_TRAP", k=4, field=F4)
    assert divides(ann, fam)
    assert satisfies(run(sys, 10), ann)


# ---------------------------------------------------------------------------
# rotation systems

def test_rotation_system_quadratic_pattern():
    sys = build_rotation_system((1, 2), F3)
    assert sys.dim == 9
    assert sys.n_min == 3
    _assert_matches_brute(sys, parse("R(2)"), F3, 8)


def test_rotation_system_cubic_pattern():
    sys = build_rotation_system((1, 2, 3), F2)
    assert sys.n_min == 6
    _assert_matches_brute(sys, parse("R(2,3)"), F2, 13)


def test_rotation_system_sparse_pattern():
    sys = build_rotation_system((1, 3), F2)
    _assert_matches_brute(sys, parse("R(3)"), F2, 12)


def test_rotation_state_limit():
    with pytest.raises(ResourceLimitExceeded):
        build_rotation_system((1, 2, 3, 4, 5), F3)
    with pytest.raises(ResourceLimitExceeded):
        build_rotation_system((1, 2), F3, state_limit=4)


def test_rotation_annihilator():
    sys = build_rotation_system((1, 2), F3)
    ann = integer_annihilator(sys)
    fam = family_poly("ROT2", field=F3)  # X^4 - 9
    assert satisfies(run(sys, 14), fam)
    assert satisfies(run(sys, 14), ann)


# ---------------------------------------------------------------------------
# symmetric systems

def test_symmetric_matches_quadratic_matrix():
    for p in (3, 5):
        sym = build_symmetric_system(2, make_field(p))
        quad = build_quadratic_matrix(p)
        assert sym.matrix == quad.matrix
        assert sym.init == quad.init
        assert sym.projection == quad.projection
        assert (sym.n0, sym.shift) == (quad.n0, quad.shift)


def test_symmetric_cubic():
    sys = build_symmetric_system(3, F3)
    assert sys.dim == 9
    _assert_matches_brute(sys, Sigma(3), F3, 8)


def test_symmetric_extension_field():
    sys = build_symmetric_system(2, F4)
    assert sys.dim == 4
    _assert_matches_brute(sys, Sigma(2), F4, 6)


def test_symmetric_validation():
    with pytest.raises(ValueError):
        build_symmetric_system(1, F3)
    with pytest.raises(ResourceLimitExceeded):
        build_symmetric_system(3, F3, state_limit=8)


def test_quadratic_matrix_structure():
    sys = build_quadratic_matrix(5)
    for j in range(5):
        for k in range(5):
            assert sys.matrix[j][k] == root_power(5, j * (k - j))
    _assert_matches_brute(sys, Sigma(2), F5, 5)
    with pytest.raises(ValueError):
        build_quadratic_matrix(4)
    with pytest.raises(ValueError):
        build_quadratic_matrix(2)


def test_quadratic_annihilator_divides_even_power_polynomial():
    sys = build_quadratic_matrix(3)
    ann = integer_annihilator(sys)
    fam = family_poly("QUADSYM", field=F3)  # X^6 + 27
    assert divides(ann, fam)
    assert satisfies(run(sys, 16), ann)
    assert satisfies(run(sys, 16), fam)


def test_annihilator_blowup_limit():
    sys = build_symmetric_system(3, F3)
    with pytest.raises(ResourceLimitExceeded):
        integer_annihilator(sys, blowup_limit=4)


RECORDED = json.loads((Path(__file__).parent / "annihilators.json").read_text())["annihilators"]


@pytest.mark.parametrize(
    "case", RECORDED, ids=["%s-F%d" % (r["expr"], r["field"]) for r in RECORDED]
)
def test_annihilator_matches_the_recorded_exact_one(case):
    field = make_field(*prime_power(case["field"]))
    sys = system_for(parse(case["expr"]), field)
    assert [str(c) for c in integer_annihilator(sys).coeffs] == case["coeffs"]


def test_large_rotation_annihilator_is_certified():
    # inflated dim 1458; the exact rational method took minutes here
    sys = system_for(parse("R(2,4)"), F3)
    ann = integer_annihilator(sys)
    assert list(ann.coeffs) == [0, 0, 0, 0, 0, 0, 486, 0, 0, 81, 0, -27, 0, -18, 0, 0, -3, 0, 1]
    assert certify(sys.sparse, ann.coeffs)
    seq = run(sys, sys.n_min + 39)
    assert len(seq) == 40
    assert satisfies(seq, ann)


# ---------------------------------------------------------------------------
# stepping and running

def test_run_below_n_min():
    sys = build_trapezoid_system(3, F2)
    with pytest.raises(ValueError):
        run(sys, 2)


def test_step_checks_vector_length():
    sys = build_trapezoid_system(3, F2)
    with pytest.raises(ValueError):
        step(sys, list(sys.init)[:-1])


def test_run_replays_step():
    sys = build_trapezoid_system(3, F3)
    v = list(sys.init)
    seq = run(sys, 7)
    for i in range(4):
        v = step(sys, v)
    assert seq.values[-1] == sum(
        (c * x for c, x in zip(sys.projection, v)),
        start=root_power(3, 0) - root_power(3, 0),
    )


def _dense_step(sys, v):
    """M v over every entry of the dense matrix, by coordinate convolution."""
    p = sys.field.p
    out = []
    for row in sys.matrix:
        counts = [0] * p
        for entry, value in zip(row, v):
            for i, a in enumerate(entry.coeffs):
                if a:
                    for j, b in enumerate(value.coeffs):
                        counts[(i + j) % p] += a * b
        out.append(CycInt(p, [counts[t] - counts[p - 1] for t in range(p - 1)]))
    return out


@pytest.mark.parametrize(
    "make",
    [lambda: build_rotation_system((1, 2, 3), F5), lambda: build_symmetric_system(3, F3)],
    ids=["R(2,3)-F5", "sigma(3)-F3"],
)
def test_step_equals_dense_product(make):
    sys = make()
    assert sum(len(row) for row in sys.rows) < sys.dim**2
    v = list(sys.init)
    for _ in range(2):
        want = _dense_step(sys, v)
        v = step(sys, v)
        assert v == want


# ---------------------------------------------------------------------------
# expression dispatch

def test_system_for_dispatch():
    assert system_for(Sigma(2), F3).label.startswith("symmetric(2)")
    assert system_for(tau(3), F2).label.startswith("trapezoid(2..3)")
    assert system_for(tau(3), F2).dim == 3
    assert system_for(parse("T(2,4)"), F2).label.startswith("chain[T(2,4)]")
    assert system_for(parse("R(2)"), F3).label.startswith("rotation[R(2)]")


def test_system_for_chain_combination():
    e = parse("T(2,4) + e2*T(2)")
    sys = system_for(e, F3)
    _assert_matches_brute(sys, e, F3, 8)


def test_system_for_rotation_combination():
    e = parse("R(2,3) + R(2)")
    sys = system_for(e, F2)
    _assert_matches_brute(sys, e, F2, 13)


def test_system_for_scaled_consecutive_trapezoid_uses_chain():
    e = parse("e2*T(2,3)")
    sys = system_for(e, F3)
    assert sys.label.startswith("chain[")
    _assert_matches_brute(sys, e, F3, 8)


def test_system_for_rejections():
    with pytest.raises(ValueError):
        system_for(parse("R(2)+T(2)"), F2)  # mixed kinds
    with pytest.raises(ValueError):
        system_for(Sigma(1), F2)
    with pytest.raises(ValueError):
        system_for(parse("e2*sigma(2)"), F3)
    with pytest.raises(ValueError):
        system_for(parse("e0*T(2)"), F3)  # zero expression
    with pytest.raises(ValueError):
        system_for(parse("T(2)+T(2)"), F2)  # patterns cancel
