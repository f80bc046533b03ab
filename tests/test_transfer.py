"""Tests for transfer state systems and their integer annihilators."""

import hashlib
import json
import time
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import reference
from gfrec import transfer
from gfrec.cyclotomic import CycInt, combination, root_power
from gfrec.funcalg import (
    InstantiatedFunction,
    ScalarMul,
    Sigma,
    Sum,
    instantiate,
    parse,
    tau,
)
from gfrec.galois import make_field, prime_power
from gfrec.linalg import SparseMatrix, certify
from gfrec.limits import DEFAULT_POINT_BUDGET, DEFAULT_STATE_LIMIT, SCATTER_ROOT_COUNTS, ResourceLimitExceeded
from gfrec.oracle import decorated_sums, exp_sum, integer_tables, joint_counts, sum_sequence
from gfrec.recurrence import Sequence, divides, extend, family_poly, satisfies
from gfrec.transfer import (
    TransferSystem,
    _normalize_patterns,
    build_quadratic_matrix,
    build_rotation_system,
    build_symmetric_system,
    build_trapezoid_system,
    integer_annihilator,
    run,
    system_for,
)
from stepped import DIGEST_EXPRS, DIGEST_FIELDS, state_matrix

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)


def _assert_matches_brute(sys, e, field, n_hi):
    got = run(sys, n_hi)
    want = sum_sequence(e, field, range(sys.n_min, n_hi + 1))
    assert got.values == want.values
    assert got.n_min == sys.n_min


def _dense(sys):
    """The matrix on the states as rows of CycInt entries, each the sum of its sparse triples."""
    sp, p = state_matrix(sys), sys.field.p
    rows = [[CycInt.zero(p)] * sys.dim for _ in range(sys.dim)]
    bounds = sp.starts.tolist()
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        for j, t, a in zip(sp.cols[lo:hi].tolist(), sp.exps[lo:hi].tolist(), sp.amps[lo:hi].tolist()):
            rows[i][j] = rows[i][j] + a * root_power(p, t)
    return rows


def _states(sys):
    """The states at n0 as CycInt values, read off the coordinate array init."""
    return tuple(CycInt(sys.field.p, row) for row in sys.init.tolist())


def _target(sys, v):
    """The target value of the CycInt states v: the sum of the projected ones."""
    return combination(sys.field.p, [(1, v[j]) for j in sys.projection])


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
    two = one + one
    assert _dense(sys) == [
        [one, two],
        [one, -one],
    ]
    assert sys.projection == (0,)
    _assert_matches_brute(sys, tau(2), F3, 8)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_trapezoid_matrix_is_the_paper_update(q):
    # b_j(n) = b_0(n-1) + (q-1) b_(j+1)(n-1), and b_(k-1)(n) = b_0(n-1) - b_(k-1)(n-1)
    f = make_field(*prime_power(q))
    p = f.p

    for k in range(2, 8):
        # (column, exponent, amplitude) triples, row by row
        rows = [[(0, 0, 1), (j + 1, 0, q - 1)] for j in range(k - 1)]
        rows.append([(0, 0, 1), (k - 1, 0, -1)])
        got = build_trapezoid_system(k, f).sparse
        assert got.starts.tolist() == list(range(0, 2 * k + 1, 2)), k
        assert list(zip(got.cols.tolist(), got.exps.tolist(), got.amps.tolist())) == sum(rows, []), k


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


@pytest.mark.parametrize(
    "text, q, w", [("R(2)", 3, 2), ("R(2,3)", 2, 3), ("R(3)", 4, 3), ("R(2,3)+R(2)", 2, 3), ("e3*R(2)+R(3)", 5, 3)]
)
def test_rotation_steps_its_de_bruijn_matrix_on_the_columns_of_its_powers(text, q, w):
    # the matrix is T, on the q^(w-1) windows; the states are the entries of
    # T^n, so the state and root-count limits count their square
    sys = system_for(parse(text), make_field(*prime_power(q)))
    assert sys.sparse.dim == q ** (w - 1)
    assert sys.dim == sys.sparse.dim**2 == len(sys.init)
    assert sys.projection == tuple(range(0, sys.dim, sys.sparse.dim + 1))
    assert len(sys.matrix) == sys.sparse.dim  # the dense view is T's
    assert sys.sparse.nnz == state_matrix(sys).nnz // sys.sparse.dim


@pytest.mark.parametrize("text, q", [("tau(3)", 2), ("sigma(2)", 5), ("T(2,4)+e2*T(3)", 3), ("R(2,3)", 4), ("R(2)", 7)])
def test_matrix_is_the_dense_view_of_sparse(text, q):
    # what the benchmark tracer counts the nonzero entries of: a rotation's T
    sys = system_for(parse(text), make_field(*prime_power(q)))
    sp, p = sys.sparse, sys.field.p
    want = [[CycInt.zero(p)] * sp.dim for _ in range(sp.dim)]
    rows = np.repeat(np.arange(sp.dim), np.diff(sp.starts)).tolist()
    for i, j, t, a in zip(rows, sp.cols.tolist(), sp.exps.tolist(), sp.amps.tolist()):
        want[i][j] = want[i][j] + a * root_power(p, t)
    assert sys.matrix == tuple(map(tuple, want))


# ---------------------------------------------------------------------------
# symmetric systems

def test_symmetric_matches_quadratic_matrix():
    for p in (3, 5):
        sym = build_symmetric_system(2, make_field(p))
        quad = build_quadratic_matrix(p)
        assert _dense(sym) == _dense(quad)
        assert np.array_equal(sym.init, quad.init)
        assert sym.projection == quad.projection
        assert sym.n_min == quad.n_min


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
    dense = _dense(sys)
    for j in range(5):
        for k in range(5):
            assert dense[j][k] == root_power(5, j * (k - j))
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
    # sigma(2) over F_61: 61 states of 60 power-basis coordinates each
    sys = build_symmetric_system(2, make_field(61))
    with pytest.raises(ResourceLimitExceeded, match="^inflated dimension 3660 exceeds the limit of 2500$"):
        integer_annihilator(sys)


RECORDED = json.loads((Path(__file__).parent / "annihilators.json").read_text())["annihilators"]


@pytest.mark.parametrize(
    "case", RECORDED, ids=["%s-F%d" % (r["expr"], r["field"]) for r in RECORDED]
)
def test_annihilator_matches_the_recorded_exact_one(case):
    field = make_field(*prime_power(case["field"]))
    sys = system_for(parse(case["expr"]), field)
    assert [str(c) for c in integer_annihilator(sys).coeffs] == case["coeffs"]


def test_large_rotation_annihilator_is_certified():
    # found on the 27-state de Bruijn matrix T, certified below on the
    # 729-state T (x) I (inflated dim 1458); the exact rational method took
    # minutes here
    sys = system_for(parse("R(2,4)"), F3)
    ann = integer_annihilator(sys)
    assert list(ann.coeffs) == [0, 0, 0, 0, 0, 0, 486, 0, 0, 81, 0, -27, 0, -18, 0, 0, -3, 0, 1]
    assert certify(state_matrix(sys), ann.coeffs)
    seq = run(sys, sys.n_min + 39)
    assert len(seq) == 40
    assert satisfies(seq, ann)


@pytest.mark.parametrize(
    "pattern", [(2,), (3,), (2, 3), (2, 4), (3, 4), (2, 3, 4), (2, 5)],
    ids=lambda o: "(%s)" % ",".join(map(str, o)),
)
def test_trapezoid_and_rotation_sums_share_a_recurrence(pattern):
    # the paper's claim: the recurrence of the rotation sums annihilates the
    # trapezoid sums of the same pattern.  A consecutive pattern goes to the
    # k-state trapezoid system, whose annihilator can be a proper divisor
    consecutive = pattern == tuple(range(2, len(pattern) + 2))
    offsets = ",".join(map(str, pattern))
    for q in (2, 3, 4, 5, 7, 8, 9):
        f = make_field(*prime_power(q))
        if q ** (2 * (max(pattern) - 1)) > DEFAULT_STATE_LIMIT:
            with pytest.raises(ResourceLimitExceeded):
                system_for(parse("R(%s)" % offsets), f)
            continue
        rotation = integer_annihilator(system_for(parse("R(%s)" % offsets), f))
        chain = integer_annihilator(system_for(parse("T(%s)" % offsets), f))
        assert divides(chain, rotation) if consecutive else chain == rotation, q


def _annihilator_or_refusal(sys):
    try:
        return integer_annihilator(sys).coeffs
    except ResourceLimitExceeded as err:
        return str(err)


@pytest.mark.parametrize("chain, rotation", [("T(2,4)", "R(2,4)"), ("e2*T(2,3)", "e2*R(2,3)"),
                                             ("T(2,4)+e2*T(3)", "R(2,4)+e2*R(3)")])
def test_chains_and_rotations_walk_one_de_bruijn_matrix(chain, rotation):
    # the paper's claim as a fact about the systems: a chain and the rotation
    # of its translates step the same matrix T, so they share its minimal
    # polynomial, on every field of the digest grid where the rotation builds
    built = 0
    for q in DIGEST_FIELDS:
        if q == 2 and "e2" in chain:
            continue  # no scalar e2 in F_2
        f = make_field(*prime_power(q))
        c = system_for(parse(chain), f)
        try:
            r = system_for(parse(rotation), f)
        except ResourceLimitExceeded:
            continue  # the rotation's q^(2(w-1)) states pass the limit
        for name in ("starts", "cols", "exps", "amps"):
            assert np.array_equal(getattr(c.sparse, name), getattr(r.sparse, name)), (q, name)
        assert _annihilator_or_refusal(c) == _annihilator_or_refusal(r), q
        built += 1
    assert built >= 2


# ---------------------------------------------------------------------------
# pinned systems: a digest of everything system_for returns, per case
# (the grid, DIGEST_EXPRS over DIGEST_FIELDS, is tests/stepped.py's)

def _entries(sp):
    """The matrix as the digests pin it: per row the nonzero entries' columns,
    ascending, and each entry's power-basis coordinates (an nnz x (p-1) list)."""
    p, dim = sp.p, sp.dim
    row = np.repeat(np.arange(dim), np.diff(sp.starts))
    keys, entry = np.unique(row * dim + sp.cols, return_inverse=True)
    counts = np.zeros((len(keys), p), dtype=np.int64)
    np.add.at(counts, (entry, sp.exps), sp.amps)
    coeffs = counts[:, :-1] - counts[:, -1:]
    keep = coeffs.any(axis=1)
    starts = np.searchsorted(keys[keep], np.arange(dim + 1) * dim)
    return starts.tolist(), (keys[keep] % dim).tolist(), coeffs[keep].tolist()


def _system_digest(sys):
    # the states and the projection as the CycInt coordinates they once were,
    # and 0 where the retired shift was, so the digests keep their bytes
    one, zero = CycInt.one(sys.field.p).coeffs, CycInt.zero(sys.field.p).coeffs
    parts = (
        sys.label, sys.dim, sys.n_min, 0,
        [tuple(row) for row in sys.init.tolist()],
        [one if j in sys.projection else zero for j in range(sys.dim)],
        *_entries(state_matrix(sys)),
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _case_digest(text, q):
    """The system's digest, or the refusal's type and message."""
    try:
        return _system_digest(system_for(parse(text), make_field(*prime_power(q))))
    except (ValueError, ResourceLimitExceeded) as err:
        return "%s: %s" % (type(err).__name__, err)


def test_systems_match_their_pinned_digests():
    pinned = json.loads((Path(__file__).parent / "system_digests.json").read_text())["digests"]
    got = {"%s/F_%d" % (t, q): _case_digest(t, q) for t in DIGEST_EXPRS for q in DIGEST_FIELDS}
    assert got == pinned


@pytest.mark.parametrize(
    "text, q", [("tau(3)", 2), ("sigma(3)", 3), ("R(2,3)", 3), ("T(2,4)", 3), ("tau(4)", 3)]
)
def test_oracle_gate_checks_the_matrix(monkeypatch, text, q):
    # a matrix with every amplitude zeroed keeps the initial states and the
    # projection right, so only a gate that takes a step can see it
    real = SparseMatrix.from_root_counts

    def zeroed(cls, *args):
        m = real(*args)
        return cls(m.p, m.starts, m.cols, m.exps, m.amps * 0)

    monkeypatch.setattr(SparseMatrix, "from_root_counts", classmethod(zeroed))
    with pytest.raises(AssertionError, match="disagrees with the oracle"):
        system_for(parse(text), make_field(*prime_power(q)))


@pytest.mark.parametrize("text, q", [("T(2,4)", 2), ("T(3)", 3), ("T(2,3)+T(2)", 2)])
def test_oracle_gate_checks_several_indices(monkeypatch, text, q):
    # a chain given the rotation's start and diagonal projection sums Tr(T^n),
    # the cyclic sum, which matches the chain's sum one index past the first
    # on these three, and differs from it within four steps
    real = transfer._scatter_system

    def cyclic(label, f, e, recipe, n_min, budget, projection=(0,), start=None):
        if label.startswith("chain"):
            Q = len(recipe[0])
            projection, start = np.arange(Q) * (Q + 1), (0, np.arange(Q))
        return real(label, f, e, recipe, n_min, budget, projection, start)

    monkeypatch.setattr(transfer, "_scatter_system", cyclic)
    with pytest.raises(AssertionError, match="disagrees with the oracle"):
        system_for(parse(text), make_field(q))


# ---------------------------------------------------------------------------
# stepping and running

def test_run_below_n_min():
    sys = build_trapezoid_system(3, F2)
    with pytest.raises(ValueError):
        run(sys, 2)


@pytest.mark.parametrize("text, q, steps", [("tau(3)", 3, 20), ("sigma(2)", 5, 60), ("R(2)", 3, 30)])
def test_init_is_a_read_only_coordinate_array(text, q, steps):
    # sigma(2) over F_5 runs past int64 within 60 steps, onto Python ints
    sys = system_for(parse(text), FIELDS[q])
    assert sys.init.shape == (sys.dim, sys.field.p - 1)
    assert sys.init.dtype == np.int64
    assert not sys.init.flags.writeable
    with pytest.raises(ValueError):
        sys.init[0, 0] = 7
    before = sys.init.copy()
    first = run(sys, sys.n_min + steps)
    assert run(sys, sys.n_min + steps) == first
    assert np.array_equal(sys.init, before)


def _dense_step(dense, v):
    """M v over every entry of the dense matrix (_dense), by coordinate convolution."""
    p = v[0].p
    out = []
    for row in dense:
        counts = [0] * p
        for entry, value in zip(row, v):
            for i, a in enumerate(entry.coeffs):
                if a:
                    for j, b in enumerate(value.coeffs):
                        counts[(i + j) % p] += a * b
        out.append(CycInt(p, [counts[t] - counts[p - 1] for t in range(p - 1)]))
    return out


def test_run_replays_step():
    sys = build_trapezoid_system(3, F3)
    v, dense = _states(sys), _dense(sys)
    seq = run(sys, 7)
    for i in range(4):
        v = _dense_step(dense, v)
    assert seq.values[-1] == _target(sys, v)


@pytest.mark.parametrize(
    "make",
    [lambda: build_rotation_system((1, 2, 3), F5), lambda: build_symmetric_system(3, F3)],
    ids=["R(2,3)-F5", "sigma(3)-F3"],
)
def test_run_equals_dense_product(make):
    sys = make()
    assert state_matrix(sys).nnz < sys.dim**2
    v, dense = _states(sys), _dense(sys)
    want = [v]
    for _ in range(2):
        v = _dense_step(dense, v)
        want.append(v)
    # each state projected on its own, so every one is compared
    for j in range(sys.dim):
        projected = TransferSystem(sys.label, sys.field, sys.sparse, sys.init, (j,), sys.n_min)
        got = run(projected, sys.n_min + 2).values
        assert got == tuple(states[j] for states in want), j


FIELDS = {q: make_field(*prime_power(q)) for q in (2, 3, 4, 5, 8, 9)}
INT64_EXACT = 1 << 63  # run steps in int64 while 2 * row_norm * max|v| stays below this


def _past_int64(sys, v):
    return 2 * state_matrix(sys).row_norm() * max(abs(c) for x in v for c in x.coeffs) >= INT64_EXACT


@st.composite
def small_systems(draw):
    """Systems of at most 27 states from every builder, over F_2 .. F_9."""
    q = draw(st.sampled_from(sorted(FIELDS)))
    f = FIELDS[q]
    kind = draw(st.sampled_from(["trapezoid", "symmetric", "T", "R"]))
    if kind == "trapezoid":
        return build_trapezoid_system(draw(st.integers(2, 4)), f)
    if kind == "symmetric":
        return build_symmetric_system(draw(st.integers(2, 3 if q <= 5 else 2)), f)
    offsets = st.sampled_from([(2,), (3,), (2, 3), (2, 4), (3, 4)])
    terms = draw(st.lists(st.tuples(st.integers(1, q - 1), offsets), min_size=1, max_size=2))
    text = " + ".join("e%d*%s(%s)" % (c, kind, ",".join(map(str, o))) for c, o in terms)
    try:
        return system_for(parse(text), f, state_limit=27)
    except (ResourceLimitExceeded, ValueError):  # too many states, or the terms cancel
        reject()


@settings(max_examples=25, deadline=None)
@given(small_systems())
def test_run_equals_the_dense_product_across_the_int64_bound(sys):
    v, dense = _states(sys), _dense(sys)
    want = [_target(sys, v)]
    crossed = None
    while crossed is None or len(want) < crossed + 3:
        v = _dense_step(dense, v)
        want.append(_target(sys, v))
        if crossed is None and _past_int64(sys, v):
            crossed = len(want)
        assert len(want) < 400, "states never left the int64 range"
    got = run(sys, sys.n_min + len(want) - 1)
    assert got.values == tuple(want)


def test_run_sums_its_projection_in_python_ints():
    # the identity keeps its states in int64 (2 row_norm max|v| < 2^63), but
    # the three projected states sum past int64
    big = (2**63 - 1) // 2
    identity = SparseMatrix(3, [0, 1, 2, 3], [0, 1, 2], [0, 0, 0], [1, 1, 1])
    init = np.array([[big, -big], [big, -big], [big, 1]], dtype=np.int64)
    assert identity.times(init).dtype == np.int64
    sys = TransferSystem("identity", F3, identity, init, (0, 1, 2), 0)
    assert run(sys, 2).values == (CycInt(3, (3 * big, 1 - 2 * big)),) * 3


def test_quadratic_run_on_both_sides_of_the_int64_bound():
    # sigma(2) over F_5 satisfies X^10 - 5^5, so extend reproduces the run
    # from its first ten terms, which are also checked against brute
    sys = build_symmetric_system(2, F5)
    seq = run(sys, 60)
    assert seq.values[:7] == sum_sequence(Sigma(2), F5, range(2, 9)).values
    poly = family_poly("QUADSYM", field=F5)
    assert poly.degree == 10
    assert extend(Sequence(2, seq.values[:10], "transfer"), poly, 60).values == seq.values
    v, dense = _states(sys), _dense(sys)
    states = [v]
    for _ in range(58):
        v = _dense_step(dense, v)
        states.append(v)
    assert not _past_int64(sys, states[0])
    assert _past_int64(sys, states[-1])


# ---------------------------------------------------------------------------
# initial states, stepped from n = 0, against enumerated ones

def _decorated(g, decorations):
    terms = dict(g.terms)
    for mono, coeff in decorations:
        terms[mono] = terms[mono] + coeff if mono in terms else coeff
    return InstantiatedFunction(g.field, g.n, terms)


def _pins(f, n, w):
    """x_1 .. x_(w-1) on F_q^n, whose joint values, x_1 the most significant,
    pin a chain's state."""
    return [InstantiatedFunction(f, n, {frozenset({i}): f.one()}) for i in range(1, w)]


def _window_init(e, f):
    """A chain system's states at n0 = w, from the definition, by the test
    reference: state a is the chain sum at n0 + w - 1 with x_1 .. x_(w-1)
    the digits of a, a_1 the most significant."""
    w = max(o[-1] for _c, o in _translate_terms(e, f))
    n = 2 * w - 1
    counts = reference.histogram([instantiate(e, n, f)] + _pins(f, n, w), traced=True).reshape(f.p, -1)
    return tuple(CycInt.from_root_counts(f.p, c) for c in counts.T.tolist())


def _walk_init(e_terms, f):
    """A rotation system's states at n0 = 3(w-1), one character sum each.

    State a Q + i (Q = q^(w-1)) sums zeta^Tr(value) over the words
    y = (a, x_1 .. x_n0) whose last w-1 letters are i, where value sums the
    combination's window polynomial over the n0 windows of y that start at
    positions 0 .. n0-1: the walks of length n0 from a to i in the de
    Bruijn graph, that is (T^n0)[a, i].
    """
    patterns = _normalize_patterns(e_terms, f)
    w = max(max(o) for _c, o in patterns)
    q, p = f.q, f.p
    n0, big = 3 * (w - 1), q ** (w - 1)
    add, mul, trace = integer_tables(f)
    length = w - 1 + n0
    words = np.indices((q,) * length).reshape(length, -1).T
    value = np.zeros(len(words), dtype=np.intp)
    for k in range(n0):
        for c, offsets in patterns:
            term = np.full(len(words), c.index)
            for o in offsets:
                term = mul[term, words[:, k + o - 1]]
            value = add[value, term]
    idx = np.arange(len(words))
    state = idx // q**n0 * big + idx % big
    counts = np.bincount(state * p + trace[value], minlength=big * big * p).reshape(-1, p)
    return tuple(CycInt.from_root_counts(p, row) for row in counts.tolist())


def _translate_terms(e, f):
    """The (coefficient, offsets) terms of a translate combination."""
    terms = []
    for part in e.parts if isinstance(e, Sum) else (e,):
        scaled = isinstance(part, ScalarMul)
        node = part.expr if scaled else part
        terms.append((f.from_index(part.scalar_index) if scaled else f.one(), node.pattern.offsets))
    return terms


def _trapezoid_init(k, f):
    """The k-state trapezoid's states at n0 = k, one sum each: state j is tau(k)
    with the boundary products X_(s+1) ... X_k for s = 1 .. j."""
    base = instantiate(tau(k), k, f)
    return tuple(
        exp_sum(_decorated(base, [(frozenset(range(s + 1, k + 1)), f.one()) for s in range(1, j + 1)]))
        for j in range(k)
    )


def _enumerated_init(sys, e, f):
    """A system's states at n0 by enumeration: the k-state trapezoid's one
    sum per state, a symmetric system's one decorated_sums call on sigma_k
    and the lower sigma_j, and a chain's one joint_counts call on its sum at
    n0 + w - 1 (w = n0) and x_1 .. x_(w-1), whose values pin state a."""
    n0 = sys.n_min
    if sys.label.startswith("trapezoid"):
        return _trapezoid_init(n0, f)
    if sys.label.startswith("symmetric"):
        lower = [instantiate(Sigma(n0 - j), n0, f) for j in range(1, n0)]
        return tuple(decorated_sums(instantiate(Sigma(n0), n0, f), lower))
    n = 2 * n0 - 1
    h = joint_counts([instantiate(e, n, f)] + _pins(f, n, n0)).reshape(f.q, -1)
    counts = np.zeros((f.p, h.shape[1]), dtype=np.int64)
    np.add.at(counts, integer_tables(f)[2], h)  # by the trace of the chain's value
    return tuple(CycInt.from_root_counts(f.p, c) for c in counts.T.tolist())


def test_stepped_initial_states_are_the_enumerated_ones():
    # every trapezoid, chain and symmetric system of the digest grid, and two
    # past it, whose states at n0 come from n = 0 by n0 steps of the matrix
    cases = [(t, q) for t in DIGEST_EXPRS if "R(" not in t for q in DIGEST_FIELDS]
    checked = 0
    for text, q in cases + [("sigma(4)", 5), ("T(2,3,5)+T(3)", 3)]:
        e, f = parse(text), make_field(*prime_power(q))
        try:
            sys = system_for(e, f)
        except (ValueError, ResourceLimitExceeded):
            continue  # refused; the pinned digests hold the refusal
        assert _states(sys) == _enumerated_init(sys, e, f), (text, q)
        checked += 1
    assert checked == 63  # with T(2,4)+e2*T(3) over F_9, 729 states


@pytest.mark.parametrize(
    "text,q", [("T(2,4) + e2*T(3)", 3), ("e2*T(2,3)", 4), ("R(2,3) + R(2)", 2), ("R(2)", 5),
               ("e3*R(2) + R(3)", 4), ("R(2)", 9)],
)
def test_window_initial_states_are_the_per_state_sums(text, q):
    # chains: the chain sums with their first w - 1 variables pinned, column
    # 0 of T^(2w-1); rotations: the de Bruijn walk sums that vec(T^n0) holds
    f = FIELDS[q]
    e = parse(text)
    sys = system_for(e, f)
    if sys.label.startswith("rotation"):
        assert _states(sys) == _walk_init(_translate_terms(e, f), f)
    else:
        assert _states(sys) == _window_init(e, f)


@pytest.mark.parametrize("k,q", [(2, 2), (3, 3), (2, 8), (3, 4), (4, 2)])
def test_symmetric_initial_states_are_the_per_state_sums(k, q):
    f = FIELDS[q]
    want = []
    for beta in product(range(q), repeat=k - 1):
        lower = tuple(ScalarMul(b, Sigma(k - j)) for j, b in enumerate(beta, 1) if b)
        want.append(exp_sum(instantiate(Sum((Sigma(k),) + lower), k, f)))
    assert _states(build_symmetric_system(k, f)) == tuple(want)


@pytest.mark.parametrize("k,q", [(2, 3), (3, 4), (4, 5), (5, 2), (3, 9)])
def test_trapezoid_initial_states_are_the_per_state_sums(k, q):
    f = FIELDS[q]
    assert _states(build_trapezoid_system(k, f)) == _trapezoid_init(k, f)


def test_initial_states_take_the_point_budget_once():
    # 2^4 points at n0 = 4 against 2^3 states: only the oracle gate's sum at
    # n0 counts against the budget, not the states
    e = parse("T(2,4) + T(3)")
    sys = system_for(e, F2, budget=16)
    assert (sys.dim, sys.n_min) == (8, 4)
    _assert_matches_brute(sys, e, F2, 10)
    with pytest.raises(ResourceLimitExceeded) as info:
        system_for(e, F2, budget=15)
    assert str(info.value) == "enumeration of 2^4 points exceeds the budget of 15"


def _count_matrix_work(monkeypatch):
    """The lists to which every `SparseMatrix.times` call and every matrix
    that `SparseMatrix.from_root_counts` builds add their dim."""
    steps, built = [], []
    times, from_root_counts = SparseMatrix.times, SparseMatrix.from_root_counts

    def counted_times(self, v):
        steps.append(self.dim)
        return times(self, v)

    def counted_build(cls, p, dim, *args):
        built.append(dim)
        return from_root_counts(p, dim, *args)

    monkeypatch.setattr(SparseMatrix, "times", counted_times)
    monkeypatch.setattr(SparseMatrix, "from_root_counts", classmethod(counted_build))
    return steps, built


@pytest.mark.parametrize("k,q", [(3000, 3), (1500, 2)])
def test_over_budget_systems_are_refused_before_any_step(monkeypatch, k, q):
    steps, built = _count_matrix_work(monkeypatch)
    with pytest.raises(ResourceLimitExceeded) as info:
        system_for(tau(k), make_field(q))
    assert str(info.value) == "enumeration of %d^%d points exceeds the budget of %d" % (
        q, k, DEFAULT_POINT_BUDGET
    )
    assert steps == [] and built == []


def test_the_scatter_reads_the_cached_trace_table_alone():
    # over F_2^10 the add and mul tables have 2^20 entries each, and the
    # field-table cache keeps them narrow; the scatter reads only the cached
    # intp trace table, so it converts neither (16 MB of intp)
    f = make_field(2, 10)
    image = np.zeros((4, f.q), dtype=np.intp)
    const = np.tile(np.arange(f.q), (4, 1))
    transfer._scatter(f, image, const)  # builds the field's tables
    tracemalloc.start()
    try:
        transfer._scatter(f, image, const)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_scatter_recipes_past_the_root_count_limit_are_refused(monkeypatch):
    # sigma(2) over F_1021 has 1021 states within the state limit, but its
    # recipe would count 1021^3 roots, an 8 GB (keys x p) table.  sigma(2)
    # over F_2^12 has 4096 states, and its field tables, recipe and oracle
    # gate (4096^2 points) would take seconds and 700 MB before its table.
    # The 2-state trapezoid over F_2053 counts 2 * 2053^2 roots.  All are
    # refused from their shape, before any of that work.
    cases = [
        (Sigma(2), make_field(1021), 1021, 1064332261),
        (Sigma(2), make_field(2, 12), 4096, 33554432),
        (tau(2), make_field(2053), 2, 8429618),
    ]
    steps, built = _count_matrix_work(monkeypatch)
    calls = []
    for name in ("sum_sequence", "integer_tables"):
        def spy(*args, _name=name, _fn=getattr(transfer, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(transfer, name, spy)
    for e, f, dim, counts in cases:
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ResourceLimitExceeded) as info:
                system_for(e, f)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (
            "a transfer matrix of %d states over F_%s needs %d root counts "
            "(states x q x p), over the limit of %d" % (dim, f.describe(), counts, SCATTER_ROOT_COUNTS)
        )
        assert elapsed < 0.1 and peak < 16 << 20
    assert steps == [] and built == [] and calls == []
    # a build checks states, then root counts, then its gate's points
    with pytest.raises(ResourceLimitExceeded, match="^1021 states exceed the limit of 1000$"):
        system_for(Sigma(2), cases[0][1], state_limit=1000, budget=100)
    with pytest.raises(ResourceLimitExceeded, match="^a transfer matrix of 257 states over F_257 needs 16974593 root counts"):
        system_for(Sigma(2), make_field(257), budget=100)
    monkeypatch.undo()
    # sigma(2) over F_61 (61^3 root counts) is the largest recipe that the
    # tests, the goldens and the benchmark build; it stays admitted
    assert system_for(Sigma(2), make_field(61)).dim == 61


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


def test_system_for_holds_consecutive_trapezoids_to_the_state_limit():
    with pytest.raises(ResourceLimitExceeded) as info:
        system_for(tau(10), F2, state_limit=8)
    assert str(info.value) == "10 states exceed the limit of 8"
    assert system_for(tau(8), F2, state_limit=8).dim == 8
    with pytest.raises(ResourceLimitExceeded, match="^27 states exceed the limit of 8$"):
        system_for(parse("T(2,4)"), F3, state_limit=8)  # as chains are


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
