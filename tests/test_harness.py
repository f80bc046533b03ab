"""Tests for the conjecture builders, comparison reports and battery plumbing.

The battery items themselves are exercised one by one in test_acceptance.py;
this file covers the pieces they are made of.
"""

import itertools

import numpy as np
import pytest

from gfrec import harness
from gfrec.cyclotomic import CycInt
from gfrec.funcalg import parse, tau
from gfrec.galois import make_field, prime_power
from gfrec.harness import (
    PROVED_TRAPEZOID_CASES,
    _Ctx,
    compare,
    criterion_ids,
    rot_conjecture_seq,
    run_criterion,
    trap_conjecture_seq,
)
from gfrec.numtheory import EigenReport, eigen_check, legendre
from gfrec.oracle import sum_sequence
from gfrec.recurrence import IntPolynomial, Sequence, family_poly, satisfies

F2 = make_field(2)
F3 = make_field(3)


# ---------------------------------------------------------------------------
# conjectured sequences

def test_trap_conjecture_first_values():
    seq = trap_conjecture_seq(3, F2, 8)
    assert seq.n_min == 3
    assert seq.as_integers() == [6, 12, 20, 36, 64, 112]
    # q = 3, k = 2 reduces to t(n) = 3 t(n-2)
    seq3 = trap_conjecture_seq(2, F3, 6)
    assert seq3.as_integers() == [3, 9, 9, 27, 27]


def test_trap_conjecture_matches_brute():
    for q, k, hi in ((2, 3, 12), (2, 4, 12), (3, 2, 8), (3, 3, 8), (4, 2, 6)):
        f = make_field(2, 2) if q == 4 else make_field(q)
        conj = trap_conjecture_seq(k, f, hi)
        brute = sum_sequence(tau(k), f, range(k, hi + 1))
        assert conj.values == brute.values, "q=%d k=%d" % (q, k)


def test_trap_conjecture_satisfies_family_recurrence():
    for f, k in ((F2, 3), (F2, 5), (F3, 3), (make_field(2, 2), 4)):
        seq = trap_conjecture_seq(k, f, k + 12)
        assert satisfies(seq, family_poly("Q_TRAP", k=k, field=f))


def test_rot_conjecture_first_values():
    seq = rot_conjecture_seq(3, 10)
    assert seq.n_min == 3
    # seeds r(0)=3, r(1)=0, r(2)=4 give 6, 8, 20, ...
    assert seq.as_integers()[:3] == [6, 8, 20]
    seq4 = rot_conjecture_seq(4, 8)
    # seeds r(0)=4, r(1)=0, r(2)=4, r(3)=6
    assert seq4.as_integers()[:2] == [16, 20]


def test_rot_conjecture_matches_brute():
    for k, hi in ((3, 13), (4, 13), (5, 14)):
        conj = rot_conjecture_seq(k, hi)
        e = parse("R(%s)" % ",".join(str(i) for i in range(2, k + 1)))
        brute = sum_sequence(e, F2, range(k, hi + 1))
        assert conj.values == brute.values, "k=%d" % k


def test_rot_conjecture_satisfies_family_recurrence():
    for k in (3, 4, 5, 6):
        seq = rot_conjecture_seq(k, k + 14)
        assert satisfies(seq, family_poly("P_K", k=k))


def _seeded_loop(seeds, q, n_max):
    """s(n) = q sum_(l < k-1) (q-1)^l s(n-2-l) from the k seeds at n = 0..k-1,
    as a plain loop: Q_TRAP's recurrence, and P_K's at q = 2."""
    vals = list(seeds)
    k = len(seeds)
    for n in range(k, n_max + 1):
        vals.append(q * sum((q - 1) ** l * vals[n - 2 - l] for l in range(k - 1)))
    return vals[k:]


def test_conjectures_are_their_seeds_run_through_the_recurrence():
    for q in (2, 3, 4, 5, 9):
        f = make_field(*prime_power(q))
        for k in range(2, 7):
            seq = trap_conjecture_seq(k, f, k + 25)
            assert (seq.n_min, seq.provenance) == (k, "conjecture")
            assert seq.values == tuple(CycInt.from_int(f.p, v) for v in _seeded_loop([q**j for j in range(k)], q, k + 25))
            assert trap_conjecture_seq(k, f, k).values == seq.values[:1]
    for k in range(2, 16):
        seeds = [k] + [2**j - (2 if j % 2 else 0) for j in range(1, k)]
        seq = rot_conjecture_seq(k, k + 25)
        assert (seq.n_min, seq.provenance) == (k, "conjecture")
        assert seq.as_integers() == _seeded_loop(seeds, 2, k + 25)
        assert rot_conjecture_seq(k, k).values == seq.values[:1]


def test_conjecture_builder_validation():
    with pytest.raises(ValueError):
        trap_conjecture_seq(1, F2, 8)
    with pytest.raises(ValueError):
        trap_conjecture_seq(3, F2, 2)
    with pytest.raises(ValueError):
        rot_conjecture_seq(1, 8)
    with pytest.raises(ValueError):
        rot_conjecture_seq(3, 2)


# ---------------------------------------------------------------------------
# comparison reports

def test_compare_proved_case():
    assert PROVED_TRAPEZOID_CASES == (2, 3, 4)
    conj = trap_conjecture_seq(3, F2, 10)
    brute = sum_sequence(tau(3), F2, range(3, 11))
    report = compare(conj, brute, which="trapezoid", k=3, field="2")
    assert report.status == "proved-case"
    assert report.first_disagreement is None
    assert report.checked_range == (3, 10)
    assert report.agreements == 8


def test_compare_verified_on_range():
    conj = trap_conjecture_seq(5, F2, 12)
    brute = sum_sequence(tau(5), F2, range(5, 13))
    report = compare(conj, brute, which="trapezoid", k=5, field="2")
    assert report.status == "verified-on-range"
    # rotations are never promoted to proved-case, whatever k is
    rconj = rot_conjecture_seq(3, 10)
    rbrute = sum_sequence(parse("R(2,3)"), F2, range(3, 11))
    rreport = compare(rconj, rbrute, which="rotation", k=3, field="2")
    assert rreport.status == "verified-on-range"


def test_compare_refuted():
    conj = trap_conjecture_seq(3, F2, 10)
    corrupted = list(conj.values)
    corrupted[4] = corrupted[4] + CycInt.one(2)
    measured = Sequence(conj.n_min, tuple(corrupted), "test")
    report = compare(conj, measured, which="trapezoid", k=3, field="2")
    assert report.status == "refuted"
    n, want, got = report.first_disagreement
    assert n == conj.n_min + 4
    assert want == conj.values[4]
    assert got == corrupted[4]
    assert report.agreements == 4


def test_compare_partial_overlap():
    conj = trap_conjecture_seq(3, F2, 20)
    brute = sum_sequence(tau(3), F2, range(5, 9))
    report = compare(conj, brute, which="trapezoid", k=3, field="2")
    assert report.checked_range == (5, 8)
    assert report.agreements == 4


def test_compare_no_overlap():
    a = trap_conjecture_seq(3, F2, 5)
    b = sum_sequence(tau(3), F2, range(8, 12))
    with pytest.raises(ValueError):
        compare(a, b, which="trapezoid", k=3)


# ---------------------------------------------------------------------------
# battery plumbing

def test_criterion_ids():
    ids = criterion_ids()
    assert ids == ["C%d" % i for i in range(1, 16)]


def test_run_criterion_unknown_id():
    with pytest.raises(ValueError):
        run_criterion("C99")


def test_ctx_fields_and_caps():
    ctx = _Ctx("quick")
    assert ctx.field(4).describe() == "2^2"
    assert ctx.field(9).describe() == "3^2"
    assert ctx.field(5).describe() == "5"
    with pytest.raises(ValueError):
        ctx.field(6)
    # 2^19 is the last power of two within the quick cap of 10^6
    assert ctx.clamp(2, 30) == 19
    assert ctx.clamp(2, 10) == 10
    with pytest.raises(ValueError):
        _Ctx("fast")


def test_ctx_trap_sums_match_plain_brute():
    ctx = _Ctx("quick")
    # packed-bit path
    f2 = ctx.field(2)
    got = ctx.trap_sums(f2, 3, 9)
    want = sum_sequence(tau(3), f2, range(3, 10))
    assert got.values == want.values
    # generic block kernel
    f3 = ctx.field(3)
    got3 = ctx.trap_sums(f3, 2, 7)
    want3 = sum_sequence(tau(2), f3, range(2, 8))
    assert got3.values == want3.values
    # the sequence is computed once per run
    assert ctx.trap_sums(f3, 2, 7) is got3


def test_acceptance_run_shape_smoke():
    # full battery runs live in test_acceptance.py; here only the report
    # shape for a single cheap item
    entry = run_criterion("C11", profile="quick")
    assert set(entry) == {"id", "status", "expected", "got", "millis"}
    assert entry["id"] == "C11"
    assert entry["status"] in ("pass", "fail")


def test_a_crashing_criterion_is_a_failing_entry(monkeypatch):
    def crash(ctx):
        raise ZeroDivisionError("no field of order 6")

    monkeypatch.setattr(harness, "_CRITERIA", [("C1", crash)])
    report = harness.acceptance_run("quick")
    assert report["all_pass"] is False
    (entry,) = report["items"]
    assert entry["id"] == "C1" and entry["status"] == "fail"
    assert entry["expected"] == "criterion executes"
    assert entry["got"] == "ZeroDivisionError: no field of order 6"


def _x_k_plus_one(names):
    """family_poly, but X^k + 1 for the families in names."""

    def poly(family, k=None, field=None):
        return IntPolynomial([1] + [0] * (k - 1) + [1]) if family in names else family_poly(family, k, field)

    return poly


_CALLS = itertools.count(1)


def _drifting(e, f, n_range):
    """A sum_sequence whose value differs from one call to the next."""
    return Sequence(n_range.start, (CycInt.from_int(f.p, next(_CALLS)),), "brute")

_FAILURES = [
    # (the names replaced in gfrec.harness, {criterion: (expected, got)}):
    # each criterion meets a wrong input and reports it as its own failing entry
    ({"satisfies": lambda seq, poly: False}, {
        "C1": ("p_k annihilates brute trapezoid sums", "k=3 fails"),
        "C2": ("p_k annihilates rotation sums", "k=3 fails"),
        "C3": ("stated mixed combinations annihilated", "R(2,4) fails"),
        "C4": ("Q_TRAP annihilates trapezoid sums", "(k=2,q=3) fails"),
        "C6": ("X^4 - p^2 annihilates brute R(2) sums", "p=3 fails"),
        "C7": ("degree-6 polynomial annihilates R(2,3) over F_3", "fails"),
        "C8": ("degree-9 minimal polynomial annihilates brute sums", "fails"),
        "C9": ("X^(2p) - (-1|p) p^p annihilates", "p=3"),
    }),
    ({"satisfies": lambda seq, poly: True, "family_poly": _x_k_plus_one({"P_K"})}, {
        "C1": ("p_3 = X^3 - 2X - 2", "p_3 = X^3 + 1"),
        "C4": ("Q_TRAP over F_2 equals p_k", "k=2 differs"),
        "C13": ("rotation conjecture holds at tested sizes", "k=3 n=3: CycInt(p=2, [-3]) vs CycInt(p=2, [6])"),
        "C14": ("discover returns X^3 - 2X - 2", "X^3 - 2*X - 2"),
    }),
    ({"family_poly": _x_k_plus_one({"Q_TRAP"})}, {
        "C12": ("proved cases match brute force everywhere feasible", "k=2 q=2 n=2: CycInt(p=2, [-1]) vs CycInt(p=2, [2])"),
    }),
    ({"divides": lambda a, b: False}, {
        "C7": ("X^3 - 3X - 6 divides the degree-6 polynomial", "does not divide"),
        "C8": ("integer annihilator divides mu", "X^9 - 9*X^8 + 36*X^7 - 81*X^6 + 108*X^5 - 81*X^4 + 81*X^2 - 81*X + 27"),
        "C14": ("discovered polynomial divides X^6 + 27", "X^4 - 3*X^3 + 6*X^2 - 9*X + 9"),
    }),
    ({"transfer.run": lambda system, n_end: Sequence(0, (), "transfer")}, {
        "C6": ("transfer matches brute", "p=3 transfer mismatch"),
        "C9": ("transfer matches brute for sigma(2)", "p=3"),
    }),
    ({"_mismatches": lambda m, ref: np.array([[0, 1]])}, {
        "C6": ("built de Bruijn matrix is A_j(p)", "p=3"),
        "C8": ("matrix equals the 9x9 reference", "entry (0,3)"),
    }),
    ({"hadamard_check": lambda p, system: False}, {"C9": ("M(p) is a complex Hadamard matrix", "p=3 fails")}),
    ({"eigen_check": lambda p, system: EigenReport(p=p, predicted=(), ok=False)}, {"C10": ("(p+1)/2 predicted eigenvalues", "p=3")}),
    ({"eigen_check": lambda p, system: EigenReport(p=p, predicted=eigen_check(p).predicted[:1] * ((p + 1) // 2), ok=True)}, {
        "C10": ("multiplicity pattern 1 + 2 + ... + 2", "p=3"),
    }),
    ({"eigen_check": lambda p, system: EigenReport(p=p, predicted=eigen_check(p).predicted, ok=False)}, {
        "C10": ("prod (M - lambda_a I) = 0, Tr(M^j) = sum m_a lambda_a^j", "p=3 fails"),
    }),
    ({"gauss_sum": lambda a, p: CycInt.from_int(p, a)}, {"C10": ("g(a;p) = (a|p) g(1;p)", "p=3 a=2")}),
    ({"gauss_sum": lambda a, p: CycInt.from_int(p, legendre(a, p))}, {"C10": ("g(1;p)^2 = (-1|p) p", "p=3")}),
    ({"rot_conjecture_seq": lambda k, n_max: rot_conjecture_seq(k, n_max) if k < 15 else Sequence(k, (CycInt.from_int(2, 0),), "conjecture")}, {
        "C13": ("r_15(15) = 32766", "got 0"),
    }),
    ({"decorated_sums": lambda base, decorations: list(range(base.field.q ** len(decorations)))}, {
        "C5": ("decorated sums equal for all unit choices", "q=3 k=3 n=3 j=1 differs"),
    }),
    ({"eisenstein_dumas": lambda poly, p: "reducible"}, {
        "C11": ("Q_TRAP(k, p^r) irreducible when gcd(k,r)=1", "p=2 r=1 k=2: reducible"),
    }),
    ({"sum_sequence": _drifting}, {"C15": ("byte-identical payloads across repeats", "diverged")}),
]


@pytest.mark.parametrize("replaced, failures", _FAILURES, ids=["+".join(replaced) for replaced, _failures in _FAILURES])
def test_a_criterion_that_meets_a_wrong_input_reports_its_own_failure(monkeypatch, replaced, failures):
    for name, fake in replaced.items():
        monkeypatch.setattr("gfrec.harness." + name, fake)
    ctx = _Ctx("quick")
    for cid, (expected, got) in failures.items():
        entry = run_criterion(cid, ctx=ctx)
        assert (entry["id"], entry["status"], entry["expected"], entry["got"]) == (cid, "fail", expected, got)


def _unit_prefix_sums(spoiled):
    """A decorated_sums stand-in, in product order of the coefficient
    vectors: j for j unit coefficients followed by zeros (j + 1 for a vector
    (q, *coefficients) in spoiled), and a value of its own for any other."""

    def sums(base, decorations):
        q = base.field.q
        values = []
        for x, coeffs in enumerate(itertools.product(range(q), repeat=len(decorations))):
            j = len(list(itertools.takewhile(bool, coeffs)))
            values.append(j + ((q, *coeffs) in spoiled) if not any(coeffs[j:]) else -1 - x)
        return values

    return sums


@pytest.mark.parametrize("spoiled, got", [
    ((), "q in {3,4,5,9}, k in {3,4}, n <= k+3, exhaustive"),
    (((4, 2, 1, 0),), "q=4 k=4 n=4 j=2 differs"),
    (((9, 8, 0),), "q=9 k=3 n=3 j=1 differs"),
], ids=["equal", "q4-j2-spoiled", "q9-j1-spoiled"])
def test_c5_compares_the_sums_of_unit_prefixes_alone(monkeypatch, spoiled, got):
    monkeypatch.setattr(harness, "decorated_sums", _unit_prefix_sums(spoiled))
    entry = run_criterion("C5", ctx=_Ctx("quick"))
    assert (entry["status"], entry["got"]) == ("fail" if spoiled else "pass", got)


def test_the_battery_builds_each_quadratic_system_once(monkeypatch):
    # C9's Hadamard check and transfer runs, C10's spectrum check and C14's
    # run all read the run's one sigma(2)/F_p system
    real = harness.transfer.build_symmetric_system
    built = []

    def counted(k, f, *args, **kwargs):
        built.append((k, f.q))
        return real(k, f, *args, **kwargs)

    monkeypatch.setattr(harness.transfer, "build_symmetric_system", counted)
    ctx = _Ctx("quick")
    for cid in ("C9", "C10", "C14"):
        assert run_criterion(cid, ctx=ctx)["status"] == "pass"
    assert sorted(built) == [(2, p) for p in (3, 5, 7, 11, 13)]
