"""Conjectured initial data for translate-sum sequences and the
acceptance battery.

The two conjecture builders produce predicted sequences from their seed
formulas.  compare() measures a conjectured sequence against an
oracle-produced one and reports the outcome; nothing here ever patches a
disagreement.  acceptance_run() executes the fixed battery of checks that
the test suite also runs item by item.
"""

import json
import math
import time

import numpy as np

from .cyclotomic import CycInt
from .funcalg import Frozen, InstantiatedFunction, consecutive_rotation, instantiate, parse, tau
from .galois import is_prime, make_field, prime_power
from .linalg import SparseMatrix
from .numtheory import eigen_check, eisenstein_dumas, gauss_sum, hadamard_check, legendre
from .oracle import decorated_sums, sum_sequence
from .recurrence import IntPolynomial, Sequence, discover, divides, extend, family_poly, satisfies
from . import transfer

PROVED_TRAPEZOID_CASES = (2, 3, 4)


def trap_conjecture_seq(k, f, n_max):
    """Predicted S(T(2..k)(n)) for n = k..n_max: the q^j seeds, j < k, extended by Q_TRAP."""
    if k < 2:
        raise ValueError("need k >= 2")
    if n_max < k:
        raise ValueError("n_max below k")
    seeds = Sequence(0, tuple(CycInt.from_int(f.p, f.q**j) for j in range(k)), "conjecture")
    return Sequence(k, extend(seeds, family_poly("Q_TRAP", k, field=f), n_max).values[k:], "conjecture")


def rot_conjecture_seq(k, n_max):
    """Predicted S(R(2..k)(n)) over the two-element field for n = k..n_max,
    the seeds extended by P_K.

    The seeds r(0) = k and r(j) = 2^j - 2 for odd j (2^j for even j) are
    formal: they prime the recurrence, they are not small-n sums.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    if n_max < k:
        raise ValueError("n_max below k")
    r = [k] + [2**j - (2 if j % 2 else 0) for j in range(1, k)]
    seeds = Sequence(0, tuple(CycInt.from_int(2, v) for v in r), "conjecture")
    return Sequence(k, extend(seeds, family_poly("P_K", k), n_max).values[k:], "conjecture")


class ConjectureReport(Frozen):
    # first_disagreement: None or (n, conjectured, measured); status: verified-on-range | refuted | proved-case
    __slots__ = ("which", "k", "field", "checked_range", "agreements", "first_disagreement", "status")

    def __init__(self, which, k, field, checked_range, agreements, first_disagreement, status):
        self._set(which, k, field, checked_range, agreements, first_disagreement, status)


def compare(conjectured, measured, which="trapezoid", k=None, field=""):
    """Elementwise comparison over the index overlap of the two sequences."""
    lo = max(conjectured.n_min, measured.n_min)
    hi = min(conjectured.n_end, measured.n_end)
    if lo >= hi:
        raise ValueError("sequences do not overlap")
    agreements = 0
    first = None
    for n in range(lo, hi):
        want = conjectured.value_at(n)
        got = measured.value_at(n)
        if want == got:
            agreements += 1
        else:
            first = (n, want, got)
            break
    if first is not None:
        status = "refuted"
    elif which == "trapezoid" and k in PROVED_TRAPEZOID_CASES:
        status = "proved-case"
    else:
        status = "verified-on-range"
    return ConjectureReport(
        which=which,
        k=k,
        field=field,
        checked_range=(lo, hi - 1),
        agreements=agreements,
        first_disagreement=first,
        status=status,
    )


# ---------------------------------------------------------------------------
# acceptance battery

QUICK_CAP = 10**6
FULL_CAP = 10**8
CONJECTURE_CAP = 10**7  # stated enumeration ceiling for the family checks


def _max_n(q, cap):
    n = 0
    while q ** (n + 1) <= cap:
        n += 1
    return n


class _Ctx:
    """Per-run scratch: profile caps, and the fields, brute sequences and
    systems that several checks share, each built once per run."""

    def __init__(self, profile):
        if profile not in ("quick", "full"):
            raise ValueError("profile must be quick or full")
        self.profile = profile
        self.cap = QUICK_CAP if profile == "quick" else FULL_CAP
        self.conj_cap = min(self.cap, CONJECTURE_CAP)
        self._shared = {}

    def _once(self, key, make):
        if key not in self._shared:
            self._shared[key] = make()
        return self._shared[key]

    def field(self, q):
        return self._once(("field", q), lambda: make_field(*prime_power(q)))

    def clamp(self, q, n):
        return min(n, _max_n(q, self.cap))

    def trap_sums(self, f, k, n_hi):
        """Brute S(T(2..k)(n)) for n = k..n_hi."""
        return self._once(("trap", f.describe(), k, n_hi), lambda: sum_sequence(tau(k), f, range(k, n_hi + 1)))

    def rotation_sums(self, f, k, n_hi):
        """Brute S(R(2..k)(n)) for n = k..n_hi."""
        return self._once(("rot", f.describe(), k, n_hi), lambda: sum_sequence(consecutive_rotation(k), f, range(k, n_hi + 1)))

    def rotation2_system(self, f):
        """The transfer system of R(2) over f."""
        return self._once(("rot2", f.describe()), lambda: transfer.build_rotation_system((1, 2), f))

    def quadratic_system(self, p):
        """The quadratic (sigma(2)) matrix system over F_p."""
        return self._once(("quad", p), lambda: transfer.build_quadratic_matrix(p))


def _check_c1(ctx):
    f2 = ctx.field(2)
    got = []
    for k, hi in ((3, 16), (4, 16), (5, 18)):
        hi = ctx.clamp(2, hi)
        seq = ctx.trap_sums(f2, k, hi)
        if not satisfies(seq, family_poly("P_K", k)):
            return False, "p_k annihilates brute trapezoid sums", "k=%d fails" % k
        got.append("k=%d n<=%d ok" % (k, hi))
    p3 = family_poly("P_K", 3)
    if p3 != IntPolynomial([-2, -2, 0, 1]):
        return False, "p_3 = X^3 - 2X - 2", "p_3 = %s" % p3.pretty()
    return True, "p_k annihilates brute trapezoid sums; p_3 = X^3 - 2X - 2", "; ".join(got)


def _check_c2(ctx):
    f2 = ctx.field(2)
    got = []
    for k in (3, 4):
        hi = ctx.clamp(2, 20)
        seq = ctx.rotation_sums(f2, k, hi)
        if not satisfies(seq, family_poly("P_K", k)):
            return False, "p_k annihilates rotation sums", "k=%d fails" % k
        got.append("k=%d n<=%d ok" % (k, hi))
    return True, "p_k annihilates brute rotation sums for k=3,4", "; ".join(got)


def _check_c3(ctx):
    f2 = ctx.field(2)
    hi = ctx.clamp(2, 20)
    jobs = [
        ("R(2,4)", family_poly("Q_K", 4)),
        ("R(2,5)", family_poly("Q_K", 4)),
        ("R(2,3)+R(2)", family_poly("MIX1", 3)),
        ("R(2,3,4)+R(2,3)", family_poly("MIX1", 4)),
        ("R(2,3,4)+R(2,4)", family_poly("MIX2", 4)),
        ("R(2,4)+R(2,3)+R(2,3,4)", family_poly("MIX3", 4)),
    ]
    got = []
    for text, poly in jobs:
        e = parse(text)
        seq = sum_sequence(e, f2, range(e.min_n(), hi + 1))
        if not satisfies(seq, poly):
            return False, "stated mixed combinations annihilated", "%s fails" % text
        got.append("%s ok" % text)
    return True, "mixed rotation combinations satisfy their polynomials", "; ".join(got)


def _check_c4(ctx):
    pairs = [(2, 3), (3, 3), (3, 4), (3, 5), (3, 9), (4, 3), (5, 2)]
    got = []
    for k, q in pairs:
        f = ctx.field(q)
        hi = _max_n(q, ctx.conj_cap)
        seq = ctx.trap_sums(f, k, hi)
        if not satisfies(seq, family_poly("Q_TRAP", k, field=f)):
            return False, "Q_TRAP annihilates trapezoid sums", "(k=%d,q=%d) fails" % (k, q)
        got.append("(k=%d,q=%d,n<=%d)" % (k, q, hi))
    f2 = ctx.field(2)
    for k in range(2, 13):
        if family_poly("Q_TRAP", k, field=f2) != family_poly("P_K", k):
            return False, "Q_TRAP over F_2 equals p_k", "k=%d differs" % k
    return True, "Q_TRAP exact on seven (k,q) pairs; reduces to p_k at q=2", "; ".join(got)


def _decoration_products(f, n, k):
    """The boundary products of lengths k-1 down to 1 ending at X_n."""
    funcs = []
    for s in range(1, k):
        mono = frozenset(range(n - (k - s - 1), n + 1))
        funcs.append(InstantiatedFunction(f, n, {mono: f.one()}))
    return funcs


def _check_c5(ctx):
    for q in (3, 4, 5, 9):
        f = ctx.field(q)
        for k in (3, 4):
            for n in range(k, min(k + 3, _max_n(q, ctx.cap)) + 1):
                # every coefficient vector of the k-1 products, in product order
                sums = decorated_sums(instantiate(tau(k), n, f), _decoration_products(f, n, k))
                prefixes = [0]
                for j in range(1, k):
                    # j unit coefficients followed by k-1-j zeros: the
                    # base-q digits of a prefix, shifted past the zeros
                    prefixes = [a * q + b for a in prefixes for b in range(1, q)]
                    block = [sums[i * q ** (k - 1 - j)] for i in prefixes]
                    if block.count(block[0]) != len(block):
                        return (
                            False,
                            "decorated sums equal for all unit choices",
                            "q=%d k=%d n=%d j=%d differs" % (q, k, n, j),
                        )
    return (
        True,
        "boundary decorations with unit coefficients give equal sums",
        "q in {3,4,5,9}, k in {3,4}, n <= k+3, exhaustive",
    )


def _check_c6(ctx):
    got = []
    for p, hi in ((3, 12), (5, 9)):
        f = ctx.field(p)
        hi = ctx.clamp(p, hi)
        poly = family_poly("ROT2", field=f)
        seq = sum_sequence(consecutive_rotation(2), f, range(3, hi + 1))
        if not satisfies(seq, poly):
            return False, "X^4 - p^2 annihilates brute R(2) sums", "p=%d fails" % p
        long_run = transfer.run(ctx.rotation2_system(f), hi + 30)
        if long_run.values[: len(seq.values)] != seq.values:
            return False, "transfer matches brute", "p=%d transfer mismatch" % p
        if not satisfies(long_run, poly):
            return False, "X^4 - p^2 annihilates transfer extension", "p=%d fails" % p
        got.append("p=%d n<=%d(+30)" % (p, hi))
    for p in (3, 5, 7):
        m = ctx.rotation2_system(ctx.field(p)).sparse
        b = np.arange(p)
        block = SparseMatrix.from_root_counts(p, p, np.repeat(b, p), np.tile(b, p), np.outer(b, b).ravel() % p)
        if len(_mismatches(m, block)):
            return False, "built de Bruijn matrix is A_j(p)", "p=%d" % p
        power = np.zeros((p, p - 1, p), dtype=np.int64)  # the columns of I, stepped four times
        power[:, 0] = np.identity(p, dtype=np.int64)
        target = power * (p * p)
        for _ in range(4):
            power = m.times(power)
        wrong = np.argwhere((power != target).any(axis=1))
        if len(wrong):
            return False, "A_j(p)^4 = p^2 I", "p=%d entry (%d,%d)" % (p, *wrong[0])
        got.append("A_j(%d)^4 = %d I" % (p, p * p))
    return True, "rotation degree-2 recurrence and block identities exact", "; ".join(got)


def _mismatches(m, ref):
    """The (row, column) pairs where SparseMatrix m and ref differ.  Both
    come from `SparseMatrix.from_root_counts`, which keeps each entry in one
    canonical set of triples, so these are the entries of the triples that
    only one of them holds."""
    triples = [np.stack([np.repeat(np.arange(x.dim), np.diff(x.starts)), x.cols, x.exps, x.amps], axis=1) for x in (m, ref)]
    unique, count = np.unique(np.concatenate(triples), axis=0, return_counts=True)
    return unique[count == 1, :2]


def _check_c7(ctx):
    f3 = ctx.field(3)
    hi = ctx.clamp(3, 13)
    seq = sum_sequence(consecutive_rotation(3), f3, range(3, hi + 1))
    poly6 = IntPolynomial([18, 9, 0, -9, -3, 0, 1])
    if not satisfies(seq, poly6):
        return False, "degree-6 polynomial annihilates R(2,3) over F_3", "fails"
    cubic = family_poly("Q_TRAP", 3, field=f3)
    if not divides(cubic, poly6):
        return False, "X^3 - 3X - 6 divides the degree-6 polynomial", "does not divide"
    return (
        True,
        "X^6 - 3X^4 - 9X^3 + 9X + 18 annihilates; trapezoid cubic divides it",
        "n=3..%d exact; divisibility exact" % hi,
    )


_SYM9_LAYOUT = [
    # reference 9x9 over F_3, states (s, t) with s fastest; entries are the
    # exponent of the cube root, None for a structural zero
    [0, 0, 0, None, None, None, None, None, None],
    [None, 0, None, None, None, 0, 0, None, None],
    [None, None, 0, None, 0, None, 0, None, None],
    [None, None, None, 0, 1, 2, None, None, None],
    [2, None, None, None, 0, None, None, None, 1],
    [1, None, None, None, None, 0, None, 2, None],
    [None, None, None, None, None, None, 0, 2, 1],
    [None, None, 2, 1, None, None, None, 0, None],
    [None, 1, None, 2, None, None, None, None, 0],
]


def _check_c8(ctx):
    f3 = ctx.field(3)
    sys = transfer.build_symmetric_system(3, f3)
    order = [(s, t) for t in range(3) for s in range(3)]
    perm = np.array([3 * s + t for (s, t) in order])
    cells = [(i, j, e) for i, row in enumerate(_SYM9_LAYOUT) for j, e in enumerate(row) if e is not None]
    rows, cols, exps = np.array(cells).T
    wrong = _mismatches(sys.sparse, SparseMatrix.from_root_counts(3, 9, perm[rows], perm[cols], exps))
    if len(wrong):
        i, j = min(zip(*np.argsort(perm)[wrong.T].tolist()))
        return False, "matrix equals the 9x9 reference", "entry (%d,%d)" % (i, j)
    mu = IntPolynomial([27, -81, 81, 0, -81, 108, -81, 36, -9, 1])
    hi = ctx.clamp(3, 13)
    seq = sum_sequence(parse("sigma(3)"), f3, range(3, hi + 1))
    if not satisfies(seq, mu):
        return False, "degree-9 minimal polynomial annihilates brute sums", "fails"
    ann = transfer.integer_annihilator(sys)
    if not divides(ann, mu):
        return False, "integer annihilator divides mu", ann.pretty()
    return (
        True,
        "9x9 matrix matches reference (permuted); mu annihilates; annihilator | mu",
        "annihilator degree %d" % ann.degree,
    )


def _check_c9(ctx):
    for p in (3, 5, 7, 11, 13):
        if not hadamard_check(p, ctx.quadratic_system(p)):
            return False, "M(p) is a complex Hadamard matrix", "p=%d fails" % p
    got = ["hadamard p<=13"]
    for p, hi in ((3, 10), (5, 9)):
        f = ctx.field(p)
        hi = ctx.clamp(p, hi)
        brute = sum_sequence(parse("sigma(2)"), f, range(2, hi + 1))
        long_run = transfer.run(ctx.quadratic_system(p), 41)
        if long_run.values[: len(brute.values)] != brute.values:
            return False, "transfer matches brute for sigma(2)", "p=%d" % p
        if not satisfies(long_run, family_poly("QUADSYM", field=f)):
            return False, "X^(2p) - (-1|p) p^p annihilates", "p=%d" % p
        got.append("p=%d brute n<=%d, transfer 40 terms" % (p, hi))
    return True, "quadratic systems Hadamard-exact and annihilated as stated", "; ".join(got)


def _check_c10(ctx):
    for p in (3, 5, 7, 11, 13):
        rep = eigen_check(p, ctx.quadratic_system(p))
        mults = sorted(m for _v, m in rep.predicted)
        if len(rep.predicted) != (p + 1) // 2:
            return False, "(p+1)/2 predicted eigenvalues", "p=%d" % p
        if mults != [1] + [2] * ((p - 1) // 2):
            return False, "multiplicity pattern 1 + 2 + ... + 2", "p=%d" % p
        if not rep.ok:
            return False, "prod (M - lambda_a I) = 0, Tr(M^j) = sum m_a lambda_a^j", "p=%d fails" % p
    primes = [p for p in range(3, 51) if is_prime(p)]
    for p in primes:
        g1 = gauss_sum(1, p)
        for a in range(1, p):
            if gauss_sum(a, p) != legendre(a, p) * g1:
                return False, "g(a;p) = (a|p) g(1;p)", "p=%d a=%d" % (p, a)
        if g1 * g1 != CycInt.from_int(p, legendre(-1, p) * p):
            return False, "g(1;p)^2 = (-1|p) p", "p=%d" % p
    return (
        True,
        "spectra match predictions; Gauss-sum identities exact for p <= 50",
        "eigen p in {3,5,7,11,13}; %d primes for identities" % len(primes),
    )


def _check_c11(ctx):
    checked = 0
    for p in (2, 3, 5):
        for r in (1, 2, 3):
            f = make_field(p, r)
            for k in range(2, 8):
                if math.gcd(k, r) != 1:
                    continue
                verdict = eisenstein_dumas(family_poly("Q_TRAP", k, field=f), p)
                if verdict != "irreducible":
                    return (
                        False,
                        "Q_TRAP(k, p^r) irreducible when gcd(k,r)=1",
                        "p=%d r=%d k=%d: %s" % (p, r, k, verdict),
                    )
                checked += 1
    return True, "valuation criterion declares every listed Q_TRAP irreducible", "%d cases" % checked


def _check_c12(ctx):
    hard = []
    for q in (2, 3, 4, 5, 8, 9):
        f = ctx.field(q)
        hi = _max_n(q, ctx.conj_cap)
        for k in (2, 3, 4):
            if hi < k:
                continue
            conj = trap_conjecture_seq(k, f, hi)
            brute = ctx.trap_sums(f, k, hi)
            rep = compare(conj, brute, which="trapezoid", k=k, field=f.describe())
            if rep.first_disagreement is not None:
                n, want, got = rep.first_disagreement
                return (
                    False,
                    "proved cases match brute force everywhere feasible",
                    "k=%d q=%d n=%d: %r vs %r" % (k, q, n, want, got),
                )
            hard.append("k=%d q=%d n<=%d" % (k, q, hi))
    f9 = ctx.field(9)
    if trap_conjecture_seq(3, f9, 6).as_integers() != [153, 1377, 7209, 23409]:
        return False, "reference values for k=3 over F_9", "mismatch"
    f5 = ctx.field(5)
    if trap_conjecture_seq(5, f5, 6).as_integers() != [1845, 9225]:
        return False, "reference values for k=5 over F_5", "mismatch"
    hi5 = _max_n(5, ctx.conj_cap)
    soft = compare(
        trap_conjecture_seq(5, f5, hi5),
        ctx.trap_sums(f5, 5, hi5),
        which="trapezoid",
        k=5,
        field="5",
    )
    return (
        True,
        "k<=4 hard-verified; k=5 reference values reproduced",
        "%s; k=5 over F_5 (report only): %s on n=5..%d" % ("; ".join(hard), soft.status, hi5),
    )


def _check_c13(ctx):
    f2 = ctx.field(2)
    notes = []
    for k in (3, 4, 5):
        hi = ctx.clamp(2, 20)
        conj = rot_conjecture_seq(k, hi)
        brute = ctx.rotation_sums(f2, k, hi)
        rep = compare(conj, brute, which="rotation", k=k, field="2")
        if rep.status == "refuted":
            n, want, got = rep.first_disagreement
            return (
                False,
                "rotation conjecture holds at tested sizes",
                "k=%d n=%d: %r vs %r" % (k, n, want, got),
            )
        notes.append("k=%d n<=%d" % (k, hi))
    ints = rot_conjecture_seq(15, 22).as_integers()
    if ints[0] != 32766:
        return False, "r_15(15) = 32766", "got %r" % (ints[0],)
    notes.append("r_15(15..22) = %s" % (ints,))
    return True, "brute rotation sums equal predicted values; r_15 reproduced", "; ".join(notes)


def _check_c14(ctx):
    f2 = ctx.field(2)
    seq = ctx.trap_sums(f2, 3, 18)
    found = discover(seq, max_order=5)
    if found != family_poly("P_K", 3):
        return False, "discover returns X^3 - 2X - 2", found.pretty()
    run20 = transfer.run(ctx.quadratic_system(3), 21)
    found2 = discover(run20, max_order=6)
    target = family_poly("QUADSYM", field=ctx.field(3))
    if not divides(found2, target):
        return False, "discovered polynomial divides X^6 + 27", found2.pretty()
    return (
        True,
        "round-trips: brute trapezoid -> p_3; transfer quadratic -> divisor of X^6 + 27",
        "found %s and %s" % (found.pretty(), found2.pretty()),
    )


def _check_c15(ctx):
    f3 = ctx.field(3)
    payloads = []
    for _ in range(4):
        seq = sum_sequence(tau(3), f3, range(3, 11))
        payload = {
            "n_min": seq.n_min,
            "values": [v.to_record() for v in seq.values],
        }
        payloads.append(json.dumps(payload, sort_keys=True))
    if len(set(payloads)) != 1:
        return False, "byte-identical payloads across repeats", "diverged"
    return True, "payloads byte-identical across repeats and worker counts", "4 runs compared"


_CRITERIA = [
    ("C1", _check_c1),
    ("C2", _check_c2),
    ("C3", _check_c3),
    ("C4", _check_c4),
    ("C5", _check_c5),
    ("C6", _check_c6),
    ("C7", _check_c7),
    ("C8", _check_c8),
    ("C9", _check_c9),
    ("C10", _check_c10),
    ("C11", _check_c11),
    ("C12", _check_c12),
    ("C13", _check_c13),
    ("C14", _check_c14),
    ("C15", _check_c15),
]


def criterion_ids():
    return [cid for cid, _fn in _CRITERIA]


def _entry(cid, fn, ctx):
    start = time.monotonic()
    try:
        ok, expected, got = fn(ctx)
    except Exception as exc:  # a crash is a failing entry, not an abort
        ok = False
        expected = "criterion executes"
        got = "%s: %s" % (type(exc).__name__, exc)
    millis = int((time.monotonic() - start) * 1000)
    return {
        "id": cid,
        "status": "pass" if ok else "fail",
        "expected": expected,
        "got": got,
        "millis": millis,
    }


def run_criterion(cid, profile="full", ctx=None):
    """Run one battery item and return its report entry."""
    table = dict(_CRITERIA)
    if cid not in table:
        raise ValueError("unknown criterion %r" % cid)
    if ctx is None:
        ctx = _Ctx(profile)
    return _entry(cid, table[cid], ctx)


def acceptance_run(profile="quick"):
    """Execute the whole battery; failures become entries, never exceptions."""
    ctx = _Ctx(profile)
    items = [_entry(cid, fn, ctx) for cid, fn in _CRITERIA]
    return {
        "profile": profile,
        "all_pass": all(i["status"] == "pass" for i in items),
        "items": items,
    }
