"""Brute enumeration, transfer stepping and recurrence extension agree.

One hypothesis property over random trapezoid and rotation combinations
(patterns of width at most 4, unit scalars) and sigma(k), over F_2, F_3,
F_4, F_5, F_8 and F_9.  Chains and rotations of width w both step the
q^(w-1)-state de Bruijn matrix: a chain on one column of its powers, so it
is q^(w-1) states, and a rotation on all of them, q^(2(w-1)) states.
Rotations draw systems of up to 729 states, since their annihilator runs on
the de Bruijn matrix; chains and sigma(k) stay at 81.  For every drawn
family the transfer run equals brute force wherever enumeration is cheap,
the integer annihilator (whose certificate runs on every drawn system)
annihilates the run, extending its first terms by the annihilator
reproduces the run, and `discover` finds a divisor of the annihilator.  The
brute side instantiates and enumerates every n on its own, not by
`sum_sequence`'s one levelled enumeration at the top n, so that an
instantiation fault at one n cannot hide behind f_N.
"""

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from gfrec.funcalg import instantiate, parse, parts
from gfrec.galois import make_field, prime_power
from gfrec.limits import ResourceLimitExceeded
from gfrec.oracle import exp_sum
from gfrec.recurrence import Sequence, discover, divides, extend, satisfies
from gfrec.transfer import integer_annihilator, run, system_for

FIELDS = {q: make_field(*prime_power(q)) for q in (2, 3, 4, 5, 8, 9)}
PATTERNS = [(2,), (3,), (4,), (2, 3), (2, 4), (3, 4), (2, 3, 4)]
BRUTE_POINTS = 5000  # enumerate n while q^n stays within this
STATE_LIMITS = {"T": 81, "sigma": 81, "R": 729}
DEGREE_CAP = 40  # annihilators up to this degree; discover starts at its Berlekamp-Massey bound


@st.composite
def families(draw):
    """A kind, a family of that kind and a field whose system has at most
    about STATE_LIMITS[kind] states: q^(k-1) for sigma(k), q^(w-1) for
    trapezoids and q^(2(w-1)) for rotations of width w."""
    q = draw(st.sampled_from(sorted(FIELDS)))
    kind = draw(st.sampled_from(["T", "R", "sigma"]))
    limit = STATE_LIMITS[kind]
    if kind == "sigma":
        text = "sigma(%d)" % draw(st.sampled_from([k for k in (2, 3, 4) if q ** (k - 1) <= limit]))
    else:
        span = 1 if kind == "T" else 2
        fits = [o for o in PATTERNS if q ** (span * (max(o) - 1)) <= limit]
        terms = draw(st.lists(st.tuples(st.integers(1, q - 1), st.sampled_from(fits)), min_size=1, max_size=2))
        text = " + ".join("e%d*%s(%s)" % (c, kind, ",".join(map(str, o))) for c, o in terms)
    return kind, text, FIELDS[q]


@settings(max_examples=100, deadline=None)
@given(families())
def test_brute_transfer_and_recurrence_agree(family):
    kind, text, f = family
    e = parse(text)
    try:
        sys = system_for(e, f, state_limit=STATE_LIMITS[kind])
        ann = integer_annihilator(sys, degree_cap=DEGREE_CAP)
    except (ResourceLimitExceeded, ValueError):  # too many states or too high a degree, or the terms cancel
        reject()
    if sys.label.startswith("chain"):
        assert sys.dim == f.q ** (max(node.pattern.width for _c, node in parts(e, f)) - 1)
    d = ann.degree
    hi = max(sys.n_min, e.min_n())
    while f.q ** (hi + 1) <= BRUTE_POINTS:
        hi += 1
    brute = Sequence(sys.n_min, [exp_sum(instantiate(e, n, f)) for n in range(sys.n_min, hi + 1)], "brute")
    seq = run(sys, max(hi, sys.n_min + 3 * d + 2))
    assert seq.values[: len(brute)] == brute.values
    if len(brute) > d:
        assert satisfies(brute, ann)

    assert satisfies(seq, ann)
    prefix = Sequence(seq.n_min, seq.values[:d], "transfer")
    assert extend(prefix, ann, seq.n_end - 1).values == seq.values
    assert divides(discover(seq, max_order=d), ann)
