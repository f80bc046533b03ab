"""A differential hash of `recurrence.discover`, `divides`, `extend` and
`satisfies`.

    python3 tools/recurrence_hash.py

Imports gfrec from the src/ of the checkout it lives in, whatever
PYTHONPATH says.  Runs a fixed, seeded set of calls and prints the
number of records and the SHA-256 of their JSON, and exits 1 when that
line differs from the one recorded in RECORDED (see recorded.py).  Each
record is a call's result (polynomial coefficients, a bool, or the
digest of a sequence's n_min, length and coordinates) or the type and
text of the exception it raised.  Two checkouts that print the same line
give the same results on every call:
- `discover` at every max_order from 1 to deg + 1 on the transfer runs of
  ten families over F_2 .. F_9, deg being the certified annihilator's degree;
- random, zero, periodic and recurrence-generated integer sequences, some of
  them with non-monic (rational) fits, with holdout None, 1 or 2;
- Z[zeta_3] and Z[zeta_5] sequences, random and recurrence-generated;
- Z[zeta_5] and Z[zeta_7] sequences generated by a recurrence of order d,
  with one column zeroed and one copied from another (and maybe more of
  either), and `discover` at max_order d - 1, d and d + 1: d is each
  column's linear complexity unless its initial terms are degenerate, so
  the calls cap `discover`'s column-by-column fit below, at and above it;
- `divides` on random pairs, with non-monic and constant divisors and with
  b a multiple of a in half of them;
- `extend` forward to n = 2000 on the ten transfer runs by their
  annihilators, and on every random sequence by a monic polynomial of
  degree 0..4 with 0, 1, 2 or more nonzero lower coefficients (c_0 = +-1 in
  half of them); `extend` backward to n_min - 40 on the same pairs;
- `extend` refusals: non-monic, too few terms, c_0 = 0 and non-integral;
- `satisfies` on the runs, on the random sequences and on their extensions.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from itertools import chain
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # this checkout's package
from gfrec.cyclotomic import CycInt  # noqa: E402
from gfrec.funcalg import parse  # noqa: E402
from gfrec.galois import make_field, prime_power  # noqa: E402
from gfrec.recurrence import IntPolynomial, Sequence, discover, divides, extend, satisfies  # noqa: E402
from gfrec.transfer import integer_annihilator, run, system_for  # noqa: E402
from recorded import check  # noqa: E402

RECORDED = ("6922 records sha256 60ce9b381dd181fee0f5f42d216345db4388c5682653f6c17cad3b5b7f89d267",)

FAMILIES = [
    ("tau(3)", 2), ("T(2,4)", 2), ("R(2,3)", 2), ("R(2)", 3), ("sigma(3)", 3),
    ("tau(3)", 4), ("sigma(2)", 5), ("R(2)", 7), ("sigma(2)", 8), ("sigma(2)", 9),
]


EXTEND_TO = 2000


def _digest(seq):
    """SHA-256 of a sequence's n_min, length and coordinates, in hexadecimal:
    the values outgrow decimal int-to-str conversion."""
    coords = chain.from_iterable(v.coeffs for v in seq.values)
    blob = "%d %d %s" % (seq.n_min, len(seq), ",".join(map(hex, coords)))
    return hashlib.sha256(blob.encode()).hexdigest()


def _outcome(fn, *args, **kwargs):
    try:
        got = fn(*args, **kwargs)
    except Exception as exc:  # refusals are part of the behaviour
        return ["raise", type(exc).__name__, str(exc)]
    if isinstance(got, IntPolynomial):
        return list(got.coeffs)
    return _digest(got) if isinstance(got, Sequence) else got


def _extensions(tag, seq, poly):
    """Forward to n = EXTEND_TO and backward to n_min - 40, with `satisfies`
    on the sequence and on its forward extension."""
    longer = extend(seq, poly, EXTEND_TO)
    return [
        [tag, "extend", list(poly.coeffs), EXTEND_TO, _digest(longer)],
        [tag, "extend", list(poly.coeffs), seq.n_min - 40,
         _outcome(extend, seq, poly, seq.n_min - 40)],
        [tag, "satisfies", list(poly.coeffs), _outcome(satisfies, seq, poly)],
        [tag, "satisfies", list(poly.coeffs), "extended", satisfies(longer, poly)],
    ]


def _monic(rng, top):
    """A monic polynomial of degree 0..top whose number of nonzero lower
    coefficients is drawn from 0..degree, with c_0 = +-1 in half of them."""
    d = rng.randint(0, top)
    lower = [0] * d
    for j in rng.sample(range(d), rng.randint(0, d)):
        lower[j] = rng.choice((-3, -2, -1, 1, 2, 3))
    if d and rng.random() < 0.5:
        lower[0] = rng.choice((1, -1))
    return IntPolynomial(lower + [1])


def _recurrent(rng, length, coords, lead, d=None):
    """length terms of lead * s(n + d) = -sum_j c_j s(n + j), scaled so every
    division is exact, as lists of coordinates; d is drawn from 1..4 unless
    given."""
    d = d or rng.randint(1, 4)
    cs = [rng.randint(-3, 3) for _ in range(d)]
    terms = [[rng.randint(-5, 5) for _ in range(coords)] for _ in range(d)]
    scale = lead ** length
    terms = [[x * scale for x in t] for t in terms]
    while len(terms) < length:
        window = terms[-d:]
        nxt = [-sum(c * w[i] for c, w in zip(cs, window)) for i in range(coords)]
        terms.append([x // lead for x in nxt])
    return terms


def _sequence(rng, p):
    coords = p - 1
    length = rng.randint(4, 24)
    kind = rng.choice(("random", "zero", "periodic", "recurrent", "rational"))
    if kind == "random":
        terms = [[rng.randint(-9, 9) for _ in range(coords)] for _ in range(length)]
    elif kind == "zero":
        terms = [[0] * coords for _ in range(length)]
    elif kind == "periodic":
        period = [[rng.randint(-3, 3) for _ in range(coords)] for _ in range(rng.randint(1, 4))]
        terms = [period[i % len(period)] for i in range(length)]
    else:
        lead = 1 if kind == "recurrent" else rng.choice((2, 3, -2))
        terms = _recurrent(rng, length, coords, lead)
    return Sequence(rng.randint(0, 5), tuple(CycInt(p, t) for t in terms), "hash")


def _shaped(rng, p):
    """(sequence, d): a Z[zeta_p] sequence of a recurrence of order d, one
    column set to zero and one to a copy of another, then each column
    zeroed or copied again with probability 1/6."""
    d = rng.randint(1, 5)
    lead = rng.choice((1, 1, 2, -3))
    cols = [list(c) for c in zip(*_recurrent(rng, rng.randint(3 * d + 3, 3 * d + 10), p - 1, lead, d))]
    zero, copy, source = rng.sample(range(p - 1), 3)
    cols[zero] = [0] * len(cols[zero])
    cols[copy] = list(cols[source])
    for k in range(p - 1):
        how = rng.randint(0, 5)
        if how == 0:
            cols[k] = [0] * len(cols[k])
        elif how == 1:
            cols[k] = list(cols[rng.randrange(p - 1)])
    return Sequence(rng.randint(0, 5), tuple(CycInt(p, t) for t in zip(*cols)), "hash"), d


def _records():
    out = []
    for text, q in FAMILIES:
        field = make_field(*prime_power(q))
        sys = system_for(parse(text), field)
        ann = integer_annihilator(sys)
        seq = run(sys, sys.n_min + 3 * (ann.degree + 1) - 1)
        for max_order in range(1, ann.degree + 2):
            out.append([text, q, max_order, _outcome(discover, seq, max_order)])
        out.extend(_extensions([text, q], seq, ann))
    rng = random.Random(2017)
    taps = random.Random(2018)  # a second stream keeps the discover records as they were
    for p, count in ((2, 400), (3, 100), (5, 100)):
        for i in range(count):
            seq = _sequence(rng, p)
            holdout = rng.choice((None, 1, 2))
            top = max(1, (len(seq) - (holdout or 0)) // 3)
            max_order = rng.randint(1, top)
            out.append([p, len(seq), holdout, max_order,
                        _outcome(discover, seq, max_order, holdout=holdout)])
            out.extend(_extensions([p, i], seq, _monic(taps, min(4, len(seq)))))
    out.extend(_refusals())
    for _ in range(3000):
        a = [rng.randint(-4, 4) for _ in range(rng.randint(0, 4))] + [rng.choice((1, -1, 2, 3, -6))]
        if rng.random() < 0.5:
            b = IntPolynomial(a) * IntPolynomial([rng.randint(-3, 3) for _ in range(4)] + [1])
        else:
            b = IntPolynomial([rng.randint(-6, 6) for _ in range(rng.randint(0, 8))] + [1])
        out.append([a, list(b.coeffs), _outcome(divides, IntPolynomial(a), b)])
    shapes, shape_taps = random.Random(2019), random.Random(2020)  # the records above stay as they were
    for p in (5, 7):
        for i in range(60):
            seq, d = _shaped(shapes, p)
            holdout = shapes.choice((None, 1, 2))
            for max_order in range(max(1, d - 1), d + 2):
                out.append(["shaped", p, len(seq), holdout, max_order,
                            _outcome(discover, seq, max_order, holdout=holdout)])
            out.extend(_extensions(["shaped", p, i], seq, _monic(shape_taps, min(4, len(seq)))))
    return out


def _refusals():
    """extend's refusals, each on small values so the messages stay short."""
    def ints(*vals, n_min=0):
        return Sequence(n_min, tuple(CycInt.from_int(2, v) for v in vals), "hash")

    fib = IntPolynomial([-1, -1, 1])
    cases = [
        (ints(1, 2), IntPolynomial([-1, 2]), 5),  # not monic
        (ints(1, 2), IntPolynomial([-1, 2]), -5),
        (ints(1), fib, 5),  # too few terms
        (ints(1), fib, -5),
        (Sequence(0, (), "hash"), IntPolynomial([1]), 3),
        (ints(1, 2, n_min=1), IntPolynomial([0, 0, 1]), 0),  # c_0 = 0
        (ints(1, 2, n_min=1), IntPolynomial([0, 0, 1]), 9),  # ... forward is fine
        (ints(3, n_min=1), IntPolynomial([-2, 1]), 0),  # non-integral
        (ints(4, n_min=1), IntPolynomial([-2, 1]), -3),  # integral twice, then not
        (Sequence(2, (CycInt(5, (3, 6, 9, 1)), CycInt(5, (0, 3, 3, 3))), "hash"),
         IntPolynomial([3, 1, 1]), -2),
    ]
    return [["refusal", _digest(seq), list(poly.coeffs), n, _outcome(extend, seq, poly, n)]
            for seq, poly, n in cases]


def _lines():
    records = _records()
    blob = json.dumps(records, sort_keys=True).encode()
    yield "%d records sha256 %s" % (len(records), hashlib.sha256(blob).hexdigest())


if __name__ == "__main__":
    check(_lines(), RECORDED)
