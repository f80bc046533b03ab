"""A differential hash of `recurrence.discover`, `divides`, `extend` and
`satisfies`.

    PYTHONPATH=<checkout>/src python3 tools/recurrence_hash.py

Runs a fixed, seeded set of calls and prints the number of records and the
SHA-256 of their JSON.  Each record is a call's result (polynomial
coefficients, a bool, or the digest of a sequence's n_min, length and
coordinates) or the type and text of the exception it raised.  Two
checkouts that print the same line give the same results on every call:
- `discover` at every max_order from 1 to deg + 1 on the transfer runs of
  ten families over F_2 .. F_9, deg being the certified annihilator's degree;
- random, zero, periodic and recurrence-generated integer sequences, some of
  them with non-monic (rational) fits, with holdout None, 1 or 2;
- Z[zeta_3] and Z[zeta_5] sequences, random and recurrence-generated;
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
from itertools import chain

from gfrec.cyclotomic import CycInt
from gfrec.funcalg import parse
from gfrec.galois import make_field, prime_power
from gfrec.recurrence import IntPolynomial, Sequence, discover, divides, extend, satisfies
from gfrec.transfer import integer_annihilator, run, system_for

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


def _recurrent(rng, length, coords, lead):
    """length terms of lead * s(n + d) = -sum_j c_j s(n + j), scaled so every
    division is exact, as lists of coordinates."""
    d = rng.randint(1, 4)
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


def main():
    records = _records()
    blob = json.dumps(records, sort_keys=True).encode()
    print("%d records sha256 %s" % (len(records), hashlib.sha256(blob).hexdigest()))


if __name__ == "__main__":
    main()
