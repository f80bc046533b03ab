"""A differential hash of `recurrence.discover` and `recurrence.divides`.

    PYTHONPATH=<checkout>/src python3 tools/recurrence_hash.py

Runs a fixed, seeded set of calls and prints the number of records and the
SHA-256 of their JSON.  Each record is a call's result (polynomial
coefficients or a bool) or the type and text of the exception it raised.
Two checkouts that print the same line give the same results on every call:
- `discover` at every max_order from 1 to deg + 1 on the transfer runs of
  ten families over F_2 .. F_9, deg being the certified annihilator's degree;
- random, zero, periodic and recurrence-generated integer sequences, some of
  them with non-monic (rational) fits, with holdout None, 1 or 2;
- Z[zeta_3] and Z[zeta_5] sequences, random and recurrence-generated;
- `divides` on random pairs, with non-monic and constant divisors and with
  b a multiple of a in half of them.
"""

from __future__ import annotations

import hashlib
import json
import random

from gfrec.cyclotomic import CycInt
from gfrec.funcalg import parse
from gfrec.galois import make_field, prime_power
from gfrec.recurrence import IntPolynomial, Sequence, discover, divides
from gfrec.transfer import integer_annihilator, run, system_for

FAMILIES = [
    ("tau(3)", 2), ("T(2,4)", 2), ("R(2,3)", 2), ("R(2)", 3), ("sigma(3)", 3),
    ("tau(3)", 4), ("sigma(2)", 5), ("R(2)", 7), ("sigma(2)", 8), ("sigma(2)", 9),
]


def _outcome(fn, *args, **kwargs):
    try:
        got = fn(*args, **kwargs)
    except Exception as exc:  # refusals are part of the behaviour
        return ["raise", type(exc).__name__, str(exc)]
    return list(got.coeffs) if isinstance(got, IntPolynomial) else got


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
        deg = integer_annihilator(sys).degree
        seq = run(sys, sys.n_min + 3 * (deg + 1) - 1)
        for max_order in range(1, deg + 2):
            out.append([text, q, max_order, _outcome(discover, seq, max_order)])
    rng = random.Random(2017)
    for p, count in ((2, 400), (3, 100), (5, 100)):
        for _ in range(count):
            seq = _sequence(rng, p)
            holdout = rng.choice((None, 1, 2))
            top = max(1, (len(seq) - (holdout or 0)) // 3)
            max_order = rng.randint(1, top)
            out.append([p, len(seq), holdout, max_order,
                        _outcome(discover, seq, max_order, holdout=holdout)])
    for _ in range(3000):
        a = [rng.randint(-4, 4) for _ in range(rng.randint(0, 4))] + [rng.choice((1, -1, 2, 3, -6))]
        if rng.random() < 0.5:
            b = IntPolynomial(a) * IntPolynomial([rng.randint(-3, 3) for _ in range(4)] + [1])
        else:
            b = IntPolynomial([rng.randint(-6, 6) for _ in range(rng.randint(0, 8))] + [1])
        out.append([a, list(b.coeffs), _outcome(divides, IntPolynomial(a), b)])
    return out


def main():
    records = _records()
    blob = json.dumps(records, sort_keys=True).encode()
    print("%d records sha256 %s" % (len(records), hashlib.sha256(blob).hexdigest()))


if __name__ == "__main__":
    main()
