"""A differential hash of the enumeration oracle: `trace_counts`,
`joint_counts`, `decorated_sums` and `sum_sequence`.

    PYTHONPATH=<checkout>/src python3 tools/oracle_hash.py

Runs a fixed, seeded set of calls and prints, on each of five lines, the
number of records and the SHA-256 of their JSON, and exits 1 when a line
differs from the one recorded in RECORDED (see recorded.py).  Each record is a call's
result (residue counts, a flattened joint histogram, or the coordinates of
cyclotomic sums) or the type and text of the exception it raised.  Two
checkouts that print the same lines give the same results on every call.  The fields are F_2, F_3, F_4,
F_5, F_8, F_9, F_25 and F_257, and every field gets:
- `sum_sequence` of tau, sigma, R and T families, and of sums of them with
  scalar multiples, from the family minimum up to about 10^6 points;
- `trace_counts` of random functions: random terms of degree 0-4, plus
  terms in the top variables only and products of a low and a top monomial,
  which make blocks share their coefficients, at sizes up to 10^6 points;
- `joint_counts` of two or three such functions, and `decorated_sums` of
  one with up to two decoration monomials;
- refusals: points or joint bins past the budget.

The fields F_2^10, F_2^12 and F_257 have q^2 past the integer tables that
the field-table cache keeps, so the generic kernel gathers from the narrow
tables there.  They also get, at n = 1..2, `sum_sequence` of a few families
and `trace_counts` of random functions, and at n = 1 `joint_counts` of one
function, or two over F_2^10 and F_257.  `decorated_sums` is left out over
them: its transform table has p q^2 entries.

The second line covers the F_2 kernel past one chunk of 2^22 points, where
it counts chunks by code: `sum_sequence` of every family at n = 23..26, and
`trace_counts` of random functions with top-variable and cross terms there.
The third line covers functions with many low cofactors there:
`sum_sequence` of sigma(2) and sigma(3) at n = 23..24, and `trace_counts`
of dense random functions, with up to 120 products of a low and a high
monomial, at n = 23 and 24.
The fourth line covers generic calls whose blocks take many distinct rows
of high-digit coefficients, so that they are counted by key and shifted:
`sum_sequence` of tau(3) over F_9 at n = 6..7 and over F_8 at n = 7, tau(4)
over F_3 at n = 12..13, R(2,3) over F_3 at n = 11..12 and sigma(3) over F_3
at n = 10..11; `joint_counts` of tau(2), tau(3) and tau(4) over F_3 at
n = 12; and `decorated_sums` of tau(3) and tau(4) with their boundary
products X_(n-k+1+s)...X_n, s = 1..k-1, over F_5 and F_9 at n = k..k+3.
The fifth line covers rotations whose wrapped translates, the seam, are
wider than R(2,3)'s: `sum_sequence` of R(2,4), R(3), R(2,5),
R(2,3,4) + R(2,4) and e{a}*R(2,3) + sigma(2) over F_2, F_3, F_4, F_5, F_8
and F_9, from the family minimum up to about 10^6 points, and over F_2 of
R(2,4) and R(2,3,4) + R(2,3) at n = 23..26.
"""

from __future__ import annotations

import hashlib
import json
import random

from gfrec.funcalg import InstantiatedFunction, instantiate, parse, tau
from gfrec.galois import make_field, prime_power
from gfrec.oracle import decorated_sums, joint_counts, sum_sequence, trace_counts
from recorded import check

RECORDED = (
    "428 records sha256 ad6393eb8cc3b344245f073a89f9bc16af016e8d5f83cc45dd7b4e9291ff15e5",
    "F_2 past one chunk: 26 records sha256 162cb4c85e2000a2ef6741ae57e201eb18eca650d42ff321ce033a6885d73cae",
    "F_2 many cofactors past one chunk: 8 records sha256 9488d416c631b41d2ba7921bc34e8f7895e6bb722d50ceba66ee6a0c684a6d12",
    "generic multi-row: 22 records sha256 3f483d26b1d2309650f946ed77e9ceb534aacd61f6ce343ba11c974f3908ca5b",
    "rotation seams: 32 records sha256 699ac755583893fa99ec98286933adb05658454fe2bab52e999d7477c409106f",
)

FIELDS = (2, 3, 4, 5, 8, 9, 25, 257)
FAMILIES = (
    "tau(2)", "tau(3)", "tau(4)", "sigma(1)", "sigma(2)", "sigma(3)", "R(2)", "R(2,3)", "T(2,4)",
    "R(2,3) + R(2)", "tau(3) + sigma(2)", "e{a}*T(2) + sigma(1)", "R(2,3) + e{a}*tau(2) + sigma(1)",
    "e{a}*sigma(3) + e{b}*tau(4)",
)
LARGE_FIELDS = (1024, 4096, 257)
LARGE_FAMILIES = ("sigma(1)", "sigma(2)", "tau(2)", "e{a}*sigma(1) + R(2)")
POINTS = 10**6  # the largest q^n of any call
RANDOM_FUNCTIONS = 12  # per field, for each of trace_counts, joint_counts and decorated_sums
F2_PAST_ONE_CHUNK = range(23, 27)  # n past the F_2 kernel's 2^22-point chunks, within the point budget
F2_RANDOM_FUNCTIONS = 12
F2_DENSE = range(23, 25)
F2_DENSE_FUNCTIONS = 6
MULTI_ROW_SEQUENCES = (
    ("tau(3)", 9, range(6, 8)), ("tau(3)", 8, range(7, 8)), ("tau(4)", 3, range(12, 14)),
    ("R(2,3)", 3, range(11, 13)), ("sigma(3)", 3, range(10, 12)),
)
SEAM_FIELDS = (2, 3, 4, 5, 8, 9)
SEAM_FAMILIES = ("R(2,4)", "R(3)", "R(2,5)", "R(2,3,4) + R(2,4)", "e{a}*R(2,3) + sigma(2)")
SEAM_PAST_ONE_CHUNK = ("R(2,4)", "R(2,3,4) + R(2,3)")


def _outcome(fn, *args, **kwargs):
    try:
        got = fn(*args, **kwargs)
    except Exception as exc:  # refusals are part of the behaviour
        return ["raise", type(exc).__name__, str(exc)]
    if hasattr(got, "values"):  # a Sequence
        return [got.n_min, [list(v.coeffs) for v in got.values]]
    if hasattr(got, "tolist"):  # a joint histogram
        return [list(got.shape), got.ravel().tolist()]
    if got and hasattr(got[0], "coeffs"):  # decorated sums
        return [list(v.coeffs) for v in got]
    return got


def _top_n(q, points=POINTS):
    n = 1
    while q ** (n + 1) <= points:
        n += 1
    return n


def _random_function(rng, field, n):
    """Random terms of degree 0-4, and terms that shift or scale the top variables' blocks."""
    q = field.q
    terms = {}
    for _ in range(rng.randint(1, 8)):
        mono = frozenset(rng.sample(range(1, n + 1), rng.randint(0, min(n, 4))))
        terms[mono] = field.from_index(rng.randrange(q))
    top = max(1, n - rng.randint(1, max(1, n // 2)))  # variables top..n are the high ones
    for _ in range(rng.randint(0, 3)):
        terms[frozenset(rng.sample(range(top, n + 1), rng.randint(1, min(3, n - top + 1))))] = field.from_index(rng.randrange(1, q))
    for _ in range(rng.randint(0, 3)):
        if top > 1:
            low = rng.sample(range(1, top), rng.randint(1, min(2, top - 1)))
            high = rng.sample(range(top, n + 1), rng.randint(1, min(2, n - top + 1)))
            terms[frozenset(low + high)] = field.from_index(rng.randrange(1, q))
    return InstantiatedFunction(field, n, terms)


def _dense_function(rng, field, n):
    """Random terms of degree 1-4, and 40-120 products of a low and a high monomial."""
    terms = {}
    for _ in range(rng.randint(20, 60)):
        terms[frozenset(rng.sample(range(1, n + 1), rng.randint(1, 4)))] = field.one()
    top = n // 2 + 1  # variables top..n are the high ones
    for _ in range(rng.randint(40, 120)):
        low = rng.sample(range(1, top), rng.randint(1, 2))
        high = rng.sample(range(top, n + 1), rng.randint(1, 2))
        terms[frozenset(low + high)] = field.one()
    return InstantiatedFunction(field, n, terms)


def _describe(g):
    return sorted([sorted(mono), c.index] for mono, c in g.terms.items())


def _records():
    rng = random.Random(2017)
    out = []
    for q in FIELDS:
        field = make_field(*prime_power(q))
        top = _top_n(q)
        for text in FAMILIES:
            text = text.format(a=rng.randrange(1, q), b=rng.randrange(1, q))
            e = parse(text)
            lo = e.min_n()
            if lo <= top:
                out.append(["sum_sequence", q, text, lo, top, _outcome(sum_sequence, e, field, range(lo, top + 1))])
        for i in range(RANDOM_FUNCTIONS):
            n = rng.randint(max(1, top - 3), top) if i % 2 else rng.randint(1, top)
            g = _random_function(rng, field, n)
            out.append(["trace_counts", q, n, _describe(g), _outcome(trace_counts, g)])
            n = rng.randint(1, _top_n(q, POINTS // 10))
            funcs = [_random_function(rng, field, n) for _ in range(2 if q > 25 else rng.randint(2, 3))]
            out.append(["joint_counts", q, n, [_describe(g) for g in funcs], _outcome(joint_counts, funcs)])
            decorations = [
                InstantiatedFunction(field, n, {frozenset(rng.sample(range(1, n + 1), rng.randint(1, min(n, 3)))): field.one()})
                for _ in range(rng.randint(0, 1 if q > 25 else 2))
            ]
            out.append(["decorated_sums", q, n, _describe(funcs[0]), [_describe(d) for d in decorations],
                        _outcome(decorated_sums, funcs[0], decorations)])
        g = instantiate(parse("tau(2)"), top, field)
        out.append(["refusal", q, top, _outcome(trace_counts, g, budget=q**top - 1)])
        out.append(["refusal", q, top, _outcome(joint_counts, [g] * 4, budget=q**3)])
    for q in LARGE_FIELDS:
        field = make_field(*prime_power(q))
        for text in LARGE_FAMILIES:
            text = text.format(a=rng.randrange(1, q))
            e = parse(text)
            lo = e.min_n()
            out.append(["sum_sequence", q, text, lo, 2, _outcome(sum_sequence, e, field, range(lo, 3))])
        for n in (1, 2):
            g = _random_function(rng, field, n)
            out.append(["trace_counts", q, n, _describe(g), _outcome(trace_counts, g)])
        funcs = [_random_function(rng, field, 1) for _ in range(1 if q == 4096 else 2)]
        out.append(["joint_counts", q, 1, [_describe(g) for g in funcs], _outcome(joint_counts, funcs)])
    return out


def _f2_records():
    rng = random.Random(2022)
    field = make_field(2)
    out = []
    lo, hi = F2_PAST_ONE_CHUNK[0], F2_PAST_ONE_CHUNK[-1]
    for text in FAMILIES:
        text = text.format(a=1, b=1)  # every nonzero scalar of F_2 is 1
        out.append(["sum_sequence", 2, text, lo, hi, _outcome(sum_sequence, parse(text), field, F2_PAST_ONE_CHUNK)])
    for _ in range(F2_RANDOM_FUNCTIONS):
        n = rng.choice(F2_PAST_ONE_CHUNK)
        g = _random_function(rng, field, n)
        out.append(["trace_counts", 2, n, _describe(g), _outcome(trace_counts, g)])
    return out


def _f2_dense_records():
    rng = random.Random(2023)
    field = make_field(2)
    out = []
    for text in ("sigma(2)", "sigma(3)"):
        out.append(["sum_sequence", 2, text, F2_DENSE[0], F2_DENSE[-1], _outcome(sum_sequence, parse(text), field, F2_DENSE)])
    for i in range(F2_DENSE_FUNCTIONS):
        n = F2_DENSE[i % len(F2_DENSE)]
        g = _dense_function(rng, field, n)
        out.append(["trace_counts", 2, n, _describe(g), _outcome(trace_counts, g)])
    return out


def _boundary_products(field, n, k):
    """X_(n-k+1+s) ... X_n for s = 1..k-1, with coefficient one."""
    return [InstantiatedFunction(field, n, {frozenset(range(n - k + 1 + s, n + 1)): field.one()}) for s in range(1, k)]


def _multi_row_records():
    out = []
    for text, q, ns in MULTI_ROW_SEQUENCES:
        field = make_field(*prime_power(q))
        out.append(["sum_sequence", q, text, ns[0], ns[-1], _outcome(sum_sequence, parse(text), field, ns)])
    field = make_field(3)
    funcs = [instantiate(tau(k), 12, field) for k in (2, 3, 4)]
    out.append(["joint_counts", 3, 12, ["tau(2)", "tau(3)", "tau(4)"], _outcome(joint_counts, funcs)])
    for q in (5, 9):
        field = make_field(*prime_power(q))
        for k in (3, 4):
            for n in range(k, k + 4):
                base, decorations = instantiate(tau(k), n, field), _boundary_products(field, n, k)
                out.append(["decorated_sums", q, n, "tau(%d)" % k, _outcome(decorated_sums, base, decorations)])
    return out


def _seam_records():
    rng = random.Random(2029)
    out = []
    for q in SEAM_FIELDS:
        field = make_field(*prime_power(q))
        top = _top_n(q)
        for text in SEAM_FAMILIES:
            text = text.format(a=rng.randrange(1, q))
            e = parse(text)
            out.append(["sum_sequence", q, text, e.min_n(), top, _outcome(sum_sequence, e, field, range(e.min_n(), top + 1))])
    for text in SEAM_PAST_ONE_CHUNK:
        lo, hi = F2_PAST_ONE_CHUNK[0], F2_PAST_ONE_CHUNK[-1]
        out.append(["sum_sequence", 2, text, lo, hi, _outcome(sum_sequence, parse(text), make_field(2), F2_PAST_ONE_CHUNK)])
    return out


def _line(records):
    blob = json.dumps(records, sort_keys=True).encode()
    return "%d records sha256 %s" % (len(records), hashlib.sha256(blob).hexdigest())


def _lines():
    yield _line(_records())
    yield "F_2 past one chunk: " + _line(_f2_records())
    yield "F_2 many cofactors past one chunk: " + _line(_f2_dense_records())
    yield "generic multi-row: " + _line(_multi_row_records())
    yield "rotation seams: " + _line(_seam_records())


if __name__ == "__main__":
    check(_lines(), RECORDED)
