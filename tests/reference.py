"""The brute reference of the enumeration tests, vectorized.

It evaluates a function at every point of F_q^n at once and counts the
joint histograms of functions by one np.bincount.  Field products are
taken digit-wise on the polynomial basis of the field's modulus, and
traces are linear in those digits; both come from `gfrec.galois`
arithmetic on the basis.  It imports nothing from `gfrec.oracle`,
`gfrec.transfer` or `gfrec.linalg`, so it shares no code with the kernels
it checks; `test_values_are_the_function_at_every_point` checks it against
`funcalg.evaluate` point by point.

A point of F_q^n has the index x_1 + x_2 q + ... + x_n q^(n-1), each x_i
the index of its field element, so the first variable changes fastest.
"""

from functools import cache

import numpy as np


@cache
def _basis(field):
    """(fold, trace) of a field of degree r over F_p: fold[l, i r + j] is
    digit l of X^i X^j reduced by the modulus, and trace[j] is Tr(X^j)."""
    r = field.r
    powers = [field.element([0] * k + [1]) for k in range(2 * r - 1)]
    fold = np.array([powers[i + j].coeffs for i in range(r) for j in range(r)], dtype=np.int64)
    return fold.T, np.array([x.trace() for x in powers[:r]], dtype=np.int64)


def _points(q, n):
    """Row i - 1 holds the index of x_i at every point of F_q^n."""
    return np.indices((q,) * n, dtype=np.int64).reshape(n, q**n)[::-1]


def _digits(g):
    """The r digits of g at every point, an (r, q^n) array mod p."""
    field = g.field
    p, r = field.p, field.r
    fold = _basis(field)[0]
    variables = _points(field.q, g.n)[:, None, :] // p ** np.arange(r)[:, None] % p  # (n, r, q^n)
    total = np.zeros((r, field.q**g.n), dtype=np.int64)
    for mono, coeff in g.terms.items():
        term = np.array(coeff.coeffs, dtype=np.int64)[:, None]
        for i in mono:
            term = fold @ (term[:, None] * variables[i - 1][None]).reshape(r * r, -1) % p
        total = (total + term) % p
    return total


def values(g):
    """The index of g's value at every point."""
    return g.field.p ** np.arange(g.field.r) @ _digits(g)


def traces(g):
    """The trace of g's value at every point, a residue mod p."""
    return _basis(g.field)[1] @ _digits(g) % g.field.p


def _labels(q, n, lo, s):
    """Each point's label: 0 when its level L, the index of its highest
    nonzero variable (0 at the origin), is at most lo, and otherwise
    1 + (L - lo - 1) q^s + v, where v is the index of the s leading
    variables x_(L-s+1), ..., x_L, the first least significant."""
    x = _points(q, n)
    level = (np.arange(1, n + 1)[:, None] * (x != 0)).max(axis=0, initial=0)
    lead = sum(x[np.clip(level - s + j, 0, n - 1), np.arange(q**n)] * q**j for j in range(s))
    return np.where(level > lo, 1 + (level - lo - 1) * q**s + lead, 0)


def histogram(funcs, traced=False, lo=None, s=0):
    """The joint histogram of the values of funcs on one F_q^n, or with
    traced of the trace of the first, by label (see `_labels`): row l
    counts the points of label l, and its column is the mixed-radix index
    of their values, the first function's most significant.  Labels need
    lo >= s; at lo = n, the default, every point has label 0 and there is
    one row.  For s = 0, row r counts level lo + r."""
    field, n = funcs[0].field, funcs[0].n
    q = field.q
    lo = n if lo is None else lo
    joint, bins = (traces(funcs[0]), field.p) if traced else (values(funcs[0]), q)
    for g in funcs[1:]:
        joint, bins = joint * q + values(g), bins * q
    rows = 1 + (n - lo) * q**s
    return np.bincount(_labels(q, n, lo, s) * bins + joint, minlength=rows * bins).reshape(rows, bins)
