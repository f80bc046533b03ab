"""Integer-coefficient linear recurrences for character sum sequences.

A polynomial c_0 + c_1 X + ... + c_d X^d annihilates a sequence s when
sum_j c_j s(n + j) = 0 for every window start n.  Sequences carry their
cyclotomic integer values together with the first index they cover.
Checking, extension and discovery work on their power-basis coordinates.
An integer recurrence acts on each coordinate column separately, so zero
and repeated columns are checked and fitted once, and extension computes
each distinct column once and shares it among its copies.

`discover` fits orders upwards from an exact lower bound: the linear
complexity L over Q of one integer combination of the columns on the fit
prefix, by fraction-free Berlekamp-Massey (Massey, IEEE Trans. IT 1969).
A rational recurrence of order d that fits every column on the prefix
fits every rational combination of them there too, so L <= d, and every
order below L would have failed its solve.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import repeat
from math import gcd
from operator import add, itemgetter, mul, ne

from . import linalg
from .cyclotomic import CycInt
from .funcalg import Frozen


class InsufficientDataError(ValueError):
    """Too few sequence terms for the requested fit."""


class NoRecurrenceError(ValueError):
    """No recurrence up to the requested order validated on held-out terms."""


class IntPolynomial(Frozen):
    """Integer polynomial, ascending coefficients, nonzero leading term."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            raise ValueError("the zero polynomial has no degree")
        self._set(tuple(cs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def monic(self):
        return self.coeffs[-1] == 1

    def __mul__(self, other):
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    def __repr__(self):
        return "IntPolynomial(%s)" % (list(self.coeffs),)

    def pretty(self):
        parts = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            if d == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c)) + "*"
                term = "%sX^%d" % (mag, d) if d > 1 else "%sX" % mag
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)


def divides(a, b):
    """Whether a divides b over the rationals: the pseudo-remainder of b by a,
    lc(a)^k b reduced by integer multiples of shifts of a, is zero."""
    lead, rem = a.coeffs[-1], list(b.coeffs)
    while len(rem) >= len(a.coeffs):
        top = rem.pop()  # lead * rem - top * X^shift * a cancels it
        shift = len(rem) - len(a.coeffs) + 1
        low = [lead * r for r in rem[:shift]]
        rem = low + [lead * r - top * c for r, c in zip(rem[shift:], a.coeffs)]
    return not any(rem)


class Sequence(Frozen):
    """Values s(n_min), s(n_min + 1), ... with a provenance tag."""

    __slots__ = ("n_min", "values", "provenance")

    def __init__(self, n_min, values, provenance):
        values = tuple(values)
        ps = {v.p for v in values}
        if len(ps) > 1:
            raise ValueError("sequence mixes root orders %s" % sorted(ps))
        self._set(n_min, values, provenance)

    def __len__(self):
        return len(self.values)

    @property
    def n_end(self):
        """Index one past the last stored value."""
        return self.n_min + len(self.values)

    def value_at(self, n):
        if not self.n_min <= n < self.n_end:
            raise IndexError("n=%d outside %d..%d" % (n, self.n_min, self.n_end - 1))
        return self.values[n - self.n_min]

    def as_integers(self):
        """Plain integer values, or None entries where a value is irrational."""
        return [v.as_integer() for v in self.values]


# ---------------------------------------------------------------------------
# named polynomial families

P_K = "P_K"
Q_TRAP = "Q_TRAP"
Q_K = "Q_K"
ROT2 = "ROT2"
QUADSYM = "QUADSYM"
MIX1 = "MIX1"
MIX2 = "MIX2"
MIX3 = "MIX3"

FAMILIES = (P_K, Q_TRAP, Q_K, ROT2, QUADSYM, MIX1, MIX2, MIX3)


def family_poly(family, k=None, field=None):
    """The characteristic polynomial of a named family.

    P_K, Q_K and the MIX families live over F_2 and need only k.  Q_TRAP
    needs k and the field.  ROT2 and QUADSYM need a prime field (p odd).
    """
    if family == P_K:
        if k is None or k < 2:
            raise ValueError("P_K needs k >= 2")
        return IntPolynomial([-2] * (k - 1) + [0, 1])
    if family == Q_TRAP:
        if k is None or k < 2:
            raise ValueError("Q_TRAP needs k >= 2")
        if field is None:
            raise ValueError("Q_TRAP needs a field")
        q = field.q
        coeffs = [-q * (q - 1) ** (k - 2 - d) for d in range(k - 1)]
        return IntPolynomial(coeffs + [0, 1])
    if family == Q_K:
        if k is None or k < 4:
            raise ValueError("Q_K needs k >= 4")
        coeffs = [0] * (k + 2)
        coeffs[k + 1] = 1
        for d in range(3, k):
            coeffs[d] = -2
        coeffs[0] = -4
        return IntPolynomial(coeffs)
    if family == ROT2:
        if field is None or field.r != 1 or field.p == 2:
            raise ValueError("ROT2 needs an odd prime field")
        return IntPolynomial([-field.p**2, 0, 0, 0, 1])
    if family == QUADSYM:
        if field is None or field.r != 1 or field.p == 2:
            raise ValueError("QUADSYM needs an odd prime field")
        p = field.p
        sign = 1 if p % 4 == 1 else -1  # (-1|p), by the first supplement law
        coeffs = [0] * (2 * p + 1)
        coeffs[0] = -sign * p**p
        coeffs[2 * p] = 1
        return IntPolynomial(coeffs)
    if family == MIX1:
        if k is None or k < 2:
            raise ValueError("MIX1 needs k >= 2")
        coeffs = [0] * (k + 1)
        coeffs[0] = 2
        coeffs[k - 1] = -2
        coeffs[k] = 1
        return IntPolynomial(coeffs)
    if family == MIX2:
        if k is None or k < 3:
            raise ValueError("MIX2 needs k >= 3")
        coeffs = [0] * (k + 1)
        coeffs[0] = -2
        coeffs[1] = 2
        coeffs[k - 1] = -2
        coeffs[k] = 1
        return IntPolynomial(coeffs)
    if family == MIX3:
        if k is None or k < 4:
            raise ValueError("MIX3 needs k >= 4")
        coeffs = [0] * (k + 1)
        coeffs[0] = -2
        for d in range(2, k - 1):
            coeffs[d] = -2
        coeffs[k] = 1
        return IntPolynomial(coeffs)
    raise ValueError("unknown family %r" % (family,))


# ---------------------------------------------------------------------------
# checking, extending, discovering
#
# Integer coefficients act on Z[zeta_p] coordinate by coordinate, so an
# integer recurrence over Z[zeta_p] is p - 1 independent integer ones: the
# kernels below run on the power-basis coordinate columns, lists of ints.

def _columns(values):
    """The power-basis coordinates of the values, one list per coordinate."""
    return [list(col) for col in zip(*(v.coeffs for v in values))]


def _distinct(cols):
    """(kept, where): the columns that are not all zero, each value once, in
    first order, and for each column the position of its value in kept, or
    None for a zero column.

    A recurrence holds on a zero column, and on a repeated column as soon as
    on its first copy, so kept is all a check or a fit needs: dropping the
    others drops only zero and repeated rows of a fit.  Columns are compared
    as lists, which stops at the first difference; hashing them would read
    every digit of every value.
    """
    kept, where = [], []
    for col in cols:
        i = None
        if any(col):
            i = next((j for j, k in enumerate(kept) if k == col), len(kept))
            if i == len(kept):
                kept.append(col)
        where.append(i)
    return kept, where


# discover bounds its order by the linear complexity of sum_k _WEIGHT^k col_k.
# Any weights give a valid bound, and a bound below the columns' joint order
# only costs solves that fail.  Powers of one large prime keep a simple
# relation between the columns, such as one the negative of another, from
# cancelling in the combination.
_WEIGHT = 65537


def _linear_complexity(s, cap=None):
    """The linear complexity of the integer sequence s over Q: the least L
    such that some c_1, ..., c_L in Q give s(n) + sum_i c_i s(n - i) = 0
    for L <= n < len(s).  0 for an empty or all-zero s.

    With cap, it returns as soon as the complexity of a prefix exceeds cap,
    with that complexity: it never falls as terms are added, so L > cap
    too, and the work stays about len(s) * cap operations.

    Berlekamp-Massey, fraction-free: the connection polynomials c and b are
    kept as integer multiples, with bd the discrepancy b had when it was
    set aside.  bd c - d x^gap b cancels the discrepancy d at n; the
    result's content is divided out, so its coefficients stay small.
    """
    c, b, bd = [1], [1], 1
    length, gap = 0, 1
    for n in range(len(s)):
        d = sum(map(mul, c, s[n::-1]))  # deg c <= length <= n
        if not d:
            gap += 1
            continue
        new = [bd * x for x in c] + [0] * max(0, gap + len(b) - len(c))
        for i, x in enumerate(b, gap):
            new[i] -= d * x
        g = gcd(*new)
        new = [x // g for x in new]
        if 2 * length <= n:
            b, bd, length, gap = c, d, n + 1 - length, 1
            if cap is not None and length > cap:
                return length
        else:
            gap += 1
        c = new
    return length


def _holds(cols, coeffs):
    """Whether sum_j coeffs[j] * col[n + j] = 0 on every full window of every
    column.  One lazy pass per column compares the leading term with minus
    the sum of the other nonzero taps, up to the first window that differs."""
    taps = [(j, c) for j, c in enumerate(coeffs) if c]
    (top, lead), rest = taps[-1], taps[:-1]
    for col in cols:
        count = len(col) - len(coeffs) + 1
        terms = [map(mul, repeat(-c, count), col[j : j + count]) for j, c in rest]
        others = reduce(partial(map, add), terms) if terms else repeat(0, count)
        if any(map(ne, map(mul, repeat(lead, count), col[top : top + count]), others)):
            return False
    return True


def _forward(col, coeffs, count):
    """Append count terms to col by the monic recurrence, on its nonzero taps,
    and return them.

    The sum of products starts from the first product rather than from 0:
    0 + x copies a big integer at about the cost of a full addition.
    """
    d = len(coeffs) - 1
    taps = [(j - d, -c) for j, c in enumerate(coeffs[:d]) if c] or [(-1, 0)]  # X^d: all zero
    (o1, c1), rest = taps[0], taps[1:]
    if not rest:
        for _ in range(count):
            col.append(c1 * col[o1])
    elif len(rest) == 1:
        ((o2, c2),) = rest
        for _ in range(count):
            col.append(c1 * col[o1] + c2 * col[o2])
    else:
        window = itemgetter(*(off for off, _ in rest))
        cs = [c for _, c in rest]
        for _ in range(count):
            col.append(sum(map(mul, cs, window(col)), c1 * col[o1]))
    return col[len(col) - count :]


def satisfies(seq, poly):
    """Exact check of the recurrence on every full window of the sequence."""
    d = poly.degree
    if len(seq) < d + 1:
        raise InsufficientDataError(
            "need at least %d terms to test a degree-%d recurrence, have %d"
            % (d + 1, d, len(seq))
        )
    return _holds(_distinct(_columns(seq.values))[0], poly.coeffs)


def extend(init, poly, n_target):
    """Continue a sequence with a monic recurrence, exactly.

    Extends forward past the last known term, or backward before the first
    one when the constant-coefficient division stays integral.
    """
    if not poly.monic:
        raise ValueError("extension needs a monic polynomial")
    d = poly.degree
    if len(init) < max(d, 1):
        raise InsufficientDataError(
            "need at least %d initial terms, have %d" % (max(d, 1), len(init))
        )
    p = init.values[0].p
    if n_target >= init.n_end:
        count = n_target - init.n_end + 1
        kept, where = _distinct(_columns(init.values))
        tails = [_forward(col, poly.coeffs, count) for col in kept] + [[0] * count]  # zeros stay zero
        fresh = tuple(map(CycInt._of, repeat(p), zip(*(tails[-1 if i is None else i] for i in where))))
        return Sequence(init.n_min, init.values + fresh, "recurrence")
    cols = _columns(init.values)
    c0 = poly.coeffs[0]
    if n_target < init.n_min and c0 == 0:
        raise ValueError("constant term zero, cannot step backward")
    # the columns reversed, so stepping back appends: c_0 s(m) = -sum_{j>0} c_j r[-j]
    rev = [col[:d][::-1] for col in cols]
    taps = [(-j, c) for j, c in enumerate(poly.coeffs) if j and c]
    fresh = []
    for _ in range(init.n_min - n_target):
        num = tuple(-sum(c * r[off] for off, c in taps) for r in rev)
        fresh.append(CycInt._of(p, num).divide_exact(c0))
        for r, x in zip(rev, fresh[-1].coeffs):
            r.append(x)
    return Sequence(min(init.n_min, n_target), tuple(reversed(fresh)) + init.values, "recurrence")


def check_discover(max_order, terms=None, holdout=None):
    """`discover`'s checks: max_order >= 1, then, given the number of terms,
    at least 2 max_order + holdout.  Returns holdout, max_order by default."""
    holdout = max_order if holdout is None else holdout
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if terms is not None and terms < 2 * max_order + holdout:
        raise InsufficientDataError("need at least %d terms (2*max_order + holdout), have %d" % (2 * max_order + holdout, terms))
    return holdout


def discover(seq, max_order, holdout=None):
    """Find the least-order monic recurrence fitted on a prefix and validated
    exactly on held-out terms.

    Every order's fit is one integer system: each distinct nonzero
    coordinate column gives one row per prefix window.  Its solution x / d
    is cleared to integer coefficients by g = gcd(d, x_1, ..., x_k): the
    candidate is x / g with leading coefficient d / g, monic exactly when
    the fit is integral.

    Orders start at the linear complexity L of one integer combination of
    the columns on the prefix (Berlekamp-Massey over Q).  A consistent fit
    of order d is a length-d shift register for every column on the prefix,
    so for every rational combination of them, and L <= d: no order below L
    can fit, and starting at L skips only solves that would fail.  The
    bound stops as soon as it exceeds max_order, which no order can fit.
    """
    holdout = check_discover(max_order, len(seq), holdout)
    fit_len = len(seq) - holdout
    cols, _ = _distinct(_columns(seq.values))
    if not cols:
        return IntPolynomial([0, 1])  # the order-1 fit of an all-zero sequence
    weights = [_WEIGHT**k for k in range(len(cols))]
    combined = [sum(map(mul, weights, terms)) for terms in zip(*(col[:fit_len] for col in cols))]
    low = _linear_complexity(combined, max_order)
    for order in range(max(1, low), max_order + 1):
        starts = range(fit_len - order)
        rows = [col[s : s + order] for col in cols for s in starts]
        rhs = [-col[s + order] for col in cols for s in starts]
        solved = linalg.solve_with_free_zero(rows, rhs)
        if solved is None:
            continue
        x, d = solved
        g = gcd(d, *x)
        candidate = IntPolynomial([c // g for c in x] + [d // g])
        if _holds(cols, candidate.coeffs):
            return candidate
    raise NoRecurrenceError(
        "no recurrence of order <= %d validates on the held-out terms" % max_order
    )
