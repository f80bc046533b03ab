"""Integer-coefficient linear recurrences for character sum sequences.

A polynomial c_0 + c_1 X + ... + c_d X^d annihilates a sequence s when
sum_j c_j s(n + j) = 0 for every window start n.  Sequences carry their
cyclotomic integer values together with the first index they cover.
Checking, extension and discovery work on their power-basis coordinates.
An integer recurrence acts on each coordinate column separately, so zero
and repeated columns are checked and fitted once, and extension computes
each distinct column once and shares it among its copies.  The paper's
explicit recurrences are one table, `_FAMILY_TABLE`, from a family's name
to its least k, the field it needs and its coefficients.

`discover` fits the distinct columns one at a time by fraction-free
Berlekamp-Massey over Q (Massey, IEEE Trans. IT 1969): each column's
residual under the recurrence so far has a least register, and the
recurrence grows by it, so the result is the least common multiple of
the columns' minimal polynomials.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import islice, repeat
from math import gcd
from operator import add, mul, ne

from .cyclotomic import build_unchecked
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
        lengths = set(map(len, values))  # a value of root order p has p - 1 coordinates
        if len(lengths) > 1:
            raise ValueError("sequence mixes root orders %s" % sorted(n + 1 for n in lengths))
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

# name: (least k or None, the field it needs or None, the ascending
# coefficients of k and the field); (-1|p) = (-1)^((p-1)/2) in QUADSYM
_FAMILY_TABLE = {
    "P_K": (2, None, lambda k, f: [-2] * (k - 1) + [0, 1]),
    "Q_TRAP": (2, "a field", lambda k, f: [-f.q * (f.q - 1) ** (k - 2 - d) for d in range(k - 1)] + [0, 1]),
    "Q_K": (4, None, lambda k, f: [-4, 0, 0] + [-2] * (k - 3) + [0, 1]),
    "ROT2": (None, "an odd prime field", lambda k, f: [-f.p**2, 0, 0, 0, 1]),
    "QUADSYM": (None, "an odd prime field", lambda k, f: [-((-1) ** (f.p // 2)) * f.p**f.p] + [0] * (2 * f.p - 1) + [1]),
    "MIX1": (2, None, lambda k, f: [2] + [0] * (k - 2) + [-2, 1]),
    "MIX2": (3, None, lambda k, f: [-2, 2] + [0] * (k - 3) + [-2, 1]),
    "MIX3": (4, None, lambda k, f: [-2, 0] + [-2] * (k - 3) + [0, 1]),
}

FAMILIES = tuple(_FAMILY_TABLE)


def family_poly(family, k=None, field=None):
    """The characteristic polynomial of a named family of `_FAMILY_TABLE`.

    P_K, Q_K and the MIX families live over F_2 and need only k.  Q_TRAP
    needs k and the field.  ROT2 and QUADSYM need a prime field (p odd).
    """
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % (family,))
    least, needs, coeffs = _FAMILY_TABLE[family]
    if least is not None and (k is None or k < least):
        raise ValueError("%s needs k >= %d" % (family, least))
    if needs is not None and (field is None or needs == "an odd prime field" and (field.r != 1 or field.p == 2)):
        raise ValueError("%s needs %s" % (family, needs))
    return IntPolynomial(coeffs(k, field))


# ---------------------------------------------------------------------------
# checking, extending, discovering
#
# Integer coefficients act on Z[zeta_p] coordinate by coordinate, so an
# integer recurrence over Z[zeta_p] is p - 1 independent integer ones: the
# kernels below run on the power-basis coordinate columns, lists of ints.

def _columns(values):
    """The power-basis coordinates of the values, one list per coordinate."""
    return [list(col) for col in zip(*values)]


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


def _linear_complexity(s, cap=None):
    """(L, c): the linear complexity L of the integer sequence s over Q, the
    least L such that some c_1, ..., c_L in Q give s(n) + sum_i c_i s(n - i)
    = 0 for L <= n < len(s), and a connection polynomial of that register:
    integers c_0, ..., c_L with c_0 != 0 and sum_i c_i s(n - i) = 0 there.
    (0, [1]) for an empty or all-zero s.

    With cap, it returns as soon as the complexity of a prefix exceeds cap,
    with that complexity and the prefix's polynomial: the complexity never
    falls as terms are added, so L > cap too, and the work stays about
    len(s) * cap operations.

    Berlekamp-Massey, fraction-free: the connection polynomials c and b are
    kept as integer multiples, with bd the discrepancy b had when it was
    set aside.  bd c - d x^gap b cancels the discrepancy d at n and keeps
    c_0 a nonzero multiple of the last; the result's content is divided
    out, so its coefficients stay small.
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
        else:
            gap += 1
        c = new
        if cap is not None and length > cap:
            break
    return length, c + [0] * (length + 1 - len(c))


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

    col grows from one C-level stream of products per tap, each reading col
    as it grows, summed by nested `map(add, ...)`: every term a stream reads
    lies before the one being appended, and `list.extend` appends each term
    before it asks for the next.  The sum of products starts from the first
    product rather than from 0: 0 + x copies a big integer at about the cost
    of a full addition.
    """
    d = len(coeffs) - 1
    taps = [(j - d, -c) for j, c in enumerate(coeffs[:d]) if c] or [(-1, 0)]  # X^d: all zero
    end = len(col)
    streams = [map(mul, repeat(c, count), islice(col, end + off, end + off + count)) for off, c in taps]
    col.extend(reduce(partial(map, add), streams))
    return col[end:]


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
    one when the constant-coefficient division stays integral.  The new
    values are built unchecked, by `cyclotomic.build_unchecked`, from the
    coordinates computed here; forward, it is mapped over the zipped columns.
    """
    if not poly.monic:
        raise ValueError("extension needs a monic polynomial")
    d = poly.degree
    if len(init) < max(d, 1):
        raise InsufficientDataError(
            "need at least %d initial terms, have %d" % (max(d, 1), len(init))
        )
    if n_target >= init.n_end:
        count = n_target - init.n_end + 1
        kept, where = _distinct(_columns(init.values))
        tails = [_forward(col, poly.coeffs, count) for col in kept] + [[0] * count]  # zeros stay zero
        fresh = tuple(map(build_unchecked, zip(*(tails[-1 if i is None else i] for i in where))))
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
        num = [-sum(c * r[off] for off, c in taps) for r in rev]
        fresh.append(build_unchecked(num).divide_exact(c0))
        for r, x in zip(rev, fresh[-1]):
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
    """Find the least-order recurrence fitted on a prefix and validated
    exactly on held-out terms: primitive, leading coefficient positive,
    monic exactly when the fit is integral.

    The fit P starts at 1 and takes the distinct nonzero coordinate columns
    one at a time.  For each column it forms the residual
    r(n) = sum_j P_j col(n + j) on the prefix and multiplies P by the
    Berlekamp-Massey register of r: the connection polynomial c_0, ..., c_L
    read as c_L + c_(L-1) X + ... + c_0 X^L, divided by its content and
    signed so that its leading coefficient is positive.  The register's
    cap, max_order - deg P, stops the fit as soon as no order up to
    max_order can fit.

    The result is the least fit.  Two registers of lengths a and b that
    generate the same a + b terms generate the same infinite sequence, and
    the prefix holds at least 2 max_order terms.  So when some Q of degree
    at most max_order fits every column on the prefix, Q continues each
    column to one infinite sequence v, whose least annihilator ann(v)
    divides Q.  The shifts of one sequence form a cyclic module, so
    ann(P(S) v) = ann(v) / gcd(ann(v), P), and r is a prefix of P(S) v long
    enough that its register is that polynomial: P becomes
    lcm(P, ann(v)), which still divides Q.  At the end P is the lcm of the
    columns' annihilators, the one fit of its order.  When no such Q
    exists, some cap is exceeded, since each product fits every column on
    the prefix.  P is returned when it holds on every column, prefix and
    held-out terms alike; a Q that held there would continue the prefix as
    P does, so when P fails no order up to max_order validates.
    """
    holdout = check_discover(max_order, len(seq), holdout)
    fit_len = len(seq) - holdout
    cols, _ = _distinct(_columns(seq.values))
    if not cols:
        return IntPolynomial([0, 1])  # the order-1 fit of an all-zero sequence
    fit = IntPolynomial([1])
    for col in cols:
        count, cap = fit_len - fit.degree, max_order - fit.degree
        terms = [map(mul, repeat(c, count), col[j : j + count]) for j, c in enumerate(fit.coeffs) if c]
        residual = list(reduce(partial(map, add), terms))
        length, register = _linear_complexity(residual, cap)
        if length > cap:
            break
        g = gcd(*register) if register[0] > 0 else -gcd(*register)
        fit = fit * IntPolynomial([c // g for c in reversed(register)])
    else:  # no cap exceeded
        if _holds(cols, fit.coeffs):
            return fit
    raise NoRecurrenceError(
        "no recurrence of order <= %d validates on the held-out terms" % max_order
    )
