"""Integer-coefficient linear recurrences for character sum sequences.

A polynomial c_0 + c_1 X + ... + c_d X^d annihilates a sequence s when
sum_j c_j s(n + j) = 0 for every window start n.  Sequences carry their
cyclotomic integer values together with the first index they cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import linalg
from .cyclotomic import combination


class InsufficientDataError(ValueError):
    """Too few sequence terms for the requested fit."""


class NoRecurrenceError(ValueError):
    """No recurrence up to the requested order validated on held-out terms."""


class IntPolynomial:
    """Integer polynomial, ascending coefficients, nonzero leading term."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            raise ValueError("the zero polynomial has no degree")
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def monic(self):
        return self.coeffs[-1] == 1

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

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
    """Exact divisibility of integer polynomials over the rationals."""
    _, rem = linalg.poly_divmod(
        [Fraction(c) for c in b.coeffs], [Fraction(c) for c in a.coeffs]
    )
    return not rem


@dataclass(frozen=True)
class Sequence:
    """Values s(n_min), s(n_min + 1), ... with a provenance tag."""

    n_min: int
    values: tuple
    provenance: str

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        ps = {v.p for v in self.values}
        if len(ps) > 1:
            raise ValueError("sequence mixes root orders %s" % sorted(ps))

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
        from .numtheory import legendre  # numtheory imports this module

        p = field.p
        sign = legendre(-1, p)
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

def satisfies(seq, poly):
    """Exact check of the recurrence on every full window of the sequence."""
    d = poly.degree
    if len(seq) < d + 1:
        raise InsufficientDataError(
            "need at least %d terms to test a degree-%d recurrence, have %d"
            % (d + 1, d, len(seq))
        )
    p = seq.values[0].p
    for start in range(len(seq) - d):
        if not combination(p, zip(poly.coeffs, seq.values[start : start + d + 1])).is_zero():
            return False
    return True


def extend(init, poly, n_target):
    """Continue a sequence with a monic recurrence, exactly.

    Extends forward past the last known term, or backward before the first
    one when the constant-coefficient division stays integral.
    """
    if not poly.monic:
        raise ValueError("extension needs a monic polynomial")
    d = poly.degree
    if len(init) < d:
        raise InsufficientDataError(
            "need at least %d initial terms, have %d" % (d, len(init))
        )
    values = list(init.values)
    n_min = init.n_min
    p = init.values[0].p
    while n_min + len(values) - 1 < n_target:
        values.append(-combination(p, zip(poly.coeffs[:d], values[-d:])))
    while n_min > n_target:
        c0 = poly.coeffs[0]
        if c0 == 0:
            raise ValueError("constant term zero, cannot step backward")
        values.insert(0, (-combination(p, zip(poly.coeffs[1:], values))).divide_exact(c0))
        n_min -= 1
    return Sequence(n_min, tuple(values), "recurrence")


def _component_rows(values, start, count):
    """Stack cyclotomic coordinates of a value window into integer rows."""
    ncomp = len(values[0].coeffs)
    rows = []
    for comp in range(ncomp):
        rows.append([values[start + i].coeffs[comp] for i in range(count)])
    return rows


def discover(seq, max_order, holdout=None):
    """Find the least-order monic recurrence fitted on a prefix and validated
    exactly on held-out terms.

    The fit solves for rational coefficients on all prefix windows; the
    result is cleared to integer coefficients (scaling by the common
    denominator when the monic fit is not integral).
    """
    if holdout is None:
        holdout = max_order
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    needed = 2 * max_order + holdout
    if len(seq) < needed:
        raise InsufficientDataError(
            "need at least %d terms (2*max_order + holdout), have %d"
            % (needed, len(seq))
        )
    fit_len = len(seq) - holdout
    values = seq.values
    ncomp = len(values[0].coeffs)
    for order in range(1, max_order + 1):
        rows = []
        rhs = []
        for start in range(fit_len - order):
            window = _component_rows(values, start, order + 1)
            for comp in range(ncomp):
                rows.append(window[comp][:order])
                rhs.append(-window[comp][order])
        solution, ok = linalg.solve_with_free_zero(rows, rhs)
        if not ok:
            continue
        denom = 1
        for c in solution:
            denom = lcm(denom, c.denominator)
        ints = [int(c * denom) for c in solution] + [denom]
        candidate = IntPolynomial(ints)
        full = Sequence(seq.n_min, values, seq.provenance)
        if satisfies(full, candidate):
            return candidate
    raise NoRecurrenceError(
        "no recurrence of order <= %d validates on the held-out terms" % max_order
    )
