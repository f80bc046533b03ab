"""Exact arithmetic in Z[zeta] for a primitive p-th root of unity, p prime.

Values are stored on the power basis 1, zeta, ..., zeta^(p-2) with integer
coordinates; zeta^(p-1) is rewritten as -(1 + zeta + ... + zeta^(p-2)).
For p = 2 the basis is just {1} and the ring degenerates to the ordinary
integers, which keeps character sums over F_2 on the same code path.

`CycInt(p, coeffs)` checks that p is prime, converts every coordinate with
int() and checks that there are p - 1 of them, and so does
`CycInt.from_root_counts(p, counts)` for the p root counts of a value.
`build_unchecked(coords)` and `build_root_counts(counts)` skip all three:
they are for values the package has just computed from validated ones, and
their caller guarantees that coords holds exactly p - 1 Python ints, or
counts exactly p, for a prime p.  A numpy integer would wrap on overflow in
later arithmetic, so callers convert numpy rows with tolist().
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from operator import add, mul, neg, sub

from .galois import is_prime

_PRIME_ORDERS = set()  # root orders already validated by is_prime
_STR_BITS = 2000  # str() takes ints of up to 602 digits under any digit limit Python allows


def to_decimal(n):
    """The decimal string of an int n of any size, the same as str(n).

    Python 3.11 (and 3.10.7 on) refuses str() of an int past a digit limit,
    4300 by default.  A larger n is split by a power of ten near half its
    digits, and the halves are written in turn.
    """
    if n.bit_length() <= _STR_BITS:
        return str(n)
    if n < 0:
        return "-" + to_decimal(-n)
    k = n.bit_length() * 3 // 20  # under half the digits, so high >= 1
    high, low = divmod(n, 10**k)
    return to_decimal(high) + to_decimal(low).zfill(k)


class CycInt(tuple):
    """An element of Z[zeta_p] with exact integer coordinates: the tuple of
    its p - 1 coordinates, so a value is one object, and p = len + 1.

    `coeffs` is those items as a plain tuple.  Being a tuple, a value also
    has `len`, iteration and indexing, over its coordinates, and `np.array`
    of values gives an int64 array, which can wrap (no package path builds
    one).  Equality is strict: a value equals only a CycInt with the same
    coordinates, never a plain tuple.  Values are not ordered, and `+` and
    `*` with a plain tuple refuse it rather than concatenate or repeat.

    Not a `funcalg.Frozen`, whose value is a slots instance that holds its
    fields, two objects where this is one: `transfer.run` and
    `recurrence.extend` build tens of thousands of values a pass, mapping
    `build_unchecked` over their coordinate rows."""

    __slots__ = ()

    def __new__(cls, p, coeffs):
        _check_order(p)
        coeffs = tuple(map(int, coeffs))
        if len(coeffs) != p - 1:
            raise ValueError("expected %d coordinates, got %d" % (p - 1, len(coeffs)))
        return tuple.__new__(cls, coeffs)

    @property
    def p(self):
        return len(self) + 1

    coeffs = property(tuple, doc="The coordinates as a plain tuple.")

    def __reduce__(self):
        return CycInt, (len(self) + 1, tuple(self))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_int(cls, p, n):
        return cls(p, (n,) + (0,) * (p - 2))

    @classmethod
    def from_root_counts(cls, p, counts):
        """Canonical form of sum_t counts[t] * zeta^t, counts indexed 0..p-1."""
        counts = list(counts)
        if len(counts) != p:
            raise ValueError("expected %d exponent counts" % p)
        top = counts[p - 1]
        return cls(p, tuple(counts[i] - top for i in range(p - 1)))

    @classmethod
    def zero(cls, p):
        return cls.from_int(p, 0)

    @classmethod
    def one(cls, p):
        return cls.from_int(p, 1)

    # -- ring operations ----------------------------------------------------

    def _check(self, other):
        if not isinstance(other, CycInt):
            raise TypeError("expected a CycInt")
        if len(self) != len(other):
            raise ValueError("mixed root orders %d and %d" % (self.p, other.p))

    def __add__(self, other):
        self._check(other)
        return build_unchecked(map(add, self, other))

    def __radd__(self, other):  # else a plain tuple + a value would concatenate
        raise TypeError("expected a CycInt")

    def __sub__(self, other):
        self._check(other)
        return build_unchecked(map(sub, self, other))

    def __neg__(self):
        return build_unchecked(map(neg, self))

    def __mul__(self, other):
        if isinstance(other, int):
            return build_unchecked(map(mul, self, repeat(other)))
        self._check(other)
        return combination(len(self) + 1, ((self, other),))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def conjugate(self):
        """Complex conjugate, i.e. the automorphism zeta -> zeta^(-1)."""
        return self.galois_map(-1)

    def galois_map(self, s):
        """The automorphism zeta -> zeta^s for s not divisible by p."""
        p = len(self) + 1
        if s % p == 0:
            raise ValueError("exponent must be prime to p")
        counts = [0] * p
        for i, a in enumerate(self):
            counts[(i * s) % p] += a
        return CycInt.from_root_counts(p, counts)

    def divide_exact(self, n):
        """Divide by a nonzero integer, failing unless every coordinate divides."""
        if n == 0:
            raise ZeroDivisionError("division by zero")
        out = []
        for a in self:
            qt, rm = divmod(a, n)
            if rm:
                raise ValueError("non-integral division of %r by %d" % (self, n))
            out.append(qt)
        return build_unchecked(out)

    # -- queries ------------------------------------------------------------

    def is_zero(self):
        return not any(self)

    def as_integer(self):
        """The value as a plain integer, or None when it is not rational."""
        if any(self[1:]):
            return None
        return self[0]

    def __eq__(self, other):
        return isinstance(other, CycInt) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    def _unordered(self, other):
        raise TypeError("CycInt values are not ordered")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __repr__(self):
        return "CycInt(p=%d, [%s])" % (len(self) + 1, ", ".join(map(to_decimal, self)))

    # -- serialization ------------------------------------------------------

    def to_record(self):
        return {"p": len(self) + 1, "coeffs": [to_decimal(c) for c in self]}


# The CycInt with the coordinates of one iterable, unchecked (see the module
# docstring).  It builds at C level, so bulk builders map it over coordinate
# rows with no Python frame a value.
build_unchecked = partial(tuple.__new__, CycInt)


def build_root_counts(counts):
    """The CycInt sum_t counts[t] zeta^t of a list of p root counts,
    unchecked (see the module docstring): the coordinates are the counts of
    1 .. zeta^(p-2) less that of zeta^(p-1)."""
    return build_unchecked(map(sub, counts[:-1], repeat(counts[-1])))


def _check_order(p):
    if p not in _PRIME_ORDERS:
        if not is_prime(p):
            raise ValueError("root order must be prime, got %r" % (p,))
        _PRIME_ORDERS.add(p)


def combination(p, pairs):
    """sum of a * b over the (a, b) pairs, exactly: a is an int or a CycInt,
    b a CycInt, all of root order p.

    Products land in one list of root-exponent counts, which is folded mod p
    and canonicalized once, so no intermediate sums are built.
    """
    _check_order(p)
    counts = [0] * (2 * p)
    for a, b in pairs:
        if len(b) != p - 1:
            raise ValueError("mixed root orders %d and %d" % (p, b.p))
        if isinstance(a, int):
            if a:
                for j, y in enumerate(b):
                    counts[j] += a * y
            continue
        if len(a) != p - 1:
            raise ValueError("mixed root orders %d and %d" % (p, a.p))
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    counts[j] += x * y
    top = counts[p - 1] + counts[2 * p - 1]
    return build_unchecked([counts[t] + counts[t + p] - top for t in range(p - 1)])


def root_power(p, e):
    """zeta_p^e in canonical coordinates."""
    counts = [0] * p
    counts[e % p] = 1
    return CycInt.from_root_counts(p, counts)


def regular_matrix(a):
    """Multiplication by a as an integer matrix on the power basis.

    Column j holds the coordinates of a * zeta^j, so the map is a ring
    homomorphism: regular_matrix(a * b) = regular_matrix(a) @ regular_matrix(b).
    """
    n = a.p - 1
    cols = []
    for j in range(n):
        img = a * root_power(a.p, j)
        cols.append(img.coeffs)
    return [[cols[j][i] for j in range(n)] for i in range(n)]
