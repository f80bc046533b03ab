"""Exact arithmetic in Z[zeta] for a primitive p-th root of unity, p prime.

Values are stored on the power basis 1, zeta, ..., zeta^(p-2) with integer
coordinates; zeta^(p-1) is rewritten as -(1 + zeta + ... + zeta^(p-2)).
For p = 2 the basis is just {1} and the ring degenerates to the ordinary
integers, which keeps character sums over F_2 on the same code path.

`CycInt(p, coeffs)` checks that p is prime, converts every coordinate with
int() and checks that there are p - 1 of them.  The private constructor
`CycInt._of(p, coords)` skips all three: it is for values the package has
just computed from validated ones, and its caller guarantees that p is a
prime already seen and that coords is a tuple of exactly p - 1 Python ints.
A list would make the value unhashable and unequal to the same value built
by CycInt(); a numpy integer would wrap on overflow in later arithmetic.
Callers therefore convert numpy rows with tuple(row.tolist()).
"""

from __future__ import annotations

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


class CycInt:
    """An element of Z[zeta_p] with exact integer coordinates.  Not a
    `funcalg.Frozen`: `transfer.run` and `recurrence.extend` build a value a
    term with `_of`, which `_set` makes about four times as slow (208 -> 819 ns
    on a 2-core x86 host), and equality three times (108 -> 330 ns)."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs):
        if p not in _PRIME_ORDERS:
            if not is_prime(p):
                raise ValueError("root order must be prime, got %r" % (p,))
            _PRIME_ORDERS.add(p)
        coeffs = tuple(map(int, coeffs))
        if len(coeffs) != p - 1:
            raise ValueError("expected %d coordinates, got %d" % (p - 1, len(coeffs)))
        self.p = p
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------------

    @classmethod
    def _of(cls, p, coords):
        """The value with these coordinates, unchecked: coords is a tuple of
        p - 1 Python ints computed from validated values of root order p."""
        self = object.__new__(cls)
        self.p = p
        self.coeffs = coords
        return self

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
        if self.p != other.p:
            raise ValueError("mixed root orders %d and %d" % (self.p, other.p))

    def __add__(self, other):
        self._check(other)
        return CycInt(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return CycInt(self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return CycInt(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.p, tuple(a * other for a in self.coeffs))
        self._check(other)
        return combination(self.p, ((self, other),))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def conjugate(self):
        """Complex conjugate, i.e. the automorphism zeta -> zeta^(-1)."""
        return self.galois_map(-1)

    def galois_map(self, s):
        """The automorphism zeta -> zeta^s for s not divisible by p."""
        if s % self.p == 0:
            raise ValueError("exponent must be prime to p")
        counts = [0] * self.p
        for i, a in enumerate(self.coeffs):
            counts[(i * s) % self.p] += a
        return CycInt.from_root_counts(self.p, counts)

    def divide_exact(self, n):
        """Divide by a nonzero integer, failing unless every coordinate divides."""
        if n == 0:
            raise ZeroDivisionError("division by zero")
        out = []
        for a in self.coeffs:
            qt, rm = divmod(a, n)
            if rm:
                raise ValueError("non-integral division of %r by %d" % (self, n))
            out.append(qt)
        return CycInt(self.p, tuple(out))

    # -- queries ------------------------------------------------------------

    def is_zero(self):
        return all(a == 0 for a in self.coeffs)

    def as_integer(self):
        """The value as a plain integer, or None when it is not rational."""
        if any(a != 0 for a in self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def __eq__(self, other):
        return (
            isinstance(other, CycInt)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return "CycInt(p=%d, [%s])" % (self.p, ", ".join(map(to_decimal, self.coeffs)))

    # -- serialization ------------------------------------------------------

    def to_record(self):
        return {"p": self.p, "coeffs": [to_decimal(c) for c in self.coeffs]}


def combination(p, pairs):
    """sum of a * b over the (a, b) pairs, exactly: a is an int or a CycInt,
    b a CycInt, all of root order p.

    Products land in one list of root-exponent counts, which is folded mod p
    and canonicalized once, so no intermediate sums are built.
    """
    counts = [0] * (2 * p)
    for a, b in pairs:
        if b.p != p:
            raise ValueError("mixed root orders %d and %d" % (p, b.p))
        if isinstance(a, int):
            if a:
                for j, y in enumerate(b.coeffs):
                    counts[j] += a * y
            continue
        if a.p != p:
            raise ValueError("mixed root orders %d and %d" % (p, a.p))
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs, i):
                    counts[j] += x * y
    return CycInt.from_root_counts(p, [counts[t] + counts[t + p] for t in range(p)])


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
