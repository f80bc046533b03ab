"""Exact arithmetic in finite fields F_{p^r}.

Elements are represented in the polynomial basis: coefficient vectors over
Z_p modulo a fixed monic irreducible polynomial of degree r.  The prime
field (r = 1) uses the same machinery with modulus X.
"""

from __future__ import annotations

from math import isqrt

from .funcalg import Frozen


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_WITNESSED = 318665857834031151167461  # the least strong pseudoprime to all of them


def is_prime(n):
    """Whether the integer n is prime.  Below _WITNESSED, the strong
    probable-prime test to the first 12 prime bases decides it (Sorenson and
    Webster, Math. Comp. 2017); above it, trial division does."""
    if n < 2:
        return False
    for w in _WITNESSES:
        if n % w == 0:
            return n == w
    if n >= _WITNESSED:
        return all(n % d for d in range(41, isqrt(n) + 1, 2))
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for w in _WITNESSES:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over Z_p
# coefficient lists are ascending: cs[i] is the coefficient of X^i

def _trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_mod(a, m, p):
    """Remainder of a modulo the monic polynomial m."""
    a = list(a)
    _trim(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm:
        lead = a[-1]
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - lead * mi) % p
        _trim(a)
    return a


def _is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree 1..deg//2."""
    deg = len(poly) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for v in range(p**d):
            cand = _digits(v, p, d) + [1]
            if not _poly_mod(poly, cand, p):
                return False
    return True


def _digits(v, p, r):
    out = []
    for _ in range(r):
        out.append(v % p)
        v //= p
    return out


class FieldSpec(Frozen):
    """A concrete finite field: characteristic p, degree r, fixed modulus.

    Two specs compare equal only when the modulus matches as well, since the
    coordinate representation of elements depends on it.
    """

    __slots__ = ("p", "r", "modulus")

    def __init__(self, p, r, modulus):
        if not is_prime(p):
            raise ValueError("characteristic must be prime, got %r" % (p,))
        if r < 1:
            raise ValueError("extension degree must be >= 1")
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != r + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree r")
        if not _is_irreducible(list(modulus), p):
            raise ValueError("modulus is reducible over Z_%d" % p)
        self._set(p, r, modulus)

    @property
    def q(self):
        return self.p**self.r

    def __repr__(self):
        return "FieldSpec(p=%d, r=%d, modulus=%s)" % (self.p, self.r, list(self.modulus))

    def describe(self):
        return "%d^%d" % (self.p, self.r) if self.r > 1 else "%d" % self.p

    def element(self, coeffs):
        cs = [c % self.p for c in coeffs]
        if len(cs) > self.r:
            cs = _poly_mod(cs, list(self.modulus), self.p)
        cs += [0] * (self.r - len(cs))
        return FieldElement(self, tuple(cs))

    def zero(self):
        return self.element([])

    def one(self):
        return self.element([1])

    def scalar(self, n):
        """The image of the integer n in the prime subfield."""
        return self.element([n % self.p])

    def from_index(self, i):
        """Element number i in enumeration order (base-p value of the vector)."""
        if not 0 <= i < self.q:
            raise ValueError("index out of range")
        return FieldElement(self, tuple(_digits(i, self.p, self.r)))

    def elements(self):
        return [self.from_index(i) for i in range(self.q)]


class FieldElement(Frozen):
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self._set(field, coeffs)

    @property
    def index(self):
        v = 0
        for c in reversed(self.coeffs):
            v = v * self.field.p + c
        return v

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def _check(self, other):
        if not isinstance(other, FieldElement):
            raise TypeError("expected a FieldElement")
        if self.field != other.field:
            raise ValueError("elements belong to different fields")

    def __add__(self, other):
        self._check(other)
        p = self.field.p
        return FieldElement(
            self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        self._check(other)
        p = self.field.p
        return FieldElement(
            self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        f = self.field
        prod = _poly_mul(list(self.coeffs), list(other.coeffs), f.p)
        prod = _poly_mod(prod, list(f.modulus), f.p)
        prod += [0] * (f.r - len(prod))
        return FieldElement(f, tuple(prod))

    def __pow__(self, e):
        f = self.field
        if e < 0:
            return self.inverse() ** (-e)
        result = f.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero")
        return self ** (self.field.q - 2)

    def frobenius(self):
        return self ** self.field.p

    def trace(self):
        """Trace down to the prime field, returned as an integer residue mod p."""
        acc = self
        frob = self
        for _ in range(self.field.r - 1):
            frob = frob.frobenius()
            acc = acc + frob
        if any(c != 0 for c in acc.coeffs[1:]):
            raise ArithmeticError("trace left the prime subfield")
        return acc.coeffs[0]

    def __repr__(self):
        return "FieldElement(%s, %s)" % (self.field.describe(), list(self.coeffs))


def prime_power(q):
    """(p, r) with q = p^r and p prime; ValueError when q is not a prime power."""
    if q < 2:
        raise ValueError("%d is not a prime power" % q)
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    r = 0
    m = q
    while m > 1:
        if m % p:
            raise ValueError("%d is not a prime power" % q)
        m //= p
        r += 1
    return p, r


def make_field(p, r=1, modulus=None):
    """Build F_{p^r}.

    When no modulus is given the default is deterministic: the monic
    irreducible polynomial of degree r whose coefficient vector, read as a
    base-p integer with the constant term least significant, is smallest.
    """
    if not is_prime(p):
        raise ValueError("characteristic must be prime, got %r" % (p,))
    if r < 1:
        raise ValueError("extension degree must be >= 1")
    if modulus is not None:
        return FieldSpec(p, r, modulus)
    for v in range(p**r):
        cand = _digits(v, p, r) + [1]
        if _is_irreducible(cand, p):
            return FieldSpec(p, r, cand)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def trace(x):
    """Field trace of x to the prime field, as an integer residue mod p."""
    return x.trace()
