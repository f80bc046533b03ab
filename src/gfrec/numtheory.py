"""Number-theoretic support: quadratic characters, p-adic valuations,
quadratic Gauss sums, a Newton-polygon irreducibility test, an exact
Hadamard check on the quadratic matrix as the transfer module builds it
(the sigma(2) system over F_p), and a floating-point spectrum check."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cyclotomic import CycInt
from .galois import is_prime
from .recurrence import IntPolynomial
from .transfer import build_quadratic_matrix


def legendre(a, p):
    """Quadratic character of a modulo an odd prime p, in {-1, 0, 1}."""
    if not is_prime(p) or p == 2:
        raise ValueError("need an odd prime, got %r" % (p,))
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def valuation(n, p):
    """Exponent of p in n; math.inf for n = 0."""
    if not is_prime(p):
        raise ValueError("need a prime, got %r" % (p,))
    if n == 0:
        return math.inf
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def gauss_sum(a, p):
    """sum over k mod p of zeta^(a k^2), exactly in Z[zeta_p]."""
    if not is_prime(p) or p == 2:
        raise ValueError("need an odd prime, got %r" % (p,))
    counts = [0] * p
    for k in range(p):
        counts[(a * k * k) % p] += 1
    return CycInt.from_root_counts(p, counts)


def eisenstein_dumas(poly, p):
    """Newton-polygon irreducibility test at p.

    Returns "irreducible" when the polygon is a single segment of slope
    v_p(constant)/degree with numerator prime to the degree (the classical
    Eisenstein criterion is the slope-1/degree case).  Otherwise returns
    "criterion-not-applicable"; the test never claims reducibility.
    """
    if not isinstance(poly, IntPolynomial):
        poly = IntPolynomial(poly)
    n = poly.degree
    if n < 1:
        raise ValueError("need degree >= 1")
    coeffs = poly.coeffs
    if valuation(coeffs[n], p) != 0:
        return "criterion-not-applicable"
    v0 = valuation(coeffs[0], p)
    if v0 == math.inf or v0 < 1 or math.gcd(v0, n) != 1:
        return "criterion-not-applicable"
    for i in range(1, n):
        # coefficient of X^(n-i) must sit strictly above the segment
        vi = valuation(coeffs[n - i], p)
        if vi * n <= i * v0:
            return "criterion-not-applicable"
    return "irreducible"


def hadamard_check(p):
    """True when the sigma(2) system over F_p, the quadratic matrix M, has
    root-of-unity entries and satisfies M conj(M)^T = p I, both verified
    exactly on the exponents of its sparse entries.

    SparseMatrix.from_root_counts stores each entry in its fewest triples
    a zeta^t, so an entry is a root exactly when it is one triple of
    amplitude 1: each row then has p triples, in the columns 0 .. p-1.  Any
    other entry, a zero one included, is not a root.  With every entry a
    root zeta^e, each diagonal entry of M conj(M)^T is p, and entry (i, j)
    is the sum over k of zeta^(e_ik - e_jk).  The only relation among the
    powers of zeta is that all p of them sum to 0, so p of them sum to 0
    exactly when each power occurs once: the differences e_ik - e_jk cover
    every residue mod p once.
    """
    m = build_quadratic_matrix(p).sparse
    roots = (np.diff(m.starts) == p).all() and (m.amps == 1).all()
    if not (roots and (m.cols.reshape(p, p) == np.arange(p)).all()):
        return False
    e = m.exps.reshape(p, p)
    differences = np.sort((e[:, None, :] - e[None, :, :]) % p, axis=2)
    covered = (differences == np.arange(p)).all(axis=2)
    return bool((covered | np.eye(p, dtype=bool)).all())


@dataclass(frozen=True)
class EigenReport:
    p: int
    predicted: tuple  # (complex value, multiplicity) pairs
    max_error: float
    ok: bool


def predicted_spectrum(p):
    """Predicted eigenvalues of the quadratic matrix with multiplicities.

    Writing g for the standard quadratic Gauss sum and s = (p-1)/2, the
    spectrum is (-2|p) g zeta^(-s a^2) for a = 0..s, simple at a = 0 and
    double otherwise: (p+1)/2 distinct values in all.
    """
    if not is_prime(p) or p == 2:
        raise ValueError("need an odd prime, got %r" % (p,))
    g = gauss_sum(1, p).to_complex()
    sign = legendre(-2, p)
    s = (p - 1) // 2
    out = []
    for a in range(s + 1):
        value = sign * g * cmath.exp(2j * cmath.pi * ((-s * a * a) % p) / p)
        out.append((value, 1 if a == 0 else 2))
    return out


def eigen_check(p, tol=1e-9):
    """Compare the numerical spectrum of the quadratic matrix with the
    predicted one, matching each predicted value to its nearest unclaimed
    eigenvalues."""
    predicted = predicted_spectrum(p)
    j = np.arange(p)
    m = np.exp(2j * np.pi * ((j[:, None] * (j[None, :] - j[:, None])) % p) / p)
    eig = list(np.linalg.eigvals(m))
    max_error = 0.0
    for value, mult in predicted:
        for _ in range(mult):
            dist = [abs(e - value) for e in eig]
            best = dist.index(min(dist))
            max_error = max(max_error, float(dist[best]))
            eig.pop(best)
    assert not eig
    return EigenReport(
        p=p,
        predicted=tuple(predicted),
        max_error=max_error,
        ok=max_error <= tol,
    )
