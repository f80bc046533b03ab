"""Number-theoretic support: quadratic characters, p-adic valuations,
quadratic Gauss sums, a Newton-polygon irreducibility test, and two exact
checks on the quadratic matrix as the transfer module builds it (the
sigma(2) system over F_p), both read off its sparse triples: that it is a
complex Hadamard matrix, and that its spectrum is the predicted one of
Gauss sums times roots of unity, in Z[zeta_p] arithmetic.  Only those
two checks import `transfer` and `linalg`, when they run, so the Gauss
sums and the irreducibility test load neither."""

import math

import numpy as np

from .cyclotomic import CycInt, build_root_counts, build_unchecked, combination, root_power
from .funcalg import Frozen
from .galois import is_prime
from .limits import check_eigen_prime, check_eisenstein_prime, check_gauss_prime
from .recurrence import IntPolynomial


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
    return _valuation(n, p)


def _valuation(n, p):
    if n == 0:
        return math.inf
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def gauss_sum(a, p):
    """sum over k mod p of zeta^(a k^2), exactly in Z[zeta_p], for p <= `limits.GAUSS_SUM_PRIME`."""
    check_gauss_prime(p)
    if not is_prime(p) or p == 2:
        raise ValueError("need an odd prime, got %r" % (p,))
    counts = [0] * p
    for k in range(p):
        counts[(a * k * k) % p] += 1
    return build_root_counts(counts)


def eisenstein_dumas(poly, p):
    """Newton-polygon irreducibility test at p.

    Returns "irreducible" when the polygon is a single segment of slope
    v_p(constant)/degree with numerator prime to the degree (the classical
    Eisenstein criterion is the slope-1/degree case).  Otherwise returns
    "criterion-not-applicable"; the test never claims reducibility.  p is
    tested for primality once, after `limits.EISENSTEIN_PRIME` bounds it.
    """
    if not isinstance(poly, IntPolynomial):
        poly = IntPolynomial(poly)
    n = poly.degree
    if n < 1:
        raise ValueError("need degree >= 1")
    coeffs = poly.coeffs
    check_eisenstein_prime(p)
    if not is_prime(p):
        raise ValueError("need a prime, got %r" % (p,))
    if _valuation(coeffs[n], p) != 0:
        return "criterion-not-applicable"
    v0 = _valuation(coeffs[0], p)
    if v0 == math.inf or v0 < 1 or math.gcd(v0, n) != 1:
        return "criterion-not-applicable"
    for i in range(1, n):
        # coefficient of X^(n-i) must sit strictly above the segment
        vi = _valuation(coeffs[n - i], p)
        if vi * n <= i * v0:
            return "criterion-not-applicable"
    return "irreducible"


def hadamard_check(p, system=None):
    """True when the sigma(2) system over F_p, the quadratic matrix M, has
    root-of-unity entries and satisfies M conj(M)^T = p I, both verified
    exactly on the exponents of its sparse entries.  system is that system
    as `build_quadratic_matrix(p)` returns it, built here when None.

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
    from .transfer import build_quadratic_matrix

    m = (build_quadratic_matrix(p) if system is None else system).sparse
    roots = (np.diff(m.starts) == p).all() and (m.amps == 1).all()
    if not (roots and (m.cols.reshape(p, p) == np.arange(p)).all()):
        return False
    e = m.exps.reshape(p, p)
    differences = np.sort((e[:, None, :] - e[None, :, :]) % p, axis=2)
    covered = (differences == np.arange(p)).all(axis=2)
    return bool((covered | np.eye(p, dtype=bool)).all())


class EigenReport(Frozen):
    __slots__ = ("p", "predicted", "ok")  # predicted: (CycInt value, multiplicity) pairs

    def __init__(self, p, predicted, ok):
        self._set(p, predicted, ok)


def predicted_spectrum(p):
    """Predicted eigenvalues of the quadratic matrix, exactly in Z[zeta_p], with multiplicities.

    Writing g for the standard quadratic Gauss sum and s = (p-1)/2, the
    spectrum is (-2|p) g zeta^(-s a^2) for a = 0..s, simple at a = 0 and
    double otherwise: (p+1)/2 distinct values in all.
    """
    g = legendre(-2, p) * gauss_sum(1, p)
    s = (p - 1) // 2
    return [(g * root_power(p, -s * a * a), 1 if a == 0 else 2) for a in range(s + 1)]


def _minus_scalar(m, value):
    """M - value I as one SparseMatrix: m's triples, and on each diagonal
    entry the triples -c zeta^t of value's nonzero coordinates c, with
    columns ascending in each row."""
    from .linalg import SparseMatrix

    t = np.flatnonzero(value.coeffs)
    diagonal = np.repeat(np.arange(m.dim), len(t))
    rows = np.concatenate([np.repeat(np.arange(m.dim), np.diff(m.starts)), diagonal])
    cols = np.concatenate([m.cols, diagonal])
    order = np.lexsort((cols, rows))
    exps = np.concatenate([m.exps, np.tile(t, m.dim)])[order]
    amps = np.concatenate([m.amps, -np.tile(np.take(value.coeffs, t), m.dim)])[order]
    return SparseMatrix(m.p, np.searchsorted(rows[order], np.arange(m.dim + 1)), cols[order], exps, amps)


def eigen_check(p, system=None):
    """Check exactly that the sigma(2) system over F_p, the quadratic matrix
    M, has the predicted values lambda_a with multiplicities m_a:
    1. prod_a (M - lambda_a I) = 0, so M is diagonalizable and each of its
       eigenvalues is some lambda_a;
    2. Tr(M^j) = sum_a m_a lambda_a^j for j = 1 .. s+1, s = (p-1)/2.
    The true multiplicities solve the equations of 2 too.  The lambda_a are
    nonzero (|g|^2 = p) and distinct (a^2 for a = 0..s are distinct mod p),
    so (lambda_a^j) is invertible, a Vandermonde matrix times diag(lambda_a),
    and the multiplicities are the m_a.  Both checks step exactly
    (SparseMatrix.times) on the p columns of the identity side by side, 1.
    one SparseMatrix for M - lambda_a I per factor, since a difference of
    two exact int64 products can still overflow, and 2. M.  A prime past
    `limits.EIGEN_CHECK_PRIME` is refused before any of that.  system is
    M's system as `build_quadratic_matrix(p)` returns it, built here when
    None.
    """
    from .transfer import build_quadratic_matrix

    if is_prime(p) and p > 2:  # predicted_spectrum refuses any other p
        check_eigen_prime(p)
    predicted = predicted_spectrum(p)
    m = (build_quadratic_matrix(p) if system is None else system).sparse
    diagonal = np.arange(p), slice(None), np.arange(p)  # entry (a, a) of each power
    identity = np.zeros((p, p - 1, p), dtype=np.int64)
    identity[:, 0] = np.identity(p, dtype=np.int64)
    v = identity
    for value, _mult in predicted:
        v = _minus_scalar(m, value).times(v)
    ok = not v.any()
    v, powers = identity, [value for value, _mult in predicted]
    for _ in predicted:
        v = m.times(v)
        trace = build_unchecked(map(sum, zip(*v[diagonal].tolist())))
        ok = ok and trace == combination(p, [(mult, x) for (_v, mult), x in zip(predicted, powers)])
        powers = [x * value for x, (value, _mult) in zip(powers, predicted)]
    return EigenReport(p=p, predicted=tuple(predicted), ok=bool(ok))
