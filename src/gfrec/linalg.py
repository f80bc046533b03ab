"""Exact linear algebra (internal helpers).

Integer linear solving, the sparse matrix type over Z[zeta_p] (each entry
stored as triples a zeta^t, so a product rolls root counts), and the
certified minimal polynomial of such a matrix.  Every result is exact:
elimination runs on Python ints (Bareiss), and the minimal polynomial is
computed modulo word-sized primes and then proved over Z[zeta_p].
"""

from __future__ import annotations

import random
from itertools import count
from math import comb

import numpy as np

from .galois import is_prime
from .limits import check_degree


def solve_with_free_zero(rows, rhs):
    """Solve A x = b over the rationals for integer A and b by fraction-free
    (Bareiss) Gauss-Jordan elimination.

    Returns (x, d) with integers x, d > 0 and A x = d b, free variables
    zero, or None when the system is inconsistent.  Every entry after a step
    is a minor, so each division by the previous pivot is exact and all
    pivots end equal to the last, D; d is |D|, and x / d is the reduced row
    echelon solution.
    """
    ncols = len(rows[0]) if len(rows) else 0
    aug = [r for r in (list(a) + [b] for a, b in zip(rows, rhs)) if any(r)]
    pivots = []
    prev = 1
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, len(aug)) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        top = aug[row]
        pv = top[col]
        for i, r in enumerate(aug):
            f = r[col]
            if i == row or (not f and pv == prev):
                continue
            aug[i] = [(pv * a - f * b) // prev for a, b in zip(r, top)]
        prev = pv
        pivots.append(col)
        row += 1
    if any(r[ncols] for r in aug[row:]):
        return None
    sign = 1 if prev > 0 else -1
    x = [0] * ncols
    for i, col in enumerate(pivots):
        x[col] = sign * aug[i][ncols]
    return x, sign * prev


# ---------------------------------------------------------------------------
# sparse matrices over Z[zeta_p]

class SparseMatrix:
    """A matrix over Z[zeta_p] as triples a zeta^t, row by row.

    Row i holds the triples k = starts[i] .. starts[i+1]-1: column cols[k],
    exponent exps[k] in 0 .. p-1 and integer amplitude amps[k].  An entry is
    the sum of its column's triples, which are adjacent; columns ascend within
    a row.  Z[zeta_p] is Z[C_p] modulo the sum of the p roots (Washington,
    Introduction to Cyclotomic Fields, ch. 1), so a zeta^t acts on a value's
    root counts as a roll by t and a scale by a.  Transfer matrices are
    square; a projection is a single row.  Products run on a padded layout:
    slot w * dim + i holds row i's w-th triple, or padding of amplitude 0.
    """

    __slots__ = ("p", "starts", "cols", "exps", "amps", "_width", "_slots", "_gather", "_amps", "_roll", "_norm")

    def __init__(self, p, starts, cols, exps, amps):
        self.p = p
        self.starts = np.asarray(starts, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.exps = np.asarray(exps, dtype=np.int64)
        self.amps = np.asarray(amps, dtype=np.int64)
        lengths = np.diff(self.starts)
        self._width = int(lengths.max()) if len(lengths) else 0
        row = np.repeat(np.arange(len(lengths)), lengths)
        self._slots = (np.arange(len(self.cols)) - self.starts[row]) * len(lengths) + row
        self._gather = self._padded(self.cols)
        self._roll = None
        self._norm = int(self._row_sums(self._padded(np.abs(self.amps))).max(initial=0))
        if p == 2:  # zeta = -1, so a zeta^t is the integer a (-1)^t
            self._amps = self._padded(self.amps * (1 - 2 * self.exps))[:, None]
            return
        self._amps = self._padded(self.amps)[:, None]
        # root r of a slot reads root (r - t) mod p of its column's root counts
        shift = (np.arange(p) - np.arange(p)[:, None]) % p
        self._roll = shift.take(self._padded(self.exps), axis=0)
        self._roll += self._gather[:, None] * p

    @classmethod
    def from_root_counts(cls, p, dim, rows, cols, exponents):
        """The dim x dim matrix whose entry (i, j) sums zeta^t over the triples
        (i, j, t) read off the three equal-length integer arrays.  The p roots
        sum to 0, so an entry keeps its value when its root counts all drop by
        the most frequent one (among equals, that of zeta^(p-1)).  That leaves
        the entry in its fewest triples: one for a zeta^t, none for 0, and
        exponent 0 over p = 2."""
        key, inverse = np.unique(np.asarray(rows, dtype=np.int64) * dim + cols, return_inverse=True)
        n = len(key)
        counts = np.bincount(inverse * p + exponents, minlength=n * p).reshape(n, p)
        entry, size = np.arange(n), counts.max(initial=0) + 1
        freq = counts * n
        freq += entry[:, None]  # then freq[c, k] counts the roots that entry k counts c times
        freq = np.bincount(freq.ravel(), minlength=size * n).reshape(size, n)
        last = counts[:, -1]
        counts -= np.where(freq[last, entry] == freq.max(axis=0), last, freq.argmax(axis=0))[:, None]
        entry, exps = np.nonzero(counts)
        key = key[entry]
        starts = np.searchsorted(key, np.arange(dim + 1) * dim)
        return cls(p, starts, key % dim, exps, counts[entry, exps])

    @property
    def dim(self):
        return len(self.starts) - 1

    @property
    def nnz(self):
        """The number of stored triples."""
        return len(self.cols)

    def _padded(self, a):
        """Per-triple values a (first axis nnz) spread over the padded slots."""
        out = np.zeros((self.dim * self._width,) + a.shape[1:], dtype=np.int64)
        out[self._slots] = a
        return out

    def _row_sums(self, slots):
        return np.add.reduce(slots.reshape((self._width, self.dim) + slots.shape[1:]), axis=0)

    def row_norm(self):
        """Largest row sum of the absolute amplitudes."""
        return self._norm

    def times(self, v):
        """M v exactly.  v holds the power-basis coordinates of a vector, one
        row per column of M, or of (dim, p-1, columns) vectors side by side,
        as an int64 or a dtype=object (Python int) array.  The result has M's
        rows; it is int64 when v is int64 and 2 row_norm() max|v| < 2^63, and
        dtype=object (Python ints) otherwise, so every product is exact
        whatever the caller passes.

        v's rows, with a 0 appended for zeta^(p-1), are root counts.  One
        gather rolls them by each slot's exponent; they are scaled by its
        amplitude, summed over the padded row, and mapped back to coordinates
        by zeta^(p-1) = -(1 + ... + zeta^(p-2)).  Row sums are at most
        row_norm() max|v| in absolute value and coordinates twice that, so
        int64 is exact below the bound, and v moves to Python ints at it.
        Over p = 2 the entries are integers and v has one coordinate, the
        count of zeta^0, so its rows are gathered by column, scaled and
        summed, with no appended root to roll.
        """
        if v.dtype != object and 2 * self._norm * max(int(v.max(initial=0)), -int(v.min(initial=0))) >= 1 << 63:
            v = v.astype(object)
        columns = v.shape[2:]
        amps = self._amps[..., None] if columns else self._amps
        if self._roll is None:
            prod = v.take(self._gather, axis=0)
            prod *= amps
            return self._row_sums(prod)
        counts = np.zeros((len(v), self.p) + columns, dtype=v.dtype)
        counts[:, :-1] = v
        rolled = counts.reshape(-1, *columns).take(self._roll, axis=0) if columns else counts.take(self._roll)
        rolled *= amps
        sums = self._row_sums(rolled)
        return sums[:, :-1] - sums[:, -1:]

    def inflated_norm(self):
        """Largest row sum of absolute values of the integer matrix that
        replaces each entry by its multiplication matrix on the power basis,
        or an upper bound of it where an entry has several triples.  The block
        of a zeta^t has the columns a zeta^(t+j): a unit vector times a, or
        all -a at t + j = p - 1.  So its row r sums to |a| (1 + [t != 0]),
        less |a| at r = t - 1."""
        mag = np.abs(self.amps)
        total = self._row_sums(self._padded(mag * (1 + (self.exps != 0))))
        missing = np.zeros((self.dim, self.p), dtype=np.int64)
        np.add.at(missing, (np.repeat(np.arange(self.dim), np.diff(self.starts)), self.exps), mag)
        return int((total - missing[:, 1:].min(axis=1)).max(initial=0))

    def embedded(self, ell):
        """The entries under the p-1 embeddings zeta -> w^j (j = 1 .. p-1) into
        F_ell, for ell = 1 (mod p) and w of order p: one row of p-1 residues
        a w^(t j) per padded slot, the input apply expects."""
        p = self.p
        w = next(r for r in (pow(g, (ell - 1) // p, ell) for g in count(2)) if r != 1)
        wpow = np.array([pow(w, t, ell) for t in range(p)], dtype=np.int64)
        out = (self.amps % ell)[:, None] * wpow[np.outer(self.exps, np.arange(1, p)) % p] % ell
        return self._padded(out)

    def apply(self, vals, x, ell):
        """M x mod ell on every embedding at once: vals is embedded(ell), x has
        shape (dim, p-1) or (dim, p-1, columns) with entries in [0, ell)."""
        prod = x[self._gather]
        prod *= vals.reshape(vals.shape + (1,) * (x.ndim - 2))
        if self._width >= 1 << 13:  # row sums of products below 2^50 fit int64
            prod %= ell
        out = self._row_sums(prod)
        out %= ell
        return out


# ---------------------------------------------------------------------------
# minimal polynomial: modular candidate plus exact certificate

_PRIME_BOUND = 1 << 25  # products of residues stay below 2^50
_SEED = 2017  # probes come from one fixed-seed generator per call (numpy.random
# is left out: importing it costs about 6 MB)
_QUIET_TERMS = 16  # Berlekamp-Massey stops after this many terms without change
_BLOCK_COLUMNS = 256  # identity columns per certificate block
_BLOCK_ELEMENTS = 1 << 21  # and at most this many gathered products per block
_ATTEMPTS = 8
_PRIMES = {}  # p -> primes found so far, largest first


def _primes(p):
    """The primes ell = 1 (mod p) below 2^25, largest first."""
    found = _PRIMES.setdefault(p, [])
    for i in count():
        if i == len(found):
            ell = found[-1] - p if found else (_PRIME_BOUND - 2) // p * p + 1
            while not is_prime(ell):
                ell -= p
            found.append(ell)
        yield found[i]


def _sequence_polynomial(m, ell, rng, degree_cap):
    """Berlekamp-Massey on a_k = sum_j u_j . sigma_j(M)^k v_j mod ell, with
    random probes u, v: the monic minimal polynomial of that sequence,
    ascending residues.  Its degree, the linear complexity, is at most the
    degree of the minimal polynomial of M."""
    vals = m.embedded(ell)
    size = m.dim * (m.p - 1)
    u, x = (
        np.array([rng.randrange(ell) for _ in range(size)], dtype=np.int64).reshape(m.dim, -1)
        for _ in range(2)
    )
    seq = []
    conn, prev = [1], [1]  # connection polynomials, constant term first
    length, gap, last = 0, 1, 1
    quiet = 0
    while True:
        a = int((u * x % ell).sum()) % ell
        seq.append(a)
        n = len(seq) - 1
        d = (a + sum(c * seq[n - i] for i, c in enumerate(conn[1:], 1))) % ell
        if d == 0:
            gap += 1
            quiet += 1
        else:
            scale = d * pow(last, -1, ell) % ell
            old = conn
            conn = conn + [0] * max(0, len(prev) + gap - len(conn))
            for i, c in enumerate(prev, gap):
                conn[i] = (conn[i] - scale * c) % ell
            if 2 * length <= n:
                length, prev, last, gap = n + 1 - length, old, d, 1
                check_degree(length, degree_cap)
            else:
                gap += 1
            quiet = 0
        terms = len(seq)
        if terms >= 2 * length and (quiet >= _QUIET_TERMS or terms >= 2 * m.dim * (m.p - 1)):
            break
        x = m.apply(vals, x, ell)
    conn = conn + [0] * (length + 1 - len(conn))
    return conn[length::-1]


def _coefficient_bound(norm, degree):
    """The largest |c_k| of a monic polynomial of the given degree whose
    roots have absolute value at most norm: C(degree, k) norm^(degree - k)."""
    return max(comb(degree, k) * norm ** (degree - k) for k in range(degree + 1))


def _candidate(m, degree_cap, primes, rng):
    """Monic integer polynomial lifted by CRT from sequence polynomials mod
    successive primes.  A lower degree than the best seen so far marks an
    unlucky prime or probe and is skipped; a higher one starts the lift
    again.

    The roots of mu are eigenvalues of the inflated matrix, so they are at
    most N = inflated_norm() in absolute value, and a coefficient c_k of mu,
    of degree d, is at most C(d, k) N^(d - k).  When the residues are mu's,
    the symmetric lift is mu once the modulus exceeds twice that bound, and
    it is returned then, after one prime for most systems.  Otherwise it is
    returned once another prime leaves it unchanged.
    """
    norm = m.inflated_norm()
    lift = residues = None
    modulus = 1
    for ell in primes:
        got = _sequence_polynomial(m, ell, rng, degree_cap)
        restart = residues is None or len(got) > len(residues)
        if restart:
            residues, modulus = got, ell
        elif len(got) < len(residues):
            continue
        else:
            inv = pow(modulus, -1, ell)
            residues = [r + modulus * ((g - r) * inv % ell) for r, g in zip(residues, got)]
            modulus *= ell
        new = [r - modulus if 2 * r > modulus else r for r in residues]
        if modulus > 2 * _coefficient_bound(norm, len(new) - 1) or new == lift:
            return new
        lift = None if restart else new


def _vanishes_mod(m, poly, ell):
    """Whether P(sigma_j(M)) = 0 mod ell for every embedding j, applying P by
    Horner's rule to blocks of identity columns."""
    vals = m.embedded(ell)
    dim, e = m.dim, m.p - 1
    slots = m.dim * m._width * e
    width = max(1, min(_BLOCK_COLUMNS, _BLOCK_ELEMENTS // max(1, slots)))
    top, rest = poly[-1] % ell, [c % ell for c in reversed(poly[:-1])]
    for first in range(0, dim, width):
        idx = np.arange(min(width, dim - first))
        diag = (first + idx, slice(None), idx)
        y = np.zeros((dim, e, len(idx)), dtype=np.int64)
        y[diag] = top
        for c in rest:
            y = m.apply(vals, y, ell)
            y[diag] = (y[diag] + c) % ell
        if y.any():
            return False
    return True


def certify(m, poly):
    """Whether the integer polynomial poly (ascending) annihilates m exactly.

    Let M' be m inflated to an integer matrix, each entry replaced by its
    multiplication matrix on the power basis, and N inflated_norm(), its
    largest absolute row sum or a bound on it.  Every entry of P(M') is at
    most S = sum |c_k| N^k in absolute value.
    For a prime ell = 1 (mod p), zeta -> (w^j)_j maps Z[zeta_p]/ell onto
    F_ell^(p-1), so P(M') = 0 mod ell exactly when P(sigma_j(M)) = 0 mod ell
    for every embedding j.  Checking that for primes whose product exceeds
    2S proves P(M') = 0, hence P(M) = 0.
    """
    if not any(poly):
        return True
    norm = m.inflated_norm()
    bound = 2 * sum(abs(c) * norm**k for k, c in enumerate(poly))
    modulus = 1
    for ell in _primes(m.p):
        if modulus > bound:
            return True
        if not _vanishes_mod(m, poly, ell):
            return False
        modulus *= ell


def minimal_polynomial(m, degree_cap):
    """Monic minimal polynomial of the SparseMatrix m, ascending integers.

    This is the minimal polynomial mu of the inflated integer matrix, that
    is, the least monic rational polynomial with P(M) = 0; it is integral
    by Gauss's lemma.  A candidate P comes from Berlekamp-Massey mod primes
    and CRT (_candidate), which stops at the first modulus past twice the
    bound on mu's coefficients that N = inflated_norm() gives, one prime
    for most systems, or else once the lift is stable.  certify proves
    P(M) = 0, so mu divides P.  P's degree is a linear complexity mod a
    prime, which is at most deg mu, so P = mu.  A linear complexity above
    degree_cap raises ResourceLimitExceeded: deg mu is larger still.  A
    candidate that fails the certificate (unlucky probes or primes) is
    replaced by one from fresh primes and probes; both come from fixed
    sequences, so the work done is reproducible.
    """
    primes = _primes(m.p)
    rng = random.Random(_SEED)
    for _ in range(_ATTEMPTS):
        poly = _candidate(m, degree_cap, primes, rng)
        if certify(m, poly):
            return poly
    raise AssertionError("no certified minimal polynomial in %d attempts" % _ATTEMPTS)
