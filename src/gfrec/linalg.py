"""Exact linear algebra (internal helpers).

Integer linear solving, the sparse matrix type over Z[zeta_p], and the
certified minimal polynomial of such a matrix.  Every result is exact:
elimination runs on Python ints (Bareiss), and the minimal polynomial is
computed modulo word-sized primes and then proved over Z[zeta_p].
"""

from __future__ import annotations

import random
from itertools import count

import numpy as np

from .galois import is_prime
from .limits import ResourceLimitExceeded


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

def group(keys):
    """(distinct, inverse) for an int64 array: the distinct keys ascending,
    and for every key the position of its value among them.  One stable
    argsort; np.unique does the same but pages in more of numpy."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


class SparseMatrix:
    """A matrix over Z[zeta_p] given by its nonzero entries, row by row.

    Row i holds the entries k = starts[i] .. starts[i+1]-1, in column cols[k],
    with power-basis coordinates coeffs[k] (an nnz x (p-1) int64 array).  For
    p = 2 the ring is Z and each entry has a single coordinate.  Transfer
    matrices are square; a projection is a single row.  Products run on a
    padded layout: every row gets the width of the longest row, and a padding
    slot reads column 0 with the value 0.
    """

    __slots__ = ("p", "starts", "cols", "coeffs", "_width", "_slots", "_gather", "_values")

    def __init__(self, p, starts, cols, coeffs):
        self.p = p
        self.starts = np.asarray(starts, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.coeffs = np.asarray(coeffs, dtype=np.int64).reshape(len(self.cols), p - 1)
        lengths = np.diff(self.starts)
        self._width = int(lengths.max()) if len(lengths) else 0
        row = np.repeat(np.arange(len(lengths)), lengths)
        self._slots = row * self._width + np.arange(len(self.cols)) - self.starts[row]
        self._gather = self._padded(self.cols)
        self._values = {}  # dtype -> (coeffs on the padded layout, products to coordinates)

    @classmethod
    def from_root_counts(cls, p, dim, rows, cols, exponents):
        """The dim x dim matrix whose entry (i, j) sums zeta^t over the triples
        (i, j, t) read off the three equal-length integer arrays.  Entries that
        sum to zero are dropped; columns ascend within each row."""
        key, inverse = group(np.asarray(rows, dtype=np.int64) * dim + cols)
        counts = np.bincount(inverse * p + exponents, minlength=len(key) * p).reshape(-1, p)
        coeffs = counts[:, : p - 1] - counts[:, p - 1 :]
        keep = coeffs.any(axis=1)
        key = key[keep]
        starts = np.searchsorted(key, np.arange(dim + 1) * dim)
        return cls(p, starts, key % dim, coeffs[keep])

    @classmethod
    def from_rows(cls, p, rows):
        """rows[i] lists the (column, coordinates) pairs of row i's nonzeros."""
        starts = [0]
        cols = []
        coeffs = []
        for row in rows:
            for j, coords in row:
                cols.append(j)
                coeffs.append(coords)
            starts.append(len(cols))
        return cls(p, starts, cols, coeffs)

    @property
    def dim(self):
        return len(self.starts) - 1

    @property
    def nnz(self):
        return len(self.cols)

    def _padded(self, a):
        """Per-entry values a (first axis nnz) spread over the padded slots."""
        out = np.zeros((self.dim * self._width,) + a.shape[1:], dtype=np.int64)
        out[self._slots] = a
        return out

    def _row_sums(self, slots):
        return slots.reshape((self.dim, self._width) + slots.shape[1:]).sum(axis=1)

    def row_norm(self):
        """Largest row sum of the absolute values of the coordinates."""
        return int(self._row_sums(self._padded(np.abs(self.coeffs).sum(axis=1))).max(initial=0))

    def times(self, v):
        """M v exactly.  v holds the power-basis coordinates of a vector, one
        row per column of M, as an int64 or a dtype=object (Python int) array;
        the result has M's rows and v's dtype.

        The products of each entry's coordinates with those of the gathered
        value are summed over the padded row, then mapped to coordinates:
        a_i b_j lands on zeta^(i+j), and zeta^(p-1) = -(1 + ... + zeta^(p-2)).
        Every row sum, and every partial sum of a result coordinate, is at
        most 2 row_norm() max|v| in absolute value, so int64 is exact while
        that stays below 2^63.
        """
        e = self.p - 1
        cached = self._values.get(v.dtype)
        if cached is None:
            exponent = np.add.outer(np.arange(e), np.arange(e)).ravel() % self.p
            to_coords = (exponent[:, None] == np.arange(e)).astype(np.int64)
            to_coords[exponent == e] = -1
            cached = self._values[v.dtype] = (
                self._padded(self.coeffs).astype(v.dtype)[:, :, None],
                to_coords.astype(v.dtype),
            )
        vals, to_coords = cached
        products = vals * v[self._gather][:, None, :]
        return self._row_sums(products.reshape(len(products), e * e)) @ to_coords

    def inflated_norm(self):
        """Largest row sum of absolute values of the integer matrix that
        replaces each entry by its multiplication matrix on the power basis."""
        p = self.p
        counts = np.zeros((self.nnz, p), dtype=np.int64)
        counts[:, : p - 1] = self.coeffs
        # column j of the block of entry a holds the coordinates of a*zeta^j:
        # its root counts rolled by j, less the count that lands on zeta^(p-1)
        rows = np.zeros((self.nnz, p - 1), dtype=np.int64)
        for j in range(p - 1):
            rolled = np.roll(counts, j, axis=1)
            rows += np.abs(rolled[:, : p - 1] - rolled[:, p - 1 :])
        return int(self._row_sums(self._padded(rows)).max(initial=0))

    def embedded(self, ell):
        """The entries under the p-1 embeddings zeta -> w^j (j = 1 .. p-1) into
        F_ell, for ell = 1 (mod p) and w of order p: one row of p-1 residues
        per padded slot, the input apply expects."""
        p = self.p
        w = next(r for r in (pow(g, (ell - 1) // p, ell) for g in count(2)) if r != 1)
        wpow = np.array([pow(w, t, ell) for t in range(p)], dtype=np.int64)
        i = np.arange(p - 1)
        powers = wpow[np.outer(i, i + 1) % p]  # powers[i, j-1] = w^(i*j)
        coords = self.coeffs % ell
        out = np.zeros((self.nnz, p - 1), dtype=np.int64)
        for i in range(p - 1):
            out += coords[:, i : i + 1] * powers[i]
            out %= ell
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
                if length > degree_cap:
                    raise ResourceLimitExceeded(
                        "minimal polynomial degree exceeds the cap of %d" % degree_cap
                    )
            else:
                gap += 1
            quiet = 0
        terms = len(seq)
        if terms >= 2 * length and (quiet >= _QUIET_TERMS or terms >= 2 * m.dim * (m.p - 1)):
            break
        x = m.apply(vals, x, ell)
    conn = conn + [0] * (length + 1 - len(conn))
    return conn[length::-1]


def _candidate(m, degree_cap, primes, rng):
    """Monic integer polynomial lifted by CRT from sequence polynomials mod
    successive primes, once another prime leaves the symmetric lift unchanged.
    A lower degree than the best seen so far marks an unlucky prime or probe
    and is skipped; a higher one starts the lift again."""
    lift = residues = None
    modulus = 1
    for ell in primes:
        got = _sequence_polynomial(m, ell, rng, degree_cap)
        if residues is None or len(got) > len(residues):
            lift, residues, modulus = None, got, ell
            continue
        if len(got) < len(residues):
            continue
        inv = pow(modulus, -1, ell)
        residues = [r + modulus * ((g - r) * inv % ell) for r, g in zip(residues, got)]
        modulus *= ell
        new = [r - modulus if 2 * r > modulus else r for r in residues]
        if new == lift:
            return new
        lift = new


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
    multiplication matrix on the power basis, and N its largest absolute row
    sum.  Every entry of P(M') is at most S = sum |c_k| N^k in absolute value.
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
    by Gauss's lemma.  A candidate P comes from
    Berlekamp-Massey mod primes and CRT (_candidate), and certify proves
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
