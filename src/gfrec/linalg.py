"""Exact linear algebra over the rationals (internal helpers).

Gauss elimination, polynomial helpers on ascending coefficient lists, and
the minimal polynomial of a linear map.  The map is given as a function on
plain lists, so a caller can apply a sparse or structured matrix without
ever writing it out.  Everything stays exact: integers where the inputs are
integers, fractions.Fraction where elimination divides.
"""

from __future__ import annotations

from fractions import Fraction

from .limits import ResourceLimitExceeded


def solve_with_free_zero(rows, rhs):
    """Solve A c = b exactly by Gauss elimination.

    Returns (solution, True) with free variables set to zero, or
    (None, False) when the system is inconsistent.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    aug = [[Fraction(x) for x in rows[i]] + [Fraction(rhs[i])] for i in range(m)]
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = None
        for i in range(row, m):
            if aug[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for i in range(m):
            if i != row and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for i in range(row, m):
        if aug[i][ncols] != 0:
            return None, False
    solution = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        solution[col] = aug[i][ncols]
    return solution, True


# ---------------------------------------------------------------------------
# polynomials over Q, ascending coefficient lists

def poly_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return poly_trim(out)


def poly_divmod(a, b):
    a = poly_trim([Fraction(x) for x in a])
    b = poly_trim([Fraction(x) for x in b])
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        quot[shift] = factor
        for i, bi in enumerate(b):
            a[shift + i] -= factor * bi
        a = poly_trim(a)
    return poly_trim(quot), a


# ---------------------------------------------------------------------------
# minimal polynomial of a linear map

def _local_minimal_poly(apply, start):
    """Minimal polynomial of the map relative to the vector start.

    Builds the Krylov chain v, Mv, M^2 v, ... and stops at the first linear
    dependence; the dependence coefficients are the (monic) polynomial, in
    ascending order.
    """
    raw = start
    stored = []  # (reduced vector, combination over chain, pivot)
    d = 0
    while True:
        w = [Fraction(x) for x in raw]
        combo = [Fraction(0)] * d + [Fraction(1)]
        for svec, scombo, spiv in stored:
            c = w[spiv]
            if c != 0:
                w = [a - c * b for a, b in zip(w, svec)]
                for i, sc in enumerate(scombo):
                    combo[i] -= c * sc
        piv = next((i for i, x in enumerate(w) if x != 0), None)
        if piv is None:
            return combo
        lead = w[piv]
        stored.append(
            ([x / lead for x in w], [x / lead for x in combo], piv)
        )
        raw = apply(raw)
        d += 1


def minimal_polynomial(apply, dim, degree_cap):
    """Monic minimal polynomial of a linear map M, ascending coefficients.

    apply(v) returns M v as a new list, for lists v of length dim.  P starts
    at 1 and walks the standard basis vectors e in order: w = P(M) e comes
    from Horner's rule, and when w is nonzero P is multiplied by the local
    minimal polynomial of w.  That product is lcm(P, mu_e), so P ends as the
    minimal polynomial of M; the walk stops early once deg P reaches dim.
    For an integer map every factor is integral (Gauss's lemma: it is a
    monic factor of the integer characteristic polynomial).
    """
    result = [1]
    for start in range(dim):
        w = [0] * dim
        w[start] = 1  # P is monic
        for c in reversed(result[:-1]):
            w = apply(w)
            w[start] += c
        if not any(w):
            continue
        result = poly_mul(result, _local_minimal_poly(apply, w))
        if len(result) - 1 > degree_cap:
            raise ResourceLimitExceeded(
                "minimal polynomial degree exceeds the cap of %d" % degree_cap
            )
        if len(result) - 1 == dim:
            break
    return result

