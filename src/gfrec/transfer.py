"""State systems that advance character sums one variable at a time.

Every builder here produces a TransferSystem: a finite family of decorated
sums a_i(n) that is closed under instantiating the newest variable, so that
the vector of states satisfies v(n) = M v(n-1) with entries in Z[zeta_p],
and the target sum is the sum of some of the states.  All builders share
one scatter recipe, an (image, const) pair that _scatter_system turns into
the matrix with _scatter: on each value x of the newest variable, state i
becomes state image[i, x] and leaves the constant const[i, x], so M[i, j]
sums zeta^Tr(const) over the x with image j.  Every system is checked
against the enumeration oracle at each index from the smallest that it and
the target expression cover to a few steps past it, so the check steps the
matrix.

The k-state trapezoid sends a zero newest variable to b_0 and a nonzero one
a level deeper.  Symmetric systems decorate the top elementary symmetric
polynomial with the lower ones; for sigma(2) over a prime field this is the
quadratic matrix with (j, k) entry zeta^(j(k-j)).  A translate combination
of width w, a chain T(...) or a rotation R(...), walks the de Bruijn matrix
T[(a_1..a_(w-1)), (a_2..a_w)] = zeta^Tr(g(a_1..a_w)) of its window
polynomial g (the transfer-matrix method, Stanley, EC1 4.7).  A rotation's
cyclic sum is Tr(T^n), since the closed walks of length n are the cyclic
words; a chain's sum is (T^(n+w-1))[0, 0], the walk on its word padded by
w - 1 zeros on both sides.  Both systems' one matrix is T, and their states
are columns of its powers: a rotation's the columns of T^n side by side,
those of I at n = 0, the empty word, and a chain's column 0 of T^(n+w-1),
that of I at n = 1 - w.  Every other system's states are all 1 at n = 0.
The matrix steps them to the first index n_min (_scatter_system says why that
is exact), so a build enumerates only in its oracle gate.

The matrix is a linalg.SparseMatrix, whose entries a zeta^t are triples
(column, t, a), and its states init a dim x (p-1) array of power-basis
coordinates; a root zeta^e is the one triple (column, e, 1).  run steps the
states exactly in numpy with SparseMatrix.times, by a roll of root counts
and a scale per triple: in int64 while times can prove that exact, on
Python ints after.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .cyclotomic import CycInt, build_unchecked
from .funcalg import (
    Frozen,
    InstantiatedFunction,
    MonomialPattern,
    Rotation,
    Sigma,
    Trapezoid,
    parts,
    tau,
)
from .galois import is_prime, make_field
from .limits import (
    DEFAULT_DEGREE_CAP,
    DEFAULT_POINT_BUDGET,
    DEFAULT_STATE_LIMIT,
    check_degree_cap,
    check_inflated,
    check_root_counts,
    check_states,
)
from .linalg import SparseMatrix, minimal_polynomial
from .oracle import integer_tables, sum_sequence, trace_table, values
from .recurrence import IntPolynomial, Sequence


class TransferSystem:
    """sparse holds the matrix's nonzero entries, and init the read-only dim x (p-1) coordinates of
    the states at n_min (a rotation's state a Q + i is entry (a, i) of T^n, Q = sparse.dim), int64 or
    object past it; target(n) sums the states v(n)[j] for j in projection.  Read-only fields in a
    `__dict__` that also caches `matrix`, compared by identity as its arrays are."""

    __setattr__, __delattr__ = Frozen.__setattr__, Frozen.__delattr__

    def __init__(self, label, field, sparse, init, projection, n_min):
        self.__dict__.update(label=label, field=field, sparse=sparse, init=init, projection=projection, n_min=n_min)

    @property
    def dim(self):
        return len(self.init)

    @cached_property
    def matrix(self):
        """The dense matrix, rows of CycInt entries, from the root counts of the sparse triples:
        read only by perfbench/tracing.py's nonzero count, until that reads nnz."""
        sp, p = self.sparse, self.field.p
        counts = np.zeros((sp.dim, sp.dim, p), dtype=np.int64)
        np.add.at(counts, (np.repeat(np.arange(sp.dim), np.diff(sp.starts)), sp.cols, sp.exps), sp.amps)
        return tuple(tuple(CycInt.from_root_counts(p, c) for c in row) for row in counts.tolist())

    def __repr__(self):
        return "TransferSystem(%s, dim=%d, n_min=%d)" % (self.label, self.dim, self.n_min)


def run(sys, n_target):
    """Projected target values for n = n_min .. n_target, exactly: the
    states are stepped by SparseMatrix.times, which moves them to Python
    ints when int64 would no longer be exact, and each target sums its
    projected states in Python ints.  The coordinate rows are collected and
    every value is built once, at the end, by `build_unchecked`."""
    if n_target < sys.n_min:
        raise ValueError("n_target below the system's first index %d" % sys.n_min)
    m, p = sys.sparse, sys.field.p
    columns = sys.dim // m.dim  # a rotation's, those of T^n, step side by side
    rows, cols = np.divmod(sys.projection, columns)
    v, pick = sys.init, rows
    if columns > 1:
        v, pick = v.reshape(m.dim, columns, p - 1).transpose(0, 2, 1), (rows, slice(None), cols)
    rows = []
    while True:
        rows.append(v[pick].sum(axis=0, dtype=object).tolist())
        if len(rows) > n_target - sys.n_min:
            return Sequence(sys.n_min, map(build_unchecked, rows), "transfer")
        v = m.times(v)


def run_range(sys, e, n_range):
    """The sums of family e over n_range (step 1), from e's built system sys."""
    if n_range.step != 1:
        raise ValueError("n_range must have step 1")
    start = n_range.start
    if len(n_range) == 0:
        return Sequence(start, (), "transfer")
    if start < sys.n_min:
        raise ValueError("transfer system for this family starts at n=%d" % sys.n_min)
    if start < e.min_n():
        raise ValueError("n=%d below the family minimum %d" % (start, e.min_n()))
    full = run(sys, n_range.stop - 1)
    lo = start - full.n_min
    return Sequence(start, full.values[lo : lo + len(n_range)], "transfer")


# ---------------------------------------------------------------------------
# small helpers shared by the builders

def _scatter(f, image, const):
    """The matrix in which, on each value x of the newest variable, state i
    goes to state image[i, x] with the factor zeta^Tr(const[i, x]), for
    dim x q arrays image and const of state and field indices, whose root
    counts (dim q p) the builder has checked before it made them."""
    dim, q = image.shape
    trace = trace_table(f)
    rows = np.repeat(np.arange(dim), q)
    return SparseMatrix.from_root_counts(f.p, dim, rows, image.ravel(), trace[const].ravel())


def _scatter_system(label, f, e, recipe, n_min, budget, projection=(0,), start=None):
    """The system of the matrix `_scatter` builds from recipe, an (image,
    const) pair, from index n_min, whose target is the sum of the states in
    projection, checked against the enumeration oracle on e at every n from
    lo, the smallest index that both cover, to hi: lo + 1 unless
    q^(lo+1) > min(budget, 2^20), and on to lo + 3 while
    q^n <= min(budget, 2^10).  One or two indices let wrong systems through:
    a chain that sums Tr(T^n) can match its own sums at lo and lo + 1.  After
    the builder's checks of states and root counts, the oracle's sums come
    first, from one `sum_sequence` call, so a system over the point budget
    is refused before any matrix is built.

    The states at n_min are M^n_min applied to those at n = 0, all 1; or with
    start = (n, columns), M^(n_min - n) applied to those columns of I at index
    n, stepped side by side.  Read every X_i with i <= 0 as 0.  Each scatter
    recipe substitutes the newest variable, so v(n) = M v(n-1) for every
    n >= 1, and at n = 0 a state sums the zero function over the one point
    of F_q^0, which gives 1.  For symmetric states, sigma_(n,j) =
    sigma_(n-1,j) + x sigma_(n-1,j-1) from n = 1, with sigma_(0,0) = 1 and
    sigma_(0,j) = 0 for j >= 1.  In the k-state trapezoid a nonzero x sends a
    state one level deeper with its boundary products scaled by x: for
    n-1 >= k the sums do not change (C5), and for n-1 < k no translate fits,
    every product contains X_(n-1), and scaling X_(n-1) by 1/x removes x.  A
    rotation's states hold the columns of T^n, those of I at n = 0, and a
    chain's column 0 of T^(n+w-1), that of I at n = 1 - w.
    """
    p, q = f.p, f.q
    lo = max(n_min, e.min_n())
    hi = lo + 1 if q ** (lo + 1) <= min(budget, 1 << 20) else lo  # a step, so M is checked too
    while hi < lo + 3 and q ** (hi + 1) <= min(budget, 1 << 10):
        hi += 1
    want = sum_sequence(e, f, range(lo, hi + 1), budget=budget).values
    sparse = _scatter(f, *recipe)
    n_start, columns = start or (0, None)
    v = np.zeros((sparse.dim, p - 1) + (() if columns is None else (len(columns),)), dtype=np.int64)
    v[:, 0] = 1 if columns is None else np.identity(sparse.dim, dtype=np.int64)[:, columns]
    for _ in range(n_min - n_start):
        v = sparse.times(v)
    v = np.moveaxis(v, 1, -1).reshape(-1, p - 1)  # state a dim + i: entry a of column i
    v.flags.writeable = False
    sys = TransferSystem(label, f, sparse, v, tuple(map(int, projection)), n_min)
    got = run(sys, hi).values[lo - n_min :]
    for n, a, b in zip(range(lo, hi + 1), got, want):
        if a != b:
            raise AssertionError(
                "transfer system %r disagrees with the oracle at n=%d: %r vs %r" % (label, n, a, b)
            )
    return sys


# ---------------------------------------------------------------------------
# consecutive trapezoid: the k-state system of boundary-decorated sums

def build_trapezoid_system(k, f, budget=DEFAULT_POINT_BUDGET):
    """States b_j(n) = S(T(2..k)(n) + the j products X_(n-k+1+s) ... X_n, s = 1..j).

    All boundary products carry coefficient one; scaling invariance of the
    decorated sums folds the unit choices together, which is what makes a
    single state per decoration depth enough.  A zero newest variable sends
    every state to b_0 and a nonzero one a level deeper; at the deepest
    level it joins the constant, whose characters sum to -1 over x != 0:
        b_j(n) = b_0(n-1) + (q-1) b_{j+1}(n-1)   for j < k-1,
        b_{k-1}(n) = b_0(n-1) - b_{k-1}(n-1).
    """
    if k < 2:
        raise ValueError("need k >= 2")
    check_root_counts(k, f)
    q = f.q
    image = np.zeros((k, q), dtype=np.intp)
    image[:, 1:] = np.minimum(np.arange(1, k + 1), k - 1)[:, None]
    const = np.zeros((k, q), dtype=np.intp)
    const[k - 1] = np.arange(q)
    label = "trapezoid(2..%d)/F_%s" % (k, f.describe())
    return _scatter_system(label, f, tau(k), (image, const), k, budget)


# ---------------------------------------------------------------------------
# window families: chains and rotations by the de Bruijn matrix

def _normalize_patterns(terms, f):
    """Merge (coefficient, offsets) terms, dropping cancelled patterns."""
    merged = {}
    for coeff, offsets in terms:
        offsets = tuple(offsets)
        cur = merged.get(offsets, f.zero())
        merged[offsets] = cur + coeff
    out = [
        (coeff, offsets)
        for offsets, coeff in sorted(merged.items())
        if not coeff.is_zero()
    ]
    if not out:
        raise ValueError("all pattern terms cancelled")
    return out


def _window_system(e, terms, f, label, state_limit, budget, rotation):
    """The de Bruijn matrix T of the (coefficient, offsets) translates terms
    of e, which gates the result: for a rotation the cyclic sum Tr(T^n) on
    the columns of T^n, and for a chain the sum (T^(n+w-1))[0, 0] on column 0.

    The window a_1..a_w has index a q + x for the index a of (a_1..a_(w-1))
    and x = a_w, so g is read at every window by `oracle.values` with a_o
    at digit w - o, and T steps a to (a_2..a_w), index (a q + x) mod Q for
    Q = q^(w-1).  A rotation's Q columns of I stepped n_min = 3(w-1) times are
    those of T^n_min, the Q^2 states a Q + i, which the state and root-count
    limits count, and the target Tr(T^n) sums the diagonal states a Q + a.
    A chain's word has w - 1 zeros on each side, so its walk starts and ends
    at state 0: column 0 of I at n = 1 - w, stepped to n_min = w, is Q states,
    and the target is state 0.  Every monomial of g holds a_1, so a window
    that starts in the padding adds 0, and one that reaches into it adds
    the translates that end within x_1..x_n, as the chain sum does.
    """
    q = f.q
    patterns = _normalize_patterns(terms, f)
    w = max(max(offsets) for _c, offsets in patterns)
    check_states(q, 2 * (w - 1) if rotation else w - 1, state_limit)
    Q = q ** (w - 1)
    check_root_counts(Q * Q if rotation else Q, f)
    image = np.arange(Q * q).reshape(Q, q) % Q
    const = values(InstantiatedFunction(f, w, {frozenset(w + 1 - o for o in offsets): c for c, offsets in patterns})).reshape(Q, q)
    if rotation:
        return _scatter_system(label, f, e, (image, const), 3 * (w - 1), budget, np.arange(Q) * (Q + 1), (0, np.arange(Q)))
    return _scatter_system(label, f, e, (image, const), w, budget, (0,), (1 - w, [0]))


def build_rotation_system(
    pattern, f, state_limit=DEFAULT_STATE_LIMIT, budget=DEFAULT_POINT_BUDGET
):
    """Transfer system for the cyclic translate sum of a monomial pattern."""
    if not isinstance(pattern, MonomialPattern):
        pattern = MonomialPattern(tuple(pattern))
    offsets = pattern.offsets
    label = "rotation(%s)/F_%s" % (",".join(map(str, offsets[1:])), f.describe())
    return _window_system(Rotation(pattern), [(f.one(), offsets)], f, label, state_limit, budget, True)


# ---------------------------------------------------------------------------
# elementary symmetric systems

def build_symmetric_system(
    k, f, state_limit=DEFAULT_STATE_LIMIT, budget=DEFAULT_POINT_BUDGET
):
    """States S(sigma_k + sum_j beta_j sigma_(k-j)) for beta in F_q^(k-1).

    Instantiating the newest variable maps sigma_(n,j) to
    sigma_(n-1,j) + x sigma_(n-1,j-1), so each state scatters to exactly q
    states one variable down, with a character factor from the constant
    term beta_(k-1) x.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    q = f.q
    check_states(q, k - 1, state_limit)
    check_root_counts(q ** (k - 1), f)
    beta = np.indices((q,) * (k - 1)).reshape(k - 1, -1).T
    add, mul, _trace = integer_tables(f)
    x = np.arange(q)
    # on the value x of the newest variable (arrays are dim x q), the new top
    # decoration is x + beta_1, and each beta_j moves down to
    # beta_j * x + beta_(j+1)
    image = [add[x, beta[:, 0, None]]]
    for j in range(1, k - 1):
        image.append(add[mul[beta[:, j - 1, None], x], beta[:, j, None]])
    const = mul[beta[:, k - 2, None], x]
    label = "symmetric(%d)/F_%s" % (k, f.describe())
    return _scatter_system(label, f, Sigma(k), (np.ravel_multi_index(image, (q,) * (k - 1)), const), k, budget)


def build_quadratic_matrix(p, budget=DEFAULT_POINT_BUDGET):
    """The p-state system of sigma(2) over the prime field F_p (p odd): the
    symmetric system, whose matrix has (j, k) entry zeta^(j(k-j))."""
    if not is_prime(p) or p == 2:
        raise ValueError("need an odd prime, got %r" % (p,))
    return build_symmetric_system(2, make_field(p), budget=budget)


# ---------------------------------------------------------------------------
# integer annihilators

def integer_annihilator(sys, degree_cap=DEFAULT_DEGREE_CAP):
    """Monic integer polynomial annihilating the transfer matrix: the
    minimal polynomial mu of M = sys.sparse inflated to an integer matrix M'
    on the dim * (p-1) power-basis coordinates of a vector.  A rotation's
    M is T, and its states, the columns of T^n, satisfy every polynomial
    that T does.  Inflation is a ring homomorphism, so mu annihilates the
    transfer matrix and every projected sequence.  mu is
    linalg.minimal_polynomial of M, which never forms M'; its docstring
    gives the candidate, the coefficient bound and the certificate.

    Raises ValueError for degree_cap < 1, and ResourceLimitExceeded when
    M's dim * (p-1) exceeds limits.DEFAULT_BLOWUP_LIMIT or deg mu exceeds
    degree_cap.  The work is at most about (2 degree_cap + 17) nnz (p-1) per
    candidate prime plus deg nnz dim (p-1) per certificate prime.
    """
    check_degree_cap(degree_cap)
    check_inflated(sys.sparse.dim * (sys.field.p - 1))
    return IntPolynomial(minimal_polynomial(sys.sparse, degree_cap))


# ---------------------------------------------------------------------------
# expression dispatch

def system_for(e, f, state_limit=DEFAULT_STATE_LIMIT, budget=DEFAULT_POINT_BUDGET):
    """Build the transfer system matching an expression.

    Single sigma(k) nodes, single trapezoid or rotation patterns, and
    linear combinations of same-kind translate families are supported.
    """
    atoms = [(c, node) for c, node in parts(e, f) if not c.is_zero()]
    if not atoms:
        raise ValueError("expression is zero")
    if len(atoms) == 1 and isinstance(atoms[0][1], Sigma):
        c, node = atoms[0]
        if c != f.one():
            raise ValueError("scaled sigma is not supported by the transfer method")
        if node.k < 2:
            raise ValueError("transfer needs sigma(k) with k >= 2")
        return build_symmetric_system(node.k, f, state_limit, budget)
    kinds = {type(node) for _c, node in atoms}
    if kinds in ({Trapezoid}, {Rotation}):
        rotation = kinds == {Rotation}
        terms = [(c, node.pattern.offsets) for c, node in atoms]
        if not rotation and len(terms) == 1 and terms[0][0] == f.one():
            offsets = terms[0][1]
            k = len(offsets)
            if offsets == tuple(range(1, k + 1)):
                check_states(k, 1, state_limit)
                return build_trapezoid_system(k, f, budget)
        label = "%s[%s]/F_%s" % (
            "rotation" if rotation else "chain",
            " + ".join(
                "%s(%s)" % ("R" if rotation else "T", ",".join(map(str, o[1:]))) for _c, o in terms
            ),
            f.describe(),
        )
        return _window_system(e, terms, f, label, state_limit, budget, rotation)
    raise ValueError(
        "transfer supports sigma(k), trapezoid combinations or rotation "
        "combinations, not %r" % (sorted(t.__name__ for t in kinds),)
    )
