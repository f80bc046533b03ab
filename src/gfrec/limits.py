"""Resource limits, one check for each, and the exception they raise.

Every entry point checks a request once, from its shape, before it builds
a table or a recipe or counts a point; a minimal polynomial's degree is
checked as it is found.  A transfer build checks states, root counts, then
its oracle gate's points, so a request past several limits reports the first.
"""

DEFAULT_POINT_BUDGET = 10**8  # points of an enumeration, and bins of a joint histogram
DEFAULT_STATE_LIMIT = 4096  # states of a transfer system
# inflated dimension dim * (p-1) of the matrix that an integer annihilator
# runs on (a system's `sparse`; a chain's or rotation's is its q^(w-1)-state
# de Bruijn matrix), whose certificate costs about deg * nnz * dim * (p-1)
# multiply-adds per prime.  A rotation within the state limit has a matrix
# of at most 64 states, 294 inflated (R(2,3) over F_7).  On a 2-core x86
# host the slowest measured call below 2500 took 23 s (sigma(4) over F_9,
# degree 62), while at 4096 sigma(7) over F_4 took 64 s
DEFAULT_BLOWUP_LIMIT = 2500
DEFAULT_DEGREE_CAP = 64
# states x q x p of a transfer matrix's scatter recipe: the entries of the
# (keys x p) int64 table in which `SparseMatrix.from_root_counts` counts the
# roots of each entry.  sigma(2) over F_p needs p^3: on a 2-core x86 host
# F_149 (3.3 M) built in 0.15 s at 85 MB peak RSS, and F_257 (17 M) took
# 1.4 s and 425 MB.  The largest recipe that the tests, the golden digests,
# the hash tools and the benchmark workloads build is sigma(2) over F_61
# (226 981)
SCATTER_ROOT_COUNTS = 1 << 22
# the largest prime of the exact spectrum check `numtheory.eigen_check`, which
# steps M - lambda I (about 1.5 p^2 triples) (p + 1)/2 times and M (p^2 triples)
# (p + 1)/2 times on the p columns of I side by side, in int64 up to p = 41.  In
# process on a 2-core x86 host p = 41 took 0.5-0.9 s, 43 2.0-2.1 s and 47
# 6.6-7.2 s; p = 101 ran past 120 s
EIGEN_CHECK_PRIME = 47
# the largest prime of `numtheory.gauss_sum`, which counts the p residues a k^2
# in Python into p coordinates: on a 2-core x86 host p = 100003 took 0.04 s in
# process (the CLI 0.12 s, 0.5 MB printed), and p = 1000003 0.56 s (0.94 s, 5 MB)
GAUSS_SUM_PRIME = 10**5
# the largest p of `numtheory.eisenstein_dumas`, whose one primality test is
# trial division up to sqrt(p): on a 2-core x86 host it took 0.022 s at
# p = 10^11 + 3, 0.070 s at 10^12 + 39 and 0.24 s at 10^13 + 37
EISENSTEIN_PRIME = 10**12


class ResourceLimitExceeded(RuntimeError):
    """An operation would exceed its configured budget (points, states, degree)."""


def check_points(q, n, budget):
    if q**n > budget:
        raise ResourceLimitExceeded("enumeration of %d^%d points exceeds the budget of %d" % (q, n, budget))


def check_bins(q, k, budget):
    if q**k > budget:
        raise ResourceLimitExceeded("%d^%d joint bins exceed the budget of %d" % (q, k, budget))


def check_states(q, m, state_limit):  # q^m states; for q >= 2, q^m > limit just when q^min(m, bits of limit) is
    if q ** min(m, state_limit.bit_length()) > state_limit:
        count = "%d" % q**m if m <= 64 else "%d^%d" % (q, m)
        raise ResourceLimitExceeded("%s states exceed the limit of %d" % (count, state_limit))


def check_root_counts(dim, field):
    counts = dim * field.q * field.p
    if counts > SCATTER_ROOT_COUNTS:
        raise ResourceLimitExceeded(
            "a transfer matrix of %d states over F_%s needs %d root counts (states x q x p), "
            "over the limit of %d" % (dim, field.describe(), counts, SCATTER_ROOT_COUNTS)
        )


def check_inflated(dim, blowup_limit):
    if dim > blowup_limit:
        raise ResourceLimitExceeded("inflated dimension %d exceeds the limit of %d" % (dim, blowup_limit))


def check_eigen_prime(p):
    if p > EIGEN_CHECK_PRIME:
        raise ResourceLimitExceeded("an exact spectrum check over F_%d exceeds the limit of p <= %d" % (p, EIGEN_CHECK_PRIME))


def check_eisenstein_prime(p):
    if p > EISENSTEIN_PRIME:
        raise ResourceLimitExceeded("an Eisenstein-Dumas test at p = %d exceeds the limit of p <= %d" % (p, EISENSTEIN_PRIME))


def check_field(p, r, budget):  # for p >= 2, p^r > budget just when p^min(r, bits of budget) does
    if p >= 2 and r >= 1 and p ** min(r, budget.bit_length()) > budget:
        raise ResourceLimitExceeded("a field of %s elements exceeds the budget of %d" % ("%d^%d" % (p, r) if r > 1 else p, budget))


def check_gauss_prime(p):
    if p > GAUSS_SUM_PRIME:
        raise ResourceLimitExceeded("a Gauss sum over F_%d exceeds the limit of p <= %d" % (p, GAUSS_SUM_PRIME))


def check_degree_cap(degree_cap):
    if degree_cap < 1:  # a usage error, not a limit reached
        raise ValueError("degree_cap must be >= 1")


def check_degree(degree, degree_cap):
    if degree > degree_cap:
        raise ResourceLimitExceeded("minimal polynomial degree exceeds the cap of %d" % degree_cap)
