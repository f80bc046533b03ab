"""Shared resource limits and the exception used when one is exceeded."""

DEFAULT_POINT_BUDGET = 10**8
DEFAULT_STATE_LIMIT = 4096
# inflated dimension dim * (p-1) of the kernel that an integer annihilator
# runs on (the transfer matrix, or a rotation's q^(w-1)-state de Bruijn
# matrix), whose certificate costs about deg * nnz * dim * (p-1)
# multiply-adds per prime.  A rotation within the state limit has a kernel
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


class ResourceLimitExceeded(RuntimeError):
    """An operation would exceed its configured budget (points, states, degree)."""
