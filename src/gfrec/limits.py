"""Shared resource limits and the exception used when one is exceeded."""

DEFAULT_POINT_BUDGET = 10**8
DEFAULT_STATE_LIMIT = 4096
# inflated dimension dim * (p-1) of an integer annihilator, whose
# certificate costs about deg * nnz * dim * (p-1) multiply-adds per prime.
# 2500 admits R(2,3) over F_5.  On a 2-core x86 host the slowest measured
# call below it took 23 s (sigma(4) over F_9, degree 62), while at 4096
# sigma(7) over F_4 took 64 s
DEFAULT_BLOWUP_LIMIT = 2500
DEFAULT_DEGREE_CAP = 64


class ResourceLimitExceeded(RuntimeError):
    """An operation would exceed its configured budget (points, states, degree)."""
