"""Exact character sums of polynomial families over finite fields, and
the integer recurrences they satisfy.

The pieces fit together like this: `galois` supplies field arithmetic,
`cyclotomic` the exact ring the sums live in, `funcalg` the family
expressions, `oracle` brute-force enumeration, `transfer` the state
systems that step one variable at a time, `recurrence` the polynomial
bookkeeping, `numtheory` Gauss sums and irreducibility, and `harness`
the conjecture comparisons plus the acceptance battery.
"""

from .cyclotomic import CycInt, regular_matrix, root_power
from .funcalg import (
    InstantiatedFunction,
    MonomialPattern,
    Rotation,
    ScalarMul,
    Sigma,
    Sum,
    Trapezoid,
    consecutive_rotation,
    evaluate,
    instantiate,
    parse,
    tau,
    unparse,
)
from .galois import FieldElement, FieldSpec, is_prime, make_field, trace
from .harness import (
    ConjectureReport,
    acceptance_run,
    compare,
    rot_conjecture_seq,
    trap_conjecture_seq,
)
from .limits import (
    DEFAULT_DEGREE_CAP,
    DEFAULT_POINT_BUDGET,
    DEFAULT_STATE_LIMIT,
    ResourceLimitExceeded,
)
from .numtheory import (
    EigenReport,
    eigen_check,
    eisenstein_dumas,
    gauss_sum,
    hadamard_check,
    legendre,
    predicted_spectrum,
    valuation,
)
from .oracle import exp_sum, is_balanced, joint_counts, sum_sequence, trace_counts, weight
from .recurrence import (
    FAMILIES,
    InsufficientDataError,
    IntPolynomial,
    NoRecurrenceError,
    Sequence,
    discover,
    divides,
    extend,
    family_poly,
    satisfies,
)
from .transfer import (
    TransferSystem,
    build_quadratic_matrix,
    build_rotation_system,
    build_symmetric_system,
    build_trapezoid_system,
    integer_annihilator,
    run,
    run_range,
    system_for,
)

__version__ = "0.1.0"

__all__ = [
    "CycInt",
    "regular_matrix",
    "root_power",
    "InstantiatedFunction",
    "MonomialPattern",
    "Rotation",
    "ScalarMul",
    "Sigma",
    "Sum",
    "Trapezoid",
    "consecutive_rotation",
    "evaluate",
    "instantiate",
    "parse",
    "tau",
    "unparse",
    "FieldElement",
    "FieldSpec",
    "is_prime",
    "make_field",
    "trace",
    "ConjectureReport",
    "acceptance_run",
    "compare",
    "rot_conjecture_seq",
    "trap_conjecture_seq",
    "DEFAULT_DEGREE_CAP",
    "DEFAULT_POINT_BUDGET",
    "DEFAULT_STATE_LIMIT",
    "ResourceLimitExceeded",
    "EigenReport",
    "eigen_check",
    "eisenstein_dumas",
    "gauss_sum",
    "hadamard_check",
    "legendre",
    "predicted_spectrum",
    "valuation",
    "exp_sum",
    "is_balanced",
    "joint_counts",
    "sum_sequence",
    "trace_counts",
    "weight",
    "FAMILIES",
    "InsufficientDataError",
    "IntPolynomial",
    "NoRecurrenceError",
    "Sequence",
    "discover",
    "divides",
    "extend",
    "family_poly",
    "satisfies",
    "TransferSystem",
    "build_quadratic_matrix",
    "build_rotation_system",
    "build_symmetric_system",
    "build_trapezoid_system",
    "integer_annihilator",
    "run",
    "run_range",
    "system_for",
    "__version__",
]
