"""Exact character sums of polynomial families over finite fields, and
the integer recurrences they satisfy.

The pieces fit together like this: `galois` supplies field arithmetic,
`cyclotomic` the exact ring the sums live in, `funcalg` the family
expressions, `oracle` brute-force enumeration, `transfer` the state
systems that step one variable at a time, `linalg` their exact matrix
algebra, `recurrence` the polynomial bookkeeping, `numtheory` Gauss sums
and irreducibility, and `harness` the conjecture comparisons plus the
acceptance battery.

`import gfrec` loads the enumeration core alone: `cyclotomic`, `funcalg`,
`galois`, `limits`, `oracle` and `recurrence`.  The names re-exported
from `transfer`, `harness` and `numtheory` (and those three modules) are
loaded on first access, by the module `__getattr__` below (PEP 562), and
then stored here, so a later read is a plain attribute read.  `transfer`
brings in `linalg`, which only `transfer`, `harness` and `numtheory`
import, and `harness` brings in `json`; enumeration needs none of them.
`gfrec.cli` imports each of the three inside the subcommands that run it.
"""

from importlib import import_module

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
from .limits import (
    DEFAULT_DEGREE_CAP,
    DEFAULT_POINT_BUDGET,
    DEFAULT_STATE_LIMIT,
    ResourceLimitExceeded,
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

__version__ = "0.1.0"

# name -> the submodule it is read from on first access; a submodule maps to itself
_LAZY = {
    name: module
    for module, names in (
        ("harness", ("ConjectureReport", "acceptance_run", "compare", "rot_conjecture_seq", "trap_conjecture_seq")),
        ("numtheory", ("EigenReport", "eigen_check", "eisenstein_dumas", "gauss_sum", "hadamard_check",
                       "legendre", "predicted_spectrum", "valuation")),
        ("transfer", ("TransferSystem", "build_quadratic_matrix", "build_rotation_system", "build_symmetric_system",
                      "build_trapezoid_system", "integer_annihilator", "run", "run_range", "system_for")),
    )
    for name in names + (module,)
}

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


def __getattr__(name):
    """Import a lazy name's submodule, store the name here and return it.
    Called only for a name not yet in the module's namespace."""
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = import_module("." + _LAZY[name], __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
