"""A differential hash of `transfer.system_for`, `run` and
`integer_annihilator`.

    python3 tools/transfer_hash.py

Imports gfrec from the src/ of the checkout it lives in, whatever
PYTHONPATH says.  Builds the system of every digest case of
tests/test_transfer.py (the DIGEST_EXPRS over the DIGEST_FIELDS,
imported from tests/stepped.py) and prints five lines, each the number
of records and the SHA-256 of their JSON, and exits 1 when a line
differs from the one recorded in RECORDED (see recorded.py):
- runs: per case the label, dim, n_min and the coordinates of `run` up to
  n_min + 12, or the type and text of the exception that refused the system;
- annihilators: per case the coefficients of `integer_annihilator` at its
  default limits, or the type and text of the refusal;
- large: the LARGE cases, prime fields past the digest grid, where each
  entry has the most coordinates: per case the label, dim, n_min and `run`
  up to n_min + 4, and for sigma(2) over F_11 and F_13 the annihilator or
  its refusal;
- outside: the OUTSIDE cases, trapezoid, chain and symmetric systems past
  the digest grid (up to 4096 states, and F_256): per case the label, dim,
  n_min and `run` up to n_min + 4;
- sums: the digest cases and the OUTSIDE cases as runs and outside record
  them, but with no dim, each built at a state limit of SUMS_STATE_LIMIT.

The runs line pins every sum that a system gives, whatever the matrix and
states that give it; the annihilators line pins the recurrences.  Two
checkouts that print the same runs line build systems with the same labels,
dims and first indices, giving the same sums.  Two that print the same sums
line give the same sums from the same first indices, however many states
their systems take within SUMS_STATE_LIMIT.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]  # this checkout's package, and the digest grid in its tests
from gfrec.funcalg import parse  # noqa: E402
from gfrec.galois import make_field, prime_power  # noqa: E402
from gfrec.limits import DEFAULT_STATE_LIMIT, ResourceLimitExceeded  # noqa: E402
from gfrec.transfer import integer_annihilator, run, system_for  # noqa: E402
from recorded import check  # noqa: E402
from stepped import DIGEST_EXPRS, DIGEST_FIELDS  # noqa: E402

RECORDED = (
    "runs: 105 records sha256 f4cfffc0166a2db9dee008ac484cedfd8f5277df9386c3689ea12789f324d4c6",
    "annihilators: 105 records sha256 2d0d965026e1d39d66f4e5e8bf5312a9375faf6a5ae0e3f88f0cdebd6eb76c1f",
    "large: 8 records sha256 f8d7fe97e0fda784230311da8d67f40e754dda7f0b588a7479caba09d6ab4c94",
    "outside: 8 records sha256 caa6a719793f3a2d07b75f954fa835baae97a7988f285056d6e9a91b40b1b3d7",
    "sums: 113 records sha256 93998d6a67c2026e94086b7ba4a99159c1977a72d89618c0739ec5450831c61b",
)

STEPS = 12  # run each system from n_min to n_min + STEPS
LARGE = (
    ("sigma(2)", 11, True), ("sigma(2)", 13, True), ("sigma(2)", 31, False), ("sigma(2)", 61, False),
    ("R(2)", 11, False), ("R(2)", 13, False),
)  # (expression, field, whether to take the annihilator)
LARGE_STEPS = 4
OUTSIDE = (
    ("sigma(13)", 2), ("sigma(7)", 4), ("sigma(4)", 5), ("tau(13)", 3), ("tau(10)", 4),
    ("sigma(2)", 256), ("T(2,3,5)+T(3)", 3), ("e2*T(2,4)+T(2)", 8),
)  # (expression, field), run to n_min + LARGE_STEPS
SUMS_STATE_LIMIT = 2 * DEFAULT_STATE_LIMIT  # so a case whose states change within it keeps its sums record


def _refusal(err):
    return ["raise", type(err).__name__, str(err)]


def _run_record(case, sys, steps):
    seq = run(sys, sys.n_min + steps)
    return [case, sys.label, sys.dim, sys.n_min, [list(v.coeffs) for v in seq.values]]


def _sums_record(text, q, steps):
    case = "%s/F_%d" % (text, q)
    try:
        sys = system_for(parse(text), make_field(*prime_power(q)), state_limit=SUMS_STATE_LIMIT)
    except (ValueError, ResourceLimitExceeded) as err:
        return [case, _refusal(err)]
    seq = run(sys, sys.n_min + steps)
    return [case, sys.label, sys.n_min, [list(v.coeffs) for v in seq.values]]


def _annihilator_record(case, sys):
    try:
        return [case, list(integer_annihilator(sys).coeffs)]
    except (ValueError, ResourceLimitExceeded) as err:
        return [case, _refusal(err)]


def _records():
    runs, annihilators = [], []
    for text in DIGEST_EXPRS:
        for q in DIGEST_FIELDS:
            case = "%s/F_%d" % (text, q)
            try:
                sys = system_for(parse(text), make_field(*prime_power(q)))
            except (ValueError, ResourceLimitExceeded) as err:
                runs.append([case, _refusal(err)])
                annihilators.append([case, _refusal(err)])
                continue
            runs.append(_run_record(case, sys, STEPS))
            annihilators.append(_annihilator_record(case, sys))
    return runs, annihilators


def _large_records():
    records = []
    for text, q, annihilate in LARGE:
        case = "%s/F_%d" % (text, q)
        sys = system_for(parse(text), make_field(q))
        records.append(_run_record(case, sys, LARGE_STEPS))
        if annihilate:
            records.append(_annihilator_record(case, sys))
    return records


def _outside_records():
    records = []
    for text, q in OUTSIDE:
        sys = system_for(parse(text), make_field(*prime_power(q)))
        records.append(_run_record("%s/F_%d" % (text, q), sys, LARGE_STEPS))
    return records


def _line(name, records):
    blob = json.dumps(records, sort_keys=True).encode()
    return "%s: %d records sha256 %s" % (name, len(records), hashlib.sha256(blob).hexdigest())


def _lines():
    runs, annihilators = _records()
    yield _line("runs", runs)
    yield _line("annihilators", annihilators)
    yield _line("large", _large_records())
    yield _line("outside", _outside_records())
    grid = [(text, q, STEPS) for text in DIGEST_EXPRS for q in DIGEST_FIELDS]
    yield _line("sums", [_sums_record(*case) for case in grid + [(t, q, LARGE_STEPS) for t, q in OUTSIDE]])


if __name__ == "__main__":
    check(_lines(), RECORDED)
