"""End-to-end tests of the command-line interface via main(argv)."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gfrec import cli, transfer
from gfrec.cli import main
from gfrec.cyclotomic import to_decimal
from gfrec.funcalg import tau
from gfrec.galois import make_field
from gfrec.numtheory import predicted_spectrum
from gfrec.oracle import sum_sequence
from gfrec.recurrence import Sequence, extend, family_poly


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == "", err
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# expsum

def test_expsum_basic(capsys):
    code, rec = run_json(
        capsys, "expsum", "--expr", "tau(3)", "--field", "2", "--n", "3..6"
    )
    assert code == 0
    assert rec["schema_version"] == 1
    assert rec["command"]["name"] == "expsum"
    payload = rec["payload"]
    assert payload["field"] == "2"
    assert [v["n"] for v in payload["values"]] == [3, 4, 5, 6]
    assert [v["integer"] for v in payload["values"]] == ["6", "12", "20", "36"]


def test_expsum_single_n(capsys):
    code, rec = run_json(
        capsys, "expsum", "--expr", "R(2)", "--field", "3", "--n", "4"
    )
    assert code == 0
    assert len(rec["payload"]["values"]) == 1


def test_expsum_methods_give_identical_payloads(capsys):
    _code, brute = run_json(
        capsys, "expsum", "--expr", "tau(3)", "--field", "2", "--n", "3..9"
    )
    _code, fast = run_json(
        capsys, "expsum", "--expr", "tau(3)", "--field", "2", "--n", "3..9",
        "--method", "transfer",
    )
    assert brute["payload"]["values"] == fast["payload"]["values"]


def test_expsum_repeat_is_byte_identical(capsys):
    argv = ("expsum", "--expr", "sigma(2)", "--field", "5", "--n", "2..5")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_expsum_irrational_values(capsys):
    code, rec = run_json(
        capsys, "expsum", "--expr", "sigma(2)", "--field", "3", "--n", "3..3"
    )
    assert code == 0
    v = rec["payload"]["values"][0]
    assert v["integer"] is None
    assert len(v["coeffs"]) == 2


def test_expsum_usage_errors(capsys):
    code, _out, err = run_cli(
        capsys, "expsum", "--expr", "tau(3)", "--field", "2", "--n", "6..3"
    )
    assert code == 2
    assert "usage error" in err
    code, _out, _err = run_cli(
        capsys, "expsum", "--expr", "tau(3)", "--field", "2", "--n", "1..4"
    )
    assert code == 2
    code, _out, _err = run_cli(
        capsys, "expsum", "--expr", "Q(3)", "--field", "2", "--n", "3..4"
    )
    assert code == 2
    code, _out, _err = run_cli(
        capsys, "expsum", "--expr", "tau(3)", "--field", "6", "--n", "3..4"
    )
    assert code == 2


def test_expsum_scalar_out_of_range_is_the_same_usage_error_for_every_method(capsys):
    for method in ("brute", "transfer"):
        code, out, err = run_cli(
            capsys, "expsum", "--expr", "e2*T(2,3)", "--field", "2", "--n", "3..5",
            "--method", method,
        )
        assert (code, out, err) == (2, "", "usage error: scalar index 2 out of range for F_2\n")


def test_expsum_budget_exhausted(capsys):
    code, _out, err = run_cli(
        capsys, "expsum", "--expr", "tau(2)", "--field", "3", "--n", "2..12",
        "--budget", "100",
    )
    assert code == 3
    assert "resource limit" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["annihilator", "--expr", "tau(3)", "--field", "2"],
        ["expsum", "--expr", "tau(3)", "--field", "2", "--n", "3..6", "--method", "transfer"],
    ],
)
def test_transfer_path_honours_budget(capsys, argv):
    # the system's initial states are enumerated sums, so the budget covers them
    code, out, err = run_cli(capsys, *argv, "--budget", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit: ")


def test_expsum_csv(capsys):
    code, out, err = run_cli(
        capsys, "expsum", "--expr", "tau(3)", "--field", "2", "--n", "3..6",
        "--format", "csv",
    )
    assert code == 0
    assert err == ""
    assert out == "n,c0\n3,6\n4,12\n5,20\n6,36\n"


def test_expsum_csv_cyclotomic_width(capsys):
    code, out, _err = run_cli(
        capsys, "expsum", "--expr", "R(2)", "--field", "3", "--n", "2..4",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "n,c0,c1"


def test_expsum_pretty(capsys):
    code, out, _err = run_cli(
        capsys, "expsum", "--expr", "tau(3)", "--field", "2", "--n", "3..4",
        "--format", "pretty",
    )
    assert code == 0
    assert "expsum" in out
    assert "n=3" in out and "6" in out


def test_expsum_writes_values_past_the_int_digit_limit(capsys, monkeypatch):
    # tau(3) over F_5 at n = 8500 has a coordinate of 4431 digits, past the
    # 4300 that str() takes on Python 3.11.  extend gives the value that the
    # transfer run computes in about a second
    f5 = make_field(5)
    seq = extend(sum_sequence(tau(3), f5, range(3, 6)), family_poly("Q_TRAP", k=3, field=f5), 8500)
    value = seq.values[-1]
    monkeypatch.setattr(cli, "_sums", lambda e, f, lo, hi, args, sys_=None: Sequence(lo, (value,), "transfer"))
    argv = ["expsum", "--expr", "tau(3)", "--field", "5", "--n", "8500..8500", "--method", "transfer"]
    code, rec = run_json(capsys, *argv)
    assert code == 0
    (v,) = rec["payload"]["values"]
    assert v["n"] == 8500 and len(v["coeffs"][0]) > 4300
    assert v["coeffs"] == [to_decimal(c) for c in value.coeffs]
    assert v["integer"] == to_decimal(value.as_integer())
    for fmt in ("csv", "pretty"):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        assert v["integer"] in out


def test_expsum_explicit_modulus(capsys):
    code, rec = run_json(
        capsys, "expsum", "--expr", "sigma(2)", "--field", "3^2",
        "--modulus", "1,0,1", "--n", "2..3",
    )
    assert code == 0
    assert rec["payload"]["field"] == "3^2"
    code, _out, _err = run_cli(
        capsys, "expsum", "--expr", "sigma(2)", "--field", "3^2",
        "--modulus", "1,1", "--n", "2..3",
    )
    assert code == 2


def test_a_record_names_the_modulus_it_was_computed_over(capsys):
    # over F_9, e3*sigma(2)+sigma(3) takes other values with the modulus
    # X^2 + 2X + 2 than with the default X^2 + 1, so every subcommand that
    # takes --field echoes a modulus that --modulus chose, and only then
    argv = ("expsum", "--expr", "e3*sigma(2)+sigma(3)", "--field", "9", "--n", "3..4")
    _code, plain = run_json(capsys, *argv)
    _code, chosen = run_json(capsys, *argv, "--modulus", "2,2,1")
    assert plain["payload"]["values"] != chosen["payload"]["values"]
    assert "modulus" not in plain["command"]["args"]
    assert chosen["command"]["args"] == dict(plain["command"]["args"], modulus=[2, 2, 1])
    for argv in (
        ("verify", "--expr", "tau(2)", "--poly=-9,0,1", "--n-max", "4"),
        ("discover", "--expr", "tau(2)", "--max-order", "2", "--n-max", "12", "--method", "transfer"),
        ("annihilator", "--expr", "tau(2)"),
        ("conjecture", "--which", "trapezoid", "--k", "2", "--n-max", "4"),
        ("bench", "--expr", "tau(2)", "--n", "2..3"),
    ):
        _code, rec = run_json(capsys, *argv, "--field", "9", "--modulus", "2,2,1")
        assert rec["command"]["args"]["modulus"] == [2, 2, 1], argv


def test_a_record_names_the_flags_that_chose_its_first_n(capsys):
    # R(2,3) over F_2 starts at its family minimum 3 by brute and at its
    # transfer system's first index 6 by transfer, so verify, discover and
    # conjecture echo --method, and --n-min when it is given
    argv = ("discover", "--expr", "R(2,3)", "--field", "2", "--n-max", "23")
    _code, brute = run_json(capsys, *argv, "--method", "brute")
    _code, fast = run_json(capsys, *argv, "--method", "transfer")
    assert (brute["payload"]["n_range"], fast["payload"]["n_range"]) == ([3, 23], [6, 23])
    assert brute["command"]["args"] == dict(fast["command"]["args"], method="brute")
    argv = ("verify", "--expr", "tau(3)", "--field", "2", "--poly=-2,-2,0,1", "--n-max", "12")
    _code, plain = run_json(capsys, *argv)
    _code, later = run_json(capsys, *argv, "--n-min", "4")
    assert (plain["payload"]["n_range"], later["payload"]["n_range"]) == ([3, 12], [4, 12])
    assert plain["command"]["args"]["method"] == "brute" and "n_min" not in plain["command"]["args"]
    assert later["command"]["args"] == dict(plain["command"]["args"], n_min=4)
    argv = ("conjecture", "--which", "rotation", "--k", "3", "--field", "2", "--n-max", "9", "--method", "transfer")
    _code, rec = run_json(capsys, *argv)
    assert rec["command"]["args"]["method"] == "transfer" and "n_min" not in rec["command"]["args"]


def test_fields_past_the_budget_are_refused_before_they_are_built(capsys, monkeypatch):
    # every field request enumerates at some n >= 1, so a field with more
    # elements than the budget is refused before q is factored or the field
    # (an irreducible search for 2^40) is built
    def refuse(*args):
        raise AssertionError("built or factored a field: %r" % (args,))

    monkeypatch.setattr(cli, "prime_power", refuse)
    monkeypatch.setattr(cli, "make_field", refuse)
    cases = [
        ("1000000007", [], "1000000007", 10**8),
        ("2^40", [], "2^40", 10**8),
        ("2^99999999999", [], "2^99999999999", 10**8),  # without forming the power
        ("1000000007", ["--budget", "1000000006"], "1000000007", 1000000006),
        ("3^2", ["--budget", "8"], "3^2", 8),
    ]
    for field, budget, size, limit in cases:
        for argv in (
            ["expsum", "--expr", "tau(3)", "--n", "3"],
            ["annihilator", "--expr", "R(2)"],
            ["conjecture", "--which", "trapezoid", "--k", "3", "--n-max", "5"],
        ):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, *argv, "--field", field, *budget)
            assert (code, out) == (3, ""), (field, argv)
            assert err == "resource limit: a field of %s elements exceeds the budget of %d\n" % (size, limit)
            assert time.perf_counter() - start < 0.5
    monkeypatch.undo()
    # a field of exactly the budget is admitted, and refused later at n = 3
    code, _out, err = run_cli(capsys, "expsum", "--expr", "tau(3)", "--field", "3^2", "--n", "3", "--budget", "9")
    assert (code, err) == (3, "resource limit: enumeration of 9^3 points exceeds the budget of 9\n")
    code, _out, _err = run_cli(capsys, "expsum", "--expr", "tau(2)", "--field", "9", "--n", "2", "--budget", "81")
    assert code == 0
    # what is not a prime power stays a usage error within the budget
    for field in ("6", "1^5", "0", "2^0"):
        code, _out, _err = run_cli(capsys, "expsum", "--expr", "tau(3)", "--field", field, "--n", "3")
        assert code == 2, field


# ---------------------------------------------------------------------------
# verify / discover / annihilator

def test_verify_pass_and_fail(capsys):
    code, rec = run_json(
        capsys, "verify", "--expr", "tau(3)", "--field", "2",
        "--poly=-2,-2,0,1", "--n-max", "10",
    )
    assert code == 0
    assert rec["payload"]["holds"] is True
    assert rec["payload"]["windows"] == 5
    code, rec = run_json(
        capsys, "verify", "--expr", "tau(3)", "--field", "2",
        "--poly=-1,-1,1", "--n-max", "10",
    )
    assert code == 1
    assert rec["payload"]["holds"] is False


def test_verify_needs_enough_terms(capsys):
    code, _out, err = run_cli(
        capsys, "verify", "--expr", "tau(3)", "--field", "2",
        "--poly=-2,-2,0,1", "--n-max", "4",
    )
    assert code == 2
    assert "degree-3" in err


def test_verify_csv_rejected(capsys):
    code, _out, err = run_cli(
        capsys, "verify", "--expr", "tau(3)", "--field", "2",
        "--poly=-2,-2,0,1", "--n-max", "10", "--format", "csv",
    )
    assert code == 2
    assert "--format: invalid choice: 'csv'" in err


def test_accept_csv_is_refused_before_the_battery_runs(capsys, tmp_path):
    out_file = tmp_path / "report.csv"
    code, out, err = run_cli(capsys, "accept", "--format", "csv", "--out", str(out_file))
    assert code == 2
    assert out == ""
    assert "--format: invalid choice: 'csv'" in err
    assert not out_file.exists()


def test_numtheory_pretty(capsys):
    code, out, err = run_cli(capsys, "numtheory", "gauss-sum", "--p", "5", "--format", "pretty")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "numtheory"
    assert "  op: gauss-sum" in out.splitlines()


def test_discover(capsys):
    code, rec = run_json(
        capsys, "discover", "--expr", "tau(3)", "--field", "2",
        "--n-max", "14", "--max-order", "3",
    )
    assert code == 0
    assert rec["payload"]["poly"] == ["-2", "-2", "0", "1"]
    assert rec["payload"]["degree"] == 3
    assert rec["payload"]["pretty"] == "X^3 - 2*X - 2"


def test_discover_insufficient_data(capsys):
    code, _out, err = run_cli(
        capsys, "discover", "--expr", "tau(3)", "--field", "2", "--n-max", "6"
    )
    assert code == 2
    assert "terms" in err


def test_discover_no_recurrence_at_order(capsys):
    code, _out, err = run_cli(
        capsys, "discover", "--expr", "tau(3)", "--field", "2",
        "--n-max", "8", "--max-order", "1",
    )
    assert code == 1
    assert "check failed" in err


def test_discover_max_order_below_one_is_usage_error(capsys):
    for order in ("0", "-2"):
        code, _out, err = run_cli(
            capsys, "discover", "--expr", "tau(3)", "--field", "2",
            "--n-max", "14", "--max-order", order,
        )
        assert code == 2
        assert err == "usage error: max_order must be >= 1\n"
    # checked before any sum or build: 3^40 points are over the budget, and
    # the transfer method builds its system to find the first n
    for method in ("brute", "transfer"):
        start = time.perf_counter()
        code, _out, err = run_cli(
            capsys, "discover", "--expr", "sigma(2)", "--field", "3",
            "--n-max", "40", "--max-order", "0", "--method", method,
        )
        assert (code, err) == (2, "usage error: max_order must be >= 1\n")
        assert time.perf_counter() - start < 0.5
    # and the terms it needs, 2 max_order + holdout, before any sum
    code, _out, err = run_cli(
        capsys, "discover", "--expr", "sigma(2)", "--field", "3",
        "--n-max", "40", "--max-order", "20",
    )
    assert (code, err) == (2, "usage error: need at least 60 terms (2*max_order + holdout), have 39\n")


def test_transfer_range_defaults_to_the_system_start(capsys):
    # the R(2) system starts at n=3, one above the family minimum
    code, rec = run_json(
        capsys, "discover", "--expr", "R(2)", "--field", "3", "--n-max", "14",
        "--max-order", "4", "--method", "transfer",
    )
    assert code == 0
    assert rec["payload"]["n_range"] == [3, 14]
    assert rec["payload"]["poly"] == ["-9", "0", "0", "0", "1"]
    code, rec = run_json(
        capsys, "verify", "--expr", "R(2)", "--field", "3", "--poly=-9,0,0,0,1",
        "--n-max", "9", "--method", "transfer",
    )
    assert code == 0
    assert rec["payload"]["n_range"] == [3, 9]
    assert rec["payload"]["holds"]


def test_annihilator_trapezoid(capsys):
    code, rec = run_json(
        capsys, "annihilator", "--expr", "tau(3)", "--field", "2"
    )
    assert code == 0
    assert rec["payload"]["poly"] == ["-2", "-2", "0", "1"]
    assert rec["payload"]["dim"] == 3
    assert rec["payload"]["system"].startswith("trapezoid(2..3)")


def test_annihilator_quadratic_symmetric(capsys):
    code, rec = run_json(
        capsys, "annihilator", "--expr", "sigma(2)", "--field", "3"
    )
    assert code == 0
    assert rec["payload"]["poly"] == ["9", "-9", "6", "-3", "1"]


def test_annihilator_degree_cap_below_one_is_usage_error(capsys):
    for cap in ("0", "-3"):
        code, _out, err = run_cli(
            capsys, "annihilator", "--expr", "tau(3)", "--field", "2", "--degree-cap", cap
        )
        assert code == 2
        assert err == "usage error: degree_cap must be >= 1\n"
    # checked before system_for: sigma(2) over F_257 is past the root-count limit
    start = time.perf_counter()
    code, _out, err = run_cli(
        capsys, "annihilator", "--expr", "sigma(2)", "--field", "257", "--degree-cap", "0"
    )
    assert (code, err) == (2, "usage error: degree_cap must be >= 1\n")
    assert time.perf_counter() - start < 0.5


def test_annihilator_unsupported_expression(capsys):
    code, _out, _err = run_cli(
        capsys, "annihilator", "--expr", "R(2)+T(2)", "--field", "2"
    )
    assert code == 2


# ---------------------------------------------------------------------------
# conjecture

def test_conjecture_trapezoid_proved_case(capsys):
    code, rec = run_json(
        capsys, "conjecture", "--which", "trapezoid", "--k", "3",
        "--field", "2", "--n-max", "12",
    )
    assert code == 0
    assert rec["payload"]["status"] == "proved-case"
    assert rec["payload"]["first_disagreement"] is None
    assert rec["payload"]["agreements"] == 10


def test_conjecture_rotation(capsys):
    code, rec = run_json(
        capsys, "conjecture", "--which", "rotation", "--k", "3",
        "--field", "2", "--n-max", "12",
    )
    assert code == 0
    assert rec["payload"]["status"] == "verified-on-range"


def test_conjecture_rotation_by_transfer_starts_at_the_system_start(capsys):
    # the R(2..k) system starts at n = 3(k - 1), later than k from k = 3 on
    for k, n_max in ((2, 14), (3, 14), (4, 14), (5, 16)):
        code, rec = run_json(
            capsys, "conjecture", "--which", "rotation", "--k", str(k),
            "--field", "2", "--n-max", str(n_max), "--method", "transfer",
        )
        assert code == 0
        payload = rec["payload"]
        assert payload["status"] == "verified-on-range"
        assert payload["checked_range"] == [max(k, 3 * (k - 1)), n_max]
    code, _out, err = run_cli(
        capsys, "conjecture", "--which", "rotation", "--k", "3",
        "--field", "2", "--n-max", "5", "--method", "transfer",
    )
    assert code == 2
    assert err == "usage error: empty range 6..5\n"


@pytest.mark.parametrize("which", ["trapezoid", "rotation"])
def test_conjecture_past_the_point_budget_is_refused_before_the_extension(capsys, which):
    # extending the conjecture to n = 10^6 first took seconds and memory
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "conjecture", "--which", which, "--k", "3", "--field", "2", "--n-max", "1000000"
    )
    assert (code, out) == (3, "")
    assert err == "resource limit: enumeration of 2^27 points exceeds the budget of 100000000\n"
    assert time.perf_counter() - start < 0.5


def test_conjecture_rotation_needs_field_two(capsys):
    code, _out, _err = run_cli(
        capsys, "conjecture", "--which", "rotation", "--k", "3",
        "--field", "3", "--n-max", "10",
    )
    assert code == 2


def test_conjecture_validation(capsys):
    code, _out, _err = run_cli(
        capsys, "conjecture", "--which", "trapezoid", "--k", "1",
        "--field", "2", "--n-max", "10",
    )
    assert code == 2
    code, _out, _err = run_cli(
        capsys, "conjecture", "--which", "trapezoid", "--k", "4",
        "--field", "2", "--n-max", "3",
    )
    assert code == 2


# ---------------------------------------------------------------------------
# numtheory

def test_numtheory_gauss_sum(capsys):
    code, rec = run_json(capsys, "numtheory", "gauss-sum", "--p", "5")
    assert code == 0
    assert rec["payload"]["coeffs"] == ["-1", "0", "-2", "-2"]
    code, _out, _err = run_cli(capsys, "numtheory", "gauss-sum", "--p", "4")
    assert code == 2
    code, _out, _err = run_cli(capsys, "numtheory", "gauss-sum")
    assert code == 2


def test_numtheory_eigen_check(capsys):
    code, rec = run_json(capsys, "numtheory", "eigen-check", "--p", "7")
    assert code == 0
    assert rec["payload"]["ok"] is True
    assert len(rec["payload"]["predicted"]) == 4
    # exact coordinates, as gauss-sum prints them, and no float fields
    assert sorted(rec["payload"]) == ["ok", "op", "p", "predicted"]
    assert rec["payload"]["predicted"] == [
        {"coeffs": [to_decimal(c) for c in v.coeffs], "multiplicity": m} for v, m in predicted_spectrum(7)
    ]


def test_numtheory_eigen_check_past_its_prime_is_a_resource_limit(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "numtheory", "eigen-check", "--p", "101")
    assert (code, out) == (3, "")
    assert err == "resource limit: an exact spectrum check over F_101 exceeds the limit of p <= 47\n"
    assert time.perf_counter() - start < 0.5


def test_numtheory_gauss_sum_past_its_prime_is_a_resource_limit(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "numtheory", "gauss-sum", "--p", "1000003")
    assert (code, out) == (3, "")
    assert err == "resource limit: a Gauss sum over F_1000003 exceeds the limit of p <= 100000\n"
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "expr, states",
    [("T(2,1000000)", "3^999999"), ("R(2,10000)", "3^19998"), ("sigma(10000)", "3^9999")],
)
def test_annihilator_of_a_wide_family_is_a_resource_limit(capsys, expr, states):
    # a count past Python's int-to-str digit limit is written as a power,
    # and it is checked from q and the exponent before q^m is formed
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "annihilator", "--expr", expr, "--field", "3")
    assert (code, out) == (3, "")
    assert err == "resource limit: %s states exceed the limit of 4096\n" % states
    assert time.perf_counter() - start < 0.5


def test_numtheory_eigen_check_takes_no_tolerance(capsys):
    code, _out, err = run_cli(capsys, "numtheory", "eigen-check", "--p", "7", "--tol", "1e-9")
    assert code == 2
    assert "--tol" in err


def test_numtheory_eisenstein(capsys):
    code, rec = run_json(
        capsys, "numtheory", "eisenstein", "--poly=-2,-2,0,1", "--p", "2"
    )
    assert code == 0
    assert rec["payload"]["verdict"] == "irreducible"
    code, rec = run_json(
        capsys, "numtheory", "eisenstein", "--poly=-9,0,0,0,1", "--p", "3"
    )
    assert code == 0
    assert rec["payload"]["verdict"] == "criterion-not-applicable"
    code, _out, _err = run_cli(capsys, "numtheory", "eisenstein", "--p", "2")
    assert code == 2


# ---------------------------------------------------------------------------
# bench and accept

def test_bench(capsys):
    code, out, err = run_cli(
        capsys, "bench", "--expr", "tau(3)", "--field", "2", "--n", "3..10"
    )
    assert code == 0, err
    rec = json.loads(out)
    assert rec["payload"]["agree"] is True
    assert set(rec["timings"]) == {"brute_millis", "transfer_millis"}
    # payloads stay deterministic even though timings vary
    code2, out2, _err = run_cli(
        capsys, "bench", "--expr", "tau(3)", "--field", "2", "--n", "3..10"
    )
    rec2 = json.loads(out2)
    rec.pop("timings")
    rec2.pop("timings")
    assert rec == rec2


def test_accept_quick(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "accept", "--profile", "quick", "--out", str(out_file)
    )
    assert code == 0, err
    rec = json.loads(out)
    items = rec["payload"]
    assert [i["id"] for i in items] == ["C%d" % i for i in range(1, 16)]
    assert all(i["status"] == "pass" for i in items)
    on_disk = json.loads(out_file.read_text())
    assert on_disk["payload"] == items


@pytest.mark.parametrize("where", ["missing/report.json", "."])
def test_accept_out_to_an_unwritable_path_is_refused_before_the_battery_runs(capsys, monkeypatch, tmp_path, where):
    def battery(**_kwargs):
        raise AssertionError("the battery ran")

    monkeypatch.setattr(cli, "acceptance_run", battery)
    path = tmp_path / where
    code, out, err = run_cli(capsys, "accept", "--out", str(path))
    assert (code, out) == (2, "")
    reason = "No such file or directory" if where != "." else "Is a directory"
    assert err == "usage error: cannot write --out %s: %s\n" % (path, reason)


_REPORT = {"all_pass": True, "items": [{"id": "C1", "status": "pass", "expected": "e", "got": "k=3 ok", "millis": 7}]}


@pytest.mark.parametrize("argv, code, out, err", [
    (["expsum", "--expr", "tau(3)", "--field", "4", "--modulus", "1,x,1", "--n", "3..4"], 2, "",
     "usage error: modulus must be comma-separated integers\n"),
    (["expsum", "--expr", "tau(3)", "--field", "2", "--n", "3..x"], 2, "", "usage error: range must look like 3..6\n"),
    (["verify", "--expr", "tau(3)", "--field", "2", "--poly", "1,a", "--n-max", "9"], 2, "",
     "usage error: polynomial must be ascending comma-separated integers\n"),
    (["verify", "--expr", "tau(3)", "--field", "2", "--poly", "0,0", "--n-max", "9"], 2, "", "usage error: polynomial must be nonzero\n"),
    (["verify", "--expr", "tau(3)", "--field", "2", "--poly=-2,-2,0,1", "--n-max", "9", "--n-min", "2"], 2, "",
     "usage error: family needs n >= 3\n"),
    (["verify", "--expr", "tau(3)", "--field", "2", "--poly=-2,-2,0,1", "--n-max", "2"], 2, "", "usage error: empty range 3..2\n"),
    (["discover", "--expr", "tau(3)", "--field", "2", "--n-max", "2"], 2, "", "usage error: empty range 3..2\n"),
    (["numtheory", "eigen-check"], 2, "", "usage error: eigen-check needs --p\n"),
    (["bench", "--expr", "tau(3)", "--field", "2", "--n", "2..4"], 2, "", "usage error: family needs n >= 3\n"),
    (["accept", "--format", "pretty"], 0, "accept\n  C1   pass     7ms  k=3 ok\n", ""),
])
def test_each_refusal_and_the_pretty_report_print_their_own_line(capsys, monkeypatch, argv, code, out, err):
    # the battery is replaced, so the pretty case prints a known report
    monkeypatch.setattr(cli, "acceptance_run", lambda profile: _REPORT)
    assert run_cli(capsys, *argv) == (code, out, err)


# ---------------------------------------------------------------------------
# top-level parsing

def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    assert main(["expsum", "--nope"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["expsum", "--expr", "tau(3)", "--field", "2", "--n", "3..5", "--workers", "2"],
    ["accept", "--workers", "2"],
])
def test_workers_option_is_gone(capsys, argv):
    code, _out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "unrecognized arguments: --workers 2" in err


@pytest.mark.parametrize("argv", [
    ["expsum", "--expr", "tau(3)", "--field", "2", "--n", "3..5", "--pretty"],
    ["numtheory", "gauss-sum", "--p", "5", "--pretty"],
])
def test_pretty_option_is_gone(capsys, argv):
    code, _out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "unrecognized arguments: --pretty" in err


PARSE_CASES = [
    [],
    ["expsum", "--nope"],
    ["expsum", "--expr", "tau(3)", "--field", "2", "--n", "3..5", "--format", "xml"],
    ["verify", "--expr", "tau(3)", "--field", "2"],
    ["numtheory", "gauss-sum", "--p", "5", "--pretty"],
    ["expsum", "--expr", "tau(3)", "--field", "2", "--n", "3..5"],
    ["numtheory", "gauss-sum", "--p", "5", "--format", "pretty"],
    ["expsum", "--help"],
]


def _outcomes(argvs):
    outcomes = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        outcomes.append((code, out.getvalue(), err.getvalue()))
    return outcomes


def test_parser_is_built_once_and_parses_like_a_fresh_one(monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(cli, "_parser", cli.build_parser)  # a new parser per request
        fresh = _outcomes(PARSE_CASES)
    calls = []
    build = cli.build_parser

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        assert _outcomes(PARSE_CASES + PARSE_CASES) == fresh + fresh
    finally:
        cli._parser.cache_clear()
    assert len(calls) == 1
    assert [code for code, _out, _err in fresh] == [2, 2, 2, 2, 2, 0, 0, 0]


def test_transfer_system_is_built_once_per_request(capsys, monkeypatch):
    calls = []
    build = transfer.system_for

    def counted(*args, **kwargs):
        calls.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(transfer, "system_for", counted)
    for argv in (
        ["expsum", "--expr", "R(2)", "--field", "3", "--n", "3..9"],
        ["verify", "--expr", "R(2)", "--field", "3", "--poly=-9,0,0,0,1", "--n-max", "9"],
        ["verify", "--expr", "R(2)", "--field", "3", "--poly=-9,0,0,0,1",
         "--n-min", "4", "--n-max", "9"],
        ["discover", "--expr", "R(2)", "--field", "3", "--n-max", "14", "--max-order", "4"],
        ["conjecture", "--which", "rotation", "--k", "3", "--field", "2", "--n-max", "12"],
        ["conjecture", "--which", "trapezoid", "--k", "3", "--field", "3", "--n-max", "9"],
    ):
        calls.clear()
        code, _rec = run_json(capsys, *argv, "--method", "transfer")
        assert code == 0, argv
        assert len(calls) == 1, argv


def test_cli_import_leaves_out_the_thread_pool_modules():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy; before = set(sys.modules); import gfrec, gfrec.cli; "
         "print(*sorted(set(sys.modules) - before))"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    # the set-up cost: past numpy, the package adds only itself, json and the
    # CLI's argparse, so no thread pool and no other standard-library module
    added = result.stdout.split()
    assert "gfrec.cli" in added and "concurrent.futures" not in added
    stdlib = {"__future__", "_json", "argparse", "gettext"}
    assert [m for m in added if m.split(".")[0] not in {"gfrec", "json"} and m not in stdlib] == []
