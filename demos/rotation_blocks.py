#!/usr/bin/env python3
"""Walk-through: cyclic translate sums and their transfer systems.

Rotation families wrap around the index circle.  Their transfer systems
come from the de Bruijn matrix T of the window polynomial g, whose entry
from (a_1..a_(w-1)) to (a_2..a_w) is zeta^Tr(g(a_1..a_w)): a cyclic word of
length n is a closed walk of n steps, so the cyclic sum is Tr(T^n).  The
system steps the columns of T^n side by side and projects on the
diagonal.  The point to see concretely is that this trace is exact: the
system matches enumeration from its first index on, and its long runs
satisfy the family's stated recurrence.
"""

from gfrec.funcalg import parse
from gfrec.galois import make_field
from gfrec.harness import compare, rot_conjecture_seq
from gfrec.oracle import sum_sequence
from gfrec.recurrence import family_poly, satisfies
from gfrec.transfer import build_rotation_system, run, system_for


def show(v):
    return v.as_integer() if v.as_integer() is not None else list(v.coeffs)


def quadratic_rotation():
    f = make_field(3)
    print("== R(2) over F_3 ==")
    sys = build_rotation_system((1, 2), f)
    print("  system: dim %d (the columns of the %d-state de Bruijn matrix), first index n=%d"
          % (sys.dim, sys.sparse.dim, sys.n_min))

    horizon = 12
    a = run(sys, horizon)
    brute = sum_sequence(parse("R(2)"), f, range(sys.n_min, horizon + 1))
    assert a.values == brute.values
    print("  matches enumeration on n=%d..%d" % (sys.n_min, horizon))

    poly = family_poly("ROT2", field=f)
    assert satisfies(a, poly)
    print("  sums satisfy %s" % poly.pretty())
    print("  values (coordinate lists where irrational):")
    print("  ", [show(v) for v in a.values[:6]])


def mixed_rotation():
    f2 = make_field(2)
    print()
    print("== R(2,3) + R(2) over F_2 ==")
    # combinations of rotation patterns share one de Bruijn matrix
    e = parse("R(2,3) + R(2)")
    sys = system_for(e, f2)
    print("  %r" % sys)
    seq = run(sys, 16)
    brute = sum_sequence(e, f2, range(sys.n_min, 17))
    assert seq.values == brute.values
    poly = family_poly("MIX1", k=3)
    assert satisfies(seq, poly)
    print("  matches enumeration and satisfies %s" % poly.pretty())


def seeded_conjecture():
    f2 = make_field(2)
    print()
    print("== seeded rotation conjecture over F_2 ==")
    # the seeds r(0) = k, r(j) = 2^j - 2 (odd j) / 2^j (even j) are formal
    # priming values, yet the recurrence they start reproduces the actual
    # cyclic sums from n = k on
    for k in (3, 4, 5):
        conj = rot_conjecture_seq(k, 14)
        e = parse("R(%s)" % ",".join(str(j) for j in range(2, k + 1)))
        measured = sum_sequence(e, f2, range(k, 15))
        report = compare(conj, measured, which="rotation", k=k, field="2")
        print("  k=%d: %s, n=%d..14, first values %s"
              % (k, report.status, k, measured.as_integers()[:4]))


if __name__ == "__main__":
    quadratic_rotation()
    mixed_rotation()
    seeded_conjecture()
