#!/usr/bin/env python3
"""Walk-through: elementary symmetric sums and the quadratic matrix.

sigma(k) is fully symmetric, so its transfer states are indexed by the
lower symmetric decorations rather than boundary windows.  For k = 2 over
a prime field the symmetric system is the quadratic matrix, with closed
form zeta^(j(k-j)); it is a complex Hadamard matrix (up to scale) whose
spectrum is a Gauss sum times roots of unity, and its integer annihilator
divides X^(2p) -+ p^p.
"""

from gfrec.funcalg import Sigma
from gfrec.galois import make_field
from gfrec.numtheory import (
    eigen_check,
    gauss_sum,
    hadamard_check,
    legendre,
    predicted_spectrum,
)
from gfrec.oracle import sum_sequence
from gfrec.recurrence import divides, family_poly, satisfies
from gfrec.transfer import build_symmetric_system, integer_annihilator, run


def main():
    p = 3
    f = make_field(p)

    print("== quadratic symmetric sums over F_%d ==" % p)
    # the quadratic matrix is the sigma(2) system
    sys = build_symmetric_system(2, f)
    # a root zeta^e is the one sparse triple (column, e, 1)
    m = sys.sparse
    triples = list(zip(m.cols.tolist(), m.exps.tolist(), m.amps.tolist()))
    assert triples == [(k, j * (k - j) % p, 1) for j in range(p) for k in range(p)]
    print("  sigma(2) system: %d states, (j, k) entry zeta^(j(k-j))" % sys.dim)
    seq = run(sys, 10)
    brute = sum_sequence(Sigma(2), f, range(2, 9))
    assert seq.values[: len(brute)] == brute.values
    print("  transfer matches enumeration on n=2..8")
    print("  values:", [v.as_integer() if v.as_integer() is not None else list(v.coeffs)
                        for v in seq.values[:6]])

    print()
    print("== matrix structure ==")
    print("  Hadamard property M conj(M)^T = %d I: %s" % (p, hadamard_check(p)))
    g = gauss_sum(1, p)
    print("  Gauss sum g = %s, g^2 = %s = (-1|%d) * %d"
          % (list(g.coeffs), (g * g).as_integer(), p, p))
    report = eigen_check(p)
    print("  predicted spectrum ((-2|p) g zeta^(-s a^2), %d distinct values):"
          % len(predicted_spectrum(p)))
    for value, mult in report.predicted:
        print("    %s with multiplicity %d" % (list(value.coeffs), mult))
    print("    confirmed exactly on the built matrix: %s" % report.ok)

    print()
    print("== integer annihilators ==")
    ann = integer_annihilator(sys)
    fam = family_poly("QUADSYM", field=f)
    print("  matrix minimal annihilator: %s" % ann.pretty())
    print("  even-power polynomial:      %s" % fam.pretty())
    assert divides(ann, fam)
    assert satisfies(seq, ann) and satisfies(seq, fam)
    print("  the first divides the second; both annihilate the sums")
    sign = legendre(-1, p)
    print("  (constant term carries the sign (-1|%d) = %+d)" % (p, sign))

    print()
    print("== a deeper symmetric family ==")
    sys3 = build_symmetric_system(3, f)
    seq3 = run(sys3, 9)
    brute3 = sum_sequence(Sigma(3), f, range(3, 10))
    assert seq3.values == brute3.values
    ann3 = integer_annihilator(sys3)
    print("  sigma(3) over F_3: %d states, annihilator degree %d"
          % (sys3.dim, ann3.degree))
    print("  %s" % ann3.pretty())


if __name__ == "__main__":
    main()
