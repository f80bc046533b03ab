#!/usr/bin/env python3
"""Walk-through: fitting recurrences from data and certifying them.

Given enough exact terms, discover() fits the least-order integer
recurrence on a prefix and validates it on held-out terms.  For the
families here the fitted polynomials match the predicted ones, several of
which an Eisenstein or Newton-polygon argument certifies irreducible, so
the fitted order is provably minimal.
"""

from gfrec.funcalg import parse
from gfrec.galois import make_field
from gfrec.numtheory import eisenstein_dumas
from gfrec.oracle import sum_sequence
from gfrec.recurrence import discover, extend, family_poly
from gfrec.transfer import run_range, system_for


CASES = [
    ("tau(3)", "2", 3, ("P_K", 3)),
    ("tau(4)", "2", 4, ("P_K", 4)),
    ("tau(3)", "3", 3, ("Q_TRAP", 3)),
    ("R(2,3) + R(2)", "2", 6, ("MIX1", 3)),
    ("R(2,3,4) + R(2,3)", "2", 9, ("MIX1", 4)),
    ("R(2,3,4) + R(2,4)", "2", 9, ("MIX2", 4)),
    ("R(2,4) + R(2,3) + R(2,3,4)", "2", 9, ("MIX3", 4)),
]


def field_of(text):
    if "^" in text:
        p, r = text.split("^")
        return make_field(int(p), int(r))
    return make_field(int(text))


def main():
    print("== discovery against predictions ==")
    for expr_text, field_text, n_lo, (family, k) in CASES:
        f = field_of(field_text)
        e = parse(expr_text)
        want = family_poly(family, k=k, field=f)
        order = want.degree
        n_hi = n_lo + 3 * order + 2
        seq = run_range(system_for(e, f), e, range(n_lo, n_hi + 1))
        found = discover(seq, max_order=order)
        verdict = "matches" if found == want else "DIFFERS from"
        print("  %-26s F_%-3s -> %-28s (%s prediction)"
              % (expr_text, field_text, found.pretty(), verdict))
        assert found == want

    print()
    print("== irreducibility certificates ==")
    for poly, p in (
        (family_poly("P_K", k=3), 2),
        (family_poly("P_K", k=5), 2),
        (family_poly("Q_TRAP", k=3, field=make_field(3)), 3),
        (family_poly("Q_K", k=4), 2),
        (family_poly("ROT2", field=make_field(3)), 3),
    ):
        print("  %-24s at p=%d: %s" % (poly.pretty(), p, eisenstein_dumas(poly, p)))

    print()
    print("== running a fitted recurrence backward ==")
    f2 = make_field(2)
    seq = sum_sequence(parse("tau(3)"), f2, range(3, 14))
    poly = discover(seq, max_order=3)
    back = extend(seq, poly, 0)
    print("  fitted %s, then stepped back to n=0:" % poly.pretty())
    print("  ", back.as_integers()[:7])
    print("  the three pre-family values are exactly the q^j seeds 1, 2, 4")


if __name__ == "__main__":
    main()
