"""Golden digests of exact values, and the gate that compares against them.

A digest is the SHA-256 of a canonical text form: sequences as their first
index and hexadecimal coordinates, polynomials as their coefficients,
histograms as their integer cells, CLI outcomes as exit code plus payload.
The golden file was generated once from the package as it stood when the
benchmark was defined (`make_goldens.py`).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDENS = Path(__file__).resolve().parent / "goldens.json"


class WrongValue(Exception):
    """A computed value differs from its golden digest or fails a check."""


def canonical(value):
    kind = type(value).__name__
    if kind == "Sequence":
        body = ";".join(",".join(format(c, "x") for c in v.coeffs) for v in value.values)
        return "seq:%d:%s" % (value.n_min, body)
    if kind == "IntPolynomial":
        return "poly:" + ",".join(str(c) for c in value.coeffs)
    if kind == "ndarray":
        return "array:%s:%s" % ("x".join(map(str, value.shape)), ",".join(map(str, value.ravel().tolist())))
    if isinstance(value, (bool, int, str)):
        return "%s:%s" % (kind, value)
    raise TypeError("no canonical form for %s" % kind)


def digest(value):
    return hashlib.sha256(canonical(value).encode()).hexdigest()


def load_goldens(path=GOLDENS):
    with open(path) as fh:
        return json.load(fh)


class Gate:
    """Raises WrongValue on the first value that does not match."""

    def __init__(self, goldens):
        self.goldens = goldens
        self.checked = 0

    def check(self, key, value, also=None):
        want = {self.goldens.get(key), self.goldens.get(also) if also else None} - {None}
        if not want:
            raise WrongValue("no golden digest for %s" % key)
        if digest(value) not in want:
            raise WrongValue("%s: value differs from its golden digest" % key)
        self.checked += 1

    def require(self, condition, what):
        if not condition:
            raise WrongValue(what)
        self.checked += 1
