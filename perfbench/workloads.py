"""Task lists of the four benchmark workloads.

Every workload is a closed loop: `prepare` returns a fixed list of tasks,
the runner executes them one at a time, and a task starts only after the
previous one has finished.  A task calls the public functions of the
package (reached through the `gfrec` module object passed in, so that the
tracer's wrappers are seen) and returns its exact outputs by name; its
check then compares them with the golden digests.  The seed fixes the task
order and, for `cli-session`, which requests are drawn from the pool.

This module imports nothing from the package itself: the runner measures
`import gfrec` as part of set-up.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("enumerate", "derive", "sequence", "cli-session")
# about one full pass's time on a 2-core host: a run makes
# --seconds / PASS_S passes (at least two)
PASS_S = {"enumerate": 4.5, "derive": 10.5, "sequence": 7.5, "cli-session": 6.25}
SIZES = ("full", "smoke")

FIELDS = {"2": (2, 1), "3": (3, 1), "4": (2, 2), "5": (5, 1), "8": (2, 3), "9": (3, 2)}

# Polynomials the paper states, ascending coefficients.
C7_POLY6 = (18, 9, 0, -9, -3, 0, 1)  # annihilates R(2,3) over F_3
C8_MU = (27, -81, 81, 0, -81, 108, -81, 36, -9, 1)  # annihilates sigma(3) over F_3


@dataclass
class Task:
    key: str
    run: Callable[[], dict]
    check: Callable[[dict, object, bool], None]  # (outputs, gate, with_paper)
    points: int = 0  # brute points the task enumerates, known from its inputs
    certifies: int = 0  # recurrences the task certifies


class Inputs:
    """Fields and parsed expressions, built once per workload at set-up."""

    def __init__(self, G):
        self.G = G
        self._fields = {}
        self._exprs = {}

    def field(self, name):
        if name not in self._fields:
            self._fields[name] = self.G.make_field(*FIELDS[name])
        return self._fields[name]

    def expr(self, text):
        if text not in self._exprs:
            self._exprs[text] = self.G.parse(text)
        return self._exprs[text]

    def family(self, family, k=None, fname=None):
        return self.G.family_poly(family, k=k, field=None if fname is None else self.field(fname))

    def poly(self, coeffs):
        return self.G.IntPolynomial(list(coeffs))


def _paper(gate, G, seq, poly, what):
    gate.require(G.satisfies(seq, poly), "%s: paper polynomial %s" % (what, poly.coeffs))


# ---------------------------------------------------------------------------
# enumerate: brute sums over a fixed list, F_2, odd prime and extension fields

ENUMERATE = {
    "full": {
        "seqs": [
            ("R(2,3)", "2", 3, 26, ("P_K", 3)),
            ("tau(5)", "2", 5, 24, ("P_K", 5)),
            ("tau(4)", "3", 4, 13, ("Q_TRAP", 4)),
            ("sigma(3)", "3", 3, 11, None),  # 9 terms: too few for the degree-9 mu
            ("R(2,3)", "3", 3, 12, ("C7", None)),
            ("tau(3)", "5", 3, 9, ("Q_TRAP", 3)),
            ("tau(3)", "4", 3, 10, ("Q_TRAP", 3)),
            ("tau(3)", "8", 3, 7, ("Q_TRAP", 3)),
            ("tau(3)", "9", 3, 7, ("Q_TRAP", 3)),
        ],
        "joint": ("3", 12),
    },
    "smoke": {
        "seqs": [
            ("R(2,3)", "2", 3, 14, ("P_K", 3)),
            ("tau(5)", "2", 5, 14, ("P_K", 5)),
            ("tau(4)", "3", 4, 8, ("Q_TRAP", 4)),
            ("sigma(3)", "3", 3, 7, None),
            ("R(2,3)", "3", 3, 9, ("C7", None)),
            ("tau(3)", "5", 3, 6, ("Q_TRAP", 3)),
            ("tau(3)", "4", 3, 6, ("Q_TRAP", 3)),
            ("tau(3)", "8", 3, 6, ("Q_TRAP", 3)),
            ("tau(3)", "9", 3, 6, ("Q_TRAP", 3)),
        ],
        "joint": ("3", 8),
    },
}


def _paper_poly(inp, spec, fname):
    family, k = spec
    if family == "C7":
        return inp.poly(C7_POLY6)
    if family == "C8":
        return inp.poly(C8_MU)
    return inp.family(family, k=k, fname=fname if family in ("Q_TRAP", "ROT2", "QUADSYM") else None)


def _enumerate_tasks(inp, size):
    G = inp.G
    spec = ENUMERATE[size]
    tasks = []
    for text, fname, lo, hi, paper in spec["seqs"]:
        e, f = inp.expr(text), inp.field(fname)
        key = "enumerate/%s/F%s/%d..%d" % (text, fname, lo, hi)
        poly = None if paper is None else _paper_poly(inp, paper, fname)

        def run(e=e, f=f, lo=lo, hi=hi):
            return {"sums": inp.G.sum_sequence(e, f, range(lo, hi + 1))}

        def check(out, gate, with_paper, key=key, poly=poly):
            gate.check(key, out["sums"])
            if with_paper and poly is not None:
                _paper(gate, G, out["sums"], poly, key)

        points = sum(f.q**n for n in range(lo, hi + 1))
        tasks.append(Task(key, run, check, points=points))

    fname, n = spec["joint"]
    f = inp.field(fname)
    exprs = [inp.expr("tau(%d)" % k) for k in (2, 3, 4)]
    key = "enumerate/joint[tau(2),tau(3),tau(4)]/F%s/%d" % (fname, n)

    def run_joint():
        funcs = [inp.G.instantiate(e, n, f) for e in exprs]
        return {"counts": inp.G.joint_counts(funcs)}

    def check_joint(out, gate, _with_paper):
        gate.check(key, out["counts"])

    tasks.append(Task(key, run_joint, check_joint, points=f.q**n))
    return tasks


# ---------------------------------------------------------------------------
# derive: build, step, annihilate, certify, discover and extend

DERIVE = {
    "full": {
        "systems": [
            ("tau(4)", "3", ("Q_TRAP", 4)),
            ("sigma(3)", "3", ("C8", None)),
            ("sigma(3)", "4", None),
            ("sigma(2)", "5", ("QUADSYM", None)),
            ("R(2)", "5", ("ROT2", None)),
            ("R(2,4)", "2", ("Q_K", 4)),
            ("R(2,3)+R(2)", "2", ("MIX1", 3)),
            ("T(2,4)", "3", None),
            ("R(2,3)", "3", ("C7", None)),
        ],
        "terms": 60,
        "extend_to": 2000,
    },
    "smoke": {
        "systems": [
            ("tau(4)", "3", ("Q_TRAP", 4)),
            ("sigma(2)", "5", ("QUADSYM", None)),
            ("R(2,3)+R(2)", "2", ("MIX1", 3)),
        ],
        "terms": 30,
        "extend_to": 200,
    },
}

OVERLAP_POINTS = 20000  # brute cross-check of transfer values up to this many points per n


def _derive_tasks(inp, size):
    G = inp.G
    spec = DERIVE[size]
    tasks = []
    for text, fname, paper in spec["systems"]:
        e, f = inp.expr(text), inp.field(fname)
        terms, extend_to = spec["terms"], spec["extend_to"]
        key = "derive/%s/F%s/%d/%d" % (text, fname, terms, extend_to)
        poly = None if paper is None else _paper_poly(inp, paper, fname)

        def run(e=e, f=f, terms=terms, extend_to=extend_to):
            G = inp.G
            sys_ = G.system_for(e, f)
            seq = G.run(sys_, sys_.n_min + terms - 1)
            ann = G.integer_annihilator(sys_)
            certified = G.satisfies(seq, ann)
            found = G.discover(seq, max_order=ann.degree)
            longer = G.extend(seq, ann, extend_to)
            hi = sys_.n_min
            while f.q ** (hi + 1) <= OVERLAP_POINTS:
                hi += 1
            brute = G.sum_sequence(e, f, range(sys_.n_min, hi + 1))
            return {
                "dim": sys_.dim,
                "run": seq,
                "annihilator": ann,
                "certified": certified,
                "discovered": found,
                "extended": longer,
                "brute": brute,
            }

        def check(out, gate, with_paper, key=key, poly=poly):
            gate.require(out["certified"], "%s: annihilator does not annihilate the run" % key)
            brute = out["brute"]
            gate.require(
                out["run"].values[: len(brute)] == brute.values,
                "%s: brute and transfer disagree on n=%d..%d"
                % (key, brute.n_min, brute.n_end - 1),
            )
            for name in ("dim", "run", "annihilator", "discovered", "extended"):
                gate.check("%s/%s" % (key, name), out[name])
            if with_paper and poly is not None:
                _paper(gate, G, out["run"], poly, key)

        tasks.append(Task(key, run, check, certifies=1))
    return tasks


# ---------------------------------------------------------------------------
# sequence: long exact runs and big-integer extension, no annihilator

SEQUENCE = {
    "full": {
        "runs": [("R(2,3,4)", "3", 10, None), ("R(2,3)", "5", 10, None), ("R(2,5)", "2", 40, ("Q_K", 4))],
        "extends": [
            ("tau(3)", "5", 3, ("Q_TRAP", 3)),
            ("sigma(2)", "5", 2, ("QUADSYM", None)),
            ("R(2)", "3", 3, ("ROT2", None)),
        ],
        "extend_to": 10000,
    },
    "smoke": {
        "runs": [("R(2,3)", "3", 10, ("C7", None)), ("R(2,4)", "2", 10, ("Q_K", 4))],
        "extends": [
            ("tau(3)", "5", 3, ("Q_TRAP", 3)),
            ("sigma(2)", "5", 2, ("QUADSYM", None)),
            ("R(2)", "3", 3, ("ROT2", None)),
        ],
        "extend_to": 500,
    },
}

INIT_POINTS = 100000  # brute enumeration (initial terms, checks) up to this many points per n


def _sequence_tasks(inp, size):
    G = inp.G
    spec = SEQUENCE[size]
    tasks = []
    for text, fname, steps, paper in spec["runs"]:
        e, f = inp.expr(text), inp.field(fname)
        key = "sequence/run/%s/F%s/%d" % (text, fname, steps)
        poly = None if paper is None else _paper_poly(inp, paper, fname)

        def run(e=e, f=f, steps=steps):
            sys_ = inp.G.system_for(e, f)
            return {"values": inp.G.run(sys_, sys_.n_min + steps)}

        def check(out, gate, with_paper, key=key, poly=poly):
            gate.check(key, out["values"])
            if with_paper and poly is not None:
                _paper(gate, G, out["values"], poly, key)

        tasks.append(Task(key, run, check))

    n_target = spec["extend_to"]
    for text, fname, start, paper in spec["extends"]:
        e, f = inp.expr(text), inp.field(fname)
        poly = _paper_poly(inp, paper, fname)
        key = "sequence/extend/%s/F%s/%d" % (text, fname, n_target)
        need_end = start + poly.degree  # initial window start .. need_end - 1
        check_end = start
        while f.q**check_end <= INIT_POINTS:
            check_end += 1

        def run(e=e, f=f, poly=poly, start=start, need_end=need_end, check_end=check_end):
            G = inp.G
            if need_end <= check_end:
                init = G.sum_sequence(e, f, range(start, need_end))
            else:
                # brute enumeration of the last terms would take minutes, so
                # the transfer system supplies all of them; the check
                # compares the result with brute where brute is cheap
                sys_ = G.system_for(e, f)
                full = G.run(sys_, need_end - 1)
                init = G.Sequence(start, full.values[start - full.n_min :], "transfer")
            return {"extended": G.extend(init, poly, n_target)}

        def check(out, gate, with_paper, key=key, e=e, f=f, poly=poly, start=start, check_end=check_end):
            ext = out["extended"]
            gate.check(key, ext)
            if with_paper:
                brute = G.sum_sequence(e, f, range(start, check_end))
                gate.require(
                    ext.values[: len(brute)] == brute.values,
                    "%s: extension disagrees with brute on n=%d..%d" % (key, start, check_end - 1),
                )
                _paper(gate, G, ext, poly, key)

        tasks.append(Task(key, run, check))
    return tasks


# ---------------------------------------------------------------------------
# cli-session: short in-process requests drawn from the README subcommands

def _q_trap(k, q):
    """Q_TRAP(k, q) coefficients, as the CLI takes them."""
    coeffs = [-q * (q - 1) ** (k - 2 - d) for d in range(k - 1)] + [0, 1]
    return ",".join(str(c) for c in coeffs)


def _n_hi(q, lo, points, at_least):
    hi = lo
    while q ** (hi + 1) <= points:
        hi += 1
    return max(hi, lo + at_least)


BRUTE_FAMILIES = ("tau(2)", "tau(3)", "tau(4)", "sigma(2)", "sigma(3)", "R(2)", "R(2,3)", "T(2,4)", "R(2,3)+R(2)")
MIN_N = {"tau(2)": 2, "tau(3)": 3, "tau(4)": 4, "sigma(2)": 2, "sigma(3)": 3, "R(2)": 2,
         "R(2,3)": 3, "R(2,4)": 4, "T(2,4)": 4, "R(2,3)+R(2)": 3}
# (expression, field) -> first index of its transfer system, for requests
# that must start there; rotations start later than their family minimum
TRANSFER_START = {
    ("tau(2)", "3"): 2, ("tau(3)", "2"): 3, ("tau(3)", "4"): 3, ("tau(3)", "5"): 3,
    ("tau(4)", "2"): 4, ("tau(4)", "3"): 4, ("sigma(2)", "3"): 2, ("sigma(2)", "5"): 2,
    ("sigma(2)", "9"): 2, ("sigma(3)", "2"): 3, ("sigma(3)", "3"): 3, ("T(2,4)", "2"): 4,
    ("R(2)", "2"): 3, ("R(2)", "3"): 3, ("R(2)", "4"): 3, ("R(2,3)", "2"): 6,
    ("R(2,3)+R(2)", "2"): 6,
}
# the families on which `discover --method transfer` without --n-min is refused
ROTATIONS = ("R(2)", "R(2,3)", "R(2,3)+R(2)")


def cli_pool():
    """Every request the cli-session draw can pick, one kind per README example.

    README.md's usage block shows one example of each of `expsum`, `verify`,
    `discover`, `annihilator`, `conjecture`, `numtheory gauss-sum`,
    `numtheory eisenstein`, `bench` and `accept --profile quick`.  Each of
    the first eight is a request kind with equal weight (SLOTS requests per
    pass); a kind's variants are its example's form over the family/field
    grid at small n.  Returns {kind: [argv, ...]}.  The weights are a
    synthetic choice: there is no usage data behind them.
    """
    pool = {}

    # expsum: the example is a brute sum; the transfer method is the other way
    # to ask for the same values
    v = []
    for text in BRUTE_FAMILIES:
        for fname in ("2", "3", "4", "5", "8", "9"):
            q = int(fname)
            lo = MIN_N[text]
            v.append(["expsum", "--expr", text, "--field", fname, "--n", "%d..%d" % (lo, _n_hi(q, lo, 4096, 1))])
    v += [["expsum", "--expr", t, "--field", f, "--n", "%d..%d" % (lo, lo + 8), "--method", "transfer"]
          for (t, f), lo in sorted(TRANSFER_START.items())]
    pool["expsum"] = v

    v = []
    for k in (2, 3, 4):
        for fname in ("2", "3", "4", "5", "8", "9"):
            q = int(fname)
            if q ** (2 * k) <= 70000:  # k + 1 terms at least, at small n
                v.append(["verify", "--expr", "tau(%d)" % k, "--field", fname, "--poly=%s" % _q_trap(k, q),
                          "--n-max", str(max(_n_hi(q, k, 20000, 0), 2 * k))])
            v.append(["verify", "--expr", "tau(%d)" % k, "--field", fname,
                      "--poly=%s" % _q_trap(k, q), "--n-max", str(k + 12), "--method", "transfer"])
    v.append(["verify", "--expr", "R(2)", "--field", "3", "--poly=-9,0,0,0,1", "--n-min", "3", "--n-max", "9"])
    v.append(["verify", "--expr", "R(2,3)", "--field", "2", "--poly=-2,-2,0,1", "--n-max", "12"])
    v.append(["verify", "--expr", "sigma(2)", "--field", "3", "--poly=27,0,0,0,0,0,1", "--n-max", "9"])
    pool["verify"] = v

    # discover --method transfer, as in the example.  On rotations this form
    # is refused with exit 2: the range defaults to the family minimum, not
    # the system's first index.
    v = []
    for (text, fname), lo in sorted(TRANSFER_START.items()):
        if (text, fname) != ("sigma(3)", "3"):  # degree 9 > max-order
            v.append(["discover", "--expr", text, "--field", fname, "--n-max", str(lo + 20),
                      "--max-order", "6", "--method", "transfer"])
    pool["discover"] = v

    pool["annihilator"] = [["annihilator", "--expr", text, "--field", fname] for text, fname in (
        ("tau(2)", "3"), ("tau(3)", "3"), ("tau(4)", "2"), ("tau(3)", "9"), ("sigma(2)", "3"),
        ("sigma(2)", "4"), ("sigma(3)", "2"), ("sigma(3)", "3"), ("R(2)", "2"), ("R(2)", "3"),
        ("R(2,3)", "2"), ("R(2,3)+R(2)", "2"), ("T(2,4)", "2"), ("tau(4)", "4"),
    )]

    v = []
    for k in (2, 3, 4):
        for fname in ("2", "3", "4", "5"):
            v.append(["conjecture", "--which", "trapezoid", "--k", str(k), "--field", fname,
                      "--n-max", str(_n_hi(int(fname), k, 20000, 1))])
    for k in (3, 4, 5):
        v.append(["conjecture", "--which", "rotation", "--k", str(k), "--field", "2", "--n-max", "14"])
    pool["conjecture"] = v

    pool["gauss-sum"] = [["numtheory", "gauss-sum", "--p", str(p), "--a", str(a)]
                         for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31) for a in (1, 2)]
    pool["eisenstein"] = [["numtheory", "eisenstein", "--poly=%s" % _q_trap(k, q), "--p", str(q)]
                          for k in (2, 3, 4, 5, 6) for q in (2, 3, 5)]

    v = []
    for (text, fname), lo in sorted(TRANSFER_START.items()):
        q = int(fname)
        v.append(["bench", "--expr", text, "--field", fname, "--n", "%d..%d" % (lo, _n_hi(q, lo, 4096, 2))])
    pool["bench"] = v
    return pool


ACCEPT = ["accept", "--profile", "quick"]
SLOTS = 15  # requests per kind and pass: 8 kinds, 120 requests, then accept
SMOKE_SLOTS = 2  # requests per kind in the smoke size, and no accept


def cli_key(argv):
    return "cli/" + " ".join(argv)


def known_refusal(argv):
    """Whether a request is one the known `discover --method transfer` defect refuses."""
    return argv[0] == "discover" and argv[2] in ROTATIONS


def draw_requests(rng, size):
    """The seed's request list: SLOTS requests of each kind, shuffled.

    A kind with fewer variants than slots runs each of them, then draws the
    rest without repeats, so every pass does about the same work.  Known
    refusals and the other variants are drawn apart, in proportion, so that
    every pass holds the same number of refusals whatever the seed.
    """
    n = SLOTS if size == "full" else SMOKE_SLOTS
    picked = []
    for variants in cli_pool().values():
        picked.extend(variants * (n // len(variants)))
        rest = n % len(variants)
        refused = [v for v in variants if known_refusal(v)]
        others = [v for v in variants if not known_refusal(v)]
        k = round(rest * len(refused) / len(variants))
        picked.extend(rng.sample(refused, k) + rng.sample(others, rest - k))
    rng.shuffle(picked)
    if size == "full":
        picked.append(ACCEPT)
    return picked


def canonical_payload(argv, stdout):
    """The payload part of a CLI record that must be byte-stable.

    `accept` items carry `millis` inside the payload, a timing, so only
    their exact fields are compared.
    """
    record = json.loads(stdout)
    payload = record["payload"]
    if argv[0] == "accept":
        payload = [[i["id"], i["status"], i["expected"], i["got"]] for i in payload]
    return json.dumps([record["command"]["name"], payload], sort_keys=True)


def cli_outcome(argv, code, stdout, stderr):
    """What the gate compares for one request: exit code plus payload or message."""
    if code == 0:
        return "exit=0\n" + canonical_payload(argv, stdout)
    return "exit=%d\n%s" % (code, stderr)


def call_cli(G, argv):
    """One in-process CLI request: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = G.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _cli_tasks(inp, size, rng):
    tasks = []
    for argv in draw_requests(rng, size):
        key = cli_key(argv)

        def run(argv=argv):
            code, stdout, stderr = call_cli(inp.G, argv)
            return {"code": code, "stdout": stdout, "stderr": stderr}

        def check(out, gate, _with_paper, key=key, argv=argv):
            outcome = cli_outcome(argv, out["code"], out["stdout"], out["stderr"])
            gate.check(key, outcome, also=key + "#fixed")

        tasks.append(Task(key, run, check))
    return tasks


# ---------------------------------------------------------------------------

def prepare(G, workload, size, seed):
    """Build the inputs and the ordered task list of one workload."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % (workload,))
    if size not in SIZES:
        raise ValueError("unknown size %r" % (size,))
    rng = random.Random("%s/%s/%d" % (workload, size, seed))
    inp = Inputs(G)
    if workload == "cli-session":
        return _cli_tasks(inp, size, rng)
    build = {"enumerate": _enumerate_tasks, "derive": _derive_tasks, "sequence": _sequence_tasks}
    tasks = build[workload](inp, size)
    rng.shuffle(tasks)
    return tasks

