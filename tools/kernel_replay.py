"""Replay the enumeration kernels' calls: time each one, or diff their sizes.

    python3 tools/kernel_replay.py run --out replay.json [--best-of 7]
    python3 tools/kernel_replay.py compare PARENT.json CHANGE.json
    python3 tools/kernel_replay.py decisions --out decisions.json
    python3 tools/kernel_replay.py diff PARENT.json CHANGE.json

`run` imports gfrec from src/ of the checkout the script lives in.  It
records the inputs (functions, traced, lo, s) of every
`oracle._BlockValues` call, the generic kernel's, that one seed-1 pass of
each benchmark workload makes (the full-size task lists of
perfbench/workloads.py, which it reads and does not edit), then those of a
fixed list of larger calls: the `sum_sequence` ranges of LARGER and the
generic multi-row line of tools/oracle_hash.py.  It then times each
recorded call, `_BlockValues(...).counts()` with an empty `_grid` memo,
best of k in this process, and writes one record per call: its group
(the workload, `larger` or `multi-row`), a description and digest of its
inputs, the block digits m it ran with and its best time in seconds.

`compare` reads two such files, made in two checkouts on one host, and
matches their calls by group and inputs, the k-th such call of one run
with the k-th of the other.  It prints, for each matched call, its two
times and their ratio (second over first), the calls that only one run
made, then each group's total over the matched calls and the worst call
of each group and overall.

`decisions` records the same calls without timing them, and writes what
each kernel chose: for each generic call the block digits m it ran with,
whether it counted the low points by key and the m it tried, in order, and
for each call of the F_2 kernel, `oracle._trace_counts_f2`, the chunk bits
that `oracle._chunk_bits` picked.  `diff` reads two such files, made in two
checkouts, matches their calls as `compare` does, and prints each call
whose decisions differ, the calls that only one run made, and for each
group its number of calls, those that chose differently and those that
only tried differently.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
# (expression, q, first n, last n) of the larger `sum_sequence` ranges
LARGER = (
    ("tau(4)", 3, 4, 14),
    ("sigma(3)", 3, 3, 13),
    ("tau(3)", 9, 3, 7),
    ("R(2,3)", 9, 3, 6),
    ("R(2,4)", 4, 4, 9),
    ("tau(2)", 7, 2, 8),
    ("sigma(4)", 3, 4, 11),
)


def _import():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]
    import gfrec
    import gfrec.cli  # noqa: F401  (the cli-session tasks call gfrec.cli.main)
    from gfrec import oracle

    return gfrec, oracle


def _digest(terms):
    return hashlib.sha256(json.dumps(terms).encode()).hexdigest()[:12]


def _describe(funcs, traced, lo, s):
    g = funcs[0]
    terms = [sorted([sorted(mono), c.index] for mono, c in f.terms.items()) for f in funcs]
    text = "q=%d n=%d funcs=%d terms=%d traced=%d lo=%d s=%d" % (
        g.field.q, g.n, len(funcs), sum(len(f.terms) for f in funcs), traced, lo, s)
    return text, _digest(terms)


def _record(gfrec, oracle):
    """([(group, funcs, traced, lo, s)] of every generic kernel call, in
    order, and [record] of the decisions of every generic and F_2 kernel
    call, in order (see `decisions`)."""
    import oracle_hash
    import workloads
    from gfrec.galois import prime_power

    calls, decisions, group, tried = [], [], [None], []
    init, try_, chunk_bits = oracle._BlockValues.__init__, oracle._BlockValues._try, oracle._chunk_bits

    def spy(self, funcs, grids, traced, lo, s):
        calls.append((group[0], list(funcs), traced, lo, s))
        tried.clear()
        init(self, funcs, grids, traced, lo, s)
        text, digest = _describe(funcs, traced, lo, s)
        decisions.append({"group": group[0], "kernel": "generic", "call": text, "digest": digest,
                          "m": self.m, "keys": bool(self.keys < self.points), "tried": list(tried)})

    def spy_try(self, terms, n, m, grids):
        tried.append(m)
        return try_(self, terms, n, m, grids)

    def spy_bits(terms, n, lo, s):
        bits = chunk_bits(terms, n, lo, s)
        text = "q=2 n=%d terms=%d lo=%d s=%d" % (n, len(terms), lo, s)
        decisions.append({"group": group[0], "kernel": "f2", "call": text, "digest": _digest(sorted(terms)), "bits": bits})
        return bits

    oracle._BlockValues.__init__, oracle._BlockValues._try, oracle._chunk_bits = spy, spy_try, spy_bits
    try:
        for name in workloads.WORKLOADS:
            group[0] = name
            for task in workloads.prepare(gfrec, name, "full", SEED):
                task.run()
        group[0] = "larger"
        for text, q, lo, hi in LARGER:
            field = gfrec.make_field(*prime_power(q))
            gfrec.sum_sequence(gfrec.parse(text), field, range(lo, hi + 1))
        group[0] = "multi-row"
        oracle_hash._multi_row_records()
    finally:
        oracle._BlockValues.__init__, oracle._BlockValues._try, oracle._chunk_bits = init, try_, chunk_bits
    return calls, decisions


def _time(oracle, funcs, traced, lo, s, best_of):
    best, m = float("inf"), None
    for _ in range(best_of):
        start = time.perf_counter()
        block = oracle._BlockValues(funcs, {}, traced, lo, s)
        block.counts()
        best = min(best, time.perf_counter() - start)
        m = block.m
    return best, m


def run(out, best_of):
    gfrec, oracle = _import()
    records = []
    for group, funcs, traced, lo, s in _record(gfrec, oracle)[0]:
        text, digest = _describe(funcs, traced, lo, s)
        seconds, m = _time(oracle, funcs, traced, lo, s, best_of)
        records.append({"group": group, "call": text, "digest": digest, "m": m, "s": seconds})
    Path(out).write_text(json.dumps({"best_of": best_of, "calls": records}, indent=1) + "\n")
    totals = {}
    for r in records:
        totals[r["group"]] = totals.get(r["group"], 0.0) + r["s"]
    for group, total in totals.items():
        print("%-12s %4d calls %9.2f ms" % (group, sum(r["group"] == group for r in records), total * 1e3))


def _keyed(calls):
    """{(group, kernel, digest, k): record} for the k-th call of each group
    and kernel with each digest."""
    seen, out = {}, {}
    for r in calls:
        name = r["group"], r.get("kernel", "generic"), r["digest"]
        k = seen[name] = seen.get(name, -1) + 1
        out[name + (k,)] = r
    return out


def compare(first, second):
    a = _keyed(json.loads(Path(first).read_text())["calls"])
    b = _keyed(json.loads(Path(second).read_text())["calls"])
    groups = {}
    for i, key in enumerate(k for k in a if k in b):
        x, y = a[key], b[key]
        ratio = y["s"] / x["s"]
        groups.setdefault(x["group"], []).append((ratio, i, x, y))
        print("%-12s #%-3d %-58s m %s -> %s  %8.3f -> %8.3f ms  %.2fx" % (
            x["group"], i, x["call"], x["m"], y["m"], x["s"] * 1e3, y["s"] * 1e3, ratio))
    print()
    for name, only in (("first", [a[k] for k in a if k not in b]), ("second", [b[k] for k in b if k not in a])):
        for r in only:
            print("only in the %s run: %-12s %s  %.3f ms" % (name, r["group"], r["call"], r["s"] * 1e3))
    worst_all = None
    for group, rows in groups.items():
        total_a = sum(x["s"] for _r, _i, x, _y in rows)
        total_b = sum(y["s"] for _r, _i, _x, y in rows)
        worst = max(rows, key=lambda row: row[0])
        worst_all = max(worst_all or worst, worst, key=lambda row: row[0])
        print("%-12s %4d calls  total %9.3f -> %9.3f ms  %.3fx  worst #%d %.2fx" % (
            group, len(rows), total_a * 1e3, total_b * 1e3, total_b / total_a, worst[1], worst[0]))
    ratio, i, x, _y = worst_all
    print("worst call: %s #%d %s  %.2fx" % (x["group"], i, x["call"], ratio))


def decisions(out):
    gfrec, oracle = _import()
    records = _record(gfrec, oracle)[1]
    Path(out).write_text(json.dumps({"calls": records}, indent=1) + "\n")
    counts = {}
    for r in records:
        counts[r["group"], r["kernel"]] = counts.get((r["group"], r["kernel"]), 0) + 1
    for (group, kernel), count in counts.items():
        print("%-12s %-8s %4d calls" % (group, kernel, count))


_CHOICES = ("m", "keys", "bits")


def diff(first, second):
    a = _keyed(json.loads(Path(first).read_text())["calls"])
    b = _keyed(json.loads(Path(second).read_text())["calls"])
    groups = {}
    for i, key in enumerate(k for k in a if k in b):
        x, y = a[key], b[key]
        tally = groups.setdefault(key[:2], [0, 0, 0])
        tally[0] += 1
        chose = any(x.get(f) != y.get(f) for f in _CHOICES)
        if chose or x.get("tried") != y.get("tried"):
            tally[1 if chose else 2] += 1
            changes = ["%s %s -> %s" % (f, x[f], y[f]) for f in _CHOICES + ("tried",) if f in x and x[f] != y[f]]
            print("%-12s %-8s #%-4d %-58s %s" % (key[0], key[1], i, x["call"], ", ".join(changes)))
    print()
    for name, only in (("first", [a[k] for k in a if k not in b]), ("second", [b[k] for k in b if k not in a])):
        for r in only:
            print("only in the %s run: %-12s %s" % (name, r["group"], r["call"]))
    for (group, kernel), (calls, chose, tried) in groups.items():
        print("%-12s %-8s %4d calls  %3d chose differently  %3d only tried differently" % (group, kernel, calls, chose, tried))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run", help="record and time the calls in this checkout")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--best-of", type=int, default=7)
    p_cmp = sub.add_parser("compare", help="compare two runs, call by call")
    p_cmp.add_argument("first")
    p_cmp.add_argument("second")
    p_dec = sub.add_parser("decisions", help="record the sizes each kernel call chose in this checkout")
    p_dec.add_argument("--out", required=True)
    p_diff = sub.add_parser("diff", help="print the calls whose decisions differ between two records")
    p_diff.add_argument("first")
    p_diff.add_argument("second")
    args = parser.parse_args(argv)
    if args.cmd == "run":
        run(args.out, args.best_of)
    elif args.cmd == "decisions":
        decisions(args.out)
    elif args.cmd == "diff":
        diff(args.first, args.second)
    else:
        compare(args.first, args.second)


if __name__ == "__main__":
    main()
