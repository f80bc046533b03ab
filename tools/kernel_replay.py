"""Replay the enumeration kernels' calls: time each one, or diff their sizes.

    python3 tools/kernel_replay.py run --out replay.json [--best-of 7]
    python3 tools/kernel_replay.py compare PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]
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
best of k in this process, and writes the time the run started and one
record per call: its group (the workload, `larger` or `multi-row`), a
description and digest of its inputs, the block digits m it ran with and
its best time in seconds.

`compare` reads one or more pairs of such files, each pair a parent run
and a change run made in two checkouts on one host, and matches their
calls by group and inputs, the k-th such call of one run with the k-th of
the others.  A single pair of runs is dominated by the host's noise, and
runs that always start with the same checkout are biased by the order, so
several pairs must alternate: by their recorded start times, the two runs
of each pair follow each other, and the checkout that runs first changes
from one pair to the next.  It prints, for each call that every run made,
its median times and the median of its ratios (change over parent), the
calls that not every run made, then for each group the median over the
pairs of the ratio of its totals, with their min-max spread, and the
group's worst call, and the worst call overall.

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
import statistics
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
    started = time.time()
    gfrec, oracle = _import()
    records = []
    for group, funcs, traced, lo, s in _record(gfrec, oracle)[0]:
        text, digest = _describe(funcs, traced, lo, s)
        seconds, m = _time(oracle, funcs, traced, lo, s, best_of)
        records.append({"group": group, "call": text, "digest": digest, "m": m, "s": seconds})
    Path(out).write_text(json.dumps({"started": started, "best_of": best_of, "calls": records}, indent=1) + "\n")
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


def _alternation_fault(pairs):
    """Why the (parent, change) runs do not alternate, or None when they do."""
    if len(pairs) == 1:
        return None
    missing = [name for pair in pairs for name, run in pair if "started" not in run]
    if missing:
        return "%s records no start time" % missing[0]
    order = sorted((run["started"], i, side) for i, pair in enumerate(pairs) for side, (_name, run) in enumerate(pair))
    firsts = []
    for (_t0, i, side), (_t1, j, _side) in zip(order[::2], order[1::2]):
        if i != j:
            return "the runs of pairs %d and %d are interleaved" % (i + 1, j + 1)
        firsts.append(side)
    for a, b in zip(firsts, firsts[1:]):
        if a == b:
            return "the %s ran first in two pairs in a row" % ("parent", "change")[a]
    return None


def compare(files):
    """Compare (parent, change) pairs of `run` files; see the module docstring."""
    if len(files) % 2:
        sys.exit("compare takes pairs of files: parent, change, parent, change, ...")
    runs = [(name, json.loads(Path(name).read_text())) for name in files]
    pairs = list(zip(runs[::2], runs[1::2]))
    fault = _alternation_fault(pairs)
    if fault:
        sys.exit("the pairs must alternate: %s" % fault)
    keyed = [_keyed(run["calls"]) for _name, run in runs]
    common = [k for k in keyed[0] if all(k in calls for calls in keyed)]
    groups = {}
    for i, key in enumerate(common):
        times = [[calls[key]["s"] for calls in keyed[side::2]] for side in (0, 1)]
        ratio = statistics.median(b / a for a, b in zip(*times))
        x, y = keyed[0][key], keyed[1][key]
        groups.setdefault(x["group"], []).append((ratio, i, key))
        print("%-12s #%-3d %-58s m %s -> %s  %8.3f -> %8.3f ms  %.2fx" % (
            x["group"], i, x["call"], x["m"], y["m"],
            statistics.median(times[0]) * 1e3, statistics.median(times[1]) * 1e3, ratio))
    print()
    for (name, _run), calls in zip(runs, keyed):
        for key in calls:
            if key not in common:
                print("only in some runs: %s %-12s %s  %.3f ms" % (name, key[0], calls[key]["call"], calls[key]["s"] * 1e3))
    worst_all = None
    for group, rows in groups.items():
        totals = [sum(calls[key]["s"] for _r, _i, key in rows) for calls in keyed]
        ratios = [b / a for a, b in zip(totals[::2], totals[1::2])]
        worst = max(rows, key=lambda row: row[0])
        worst_all = max(worst_all or worst, worst, key=lambda row: row[0])
        print("%-12s %4d calls  total %9.3f -> %9.3f ms  %.3fx (%.3f-%.3fx over %d pairs)  worst #%d %.2fx" % (
            group, len(rows), statistics.median(totals[::2]) * 1e3, statistics.median(totals[1::2]) * 1e3,
            statistics.median(ratios), min(ratios), max(ratios), len(ratios), worst[1], worst[0]))
    ratio, i, key = worst_all
    print("worst call: %s #%d %s  %.2fx" % (key[0], i, keyed[0][key]["call"], ratio))


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
    p_cmp = sub.add_parser("compare", help="compare alternated (parent, change) pairs of runs, call by call")
    p_cmp.add_argument("files", nargs="+", metavar="PARENT CHANGE")
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
        compare(args.files)


if __name__ == "__main__":
    main()
