#!/usr/bin/env python3
"""Regenerate perfbench/goldens.json from the package in this checkout.

    python3 perfbench/make_goldens.py

Runs every task of every workload at both sizes, and every request the
cli-session pool can draw, once, and records the digest of each value the
gate checks.  The paper-polynomial and brute-versus-transfer checks still
apply while recording.  Only regenerate when a change is meant to alter
exact values; the committed file is the reference the benchmark enforces.
"""

from __future__ import annotations

import json
import sys

import gate as gatemod
import run
import workloads


class Recorder(gatemod.Gate):
    """A gate that records digests instead of comparing them."""

    def __init__(self):
        super().__init__({})

    def check(self, key, value, also=None):
        self.goldens[key] = gatemod.digest(value)
        self.checked += 1


def cli_outcome(G, argv):
    code, stdout, stderr = workloads.call_cli(G, argv)
    return code, workloads.cli_outcome(argv, code, stdout, stderr)


def main():
    rec = Recorder()
    for workload in ("enumerate", "derive", "sequence"):
        G = run.import_package(workload)
        for size in workloads.SIZES:
            for task in workloads.prepare(G, workload, size, 0):
                task.check(task.run(), rec, True)
    G = run.import_package("cli-session")
    refused = []
    for kind, variants in workloads.cli_pool().items():
        for argv in variants:
            code, outcome = cli_outcome(G, argv)
            key = workloads.cli_key(argv)
            rec.goldens[key] = gatemod.digest(outcome)
            if kind == "discover" and argv[2] in workloads.ROTATIONS:
                # what a fixed default (the system's first index) would print
                lo = workloads.TRANSFER_START[(argv[2], argv[4])]
                fixed_code, fixed = cli_outcome(G, argv + ["--n-min", str(lo)])
                if fixed_code != 0:
                    raise SystemExit("%s --n-min %d exits %d" % (key, lo, fixed_code))
                rec.goldens[key + "#fixed"] = gatemod.digest(fixed)
            if code != 0:
                refused.append((kind, code, key))
    code, outcome = cli_outcome(G, workloads.ACCEPT)
    if code != 0:
        raise SystemExit("accept exits %d" % code)
    rec.goldens[workloads.cli_key(workloads.ACCEPT)] = gatemod.digest(outcome)
    for kind, code, key in refused:
        print("exit %d (%s): %s" % (code, kind, key), file=sys.stderr)
    with open(gatemod.GOLDENS, "w") as fh:
        json.dump(rec.goldens, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("%d digests written to %s" % (len(rec.goldens), gatemod.GOLDENS))


if __name__ == "__main__":
    main()
