#!/usr/bin/env python3
"""Self-check of the benchmark, in seconds.

    python3 perfbench/selfcheck.py

1. Every workload's smoke size runs and passes the golden gate, untraced
   and traced, and the traced pass yields exactly the per-layer metrics
   BENCHMARK.json lists.
2. The gate trips when one golden digest of each workload is corrupted.
3. `run.py --size smoke` prints a final line in the required form.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys

import gate as gatemod
import run
import tracing
import workloads


def fail(message):
    print("selfcheck FAILED: %s" % message, file=sys.stderr)
    sys.exit(1)


def main():
    e2e_specs, layer_specs = run.metric_specs()
    layer_names = {s["name"] for s in layer_specs}
    goldens = gatemod.load_goldens()
    for workload in workloads.WORKLOADS:
        G = run.import_package(workload)
        tasks = workloads.prepare(G, workload, "smoke", 7)
        run.run_pass(tasks, gatemod.Gate(goldens), None, True)
        tracer = tracing.Tracer()
        traced = run.run_pass(tasks, gatemod.Gate(goldens), tracer, False)
        got = set(traced["layers"]) | {"trace.overhead_s"}
        if got != layer_names:
            fail("%s: per-layer metrics differ from BENCHMARK.json: %s" % (workload, sorted(got ^ layer_names)))
        if not tracer.spans:
            fail("%s: traced pass recorded no spans" % workload)
        if hasattr(G.sum_sequence, "__wrapped__") or hasattr(G.oracle.exp_sum, "__wrapped__"):
            fail("%s: tracer wrappers left installed after the traced pass" % workload)

        # corrupt the digest of the first value the gate checks
        recorder = RecordingGate(goldens)
        run.run_pass(tasks, recorder, None, False)
        corrupted = dict(goldens)
        corrupted[recorder.first] = "0" * 64
        try:
            run.run_pass(tasks, gatemod.Gate(corrupted), None, False)
        except gatemod.WrongValue as exc:
            print("%s: smoke ok (%d tasks, %d spans); corrupted %s trips the gate: %s"
                  % (workload, len(tasks), len(tracer.spans), recorder.first, exc))
        else:
            fail("%s: corrupted digest of %s was not detected" % (workload, recorder.first))

    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "derive", "--seed", "3",
         "--seconds", "1", "--size", "smoke", "--trace", "0"],
        capture_output=True, text=True, cwd=str(run.ROOT), timeout=170, check=False,
    )
    if proc.returncode != 0:
        fail("run.py --size smoke exited %d: %s" % (proc.returncode, proc.stderr.strip()))
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(line) != {"correct", "attempted", "failed", "metrics"} or not line["correct"]:
        fail("bad result line: %s" % line)
    if set(line["metrics"]) != {s["name"] for s in e2e_specs}:
        fail("end-to-end metrics differ from BENCHMARK.json: %s" % sorted(line["metrics"]))
    print("run.py smoke line ok: %s" % sorted(line["metrics"]))
    print("selfcheck passed")


class RecordingGate(gatemod.Gate):
    """A passing gate that remembers the first key it checked."""

    first = None

    def check(self, key, value, also=None):
        super().check(key, value, also)
        if self.first is None:
            self.first = key


if __name__ == "__main__":
    main()
