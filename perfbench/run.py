#!/usr/bin/env python3
"""Run one gfrec benchmark workload and print its metrics.

    python3 perfbench/run.py --workload derive --seed 1 --seconds 25 --trace 0

Run from the repository root.  The package is imported from `src/` of the
same checkout.  With `--trace 0` the last line of standard output is a JSON
object with the end-to-end metrics listed in BENCHMARK.json; with
`--trace 1` it carries the per-layer metrics and the tracing overhead.
Lines before it give every end-to-end metric of the workload by name and
unit, and the provenance.  A wrong value ends the run with exit code 1
and no result line; a missing package or golden file with exit code 2.  Full results (and, when
traced, every span) are written under perfbench/out/.

See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import gate as gatemod
import tracing
import workloads

SETUP_PROBES = 11
MIN_PASSES = 2

# Set-up calibration: each set-up probe also imports a generated package of
# REF_FILES modules of plain class and function definitions (the same kind
# of work as importing gfrec: many small files, but code the package cannot
# change) and times the calibration loop below.  `setup_s` rescales each
# probe's set-up time by the geometric mean of the two, to a host on which
# the import takes REF_NOMINAL_S and the loop CAL_NOMINAL_S.  Neither alone
# follows the host as well: file access and interpreter speed drift apart.
REF_PACKAGE = "perfbench_import_ref"
REF_DIR = OUT / "import_ref"
REF_FILES = 24
REF_NOMINAL_S = 0.009

# Host-speed calibration: a fixed pure-Python loop that shares no code with
# the package, timed between tasks.  `wall_cal_s` rescales each pass to a
# host on which the loop takes CAL_NOMINAL_S.
CAL_ITERS = 200000
CAL_REPEATS = 3
CAL_NOMINAL_S = 0.016
CAL_EVERY_S = 0.5  # task time between calibration samples


class SetupError(Exception):
    """The checkout lacks the package or a benchmark file."""


def import_package(workload):
    """Import gfrec from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import gfrec
    except ImportError as exc:
        raise SetupError("cannot import gfrec from %s: %s" % (src, exc)) from None
    if not Path(gfrec.__file__).resolve().is_relative_to(src):
        raise SetupError("gfrec was imported from %s, not from %s" % (gfrec.__file__, src))
    if workload == "cli-session":
        import gfrec.cli  # noqa: F401
    return gfrec


def write_import_ref():
    """Write the reference package for the set-up calibration, where it differs."""
    block = ("class C%d:\n    __slots__ = ('a', 'b')\n\n    def __init__(self, a, b):\n"
             "        self.a = a\n        self.b = b\n\n    def f(self, x):\n"
             "        return (self.a * x + self.b) %% %d\n\n\nT%d = tuple(range(20))\n")
    files = {"__init__.py": "".join("from . import m%d\n" % m for m in range(REF_FILES))}
    for m in range(REF_FILES):
        files["m%d.py" % m] = "\n\n".join(block % (i, 1009 + i, i) for i in range(12 * m, 12 * m + 12))
    pkg = REF_DIR / REF_PACKAGE
    pkg.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        path = pkg / name
        if not path.exists() or path.read_text() != text:
            path.write_text(text)


def setup_probe(workload, seed):
    """In a fresh process: time the reference import, the set-up and the loop.

    numpy is imported first and not timed: it is a dependency whose import
    time the package does not control, and it swings by up to 1.7x from
    minute to minute on a busy host.  The standard-library modules this
    script uses are loaded too.  The set-up is importing the package and
    building the workload's fields and parsed inputs.
    """
    import numpy  # noqa: F401

    sys.path.insert(0, str(REF_DIR))
    t0 = time.perf_counter()
    importlib.import_module(REF_PACKAGE)
    t1 = time.perf_counter()
    G = import_package(workload)
    workloads.prepare(G, workload, "full", seed)
    t2 = time.perf_counter()
    return t2 - t1, t1 - t0, calibrate()


class SetupTimer:
    """Set-up time measured in fresh processes, one probe at a time.

    The probes are spread over the run (one before the passes, one after
    each pass, the rest at the end), so their median does not rest on a
    single moment of a machine whose speed drifts.  Probes may write
    bytecode caches (inside the checkout), as an installed package has
    them; a first probe, not counted, writes them and warms the file cache.
    """

    def __init__(self, workload, seed):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                     "--workload", workload, "--seed", str(seed)]
        self.probes = []  # (set-up, reference import, calibration loop) in s
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        write_import_ref()
        self._run()

    def _run(self):
        proc = subprocess.run(self.argv, capture_output=True, text=True, cwd=str(ROOT),
                              env=self.env, timeout=120, check=False)
        if proc.returncode != 0:
            raise SetupError("set-up probe failed: %s" % proc.stderr.strip())
        return tuple(float(v) for v in proc.stdout.split()[-3:])

    def probe(self):
        self.probes.append(self._run())

    def metrics(self):
        while len(self.probes) < SETUP_PROBES:
            self.probe()
        nominal = math.sqrt(REF_NOMINAL_S * CAL_NOMINAL_S)
        return {
            "setup_s": statistics.median(s * nominal / math.sqrt(r * c) for s, r, c in self.probes),
            "setup_raw_s": statistics.median(s for s, _r, _c in self.probes),
            "import_ref_s": statistics.median(r for _s, r, _c in self.probes),
            "setup_calibration_s": statistics.median(c for _s, _r, c in self.probes),
        }


def calibrate():
    """Seconds the calibration loop takes now.

    The fastest of CAL_REPEATS back-to-back runs, so that one preemption of
    the process is not read as a slow host.
    """
    best = math.inf
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_ITERS):
            acc = (acc * 31 + i) % 1000003
        best = min(best, time.perf_counter() - t0)
    return best


def run_pass(tasks, gate, tracer, with_paper):
    """Run every task once, in order; check each output outside the timing.

    The calibration loop runs before the first task and after every
    CAL_EVERY_S of task time, outside the task timings.
    """
    first_span = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.install()
    times, failed, payload_bytes, cal, since_cal = [], 0, 0, [calibrate()], 0.0
    try:
        for task in tasks:
            if tracer:
                tracer.task = task.key
            t0 = time.perf_counter()
            try:
                out = task.run()
            except Exception as exc:
                raise gatemod.WrongValue("%s raised %s: %s" % (task.key, type(exc).__name__, exc)) from exc
            times.append(time.perf_counter() - t0)
            failed += out.get("code", 0) != 0
            payload_bytes += len(out.get("stdout", "").encode())
            with tracer.paused() if tracer else nullcontext():
                task.check(out, gate, with_paper)
            del out
            since_cal += times[-1]
            if since_cal >= CAL_EVERY_S or task is tasks[-1]:
                cal.append(calibrate())
                since_cal = 0.0
    finally:
        if tracer:
            tracer.uninstall()
    layers = tracer.metrics(tracer.spans[first_span:]) if tracer else None
    if layers is not None:
        layers["cli.payload_bytes"] = payload_bytes
    return {"wall": sum(times), "times": times, "failed": failed, "layers": layers,
            "cal": statistics.median(cal)}


def pass_count(workload, seconds):
    """Passes that fill `seconds` at the workload's typical pass time.

    The count depends on `seconds` only, not on how fast the host is right
    now, so `attempted` and `failed` are the same in every run.
    """
    return max(MIN_PASSES, int(seconds / workloads.PASS_S[workload]))


def measure(tasks, gate, n_passes, trace, after_pass=None):
    """Closed loop over `n_passes` passes.

    With tracing, passes alternate untraced and traced, so the overhead is
    measured on the same inputs in the same process.
    """
    tracer = tracing.Tracer() if trace else None
    passes = []
    while len(passes) < n_passes:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(tasks, gate, tracer if traced else None, with_paper=not passes))
        passes[-1]["traced"] = traced
        if after_pass:
            after_pass()
    return passes, tracer


def percentile(values, q):
    """Nearest-rank percentile and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def calibrated(p):
    """A pass's time on a host on which the calibration loop takes CAL_NOMINAL_S."""
    return p["wall"] * CAL_NOMINAL_S / p["cal"]


def end_to_end(workload, tasks, passes, setup):
    timed = [p for p in passes if not p["traced"]]
    wall = statistics.median(p["wall"] for p in timed)
    m = dict(setup)
    m.update({
        "wall_s": wall,
        "wall_cal_s": statistics.median(calibrated(p) for p in timed),
        "calibration_s": statistics.median(p["cal"] for p in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    attempted = sum(len(p["times"]) for p in timed)
    m["fail_ratio"] = sum(p["failed"] for p in timed) / attempted
    extra = {}
    if workload == "enumerate":
        extra["points_per_s"] = sum(t.points for t in tasks) / wall
    elif workload == "derive":
        extra["recurrences_per_min"] = 60.0 * sum(t.certifies for t in tasks) / wall
    elif workload == "cli-session":
        latencies = [t for p in timed for t in p["times"]]
        extra["requests_per_s"] = len(tasks) / wall
        extra["request_p50_s"] = statistics.median(latencies)
        extra["request_p90_s"], beyond = percentile(latencies, 0.9)
        extra["request_samples"] = len(latencies)
        extra["request_p90_beyond"] = beyond
    m.update(extra)
    return m


UNITS = {
    "setup_s": "s", "setup_raw_s": "s", "import_ref_s": "s", "setup_calibration_s": "s",
    "wall_s": "s", "wall_cal_s": "s", "calibration_s": "s",
    "peak_rss_mb": "MB", "fail_ratio": "ratio",
    "points_per_s": "1/s", "recurrences_per_min": "1/min", "requests_per_s": "1/s",
    "request_p50_s": "s", "request_p90_s": "s", "request_samples": "count",
    "request_p90_beyond": "count",
}


def provenance(args, G):
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "gfrec": G.__version__, "commit": commit,
    }


def metric_specs():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def result_line(correct, attempted, failed, specs, values):
    metrics = {}
    for s in specs:
        if s["name"] not in values:
            raise KeyError("metric %s was not computed" % s["name"])
        metrics[s["name"]] = {"value": values[s["name"]], "unit": s["unit"]}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def write_out(name, data):
    OUT.mkdir(exist_ok=True)
    with open(OUT / name, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="smoke is a seconds-long version of the workload, for self-checks")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        if args.setup_probe:
            print("%r %r %r" % setup_probe(args.workload, args.seed))
            return 0
        e2e_specs, layer_specs = metric_specs()
        goldens = gatemod.load_goldens()
        G = import_package(args.workload)
    except (SetupError, OSError, ValueError) as exc:
        print("benchmark set-up failed: %s" % exc, file=sys.stderr)
        return 2

    info = provenance(args, G)
    tag = "%s-%s-seed%d-trace%d" % (args.workload, args.size, args.seed, args.trace)
    gate = gatemod.Gate(goldens)
    try:
        setup = None if args.trace else SetupTimer(args.workload, args.seed)
        if setup:
            setup.probe()
        tasks = workloads.prepare(G, args.workload, args.size, args.seed)
        if args.size == "full":  # warm caches and lazy set-up on the smoke size
            run_pass(workloads.prepare(G, args.workload, "smoke", args.seed), gate, None, True)
        passes, tracer = measure(tasks, gate, pass_count(args.workload, args.seconds), bool(args.trace),
                                 after_pass=setup.probe if setup else None)
        setup_m = setup.metrics() if setup else None
    except gatemod.WrongValue as exc:
        print("wrong value: %s" % exc, file=sys.stderr)
        return 1
    except SetupError as exc:
        print("benchmark set-up failed: %s" % exc, file=sys.stderr)
        return 2

    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    record = {"provenance": info, "attempted": attempted, "failed": failed,
              "checked_values": gate.checked,
              "passes": [{"traced": p["traced"], "wall_s": p["wall"], "calibration_s": p["cal"],
                          "failed": p["failed"]} for p in passes]}
    print("# provenance " + json.dumps(info, sort_keys=True))
    if args.trace:
        traced = [p["layers"] for p in passes if p["traced"]]
        values = tracing.median_metrics(traced)
        values["trace.overhead_s"] = (
            statistics.median(calibrated(p) for p in passes if p["traced"])
            - statistics.median(calibrated(p) for p in passes if not p["traced"])
        )
        record["per_layer"] = values
        write_out(tag + "-spans.json", [s.as_record() for s in tracer.spans])
        specs = layer_specs
    else:
        values = end_to_end(args.workload, tasks, passes, setup_m)
        record["end_to_end"] = values
        record["setup_probes_s"] = setup.probes
        for name, value in values.items():
            print("# metric %-20s %.6g %s" % (name, value, UNITS[name]))
        specs = e2e_specs
    write_out(tag + ".json", record)
    print(result_line(True, attempted, failed, specs, values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
