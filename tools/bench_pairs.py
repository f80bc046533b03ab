"""Run the benchmark on a parent commit and on the working tree, in pairs.

    python3 tools/bench_pairs.py --parent REV --workdir DIR --out BENCH.json \
        --claim derive [--metric setup_s] --pairs derive=10,enumerate=3,sequence=3,cli-session=3

DIR receives two fresh copies: `parent` (`git archive REV`) and `change`
(the tracked and untracked, not ignored, files of the working tree).  For
each workload W and seed S = F .. F + N - 1 (F is `--first-seed`, default 1)
it runs `python3 perfbench/run.py --workload W --seed S` once in each copy,
one after the other; odd seeds run the parent first and even seeds the
change first, so drift on a shared machine falls on both sides alike.
Every run's provenance and result lines go into the output, with the median
and quartiles of each end-to-end metric per side and, for each metric and
workload, the number of pairs in which the change's value is lower (every
metric is better lower).  The claim is that count for `--metric` (default
`wall_cal_s`) on the `--claim` workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_cal_s", "setup_s", "peak_rss_mb")


def _git(*args):
    return subprocess.run(
        ("git",) + args, cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout


def _export(rev, dest):
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as fh:
        subprocess.run(("git", "archive", rev), cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    archive.unlink()


def _copy_worktree(dest):
    files = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, files):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def _run(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    provenance = next((x for x in lines if x.startswith("# provenance")), None)
    result = next((x for x in reversed(lines) if x.startswith("{")), None)
    return {"exit": proc.returncode, "provenance": provenance, "result": result}


def _stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4), "runs": len(values)}


def _machine():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "os": "%s %s" % (platform.system(), platform.release()),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workdir", required=True, help="empty or new directory for the two copies")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--claim", required=True, help="workload whose --metric is claimed")
    ap.add_argument("--metric", choices=METRICS, default="wall_cal_s", help="claimed end-to-end metric")
    ap.add_argument("--pairs", required=True, help="W=N,... pairs per workload, seeds F..F+N-1")
    ap.add_argument("--first-seed", type=int, default=1, help="F, the first seed of every workload")
    ap.add_argument("--seconds", type=float, default=None, help="passed on to run.py")
    args = ap.parse_args(argv)

    plan = [(w, int(n)) for w, n in (item.split("=") for item in args.pairs.split(","))]
    work = Path(args.workdir).resolve()
    work.mkdir(parents=True, exist_ok=True)
    sides = {"parent": work / "parent", "change": work / "change"}
    for path in sides.values():
        if path.exists():
            shutil.rmtree(path)
        path.mkdir()
    parent = _git("rev-parse", args.parent).strip()
    _export(parent, sides["parent"])
    _copy_worktree(sides["change"])

    runs = []
    for workload, count in plan:
        for seed in range(args.first_seed, args.first_seed + count):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                rec = _run(sides[side], workload, seed, args.seconds)
                runs.append(dict(side=side, workload=workload, seed=seed, **rec))
                print(side, workload, seed, rec["result"], file=sys.stderr, flush=True)

    summary = {}
    won = {metric: {} for metric in METRICS}
    for workload, _count in plan:
        mine = [r for r in runs if r["workload"] == workload]
        parsed = {
            side: [json.loads(r["result"]) if r["result"] else None for r in mine if r["side"] == side]
            for side in sides
        }
        entry = {}
        for metric in METRICS:
            per = {
                side: [res["metrics"][metric]["value"] for res in parsed[side] if res]
                for side in sides
            }
            if per["parent"] and per["change"]:
                entry[metric] = {side: _stats(per[side]) for side in sides}
                entry[metric]["change_over_parent"] = round(
                    entry[metric]["change"]["median"] / entry[metric]["parent"]["median"], 3
                )
        entry["correct_all_runs"] = all(
            res is not None and res["correct"] for side in sides for res in parsed[side]
        )
        entry["failed"] = sorted({res["failed"] for side in sides for res in parsed[side] if res})
        summary[workload] = entry
        pairs = [(a["metrics"], b["metrics"]) for a, b in zip(parsed["parent"], parsed["change"]) if a and b]
        for metric in METRICS:
            won[metric][workload] = sum(1 for a, b in pairs if b[metric]["value"] < a[metric]["value"])

    counts = dict(plan)
    doc = {
        "claim": {
            "workload": args.claim,
            "metric": args.metric,
            "better": "lower",
            "change_wins_pairs": "%d of %d" % (won[args.metric][args.claim], counts[args.claim]),
        },
        "command": "python3 tools/bench_pairs.py --parent %s --workdir DIR --out %s --claim %s%s --pairs %s%s%s"
        % (
            args.parent,
            Path(args.out).name,
            args.claim,
            "" if args.metric == "wall_cal_s" else " --metric %s" % args.metric,
            args.pairs,
            "" if args.first_seed == 1 else " --first-seed %d" % args.first_seed,
            "" if args.seconds is None else " --seconds %g" % args.seconds,
        ),
        "parent": parent,
        "change": "the working tree on top of %s" % _git("rev-parse", "HEAD").strip(),
        "order": "seed S runs the parent first when S is odd and the change first when S is even",
        "machine": _machine(),
        "summary": summary,
        "pairs_won_by_change": won,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(e["correct_all_runs"] for e in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
