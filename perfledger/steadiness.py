#!/usr/bin/env python3
"""Measure how steady the ledger's end-to-end metrics are.

    python3 perfledger/steadiness.py --runs 10
    python3 perfledger/steadiness.py --runs 5 --workloads wire_mlp2048
    python3 perfledger/steadiness.py --runs 10 --compare .bench_build/steady-a.json

Runs every chosen workload --runs times, alternating workloads
(round-robin, rotating which goes first) and giving each run its own
seed. For each workload and end-to-end metric it prints the median,
the quartiles (statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median and that spread against the metric's bound from
BENCHMARK.json. A spread over a third of the bound is flagged. With
--compare it also prints how far each median moved from an earlier
results file, in the metric's worse direction, against the bound.
Raw results go to --out (JSON) for later comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    # Per-cycle samples ("<name> samples: v v ...") and the fingerprint
    # (with the host noise probe), kept for analysis.
    samples = {}
    fingerprint = {}
    for line in lines:
        head, sep, tail = line.partition(" samples:")
        if sep:
            samples[head.strip()] = [float(v) for v in tail.split()]
        elif line.startswith('{"fingerprint"'):
            fingerprint = json.loads(line)["fingerprint"]
    return proc.returncode, result, samples, fingerprint, wall


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--out", default=os.path.join(
        ROOT, ".bench_build", "steady-%d.json" % int(time.time())))
    ap.add_argument("--compare", help="earlier --out file")
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    runs = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            seed = args.seed_base + i
            code, result, samples, fingerprint, wall = run_once(
                w, seed, args.seconds)
            ok = code == 0 and result is not None and result["correct"]
            print("run %2d %-16s seed %-4d %5.1fs steal %5.2fs %s" %
                  (i, w, seed, wall, fingerprint.get("steal_s", -1),
                   "ok" if ok else "FAILED (%d)" % code), flush=True)
            if result is None:
                continue
            runs[w].append({"seed": seed, "wall_s": wall, "exit": code,
                            "result": result, "samples": samples,
                            "fingerprint": fingerprint})
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(runs, f, indent=1)
    print("raw results: %s" % args.out)

    before = json.load(open(args.compare)) if args.compare else {}
    print("%-16s %-20s %12s %12s %12s %8s %7s %6s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "bound",
           "flag") + ("   moved" if before else ""))
    for w in workloads:
        for name, spec in metrics.items():
            vals = [r["result"]["metrics"][name]["value"] for r in runs[w]
                    if name in r["result"]["metrics"]]
            if len(vals) < 2:
                continue
            med, q1, q3, spread = summarize(vals)
            flag = "ok" if spread <= spec["bound"] / 3 else \
                ("WIDE" if spread <= spec["bound"] else "OVER")
            line = "%-16s %-20s %12.5g %12.5g %12.5g %8.4f %7.3f %6s" % (
                w, name, med, q1, q3, spread, spec["bound"], flag)
            old = [r["result"]["metrics"][name]["value"]
                   for r in before.get(w, [])
                   if name in r["result"]["metrics"]]
            if len(old) >= 2:
                old_med = statistics.median(old)
                worse = (med - old_med) / old_med
                if spec["better"] == "higher":
                    worse = -worse
                line += "  %+7.4f%s" % (
                    worse, " OVER" if worse > spec["bound"] else "")
            print(line)
    failed = sum(1 for w in workloads for r in runs[w]
                 if r["exit"] != 0 or not r["result"]["correct"])
    print("runs failed: %d" % failed)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
