#!/usr/bin/env python3
"""Build and run the perf ledger for one workload.

    python3 perfledger/run.py --workload wire_mlp2048 --seed 1 --seconds 30 --trace 0

Run from the root of a source tree. The program is built from source
into $CARGO_TARGET_DIR/perfledger-<hash of the tree's path> (build root
.bench_build by default) in Release, then run with the pool width fixed
and every environment override of the library cleared. The last line of standard output is
the JSON result; the exit code is non-zero when the build fails or a
correctness gate fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wire_mlp2048", "wire_two_tenant")
# Library environment overrides that would change what is measured.
CLEARED_ENV = ("NEURO_MNIST_DIR", "NEURO_SIMD", "NEURO_SNN_ENGINE",
               "NEURO_TRACE", "NEURO_STATS_DUMP", "NEURO_METRICS",
               "NEURO_SCALE", "NEURO_THREADS")
THREADS = "2"
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfledger: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure and build the ledger program; return its path.

    Configure runs every time: it is cheap when nothing changed, and it
    stops with an error if the cache was made for another source tree.
    """
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfledger",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfledger")


def src_sha():
    """Content hash of the library sources (the tree may not be a git
    checkout)."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD of the tree when it is itself a git work tree, else 'none'."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel"], capture_output=True,
                             text=True, timeout=10)
        if top.returncode != 0 or \
                os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "none"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        log("seed must be >= 0 and seconds >= 1")
        return 2

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to perfledger/; "
            "run from the root of a full source tree")
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # One build directory per source tree, so two trees that share a
    # build root never build or measure each other's sources.
    tree = hashlib.sha256(os.path.realpath(ROOT).encode()).hexdigest()[:12]
    build_dir = os.path.join(os.path.abspath(build_root),
                             "perfledger-" + tree)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2

    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["NEURO_THREADS"] = THREADS
    trace_out = os.path.join(os.path.abspath(build_root), "trace-%s-%d.json"
                             % (args.workload, args.seed))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digests", os.path.join(HERE, "digests.txt"),
           "--git-sha", git_sha(), "--src-sha", src_sha()]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    try:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("no result line (exit code %d)" % proc.returncode)
        return proc.returncode or 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
