#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet-mix --seed 1 --seconds 30 --trace 0

The first call configures and builds the library and the benchmark in
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
only rebuild what changed. The benchmark's stdout is passed through; its
last line is the JSON result. With --trace 1 the span log is written to
<build dir>/traces/. Exits non-zero without a result when the build or the
run fails, or when the reported metric names differ from BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 165  # the run after the build; the whole call must end in 180 s


def parse_args():
    p = argparse.ArgumentParser(description="Build and run the perfbench benchmark.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    jobs = str(min(4, os.cpu_count() or 1))
    configured = all(os.path.exists(os.path.join(bdir, f)) for f in ("CMakeCache.txt", "Makefile"))
    if not configured:
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_hash():
    """SHA-1 over the library's build file and sources, for the fingerprint."""
    h = hashlib.sha1()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json lists for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    args = parse_args()
    bdir = build_dir()
    try:
        build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit(), "--source-hash", source_hash()]
    if args.trace:
        os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(bdir, "traces", f"spans-{args.workload}-{args.seed}.json")]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        print(f"perfbench: run failed (exit {proc.returncode})", file=sys.stderr)
        return 1

    result = json.loads(lines[-1])
    expected = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if expected is not None and got != expected:
        sys.stderr.write(proc.stdout)
        print("perfbench: reported metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(expected) - set(got))}, "
              f"extra {sorted(set(got) - set(expected))}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(f"wall_s {time.monotonic() - start:.3f}")
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
