#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Builds the benchmark binary from the sources of this checkout (CMake,
RelWithDebInfo, into .bench_build), runs one
workload from the checkout root and passes its output through: the
last line of stdout is the result JSON. `--workload all` runs every
workload once and prints every end-to-end metric with its unit, the
build failure ratio and the sample count, one row per metric.

Exits nonzero, without a result line, when the build fails, a run
fails or disagrees with the correctness oracle, or a run overruns.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["edit-loop", "wide-rebuild", "daemon-fleet"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configures and builds the binary; returns its path."""
    bd = os.path.join(ROOT, ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", bd,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", bd, "-j", jobs, "--target", "perfbench"]):
        # Build chatter goes to stderr; stdout carries only results.
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(bd, "perfbench")


def revision():
    """The git commit, or a digest of the sources outside a git tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def run_once(binary, workload, seed, seconds, trace, commit):
    """Runs one workload; returns (exit code, stdout text)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", commit]
    try:
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} overran {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, ""
    return out.returncode, out.stdout


def result_of(stdout):
    """The parsed result line, or None when it is missing or malformed."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if set(result) == RESULT_KEYS else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    commit = revision()

    if args.workload != "all":
        code, stdout = run_once(binary, args.workload, args.seed,
                                args.seconds, args.trace, commit)
        if code != 0 or result_of(stdout) is None:
            print(f"perfbench: {args.workload} failed (exit {code})",
                  file=sys.stderr)
            return code or 1
        sys.stdout.write(stdout)
        return 0

    status = 0
    print(f"{'workload':14s} {'metric':18s} {'value':>14s}  unit")
    for workload in WORKLOADS:
        code, stdout = run_once(binary, workload, args.seed, args.seconds,
                                args.trace, commit)
        result = result_of(stdout)
        if code != 0 or result is None:
            print(f"{workload:14s} FAILED (exit {code})")
            status = 1
            continue
        for name, m in result["metrics"].items():
            print(f"{workload:14s} {name:18s} {m['value']:14.6g}  {m['unit']}")
        ratio = result["failed"] / result["attempted"]
        print(f"{workload:14s} {'build_fail_ratio':18s} {ratio:14.6g}  ratio")
        print(f"{workload:14s} {'builds':18s} {result['attempted']:14d}  count")
    return status


if __name__ == "__main__":
    sys.exit(main())
