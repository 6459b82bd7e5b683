#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (the library sources included) into .bench_build/perfbench;
later runs only re-check the build. The benchmark's last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}. A traced
run (--trace 1) also writes its spans, as Chrome trace-event JSON, to
.bench_build/trace/<workload>.json.
"""

import argparse
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("fleet_uplink", "single_link_latency", "inventory_drain",
             "downlink_ber_sweep")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; True when it succeeded."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return False
    return done.returncode == 0


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("library sources (src/) not found next to perfbench/; nothing to build")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        if not run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return None
    if not run_quiet(["cmake", "--build", str(BUILD), "--target", "perfbench",
                      "-j", jobs], BUILD_TIMEOUT_S):
        return None
    return BUILD / "perfbench"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    if binary is None:
        log("build failed")
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--reference", str(HERE / "reference.json"), "--commit", git_commit()]
    if args.trace == "1":
        trace_dir = ROOT / ".bench_build" / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        # One file per workload: each traced run replaces the last one's.
        cmd += ["--trace-out", str(trace_dir / f"{args.workload}.json")]
    sys.stdout.flush()
    # A terminated run.py takes the benchmark down with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s; stopping it")
        proc.kill()
        proc.wait()
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
