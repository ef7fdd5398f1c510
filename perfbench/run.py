#!/usr/bin/env python3
"""Builds the clipbb benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload resident --seed 1 --seconds 10 --trace 0

The build (CMake, Release) goes to .bench_build/perfbench at the root of the
checkout; page files, logs and span dumps go to .bench_build/perfbench-work.
The last line of standard output is the JSON result of the run. Exit status:
0 for a correct run, 1 for a wrong answer, 2 when the benchmark cannot be
built or the arguments are bad, 3 when the run exceeds its time limit.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-work"
WORKLOADS = ("resident", "spill", "write_follow")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; returns the binary path or None."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = BUILD / "CMakeCache.txt"
        home = f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n"
        if cache.exists() and home not in cache.read_text():
            # A build directory carried over from another checkout.
            for entry in BUILD.iterdir():
                if entry.name != ".lock":
                    shutil.rmtree(entry) if entry.is_dir() else entry.unlink()
        steps = []
        if not cache.exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", BUILD_JOBS])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                log("build failed: " + " ".join(cmd))
                return None
    return BUILD / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs (the self-test mode)")
    ap.add_argument("--perturb", action="store_true",
                    help="perturb one expected count (the gate must fail)")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    # The library reads CLIPBB_* knobs (crash and read-fault injection,
    # trace sampling); none may be armed during a measured run.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CLIPBB_")}
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(WORK)]
    if args.tiny:
        cmd.append("--tiny")
    if args.perturb:
        cmd.append("--perturb")
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
