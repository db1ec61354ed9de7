#!/usr/bin/env python3
"""Build and run one gridctl benchmark workload.

    python3 gridbench/run.py --workload paper_day|fleet_walk|plane_admit \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
gridctl libraries from src/ and the gridbench program (Release) under
$CARGO_TARGET_DIR/gridbench (default .bench_build/gridbench); later runs
rebuild incrementally. Build output goes to stderr. The program's report
goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics. A traced run (--trace 1) also
writes its spans, one JSON object per line, to
<build dir>/spans/<workload>-<seed>.jsonl.
"""

import argparse
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_day", "fleet_walk", "plane_admit")
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "gridbench"


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--parallel", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def host_context(out):
    """nproc, CPU model, compiler and build type of this run."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    build_type = "unknown"
    try:
        with open(out / "CMakeCache.txt") as cache:
            for line in cache:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = line.split("=", 1)[1].strip()
                elif line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()
        if version:
            compiler = version[0]
    except (OSError, IndexError):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "build_type": build_type}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("gridbench: build failed", file=sys.stderr)
        return 1
    binary = out / "gridbench"
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", repr(args.seconds), "--trace",
               args.trace]
    if args.trace == "1":
        spans = out / "spans"
        spans.mkdir(exist_ok=True)
        command += ["--spans-out",
                    str(spans / f"{args.workload}-{args.seed}.jsonl")]
    host = host_context(out)
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()), flush=True)
    with subprocess.Popen(command, cwd=ROOT) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"gridbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
