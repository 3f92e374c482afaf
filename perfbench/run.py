#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (a standalone CMake project over ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset, then runs the kvbench program once. Build output goes to stderr;
kvbench's stdout passes through, ending with one JSON result line.
Exits non-zero, without a result line, when the simulator sources are
missing or the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", "kvbench"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    out = build_dir()
    build(out)
    exe = os.path.join(out, "kvbench")
    try:
        proc = subprocess.run([exe] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
