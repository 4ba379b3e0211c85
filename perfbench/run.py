#!/usr/bin/env python3
"""Build the saisim benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload strip_read --seed 1 --seconds 10 --trace 0

The program is built with CMake under $CARGO_TARGET_DIR (default
.bench_build); build output goes to stderr. Reports and span logs are
written to .bench_out. The last line on stdout is the result JSON; the
exit code is the benchmark's (0 only when every output check passed).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
OUT_DIR = ".bench_out"


def build(build_dir):
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "saisim_perf", "-j", jobs],
    ]
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    for cmd in steps:
        subprocess.run(cmd, stdout=sys.stderr, check=True, env=env,
                       timeout=BUILD_TIMEOUT_S)


def main():
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    binary = os.path.join(build_dir, "saisim_perf")
    try:
        proc = subprocess.run([binary, *sys.argv[1:], "--out", OUT_DIR],
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
