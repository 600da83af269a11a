#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 slimbench/run.py --workload batch_fit --seed 1 --seconds 40 --trace 0

Run from the repository root. Builds the library and the harness from
source into .bench_build (CMake, Release), runs the harness self-tests,
then runs one workload and passes its output through. The last line of
standard output is the result JSON. Exits non-zero, without a result line,
when the build or the self-tests fail.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("batch_fit", "stream_commit", "query_mix")
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    src = os.path.join(root, "slimbench")
    build_dir = os.path.join(root, BUILD_DIR)
    configure = ["cmake", "-S", src, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "-j", "4",
                "--target", "slimbench", "slimbench_selftest"]
    for cmd in (configure, compile_):
        # Build output goes to stderr so stdout stays the benchmark's own.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return build_dir


def git_describe(root):
    git = shutil.which("git")
    if git is None or not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    out = subprocess.run([git, "-C", root, "describe", "--always", "--dirty"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "src")):
        log("run.py: run from the repository root (no CMakeLists.txt/src here)")
        return 2
    build_dir = build(root)
    if build_dir is None:
        log("run.py: build failed")
        return 2
    if subprocess.run([os.path.join(build_dir, "slimbench_selftest")],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("run.py: harness self-tests failed")
        return 2

    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "slimbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--git-describe", git_describe(root)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: workload timed out")
        return 3
    finally:
        # The harness removes its own WAL directory; this catches a crash.
        for name in os.listdir(out_dir):
            if name.startswith("run-"):
                shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
