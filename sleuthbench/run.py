#!/usr/bin/env python3
"""Build the Sleuth benchmark (Release) and run one workload.

Run from the repository root:

    python3 sleuthbench/run.py --workload storm-rca --seed 1 --seconds 10 --trace 0
    python3 sleuthbench/run.py --selftest

The build tree is $CARGO_TARGET_DIR (default .bench_build) under the
current directory; the first run configures and compiles the
repository's src/ libraries and the benchmark, later runs only check
that the build is current. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Exits non-zero when the
build or a correctness check fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir, target):
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", cmake_dir, "-j", "4", "--target", target]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(cmake_dir, target)


def main(argv):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    target = "sleuthbench_selftest" if "--selftest" in argv else "sleuthbench"
    binary = build(build_dir, target)
    if binary is None:
        print("sleuthbench: build failed", file=sys.stderr)
        return 1
    if target == "sleuthbench_selftest":
        return subprocess.run([binary, build_dir]).returncode
    args = [binary] + argv + ["--work-dir", build_dir]
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
