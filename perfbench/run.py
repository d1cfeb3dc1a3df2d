#!/usr/bin/env python3
"""Build and run the Photon benchmark.

    python3 perfbench/run.py --workload sampled|unsampled|sweep|photond \
        --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is a CMake project of its
own (perfbench/CMakeLists.txt) that compiles the library from ../src;
it is built into $CARGO_TARGET_DIR/perfbench (default .bench_build/)
on first use. Before each run the self-test of the benchmark's own
arithmetic runs. The benchmark's output passes through unchanged: its
last line is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then build; compiler output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode:
        fail("build failed")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)

    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr)
    if selftest.returncode:
        fail("self-test of the benchmark's arithmetic failed")

    cmd = [os.path.join(build_dir, "perfbench"), *sys.argv[1:],
           "--out-dir", build_dir]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
