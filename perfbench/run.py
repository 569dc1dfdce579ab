#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload adhoc|analytic|serve_rw \
        --seed N --seconds S --trace 0|1

Run from the repository root. Every call configures and builds the tqp
library and the benchmark program (Release) into the build directory named
by $CARGO_TARGET_DIR, or .bench_build by default, under a perfbench/
subdirectory; after the first call both steps are incremental. Build
output goes to standard error, so the last line of standard output is the
program's JSON result. A failed build exits non-zero without printing a
result. The program then replaces this process, so signals reach it
directly.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(build_dir):
    subprocess.run(
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "tqp_perfbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "tqp_perfbench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
