#!/usr/bin/env python3
"""Builds the lifecycle benchmark from source and runs one workload.

Usage, from the repository root:

    python3 lifecycle_bench/run.py --workload commenting|location \
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/lifecycle (default .bench_build/lifecycle)
and the run's files to .lifecycle_out/. The last line of standard output is
the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "transdas", "detector.h")):
        sys.exit("lifecycle_bench: repository sources not found under "
                 + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "lifecycle_bench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(ROOT, target, "lifecycle"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("lifecycle_bench: build failed: %s" % e)
    out_dir = os.path.join(ROOT, ".lifecycle_out")
    cmd = [binary] + sys.argv[1:] + ["--out", out_dir]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
