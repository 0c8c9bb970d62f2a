#!/usr/bin/env python3
"""Build and run the mmHand end-to-end benchmark.

Usage, from the root of a source tree:

    python3 e2ebench/run.py --workload <live_one|live_fleet|offline_replay> \\
        --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds e2ebench/ (which compiles the
library from src/) into .bench_build/e2ebench under the current
directory; later calls rebuild incrementally.  Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.  The
exit code is the benchmark's: non-zero when the build fails, the
arguments are malformed or a correctness check fails.
"""

import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(os.getcwd(), ".bench_build", "e2ebench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build() -> str:
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "e2ebench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "e2ebench")


def main() -> int:
    try:
        binary = build()
    except (subprocess.SubprocessError, OSError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 1
    try:
        return subprocess.run([binary] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded its time limit", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
