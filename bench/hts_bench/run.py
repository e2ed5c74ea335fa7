#!/usr/bin/env python3
"""Builds bench_hts_bench from this checkout, then runs it.

    python3 bench/hts_bench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace 0|1 [--json <path>] [--trace-out <path>]
    python3 bench/hts_bench/run.py --self-test

Every argument is passed to the binary unchanged. The build goes to
.bench_build/hts_bench at the checkout root; its output goes to stderr so the
binary's last stdout line (the result JSON) stays the last line. Exits
non-zero without a result when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "hts_bench")
BINARY = os.path.join(BUILD, "bench_hts_bench")


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", "bench_hts_bench",
                  "-j", "3"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("hts_bench: build failed: " + " ".join(cmd))


def main():
    build()
    sys.stdout.flush()
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    main()
