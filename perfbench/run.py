#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--toy]

Configures and builds perfbench/ (which compiles the library sources of the
checkout) into .bench_build/perfbench, then runs the driver with
OMP_NUM_THREADS=1. Build output goes to stderr; the driver's last stdout
line is the result JSON. Datasets are written to .bench_out/ and removed
afterwards; the trace of a --trace 1 run stays there.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
# Compiler and driver temporaries stay inside the checkout too.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
# A run must end within 180 s, build check included.
RUN_LIMIT_S = 170


def build(env):
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True, env=env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes (the self-check)")
    args = parser.parse_args()

    started = time.monotonic()
    os.makedirs(TMP_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP_DIR, OMP_NUM_THREADS="1")
    try:
        build(env)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    budget = RUN_LIMIT_S - (time.monotonic() - started)

    os.makedirs(OUT_DIR, exist_ok=True)
    command = [DRIVER, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--out-dir", OUT_DIR] + (["--toy"] if args.toy else [])
    try:
        # The first run in a checkout includes the build, so only the
        # driver itself is held to the per-run limit.
        proc = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(budget, 60.0), cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1
    finally:
        for path in glob.glob(os.path.join(OUT_DIR, "*.ptsb")):
            os.remove(path)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
