#!/usr/bin/env python3
"""Builds and runs the rt wall-clock benchmark (circus_perfbench).

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The benchmark binary is built from source with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), relative
to the checkout root. Build output goes to stderr; the benchmark's own
report goes to stdout and ends with one JSON line. The exit code is the
benchmark's: nonzero when the build fails, an output check fails, or the
run overruns its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170  # the benchmark binary alone, build excluded


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no Circus sources next to perfbench/; "
                 "run from the root of a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "circus_perfbench", "--parallel", "3"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "circus_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")

    command = [binary, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    if args.trace:
        command += ["--spans-out", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    with subprocess.Popen(command, cwd=ROOT) as proc:
        try:
            return proc.wait(timeout=RUN_LIMIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: run exceeded {RUN_LIMIT_S} s; killed",
                  file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
