#!/usr/bin/env python3
"""Build and run the benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first run configures and builds the
library from src/ together with the benchmark program
(perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later runs rebuild only what
changed.  Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result.  The service workload's cache journals live in a
fresh temporary directory inside the build directory, removed when the run
ends; a traced run writes its spans next to the build as
spans-<workload>.tsv.
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ("puzzle-p8192", "fig4-sweep", "service-trace")
BUILD_JOBS = "2"


def build(source_dir, build_dir):
    # The compiler's temporary files stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", source_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", BUILD_JOBS],
        check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    source_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.getcwd()
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR")
                              or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    try:
        binary = build(source_dir, build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    tmp_dir = tempfile.mkdtemp(prefix="run-", dir=build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--tmp-dir", tmp_dir]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(build_root, f"spans-{args.workload}.tsv")]
    try:
        return subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
