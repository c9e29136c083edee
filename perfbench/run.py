#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds the benchmark (perfbench/CMakeLists.txt, Release) into the build
directory -- $CARGO_TARGET_DIR if set, else .bench_build -- and later calls
only rebuild what changed. Build output goes to stderr; the benchmark's own
output goes to stdout, whose last line is the JSON result. The exit code is
the benchmark's: 0 when it printed a result line, whose `correct` and
`failed` say whether the output checks passed; non-zero when the build
fails or a workload throws.

Extra flags (--tiny, --corrupt) are passed through to the perfbench
program; see perfbench/README.md.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds the program; returns its path or None."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=sys.stderr) != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                return None
        jobs = str(min(os.cpu_count() or 1, 4))
        if subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                           stdout=sys.stderr) != 0:
            return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    tmp_dir = os.path.join(build_dir, "tmp-%d" % os.getpid())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--tmp", tmp_dir] + extra
    try:
        return subprocess.call(command, cwd=ROOT)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
