#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cold_open --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (the dbg4eth library from
src/ plus the benchmark driver) with CMake under $CARGO_TARGET_DIR, default
.bench_build; later runs only rebuild what changed. Build output goes to
stderr. The driver's last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the exit code is the
driver's. Workloads and metrics are listed in BENCHMARK.json and
perfbench/METRICS.md.
"""
import os
import subprocess
import sys


def build(root: str) -> str:
    """Configures (once) and builds the driver; returns its path."""
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def git_commit(root: str) -> str:
    """HEAD of the repository at `root`, or "unknown" outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    root = os.path.abspath(os.getcwd())
    try:
        binary = build(root)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench build failed: {error}", file=sys.stderr)
        return 1
    return subprocess.run([binary, *sys.argv[1:], "--commit", git_commit(root)]).returncode


if __name__ == "__main__":
    sys.exit(main())
