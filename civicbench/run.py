#!/usr/bin/env python3
"""Build and run the civic-world benchmark.

usage: python3 civicbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and
builds `civicbench` (the repository's src/ libraries plus the benchmark)
with CMake into `.bench_build/` (or $CARGO_TARGET_DIR when set); later
runs only rebuild what changed. Build output goes to stderr. The
benchmark's stdout is passed through; its last line is the result JSON.
With --trace 1 the replay's spans are written next to the build.
The exit code is non-zero when the build fails, the run fails, or an
answer was wrong.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("civic_read", "mobility_churn", "area_gaze")
RUN_TIMEOUT_S = 170


def build(source: Path, build_dir: Path) -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(source), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs, "--target", "civicbench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "civicbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source = Path(__file__).resolve().parent
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    build_dir = build_root / "civicbench"
    try:
        binary = build(source, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"civicbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", str(build_root / f"civicbench-spans-{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("civicbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
