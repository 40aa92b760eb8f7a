#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <paper_pairs|fleet_replay|jobs_stressed>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

The first call configures and builds perfbench/ (and through it src/) in
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, at the Release
build type; later calls only re-run the incremental build. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
The exit code is the benchmark's, or nonzero when the build fails.
"""
import os
import subprocess
import sys

WORKLOADS = ("paper_pairs", "fleet_replay", "jobs_stressed")


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def parse(argv):
    if argv == ["--self-check"]:
        return
    opts = dict(zip(argv[0::2], argv[1::2]))
    expected = {"--workload", "--seed", "--seconds", "--trace"}
    if len(argv) % 2 or set(opts) != expected:
        fail("expected --workload W --seed N --seconds S --trace 0|1")
    if opts["--workload"] not in WORKLOADS:
        fail(f"unknown workload {opts['--workload']!r}; one of {WORKLOADS}")
    if opts["--trace"] not in ("0", "1"):
        fail("--trace takes 0 or 1")
    try:
        int(opts["--seed"])
        if float(opts["--seconds"]) <= 0:
            raise ValueError
    except ValueError:
        fail("--seed takes an integer and --seconds a positive number")


def build(root):
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "dps_perfbench",
         "-j", jobs],
    ]
    if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=root).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "dps_perfbench")


def main():
    parse(sys.argv[1:])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    sys.stdout.flush()
    result = subprocess.run([binary] + sys.argv[1:], cwd=root)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
