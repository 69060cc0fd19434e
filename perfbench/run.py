#!/usr/bin/env python3
"""Repository benchmark: builds perfbench_driver from this source tree and
runs one seeded workload with it.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest --seed 1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) and is reused by later runs; build output goes to
stderr. The driver's last stdout line is the result JSON. Exits non-zero,
without a result, when the build or a correctness check fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lattice", "regulator", "serve_burst")
DRIVER_TIMEOUT_S = 170


def build(build_dir):
    """Configures until a driver has been built once, then brings it up to date."""
    driver = os.path.join(build_dir, "perfbench_driver")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(driver):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_driver", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return driver


def commit():
    """The checkout's commit when it is a git work tree, else 'unknown'."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the seeded generator's self-test instead")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    driver = build(build_dir)
    if driver is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    if args.selftest:
        command = [driver, "--selftest", "--seed", str(args.seed)]
    else:
        command = [driver, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--commit", commit()]
        if args.trace:
            spans = os.path.join(build_dir, "spans")
            os.makedirs(spans, exist_ok=True)
            command += ["--spans",
                        os.path.join(spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT, timeout=DRIVER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: driver exceeded %d s" % DRIVER_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
