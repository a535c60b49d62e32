#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The first run configures and
builds perfbench/ (which pulls in the repository) under .bench_build/;
later runs only re-check the build.  absim_bench's report goes to
stdout, ending with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: absim_bench's (0 = every output check passed), 1 when the
build or absim_bench fails, 2 on a bad command line or a checkout
without the simulator's sources.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TARGETS = ["absim_bench", "absim_serve", "bench_kernel"]
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then bring the three targets up to date."""
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"]
                 + TARGETS)
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))


def run(args):
    out_dir = os.path.join(ROOT, ".bench_build", "out", args.workload)
    cmd = [os.path.join(BUILD, "absim_bench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--out-dir", out_dir,
           "--serve-bin", os.path.join(BUILD, "absim", "examples",
                                       "absim_serve"),
           "--kernel-bench", os.path.join(BUILD, "absim", "bench", "micro",
                                          "bench_kernel")]
    # A session of its own, so a timeout can stop absim_bench and every
    # process it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload %s timed out after %d s" % (args.workload,
                                                   RUN_TIMEOUT_S))
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode == 2:
        fail("absim_bench rejected its command line", 2)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("absim_bench printed no result (exit %d)" % proc.returncode)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                     os.path.join("examples", "absim_serve.cpp")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("no absim source tree here (missing %s)" % required, 2)
    build()
    sys.exit(run(args))


if __name__ == "__main__":
    main()
