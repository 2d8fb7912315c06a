#!/usr/bin/env python3
r"""discfs-bench: builds the benchmark and runs one workload.

Usage (from the repository root):

    python3 discfsbench/run.py --workload hot_read --seed 1 --seconds 30 \
        --trace 0
    python3 discfsbench/run.py --selftest

The benchmark compiles the DisCFS sources of the checkout it sits in
(../src) with its own CMake project into $CARGO_TARGET_DIR (default
.bench_build) under the checkout root. Build output goes to standard error,
so the last line of standard output is the benchmark's JSON result. That
line holds exactly the metrics BENCHMARK.json names for the mode: its
end_to_end metrics for --trace 0, its per_layer metrics for --trace 1. The
program measures more than that (metrics only some workloads have); those
are printed on the lines above the result. A traced run also writes its
span dump to <build dir>/spans/<workload>.jsonl.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hot_read", "policy_churn", "sync_mixed")


def fail(message):
    print("discfsbench: " + message, file=sys.stderr)
    sys.exit(2)


# A run that outlives this is killed; the program's own watchdog fires
# first.
RUN_TIMEOUT_S = 178


def result_metrics(traced):
    """Names of the metrics the result line carries, from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            manifest = json.load(f)
        return [m["name"]
                for m in manifest["per_layer" if traced else "end_to_end"]]
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail("cannot read the metric list from %s: %s" % (path, e))


def select(result_line, names):
    """The program's result line cut down to `names`; None if one is
    missing or the line is not a result."""
    try:
        result = json.loads(result_line)
        measured = result["metrics"]
        return json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: measured[name] for name in names},
        })
    except (ValueError, KeyError, TypeError) as e:
        print("discfsbench: result line lacks %s" % e, file=sys.stderr)
        return None


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "discfsbench")


def build(out, env, targets):
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isdir(os.path.join(ROOT, "src", "discfs")):
        fail("no DisCFS sources at %s; run from a repository checkout"
             % os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                env=env, cwd=ROOT)
        if result.returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's self-tests")
    args = parser.parse_args()

    out = build_dir()
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))

    if args.selftest:
        build(out, env, ["discfsbench_selftest"])
        sys.exit(subprocess.run([os.path.join(out, "discfsbench_selftest")],
                                env=env, cwd=ROOT).returncode)

    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in [1, 60]")
    names = result_metrics(args.trace)
    build(out, env, ["discfsbench"])
    command = [os.path.join(out, "discfsbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(spans, args.workload + ".jsonl")]
    sys.stdout.flush()
    try:
        run = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                             universal_newlines=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    result = select(lines[-1], names) if lines else None
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if result is None:
        fail("no result line (exit code %d)" % run.returncode)
    print(result)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
