#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload sweep_cold|serve_hot|serve_cold \
        --seed N --seconds S --trace 0|1 [--record runs.jsonl]

Run it from the root of a checkout. The first run configures and builds
perfbench/ (the repository libraries plus am_perfbench) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs rebuild
incrementally. The binary's metric lines are passed through, and the last
line printed is one JSON object: correct, attempted, failed and the metrics
BENCHMARK.json lists (end_to_end with --trace 0, per_layer with --trace 1).
--record appends that object, tagged with workload, seed and trace, to a
JSON-lines file for perfbench/compare.py.

Exit status: 0 when the run was correct; 1 when the workload found a wrong
or failed result; 2 when nothing could be measured (no sources, build
failure, crash, timeout). In the last case no result line is printed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no repository sources next to perfbench/ (missing src/)")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "am_perfbench",
                  "-j", BUILD_JOBS])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            die("build step failed: " + " ".join(cmd))
    binary = os.path.join(build_dir, "am_perfbench")
    if not os.path.isfile(binary):
        die("build produced no am_perfbench")
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep_cold", "serve_hot", "serve_cold"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", help="append the result to this JSON-lines file")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    binary = build(os.path.join(out_dir, "perfbench"))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--bench-dir", HERE, "--out-dir", out_dir]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("am_perfbench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        die("am_perfbench exited %d without a result" % done.returncode)
    if done.returncode not in (0, 1):
        die("am_perfbench exited %d" % done.returncode)
    for line in lines[:-1]:
        print(line)

    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            die("am_perfbench did not report %s" % m["name"])
        if got["unit"] != m["unit"]:
            die("%s is in %s, BENCHMARK.json says %s"
                % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = bool(raw["correct"]) and done.returncode == 0
    result = {"correct": correct, "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]), "metrics": metrics}
    if args.record:
        with open(args.record, "a") as f:
            tagged = dict(result, workload=args.workload, seed=args.seed,
                          trace=args.trace)
            f.write(json.dumps(tagged) + "\n")
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
