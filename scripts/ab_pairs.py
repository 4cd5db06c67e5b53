#!/usr/bin/env python3
"""Alternating-pairs A/B gate: a change's figures against a base's.

Runs a base command and a change command alternately, --pairs times; the
side that runs first swaps every pair. Each run writes a JSON report to the
path substituted for `{json}` in its command. Per pair the script takes
change / base for every figure the report carries, and fails when the median
of a figure's per-pair ratios falls below --floor. Both sides run on the
same host in the same minutes, so host speed and its drift divide out, and
the median ignores the odd slow run on either side.

Figures by report schema:
  am-bench-sim-core/1 to /3                   points_per_sec of each preset
  am-serve-load/1                            qps of the first row

Usage:
  scripts/ab_pairs.py --pairs 21 --floor 0.90 \\
      --base 'base/bench_sim_core --reps 5 --json-out {json}' \\
      --change 'build/bench/bench_sim_core --reps 5 --json-out {json}'

Exit codes: 0 every median at or above the floor, 1 otherwise or when a run
fails or writes no readable report.
"""

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys
import tempfile


def figures(doc):
    """The gated figures of one report, as {label: value}."""
    schema = doc.get("schema")
    if schema in ("am-bench-sim-core/1", "am-bench-sim-core/2",
                  "am-bench-sim-core/3"):
        return {p["preset"]: p["points_per_sec"] for p in doc["presets"]}
    if schema == "am-serve-load/1":
        return {"qps": doc["rows"][0]["qps"]}
    raise ValueError(f"unknown report schema {schema!r}")


def run(command, json_path):
    argv = [a.replace("{json}", json_path) for a in shlex.split(command)]
    done = subprocess.run(argv, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"error: `{' '.join(argv)}` exited {done.returncode}\n"
                 f"{done.stderr}")
    try:
        with open(json_path) as f:
            return figures(json.load(f))
    except (OSError, ValueError, KeyError, IndexError) as e:
        sys.exit(f"error: `{' '.join(argv)}` left no readable report: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--floor", type=float, required=True,
                    help="lowest allowed median of change / base")
    ap.add_argument("--base", required=True, help="base command, with {json}")
    ap.add_argument("--change", required=True,
                    help="change command, with {json}")
    args = ap.parse_args()

    ratios = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.pairs):
            # A fresh path per run: a run that writes no report must not
            # read the previous one.
            base_json = os.path.join(tmp, f"base-{i}.json")
            change_json = os.path.join(tmp, f"change-{i}.json")
            if i % 2 == 0:
                base = run(args.base, base_json)
                change = run(args.change, change_json)
            else:
                change = run(args.change, change_json)
                base = run(args.base, base_json)
            if base.keys() != change.keys():
                sys.exit(f"error: base reports {sorted(base)}, "
                         f"change reports {sorted(change)}")
            line = []
            for label in base:
                ratio = change[label] / base[label]
                ratios.setdefault(label, []).append(ratio)
                line.append(f"{label} {change[label]:.1f}/{base[label]:.1f}"
                            f" = {ratio:.3f}")
            print(f"pair {i + 1:2d}: " + ", ".join(line), flush=True)

    failed = False
    for label, rs in ratios.items():
        median = statistics.median(rs)
        verdict = "ok" if median >= args.floor else "FAIL"
        failed |= median < args.floor
        print(f"{label}: median change/base {median:.3f} over {len(rs)} pairs "
              f"(range {min(rs):.3f}-{max(rs):.3f}), floor {args.floor:.3f}: "
              f"{verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
