#!/usr/bin/env python3
"""Compares two sets of benchmark runs: a parent and a change.

    python3 perfbench/compare.py parent.jsonl change.jsonl [--spec BENCHMARK.json]

Each file is what `perfbench/run.py ... --record FILE` appends: one JSON
object per run, tagged with workload, seed and trace. Only untraced runs
(--trace 0) are compared. For every workload present in both files and
every end-to-end metric BENCHMARK.json lists, it prints each side's median
and quartiles, the fraction of pairs the change wins, and a verdict:

  improved    the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ, in the metric's better
              direction, by more than the parent's interquartile range;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median);
  unresolved  not improved, and either side's interquartile range is wider
              than the bound, unless every change run reads better than
              every parent run;
  unchanged   otherwise.

Runs are paired by seed where both sides ran the same seeds, otherwise in
file order. Exit status: 0 when no metric regressed, 1 when one did, 2 on a
usage error.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    runs = {}
    try:
        with open(path) as f:
            for line in f:
                if not line.strip():
                    continue
                r = json.loads(line)
                if r.get("trace", 0) != 0:
                    continue
                runs.setdefault(r["workload"], []).append(r)
    except (OSError, ValueError, KeyError) as e:
        sys.exit("compare: cannot read %s: %s" % (path, e))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def pairs(parent, change):
    """(parent run, change run) pairs: by seed when the seed sets agree."""
    ps = {r["seed"]: r for r in parent}
    cs = {r["seed"]: r for r in change}
    if len(ps) == len(parent) and set(ps) == set(cs) and len(cs) == len(change):
        return [(ps[s], cs[s]) for s in sorted(ps)]
    return list(zip(parent, change))


def verdict(metric, p_vals, c_vals, pair_vals):
    lower = metric["better"] == "lower"

    def better(a, b):  # a reads better than b
        return a < b if lower else a > b

    p1, pm, p3 = quartiles(p_vals)
    c1, cm, c3 = quartiles(c_vals)
    wins = sum(1 for p, c in pair_vals if better(c, p))
    win_frac = wins / len(pair_vals) if pair_vals else 0.0
    bound = metric["bound"] * abs(pm)
    if win_frac >= 0.9 and better(cm, pm) and abs(cm - pm) > (p3 - p1):
        v = "improved"
    elif better(pm + (bound if lower else -bound), cm):
        v = "regressed"
    elif (p3 - p1) > bound or (c3 - c1) > bound:
        all_better = all(better(c, p) for c in c_vals for p in p_vals)
        v = "unchanged" if all_better else "unresolved"
    else:
        v = "unchanged"
    return (p1, pm, p3), (c1, cm, c3), win_frac, v


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--spec", default=os.path.join(os.path.dirname(HERE),
                                                   "BENCHMARK.json"))
    args = ap.parse_args()
    try:
        with open(args.spec) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        print("compare: cannot read %s: %s" % (args.spec, e), file=sys.stderr)
        return 2
    parent = load(args.parent)
    change = load(args.change)
    workloads = [w["name"] for w in spec["workloads"]
                 if w["name"] in parent and w["name"] in change]
    if not workloads:
        print("compare: no workload has untraced runs on both sides",
              file=sys.stderr)
        return 2

    regressed = False
    print("%-11s %-15s %-33s %-33s %5s  %s" % (
        "workload", "metric", "parent q1 / median / q3",
        "change q1 / median / q3", "wins", "verdict"))
    for w in workloads:
        ps, cs = parent[w], change[w]
        for m in spec["end_to_end"]:
            name = m["name"]
            try:
                p_vals = [r["metrics"][name]["value"] for r in ps]
                c_vals = [r["metrics"][name]["value"] for r in cs]
                pair_vals = [(p["metrics"][name]["value"],
                              c["metrics"][name]["value"])
                             for p, c in pairs(ps, cs)]
            except KeyError:
                print("compare: a %s run lacks %s" % (w, name), file=sys.stderr)
                return 2
            pq, cq, win_frac, v = verdict(m, p_vals, c_vals, pair_vals)
            regressed = regressed or v == "regressed"
            print("%-11s %-15s %-33s %-33s %5.2f  %s  (%d vs %d runs, %s)" % (
                w, name, "%.5g / %.5g / %.5g" % pq, "%.5g / %.5g / %.5g" % cq,
                win_frac, v, len(ps), len(cs), m["unit"]))
        bad = [r for r in ps + cs if not r["correct"] or r["failed"]]
        if bad:
            print("%-11s %d run(s) were not correct" % (w, len(bad)))
            regressed = True
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
