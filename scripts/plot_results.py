#!/usr/bin/env python3
"""Plots the outputs produced by run_all_experiments.sh.

Usage: scripts/plot_results.py [results-dir]   (exit 2 if it is missing)

Three input kinds live in the results directory:
  *.csv  — the rendered result tables (one per bench binary);
  *.json — am-run-report/1 run reports carrying the full per-run payload
           (per-thread stats, per-line hot-line profiles, epoch
           time-series), written by the benches' --json-out flag;
  *.json — am-serve-load/1 reports from the serving daemon's closed-loop
           load generator (bench_s1_service, docs/service.md).

The figure series comes from the CSVs; the epoch time-series and hot-line
heatmap figures need the JSON reports; the load reports feed a
connections-vs-qps/p99 saturation figure. Requires matplotlib; falls back
to printing a summary when it is missing (this repo's CI environment is
offline)."""
import csv
import json
import os
import sys

SCHEMA = "am-run-report/1"
LOAD_SCHEMA = "am-serve-load/1"


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    return rows


def read_json(path, schema):
    """Loads one JSON document of the given schema; None when it isn't one."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(doc, dict) or doc.get("schema") != schema:
        return None
    return doc


def read_report(path):
    """Loads one am-run-report/1 document; None when it isn't one."""
    return read_json(path, SCHEMA)


def reports_in(results):
    for name in sorted(os.listdir(results)):
        if not name.endswith(".json"):
            continue
        doc = read_report(os.path.join(results, name))
        if doc is not None:
            yield name[: -len(".json")], doc


def series(rows, key_col, x_col, y_col):
    out = {}
    for r in rows:
        key = r[key_col]
        try:
            x = float(r[x_col])
            y = float(r[y_col])
        except (KeyError, ValueError):
            continue
        out.setdefault(key, []).append((x, y))
    return out


def run_label(run):
    w = run.get("workload", {})
    return f"{w.get('prim', '?')} n={w.get('threads', '?')}"


def plot_epochs(name, doc, results, plt):
    """Throughput + wait-fraction time-series for the report's epoch-richest
    run — the in-run view of the low->high contention regime transition."""
    runs = [r for r in doc.get("runs", []) if r.get("epochs")]
    if not runs:
        return None
    run = max(runs, key=lambda r: (len(r["epochs"]), r["workload"]["threads"]))
    epochs = run["epochs"]
    xs = [e["start_cycle"] for e in epochs]
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(xs, [e["throughput_ops_per_kcycle"] for e in epochs],
            marker="o", color="tab:blue", label="throughput (ops/kcy)")
    ax.set_xlabel("cycle in measurement window")
    ax.set_ylabel("ops / kcycle", color="tab:blue")
    ax2 = ax.twinx()
    ax2.plot(xs, [e["wait_fraction"] for e in epochs],
             marker="s", color="tab:red", label="wait fraction")
    ax2.set_ylabel("wait fraction", color="tab:red")
    ax2.set_ylim(0.0, 1.05)
    ax.set_title(f"{name}: epoch time-series ({run_label(run)})")
    out = os.path.join(results, f"{name}_epochs.png")
    fig.tight_layout()
    fig.savefig(out, dpi=120)
    plt.close(fig)
    return out


def plot_hot_lines(name, doc, results, plt):
    """Heatmap of per-line acquisitions across the report's runs: rows are
    runs, columns the hottest lines — contention concentration at a glance."""
    runs = [r for r in doc.get("runs", []) if r.get("hot_lines")]
    if not runs:
        return None
    # Column set: hottest lines overall, capped to keep the figure legible.
    totals = {}
    for r in runs:
        for h in r["hot_lines"]:
            totals[h["line"]] = totals.get(h["line"], 0) + h["acquisitions"]
    lines = [l for l, _ in
             sorted(totals.items(), key=lambda kv: -kv[1])[:32]]
    if not lines:
        return None
    col = {l: i for i, l in enumerate(lines)}
    grid = [[0.0] * len(lines) for _ in runs]
    for i, r in enumerate(runs):
        for h in r["hot_lines"]:
            if h["line"] in col:
                grid[i][col[h["line"]]] = h["acquisitions"]
    fig, ax = plt.subplots(
        figsize=(max(4, 0.3 * len(lines) + 2), max(3, 0.25 * len(runs) + 1.5)))
    im = ax.imshow(grid, aspect="auto", cmap="inferno")
    ax.set_xticks(range(len(lines)))
    ax.set_xticklabels([str(l) for l in lines], fontsize=6, rotation=90)
    ax.set_yticks(range(len(runs)))
    ax.set_yticklabels([run_label(r) for r in runs], fontsize=6)
    ax.set_xlabel("cache line")
    fig.colorbar(im, ax=ax, label="acquisitions")
    ax.set_title(f"{name}: hot-line acquisitions per run")
    out = os.path.join(results, f"{name}_hotlines.png")
    fig.tight_layout()
    fig.savefig(out, dpi=120)
    plt.close(fig)
    return out


def load_reports_in(results):
    for name in sorted(os.listdir(results)):
        if not name.endswith(".json"):
            continue
        doc = read_json(os.path.join(results, name), LOAD_SCHEMA)
        if doc is not None:
            yield name[: -len(".json")], doc


def plot_saturation(name, doc, results, plt):
    """Connections vs qps (left axis) and p99 latency (right axis) from an
    am-serve-load/1 saturation sweep: where the worker pool saturates, qps
    flattens and the tail takes off."""
    rows = [r for r in doc.get("rows", []) if r.get("connections")]
    if len(rows) < 2:
        return None
    rows.sort(key=lambda r: r["connections"])
    xs = [r["connections"] for r in rows]
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(xs, [r["qps"] for r in rows], marker="o", color="tab:blue",
            label="qps")
    ax.set_xlabel("closed-loop connections")
    ax.set_ylabel("requests / s", color="tab:blue")
    ax.set_xscale("log", base=2)
    ax2 = ax.twinx()
    ax2.plot(xs, [r["latency_us"]["p99"] for r in rows], marker="s",
             color="tab:red", label="p99 latency")
    ax2.set_ylabel("p99 latency (us)", color="tab:red")
    ax2.set_yscale("log")
    ax.set_title(f"{name}: am_serve saturation "
                 f"({doc.get('distinct_requests', '?')} distinct requests)")
    out = os.path.join(results, f"{name}_saturation.png")
    fig.tight_layout()
    fig.savefig(out, dpi=120)
    plt.close(fig)
    return out


def plot_timeline(name, doc, results, plt):
    """Per-step client-side timeline from an am-serve-load/1 report: qps and
    rolling p50/p99 latency over the step's wall clock, one subplot per row.
    Shows warm-up (cache filling) and any mid-step stalls that a whole-step
    percentile hides."""
    rows = [r for r in doc.get("rows", []) if len(r.get("timeline", [])) >= 2]
    if not rows:
        return None
    fig, axes = plt.subplots(len(rows), 1, figsize=(6, 2.2 * len(rows)),
                             sharex=True, squeeze=False)
    for ax, row in zip(axes[:, 0], rows):
        tl = row["timeline"]
        ts = [b["t_s"] + b["width_s"] / 2.0 for b in tl]
        ax.plot(ts, [b["qps"] for b in tl], marker=".", color="tab:blue",
                label="qps")
        ax.set_ylabel("qps", color="tab:blue")
        ax2 = ax.twinx()
        ax2.plot(ts, [b["p50_us"] for b in tl], color="tab:orange",
                 linestyle="--", label="p50")
        ax2.plot(ts, [b["p99_us"] for b in tl], color="tab:red", label="p99")
        ax2.set_ylabel("latency (us)", color="tab:red")
        label = (f"{row['connections']} conns"
                 + (f" @ {row['target_qps']:.0f} qps"
                    if row.get("target_qps") else ""))
        ax.set_title(label, fontsize=9)
    axes[-1, 0].set_xlabel("time into step (s)")
    fig.suptitle(f"{name}: load timeline")
    out = os.path.join(results, f"{name}_timeline.png")
    fig.tight_layout()
    fig.savefig(out, dpi=120)
    plt.close(fig)
    return out


def summarize(results):
    for name in sorted(os.listdir(results)):
        path = os.path.join(results, name)
        if name.endswith(".csv"):
            rows = read_csv(path)
            print(f"{name}: {len(rows)} rows, columns: "
                  f"{', '.join(rows[0].keys()) if rows else '-'}")
        elif name.endswith(".json"):
            doc = read_report(path)
            if doc is not None:
                runs = doc.get("runs", [])
                epochs = sum(len(r.get("epochs", [])) for r in runs)
                hot = sum(len(r.get("hot_lines", [])) for r in runs)
                print(f"{name}: report '{doc['meta'].get('title', '')}', "
                      f"{len(runs)} runs, {epochs} epoch samples, "
                      f"{hot} line profiles")
                continue
            doc = read_json(path, LOAD_SCHEMA)
            if doc is not None:
                rows = doc.get("rows", [])
                peak = max((r.get("qps", 0.0) for r in rows), default=0.0)
                print(f"{name}: serve-load report ({doc.get('mode', '?')}), "
                      f"{len(rows)} steps, peak {peak:.0f} qps, "
                      f"{doc.get('verify_failures', 0)} verify failures")


def main():
    results = sys.argv[1] if len(sys.argv) > 1 else "results"
    if not os.path.isdir(results):
        print(f"plot_results.py: no results directory {results!r}; "
              "run scripts/run_all_experiments.sh first", file=sys.stderr)
        return 2
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; printing summaries instead\n")
        summarize(results)
        return 0

    plots = [
        # (csv, series key, x, y, ylog, title)
        ("bench_f1_throughput.csv", "primitive", "threads", "measured Mops",
         True, "F1: throughput vs threads"),
        ("bench_f2_latency.csv", "primitive", "threads", "mean latency (cy)",
         False, "F2: latency vs threads"),
        ("bench_f4_cas.csv", None, "threads", "CAS success", False,
         "F4: CAS success vs threads"),
        ("bench_f5_fairness.csv", "arbitration", "threads", "Jain (measured)",
         False, "F5: fairness vs threads"),
        ("bench_f6_energy.csv", "primitive", "threads", "measured nJ/op",
         True, "F6: energy per op"),
        ("bench_e2_sharding.csv", None, "shards", "measured Mops", True,
         "E2: sharding"),
    ]
    made = 0
    for csv_name, key, x, y, ylog, title in plots:
        path = os.path.join(results, csv_name)
        if not os.path.exists(path):
            continue
        rows = read_csv(path)
        fig, ax = plt.subplots(figsize=(6, 4))
        if key:
            for label, pts in series(rows, key, x, y).items():
                pts.sort()
                ax.plot([p[0] for p in pts], [p[1] for p in pts],
                        marker="o", label=label)
            ax.legend(fontsize=8)
        else:
            pts = sorted((float(r[x]), float(r[y])) for r in rows
                         if r.get(x) and r.get(y))
            ax.plot([p[0] for p in pts], [p[1] for p in pts], marker="o")
        if ylog:
            ax.set_yscale("log")
        ax.set_xlabel(x)
        ax.set_ylabel(y)
        ax.set_title(title)
        out = os.path.join(results, csv_name.replace(".csv", ".png"))
        fig.tight_layout()
        fig.savefig(out, dpi=120)
        plt.close(fig)
        print(f"wrote {out}")
        made += 1

    # Observability figures from the JSON run reports.
    for name, doc in reports_in(results):
        for plot in (plot_epochs, plot_hot_lines):
            out = plot(name, doc, results, plt)
            if out:
                print(f"wrote {out}")
                made += 1

    # Serving-daemon figures from am-serve-load/1 reports.
    for name, doc in load_reports_in(results):
        for plot in (plot_saturation, plot_timeline):
            out = plot(name, doc, results, plt)
            if out:
                print(f"wrote {out}")
                made += 1

    if made == 0:
        print("no known CSVs or reports found; "
              "run scripts/run_all_experiments.sh first")
    return 0


if __name__ == "__main__":
    sys.exit(main())
