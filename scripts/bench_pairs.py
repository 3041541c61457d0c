#!/usr/bin/env python3
"""Markdown tables from paired `bench_all --out` files.

usage: bench_pairs.py DIR TAG SEED...

DIR holds `TAG_parent_<workload>_<seed>.json` and
`TAG_change_<workload>_<seed>.json`, one pair per workload and seed (the
files `bench_all --workload W --seed S --out F` writes on two commits).
A workload with no file for the first seed is left out.
Prints, per workload, the end-to-end table EXPERIMENTS.md carries —
medians, quartiles, ratio, pairs won, verdict against the metric's
bound — and a per-layer table of medians with [min, max].
"""
import json
import os
import statistics
import sys

WORKLOADS = ["micro_commutative", "micro_contended", "tpcw_durable", "geo_failover"]
PER_LAYER = [
    "failed_frac",
    "audit_violations",
    "core.fast_commit_frac",
    "core.collisions_per_kcommit",
    "core.learn_timeouts_per_kcommit",
    "core.repair_pulls_per_kcommit",
    "sim.events_per_commit",
    "sim.host_us_per_event",
    "sim.protocol_bytes_per_commit",
    "sim.repair_bytes_per_commit",
    "cluster.diverged_replicas",
    "cluster.pending_options",
    "cluster.stuck_clients",
    "cluster.min_stock",
    "mastership.lease_overlaps",
]


def load(path):
    with open(path) as f:
        return {(r["workload"], r["metric"]): r for r in json.load(f)["rows"]}


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], statistics.median(values), q[2]


def fmt(x):
    if x is None:
        return "–"
    if abs(x) >= 1000:
        return f"{x:.0f}"
    if abs(x) >= 100:
        return f"{x:.1f}"
    if abs(x) >= 10:
        return f"{x:.2f}"
    return f"{x:.3f}"


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__)
    directory, tag, seeds = argv[0], argv[1], argv[2:]
    path = lambda side, w, s: f"{directory}/{tag}_{side}_{w}_{s}.json"
    workloads = [w for w in WORKLOADS if os.path.exists(path("parent", w, seeds[0]))]
    runs = {
        (side, w, s): load(path(side, w, s))
        for side in ("parent", "change")
        for w in workloads
        for s in seeds
    }
    column = lambda side, w, m: [
        runs[side, w, s][w, m]["value"] for s in seeds if runs[side, w, s].get((w, m))
    ]
    print("| workload | metric | parent median [q1, q3] | change median [q1, q3] "
          "| change ÷ parent | pairs won | verdict (bound) |")
    print("|---|---|---:|---:|---:|---:|---|")
    for w in workloads:
        first = runs["parent", w, seeds[0]]
        for (_, m), row in first.items():
            if "bound" not in row or row.get("bound_kind") != "rel" or "." in m:
                continue
            if m in ("read_p99_ms", "fsyncs_per_commit", "failover_max_ms"):
                continue
            p, c = column("parent", w, m), column("change", w, m)
            if any(v is None for v in p + c):
                continue
            lower = row["better"] == "lower"
            won = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
            decided = sum(cv != pv for pv, cv in zip(p, c))  # ties count for neither
            (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(p), quartiles(c)
            ratio = cm / pm
            worse = ratio - 1 if lower else 1 - ratio
            better = (cm < pm) if lower else (cm > pm)
            if worse > row["bound"]:
                verdict = "**regressed**"
            elif 0 < 9 * decided <= won * 10 and better and abs(cm - pm) > pq3 - pq1:
                verdict = "**improved**"
            else:
                verdict = "within bound"
            print(f"| `{w}` | `{m}` | {fmt(pm)} [{fmt(pq1)}, {fmt(pq3)}] | "
                  f"{fmt(cm)} [{fmt(cq1)}, {fmt(cq3)}] | {ratio:.3f} | {won}/{len(p)} | "
                  f"{verdict} ({row['bound'] * 100:.0f} %) |")
    for w in workloads:
        print()
        print(f"| metric (`{w}`, median [min, max]) | parent | change |")
        print("|---|---:|---:|")
        for m in PER_LAYER:
            cells = []
            for side in ("parent", "change"):
                v = [x for x in column(side, w, m) if x is not None]
                cells.append(f"{fmt(statistics.median(v))} [{fmt(min(v))}, {fmt(max(v))}]"
                             if v else "–")
            print(f"| `{m}` | {cells[0]} | {cells[1]} |")


if __name__ == "__main__":
    main(sys.argv[1:])
