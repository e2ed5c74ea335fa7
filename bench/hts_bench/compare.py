#!/usr/bin/env python3
"""Compares two hts_bench result sets, or summarises one into a trajectory.

A result set is a directory of hts-bench-v1 files, one per run, as written by
`run.py ... --json <dir>/<workload>_<seed>.json`. Run the parent and the
change with the same seeds, alternating which side goes first.

    compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]
        One row per workload and end-to-end metric: each side's median and
        quartiles, pair wins (runs paired by seed; ties count for neither),
        and a verdict:
          unresolved  the parent's own spread, (q3 - q1) / median, exceeds
                      the metric's bound, unless every change run beats
                      every parent run
          regression  the change's median is worse than the parent's by
                      more than the bound
          gain        the change wins at least 9/10 of the pairs and the
                      medians differ by more than the parent's q3 - q1
          same        otherwise
        Then the wall-clock throughput and latencies (diag.ops_per_s,
        diag.p50_ms, diag.p99_ms), which have no bound: quartiles and pair
        wins only.
        Exits 1 if any row is a regression.

    compare.py --summarize DIR --out FILE [--commit SHA]
        Writes every metric's median, quartiles and spread per workload,
        for the untraced and the traced runs separately.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                 "BENCHMARK.json")
# Throughput and latency as the callers saw them. They move with the
# hypervisor's steal time, so they have no bound: their rows give quartiles
# and pair wins, for a change that claims a wall-clock gain.
WALL_CLOCK = [{"name": "diag.ops_per_s", "better": "higher"},
              {"name": "diag.p50_ms", "better": "lower"},
              {"name": "diag.p99_ms", "better": "lower"}]


def load_set(path, traced=False):
    """{workload: {seed: record}} for the untraced (or traced) runs in a
    directory."""
    runs = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(path, name)) as f:
            rec = json.load(f)
        if rec.get("schema") != "hts-bench-v1" or bool(rec["trace"]) != traced:
            continue
        runs.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return runs


def value(rec, metric):
    for section in ("metrics", "diag"):
        if metric in rec.get(section, {}):
            return rec[section][metric]["value"]
    return None


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def better(a, b, higher):
    return a > b if higher else a < b


def verdict(parent, change, pairs, bound, higher):
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    wins = sum(1 for p, c in pairs if better(c, p, higher))
    all_better = (min(change) > max(parent)) if higher else \
        (max(change) < min(parent))
    worse_by = (p_med - c_med) / p_med if higher else (c_med - p_med) / p_med
    if spread(parent) > bound and not all_better:
        return "unresolved", wins
    if worse_by > bound:
        return "regression", wins
    if pairs and wins >= 0.9 * len(pairs) and abs(c_med - p_med) > p_q3 - p_q1:
        return "gain", wins
    return "same", wins


def compare(args):
    with open(args.benchmark) as f:
        bench = json.load(f)
    parent, change = load_set(args.parent), load_set(args.change)
    header = (f"{'workload':12s} {'metric':15s} {'parent q1/med/q3':>30s} "
              f"{'change q1/med/q3':>30s} {'wins':>6s}  verdict")
    print(header)
    print("-" * len(header))
    regressions = 0
    for w in bench["workloads"]:
        name = w["name"]
        p_runs, c_runs = parent.get(name, {}), change.get(name, {})
        if not p_runs or not c_runs:
            print(f"{name:12s} (missing runs: parent {len(p_runs)}, "
                  f"change {len(c_runs)})")
            continue
        for m in bench["end_to_end"] + WALL_CLOCK:
            higher = m["better"] == "higher"
            pv = [value(r, m["name"]) for r in p_runs.values()]
            cv = [value(r, m["name"]) for r in c_runs.values()]
            pv = [v for v in pv if v is not None]
            cv = [v for v in cv if v is not None]
            if not pv or not cv:
                continue
            pairs = [(value(p_runs[s], m["name"]), value(c_runs[s], m["name"]))
                     for s in sorted(set(p_runs) & set(c_runs))]
            if "bound" in m:
                v, wins = verdict(pv, cv, pairs, m["bound"], higher)
                regressions += v == "regression"
            else:
                v = "not gated"
                wins = sum(1 for p, c in pairs if better(c, p, higher))
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{name:12s} {m['name']:15s} {fmt(quartiles(pv)):>30s} "
                  f"{fmt(quartiles(cv)):>30s} {wins:>3d}/{len(pairs):<2d}  {v}")
    return 1 if regressions else 0


def summarize(args):
    out = {"schema": "hts-bench-trajectory-v1", "commit": args.commit,
           "workloads": {}}
    for mode, traced in (("untraced", False), ("traced", True)):
        runs = load_set(args.summarize, traced)
        for workload, by_seed in sorted(runs.items()):
            recs = list(by_seed.values())
            metrics = {}
            for section in ("metrics", "diag"):
                for name, entry in recs[0].get(section, {}).items():
                    vals = [value(r, name) for r in recs]
                    vals = [v for v in vals if v is not None]
                    q1, med, q3 = quartiles(vals)
                    metrics[name] = {"unit": entry["unit"], "n": len(vals),
                                     "median": med, "q1": q1, "q3": q3,
                                     "spread": spread(vals)}
            out["workloads"].setdefault(workload, {})[mode] = {
                "runs": len(recs), "seeds": sorted(by_seed),
                "seconds": recs[0]["seconds"],
                "noisy_runs": sum(1 for r in recs if r.get("noisy")),
                "all_correct": all(r["correct"] for r in recs),
                "metrics": metrics}
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    ap.add_argument("--summarize", metavar="DIR")
    ap.add_argument("--out")
    ap.add_argument("--commit", default="unknown")
    args = ap.parse_args()
    if args.summarize:
        if not args.out:
            ap.error("--summarize needs --out")
        return summarize(args)
    if not (args.parent and args.change):
        ap.error("give PARENT_DIR and CHANGE_DIR, or --summarize DIR")
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
