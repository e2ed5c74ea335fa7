#!/usr/bin/env python3
"""Validate an hts-metrics-v1 export against tools/metrics_schema.json.

Usage: check_metrics.py EXPORT.json [SCHEMA.json]

Checks, in order:
  1. document shape: the schema tag and the four metric sections plus the
     trace occupancy object, each with the right JSON types;
  2. name coverage: every required counter/gauge/histogram/series from the
     schema file exists (and every required name *prefix* matches something);
  3. structural invariants: histogram bucket counts sum to the sample count
     and mean * count == sum; series bucket widths are positive; trace
     size + dropped == total;
  4. cross-checks: the "ring.batch_fill" histogram mean must equal
     ring.total.ring_messages / ring.total.transmissions (every
     next_ring_batch() pull records into the shared histogram, so the two
     are the same quantity computed two ways);
  5. socket counters: an export with any "*.tx_flushes" counter (the
     socket fabric's) must have every name in "socket_counters", and for
     every "<x>.ready_polls" a "<x>.ready_poll_hits" no larger than it;
  6. in-memory loop counters: an export with any "*.loop_wakes" counter
     (the in-memory fabric's) must have every name in "inmem_counters", a
     "<x>.parks" for every "<x>.loop_wakes", and no socket counter.

Exits 0 and prints a one-line summary on success; prints every failure and
exits 1 otherwise. Stdlib only.
"""

import json
import os
import sys

errors = []


def fail(msg):
    errors.append(msg)


def require_section(doc, key, typ):
    if key not in doc:
        fail(f"missing top-level section {key!r}")
        return {}
    if not isinstance(doc[key], typ):
        fail(f"section {key!r} is {type(doc[key]).__name__}, "
             f"expected {typ.__name__}")
        return {}
    return doc[key]


def check_names(section, kind, required, prefixes):
    for name in required:
        if name not in section:
            fail(f"missing required {kind} {name!r}")
    for prefix in prefixes:
        if not any(name.startswith(prefix) for name in section):
            fail(f"no {kind} matches required prefix {prefix!r}")


def check_histograms(hists):
    for name, h in hists.items():
        if not isinstance(h, dict):
            fail(f"histogram {name!r} is not an object")
            continue
        missing = {"count", "sum", "mean", "bounds", "buckets"} - set(h)
        if missing:
            fail(f"histogram {name!r} missing keys {sorted(missing)}")
            continue
        if len(h["buckets"]) != len(h["bounds"]) + 1:
            fail(f"histogram {name!r}: {len(h['buckets'])} buckets for "
                 f"{len(h['bounds'])} bounds (want bounds + 1)")
        if sum(h["buckets"]) != h["count"]:
            fail(f"histogram {name!r}: bucket counts sum to "
                 f"{sum(h['buckets'])}, count says {h['count']}")
        if h["bounds"] != sorted(h["bounds"]):
            fail(f"histogram {name!r}: bounds not sorted")
        if h["count"] > 0:
            want = h["sum"] / h["count"]
            if abs(h["mean"] - want) > 1e-9 * max(1.0, abs(want)):
                fail(f"histogram {name!r}: mean {h['mean']} != "
                     f"sum/count {want}")
        elif h["mean"] != 0:
            fail(f"histogram {name!r}: empty but mean is {h['mean']}")


def check_series(series):
    for name, s in series.items():
        if not isinstance(s, dict):
            fail(f"series {name!r} is not an object")
            continue
        if s.get("bucket_width_s", 0) <= 0:
            fail(f"series {name!r}: non-positive bucket width")
        if not isinstance(s.get("buckets"), list):
            fail(f"series {name!r}: buckets is not an array")


def check_trace(trace):
    for key in ("size", "total", "dropped"):
        if not isinstance(trace.get(key), int) or trace.get(key, -1) < 0:
            fail(f"trace.{key} missing or not a non-negative integer")
            return
    if trace["size"] + trace["dropped"] != trace["total"]:
        fail(f"trace occupancy inconsistent: size {trace['size']} + "
             f"dropped {trace['dropped']} != total {trace['total']}")


def check_cross(schema, counters, hists):
    for chk in schema.get("cross_checks", []):
        h = hists.get(chk["histogram"])
        num = counters.get(chk["numerator"])
        den = counters.get(chk["denominator"])
        if h is None or num is None or den is None:
            fail(f"cross-check {chk['name']!r}: missing operands")
            continue
        if den == 0:
            if h["count"] != 0:
                fail(f"cross-check {chk['name']!r}: zero {chk['denominator']}"
                     f" but histogram has {h['count']} samples")
            continue
        want = num / den
        tol = chk.get("rel_tol", 1e-9) * max(1.0, abs(want))
        if abs(h["mean"] - want) > tol:
            fail(f"cross-check {chk['name']!r}: histogram mean {h['mean']} "
                 f"!= {chk['numerator']}/{chk['denominator']} = {want}")


def check_socket(schema, counters):
    if not any(name.endswith(".tx_flushes") for name in counters):
        return
    for name in schema.get("socket_counters", []):
        if name not in counters:
            fail(f"socket-fabric export lacks {name!r}")
    for name, polls in counters.items():
        if not name.endswith(".ready_polls"):
            continue
        hits_name = name[:-len("polls")] + "poll_hits"
        hits = counters.get(hits_name)
        if hits is None:
            fail(f"{name!r} has no {hits_name!r}")
        elif hits > polls:
            fail(f"{hits_name} = {hits} exceeds {name} = {polls}")


def check_inmem(schema, counters):
    wakes = [n for n in counters if n.endswith(".loop_wakes")]
    if not wakes:
        return
    for name in schema.get("inmem_counters", []):
        if name not in counters:
            fail(f"in-memory export lacks {name!r}")
    for name in wakes:
        parks_name = name[:-len("loop_wakes")] + "parks"
        if parks_name not in counters:
            fail(f"{name!r} has no {parks_name!r}")
    for name in counters:
        if name.endswith((".tx_flushes", ".ready_polls", ".ready_poll_hits")):
            fail(f"in-memory export has the socket counter {name!r}")


def main(argv):
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    export_path = argv[1]
    schema_path = argv[2] if len(argv) == 3 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "metrics_schema.json")

    with open(export_path) as f:
        doc = json.load(f)
    with open(schema_path) as f:
        schema = json.load(f)

    if doc.get("schema") != schema["schema"]:
        fail(f"schema tag {doc.get('schema')!r}, "
             f"expected {schema['schema']!r}")

    counters = require_section(doc, "counters", dict)
    gauges = require_section(doc, "gauges", dict)
    hists = require_section(doc, "histograms", dict)
    series = require_section(doc, "series", dict)
    trace = require_section(doc, "trace", dict)

    check_names(counters, "counter", schema.get("required_counters", []),
                schema.get("required_counter_prefixes", []))
    check_names(gauges, "gauge", schema.get("required_gauges", []),
                schema.get("required_gauge_prefixes", []))
    check_names(hists, "histogram", schema.get("required_histograms", []), [])
    check_names(series, "series", schema.get("required_series", []), [])

    check_histograms(hists)
    check_series(series)
    if trace:
        check_trace(trace)
    check_cross(schema, counters, hists)
    check_socket(schema, counters)
    check_inmem(schema, counters)

    if errors:
        for e in errors:
            print(f"FAIL: {e}", file=sys.stderr)
        print(f"{export_path}: {len(errors)} schema violation(s)",
              file=sys.stderr)
        return 1
    print(f"{export_path}: OK — {len(counters)} counters, {len(gauges)} "
          f"gauges, {len(hists)} histograms, {len(series)} series, "
          f"{doc['trace']['total']} trace events")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
