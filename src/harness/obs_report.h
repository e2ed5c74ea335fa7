// Failure forensics for the observability layer: when a lincheck pass
// fails, dump_witness_spans() joins the checker's witness ops — each carries
// its (client, req) — to their trace spans in the run's TraceBuffer. (The
// metrics export itself is DeploymentCore::export_metrics(), one schema for
// every fabric: tools/metrics_schema.json.)
#pragma once

#include <string>
#include <vector>

#include "lincheck/checker.h"
#include "obs/export.h"
#include "obs/trace.h"

namespace hts::harness {

/// Formats the trace spans of a failed lincheck's witness ops: each witness
/// is described, then its span (all trace events sharing its client and
/// request id) is pretty-printed. This is what a harness prints when a run
/// turns out non-linearizable — the offending ops' full wire-level life.
inline std::string dump_witness_spans(
    const obs::TraceBuffer& trace,
    const std::vector<lincheck::Op>& witnesses) {
  std::string out;
  for (const lincheck::Op& w : witnesses) {
    out += "witness: " + w.describe() + "\n";
    if (w.req == 0) {
      out += "  (op carries no request id; no span recorded)\n";
      continue;
    }
    const auto events = trace.for_op(w.client, w.req);
    if (events.empty()) {
      out += "  (no trace events: probes detached or buffer wrapped)\n";
      continue;
    }
    out += obs::format_span(w.client, w.req, events);
  }
  return out;
}

}  // namespace hts::harness
