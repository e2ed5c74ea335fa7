// Deterministic exporters for the metrics registry and trace buffer.
//
// JSON ("hts-metrics-v1") for machine consumption (CI schema validation,
// plotting); CSV for the trace so `tools/trace_dump` can pretty-print spans
// without a JSON parser. Determinism contract: metric names iterate in
// sorted order, doubles print via "%.17g" (round-trip exact), timestamps are
// the Recorder clock's — so two identical seeded sim runs export identical
// bytes.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"
#include "obs/probe.h"
#include "obs/trace.h"

namespace hts::obs {

/// Round-trip-exact double formatting ("%.17g", with integral values kept
/// short). Shared by every exporter so all outputs agree byte-for-byte.
[[nodiscard]] std::string format_double(double v);

/// Registry as a "hts-metrics-v1" JSON document.
[[nodiscard]] std::string registry_to_json(const MetricsRegistry& reg);

/// Trace events as CSV: t,kind,actor,side,client,req,a,b (header row first).
[[nodiscard]] std::string trace_to_csv(const TraceBuffer& trace);

/// Parses trace_to_csv output (header optional). Unparseable rows are
/// skipped.
[[nodiscard]] std::vector<TraceEvent> parse_trace_csv(const std::string& csv);

/// Pretty-prints the span of one operation: one indented line per event,
/// timestamps relative to the first. Events must already be filtered to the
/// op (TraceBuffer::for_op or a grouped parse).
[[nodiscard]] std::string format_span(ClientId client, RequestId req,
                                      const std::vector<TraceEvent>& events);

/// Groups a flat event list by (client, req) — op-less events (0/0) are
/// skipped — and pretty-prints every span, ordered by first appearance.
[[nodiscard]] std::string format_spans(const std::vector<TraceEvent>& events);

/// Full recorder snapshot as one JSON document: the registry plus trace
/// buffer occupancy ("trace": {size, total, dropped}).
[[nodiscard]] std::string recorder_to_json(const Recorder& rec);

/// Writes `content` to `path`; returns false on I/O failure.
bool write_file(const std::string& path, const std::string& content);

}  // namespace hts::obs
