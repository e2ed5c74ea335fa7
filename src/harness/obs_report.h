// Shared observability export helpers for the fabrics.
//
// Both clusters (SimCluster, ThreadedCluster) export the same metric names
// from here, so one schema (tools/metrics_schema.json) validates either
// fabric's output and bench scripts never care which fabric produced a file.
// Every helper *sets* counters (rather than incrementing), so a fabric's
// export_metrics() is idempotent — exporting twice yields the same bytes.
// The other half of the surface is failure forensics: when a lincheck pass
// fails, dump_witness_spans() joins the checker's witness ops — each carries
// its (client, req) — to their trace spans in the run's TraceBuffer.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/client.h"
#include "core/reconfig.h"
#include "core/server.h"
#include "harness/ring_traffic.h"
#include "lincheck/checker.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hts::harness {

/// Exports one server's protocol counters under "<prefix>.<stat>" plus its
/// live queue depths as gauges.
inline void export_server_stats(obs::MetricsRegistry& reg,
                                const std::string& prefix,
                                const core::RingServer& s) {
  for (const auto& [name, field] : core::kServerStatFields) {
    reg.counter(prefix + "." + name)->set(s.stats().*field);
  }
  reg.gauge(prefix + ".write_queue_depth")
      ->set(static_cast<double>(s.write_queue_depth()));
  reg.gauge(prefix + ".urgent_queue_depth")
      ->set(static_cast<double>(s.urgent_queue_depth()));
  reg.gauge(prefix + ".forward_queue_depth")
      ->set(static_cast<double>(s.scheduler().forward_queue_size()));
  reg.gauge(prefix + ".fragment_bytes")
      ->set(static_cast<double>(s.fragment_bytes()));
}

/// Exports the cluster-wide sums as "server.total.<stat>" so aggregate
/// dashboards need no per-server arithmetic.
inline void export_server_totals(
    obs::MetricsRegistry& reg,
    const std::vector<std::pair<ProcessId, const core::RingServer*>>&
        servers) {
  for (const auto& [name, field] : core::kServerStatFields) {
    std::uint64_t total = 0;
    for (const auto& [global, s] : servers) total += s->stats().*field;
    reg.counter(std::string("server.total.") + name)->set(total);
  }
}

/// Exports one client session's counters under "<prefix>.<stat>".
inline void export_client_stats(obs::MetricsRegistry& reg,
                                const std::string& prefix,
                                const core::ClientSession& c) {
  for (const auto& [name, get] : core::kClientStatFields) {
    reg.counter(prefix + "." + name)->set((c.*get)());
  }
}

/// Exports the fleet-wide sums as "client.total.<stat>" (zeros when there
/// are no sessions, so the export satisfies the schema regardless).
inline void export_client_totals(
    obs::MetricsRegistry& reg,
    const std::vector<const core::ClientSession*>& clients) {
  for (const auto& [name, get] : core::kClientStatFields) {
    std::uint64_t total = 0;
    for (const core::ClientSession* c : clients) total += (c->*get)();
    reg.counter(std::string("client.total.") + name)->set(total);
  }
}

/// Exports per-ring wire traffic ("ring.<r>.*" plus the "ring.total.*"
/// sums), the view ("view.epoch" / "view.rings") and the migration
/// counters — the part of export_metrics() both fabrics share verbatim.
inline void export_rings_and_view(obs::MetricsRegistry& reg,
                                  const std::vector<RingTraffic>& rings,
                                  Epoch epoch,
                                  const core::MigrationStats& migration) {
  RingTraffic total;
  for (std::size_t r = 0; r < rings.size(); ++r) {
    const RingTraffic& t = rings[r];
    const std::string prefix = "ring." + std::to_string(r);
    reg.counter(prefix + ".transmissions")->set(t.transmissions);
    reg.counter(prefix + ".bytes")->set(t.bytes);
    reg.counter(prefix + ".ring_messages")->set(t.ring_messages);
    reg.counter(prefix + ".batches")->set(t.batches);
    total.transmissions += t.transmissions;
    total.bytes += t.bytes;
    total.ring_messages += t.ring_messages;
    total.batches += t.batches;
  }
  reg.counter("ring.total.transmissions")->set(total.transmissions);
  reg.counter("ring.total.bytes")->set(total.bytes);
  reg.counter("ring.total.ring_messages")->set(total.ring_messages);
  reg.counter("ring.total.batches")->set(total.batches);

  reg.gauge("view.epoch")->set(static_cast<double>(epoch));
  reg.gauge("view.rings")->set(static_cast<double>(rings.size()));
  reg.counter("migration.objects_moved")->set(migration.objects_moved);
  reg.counter("migration.bytes_moved")->set(migration.bytes_moved);
  reg.counter("migration.dedup_bytes")->set(migration.dedup_bytes);
  reg.counter("migration.reconfigs")->set(migration.reconfigs);
}

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
