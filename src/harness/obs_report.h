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

namespace detail {

inline std::vector<std::pair<const char*, std::uint64_t>> server_stat_rows(
    const core::ServerStats& st) {
  return {
      {"pre_writes_initiated", st.pre_writes_initiated},
      {"commits_sent", st.commits_sent},
      {"forwards", st.forwards},
      {"ring_messages_in", st.ring_messages_in},
      {"ring_messages_out", st.ring_messages_out},
      {"batches_out", st.batches_out},
      {"pre_writes_in", st.pre_writes_in},
      {"commits_in", st.commits_in},
      {"syncs_in", st.syncs_in},
      {"syncs_sent", st.syncs_sent},
      {"client_writes_in", st.client_writes_in},
      {"client_reads_in", st.client_reads_in},
      {"reads_immediate", st.reads_immediate},
      {"reads_parked", st.reads_parked},
      {"duplicates_dropped", st.duplicates_dropped},
      {"dedup_acks", st.dedup_acks},
      {"adoptions", st.adoptions},
      {"epoch_nacks", st.epoch_nacks},
      {"transition_parked", st.transition_parked},
      {"migrations_in", st.migrations_in},
      {"migrate_bytes_in", st.migrate_bytes_in},
      {"dedup_merges", st.dedup_merges},
      {"write_queue_max", st.write_queue_max},
      {"urgent_queue_max", st.urgent_queue_max},
      {"forward_queue_max", st.forward_queue_max},
      // Coded value plane (DESIGN.md §Coded values). New rows append at the
      // END: export_server_totals sums by index, so reordering would silently
      // misattribute counters across fabrics and schema versions.
      {"frag_writes_in", st.frag_writes_in},
      {"frag_fetches_in", st.frag_fetches_in},
      {"code.commits", st.coded_commits},
      {"frag_missing", st.frag_missing},
      {"frag_corrupt", st.frag_corrupt},
      {"frag_repairs", st.frag_repairs},
      {"gc.runs", st.gc_runs},
      {"gc.reclaimed_bytes", st.gc_reclaimed_bytes},
      {"frag_late_binds", st.frag_late_binds},
  };
}

inline std::vector<std::pair<const char*, std::uint64_t>> client_stat_rows(
    const core::ClientSession& c) {
  return {
      {"retries", c.retries()},
      {"rotations", c.rotations()},
      {"epoch_nacks", c.epoch_nacks()},
      {"view_refreshes", c.view_refreshes()},
      // Coded value plane: client-side encode/decode work. Append-only, same
      // index-alignment contract as server_stat_rows above.
      {"code.encodes", c.coded_encodes()},
      {"code.decodes", c.coded_decodes()},
      {"frag_corrupt", c.frag_corrupt()},
  };
}

}  // namespace detail

/// Exports one server's protocol counters under "<prefix>.<stat>" plus its
/// live queue depths as gauges.
inline void export_server_stats(obs::MetricsRegistry& reg,
                                const std::string& prefix,
                                const core::RingServer& s) {
  for (const auto& [name, v] : detail::server_stat_rows(s.stats())) {
    reg.counter(prefix + "." + name)->set(v);
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
inline void export_server_totals(obs::MetricsRegistry& reg,
                                 const std::vector<const core::RingServer*>&
                                     servers) {
  std::vector<std::pair<const char*, std::uint64_t>> total =
      detail::server_stat_rows(core::ServerStats{});
  for (const core::RingServer* s : servers) {
    const auto rows = detail::server_stat_rows(s->stats());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      total[i].second += rows[i].second;
    }
  }
  for (const auto& [name, v] : total) {
    reg.counter(std::string("server.total.") + name)->set(v);
  }
}

/// Exports one client session's counters under "<prefix>.<stat>".
inline void export_client_stats(obs::MetricsRegistry& reg,
                                const std::string& prefix,
                                const core::ClientSession& c) {
  for (const auto& [name, v] : detail::client_stat_rows(c)) {
    reg.counter(prefix + "." + name)->set(v);
  }
}

/// Exports the fleet-wide sums as "client.total.<stat>".
inline void export_client_totals(
    obs::MetricsRegistry& reg,
    const std::vector<const core::ClientSession*>& clients) {
  std::vector<std::pair<const char*, std::uint64_t>> total;
  for (const core::ClientSession* c : clients) {
    const auto rows = detail::client_stat_rows(*c);
    if (total.empty()) {
      total = rows;
    } else {
      for (std::size_t i = 0; i < rows.size(); ++i) {
        total[i].second += rows[i].second;
      }
    }
  }
  if (total.empty()) {
    // No sessions yet: still publish the zeroed totals so the export
    // satisfies the metrics schema regardless of cluster population.
    total = {{"retries", 0},      {"rotations", 0},    {"epoch_nacks", 0},
             {"view_refreshes", 0}, {"code.encodes", 0}, {"code.decodes", 0},
             {"frag_corrupt", 0}};
  }
  for (const auto& [name, v] : total) {
    reg.counter(std::string("client.total.") + name)->set(v);
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
