// Experiment runner for the paper's Figure 3 / Figure 4 style measurements:
// build a cluster (core ring or a baseline) on the simulator, attach client
// machines per server, run warmup + measurement windows, aggregate Mbit/s
// and latency. One function per protocol family, shared parameter struct —
// the bench binaries are thin tables over these.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "code/policy.h"
#include "core/server.h"
#include "obs/probe.h"

namespace hts::harness {

/// One scheduled live reconfiguration (core protocol only, DESIGN.md D8):
/// at sim time `at`, grow the deployment by one ring of `add_ring_servers`
/// servers — or retire the last ring when `remove_last` is set.
struct ReconfigStep {
  double at = 0;
  std::size_t add_ring_servers = 0;
  bool remove_last = false;
};

struct ExperimentParams {
  /// Servers per ring. With n_rings > 1 the cluster is a sharded topology
  /// of n_rings independent rings of this size (core protocol only).
  std::size_t n_servers = 3;
  std::size_t n_rings = 1;

  // Per the paper: dedicated client machines per server; each machine hosts
  // several logical closed-loop clients ("the client application can emulate
  // multiple clients").
  std::size_t reader_machines_per_server = 2;
  std::size_t readers_per_machine = 8;
  std::size_t writer_machines_per_server = 0;
  std::size_t writers_per_machine = 8;

  /// Caps across the whole cluster (for isolated-latency runs, e.g. FIG4's
  /// single unloaded client). SIZE_MAX = no cap.
  std::size_t max_total_readers = static_cast<std::size_t>(-1);
  std::size_t max_total_writers = static_cast<std::size_t>(-1);

  std::size_t value_size = 8192;
  bool shared_network = false;  ///< Fig. 3 bottom chart topology
  double warmup_s = 0.5;
  double measure_s = 2.0;
  std::uint64_t seed = 42;

  /// Object namespace: each operation addresses one of n_objects registers
  /// uniformly at random; each client keeps up to `pipeline` ops in flight
  /// (pipelining is core-protocol only; all protocols serve the namespace).
  std::size_t n_objects = 1;
  std::size_t pipeline = 1;

  /// Live reconfigurations to run during the experiment, in schedule order
  /// (core protocol only; baselines are static-membership and reject this).
  std::vector<ReconfigStep> reconfig;

  core::ServerOptions server_options;

  /// Coded value plane (core protocol only, DESIGN.md §Coded values):
  /// applied to every server and client of the cluster. Inactive = the
  /// replicated protocol, bit-for-bit.
  code::ValuePolicy value_policy;

  /// Observability (core protocol only): when set, the cluster attaches
  /// probes, every driver feeds 0.1 s-bucket completion series
  /// ("workload.write_bytes" / "workload.read_bytes", covering the whole
  /// run so a reconfiguration's throughput dip is a first-class exported
  /// series), and the run ends with cluster.export_metrics(). Wire-silent.
  obs::Recorder* recorder = nullptr;
};

struct ExperimentResult {
  double read_mbps = 0;      ///< total payload read throughput
  double write_mbps = 0;     ///< total payload write throughput
  double reads_per_s = 0;
  double writes_per_s = 0;
  double read_lat_ms_mean = 0;
  double read_lat_ms_p99 = 0;
  double write_lat_ms_mean = 0;
  double write_lat_ms_p99 = 0;
  double min_writer_mbps = 0;  ///< fairness check: slowest writer client
  double max_writer_mbps = 0;
  /// Mean fill of the shared "ring.batch_fill" histogram (protocol messages
  /// per ring transmission) — 0 when no recorder was attached. Every
  /// next_ring_batch() pull records, so this equals the RingTraffic fill
  /// factor ring_messages / transmissions exactly.
  double batch_fill_mean = 0;

  // Wire/storage accounting for the coded-plane benches (core protocol
  // only; zero for baselines). Network totals cover the whole run
  // including warmup — ratios between configs are still apples-to-apples
  // because every config runs the identical schedule.
  std::uint64_t server_net_bytes = 0;   ///< ring-network bytes, all servers
  std::uint64_t client_net_bytes = 0;   ///< client-network bytes, all NICs
  std::uint64_t fragment_bytes = 0;     ///< sum of per-server fragment stores
  std::uint64_t coded_commits = 0;      ///< cluster-wide coded commits
  std::uint64_t gc_reclaimed_bytes = 0; ///< cluster-wide GC-reclaimed bytes
  std::size_t n_servers = 0;            ///< total servers (for per-server /)
};

/// The paper's algorithm on the simulator.
ExperimentResult run_core_experiment(const ExperimentParams& p);

/// Baselines (same topology, same drivers).
ExperimentResult run_abd_experiment(const ExperimentParams& p);
ExperimentResult run_chain_experiment(const ExperimentParams& p);
ExperimentResult run_tob_experiment(const ExperimentParams& p);

}  // namespace hts::harness
