#include "harness/experiment.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "harness/baseline_cluster.h"
#include "harness/sim_cluster.h"
#include "harness/workload.h"
#include "sim/simulator.h"

namespace hts::harness {

namespace {

struct DriverSet {
  std::vector<std::unique_ptr<ClosedLoopDriver>> drivers;
  std::vector<bool> is_writer;

  /// Aggregates all driver meters into the result.
  [[nodiscard]] ExperimentResult collect(double measure_s) const {
    ExperimentResult r;
    double min_writer = -1, max_writer = 0;
    std::uint64_t read_bytes = 0, write_bytes = 0, reads = 0, writes = 0;
    for (std::size_t i = 0; i < drivers.size(); ++i) {
      const auto& d = *drivers[i];
      read_bytes += d.read_meter().bytes();
      write_bytes += d.write_meter().bytes();
      reads += d.read_meter().ops();
      writes += d.write_meter().ops();
      if (is_writer[i]) {
        const double w = d.write_meter().mbit_per_second();
        if (min_writer < 0 || w < min_writer) min_writer = w;
        if (w > max_writer) max_writer = w;
      }
    }
    r.read_mbps = static_cast<double>(read_bytes) * 8.0 / 1e6 / measure_s;
    r.write_mbps = static_cast<double>(write_bytes) * 8.0 / 1e6 / measure_s;
    r.reads_per_s = static_cast<double>(reads) / measure_s;
    r.writes_per_s = static_cast<double>(writes) / measure_s;
    r.min_writer_mbps = min_writer < 0 ? 0 : min_writer;
    r.max_writer_mbps = max_writer;
    return r;
  }
};

/// Shared across protocols: wires machines/clients/drivers onto any cluster
/// exposing add_client_machine / add_client / port.
template <typename Cluster, typename AddClient>
void attach_clients(sim::Simulator& sim, Cluster& cluster,
                    const ExperimentParams& p, UniqueValueSource& values,
                    DriverSet& out, AddClient&& add_client,
                    bool pipelined_sessions = true) {
  WorkloadConfig base;
  base.value_size = p.value_size;
  base.start_at = 0.0;
  base.stop_at = p.warmup_s + p.measure_s;
  base.measure_from = p.warmup_s;
  base.measure_until = p.warmup_s + p.measure_s;
  base.n_objects = p.n_objects;
  base.pipeline = p.pipeline;

  std::uint64_t seed = p.seed;
  std::size_t total_readers = 0, total_writers = 0;
  auto spawn = [&](ProcessId server, bool writer, std::size_t machines,
                   std::size_t per_machine) {
    for (std::size_t m = 0; m < machines; ++m) {
      if (writer ? total_writers >= p.max_total_writers
                 : total_readers >= p.max_total_readers) {
        return;
      }
      const std::size_t machine = cluster.add_client_machine();
      for (std::size_t c = 0; c < per_machine; ++c) {
        if (writer ? total_writers >= p.max_total_writers
                   : total_readers >= p.max_total_readers) {
          return;
        }
        (writer ? total_writers : total_readers) += 1;
        const ClientId id = add_client(machine, server);
        WorkloadConfig wl = base;
        wl.write_fraction = writer ? 1.0 : 0.0;
        wl.seed = ++seed;
        // Stagger starts a little so the first round of requests does not
        // arrive as one synchronized burst.
        wl.start_at = 1e-5 * static_cast<double>(id % 97);
        out.drivers.push_back(std::make_unique<ClosedLoopDriver>(
            sim, cluster.port(id), id, wl, values, nullptr));
        out.is_writer.push_back(writer);
      }
    }
  };

  // One client-machine block per *global* server, so a sharded topology gets
  // the same per-server offered load as a single ring of the same size.
  const std::size_t total_servers = p.n_rings * p.n_servers;
  for (ProcessId s = 0; s < total_servers; ++s) {
    spawn(s, false, p.reader_machines_per_server, p.readers_per_machine);
    spawn(s, true, p.writer_machines_per_server, p.writers_per_machine);
  }

  // Preload every register with one full-size value before measurement
  // starts, so read-only experiments measure real payload transfers (the
  // paper's register holds data when its read throughput is measured).
  {
    const std::size_t machine = cluster.add_client_machine();
    WorkloadConfig preload = base;
    preload.write_fraction = 1.0;
    preload.start_at = 0.0;
    preload.stop_at = 1e-9;  // exactly one issue burst per driver
    preload.measure_from = base.stop_at + 1;  // never counted
    preload.measure_until = base.stop_at + 2;
    preload.round_robin_objects = true;
    if (pipelined_sessions) {
      // One pipelined burst at t=0: round-robin objects hit each register
      // exactly once.
      const ClientId id = add_client(machine, 0);
      WorkloadConfig wl = preload;
      wl.pipeline = p.n_objects;  // one write per register, all at t=0
      out.drivers.push_back(std::make_unique<ClosedLoopDriver>(
          sim, cluster.port(id), id, wl, values, nullptr));
      out.is_writer.push_back(false);  // excluded from writer fairness stats
    } else {
      // One-outstanding-op clients (the baselines): one preload client per
      // register, each writing exactly its own object at t=0.
      for (std::size_t k = 0; k < p.n_objects; ++k) {
        const ClientId id = add_client(machine, 0);
        WorkloadConfig wl = preload;
        wl.pipeline = 1;
        wl.object_offset = k;
        out.drivers.push_back(std::make_unique<ClosedLoopDriver>(
            sim, cluster.port(id), id, wl, values, nullptr));
        out.is_writer.push_back(false);
      }
    }
  }
}

/// Latency aggregation: drivers expose their LatencyStats; merge by
/// re-recording all samples would require sample access. Simplest correct
/// approach: collect per-driver means weighted by count for the mean, and
/// max of p99s as a conservative p99.
void fill_latency(const DriverSet& set, ExperimentResult& r) {
  double rsum = 0, wsum = 0;
  std::uint64_t rn = 0, wn = 0;
  double rp99 = 0, wp99 = 0;
  for (const auto& d : set.drivers) {
    const auto& rl = d->read_latency();
    const auto& wl = d->write_latency();
    rsum += rl.mean() * static_cast<double>(rl.count());
    rn += rl.count();
    wsum += wl.mean() * static_cast<double>(wl.count());
    wn += wl.count();
    rp99 = std::max(rp99, rl.percentile(0.99));
    wp99 = std::max(wp99, wl.percentile(0.99));
  }
  r.read_lat_ms_mean = rn ? rsum / static_cast<double>(rn) * 1e3 : 0;
  r.write_lat_ms_mean = wn ? wsum / static_cast<double>(wn) * 1e3 : 0;
  r.read_lat_ms_p99 = rp99 * 1e3;
  r.write_lat_ms_p99 = wp99 * 1e3;
}

SimClusterConfig cluster_config(const ExperimentParams& p) {
  SimClusterConfig cfg;
  cfg.n_servers = p.n_servers;
  cfg.topology = core::Topology{p.n_rings, p.n_servers};
  cfg.shared_network = p.shared_network;
  cfg.server_options = p.server_options;
  cfg.value_policy = p.value_policy;
  // Wide enough for the measured pipelining AND for the preload burst to
  // write every register concurrently at t=0 (drivers bound their own
  // in-flight ops at wl.pipeline, so measured clients never use the
  // extra session width).
  cfg.client_max_inflight = std::max(p.pipeline, p.n_objects);
  // Benches are failure-free; a generous timeout avoids spurious retries
  // under deep queuing.
  cfg.client_retry_timeout_s = 5.0;
  return cfg;
}

template <typename Cluster>
ExperimentResult run_with(Cluster& cluster, sim::Simulator& sim,
                          const ExperimentParams& p, DriverSet& set) {
  for (auto& d : set.drivers) d->start();
  sim.run_until(p.warmup_s + p.measure_s);
  sim.run_to_quiescence();
  ExperimentResult r = set.collect(p.measure_s);
  fill_latency(set, r);
  (void)cluster;
  return r;
}

}  // namespace

ExperimentResult run_core_experiment(const ExperimentParams& p) {
  sim::Simulator sim;
  SimClusterConfig cfg = cluster_config(p);
  cfg.recorder = p.recorder;
  SimCluster cluster(sim, cfg);
  UniqueValueSource values;
  DriverSet set;
  attach_clients(sim, cluster, p, values, set,
                 [&](std::size_t machine, ProcessId server) {
                   cluster.add_client(machine, server);
                   return static_cast<ClientId>(cluster.client_count() - 1);
                 });
  if (p.recorder != nullptr && p.series_bucket_s > 0) {
    obs::TimeSeries* writes = p.recorder->registry().series(
        "workload.write_bytes", p.series_bucket_s);
    obs::TimeSeries* reads = p.recorder->registry().series(
        "workload.read_bytes", p.series_bucket_s);
    for (auto& d : set.drivers) d->set_series(writes, reads);
  }
  for (const ReconfigStep& step : p.reconfig) {
    if (step.remove_last) {
      cluster.schedule_remove_last_ring(step.at);
    } else {
      cluster.schedule_add_ring(step.at, step.add_ring_servers);
    }
  }
  ExperimentResult r = run_with(cluster, sim, p, set);
  r.server_net_bytes = cluster.server_network().total_bytes_sent();
  r.client_net_bytes = cluster.client_network().total_bytes_sent();
  r.n_servers = p.n_rings * p.n_servers;
  for (ProcessId s = 0; s < r.n_servers; ++s) {
    r.fragment_bytes += cluster.server(s).fragment_bytes();
    r.coded_commits += cluster.server(s).stats().coded_commits;
    r.gc_reclaimed_bytes += cluster.server(s).stats().gc_reclaimed_bytes;
  }
  if (p.recorder != nullptr) {
    cluster.export_metrics();
    const auto& hists = p.recorder->registry().histograms();
    if (auto it = hists.find("ring.batch_fill"); it != hists.end()) {
      r.batch_fill_mean = it->second.mean();
    }
  }
  return r;
}

template <typename Protocol>
static ExperimentResult run_baseline(const ExperimentParams& p) {
  // The baseline clients are strictly one-outstanding-op (their begin_*
  // precondition is only an assert, stripped in Release), single-ring, and
  // static-membership: fail loudly in every build rather than silently
  // corrupt their state.
  if (p.pipeline > 1 || p.n_rings > 1 || !p.reconfig.empty()) {
    throw std::logic_error(
        std::string("baseline experiment (") + Protocol::kName +
        ") does not support this shape (pipeline = " +
        std::to_string(p.pipeline) + ", n_rings = " +
        std::to_string(p.n_rings) +
        ", reconfig steps = " + std::to_string(p.reconfig.size()) + ")");
  }
  sim::Simulator sim;
  BaselineCluster<Protocol> cluster(sim, cluster_config(p));
  UniqueValueSource values;
  DriverSet set;
  attach_clients(
      sim, cluster, p, values, set,
      [&](std::size_t machine, ProcessId server) {
        return cluster.add_client(machine, server);
      },
      /*pipelined_sessions=*/false);
  return run_with(cluster, sim, p, set);
}

ExperimentResult run_abd_experiment(const ExperimentParams& p) {
  return run_baseline<AbdProtocol>(p);
}
ExperimentResult run_chain_experiment(const ExperimentParams& p) {
  return run_baseline<ChainProtocol>(p);
}
ExperimentResult run_tob_experiment(const ExperimentParams& p) {
  return run_baseline<TobProtocol>(p);
}

}  // namespace hts::harness
