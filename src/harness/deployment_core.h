// DeploymentCore — the deployment state SimCluster and ThreadedCluster
// share around their hosts: the epoch-versioned view with its registry and
// shard map (DESIGN.md D8), the session options every new client gets, the
// probe wiring (D9), the bookkeeping of a finished migration, and the
// metrics export minus each fabric's own link counters.
//
// Threading: view() and rings_by_epoch() are locked, so a thread other than
// the controlling one may observe them while a blocking reconfiguration
// runs. Everything else belongs to the controlling thread.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"
#include "core/client.h"
#include "core/reconfig.h"
#include "core/server.h"
#include "core/topology.h"
#include "harness/ring_traffic.h"
#include "obs/probe.h"

namespace hts::harness {

class DeploymentCore {
 public:
  /// `Config` is a cluster config: its resolved topology is the epoch-0
  /// view, and its client_* knobs, value policy and recorder apply to every
  /// session and server the fabric adopts.
  template <class Config>
  explicit DeploymentCore(const Config& cfg)
      : topo(cfg.resolved_topology()),
        registry(std::make_shared<core::ViewRegistry>(
            core::ClusterView{0, topo})),
        map(std::make_shared<const core::ShardMap>(topo.n_rings())),
        recorder_(cfg.recorder),
        view_{0, topo},
        rings_by_epoch_(1, topo.n_rings()) {
    assert(topo.valid());
    session_.retry_timeout = cfg.client_retry_timeout_s;
    session_.retry_multiplier = cfg.client_retry_multiplier;
    session_.retry_cap = cfg.client_retry_cap;
    session_.max_inflight = cfg.client_max_inflight;
    session_.seed = cfg.client_seed;
    session_.value_policy = cfg.value_policy;
  }

  [[nodiscard]] core::ClusterView view() const HTS_EXCLUDES(mu_);
  /// Ring count per epoch so far.
  [[nodiscard]] std::vector<std::size_t> rings_by_epoch() const
      HTS_EXCLUDES(mu_);

  /// Options for a new session first contacting `preferred` (global id),
  /// starting at the current epoch.
  [[nodiscard]] core::ClientOptions client_options(ProcessId preferred) const;
  /// Attaches the server's probe when recording.
  void adopt(core::RingServer& server, ProcessId global) const;
  /// Attaches the session's probe when recording and points it at the
  /// view registry.
  void adopt(core::ClientSession& session) const;

  /// The coordinator reported done: adopts its plan's view, map and
  /// topology and counts the reconfiguration and its copied registers.
  void finish(const core::MigrationCoordinator& done) HTS_EXCLUDES(mu_);

  /// `ring_traffic(r)` for every ring of the current topology, in order.
  template <class RingTrafficFn>
  [[nodiscard]] std::vector<RingTraffic> traffic_per_ring(
      RingTrafficFn&& ring_traffic) const {
    std::vector<RingTraffic> v;
    v.reserve(topo.n_rings());
    for (RingId r = 0; r < static_cast<RingId>(topo.n_rings()); ++r) {
      v.push_back(ring_traffic(r));
    }
    return v;
  }

  /// Snapshots servers (by global id), sessions, per-ring traffic, the
  /// view and the migration counters into the recorder's registry. The
  /// fabric adds its own link counters. No-op without a recorder.
  void export_metrics(
      const std::vector<std::pair<ProcessId, const core::RingServer*>>&
          servers,
      const std::vector<const core::ClientSession*>& sessions,
      const std::vector<RingTraffic>& rings) const;

  core::Topology topo;
  std::shared_ptr<core::ViewRegistry> registry;
  std::shared_ptr<const core::ShardMap> map;
  core::MigrationStats migration_stats;

 private:
  obs::Recorder* recorder_;
  core::ClientOptions session_;  // the config's session knobs
  mutable sync::Mutex mu_;
  core::ClusterView view_ HTS_GUARDED_BY(mu_);
  std::vector<std::size_t> rings_by_epoch_ HTS_GUARDED_BY(mu_);
};

}  // namespace hts::harness
